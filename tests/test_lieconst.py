"""The lieconst v1 text format: parse, render, round trips, error positions."""

import re
from fractions import Fraction

import pytest

from liemult.catalog import abelian, heisenberg, l_3_4_1_4, standard_entries
from liemult.liealg import IndexOutOfRange, JacobiViolation, build, change_of_basis, quotient
from liemult import lieconst
from liemult.lieconst import LieconstSyntaxError, _fail, _int, _parse_terms, parse, render
from liemult.linalg import Matrix
from liemult.randgen import Lcg, random_change_of_basis, random_unimodular

from fraction_reference import from_vectors, render_text, vector


def test_parse_heisenberg():
    alg = parse("dim 3\n[e1,e2] = e3\n")
    assert alg == heisenberg(1).algebra


def test_parse_abelian():
    assert parse("dim 2\n") == abelian(2).algebra
    assert parse("dim 0\n") == abelian(0).algebra


def test_parse_l3414():
    alg = parse("dim 4\n[e1,e2] = e3\n[e1,e3] = e4\n")
    assert alg == l_3_4_1_4().algebra


def test_parse_coefficients_and_signs():
    alg = parse("dim 3\n[e1,e2] = 2 e1 - 1/2 e3\n")
    assert alg.table == ((0, 1, vector([2, 0, "-1/2"])),)
    assert (alg.denom, alg.brackets) == (2, ((0, 1, ((0, 4), (2, -1))),))
    same = parse("dim 3\n[e1,e2] = -1/2 e3 + 2 e1\n")
    assert same == alg


def test_parse_comments_and_blank_lines():
    text = """
# Heisenberg on three generators
dim 3

[e1,e2] = e3  # the only bracket
"""
    assert parse(text) == heisenberg(1).algebra


def test_parse_syntax_errors_carry_position():
    with pytest.raises(LieconstSyntaxError) as exc:
        parse("dimension 3\n")
    assert exc.value.line == 1
    with pytest.raises(LieconstSyntaxError) as exc:
        parse("dim 3\n[e1;e2] = e3\n")
    assert exc.value.line == 2
    with pytest.raises(LieconstSyntaxError) as exc:
        parse("dim 3\n[e1,e2] = \n")
    assert exc.value.line == 2
    with pytest.raises(LieconstSyntaxError) as exc:
        parse("dim 3\n[e1,e2] = e3 e2\n")
    assert exc.value.line == 2
    with pytest.raises(LieconstSyntaxError):
        parse("")
    with pytest.raises(LieconstSyntaxError):
        parse("dim 3\n[e1,e2] = 1/0 e3\n")


def test_parse_domain_errors():
    with pytest.raises(LieconstSyntaxError):
        # e4 out of range inside a dim-3 table is caught at parse time
        parse("dim 3\n[e1,e2] = e4\n")
    with pytest.raises(IndexOutOfRange):
        parse("dim 3\n[e2,e1] = e3\n")
    with pytest.raises(JacobiViolation):
        parse("dim 3\n[e1,e2] = e3\n[e1,e3] = e1\n")


def test_render_abelian_is_header_only():
    assert render(abelian(2).algebra) == "dim 2\n"


def test_render_heisenberg():
    assert render(heisenberg(1).algebra) == "dim 3\n[e1,e2] = e3\n"


def test_render_signs_and_fractions():
    alg = parse("dim 3\n[e1,e2] = -e1 + 1/2 e3\n")
    assert render(alg) == "dim 3\n[e1,e2] = -e1 + 1/2 e3\n"
    alg = parse("dim 3\n[e1,e2] = e1 - 2 e3\n")
    assert render(alg) == "dim 3\n[e1,e2] = e1 - 2 e3\n"


# each text is canonical: render(parse(text)) gives it back byte for byte
RENDERED = [
    # a unit term first and later in a line, with either sign
    "dim 5\n[e1,e2] = -e3 + e4 - e5\n[e1,e3] = e4 - e5\n[e2,e3] = -e5\n",
    # denom 4: the numerators 2, -6 and 4 of [e1,e2] reduce term by term
    "dim 6\n[e1,e2] = 1/2 e4 - 3/2 e5 + e6\n[e1,e3] = -1/4 e6\n",
    # multi-digit numerators and denominators
    "dim 6\n[e1,e2] = -123 e4 + 4567/89 e5 - 10 e6\n[e1,e3] = 1000/891 e6\n",
]


@pytest.mark.parametrize("text", RENDERED)
def test_render_writes_terms_from_the_integers(text):
    alg = parse(text)
    assert render(alg) == text
    assert render(alg) == render_text(alg)


def test_render_of_denom_4_reduces_each_term():
    alg = parse(RENDERED[1])
    assert (alg.denom, alg.brackets[0][2]) == (4, ((3, 2), (4, -6), (5, 4)))


def test_render_builds_no_fraction(monkeypatch):
    alg = parse(RENDERED[2])
    assert alg.denom == 89 * 891

    def refuse(*args):
        raise AssertionError("render built a Fraction")

    monkeypatch.setattr(lieconst, "Fraction", refuse)
    assert render(alg) == RENDERED[2]


def test_round_trip_catalog():
    for e in standard_entries(3, 3):
        assert parse(render(e.algebra)) == e.algebra


def test_quotient_of_l3414_renders_as_heisenberg_file():
    alg = l_3_4_1_4().algebra
    q = quotient(alg, from_vectors(4, [[0, 0, 0, 1]]))
    assert render(q) == render(heisenberg(1).algebra)


_NUM_RE = re.compile(r"(\d+)\s*(?:/\s*(\d+))?")
_BASIS_RE = re.compile(r"e(\d+)")


def _reference_parse_terms(rhs, lineno, offset, dim):
    """The hand-written term scanner that ``_TERM_RE`` replaced, kept as the reference."""
    coeffs = {}
    pos = 0
    first = True
    n = len(rhs)
    while True:
        while pos < n and rhs[pos].isspace():
            pos += 1
        if pos == n:
            if first:
                _fail("expected at least one term after '='", lineno, offset + pos + 1)
            break
        sign = 1
        if first:
            if rhs[pos] in "+-":
                if rhs[pos] == "-":
                    sign = -1
                pos += 1
        else:
            if rhs[pos] == "+":
                pos += 1
            elif rhs[pos] == "-":
                sign = -1
                pos += 1
            else:
                _fail("expected '+' or '-' between terms", lineno, offset + pos + 1)
        while pos < n and rhs[pos].isspace():
            pos += 1
        coeff = Fraction(1)
        m = _NUM_RE.match(rhs, pos)
        if m:
            num = _int(m.group(1), lineno, offset + m.start(1) + 1)
            den = _int(m.group(2), lineno, offset + m.start(2) + 1) if m.group(2) else 1
            if den == 0:
                _fail("zero denominator", lineno, offset + pos + 1)
            coeff = Fraction(num, den)
            pos = m.end()
            while pos < n and rhs[pos].isspace():
                pos += 1
        m = _BASIS_RE.match(rhs, pos)
        if not m:
            _fail("expected basis vector eK", lineno, offset + pos + 1)
        k = _int(m.group(1), lineno, offset + m.start(1) + 1)
        if not (1 <= k <= dim):
            _fail(f"basis index e{k} outside 1..{dim}", lineno, offset + pos + 1)
        pos = m.end()
        coeffs[k] = coeffs.get(k, Fraction(0)) + sign * coeff
        first = False
    return coeffs


def _outcome(scan, rhs):
    try:
        return scan(rhs, 3, 7, 4)
    except LieconstSyntaxError as exc:
        return type(exc), str(exc), exc.line, exc.column


_TOKENS = (" ", "\t", "+", "-", "0", "1", "2", "7", "/", "e", "e1", "e4", "e5", "e0",
           "1/0", "9" * 5000, "\u0663")  # U+0663 is the Arabic-Indic digit three


def test_term_scanner_matches_reference_scanner():
    # the 5000-digit literal is longer than int() converts by default,
    # and U+0663 is a digit to both \d and int()
    rng = Lcg(113)
    errors = 0
    for _ in range(20000):
        rhs = "".join(rng.choice(_TOKENS) for _ in range(rng.randint(0, 9)))
        want = _outcome(_reference_parse_terms, rhs)
        assert _outcome(_parse_terms, rhs) == want, rhs[:80]
        errors += isinstance(want, tuple)
    assert 10000 < errors < 20000


def _shuffle(rng, items):
    for a in range(len(items) - 1, 0, -1):
        b = rng.randint(0, a)
        items[a], items[b] = items[b], items[a]


def _term(rng, c, k):
    """One signed term for the coefficient c of e_k, in one of its spellings."""
    sign = "-" if c < 0 else "+"
    mag = -c if c < 0 else c
    f = rng.randint(1, 4)
    if mag.denominator == 1 and rng.randint(0, 1):
        body = "" if mag == 1 and rng.randint(0, 1) else f"{mag.numerator}{rng.choice(('', ' '))}"
    else:
        # p/q, not always in lowest terms
        body = f"{mag.numerator * f}/{mag.denominator * f} "
    return sign, f"{body}e{k}"


def _spelled(rng, coeffs, n):
    """'c1 ek1 + ...' for a {k: Fraction} mapping, split, repeated, padded with cancelling terms, shuffled."""
    terms = []
    for k, c in coeffs.items():
        for _ in range(rng.randint(0, 2)):
            part = Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3)))
            terms.append(_term(rng, part, k))
            c -= part
        terms.append(_term(rng, c, k))
    for _ in range(rng.randint(0 if terms else 1, 2)):
        k = rng.randint(1, n)
        x = Fraction(rng.randint(1, 5), rng.choice((1, 2)))
        terms += [_term(rng, x, k), _term(rng, -x, k)]
    _shuffle(rng, terms)
    return "".join(f" {sign} {body}" for sign, body in terms).lstrip(" +")


def test_integer_tokeniser_matches_fraction_reference():
    # parse keeps coefficients as ints and makes a Fraction only for p/q;
    # the stored form and hash must be those of the Fraction scanner's
    rng = Lcg(127)
    algebras = [e.algebra for e in standard_entries(3, 2)]
    for alg in [a for a in algebras if a.dim]:
        u = random_unimodular(alg.dim, rng)
        scale = [Fraction(rng.randint(1, 3), rng.choice((1, 2, 3))) for _ in range(alg.dim)]
        algebras.append(change_of_basis(alg, u))
        algebras.append(change_of_basis(alg, Matrix.from_rows(
            [[x * y for y in row] for x, row in zip(scale, u.iter_rows())])))
    lines = 0
    for alg in algebras:
        n = alg.dim
        rows = [(i + 1, j + 1, {m + 1: Fraction(a, alg.denom) for m, a in coeffs})
                for i, j, coeffs in alg.brackets]
        stored = {(i, j) for i, j, _ in rows}
        free = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1) if (i, j) not in stored]
        if free:
            # a bracket whose terms all cancel is a zero bracket
            rows.append((*rng.choice(free), {}))
        _shuffle(rng, rows)
        text = f"dim {n}\n" + "".join(f"[e{i},e{j}] = {_spelled(rng, c, n)}\n" for i, j, c in rows)
        got = parse(text)
        reference = build(n, [(i, j, _reference_parse_terms(line.split("= ", 1)[1], 0, 0, n))
                              for (i, j, _), line in zip(rows, text.splitlines()[1:])])
        stored_form = (n, alg.denom, alg.brackets)
        assert (got.dim, got.denom, got.brackets) == stored_form
        assert (reference.dim, reference.denom, reference.brackets) == stored_form
        assert hash(got) == hash(reference) == hash(alg)
        assert type(got.denom) is int
        assert all(type(a) is int for _, _, coeffs in got.brackets for _, a in coeffs)
        lines += len(rows)
    assert lines > 250


def test_build_equal_for_int_and_fraction_coefficients():
    rng = Lcg(131)
    tables = [e.algebra for e in standard_entries(3, 2) if e.algebra.dim]
    tables += [random_change_of_basis(a, rng) for a in tables]
    for table in tables:
        n = table.dim
        assert table.denom == 1
        as_int = [(i + 1, j + 1, {m + 1: a for m, a in c}) for i, j, c in table.brackets]
        as_fraction = [(i, j, {k: Fraction(a) for k, a in c.items()}) for i, j, c in as_int]
        dense = [(i, j, [c.get(k, 0) for k in range(1, n + 1)]) for i, j, c in as_int]
        dense_fraction = [(i, j, [Fraction(x) for x in v]) for i, j, v in dense]
        built = [build(n, data) for data in (as_int, as_fraction, dense, dense_fraction)]
        assert all(b == table and hash(b) == hash(table) for b in built)
        assert all(type(a) is int for b in built for _, _, c in b.brackets for _, a in c)
