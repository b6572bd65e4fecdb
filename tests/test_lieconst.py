"""The lieconst v1 text format: parse, render, round trips, error positions."""

import re
from fractions import Fraction

import pytest

from liemult.catalog import abelian, heisenberg, l_3_4_1_4, standard_entries
from liemult.liealg import IndexOutOfRange, JacobiViolation, quotient
from liemult.lieconst import LieconstSyntaxError, _fail, _int, _parse_terms, parse, render
from liemult.linalg import vector
from liemult.randgen import Lcg

from fraction_reference import from_vectors


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
