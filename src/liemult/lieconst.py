"""The "lieconst v1" text format for structure-constant tables.

Line-oriented and hand-writable::

    # optional comments run to end of line
    dim 4
    [e1,e2] = e3
    [e1,e3] = 2 e4 + 1/2 e2

The header ``dim N`` comes first; each bracket line gives [e_i, e_j]
with i < j as a signed sum of terms ``coefficient eK`` (coefficient
optional, default 1; rationals written p/q).  Unlisted brackets are
zero; the antisymmetric completion is implicit.  Rendering is canonical
(brackets sorted by (i, j), coefficients in lowest terms, zero brackets
omitted), and parse(render(L)) reproduces L exactly.

A canonical bracket line is split on whitespace; every other spelling,
and every malformed one, goes to the one-regex term scanner, which
alone reports term errors.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd

from .liealg import LieAlgebra, build

MAX_DIM = 10**5  # the largest accepted ``dim N``: a basis of n vectors is built

_DIM_RE = re.compile(r"dim\s+(\d+)\s*$")
_LHS_RE = re.compile(r"\[\s*e(\d+)\s*,\s*e(\d+)\s*\]\s*=\s*")
# one term: sign, numerator, denominator and basis index, each optional
_TERM_RE = re.compile(r"\s*([+-]?)\s*(?:(\d+)\s*(?:/\s*(\d+))?\s*)?(?:e(\d+))?")


class LieconstSyntaxError(ValueError):
    """Malformed lieconst text; carries 1-based line and column."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def _fail(message: str, line: int, column: int) -> None:
    raise LieconstSyntaxError(message, line, column)


def _int(digits: str, line: int, column: int) -> int:
    """A decimal literal, or a syntax error where int() refuses it for length."""
    try:
        return int(digits)
    except ValueError:
        _fail(f"number of {len(digits)} digits is too long", line, column)


def _parse_terms(rhs: str, lineno: int, offset: int, dim: int) -> dict[int, int | Fraction]:
    """Parse 'c1 ek1 + c2 ek2 - ...' into coefficients keyed by the 1-based k.

    ``_TERM_RE`` matches one term at a time; an absent group is a
    missing piece, reported at the column where it was expected.  A
    coefficient stays an int unless it is written p/q.
    """
    coeffs: dict[int, int | Fraction] = {}
    pos = 0
    while True:
        m = _TERM_RE.match(rhs, pos)
        sign, num, den, k = m.groups()
        at = m.start(1)  # the term's first character after whitespace
        if at == len(rhs):
            if not coeffs:
                _fail("expected at least one term after '='", lineno, offset + at + 1)
            return coeffs
        if coeffs and not sign:
            _fail("expected '+' or '-' between terms", lineno, offset + at + 1)
        coeff: int | Fraction = 1
        if num:
            coeff = _int(num, lineno, offset + m.start(2) + 1)
            if den:
                divisor = _int(den, lineno, offset + m.start(3) + 1)
                if divisor == 0:
                    _fail("zero denominator", lineno, offset + m.start(2) + 1)
                coeff = Fraction(coeff, divisor)
        if k is None:
            _fail("expected basis vector eK", lineno, offset + m.end() + 1)
        index = _int(k, lineno, offset + m.start(4) + 1)
        if not (1 <= index <= dim):
            _fail(f"basis index e{index} outside 1..{dim}", lineno, offset + m.start(4))
        coeffs[index] = coeffs.get(index, 0) + (-coeff if sign == "-" else coeff)
        pos = m.end()


def _terms(rhs: str, lineno: int, offset: int, dim: int) -> dict[int, int | Fraction]:
    """The coefficients of one right-hand side, split on whitespace when it is canonical.

    A canonical right-hand side, as ``render`` writes it, is an optional
    leading '-', then terms 'eK', 'p eK' or 'p/q eK' (1 <= K <= dim,
    q != 0) with a '+' or '-' token between them.  Any other spelling,
    and any literal that int() refuses, goes to ``_parse_terms``, which
    reads it the same way or reports the error.
    """
    coeffs: dict[int, int | Fraction] = {}
    sign = "-" if rhs[:1] == "-" else "+"  # the next term's sign; None right after a term
    coeff = None  # the next term's coefficient, once read
    try:
        for tok in (rhs[1:] if sign == "-" else rhs).split():
            if sign is None:
                if tok != "+" and tok != "-":
                    break
                sign = tok
            elif tok[0] == "e" and tok[1:].isdecimal():
                index = int(tok[1:])
                if not 1 <= index <= dim:
                    break
                c = 1 if coeff is None else coeff
                coeffs[index] = coeffs.get(index, 0) + (-c if sign == "-" else c)
                sign = coeff = None
            elif coeff is None:
                p, slash, q = tok.partition("/")
                if not p.isdecimal() or slash and not q.isdecimal():
                    break
                coeff = Fraction(int(p), int(q)) if slash else int(p)
            else:
                break
        else:
            if sign is None:
                return coeffs
    except (ValueError, ZeroDivisionError):  # an over-long literal, or q = 0
        pass
    return _parse_terms(rhs, lineno, offset, dim)


def parse(text: str) -> LieAlgebra:
    """Parse lieconst v1 text into a validated LieAlgebra.

    Raises LieconstSyntaxError with line/column on malformed text or a
    dimension above ``MAX_DIM``;
    IndexOutOfRange, DuplicateBracket and JacobiViolation propagate from
    validation.
    """
    dim: int | None = None
    brackets: list[tuple[int, int, dict[int, int | Fraction]]] = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0]
        stripped = content.strip()
        if not stripped:
            continue
        col = content.index(stripped[0]) + 1
        if dim is None:
            m = _DIM_RE.match(stripped)
            if not m:
                _fail("expected 'dim N' header", lineno, col)
            dim = _int(m.group(1), lineno, col + m.start(1))
            if dim > MAX_DIM:
                _fail(f"dimension above {MAX_DIM}", lineno, col + m.start(1))
            continue
        m = _LHS_RE.match(stripped)
        if not m:
            _fail("expected bracket line '[ei,ej] = ...'", lineno, col)
        i = _int(m.group(1), lineno, col + m.start(1))
        j = _int(m.group(2), lineno, col + m.start(2))
        rhs = stripped[m.end():]
        coeffs = _terms(rhs, lineno, col - 1 + m.end(), dim)
        brackets.append((i, j, coeffs))
    if dim is None:
        _fail("empty input: missing 'dim N' header", 1, 1)
    return build(dim, brackets)


def render(L: LieAlgebra) -> str:
    """Canonical lieconst v1 text for an algebra.

    Each term is written from its stored numerator a over ``L.denom``:
    one gcd brings a/denom to lowest terms and the sign is read off a,
    so no Fraction is built.  A unit magnitude is written as the bare
    basis vector, an integral one as ``p eK`` and any other as ``p/q eK``.
    """
    denom = L.denom
    lines = [f"dim {L.dim}"]
    for i, j, coeffs in L.brackets:
        line = f"[e{i + 1},e{j + 1}] = "
        minus, plus = "-", ""
        for m, a in coeffs:
            g = gcd(a, denom)
            p = abs(a) // g
            q = denom // g
            if q != 1:
                body = f"{p}/{q} e{m + 1}"
            elif p != 1:
                body = f"{p} e{m + 1}"
            else:
                body = f"e{m + 1}"
            line += (minus if a < 0 else plus) + body
            minus, plus = " - ", " + "
        lines.append(line)
    return "\n".join(lines) + "\n"


def load(path: str) -> LieAlgebra:
    with open(path, "r", encoding="utf-8") as fh:
        return parse(fh.read())
