"""``parse`` of arbitrary text raises only the documented exceptions.

Texts are lines drawn from headers ``dim N`` with N <= 12, pieces of
the format (brackets, terms, signs, fractions, comments) and stray
characters.  No soup line can spell ``dim``, so no header names a basis
larger than 12 and no case allocates a large one.  A text either parses
to an algebra that round-trips through ``render``, or fails with
LieconstSyntaxError, IndexOutOfRange, DuplicateBracket or
JacobiViolation.  Runs derandomized with bounded examples; skipped
without hypothesis.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from liemult.liealg import DuplicateBracket, IndexOutOfRange, JacobiViolation
from liemult.lieconst import LieconstSyntaxError, parse, render

DOCUMENTED = (LieconstSyntaxError, IndexOutOfRange, DuplicateBracket, JacobiViolation)
PROFILE = settings(derandomize=True, database=None, max_examples=150, deadline=None)

_HEADER = st.integers(0, 12).map(lambda n: f"dim {n}")
_LHS = st.sampled_from(("[e1,e2] = ", "[e1,e3] = ", "[e2,e3] = ", "[e1,e4] = ", "[e3,e4] = ",
                        "[e2,e1] = ", "[e1,e13] = ", "[e0,e1] = ", "[e1,e2]", "[e1 e2] = "))
_TERM = st.sampled_from(("e1", "e2", "e3", "e4", "e5", "2 e3", "1/2 e4", "3/4 e5", "10 e2",
                         "e12", "e13", "e0", "1/0 e1", "٣ e1", "x", "e", ""))
_SIGN = st.sampled_from((" + ", " - ", "-", ""))
_BRACKET = st.tuples(_LHS, st.lists(st.tuples(_SIGN, _TERM).map("".join), min_size=1, max_size=3)
                     .map("".join)).map("".join)
_WELL_FORMED = st.sampled_from(("[e1,e2] = e3", "[e1,e3] = e1", "[e2,e3] = e1", "[e1,e3] = e4",
                                "[e2,e4] = -e5"))
_STRAY = st.lists(st.sampled_from(("[", "]", ",", "=", "+", "-", "/", "0", "12", "e", " ", "\r",
                                   "# note", "x", "é", "٣")), max_size=8).map("".join)
_FIRST = st.sampled_from((_HEADER, _HEADER, _HEADER, _STRAY)).flatmap(lambda s: s)
_LINE = st.sampled_from((_BRACKET, _BRACKET, _WELL_FORMED, _STRAY, _HEADER)).flatmap(lambda s: s)
_TEXT = st.tuples(_FIRST, st.lists(_LINE, max_size=5)).map(lambda t: "\n".join((t[0], *t[1])))


@PROFILE
@given(_TEXT)
def test_parse_raises_only_documented_errors(text):
    try:
        alg = parse(text)
    except DOCUMENTED:
        return
    assert parse(render(alg)) == alg
