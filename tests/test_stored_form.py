"""Equality and hashing of the stored form, as generated properties.

An algebra is stored as ``(dim, denom, sparse integer brackets)`` with
``denom`` the least common denominator, which makes the form canonical:
the same constants, however they were written, give equal algebras with
equal hashes, and ``render`` writes the bytes that a Fraction per
coefficient would.  Runs derandomized with bounded examples, so the suite
stays deterministic and fast; skipped without hypothesis.
"""

from fractions import Fraction

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from liemult.catalog import standard_entries
from liemult.liealg import change_of_basis
from liemult.lieconst import parse, render
from liemult.linalg import Matrix
from liemult.randgen import Lcg, random_unimodular

from fraction_reference import render_text

CATALOG = [e.algebra for e in standard_entries(4, 3)]
PROFILE = settings(derandomize=True, database=None, max_examples=30, deadline=None)


@st.composite
def algebras(draw):
    """A catalog algebra, or an integral or a rational base change of one."""
    alg = draw(st.sampled_from(CATALOG))
    kind = draw(st.sampled_from(("catalog", "integral", "rational")))
    n = alg.dim
    if kind == "catalog" or n == 0:
        return alg
    p = random_unimodular(n, Lcg(draw(st.integers(0, 2 ** 32))))
    if kind == "rational":
        nonzero = st.fractions(min_value=-4, max_value=4, max_denominator=6).filter(bool)
        scale = draw(st.lists(nonzero, min_size=n, max_size=n))
        p = Matrix.from_rows([[s * x for x in row] for s, row in zip(scale, p.iter_rows())])
    return change_of_basis(alg, p)


def _term(c, k, factor, first):
    """``c eK`` with the magnitude written unreduced, as (factor*p)/(factor*q)."""
    mag = abs(c)
    body = f"{factor * mag.numerator}/{factor * mag.denominator} e{k}"
    if first:
        return f"-{body}" if c < 0 else body
    return f" - {body}" if c < 0 else f" + {body}"


@st.composite
def rewritten(draw):
    """An algebra and a lieconst text of it with unreduced fractions, shuffled
    lines and terms, and a cancelling pair of terms on some lines."""
    alg = draw(algebras())
    lines = []
    for i, j, coeffs in draw(st.permutations(alg.table)):
        terms = [(k + 1, c) for k, c in enumerate(coeffs) if c]
        if draw(st.booleans()):
            k = draw(st.integers(1, alg.dim))
            terms += [(k, Fraction(1, 3)), (k, Fraction(-1, 3))]
        text = ""
        for pos, (k, c) in enumerate(draw(st.permutations(terms))):
            text += _term(c, k, draw(st.integers(1, 5)), pos == 0)
        lines.append(f"[e{i + 1},e{j + 1}] = {text}")
    return alg, "\n".join([f"dim {alg.dim}"] + lines) + "\n"


@PROFILE
@given(algebras())
def test_parse_render_round_trip(alg):
    again = parse(render(alg))
    assert again == alg
    assert hash(again) == hash(alg)
    assert again.table == alg.table


@PROFILE
@given(algebras())
def test_render_matches_the_fraction_formatter(alg):
    assert render(alg) == render_text(alg)


@PROFILE
@given(rewritten())
def test_same_constants_written_differently_are_equal(case):
    alg, text = case
    again = parse(text)
    assert again == alg
    assert hash(again) == hash(alg)
    assert (again.denom, again.brackets) == (alg.denom, alg.brackets)


def test_half_and_two_quarters_are_one_algebra():
    half = parse("dim 3\n[e1,e2] = 1/2 e3\n")
    quarters = parse("dim 3\n[e1,e2] = 2/4 e3\n")
    assert half == quarters and hash(half) == hash(quarters)
    assert (half.denom, half.brackets) == (2, ((0, 1, ((2, 1),)),))
    assert half != parse("dim 3\n[e1,e2] = e3\n")
