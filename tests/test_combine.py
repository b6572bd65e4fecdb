"""``linalg._combine``, the one sparse vector-matrix product, against the dense Fraction product.

Rows come as tuples of pairs or as dict ``.items()`` views, some of them
with their negatives weighted alike so that whole entries cancel, and v
may be empty; the product must match ``vec_mat`` and hold no zero entry.
Runs derandomized with bounded examples; skipped without hypothesis.
"""

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st

from liemult.linalg import _combine

from fraction_reference import vec_mat

PROFILE = settings(derandomize=True, database=None, max_examples=200, deadline=None)
ENTRY = st.integers(-3, 3)


@st.composite
def products(draw):
    """Dense integer weights and rows; a mirrored row is the negative of one drawn row, with its weight."""
    cols = draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(ENTRY, min_size=cols, max_size=cols), max_size=5))
    weights = draw(st.lists(ENTRY, min_size=len(rows), max_size=len(rows)))
    for r, w in list(zip(rows, weights)):
        if draw(st.booleans()):
            rows.append([-x for x in r])
            weights.append(w)
    if draw(st.booleans()):
        weights = [0] * len(rows)  # the empty v
    return weights, rows


@PROFILE
@given(products(), st.sampled_from(("tuples", "items")))
def test_combine_matches_the_dense_product(case, form):
    weights, rows = case
    sparse = [{c: x for c, x in enumerate(r) if x} for r in rows]
    if form == "tuples":
        given_rows = [tuple(sorted(row.items())) for row in sparse]
    else:
        given_rows = [row.items() for row in sparse]
    out = _combine([(m, x) for m, x in enumerate(weights) if x], given_rows)
    assert out == {c: int(y) for c, y in enumerate(vec_mat(weights, rows)) if y}
    assert 0 not in out.values()


def test_combine_drops_cancelled_entries():
    rows = {3: ((0, 2), (1, 1)), 5: ((0, -2), (2, 1))}  # rows keyed by index, as quotient's images
    assert _combine([(3, 1), (5, 1)], rows) == {1: 1, 2: 1}
    assert _combine([(3, 1), (3, -1)], rows) == {}
    assert _combine([], rows) == {}
