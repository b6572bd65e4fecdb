"""The seeded unimodular generator and the integer base changes built on it.

``randgen._unimodular`` mirrors each row operation on Q by the inverse
column operation on Q^-1, so these tests check that inverse against the
elimination of ``linalg._inverse`` and against Q R = I, pin the draws of
``random_unimodular`` and the LCG state after them, and check that
``random_change_of_basis``, which transports with that inverse, gives
the algebra that ``change_of_basis`` gives on the same ``Matrix``.
"""

import pytest

from liemult.liealg import change_of_basis
from liemult.linalg import _inverse
from liemult.randgen import Lcg, _unimodular, random_change_of_basis, random_unimodular
from liemult.verify import build_population


@pytest.mark.parametrize("n", range(13))
def test_generated_inverse_is_exact(n):
    for steps in (None, 3 * n, 12 * n):
        for seed in (1, 2, 3, 2024):
            rows, inv = _unimodular(n, Lcg(seed), steps)
            assert _inverse(rows) == (1, inv)
            for i, row in enumerate(rows):
                acc = {}
                for k, x in enumerate(row):
                    for c, y in inv[k].items():
                        acc[c] = acc.get(c, 0) + x * y
                assert {c: x for c, x in acc.items() if x} == {i: 1}


# (n, seed, steps, rows of random_unimodular(n, Lcg(seed), steps), LCG state after the draw)
DRAWS = [
    (3, 23, None, [[3, -1, -2], [-5, 2, 4], [10, -4, -7]], 3357621769917408957),
    (5, 11, None, [[1, 0, 0, 0, 0], [-2, 1, -1, 0, 0], [0, 0, 1, 0, 0], [0, 0, 1, -1, 0],
                   [6, -3, 2, 0, -1]], 12818007041575846935),
    (2, 5, 24, [[-5, -16], [-4, -13]], 4549791818861792350),
    (4, 2, 48, [[-17, 10, 21, -2], [-7, 5, 13, 0], [20, -14, -36, 1], [12, -7, -15, 3]],
     14284466479755546148),
    (6, 9, 72, [[201, -18, -112, -170, -85, 62], [49, -4, -24, -43, -20, 15],
                [415, -40, -245, -343, -172, 134], [-21, 4, 23, 11, 5, -12],
                [76, -7, -42, -64, -30, 25], [-54, 3, 22, 51, 28, -11]], 10204572854611597915),
]


@pytest.mark.parametrize("n, seed, steps, rows, state", DRAWS)
def test_random_unimodular_draws_are_pinned(n, seed, steps, rows, state):
    rng = Lcg(seed)
    u = random_unimodular(n, rng, steps=steps)
    assert [list(row) for row in u.iter_rows()] == rows
    assert rng.state == state

    rng = Lcg(seed)
    assert _unimodular(n, rng, steps)[0] == rows
    assert rng.state == state


def _originals():
    """The population's catalog algebras and their sums: every case that is not a base change or quotient."""
    return [c for c in build_population(4, 3, 7) if not c.case_id.startswith(("cob[", "quo["))]


def test_integer_base_change_matches_the_matrix_path():
    originals = _originals()
    assert len(originals) > 50
    for case in originals:
        L = case.algebra
        for seed in (1, 3, 7):
            moved = random_change_of_basis(L, Lcg(seed))
            assert moved == change_of_basis(L, random_unimodular(L.dim, Lcg(seed))), case.case_id
