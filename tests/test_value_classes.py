"""The package's value classes: field order, equality, hash and immutability.

``LieAlgebra`` and ``Matrix`` are ``__slots__`` classes and the other
twelve are ``NamedTuple``s.  Each keeps the fields, in order, that its
callers pass by position, and each instance rebuilt from its own field
values is equal to it, with the same hash, and cannot be assigned to.
"""

import pickle

import pytest

from liemult import verify
from liemult.catalog import CatalogEntry, abelian, heisenberg, l_4_5_2_4
from liemult.classifier import ClassificationResult, Fingerprint, classify, fingerprint
from liemult.liealg import LieAlgebra, SeriesReport, build, center, lower_central_series
from liemult.linalg import Matrix, Subspace
from liemult.multiplier import (
    DefectBoundsCheck,
    KunnethCheck,
    MultiplierReport,
    QuotientBoundCheck,
    check_defect_bounds,
    check_kunneth,
    check_quotient_bound,
    schur_multiplier_dim,
)
from liemult.randgen import Lcg, random_unimodular
from liemult.verify import CaseResult, PopulationCase, SuiteReport

# the field order of each class, as its callers pass the fields by position
FIELDS = {
    CatalogEntry: ("family", "params", "algebra", "expected_dim_m", "expected_s"),
    Fingerprint: ("n", "derived_dim", "center_dim", "nilpotency_class", "dim_m", "t", "s"),
    ClassificationResult: ("status", "family", "params", "s_value", "notes", "fingerprint"),
    LieAlgebra: ("dim", "denom", "brackets"),
    SeriesReport: ("lcs_dims", "nilpotency_class", "derived_dim"),
    Matrix: ("rows", "cols", "entries"),
    Subspace: ("ambient_dim", "rows"),
    MultiplierReport: ("n", "dim_m", "t", "s", "rank_d2", "rank_d3"),
    KunnethCheck: ("holds", "lhs", "rhs", "dim_m_left", "dim_m_right", "tensor_dim"),
    QuotientBoundCheck: ("holds", "dim_m_total", "derived_meet_ideal", "dim_m_quotient",
                         "dim_m_ideal", "tensor_dim"),
    DefectBoundsCheck: ("holds", "n", "dim_m", "t", "abelian", "s", "derived_dim", "derived_bound"),
    CaseResult: ("case_id", "ok", "detail"),
    SuiteReport: ("suite", "results"),
    PopulationCase: ("case_id", "algebra"),
}


@pytest.fixture(scope="module")
def instances():
    """One instance of each class, made by the package itself."""
    alg = l_4_5_2_4().algebra
    suite = verify.run_suite("kunneth")
    return {
        CatalogEntry: heisenberg(2),
        Fingerprint: fingerprint(alg),
        ClassificationResult: classify(alg),
        LieAlgebra: alg,
        SeriesReport: lower_central_series(alg),
        Matrix: random_unimodular(4, Lcg(3)),
        Subspace: center(alg),
        MultiplierReport: schur_multiplier_dim(alg),
        KunnethCheck: check_kunneth(heisenberg(1).algebra, abelian(2).algebra),
        QuotientBoundCheck: check_quotient_bound(alg, center(alg)),
        DefectBoundsCheck: check_defect_bounds(alg),
        CaseResult: suite.results[0],
        SuiteReport: suite,
        PopulationCase: verify.build_population(1, 0, 7)[-1],
    }


def test_every_class_is_covered(instances):
    assert set(instances) == set(FIELDS)


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_fields_keep_their_order(cls):
    names = getattr(cls, "_fields", None) or cls.__slots__[:len(FIELDS[cls])]
    assert tuple(names) == FIELDS[cls]


@pytest.mark.parametrize("cls", list(FIELDS), ids=lambda c: c.__name__)
def test_rebuilt_from_its_fields_is_equal_hashes_equal_and_is_frozen(instances, cls):
    obj = instances[cls]
    assert type(obj) is cls
    values = [getattr(obj, f) for f in FIELDS[cls]]
    again = cls(*values)
    assert again is not obj
    assert again == obj and not again != obj and hash(again) == hash(obj)
    assert cls(**dict(zip(FIELDS[cls], values))) == obj
    assert pickle.loads(pickle.dumps(obj)) == obj
    for f in FIELDS[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, f, None)
        with pytest.raises(AttributeError):
            delattr(obj, f)
    assert [getattr(obj, f) for f in FIELDS[cls]] == values


def test_a_field_that_differs_makes_the_values_unequal():
    alg = heisenberg(1).algebra
    assert alg != heisenberg(2).algebra
    assert LieAlgebra(alg.dim, 2 * alg.denom, alg.brackets) != alg
    m = random_unimodular(3, Lcg(1))
    assert Matrix(m.rows, m.cols, m.entries[::-1]) != m
    assert CaseResult("x", True) != CaseResult("x", False)


def test_lie_algebra_equals_only_a_lie_algebra():
    assert LieAlgebra(3, 1, ()) == LieAlgebra(3, 1, ())
    assert LieAlgebra(3, 1, ()) != (3, 1, ())
    assert (3, 1, ()) != LieAlgebra(3, 1, ())
    assert build(3, []) != (3, 1, ())
    assert heisenberg(1).algebra != Matrix(0, 3, ())


def test_lie_algebra_hash_is_computed_once():
    calls = []

    class Counted:
        def __hash__(self):
            calls.append(1)
            return 5

    alg = LieAlgebra(2, 1, ((0, 1, Counted()),))
    assert calls == []
    first = hash(alg)
    assert hash(alg) == hash(alg) == first
    assert calls == [1]


def test_matrix_keeps_its_shape_checks():
    with pytest.raises(ValueError, match=r"^entry count 1 != 2x2$"):
        Matrix(2, 2, (1,))
    for rows, cols in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError, match=r"^negative matrix dimensions$"):
            Matrix(rows, cols, ())
    assert repr(Matrix(1, 1, (1,))) == "Matrix(rows=1, cols=1, entries=(1,))"


def test_defaults_and_derived_attributes_stay():
    assert CaseResult("x", True).detail == ""
    assert heisenberg(2).label == "H(2)" and l_4_5_2_4().label == "L4524"
    assert repr(LieAlgebra(3, 1, ())) == "LieAlgebra(dim=3, nonzero_brackets=0)"
    report = SuiteReport("s", (CaseResult("a", True), CaseResult("b", False, "why")))
    assert (report.failures, report.passed) == (1, False)
    assert report.lines() == ["ok a", "FAIL b: why", "suite=s cases=2 failures=1", "result=fail"]
