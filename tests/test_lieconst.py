"""The lieconst v1 text format: parse, render, round trips, error positions."""

import pytest

from liemult.catalog import abelian, heisenberg, l_3_4_1_4, standard_entries
from liemult.liealg import IndexOutOfRange, JacobiViolation, quotient
from liemult.lieconst import LieconstSyntaxError, parse, render
from liemult.linalg import vector

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
