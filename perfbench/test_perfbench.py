"""Self-tests of the benchmark: python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NAMES = [w["name"] for w in BENCH["workloads"]]


@pytest.mark.parametrize("name", NAMES)
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_run_passes_the_gate_and_emits_every_metric(name, trace):
    out = run.measure(name, seed=3, seconds=0, trace=trace, tiny=True)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer"] if trace else BENCH["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    report = "\n".join(out["report"])
    assert "failed_ratio=0.0" in report and "request_ms_p50=" in report
    if name != "verify_sweep":
        for key in ("info_s=", "multiplier_s=", "classify_s=", "request_ms_tail="):
            assert key in report
        if trace:
            assert "lieconst.parse_s=" in report
    elif trace:
        for key in ["verify.population_s="] + [f"verify.{s}_s=" for s in
                                               ("formulas", "bounds", "kunneth",
                                                "quotient", "classification")]:
            assert key in report


@pytest.mark.parametrize("name", ["sparse_ladder", "dense_ladder", "verify_sweep"])
def test_corrupted_expected_answer_counts_as_failed(name):
    def corrupt(wl):
        req = wl.requests[0]
        if req.command == "verify":
            req.expected = ["result=fail"]
        elif req.reference is not None:
            req.reference += "x"
        else:
            req.expected[0] = "n=999"

    result = run.measure(name, seed=3, seconds=0, trace=False, tiny=True,
                         corrupt=corrupt)["result"]
    assert not result["correct"]
    assert 0 < result["failed"] <= result["attempted"]


@pytest.mark.parametrize("name", ["sparse_ladder", "verify_sweep"])
def test_layer_spans_nest_in_their_request_and_add_up_to_it(name):
    run.measure(name, seed=3, seconds=0, trace=True, tiny=True)
    data = json.loads((run.OUT / f"spans-{name}-seed3.json").read_text(encoding="utf-8"))
    recs = data["passes"][0]["spans"]
    by_id = {r["id"]: r for r in recs}
    requests = [r for r in recs if r["name"] == spans.REQUEST]
    assert set(data["passes"][0]["scale"]) == {r["request"] for r in requests}
    assert requests and all(r["parent"] is None for r in requests)
    for r in recs:
        if r["parent"] is not None:
            p = by_id[r["parent"]]
            assert r["request"] == p["request"]
            assert p["start_ns"] <= r["start_ns"] <= r["end_ns"] <= p["end_ns"]
    col = spans.Collector()
    col.spans, col.scale = recs, data["passes"][0]["scale"]
    total = sum(spans._dur(col, r) for r in requests)
    assert sum(spans.self_seconds(col).values()) == pytest.approx(total, abs=1e-6)
    layers = spans.layer_seconds(col)
    for metric in run.PER_LAYER:
        if metric != "multiplier.schur_s":
            assert layers[metric] > 0, metric

    def ancestors(r):
        while r["parent"] is not None:
            r = by_id[r["parent"]]
            yield r["name"]

    if name == "verify_sweep":
        # the layers are timed on the suites' own calls
        for suite in ("verify.bounds", "verify.classification", "verify.quotient"):
            assert any(r["name"] == "multiplier.schur" and suite in ancestors(r) for r in recs)
        assert any(r["name"] == "verify.population" and "verify.bounds" in ancestors(r)
                   for r in recs)


@pytest.mark.parametrize("label", ["H(3)", "filiform(6)", "L4524plusA1"])
def test_screen_modulo_a_prime_agrees_with_the_transported_table(label):
    from math import comb

    from liemult import catalog
    from liemult.liealg import change_of_basis
    from liemult.randgen import Lcg, random_unimodular

    L = {"H(3)": catalog.heisenberg(3).algebra, "filiform(6)": workloads.filiform(6),
         "L4524plusA1": catalog.l4524_plus_a1().algebra}[label]
    n, rng, seen = L.dim, Lcg(7), set()
    for _ in range(20):
        p = random_unimodular(n, rng, steps=workloads.DENSE_STEPS_PER_DIM * n)
        dense = workloads.table_nnz(change_of_basis(L, p)) == n * comb(n, 2)
        rows = [[int(x) for x in p.row(r)] for r in range(n)]
        assert workloads.dense_modulo_prime(L, rows) == dense
        seen.add(dense)
    assert seen == {True, False}


def _sympy_dim_m(n, brackets):
    """dim M = C(n,2) - rank d2 - rank d3, built here independently of liemult."""
    sympy = pytest.importorskip("sympy")

    def br(i, j):
        if (i, j) in brackets:
            return brackets[(i, j)]
        return {k: -v for k, v in brackets.get((j, i), {}).items()}

    pairs = list(combinations(range(n), 2))
    index = {p: t for t, p in enumerate(pairs)}
    d2 = sympy.zeros(n, len(pairs))
    for t, (i, j) in enumerate(pairs):
        for k, v in br(i, j).items():
            d2[k, t] = v
    triples = list(combinations(range(n), 3))
    d3 = sympy.zeros(len(pairs), len(triples))
    for col, (i, j, k) in enumerate(triples):
        for a, b, t, sign in ((i, j, k, 1), (i, k, j, -1), (j, k, i, 1)):
            for m, v in br(a, b).items():
                if m != t:
                    row = index[(min(m, t), max(m, t))]
                    d3[row, col] += sign * v * (1 if m < t else -1)
    return len(pairs) - d2.rank() - d3.rank()


@pytest.mark.parametrize("n", range(3, 10))
def test_filiform_closed_form_matches_an_independent_rank(n):
    brackets = {(0, i): {i + 1: 1} for i in range(1, n - 1)}
    assert _sympy_dim_m(n, brackets) == workloads.filiform_dim_m(n)


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sparse_ladder", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
