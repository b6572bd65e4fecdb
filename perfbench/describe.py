"""Write the workload descriptors of seed 1 to perfbench/WORKLOADS.json.

    python3 perfbench/describe.py

For each input: n, bracket count, table nnz, d3 cells (C(n,2) x C(n,3),
the dense shape at the seed) and the largest coefficient bit length,
plus the request count of a pass and the inputs left out with the
cause.  The reason each workload exists is its ``why`` in BENCHMARK.json.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from math import comb
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import run  # noqa: E402
import workloads  # noqa: E402

NOTES = {
    "dense_ladder_density": (
        "The dense ladder's density comes from the steps argument of "
        "randgen.random_unimodular, not from the default base change: the default "
        "2n+2 shears left base-changed H(7) at 22 brackets and 22 nonzeros. The "
        f"benchmark draws with steps={workloads.DENSE_STEPS_PER_DIM}n and keeps a "
        "draw only when every structure constant [f_i,f_j]_k with i<j is nonzero."),
    "excluded": [{
        "workload": "sparse_ladder", "input": "A(300)", "command": "multiplier",
        "cause": ("OOM-killed on a 7 GB machine: the dense d3 of A(300) has "
                  f"C(300,2) x C(300,3) = {comb(300, 2) * comb(300, 3):.2e} cells. "
                  "The H(1)+A(k) rungs show the same dense-shape cost while still "
                  "fitting in memory; the abelian rung runs info only."),
    }],
    "seed": "Sparse ladder inputs are the catalog tables and do not depend on the seed; "
            "the dense ladder's base changes and the verify populations do.",
}


def bits(L) -> int:
    return max((max(x.numerator.bit_length(), x.denominator.bit_length())
                for _, _, c in L.table for x in c if x), default=0)


def describe_algebra(label: str, L, commands) -> dict:
    n = L.dim
    return {"input": label, "n": n, "brackets": len(L.table), "nnz": workloads.table_nnz(L),
            "d3_cells": comb(n, 2) * comb(n, 3), "max_coeff_bits": bits(L),
            "commands": list(commands)}


SEED = 1


def main() -> int:
    from liemult import verify

    run.OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(dir=run.OUT)
    record = {"seed": SEED, "environment": run.environment(), "notes": NOTES,
              "workloads": {}}
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    try:
        for name in (w["name"] for w in bench["workloads"]):
            wl = workloads.make(name, SEED, directory)
            entry = {"requests_per_pass": len(wl.requests)}
            if name == "verify_sweep":
                entry["requests"] = [" ".join(r.argv) for r in wl.requests]
                pop = verify.build_population(verify.DEFAULT_MAX_M, verify.DEFAULT_MAX_K,
                                              SEED)
                entry["population"] = {
                    "cases": len(pop),
                    "max_n": max(c.algebra.dim for c in pop),
                    "max_nnz": max(workloads.table_nnz(c.algebra) for c in pop),
                    "max_coeff_bits": max(bits(c.algebra) for c in pop),
                }
            else:
                entry["inputs"] = [describe_algebra(i.label, i.algebra, i.commands)
                                   for i in wl.inputs]
            record["workloads"][name] = entry
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    (HERE / "WORKLOADS.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
