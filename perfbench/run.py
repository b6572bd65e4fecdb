"""liemult benchmark: one workload, closed loop, every answer checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client sends one request at a time, in this process, and waits for
the answer, like a user running ``liemult ...`` and reading the report.
A request is one ``liemult.cli.main([...])`` call with stdout captured;
every ``functools`` cache found on the ``liemult`` modules is cleared
and the garbage collected before it, because each real CLI invocation
starts cold.  Passes over
the workload repeat while the next one is expected to end within
``--seconds`` (at least one pass), and timings are medians over passes.
Import and input generation are the set-up, timed several times and
reported as their median.

The host's speed drifts by up to 1.8x within a minute, for the same code
in the same process.  So a fixed stdlib kernel is timed before and after
every request and every set-up, and each time is scaled to the host
speed at which the kernel takes ``REF_KERNEL_S``.  The unscaled times
are in the report.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced and traced passes, prints the
per-layer metrics and writes the spans to ``perfbench/out/``.  The last
stdout line is the JSON result; the lines before it are a readable report
with the metrics BENCHMARK.json cannot hold for every workload.  The exit
code is 1 when any answer is wrong and 2 when the source tree is missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import traceback
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable, Optional

import spans

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 15
TAIL_BEYOND = 10
# Seconds of kernel() at the reference speed: about its median on the
# 2-vCPU Xeon host of BASELINE.json.
REF_KERNEL_S = 0.008

# per-layer metrics every workload emits with --trace 1 (see BENCHMARK.json)
PER_LAYER = (
    "liealg.build_s", "liealg.center_s", "liealg.lcs_s",
    "multiplier.schur_s", "multiplier.d2_build_s", "multiplier.d3_build_s",
    "multiplier.check_s", "linalg.rank_d2_s", "linalg.rank_d3_s",
    "classifier.classify_s", "cli.self_s",
)


def environment() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu}


_KERNEL_MATRIX = tuple(tuple(Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + j) % 3)
                             for j in range(9)) for i in range(9))


def kernel() -> float:
    """Seconds of Gauss-Jordan over Fractions on a fixed 9x9 matrix, times three.

    Three times the fastest of three eliminations, so that a single
    hiccup of the host does not count.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        rows = [list(r) for r in _KERNEL_MATRIX]
        r = 0
        for c in range(9):
            piv = next((k for k in range(r, 9) if rows[k][c]), None)
            if piv is None:
                continue
            rows[r], rows[piv] = rows[piv], rows[r]
            inv = 1 / rows[r][c]
            rows[r] = [x * inv for x in rows[r]]
            for k in range(9):
                if k != r and rows[k][c]:
                    f = rows[k][c]
                    rows[k] = [a - f * b for a, b in zip(rows[k], rows[r])]
            r += 1
        best = min(best, perf_counter() - t0)
    return 3 * best


def speed_scale(before: float, after: float) -> float:
    """Factor taking a time measured between two kernel timings to the reference speed."""
    return 2 * REF_KERNEL_S / (before + after)


def _purge() -> None:
    for name in [m for m in sys.modules
                 if m in ("liemult", "workloads") or m.startswith("liemult.")]:
        del sys.modules[name]


def setup(name: str, seed: int, directory: str, tiny: bool):
    """Import liemult from scratch and generate the workload.

    Returns (seconds, seconds of the import alone, workload).
    """
    _purge()
    t0 = perf_counter()
    importlib.import_module("liemult.cli")
    t1 = perf_counter()
    wl = importlib.import_module("workloads").make(name, seed, directory, tiny)
    return perf_counter() - t0, t1 - t0, wl


def discover_caches() -> dict[str, Callable]:
    """Every functools cache on the liemult modules, keyed module.function."""
    found = {}
    for modname, mod in list(sys.modules.items()):
        if modname != "liemult" and not modname.startswith("liemult."):
            continue
        for obj in vars(mod).values():
            if callable(getattr(obj, "cache_clear", None)) and callable(getattr(obj, "cache_info", None)):
                found[f"{obj.__module__.removeprefix('liemult.')}.{obj.__qualname__}"] = obj
    return found


class Runner:
    """Sends the requests of one workload and keeps what the metrics need."""

    def __init__(self, workload) -> None:
        self.wl = workload
        self.cli = importlib.import_module("liemult.cli")
        self.workloads = importlib.import_module("workloads")
        self.caches = discover_caches()
        self.cache_hits = {k: 0 for k in self.caches}
        self.cache_misses = {k: 0 for k in self.caches}
        self.attempted = 0
        self.failed = 0
        self.verify_cases = 0

    def clear(self) -> None:
        """Start the next call cold: empty caches and no garbage left from the last one."""
        for fn in self.caches.values():
            fn.cache_clear()
        gc.collect()

    def call(self, argv: list[str], col=None) -> tuple[float, Optional[int], str, str]:
        out, err = io.StringIO(), io.StringIO()
        t0 = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                if col is None:
                    code = self.cli.main(argv)
                else:
                    with col.span(spans.REQUEST):
                        code = self.cli.main(argv)
        except (Exception, SystemExit):
            code = None
            print(f"request {argv} raised:\n{traceback.format_exc()}", file=sys.stderr)
        return perf_counter() - t0, code, out.getvalue(), err.getvalue()

    def fill_references(self) -> None:
        """Stdout of each base change's original, which the base change must repeat."""
        seen: dict[tuple[str, str], str] = {}
        for req in self.wl.requests:
            orig = req.input.original if req.input is not None else None
            if orig is None:
                continue
            key = (orig.path, req.command)
            if key not in seen:
                self.clear()
                seen[key] = self.call([req.command, orig.path])[2]
            req.reference = seen[key]

    def run_pass(self, col=None, tag: str = "") -> tuple[float, list[float]]:
        """One pass over the workload.

        Returns (wall seconds, per-request seconds at the reference speed).
        """
        times = []
        if col is None:
            self.verify_cases = 0
        t0 = perf_counter()
        before = kernel()
        for req in self.wl.requests:
            self.clear()
            if col is not None:
                col.request = f"{tag}{req.rid}"
            dt, code, out, err = self.call(req.argv, col)
            after = kernel()
            scale = speed_scale(before, after)
            before = after
            if col is not None:
                col.scale[col.request] = scale
            ok = self.workloads.check(req, code, out)
            self.attempted += 1
            if not ok:
                self.failed += 1
                print(f"FAIL request {req.rid} {req.argv}: exit={code}\n{out}{err}",
                      file=sys.stderr)
            if col is None:
                self._count(req, out)
            times.append(dt * scale)
        return perf_counter() - t0, times

    def _count(self, req, out: str) -> None:
        for key, fn in self.caches.items():
            info = fn.cache_info()
            self.cache_hits[key] += info.hits
            self.cache_misses[key] += info.misses
        if req.command == "verify":
            for line in out.splitlines():
                if line.startswith("suite=") and " cases=" in line:
                    self.verify_cases += int(line.split(" cases=")[1].split()[0])

    def population(self):
        from liemult import verify

        return verify.build_population(*self.wl.population_caps, self.wl.seed)

    def largest_multiplier_input(self):
        if self.wl.name == "verify_sweep":
            return max((c.algebra for c in self.population()), key=lambda L: L.dim)
        return max((i.algebra for i in self.wl.inputs if "multiplier" in i.commands),
                   key=lambda L: L.dim)


def tail(values: list[float]) -> tuple[Optional[int], Optional[float]]:
    """Highest nearest-rank percentile with at least TAIL_BEYOND samples above it."""
    n = len(values)
    if n <= TAIL_BEYOND:
        return None, None
    p = 100 * (n - TAIL_BEYOND) // n
    rank = math.ceil(p * n / 100)
    return p, sorted(values)[rank - 1]


def end_to_end(runner: Runner, walls: list[float], passes: list[list[float]],
               setup_unscaled_s: float, setup_s: float,
               import_s: float) -> tuple[dict, list[str]]:
    """The BENCHMARK.json end-to-end metrics and the report's extra lines."""
    reqs = runner.wl.requests
    slots = [statistics.median(p[i] for p in passes) * 1000 for i in range(len(reqs))]
    metrics = {
        "wall_s": (statistics.median(sum(p) for p in passes), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    extra = [f"wall_unscaled_s={statistics.median(walls)!r} s (median pass, with the kernel "
             f"and the checks)",
             f"setup_unscaled_s={setup_unscaled_s!r} s",
             f"setup_import_s={import_s!r} s (the import "
             f"alone; the rest of setup_s is input generation)",
             f"failed_ratio={runner.failed / runner.attempted!r} (failed {runner.failed} "
             f"of {runner.attempted} attempted)",
             f"request_ms_p50={statistics.median(slots)!r} ms (median of {len(slots)} "
             f"per-request medians over {len(passes)} passes)"]
    if runner.wl.name != "verify_sweep":
        for command in ("info", "multiplier", "classify"):
            total = statistics.median(
                sum(p[i] for i, r in enumerate(reqs) if r.command == command) for p in passes)
            extra.append(f"{command}_s={total!r} s")
        p, value = tail(slots)
        extra.append(f"request_ms_tail={value!r} ms (p{p} of {len(slots)} per-request "
                     f"medians over {len(passes)} passes, {TAIL_BEYOND} beyond)")
    return metrics, extra


def per_layer(runner: Runner, layers: dict, untraced_wall: float, traced_wall: float,
              counts: dict, peak_mb: float) -> tuple[dict, list[str]]:
    # result caches: the public cached functions, keyed on whole algebras or caps
    public = [k for k in runner.caches if not k.rsplit(".", 1)[1].startswith("_")]
    hits = sum(runner.cache_hits[k] for k in public)
    misses = sum(runner.cache_misses[k] for k in public)
    metrics = {name: (layers.get(name, 0.0), "s") for name in PER_LAYER}
    metrics.update({
        "multiplier.d3_cells": (counts.get("multiplier.d3_cells", 0), "count"),
        "multiplier.d3_nnz": (counts.get("multiplier.d3_nnz", 0), "count"),
        "multiplier.peak_alloc_mb": (peak_mb, "MB"),
        "cache.result_hit_ratio": (hits / (hits + misses) if hits + misses else 0.0, "ratio"),
        "trace.overhead_ratio": (traced_wall / untraced_wall, "ratio"),
    })
    extra = [f"cache.result_hit_ratio base: {hits} hits + {misses} misses in {', '.join(sorted(public))}"]
    for key in sorted(runner.caches):
        h, m = runner.cache_hits[key], runner.cache_misses[key]
        if h + m:
            extra.append(f"cache.{key}.hit_ratio={h / (h + m)!r} ({h} hits + {m} misses)")
    for key in sorted(layers):
        if key not in metrics:
            extra.append(f"{key}={layers[key]!r} s")
    if runner.wl.name == "verify_sweep":
        extra.append(f"verify.cases={runner.verify_cases} count (last untraced pass)")
    return metrics, extra


def measure(name: str, seed: int, seconds: float, trace: bool, tiny: bool = False,
            corrupt: Optional[Callable] = None) -> dict:
    """Set up, run and check one workload; returns the result and report lines."""
    OUT.mkdir(exist_ok=True)
    directory = tempfile.mkdtemp(prefix=f"inputs-{name}-", dir=OUT)
    try:
        setups, imports, before = [], [], kernel()
        for _ in range(SETUP_REPEATS):
            # the previous set-up's garbage would otherwise set the peak RSS
            wl = None
            gc.collect()
            dt, dt_import, wl = setup(name, seed, directory, tiny)
            after = kernel()
            setups.append((dt, dt * speed_scale(before, after)))
            imports.append(dt_import * speed_scale(before, after))
            before = after
        runner = Runner(wl)
        runner.fill_references()
        if corrupt is not None:
            corrupt(wl)
        walls, passes, traced_walls, layer_passes, cols = [], [], [], [], []
        counts = {}
        start = perf_counter()
        while True:
            wall, times = runner.run_pass()
            walls.append(wall)
            passes.append(times)
            if trace:
                col = spans.Collector()
                with spans.traced(col):
                    traced_walls.append(sum(runner.run_pass(col, f"{len(cols)}:")[1]))
                layer_passes.append(spans.layer_seconds(col))
                if not cols:
                    # every pass builds the same complexes
                    counts = spans.d3_counts(col)
                col.d3_inputs.clear()
                cols.append(col)
            # stop before a pass that would end past the budget
            elapsed = perf_counter() - start
            if elapsed + (elapsed / len(walls)) > seconds:
                break
        metrics, extra = end_to_end(runner, walls, passes,
                                    statistics.median(s for s, _ in setups),
                                    statistics.median(s for _, s in setups),
                                    statistics.median(imports))
        if trace:
            peak = spans.peak_alloc_mb(runner.largest_multiplier_input(), runner.clear)
            layers = spans.median_layers(layer_passes)
            metrics, more = per_layer(runner, layers, metrics["wall_s"][0],
                                      statistics.median(traced_walls), counts, peak)
            extra += more
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    header = (f"workload={name} seed={seed} seconds={seconds} trace={int(trace)} "
              f"passes={len(walls)} requests_per_pass={len(wl.requests)}")
    if trace:
        path = OUT / f"spans-{name}-seed{seed}.json"
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"workload": name, "seed": seed, "environment": environment(),
                       "metrics": result["metrics"], "report": extra,
                       "passes": [{"spans": c.spans, "scale": c.scale} for c in cols]}, fh)
        extra.append(f"spans written to {path.relative_to(HERE.parent)}")
    return {"result": result, "report": [header] + extra}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if not (SRC / "liemult" / "cli.py").is_file():
        print(f"error: liemult sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    env = environment()
    print(f"env python={env['python']} nproc={env['nproc']} cpu={env['cpu']!r}")
    run = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    for line in run["report"]:
        print(line)
    for key, m in run["result"]["metrics"].items():
        print(f"metric {key}={m['value']!r} {m['unit']}")
    print(json.dumps(run["result"]))
    return 0 if run["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
