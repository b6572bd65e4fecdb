"""Spans for the traced run, recorded from outside the program.

For the duration of a traced pass, every binding in the ``liemult``
modules of the public functions in ``TARGETS`` is replaced by a wrapper
that records a span around the call, and ``verify.run_suite`` by one
that records ``verify.<suite>``.  The program's own calls go through
these bindings, so the spans nest as the calls do and every span is a
descendant of the request that caused it.  Nothing inside ``src/`` is
changed.

A layer's time is the self time of its spans (span minus its child
spans), so the layer times of a request add up to the request span.
``multiplier.schur_s`` is the exception: it holds the whole multiplier,
and its self time, which is the d3.d2 = 0 check, is ``multiplier.check_s``.
"""

from __future__ import annotations

import statistics
import sys
import tracemalloc
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Iterator, Optional

REQUEST = "cli.request"

# (module, public function, span name)
TARGETS = (
    ("lieconst", "parse", "lieconst.parse"),
    ("liealg", "build", "liealg.build"),
    ("liealg", "center", "liealg.center"),
    ("liealg", "lower_central_series", "liealg.lcs"),
    ("multiplier", "schur_multiplier_dim", "multiplier.schur"),
    ("multiplier", "ce_d2", "multiplier.d2_build"),
    ("multiplier", "ce_d3", "multiplier.d3_build"),
    ("linalg", "rank", "linalg.rank"),
    ("classifier", "classify", "classifier.classify"),
    ("verify", "build_population", "verify.population"),
)

# Self times reported under BENCHMARK.json's per-layer names.
SELF_METRICS = {
    "liealg.build": "liealg.build_s",
    "liealg.center": "liealg.center_s",
    "liealg.lcs": "liealg.lcs_s",
    "multiplier.d2_build": "multiplier.d2_build_s",
    "multiplier.d3_build": "multiplier.d3_build_s",
    "multiplier.schur": "multiplier.check_s",
    "linalg.rank_d2": "linalg.rank_d2_s",
    "linalg.rank_d3": "linalg.rank_d3_s",
    "classifier.classify": "classifier.classify_s",
    REQUEST: "cli.self_s",
}


class Collector:
    """Spans (name, start, end, parent, request) and counts, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.request: Optional[str] = None
        self._stack: list[int] = []
        self.rank_names: dict[int, str] = {}   # id of a built d2/d3 -> its rank span
        self.d3_inputs: dict[int, object] = {}  # algebras whose d3 was built
        self.scale: dict[str, float] = {}  # request -> factor to the reference speed

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        rec = {"id": len(self.spans), "name": name, "start_ns": perf_counter_ns(),
               "end_ns": None, "parent": self._stack[-1] if self._stack else None,
               "request": self.request}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield
        finally:
            self._stack.pop()
            rec["end_ns"] = perf_counter_ns()


def wrappers(col: Collector) -> dict[int, tuple[object, Callable]]:
    """id of each original function -> (original, traced stand-in)."""
    import importlib

    out = {}

    def timed(fn, name):
        def wrapper(*args, **kw):
            with col.span(name):
                return fn(*args, **kw)
        return wrapper

    def built(fn, name, rank_name, keep):
        def wrapper(L):
            with col.span(name):
                m = fn(L)
                col.rank_names[id(m)] = rank_name
                if keep:
                    col.d3_inputs[id(L)] = L
            return m
        return wrapper

    def ranked(fn):
        def wrapper(m):
            with col.span(col.rank_names.pop(id(m), "linalg.rank")):
                return fn(m)
        return wrapper

    def suite(fn):
        def wrapper(name, *args, **kw):
            with col.span(f"verify.{name}"):
                return fn(name, *args, **kw)
        return wrapper

    for module, attr, name in TARGETS:
        fn = getattr(importlib.import_module(f"liemult.{module}"), attr)
        if attr == "ce_d2":
            out[id(fn)] = (fn, built(fn, name, "linalg.rank_d2", False))
        elif attr == "ce_d3":
            out[id(fn)] = (fn, built(fn, name, "linalg.rank_d3", True))
        elif attr == "rank":
            out[id(fn)] = (fn, ranked(fn))
        else:
            out[id(fn)] = (fn, timed(fn, name))
    run_suite = importlib.import_module("liemult.verify").run_suite
    out[id(run_suite)] = (run_suite, suite(run_suite))
    return out


@contextmanager
def traced(col: Collector) -> Iterator[None]:
    """Route every liemult binding of the targets through its wrapper."""
    table = wrappers(col)
    saved = []
    for modname, mod in list(sys.modules.items()):
        if modname != "liemult" and not modname.startswith("liemult."):
            continue
        for attr, obj in list(vars(mod).items()):
            entry = table.get(id(obj))
            if entry is not None and entry[0] is obj:
                saved.append((mod, attr, obj))
                setattr(mod, attr, entry[1])
    try:
        yield
    finally:
        for mod, attr, obj in saved:
            setattr(mod, attr, obj)


def d3_counts(col: Collector) -> dict[str, int]:
    """Cells and nonzeros of every d3 the traced pass built, summed."""
    from liemult.multiplier import ce_d3

    cells = nnz = 0
    for L in col.d3_inputs.values():
        d3 = ce_d3(L)
        cells += d3.rows * d3.cols
        nnz += sum(1 for row in d3.iter_rows() for x in row if x)
    return {"multiplier.d3_cells": cells, "multiplier.d3_nnz": nnz}


def peak_alloc_mb(L, clear: Callable[[], None]) -> float:
    """tracemalloc peak of one cold ``schur_multiplier_dim`` call, in MiB."""
    from liemult.multiplier import schur_multiplier_dim

    clear()
    tracemalloc.start()
    try:
        schur_multiplier_dim(L)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / 2 ** 20


def _dur(col: Collector, rec: dict) -> float:
    """Span seconds at the reference speed of the run (see run.speed_scale)."""
    return (rec["end_ns"] - rec["start_ns"]) / 1e9 * col.scale.get(rec["request"], 1.0)


def self_seconds(col: Collector) -> dict[str, float]:
    """Self time of each span name over one traced pass."""
    child: dict[int, float] = {}
    for rec in col.spans:
        if rec["parent"] is not None:
            child[rec["parent"]] = child.get(rec["parent"], 0.0) + _dur(col, rec)
    out: dict[str, float] = {}
    for rec in col.spans:
        out[rec["name"]] = out.get(rec["name"], 0.0) + _dur(col, rec) - child.get(rec["id"], 0.0)
    return out


def layer_seconds(col: Collector) -> dict[str, float]:
    """Per-layer seconds of one traced pass.

    The per-layer metrics of BENCHMARK.json, plus ``lieconst.parse_s``
    (tokenising; validation is ``liealg.build_s``), ``verify.population_s``
    and ``verify.<suite>_s`` (the suite without its population build).
    """
    selfs = self_seconds(col)
    out = {metric: selfs.get(name, 0.0) for name, metric in SELF_METRICS.items()}
    out["lieconst.parse_s"] = selfs.get("lieconst.parse", 0.0)
    by_id = {rec["id"]: rec for rec in col.spans}
    incl: dict[str, float] = {}
    for rec in col.spans:
        name = rec["name"]
        if name == "multiplier.schur" or name.startswith("verify."):
            incl[name] = incl.get(name, 0.0) + _dur(col, rec)
        if name == "verify.population" and rec["parent"] is not None:
            # the suite that built its population, counted without it
            suite = by_id[rec["parent"]]["name"]
            incl[suite] = incl.get(suite, 0.0) - _dur(col, rec)
    out["multiplier.schur_s"] = incl.pop("multiplier.schur", 0.0)
    out.update({f"{name}_s": t for name, t in incl.items()})
    return out


def median_layers(passes: list[dict[str, float]]) -> dict[str, float]:
    keys = sorted({k for p in passes for k in p})
    return {k: statistics.median(p.get(k, 0.0) for p in passes) for k in keys}
