"""Run the benchmark on several seeds and record medians and spreads.

    python3 perfbench/prove.py [--out FILE]

Every workload of BENCHMARK.json runs ten times, run i with seed i, each
a separate ``perfbench/run.py --trace 0`` process, one after another.
For every metric the record holds the ten values, their median, the
quartiles from ``statistics.quantiles(values, n=4)`` and the spread
(third minus first quartile, as a share of the median).  The default
record is ``perfbench/BASELINE.json``, the numbers later changes quote
as their "before".  A record written elsewhere is a second set of the
same code: its medians are compared with BASELINE.json against the
bounds of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BASELINE = HERE / "BASELINE.json"
RUNS = 10


def summarize(values: list[float]) -> dict:
    median = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None, "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", type=Path, default=BASELINE)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seeds = range(1, RUNS + 1)
    record = {"run_seconds": bench["run_seconds"], "workloads": {}}
    failed = False
    for name in (w["name"] for w in bench["workloads"]):
        results, elapsed, env = [], [], None
        for seed in seeds:
            t0 = perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
                 "--seconds", str(bench["run_seconds"]), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True, timeout=900)
            elapsed.append(perf_counter() - t0)
            lines = proc.stdout.splitlines()
            if proc.returncode != 0 or not lines:
                print(f"{name} seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
                failed = True
                continue
            env = env or lines[0]
            results.append(json.loads(lines[-1]))
            print(f"{name} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items())
                + f" (run took {elapsed[-1]:.1f} s)", flush=True)
        if not results:
            continue
        metrics = {}
        for key, m in results[0]["metrics"].items():
            metrics[key] = summarize([r["metrics"][key]["value"] for r in results])
            metrics[key]["unit"] = m["unit"]
            s, bound = metrics[key]["spread"], bounds.get(key)
            flag = "" if s is None or s < bound / 3 else "  <-- above bound/3"
            print(f"  {key}: median {metrics[key]['median']:.5g} {m['unit']}, spread "
                  f"{s if s is None else round(s, 4)} (bound {bound}){flag}")
        record["workloads"][name] = {
            "environment": env,
            "seeds": list(seeds),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "run_elapsed_s": elapsed,
            "metrics": metrics,
        }
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if args.out.resolve() != BASELINE.resolve():
        failed |= compare(json.loads(BASELINE.read_text(encoding="utf-8")), record, bounds)
    return 1 if failed else 0


def compare(first: dict, second: dict, bounds: dict) -> bool:
    """Print how far each median of ``second`` is from ``first``; True if past a bound."""
    worse = False
    for name, wl in second["workloads"].items():
        for key, m in wl["metrics"].items():
            before = first["workloads"][name]["metrics"][key]["median"]
            change = m["median"] / before - 1
            past = change > bounds[key]
            worse |= past
            print(f"{name} {key}: median {before:.5g} -> {m['median']:.5g} "
                  f"({change:+.1%}, bound {bounds[key]:.0%}){'  <-- past the bound' if past else ''}")
    return worse


if __name__ == "__main__":
    sys.exit(main())
