"""Run every workload several times and print each metric with its spread.

    python3 perfbench/summary.py                        # 10 seeds per workload
    python3 perfbench/summary.py --workloads qh-pairs --runs 5
    python3 perfbench/summary.py --trace 1 --runs 2 --same-seed   # counts repeat?
    python3 perfbench/summary.py --out perfbench/results/baseline.json

Each run is a fresh ``perfbench/run.py`` process with its own seed (seed0,
seed0 + 1, ...; with ``--same-seed`` every run uses seed0).  For every
metric the table gives its unit, the median over runs with the sample
count, the quartiles from ``statistics.quantiles(n=4)``, the spread (the
distance between the quartiles as a share of the median), the bound from
``BENCHMARK.json`` and the highest percentile with at least ten samples
beyond it (``-`` when there are too few runs).  The error rate is failed
over attempted operations across all runs of the workload.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 600


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def one_run(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    record = next((json.loads(x[len("record "):]) for x in lines
                   if x.startswith("record ")), {})
    return json.loads(lines[-1]), record


def percentile_beyond(values: list[float], better: str) -> tuple[int, float] | None:
    """Highest of p50..p99 with at least ten samples beyond it, on the bad side."""
    n = len(values)
    for p in (99, 95, 90, 75, 50):
        if n * (100 - p) / 100.0 >= 10:
            cuts = statistics.quantiles(values, n=100)
            return (p, cuts[p - 1]) if better == "lower" else (p, cuts[99 - p])
    return None


def summarize(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"median": med, "n": len(values), "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values}


def main(argv=None) -> int:
    bench = _bench()
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seed0", type=int, default=1)
    ap.add_argument("--same-seed", action="store_true")
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, help="write the runs and summaries as JSON")
    args = ap.parse_args(argv)

    specs = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    report = {"runs": args.runs, "seconds": args.seconds, "trace": args.trace,
              "workloads": {}}
    for wl in args.workloads:
        seeds = [args.seed0 if args.same_seed else args.seed0 + k
                 for k in range(args.runs)]
        results, records = [], []
        for seed in seeds:
            res, rec = one_run(wl, seed, args.seconds, args.trace)
            results.append(res)
            records.append(rec)
            print(f"# {wl} seed {seed}: passes {rec.get('passes')}, "
                  f"correct {res['correct']}", file=sys.stderr, flush=True)
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        entry = {"seeds": seeds, "attempted": attempted, "failed": failed,
                 "error_rate": failed / attempted, "record": records[0],
                 "metrics": {}}
        print(f"\n{wl}: error_rate {failed / attempted:.4g} "
              f"({failed} failed of {attempted} operations, {len(seeds)} runs)")
        print(f"  {'metric':44s} {'unit':6s} {'median':>12s} {'n':>3s} "
              f"{'q1':>12s} {'q3':>12s} {'spread':>7s} {'bound':>6s}  tail")
        for name in results[0]["metrics"]:
            unit = results[0]["metrics"][name]["unit"]
            vals = [r["metrics"][name]["value"] for r in results]
            s = summarize(vals)
            spec = specs.get(name, {})
            s["unit"] = unit
            if unit == "count":
                s["repeats_exactly"] = len(set(vals)) == 1
            entry["metrics"][name] = s
            tail = percentile_beyond(vals, spec.get("better", "lower"))
            tail_txt = f"p{tail[0]}={tail[1]:.6g}" if tail else "-"
            if unit == "count" and args.same_seed:
                tail_txt += "  repeats" if s["repeats_exactly"] else "  DIFFERS"
            bound = spec.get("bound")
            print(f"  {name:44s} {unit:6s} {s['median']:12.6g} {s['n']:3d} "
                  f"{s['q1']:12.6g} {s['q3']:12.6g} {s['spread']:7.3f} "
                  f"{'' if bound is None else bound:>6}  {tail_txt}")
        report["workloads"][wl] = entry
    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
