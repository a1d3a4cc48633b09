"""Run one benchmark workload in this fresh process and print its metrics.

    python3 perfbench/run.py --workload qh-pairs --seed 1 --seconds 36 --trace 0

Run from the root of a checkout that holds ``src/detourkit``.  The process
runs passes of the workload one after another (closed loop, one caller, no
worker threads), at least three, until a pass of median length would end
after ``--seconds``; every pass builds fresh objects, so the program's lazy
caches start cold.

``--trace 0`` prints the end-to-end metrics.  Each timed operation of a pass
is a segment, and every segment's time is its median over the passes, so a
burst of host load in one pass does not move the result: ``wall_s`` is the
sum of the segment medians, ``build_s`` the sum over the build segments, and
``ops_per_s`` the workload's unit operations over the median of the segment
that performs them.  ``peak_rss_mb`` is this process's high-water mark after
the first pass, and ``setup_s`` the median over five child processes of
interpreter start, ``import detourkit`` and seeded input generation.
``--trace 1`` alternates untraced and traced passes and prints the per-layer
metrics of ``tracing.PER_LAYER``.  The next to last line is a run record (machine,
versions, commit, counts); the last line is the result object.
"""

from __future__ import annotations

import os
import sys

# pin the BLAS/OpenMP pools before numpy is imported, here and in children
POOL_THREADS = str(min(os.cpu_count() or 1, 2))
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = POOL_THREADS

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PROCESSES = 5
SETUP_TIMEOUT_S = 60
MIN_PASSES = {0: 3, 1: 2}   # by --trace: three passes give a median, two a traced pass


def parse_args(argv=None) -> argparse.Namespace:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=36.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="import and generate the inputs, then exit (setup_s probe)")
    return ap.parse_args(argv)


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _setup_times(args) -> list[float]:
    """Wall time of child processes that only set up, from spawn to exit."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    out = []
    for _ in range(SETUP_PROCESSES):
        t0 = time.perf_counter()
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, cwd=ROOT,
                       stdout=subprocess.DEVNULL)
        out.append(time.perf_counter() - t0)
    return out


def _git_commit() -> str | None:
    """HEAD of the checkout, read from ``.git`` without leaving the checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def run_record(args, passes, stats) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_segments_s": [p["segments"] for p in passes],
        "nproc": os.cpu_count(), "cpu_model": _cpu_model(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "commit": _git_commit(),
        "thread_pools": POOL_THREADS, "counts": stats,
    }


def run_pass(wl, inp, workdir: Path, tracer=None) -> tuple[dict, dict]:
    import tracing
    from workloads import Checker

    chk = Checker()
    cpu0 = _cpu_s()
    if tracer is not None:
        tracing.install(tracer)
    try:
        timings, results = wl.ops(inp, workdir)
    finally:
        if tracer is not None:
            tracer.restore()
    timings["cpu_s"] = _cpu_s() - cpu0
    timings["wall_s"] = sum(timings["segments"].values())
    stats = wl.check(inp, results, chk)
    del results
    timings["attempted"] = chk.attempted
    timings["failed"] = chk.failed
    for msg in chk.messages:
        print(f"check failed: {msg}", file=sys.stderr)
    return timings, stats


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "detourkit" / "__init__.py").is_file():
        print(f"error: no detourkit sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]
    if args.setup_only:
        wl.inputs(args.seed)
        return 0

    setup = [] if args.trace else _setup_times(args)
    inp = wl.inputs(args.seed)
    workdir = ROOT / "perfbench" / ".work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)

    passes: list[dict] = []
    traced: list[tuple[dict, dict]] = []   # (timings, per-layer values)
    stats: dict = {}
    start = time.perf_counter()
    durations: list[float] = []
    peak_rss_mb = None   # high-water mark after the first pass
    try:
        while True:
            t0 = time.perf_counter()
            done = len(passes) + len(traced)
            tracer = tracing.Tracer() if args.trace and done % 2 == 1 else None
            timings, stats = run_pass(wl, inp, workdir, tracer)
            # the decomposition and its solver reference each other; collect
            # them so that every pass starts from the same heap
            gc.collect()
            if peak_rss_mb is None:
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            if tracer is not None:
                tracer.counts["cli.artifact_bytes"] = stats.get("artifact_bytes", 0)
                traced.append((timings, tracing.layer_values(tracer)))
            else:
                passes.append(timings)
            durations.append(time.perf_counter() - t0)
            elapsed = time.perf_counter() - start
            if (done + 1 >= MIN_PASSES[args.trace]
                    and elapsed + statistics.median(durations) > args.seconds):
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    everything = passes + [t for t, _ in traced]
    attempted = sum(p["attempted"] for p in everything)
    failed = sum(p["failed"] for p in everything)

    def med(rows, key):
        return statistics.median(r[key] for r in rows)

    if args.trace:
        metrics = {}
        first = traced[0][1]
        for name, unit, kind, _ in tracing.PER_LAYER:
            if kind in ("count", "calls"):
                value = first[name]
                if any(v[name] != value for _, v in traced[1:]):
                    print(f"warning: count {name} differs between traced passes",
                          file=sys.stderr)
            else:
                value = statistics.median(v[name] for _, v in traced)
            metrics[name] = {"value": value, "unit": unit}
        tim = [t for t, _ in traced]
        metrics["process.cpu_s"] = {"value": med(tim, "cpu_s"), "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": med(tim, "wall_s") - med(passes, "wall_s"), "unit": "s"}
        stats = {**stats, **{k: first[k] for k in (
            "whitney.cubes", "whitney.edges", "qhyp.dijkstra.runs", "fractals.solids")}}
    else:
        seg = {name: statistics.median(p["segments"][name] for p in passes)
               for name in passes[0]["segments"]}
        metrics = {
            "wall_s": {"value": sum(seg.values()), "unit": "s"},
            "build_s": {"value": sum(seg[n] for n in wl.build_segments), "unit": "s"},
            "ops_per_s": {"value": passes[0]["ops"] / seg[wl.ops_segment], "unit": "1/s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
        }
    print("record " + json.dumps(run_record(args, passes + [t for t, _ in traced], stats)))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
