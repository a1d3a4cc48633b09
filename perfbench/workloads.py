"""The benchmark workloads: seeded inputs, timed operations and output checks.

A workload has three parts:

* ``inputs(seed)`` makes every input the program receives from the seed;
* ``ops(inputs, workdir)`` runs the timed operations on fresh objects, so
  the lazy caches (``solver_for``, ``_solid_component_cache``, the
  ``run_dijkstra`` cache) start cold in every pass, and returns the timings
  and the outputs;
* ``check(inputs, results, checker)`` tests invariants every correct
  program satisfies, outside the timed region, and counts each operation
  whose output breaks one as failed.

The timings of a pass are its *segments*, the seconds of each timed
operation in order, and ``ops``, the number of the workload's unit
operations.  ``build_segments`` name the segments that build the structures
the queries run on; ``ops_segment`` names the one that performs the ``ops``.
"""

from __future__ import annotations

import json
import math
import shutil
import statistics
import time
from fractions import Fraction
from itertools import combinations
from pathlib import Path

import numpy as np
import scipy.spatial  # noqa: F401  (detourkit imports it on first use; load it
#                      here so that the first pass does the same work as the rest)

from detourkit import certify, cli, detour, domains, fractals, qhyp, whitney
from detourkit.errors import DetourkitError, ExceptionalLineError
from detourkit.geometry import Line

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


class Checker:
    """Attempted operations and the set of those whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed_ops: set = set()
        self.messages: list[str] = []

    def attempt(self, n: int = 1) -> None:
        self.attempted += n

    def expect(self, ok: bool, op, message: str) -> None:
        if not ok:
            self.failed_ops.add(op)
            if len(self.messages) < 20:
                self.messages.append(f"{op}: {message}")

    @property
    def failed(self) -> int:
        return len(self.failed_ops)


def _check_refined(w: whitney.WhitneyDecomposition, chk: Checker, op) -> None:
    """Refinement budget on every cube and the 2-level balance on every edge."""
    ratio = SQRT2 * w.side / w.dist
    chk.expect(bool(np.all(ratio <= whitney.QH_DIAMETER_BOUND)), op,
               f"cube with sqrt2*side/dist = {ratio.max():.4f} > 1/3")
    edges, _ = w.adjacency_edges()
    jump = np.abs(w.levels[edges[:, 0]] - w.levels[edges[:, 1]])
    chk.expect(len(edges) > 0 and int(jump.max()) <= 2, op,
               f"edge level difference {int(jump.max()) if len(edges) else None}")


def _build_refined(domain, cutoff: int) -> qhyp.GeodesicSolver:
    w = whitney.refine_for_qh(whitney.whitney_decompose(domain, cutoff))
    return qhyp.solver_for(w)


# ---------------------------------------------------------------------------
# qh-comb: one Dijkstra source, many boundary chains, polygon oracle build
# ---------------------------------------------------------------------------

class QhComb:
    name = "qh-comb"
    cutoff = 10
    build_segments = ("build",)
    ops_segment = "queries"
    fit_samples = 64
    shadow_samples = 512

    def inputs(self, seed: int) -> dict:
        # the comb, its cutoff and the default basepoint fix every input;
        # the seed changes nothing here
        return {}

    def ops(self, inp: dict, workdir: Path):
        t0 = time.perf_counter()
        solver = _build_refined(domains.comb_domain(), self.cutoff)
        t1 = time.perf_counter()
        x0 = solver.default_basepoint()
        fit = solver.holder_fit(x0, self.fit_samples)
        table = solver.shadows(x0, self.shadow_samples)
        t2 = time.perf_counter()
        sums = solver.shadow_sum_check(table)
        t3 = time.perf_counter()
        timings = {"segments": {"build": t1 - t0, "queries": t2 - t1, "sum_check": t3 - t2},
                   "ops": self.fit_samples + self.shadow_samples}
        return timings, {"solver": solver, "fit": fit, "table": table, "sums": sums}

    def check(self, inp: dict, res: dict, chk: Checker) -> dict:
        chk.attempt(4)
        w = res["solver"].w
        _check_refined(w, chk, "build")
        fit = res["fit"]
        chk.expect(fit.status in ("ok", "not-holder"), "holder_fit", f"status {fit.status}")
        if fit.fit is not None:
            chk.expect(0.0 < fit.fit.alpha <= 1.0 and math.isfinite(fit.fit.c),
                       "holder_fit", f"alpha {fit.fit.alpha}, c {fit.fit.c}")
        table = res["table"]
        idx = [i for v in table.entries.values() for i in v]
        chk.expect(all(0 <= i < table.n_samples for i in idx), "shadows",
                   "shadow sample index out of range")
        lhs, rhs, _ = res["sums"]
        chk.expect(math.isfinite(lhs) and math.isfinite(rhs), "shadow_sum_check",
                   f"lhs {lhs}, rhs {rhs}")
        return {"cubes": len(w), "edges": len(w.adjacency_edges()[0]),
                "shadow_cubes": len(table.entries)}


# ---------------------------------------------------------------------------
# qh-pairs: many Dijkstra sources, a cache that fills, closed-form oracle
# ---------------------------------------------------------------------------

class QhPairs:
    name = "qh-pairs"
    cutoff = 10
    build_segments = ("build",)
    ops_segment = "queries"
    n_points = 32
    symmetry_pairs = 8
    triangle_triples = 64

    def inputs(self, seed: int) -> dict:
        """Seeded points of the unit disk, each inside exactly one cube.

        Coordinates are odd multiples of 2^-30, so no point lies on a dyadic
        cube boundary.  Two points of one refined cube are closer than a third
        of their boundary distance (the cube diagonal is at most dist/3), so
        rejecting such pairs puts every point in its own cube.
        """
        rng = np.random.default_rng(seed)
        pts: list[np.ndarray] = []
        for _ in range(100_000):
            if len(pts) == self.n_points:
                break
            r = 0.95 * math.sqrt(rng.uniform())
            th = rng.uniform(0.0, 2.0 * math.pi)
            p = (np.floor(np.array([r * math.cos(th), r * math.sin(th)]) * 2.0 ** 29)
                 * 2.0 + 1.0) / 2.0 ** 30
            dp = 1.0 - math.hypot(p[0], p[1])
            if all(math.hypot(*(p - q)) > max(dp, 1.0 - math.hypot(*q)) / 3.0
                   for q in pts):
                pts.append(p)
        if len(pts) < self.n_points:
            raise RuntimeError("could not place the seeded point pool")
        pairs = list(combinations(range(self.n_points), 2))
        sym = rng.choice(len(pairs), self.symmetry_pairs, replace=False)
        triples = [tuple(int(k) for k in rng.choice(self.n_points, 3, replace=False))
                   for _ in range(self.triangle_triples)]
        return {"points": np.array(pts), "pairs": pairs,
                "symmetry": [pairs[int(k)] for k in sym], "triples": triples}

    def ops(self, inp: dict, workdir: Path):
        pts = inp["points"]
        t0 = time.perf_counter()
        solver = _build_refined(domains.DiskDomain(), self.cutoff)
        t1 = time.perf_counter()
        dist = {(i, j): solver.distance(pts[i], pts[j]) for i, j in inp["pairs"]}
        t2 = time.perf_counter()
        timings = {"segments": {"build": t1 - t0, "queries": t2 - t1},
                   "ops": len(inp["pairs"])}
        return timings, {"solver": solver, "dist": dist}

    def check(self, inp: dict, res: dict, chk: Checker) -> dict:
        solver, dist, pts = res["solver"], res["dist"], inp["points"]
        chk.attempt(1 + len(dist))
        _check_refined(solver.w, chk, "build")
        for key, d in dist.items():
            chk.expect(math.isfinite(d) and d > 0.0, key, f"distance {d}")

        def d(i, j):
            return dist[(min(i, j), max(i, j))]

        for i, j in inp["symmetry"]:
            back = solver.distance(pts[j], pts[i])
            chk.expect(back == dist[(i, j)], (i, j), f"asymmetric: {dist[(i, j)]} vs {back}")
        for a, b, c in inp["triples"]:
            lhs, rhs = d(a, c), d(a, b) + d(b, c)
            chk.expect(lhs <= rhs * (1.0 + 1e-12), (min(a, c), max(a, c)),
                       f"triangle inequality: {lhs} > {rhs}")
        return {"cubes": len(solver.w), "edges": len(solver.w.adjacency_edges()[0])}


# ---------------------------------------------------------------------------
# batch: every CLI subcommand plus the fractal-side calls no subcommand makes
# ---------------------------------------------------------------------------

class Batch:
    name = "batch"
    build_segments = ("build",)
    ops_segment = "rated"
    cli_detour_lines = 4
    rated_lines = 24      # epsilon 0.01 on the warm gasket-10 scene
    group_lines = 12      # epsilon 0.05, then group_paths over their paths
    carpet_lines = 4      # epsilon 0.2 on the carpet-3 scene
    carpet_epsilon = 0.2
    scene_level = 10
    scene_builds = 3      # the build segment is the median of this many builds
    itc_level = 8

    def inputs(self, seed: int) -> dict:
        rng = np.random.default_rng(seed)
        cli_seed = int(rng.integers(0, 2 ** 31))

        def lines(n, ymax):
            """n horizontal and vertical lines: the offsets split each
            direction's range into n/4 equal strata and take an antithetic
            pair u, 1 - u in each, so that every seed spreads its lines over
            the whole scene box and the cost of a set hardly depends on u."""
            out = []
            strata = n // 4
            for j in range(strata):
                for direction in ("horizontal", "vertical"):
                    u = rng.uniform()
                    for v in (u, 1.0 - u):
                        offset = (j + v) / strata
                        out.append(Line.horizontal(float(offset * ymax))
                                   if direction == "horizontal" else
                                   Line.vertical(float(offset)))
            return out

        argv = [
            ["generate", "--scene", "gasket", "--levels", "8"],
            ["generate", "--scene", "apollonian", "--min-radius", "0.02"],
            ["generate", "--scene", "julia", "--grid", "256"],
            ["whitney", "--scene", "disk", "--cutoff", "9"],
            ["qhyp", "--scene", "disk", "--cutoff", "9", "--samples", "128"],
            ["detour", "--scene", "gasket", "--levels", "8", "--epsilon", "0.01",
             "--lines", str(self.cli_detour_lines), "--seed", str(cli_seed)],
            ["certify", "--scene", "gasket", "--levels", "8", "--what",
             "removability", "--m", "6"],
            ["certify", "--scene", "gasket", "--levels", "8", "--what",
             "integrated-measure", "--m", "4"],
            ["certify", "--scene", "gasket", "--levels", "8", "--what",
             "measure-zero", "--m", "4", "--seed", str(cli_seed)],
            ["carpet", "--p", "2", "--m", "7"],
            ["report"],
        ]
        return {"argv": argv,
                "rated_lines": lines(self.rated_lines, SQRT3 / 2.0),
                "group_lines": lines(self.group_lines, SQRT3 / 2.0),
                "carpet_lines": lines(self.carpet_lines, 1.0)}

    def ops(self, inp: dict, workdir: Path):
        out = workdir / "cli"
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir(parents=True)
        seg: dict[str, float] = {}
        status = []
        for k, argv in enumerate(inp["argv"]):
            t0 = time.perf_counter()
            status.append(cli.main(argv + ["--output-dir", str(out)]))
            seg[f"cli.{k}"] = time.perf_counter() - t0

        builds = []
        for _ in range(self.scene_builds):
            t0 = time.perf_counter()
            g = fractals.gasket_levels(self.scene_level)
            gscene = detour.FractalScene(g)
            c3 = fractals.carpet_levels(3)
            cscene = detour.FractalScene(c3)
            builds.append(time.perf_counter() - t0)
        t1 = time.perf_counter()
        rated = [_line_outcome(line, g, 0.01, gscene, verify=True)
                 for line in inp["rated_lines"]]
        t2 = time.perf_counter()
        group = [_line_outcome(line, g, 0.05, gscene, verify=True)
                 for line in inp["group_lines"]]
        paths = [o[1].path for o in group if o[0] == "ok"]
        partition = detour.group_paths(paths, g, scene=gscene)
        t3 = time.perf_counter()
        carpet = [_line_outcome(line, c3, self.carpet_epsilon, cscene, verify=False)
                  for line in inp["carpet_lines"]]
        t4 = time.perf_counter()
        fresh = fractals.gasket_levels(self.itc_level)
        series = certify.image_tail_contrast(fresh, certify.function_of("x2+y"),
                                             Line.horizontal(0.3), self.itc_level)
        t5 = time.perf_counter()
        seg.update({"build": statistics.median(builds), "rated": t2 - t1, "group": t3 - t2,
                    "carpet": t4 - t3, "image_tail_contrast": t5 - t4})

        artifacts = sum(p.stat().st_size for p in out.iterdir()
                        if not p.name.endswith("_meta.json"))
        timings = {"segments": seg, "ops": len(rated)}
        return timings, {"out": out, "status": status, "rated": rated,
                         "group": group, "paths": paths, "partition": partition,
                         "carpet": carpet, "series": series,
                         "artifact_bytes": artifacts,
                         "solids": g.n_solids(self.scene_level) + c3.n_solids(3)}

    def check(self, inp: dict, res: dict, chk: Checker) -> dict:
        argv = inp["argv"]
        lines = res["rated"] + res["group"]
        chk.attempt(len(argv) + len(lines) + len(res["carpet"]) + 3)
        out = res["out"]
        k_mz = next(k for k, a in enumerate(argv) if "measure-zero" in a)
        k_report = next(k for k, a in enumerate(argv) if a[0] == "report")
        mz_passed = _check_measure_zero(argv[k_mz], out, chk, ("cli", k_mz))
        # certify and report exit 2 when a certificate does not pass: only the
        # seeded measure-zero line may leave one inconclusive
        expected_rc = {k_mz: 0 if mz_passed else 2, k_report: 0 if mz_passed else 2}
        for k, (args, rc) in enumerate(zip(argv, res["status"])):
            want = expected_rc.get(k, 0)
            chk.expect(rc == want, ("cli", k), f"{' '.join(args)} exited {rc}, want {want}")
        k_detour = next(k for k, a in enumerate(argv) if a[0] == "detour")
        entries = json.loads((out / "detour.json").read_text())["lines"]
        chk.expect(len(entries) == self.cli_detour_lines, ("cli", k_detour), "line count")
        for e in entries:
            ok = (e["status"] == "ok" and e.get("verified") is True) \
                or e["status"] == "exceptional"
            chk.expect(ok, ("cli", k_detour), f"line {e['id']} status {e['status']}")
        k_int = next(k for k, a in enumerate(argv) if "integrated-measure" in a)
        cert = json.loads((out / "certificate_integrated-measure.json").read_text())
        exact = 3 * Fraction(3, 4) ** 4
        chk.expect(cert.get("exact") == f"{exact.numerator}/{exact.denominator}",
                   ("cli", k_int), f"exact {cert.get('exact')}")
        k_carpet = next(k for k, a in enumerate(argv) if a[0] == "carpet")
        carpet = json.loads((out / "carpet.json").read_text())
        chk.expect(carpet["image_measure"] >= 0.9, ("cli", k_carpet),
                   f"image measure {carpet['image_measure']}")

        # gasket lines: ok and verified, or ExceptionalLineError
        for k, (kind, _, ver) in enumerate(lines):
            chk.expect(kind == "exceptional" or (kind == "ok" and ver.all_ok),
                       ("line", k), kind)
        ids = sorted(i for grp in res["partition"].groups for i in grp)
        chk.expect(ids == list(range(len(res["paths"]))), "group_paths",
                   "groups do not partition the paths")
        # carpet paths fail by design; a failure must name its violations
        for k, (kind, rep, _) in enumerate(res["carpet"]):
            ok = kind in ("ok", "exceptional") or (kind == "failed" and bool(rep.violations))
            chk.expect(ok, ("carpet_line", k), kind)
        s = res["series"]
        chk.expect(all(b <= a + 1e-12 for a, b in zip(s, s[1:])) and s[-1] < 0.1 * s[0],
                   "image_tail_contrast", f"series {s[0]} .. {s[-1]}")
        return {"solids": res["solids"], "artifact_bytes": res["artifact_bytes"],
                "group_paths": len(res["paths"]), "groups": len(res["partition"].groups),
                "measure_zero_passed": mz_passed}


def _check_measure_zero(args: list[str], out: Path, chk: Checker, op) -> bool:
    """Check the gasket measure-zero certificate against the gasket's geometry.

    The certificate bounds the line's residual measure (holes of level <= m
    excluded) by three times the diameters of the deeper holes it meets, up
    to the generated depth.  A level-j hole fills the lower half of each
    level-(j-1) row of the unit gasket, so a horizontal line at relative
    height u meets one iff frac(u * 2^(j-1)) < 1/2.  Such a hole bounds the
    residual chord of its row, so the certificate passes iff the line meets
    a hole of some level m+1 .. depth; otherwise it must report a zero bound
    (about one seeded line in 2^(depth-m) is inconclusive this way).
    Returns whether the certificate passed.
    """
    m = int(args[args.index("--m") + 1])
    depth = int(args[args.index("--levels") + 1])
    cert = json.loads((out / "certificate_measure-zero.json").read_text())
    line = cert["resolution"]["line"]
    value, bound, passed = cert["value"], cert["bound"], cert["pass"]
    u = line["offset"] / (SQRT3 / 2.0)
    chk.expect(line["direction"] == [1.0, 0.0] and 0.0 < u < 1.0, op, f"line {line}")
    chk.expect(math.isfinite(value) and math.isfinite(bound) and value >= 0.0
               and bound >= 0.0 and passed == (value <= bound + 1e-9), op,
               f"value {value}, bound {bound}, pass {passed}")
    fracs = [math.modf(u * 2.0 ** (j - 1))[0] for j in range(m + 1, depth + 1)]
    if all(min(abs(fr - 0.5), fr, 1.0 - fr) > 1e-9 for fr in fracs):
        meets = any(fr < 0.5 for fr in fracs)
        chk.expect(passed == meets, op,
                   f"pass {passed}, but the line at u={u!r} meets a deeper hole: {meets}")
        chk.expect(passed or bound == 0.0, op, f"inconclusive with bound {bound}")
    return bool(passed)


def _line_outcome(line, f, epsilon, scene, verify):
    """("ok" | "failed" | "exceptional" | "error", report, verify report)."""
    try:
        rep = detour.detour_path(line, f, epsilon, scene=scene)
    except ExceptionalLineError:
        return "exceptional", None, None
    except DetourkitError as exc:
        return "error", exc, None
    if not rep.ok:
        return "failed", rep, None
    ver = detour.verify_detour(rep.path, f, scene=scene) if verify else None
    return "ok", rep, ver


WORKLOADS = {w.name: w for w in (QhComb(), QhPairs(), Batch())}
