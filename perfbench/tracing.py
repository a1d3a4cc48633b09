"""In-memory span tracer that wraps detourkit's public functions from outside.

A wrapper is installed where callers resolve a name: a module global (for
example ``detourkit.cli.whitney_decompose`` as well as
``detourkit.whitney.whitney_decompose``), a class attribute, or an entry of
the CLI command table.  Every call records a span (name, start, end, parent
span) in memory; :meth:`Tracer.restore` puts the original objects back.
Nothing under ``src/`` is modified.

Per-layer metrics are derived when the traced pass ends: ``<span>.s`` is the
summed span time, ``<span>.self_s`` the span time minus the time of its
direct child spans, ``<span>.calls`` the number of spans, and the remaining
counts come from hooks on arguments and results.
"""

from __future__ import annotations

import time
import weakref
from collections import Counter, defaultdict

import numpy as np


def _get(owner, attr):
    if isinstance(owner, dict):
        return owner[attr]
    if isinstance(owner, type):
        return owner.__dict__[attr]  # only patch where the attribute is defined
    return getattr(owner, attr)


def _set(owner, attr, value) -> None:
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


class Tracer:
    """Spans and counters of one traced pass."""

    def __init__(self) -> None:
        self.spans: list[list] = []          # [name, start, end, parent index]
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple] = []      # (owner, attr, original)

    # --- installing wrappers ---------------------------------------------------

    def patch(self, owners, attr: str, name: str | None = None, *,
              on_call=None, on_result=None, on_error=None) -> None:
        """Wrap ``attr`` on every owner; all owners must hold the same object.

        With ``name`` the wrapper records a span; without it the wrapper only
        runs the hooks.  ``on_call(counts, args)`` runs before the call,
        ``on_result(counts, result, args)`` after it, and
        ``on_error(counts, exc)`` when it raises (the exception propagates).
        """
        original = _get(owners[0], attr)
        for owner in owners[1:]:
            if _get(owner, attr) is not original:
                raise RuntimeError(f"call sites of {attr!r} hold different objects")
        wrapper = self._wrap(original, name, on_call, on_result, on_error)
        for owner in owners:
            self._patches.append((owner, attr, original))
            _set(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patches):
            _set(owner, attr, original)
        self._patches.clear()

    def _wrap(self, fn, name, on_call, on_result, on_error):
        spans, stack, counts = self.spans, self._stack, self.counts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if on_call is not None:
                on_call(counts, args)
            idx = -1
            if name is not None:
                idx = len(spans)
                spans.append([name, 0.0, 0.0, stack[-1] if stack else -1])
                stack.append(idx)
                t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if on_error is not None:
                    on_error(counts, exc)
                raise
            finally:
                if idx >= 0:
                    t1 = clock()
                    stack.pop()
                    spans[idx][1] = t0
                    spans[idx][2] = t1
            if on_result is not None:
                on_result(counts, result, args)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # --- aggregation ----------------------------------------------------------

    def aggregate(self) -> tuple[dict, dict, dict]:
        """(summed time, self time, call count) per span name."""
        total: dict[str, float] = defaultdict(float)
        own: dict[str, float] = defaultdict(float)
        calls: dict[str, int] = defaultdict(int)
        for name, t0, t1, parent in self.spans:
            d = t1 - t0
            total[name] += d
            own[name] += d
            calls[name] += 1
            if parent >= 0:
                own[self.spans[parent][0]] -= d
        return total, own, calls


def install(tracer: Tracer) -> None:
    """Wrap the call sites of every layer the per-layer metrics name."""
    from detourkit import (certify, cli, detour, domains, fractals, geometry,
                           qhyp, whitney)
    from detourkit.errors import ExceptionalLineError

    p = tracer.patch

    def add(key, n=1):
        return lambda counts, *_: counts.update({key: n})

    # domains: the oracles, patched on each class that defines them
    def n_points(counts, args):
        counts["domains.boundary_distance.points"] += len(np.atleast_2d(args[1]))

    def n_cubes(counts, args):
        counts["domains.cube_boundary_distance_capped.cubes"] += len(np.atleast_1d(args[1]))

    for cls in (domains.DiskDomain, domains.PolygonDomain):
        p([cls], "boundary_distance", "domains.boundary_distance", on_call=n_points)
        p([cls], "contains", "domains.contains")
    for cls in (domains.Domain, domains.PolygonDomain):
        p([cls], "cube_boundary_distance_capped",
          "domains.cube_boundary_distance_capped", on_call=n_cubes)

    # whitney
    W = whitney.WhitneyDecomposition
    p([whitney, cli], "whitney_decompose", "whitney.whitney_decompose")
    p([whitney, cli], "refine_for_qh", "whitney.refine_for_qh")
    for meth in ("find_cubes", "nearest_cube", "cubes_csv", "edges_csv"):
        p([W], meth, f"whitney.{meth}")

    def n_built(counts, _result, args):
        counts["whitney.cubes"] += len(args[0])

    p([W], "__init__", on_result=n_built)
    graphs = weakref.WeakSet()

    def n_edges(counts, result, args):
        if args[0] not in graphs:
            graphs.add(args[0])
            counts["whitney.edges"] += len(result[0])

    p([W], "adjacency_edges", on_result=n_edges)

    # qhyp
    G = qhyp.GeodesicSolver
    p([G], "__init__", "qhyp.solver_build")
    p([qhyp], "_sp_dijkstra", "qhyp.dijkstra")
    p([G], "run_dijkstra", on_call=add("qhyp.run_dijkstra.calls"))
    p([G], "chain", "qhyp.chain")
    p([G], "to_boundary", on_call=add("qhyp.to_boundary.calls"))
    p([G], "distance", on_call=add("qhyp.distance.calls"))
    p([G], "holder_fit", "qhyp.holder_fit")
    p([G], "shadow_sum_check", "qhyp.shadow_sum_check")

    def dropped(counts, table, _args):
        served = set()
        for idx in table.entries.values():
            served.update(int(i) for i in idx)
        counts["qhyp.samples_dropped"] += table.n_samples - len(served)

    p([G], "shadows", "qhyp.shadows", on_result=dropped)

    # fractals
    def n_solids(counts, f, _args):
        if isinstance(f, fractals.FractalApproximation):
            counts["fractals.solids"] += f.n_solids(f.max_level)

    for fn in ("gasket_levels", "carpet_levels", "apollonian", "julia_raster"):
        p([fractals], fn, "fractals.generate", on_result=n_solids)

    # geometry: every module that imported the function holds a reference
    p([geometry, detour, certify], "line_component_hits",
      "geometry.line_component_hits")
    p([geometry, detour], "component_closures_intersect",
      "geometry.component_closures_intersect")
    p([geometry.Polygon], "__post_init__", on_call=add("geometry.Polygon.count"))

    # detour
    S = detour.FractalScene
    p([S], "__init__", "detour.FractalScene")
    p([S], "locate", "detour.locate")
    p([detour], "solid_components", "detour.solid_components")
    p([detour], "interval_cover", "detour.interval_cover")
    p([detour], "verify_detour", "detour.verify_detour")
    p([detour], "group_paths", "detour.group_paths")

    def line_status(counts, rep, _args):
        counts["detour.lines.ok" if rep.ok else "detour.lines.failed"] += 1

    def line_error(counts, exc):
        if isinstance(exc, ExceptionalLineError):
            counts["detour.lines.exceptional"] += 1

    p([detour], "detour_path", "detour.detour_path",
      on_result=line_status, on_error=line_error)

    # certify
    for fn in ("image_tail_contrast", "removability_certificate",
               "measure_zero_bound", "carpet_counterexample"):
        p([certify], fn, f"certify.{fn}")

    # cli: the command table the dispatcher looks handlers up in
    for cmd in list(cli._COMMANDS):
        p([cli._COMMANDS], cmd, f"cli.{cmd}")


#: (metric, unit, kind, key): kind is "s" (summed span time), "self_s",
#: "calls" (span count) or "count" (hook counter)
PER_LAYER = [
    ("domains.boundary_distance.s", "s", "s", "domains.boundary_distance"),
    ("domains.boundary_distance.points", "count", "count", "domains.boundary_distance.points"),
    ("domains.cube_boundary_distance_capped.s", "s", "s", "domains.cube_boundary_distance_capped"),
    ("domains.cube_boundary_distance_capped.cubes", "count", "count",
     "domains.cube_boundary_distance_capped.cubes"),
    ("domains.contains.s", "s", "s", "domains.contains"),
    ("whitney.whitney_decompose.self_s", "s", "self_s", "whitney.whitney_decompose"),
    ("whitney.refine_for_qh.self_s", "s", "self_s", "whitney.refine_for_qh"),
    ("whitney.cubes", "count", "count", "whitney.cubes"),
    ("whitney.edges", "count", "count", "whitney.edges"),
    ("whitney.find_cubes.s", "s", "s", "whitney.find_cubes"),
    ("whitney.find_cubes.calls", "count", "calls", "whitney.find_cubes"),
    ("whitney.nearest_cube.s", "s", "s", "whitney.nearest_cube"),
    ("whitney.nearest_cube.calls", "count", "calls", "whitney.nearest_cube"),
    ("whitney.cubes_csv.s", "s", "s", "whitney.cubes_csv"),
    ("whitney.edges_csv.s", "s", "s", "whitney.edges_csv"),
    ("qhyp.solver_build.s", "s", "s", "qhyp.solver_build"),
    ("qhyp.dijkstra.s", "s", "s", "qhyp.dijkstra"),
    ("qhyp.dijkstra.runs", "count", "calls", "qhyp.dijkstra"),
    ("qhyp.run_dijkstra.calls", "count", "count", "qhyp.run_dijkstra.calls"),
    ("qhyp.dijkstra.cache_hit_ratio", "ratio", "derived", None),
    ("qhyp.chain.s", "s", "s", "qhyp.chain"),
    ("qhyp.to_boundary.calls", "count", "count", "qhyp.to_boundary.calls"),
    ("qhyp.holder_fit.self_s", "s", "self_s", "qhyp.holder_fit"),
    ("qhyp.shadows.self_s", "s", "self_s", "qhyp.shadows"),
    ("qhyp.shadow_sum_check.s", "s", "s", "qhyp.shadow_sum_check"),
    ("qhyp.distance.calls", "count", "count", "qhyp.distance.calls"),
    ("qhyp.samples_dropped", "count", "count", "qhyp.samples_dropped"),
    ("fractals.generate.s", "s", "s", "fractals.generate"),
    ("fractals.solids", "count", "count", "fractals.solids"),
    ("geometry.line_component_hits.s", "s", "s", "geometry.line_component_hits"),
    ("geometry.line_component_hits.calls", "count", "calls", "geometry.line_component_hits"),
    ("geometry.component_closures_intersect.s", "s", "s",
     "geometry.component_closures_intersect"),
    ("geometry.component_closures_intersect.calls", "count", "calls",
     "geometry.component_closures_intersect"),
    ("geometry.Polygon.count", "count", "count", "geometry.Polygon.count"),
    ("detour.FractalScene.s", "s", "s", "detour.FractalScene"),
    ("detour.solid_components.s", "s", "s", "detour.solid_components"),
    ("detour.interval_cover.s", "s", "s", "detour.interval_cover"),
    ("detour.interval_cover.calls", "count", "calls", "detour.interval_cover"),
    ("detour.locate.s", "s", "s", "detour.locate"),
    ("detour.locate.calls", "count", "calls", "detour.locate"),
    ("detour.detour_path.self_s", "s", "self_s", "detour.detour_path"),
    ("detour.verify_detour.s", "s", "s", "detour.verify_detour"),
    ("detour.group_paths.s", "s", "s", "detour.group_paths"),
    ("detour.lines.ok", "count", "count", "detour.lines.ok"),
    ("detour.lines.exceptional", "count", "count", "detour.lines.exceptional"),
    ("detour.lines.failed", "count", "count", "detour.lines.failed"),
    ("certify.image_tail_contrast.s", "s", "s", "certify.image_tail_contrast"),
    ("certify.removability_certificate.s", "s", "s", "certify.removability_certificate"),
    ("certify.measure_zero_bound.s", "s", "s", "certify.measure_zero_bound"),
    ("certify.carpet_counterexample.s", "s", "s", "certify.carpet_counterexample"),
    ("cli.generate.s", "s", "s", "cli.generate"),
    ("cli.whitney.s", "s", "s", "cli.whitney"),
    ("cli.qhyp.s", "s", "s", "cli.qhyp"),
    ("cli.detour.s", "s", "s", "cli.detour"),
    ("cli.certify.s", "s", "s", "cli.certify"),
    ("cli.carpet.s", "s", "s", "cli.carpet"),
    ("cli.report.s", "s", "s", "cli.report"),
    ("cli.artifact_bytes", "count", "count", "cli.artifact_bytes"),
]


def layer_values(tracer: Tracer) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric of one traced pass (0 where unused)."""
    total, own, calls = tracer.aggregate()
    counts = tracer.counts
    out: dict[str, float] = {}
    for metric, _unit, kind, key in PER_LAYER:
        if kind == "s":
            out[metric] = total.get(key, 0.0)
        elif kind == "self_s":
            out[metric] = own.get(key, 0.0)
        elif kind == "calls":
            out[metric] = calls.get(key, 0)
        elif kind == "count":
            out[metric] = counts.get(key, 0)
    runs = calls.get("qhyp.dijkstra", 0)
    asked = counts.get("qhyp.run_dijkstra.calls", 0)
    out["qhyp.dijkstra.cache_hit_ratio"] = (asked - runs) / asked if asked else 0.0
    return out
