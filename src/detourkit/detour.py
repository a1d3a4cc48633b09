"""Detour paths: corridor-following polylines for lines against a nested
fractal approximation, their independent verification, and the greedy
grouping of paths by touching closure families.

A path for a line L at tolerance eps is built at the smallest level m whose
solids are smaller than eps: the line is kept where it runs outside the
level-m solids, and each crossing of a solid is replaced by the boundary arc
of that solid on the side of smaller diameter.  The components recorded as
touched are the pass-through components of the straight stretches and the
owners of the boundary edges the arcs run along.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ExceptionalLineError, InvalidShapeError, ResolutionError
from .fractals import FractalApproximation, HoleComponents
# line_component_hits has no caller here, but perfbench's tracer wraps the
# name in this module as well as in geometry and certify
from .geometry import (POINT_SEGMENT_CHUNK, Interval1D, Line, Polygon,  # noqa: F401
                       SceneComponent, _next_vertices,
                       component_closures_intersect, line_component_hits,
                       points_in_polygon, polygons_line_hits, segment_distance)

# the one incidence tolerance of the detour layer; the margins of near_line
# and group_paths are derived from it
VERTEX_TOL = 1e-9


# ---------------------------------------------------------------------------
# scene wrapper: indexed components and point location
# ---------------------------------------------------------------------------

class FractalScene:
    """Indexed complementary components of a fractal approximation.

    Component 0 is the unbounded one; holes are numbered from 1 in removal
    order, and ``hole_levels[k - 1]`` is the removal level of hole k.  Built
    once per (fractal, level) pair and reused across lines.  ``holes`` is a
    lazily materialised list: point location reads the flat hole arrays,
    and a hole's component is built when first asked for.
    """

    def __init__(self, f: FractalApproximation, max_level: int | None = None):
        self.fractal = f
        self.max_level = f.max_level if max_level is None else max_level
        self.outer = f.outer_component()
        self.holes = HoleComponents(f, self.max_level)
        self.hole_levels = self.holes.levels
        if f.kind == "gasket":
            # hole i of level j sits in solid i of level j - 1
            for j in range(1, self.max_level + 1):
                if len(f.levels[j].holes) != len(f.levels[j - 1].solids):
                    raise InvalidShapeError(
                        f"level {j} has {len(f.levels[j].holes)} holes for "
                        f"{len(f.levels[j - 1].solids)} parent solids")
            self._first_id = 1 + np.searchsorted(
                self.hole_levels, np.arange(self.max_level + 1))

    def component(self, k: int) -> SceneComponent:
        if k == 0:
            return self.outer
        if k < 0:
            raise IndexError(f"component index {k} is negative")
        return self.holes[k - 1]

    def locate(self, pt) -> int | None:
        """Component index containing ``pt``; None inside the solid set."""
        k = int(self.locate_many(np.asarray(pt, dtype=float)[None, :])[0])
        return None if k < 0 else k

    def locate_many(self, pts) -> np.ndarray:
        """Component index (n,) containing each point (n, 2); -1 in the solids.

        A hole contains the points strictly inside its boundary curve: the
        strict triangle test for the gasket, the half-open box that the
        crossing-number test gives an axis-aligned square for the carpet,
        and distance below radius - 1e-12 for a circle packing.  The outer
        curve is tested for all points in one call.  The gasket then
        descends its nesting tree with all points at once, level by level:
        the hole of solid i of level j - 1 is ``levels[j].holes[i]``, its
        children are solids i, n + i and 2n + i of level j.  The carpet and
        the packing test blocks of points against every hole.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        out = np.zeros(len(pts), dtype=np.intp)
        idx = np.flatnonzero(self.outer._inside_curve(pts, 0.0))
        out[idx] = -1
        if self.fractal.kind == "gasket":
            levels = self.fractal.levels
            i = np.zeros(len(idx), dtype=np.intp)
            p = pts[idx]
            for j in range(1, self.max_level + 1):
                v = levels[j].holes[i]                          # corners a, b, c
                e, r = v.take((1, 2, 0), axis=1) - v, p[:, None] - v
                d = e[..., 0] * r[..., 1] - e[..., 1] * r[..., 0]   # d1, d2, d3
                hit = (d > 0).all(axis=1) | (d < 0).all(axis=1)
                if hit.any():
                    out[idx[hit]] = self._first_id[j] + i[hit]
                    idx, i, p, d = idx[~hit], i[~hit], p[~hit], d[~hit]
                # the hole (ab, bc, ca) is counter-clockwise; within the parent
                # (a, b, c) the closed half-plane beyond its edge ca-ab is child
                # (a, ab, ca), beyond ab-bc child (ab, b, bc), else (ca, bc, c)
                child = np.where(d[:, 2] <= 0, 0, np.where(d[:, 0] <= 0, 1, 2))
                i += child * len(levels[j - 1].solids)
            return out
        if not len(self.holes):
            return out
        rows = max(POINT_SEGMENT_CHUNK // len(self.holes), 1)
        for lo in range(0, len(idx), rows):
            blk = idx[lo:lo + rows]
            x, y = pts[blk, :1], pts[blk, 1:]
            if self.holes.vertices is None:
                ctr = self.holes.centers
                inside = np.hypot(x - ctr[:, 0], y - ctr[:, 1]) <= self.holes.radii - 1e-12
            else:
                low, high = self.holes.vertices[:, 0], self.holes.vertices[:, 2]
                inside = ((low[:, 0] <= x) & (x < high[:, 0])
                          & (low[:, 1] <= y) & (y < high[:, 1]))
            hit = inside.any(axis=1)
            out[blk[hit]] = inside[hit].argmax(axis=1) + 1
        return out

    # -- array queries over the flat hole arrays ------------------------------
    # Each one equals, bit for bit, the per-component SceneComponent query it
    # replaces: geometry's kernels broadcast over the stacked hole polygons.

    def _hole_distance(self, pts, pos, closed: bool = True):
        """Distance of the points (..., 2) to the holes at 0-based positions
        ``pos``, broadcast against each other: to the closed region within
        ``VERTEX_TOL`` if ``closed`` (0 inside), else to the boundary curve."""
        h = self.holes
        if h.vertices is None:
            ctr, r = h.centers[pos], h.radii[pos]
            d = np.hypot(pts[..., 0] - ctr[..., 0], pts[..., 1] - ctr[..., 1])
            return np.where(d <= r + VERTEX_TOL, 0.0, np.abs(d - r)) if closed else np.abs(d - r)
        v = h.vertices[pos]
        d = segment_distance(pts, v, _next_vertices(v)).min(axis=-1)
        return np.where(points_in_polygon(pts, v) | (d <= VERTEX_TOL), 0.0, d) if closed else d

    def pair_boundary_distance(self, pts, ks) -> np.ndarray:
        """Distance from ``pts[i]`` to the boundary curve of component
        ``ks[i]``, shape (n,): ``component(ks[i]).boundary_distance``."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        ks = np.asarray(ks, dtype=np.intp)
        out = np.empty(len(ks))
        outer = ks == 0
        out[outer] = self.outer.boundary_distance(pts[outer])
        held = ~outer
        out[held] = self._hole_distance(pts[held], ks[held] - 1, closed=False)
        return out

    def coverage_distance(self, pts, ks) -> np.ndarray:
        """Distance from each point (n, 2) to the union of the closed regions
        of the components ``ks``, shape (n,): the minimum over ``ks`` of
        ``component(k).region_distance(pts, VERTEX_TOL)``.

        A hole is no nearer than the larger axis gap from the point to its
        bounding box.  One exact pair per point, the smallest of the nearest
        boxes, bounds the minimum; only pairs whose box gap is within 1e-9
        relative and 1e-12 absolute of it (above the rounding of both at
        O(1) coordinates) reach the exact kernel, none for a point at 0, nor
        the unbounded component.  Every dropped pair is farther than the
        minimiser, so the minimum is bit for bit the all-pairs one.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        ks = np.asarray(ks, dtype=np.intp)
        out = np.full(len(pts), np.inf)
        pos = ks[ks > 0] - 1
        if len(pos):
            box = self.hole_boxes(pos + 1)
            size = box[:, 2] - box[:, 0] + box[:, 3] - box[:, 1]
            rows = max(POINT_SEGMENT_CHUNK // len(pos), 1)
            for lo in range(0, len(pts), rows):
                blk = pts[lo:lo + rows]
                x, y = blk[:, :1], blk[:, 1:]
                lb = np.maximum(np.maximum(np.maximum(box[:, 0] - x, x - box[:, 2]),
                                           np.maximum(box[:, 1] - y, y - box[:, 3])), 0.0)
                nearest = lb == lb.min(axis=1, keepdims=True)
                ub = self._hole_distance(blk, pos[np.where(nearest, size, np.inf).argmin(axis=1)])
                cut = np.where(ub > 0.0, ub * (1 + 1e-9) + 1e-12, -1.0)
                pi, hi = np.nonzero(lb <= cut[:, None])
                np.minimum.at(ub, pi, self._hole_distance(blk[pi], pos[hi]))
                out[lo:lo + rows] = ub
        if np.any(ks == 0):
            far = np.flatnonzero(out > 0.0)
            out[far] = np.minimum(out[far], self.outer.region_distance(pts[far], VERTEX_TOL))
        return out

    def hole_boxes(self, ks) -> np.ndarray:
        """Bounding boxes (x0, y0, x1, y1) of the holes ``ks``, shape (n, 4)."""
        pos = np.asarray(ks, dtype=np.intp) - 1
        h = self.holes
        if h.vertices is None:
            ctr, r = h.centers[pos], h.radii[pos, None]
            return np.hstack([ctr - r, ctr + r])
        v = h.vertices[pos]
        return np.hstack([v.min(axis=1), v.max(axis=1)])


# ---------------------------------------------------------------------------
# interval cover
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CoverInterval:
    """Crossing of one solid: parameters of first entry and last exit."""

    interval: Interval1D
    solid: int            # solid index within the level
    degenerate: bool = False


def solid_components(f: FractalApproximation, level: int) -> list[SceneComponent]:
    """Solids of one level as bounded polygon components (1-based index).

    Cached on the approximation object.  The per-line sweeps read the flat
    arrays of :meth:`FractalApproximation.solid_polygons` instead.
    """
    cache = getattr(f, "_solid_component_cache", None)
    if cache is None:
        cache = {}
        object.__setattr__(f, "_solid_component_cache", cache)
    if level not in cache:
        cache[level] = [SceneComponent(i + 1, Polygon(v))
                        for i, v in enumerate(f.solid_polygons(level))]
    return cache[level]


def near_line(line: Line, polys: np.ndarray) -> np.ndarray:
    """Indices of the polygons (n, k, 2) that may meet the line: a superset
    of those the stacked hit test (:func:`geometry.polygons_line_hits`)
    finds at tol = ``VERTEX_TOL``, which is run on the kept polygons only.

    A polygon is dropped when all its vertices lie on one side of the line
    beyond a margin.  An edge hit is a point of the line at edge parameter
    s within [-tol / scale, 1 + tol / scale] (scale >= 1, edge length
    <= 2 sqrt2 scale), so it lies within 2 sqrt2 tol of the edge; a margin
    of 1000 tol leaves room for that and for rounding.
    """
    margin = 1e3 * VERTEX_TOL
    nx, ny = line.normal
    side = polys[:, :, 0] * nx + polys[:, :, 1] * ny - line.offset
    return np.flatnonzero((side.min(axis=1) <= margin)
                          & (side.max(axis=1) >= -margin))


def interval_cover(line: Line, f: FractalApproximation,
                   level: int) -> list[CoverInterval]:
    """Ordered solid crossings of the line at the given level.

    Each interval runs from the first entry into a solid to the last exit
    from that same solid; the sweep then continues with the next solid.  A
    tangential touch comes back as a degenerate interval with a flag.  Only
    the solids :func:`near_line` keeps go through the exact hit test.
    """
    polys = f.solid_polygons(level)
    near = near_line(line, polys)
    hits = [CoverInterval(iv, i, iv.degenerate)
            for i, ivs in zip(near.tolist(),
                              polygons_line_hits(line, polys[near], VERTEX_TOL))
            for iv in ivs]
    hits.sort(key=lambda h: (h.interval.lo, h.interval.hi))
    out: list[CoverInterval] = []
    cursor = -math.inf
    for h in hits:
        if h.interval.lo < cursor - VERTEX_TOL:
            continue  # swallowed by the previous solid's crossing
        out.append(h)
        cursor = max(cursor, h.interval.hi)
    return out


# ---------------------------------------------------------------------------
# detour path construction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DetourPath:
    polyline: np.ndarray          # (m, 2) vertices
    touched: frozenset[int]       # complementary component indices
    line: Line
    epsilon: float
    level: int
    arc_margins: tuple[float, ...] = ()   # diam(arc) per replaced crossing


@dataclass
class DetourReport:
    status: str                   # "ok" or "failed"
    path: DetourPath | None
    level: int
    violations: list[str]
    hausdorff_margin: float       # max distance of path vertices to the line
    touched_count: int

    @property
    def ok(self) -> bool:
        return self.status == "ok"


def required_level(f: FractalApproximation, epsilon: float) -> int:
    """Smallest level whose solids are all smaller than ``epsilon``."""
    for m, d in enumerate(f.max_solid_diameters):
        if d < epsilon:
            return m
    raise ResolutionError(
        f"epsilon {epsilon} is below the resolution of the generated levels "
        f"(deepest level {f.max_level})")


def _scene_for(f: FractalApproximation, level: int,
               scene: FractalScene | None) -> FractalScene:
    """``scene``, checked to hold ``f`` through ``level``, or a new one."""
    if scene is None:
        return FractalScene(f, level)
    if scene.fractal is not f or scene.max_level < level:
        raise ValueError("scene was built for another fractal" if scene.fractal is not f
                         else f"scene stops at level {scene.max_level}, below {level}")
    return scene


def check_exceptional(line: Line, f: FractalApproximation, level: int) -> None:
    """Reject lines passing within ``VERTEX_TOL`` of any vertex up to
    ``level``.  The level-``level`` solids hold them all: every vertex of a
    solid or a gasket hole stays a vertex of a solid at every deeper level."""
    verts = f.solid_polygons(level).reshape(-1, 2)
    d = line.distance_to_points(verts)
    j = int(np.argmin(d))
    if d[j] <= VERTEX_TOL:
        raise ExceptionalLineError(
            f"line passes within {d[j]:.2e} of vertex ({verts[j, 0]}, {verts[j, 1]})")


def _arc_routes(polys: np.ndarray, entry: np.ndarray,
                exit_: np.ndarray) -> tuple[list[np.ndarray], list[float]]:
    """Boundary route (m, 2) from ``entry[i]`` to ``exit_[i]`` along polygon
    ``polys[i]`` (c, k, 2), on the side of smaller diameter, and the
    diameters.

    Entry and exit lie on edges ei and xi.  The counter-clockwise route is
    entry, vertices ei + 1 .. xi, exit; the clockwise one is entry, vertices
    ei, ei - 1 .. xi + 1, exit; with ei == xi both are the segment.  Ties go
    to the counter-clockwise side (polygons are stored CCW).  Both
    candidates of every crossing sit in one (2, c, k + 2, 2) array, padded
    with copies of the entry, which leave each diameter unchanged.
    """
    c, k = polys.shape[:2]
    d = segment_distance(np.stack([entry, exit_], axis=1), polys[:, None],
                         _next_vertices(polys)[:, None])   # (c, 2, k)
    gap = d.min(axis=2).ravel()
    off = np.flatnonzero(gap > 100 * VERTEX_TOL)
    if len(off):
        raise RuntimeError(
            f"point not on polygon boundary (distance {gap[off[0]]:.2e})")
    ei, xi = d.argmin(axis=2).T
    j = np.arange(k)
    count = np.stack([(xi - ei) % k, (ei - xi) % k])               # (2, c)
    vidx = np.stack([ei[:, None] + 1 + j, ei[:, None] - j]) % k    # (2, c, k)
    rows = np.arange(c)
    cand = np.empty((2, c, k + 2, 2))
    cand[...] = entry[:, None]
    cand[:, :, 1:-1] = np.where((j < count[..., None])[..., None],
                                polys[rows[:, None], vidx], entry[:, None])
    cand[0, rows, count[0] + 1] = exit_
    cand[1, rows, count[1] + 1] = exit_
    x, y = cand[..., 0], cand[..., 1]
    d2 = ((x[..., :, None] - x[..., None, :]) ** 2
          + (y[..., :, None] - y[..., None, :]) ** 2)
    diam = np.sqrt(d2.max(axis=(2, 3)))                             # (2, c)
    side = (diam[0] > diam[1]).astype(np.intp)
    routes = [cand[s, r, :n + 2] for r, s, n in
              zip(rows.tolist(), side.tolist(), count[side, rows].tolist())]
    return routes, diam[side, rows].tolist()


def _missed_holes(scene: FractalScene, line: Line, touched) -> list[int]:
    """The touched holes whose closures the line misses, in index order.

    One stacked hit test over the flat hole arrays answers all of them;
    the arrays are counter-clockwise, as a hole's ``Polygon`` stores them.
    Component 0 is skipped: every line meets the unbounded closure.
    """
    ks = sorted(k for k in touched if k)
    if not ks:
        return []
    if scene.holes.vertices is None:
        raise InvalidShapeError("line hits need polygonal holes, not circles")
    hits = polygons_line_hits(line, scene.holes.vertices[np.asarray(ks) - 1],
                              VERTEX_TOL)
    return [k for k, h in zip(ks, hits) if not h]


def _locate_path_points(scene: FractalScene, gaps: np.ndarray, a: np.ndarray,
                        b: np.ndarray, tol: float):
    """Components of the gap midpoints (n, 2), and the owner of each arc edge
    [a_i, b_i]: the complementary component whose boundary carries it.

    An edge's owner is found by probing a hair off its midpoint on both
    sides; the solid side locates nothing (the scene only knows holes up to
    the working level), while the outward side lands inside the owning open
    component, which must then pass within 100 tol + 2 offset of the
    midpoint.  The side +1 is tried first.  The offset is far above the
    incidence tolerance and far below any hole size at the working level.
    An edge shorter than ``tol`` has no owner.  All points are located in
    one call.  Returns two index arrays, with -1 for a point inside the
    solid set and for an edge without an owner.
    """
    mid = (a + b) / 2.0
    t = b - a
    norm = np.array([math.hypot(x, y) for x, y in t.tolist()])
    live = np.flatnonzero(norm >= tol)
    nrm = np.column_stack([t[live, 1], -t[live, 0]]) / norm[live, None]
    eps_out = np.maximum(norm[live] * 1e-6, 1e-12)
    mid = mid[live]
    off = eps_out[:, None] * nrm
    found = scene.locate_many(np.vstack([gaps, mid + off, mid - off]))
    ks = found[len(gaps):].reshape(2, -1)      # rows: side +1, side -1
    cand = ks >= 0
    near = np.zeros_like(cand)
    lim = np.stack([100 * tol + 2 * eps_out] * 2)
    near[cand] = scene.pair_boundary_distance(
        np.stack([mid, mid])[cand], ks[cand]) <= lim[cand]
    owners = np.full(len(a), -1, dtype=np.intp)
    owners[live] = np.where(near[0], ks[0], np.where(near[1], ks[1], -1))
    return found[:len(gaps)], owners


def detour_path(line: Line, f: FractalApproximation, epsilon: float,
                scene: FractalScene | None = None) -> DetourReport:
    """Construct the corridor path for ``line`` at tolerance ``epsilon``.

    Any condition that fails during construction is recorded and the report
    comes back as a failure instead of a path.  The walk along the cover
    records the gap midpoints and the arc edges; their point queries are
    answered together afterwards, and the violations come out in walk order.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    level = required_level(f, epsilon)
    check_exceptional(line, f, level)
    scene = _scene_for(f, level, scene)
    solids = f.solid_polygons(level)
    cover = interval_cover(line, f, level)

    outer = scene.outer
    bx0, by0, bx1, by1 = outer.bbox()
    mid = np.array([[(bx0 + bx1) / 2.0, (by0 + by1) / 2.0]])
    tmid = float(line.project(mid)[0])
    half_span = 2.0 * max(bx1 - bx0, by1 - by0, 1.0)
    t_lo, t_hi = tmid - half_span, tmid + half_span

    arcs = [cv for cv in cover if not cv.degenerate]
    ends = np.array([(cv.interval.lo, cv.interval.hi) for cv in arcs]).reshape(-1, 2)
    routes, diams = _arc_routes(solids[[cv.solid for cv in arcs]],
                                line.point_at(ends[:, 0]), line.point_at(ends[:, 1]))

    points: list[np.ndarray] = [line.point_at(t_lo)]
    arc_margins: list[float] = []
    cursor = t_lo
    gap_ts: list[float] = []
    # in walk order: ("gap", gap number), ("arc", solid, route number) or
    # ("violation", text)
    events: list[tuple] = []

    def mark_gap(a: float, b: float) -> None:
        if b - a > VERTEX_TOL:
            events.append(("gap", len(gap_ts)))
            gap_ts.append((a + b) / 2.0)

    r = 0
    for cv in cover:
        iv = cv.interval
        mark_gap(cursor, iv.lo)
        cursor = iv.hi
        if cv.degenerate:
            points.append(line.point_at(iv.lo))
            arc_margins.append(0.0)
            continue
        arc_diam = diams[r]
        arc_margins.append(arc_diam)
        if arc_diam >= epsilon:
            events.append(("violation",
                           f"replacement arc diameter {arc_diam:.4f} >= epsilon {epsilon}"))
        events.append(("arc", cv.solid, r))
        points.append(routes[r])   # starts at the entry point
        r += 1
    mark_gap(cursor, t_hi)
    points.append(line.point_at(t_hi))

    starts = np.cumsum([0] + [len(r) - 1 for r in routes]).tolist()
    edge_a = np.vstack([r[:-1] for r in routes] or [np.empty((0, 2))])
    edge_b = np.vstack([r[1:] for r in routes] or [np.empty((0, 2))])
    gap_ks, owners = (ks.tolist() for ks in _locate_path_points(
        scene, line.point_at(np.array(gap_ts)).reshape(-1, 2), edge_a, edge_b,
        VERTEX_TOL))

    touched: set[int] = set()
    violations: list[str] = []
    for ev in events:
        if ev[0] == "violation":
            violations.append(ev[1])
        elif ev[0] == "gap":
            k = gap_ks[ev[1]]
            if k < 0:
                violations.append(
                    f"gap midpoint at t={gap_ts[ev[1]]:.6f} lies inside the "
                    "solid approximation")
            else:
                touched.add(k)
        else:
            _, solid, r = ev
            for owner in owners[starts[r]:starts[r + 1]]:
                if owner < 0:
                    violations.append(
                        f"arc edge of solid {solid} has no complementary owner")
                else:
                    touched.add(owner)

    polyline = np.vstack(points)
    haus = float(line.distance_to_points(polyline).max())
    if haus > epsilon:
        violations.append(f"path strays {haus:.4f} from the line (eps {epsilon})")
    for k in _missed_holes(scene, line, touched):
        violations.append(f"touched component {k} is missed by the line")

    path = DetourPath(polyline, frozenset(touched), line, epsilon, level,
                      tuple(arc_margins))
    status = "ok" if not violations else "failed"
    return DetourReport(status, path if status == "ok" else None, level,
                        violations, haus, len(touched))


# ---------------------------------------------------------------------------
# independent verification
# ---------------------------------------------------------------------------

@dataclass
class VerifyReport:
    hausdorff_ok: bool
    hausdorff_margin: float
    touched_finite: bool
    touched_count: int
    coverage_ok: bool
    coverage_margin: float
    line_hits_ok: bool
    missed_components: list[int]

    @property
    def all_ok(self) -> bool:
        return (self.hausdorff_ok and self.touched_finite and self.coverage_ok
                and self.line_hits_ok)


def verify_detour(p: DetourPath, f: FractalApproximation,
                  scene: FractalScene | None = None) -> VerifyReport:
    """Re-check the three detour conditions from raw geometry.

    Nothing from the constructor is trusted beyond the recorded polyline and
    touched set: the path must stay within epsilon of the line, every sample
    of it must lie within tolerance of some touched closure, the touched
    family must be finite, and the line must meet each touched closure.
    """
    scene = _scene_for(f, p.level, scene)
    pts = [p.polyline]
    for t in np.linspace(0.0, 1.0, 6)[1:-1]:  # four samples inside each segment
        pts.append(p.polyline[:-1] * (1 - t) + p.polyline[1:] * t)
    samples = np.vstack(pts)

    haus = float(p.line.distance_to_points(samples).max())
    hausdorff_ok = haus <= p.epsilon + VERTEX_TOL

    coverage_margin = float(scene.coverage_distance(samples, sorted(p.touched)).max())
    coverage_ok = coverage_margin <= 100 * VERTEX_TOL

    missed = _missed_holes(scene, p.line, p.touched)
    return VerifyReport(hausdorff_ok, haus, len(p.touched) < math.inf,
                        len(p.touched), coverage_ok, coverage_margin,
                        not missed, missed)


# ---------------------------------------------------------------------------
# grouping
# ---------------------------------------------------------------------------

@dataclass
class GroupPartition:
    groups: list[frozenset[int]]              # path ids per group
    touched_sets: list[frozenset[int]]        # component ids per group
    witness: list[list[tuple[int, int]]]      # verified contact edges


def group_paths(paths: list[DetourPath], f: FractalApproximation,
                scene: FractalScene | None = None) -> GroupPartition:
    """Union-find merge of paths whose touched-closure unions intersect.

    Two paths land in one group when a touched component of one comes
    within ``tol`` = ``VERTEX_TOL`` of a touched component of the other;
    merging runs to a fixpoint.  Each group carries a spanning list of
    verified closure contacts as its connectivity witness.

    Two holes whose bounding boxes lie more than a margin apart in x or y
    are not touching, without the exact test.  The exact test accepts only
    a point of one closed region within ``tol`` of the other: a probe point
    of one (on or inside its curve) inside the other or within ``tol`` of
    its curve, or boundary curves within ``tol``.  Such points lie in both
    boxes grown by ``tol``, so the boxes are at most ``tol`` apart, up to
    the rounding of the distance tests: a few ulps of the coordinates,
    which are O(1) in every scene.  The margin 2 ``tol`` covers both.
    """
    scene = _scene_for(f, max((p.level for p in paths), default=0), scene)
    contact: dict[tuple[int, int], bool] = {}
    margin = 2.0 * VERTEX_TOL
    held = sorted({k for p in paths for k in p.touched if k})
    boxes = dict(zip(held, scene.hole_boxes(held).tolist()))

    def apart(a: int, b: int) -> bool:
        (ax0, ay0, ax1, ay1), (bx0, by0, bx1, by1) = boxes[a], boxes[b]
        return max(ax0 - bx1, bx0 - ax1, ay0 - by1, by0 - ay1) > margin

    def touching(a: int, b: int) -> bool:
        if a == b:
            return True
        key = (min(a, b), max(a, b))
        hit = contact.get(key)
        if hit is None:
            if a and b and apart(a, b):
                hit = False
            else:
                hit = component_closures_intersect(
                    scene.component(a), scene.component(b), VERTEX_TOL)
            contact[key] = hit
        return hit

    parent = list(range(len(paths)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)

    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            if find(i) == find(j):
                continue
            if any(touching(a, b) for a in paths[i].touched
                   for b in paths[j].touched):
                union(i, j)

    grouped: dict[int, list[int]] = {}
    for i in range(len(paths)):
        grouped.setdefault(find(i), []).append(i)

    out_groups, out_touched, out_witness = [], [], []
    for root in sorted(grouped):
        ids = grouped[root]
        comps = sorted({k for i in ids for k in paths[i].touched})
        edges: list[tuple[int, int]] = []
        seen = {comps[0]} if comps else set()
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for other in comps:
                if other not in seen and touching(cur, other):
                    seen.add(other)
                    frontier.append(other)
                    edges.append((cur, other))
        out_groups.append(frozenset(ids))
        out_touched.append(frozenset(comps))
        out_witness.append(edges)
    return GroupPartition(out_groups, out_touched, out_witness)


# ---------------------------------------------------------------------------
# structural checks
# ---------------------------------------------------------------------------

@dataclass
class StructuralReport:
    kind: str
    max_hole_diameter: list[float]   # per level, starting at level 1
    area_fraction: list[float]       # area(K_m) / area(K_0) per level
    strictly_decreasing: bool


def structural_checks(f: FractalApproximation) -> StructuralReport:
    """Per-level hole-diameter decay and solid-area decay of the scene."""
    diams: list[float] = []
    for m in range(1, f.max_level + 1):
        d = f.hole_diameters(m)
        diams.append(float(d.max()) if len(d) else 0.0)
    dec = all(b < a for a, b in zip(diams, diams[1:]) if b > 0.0)

    areas: list[float] = []
    if f.kind == "gasket":
        # width^2 sums are exact dyadic rationals: fraction = (3/4)^m exactly
        for m in range(f.max_level + 1):
            tris = f.levels[m].solids
            w = tris[:, :, 0].max(axis=1) - tris[:, :, 0].min(axis=1)
            areas.append(float(np.sum(w * w)))
    elif f.kind == "carpet":
        for m in range(f.max_level + 1):
            areas.append(f.n_solids(m) * (9.0 ** (-m)))
    else:
        c = f.circles
        r0 = float(c.radii[c.enclosing][0])
        total = math.pi * r0 ** 2
        removed = 0.0
        for m in range(f.max_level + 1):
            removed += float(np.sum(
                math.pi * c.radii[(c.levels == m) & ~c.enclosing] ** 2))
            areas.append((total - removed) / total)
    return StructuralReport(f.kind, diams, areas, dec)
