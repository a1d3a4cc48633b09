"""Planar primitives: points, lines, circles, polygons and their predicates.

All geometry is double precision.  Incidence tests use a single global
tolerance ``TOL`` which every predicate accepts as an optional override, so
that certificate runs are reproducible.  Closed sets are the convention
throughout: tangency counts as intersection.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import EmptySetError, InvalidShapeError

# Global incidence tolerance (scene units), overridable per call.
TOL = 1e-9


def _require_finite(*values: float) -> None:
    for v in values:
        if not math.isfinite(v):
            raise InvalidShapeError(f"non-finite coordinate {v!r}")


@dataclass(frozen=True)
class Point:
    """A point of the plane in scene units."""

    x: float
    y: float

    def __post_init__(self) -> None:
        _require_finite(self.x, self.y)


@dataclass(frozen=True)
class Line:
    """Oriented line in normal form.

    The line is the set ``offset * n + t * direction`` for ``t`` real, where
    ``n`` is ``direction`` rotated by +90 degrees.  ``t`` is the arc-length
    parameter used by all interval-valued operations.  The representation is
    canonicalized so that ``direction.y > 0``, or ``direction.y == 0`` and
    ``direction.x > 0``; construction flips ``(direction, offset)`` as needed.
    """

    direction: tuple[float, float]
    offset: float

    def __post_init__(self) -> None:
        dx, dy = self.direction
        _require_finite(dx, dy, self.offset)
        norm = math.hypot(dx, dy)
        if norm < 1e-12:
            raise InvalidShapeError("line direction must be a nonzero vector")
        dx, dy = dx / norm, dy / norm
        off = float(self.offset)
        if dy < 0.0 or (dy == 0.0 and dx < 0.0):
            dx, dy, off = -dx, -dy, -off
        object.__setattr__(self, "direction", (dx, dy))
        object.__setattr__(self, "offset", off)
        if abs(math.hypot(dx, dy) - 1.0) > 1e-12:
            raise InvalidShapeError("direction normalization failed")

    @property
    def normal(self) -> tuple[float, float]:
        dx, dy = self.direction
        return (-dy, dx)

    @property
    def base(self) -> np.ndarray:
        nx, ny = self.normal
        return np.array([self.offset * nx, self.offset * ny])

    @classmethod
    def horizontal(cls, y: float) -> "Line":
        return cls((1.0, 0.0), y)

    @classmethod
    def vertical(cls, x: float) -> "Line":
        # normal of direction (0,1) is (-1,0), so offset is -x
        return cls((0.0, 1.0), -x)

    def point_at(self, t: float | np.ndarray) -> np.ndarray:
        b = self.base
        d = np.asarray(self.direction)
        t = np.asarray(t, dtype=float)
        return b + np.multiply.outer(t, d)

    def project(self, pts: np.ndarray) -> np.ndarray:
        """Arc-length parameters of the orthogonal projections of ``pts``."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return pts @ np.asarray(self.direction)

    def distance_to_points(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        nx, ny = self.normal
        return np.abs(pts[:, 0] * nx + pts[:, 1] * ny - self.offset)


@dataclass(frozen=True)
class Interval1D:
    """Closed parameter interval on a line, ``lo <= hi``."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "lo", float(self.lo))
        object.__setattr__(self, "hi", float(self.hi))
        _require_finite(self.lo, self.hi)
        if self.lo > self.hi:
            raise InvalidShapeError(f"interval with lo {self.lo} > hi {self.hi}")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    @property
    def degenerate(self) -> bool:
        return self.hi - self.lo <= TOL


@dataclass(frozen=True)
class Circle:
    center: Point
    radius: float

    def __post_init__(self) -> None:
        _require_finite(self.radius)
        if self.radius <= 0.0:
            raise InvalidShapeError(f"circle radius must be positive, got {self.radius}")


def _next_vertices(v: np.ndarray) -> np.ndarray:
    """np.roll(v, -1, -2) for polygons (..., k, 2), bit for bit, 5x cheaper."""
    return v.take(range(1 - v.shape[-2], 1), axis=-2)


def _polygon_signed_area(v: np.ndarray) -> np.ndarray:
    """Shoelace areas of polygons (..., k, 2), positive counter-clockwise."""
    w = _next_vertices(v)
    return 0.5 * np.sum(v[..., 0] * w[..., 1] - w[..., 0] * v[..., 1], axis=-1)


def _segments_properly_intersect(p1, p2, q1, q2) -> np.ndarray:
    """Proper crossings of [p1, p2] and [q1, q2], over broadcasting (..., 2)."""
    def orient(a, b, c):
        return ((b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1])
                - (b[..., 1] - a[..., 1]) * (c[..., 0] - a[..., 0]))

    d1 = orient(q1, q2, p1)
    d2 = orient(q1, q2, p2)
    d3 = orient(p1, p2, q1)
    d4 = orient(p1, p2, q2)
    return ((d1 > 0) != (d2 > 0)) & ((d3 > 0) != (d4 > 0))


def check_polygons(polys: np.ndarray) -> np.ndarray:
    """Counter-clockwise copies of the polygons (n, k, 2), clockwise rows
    reversed.  Raises :class:`InvalidShapeError` unless all vertices are
    finite, every |signed area| is at least 1e-18 and (for k <= 64) no two
    non-adjacent edges of a polygon cross properly."""
    v = np.asarray(polys, dtype=float)
    if v.ndim != 3 or v.shape[2] != 2 or v.shape[1] < 3:
        raise InvalidShapeError("polygon needs at least 3 planar vertices")
    if not np.all(np.isfinite(v)):
        raise InvalidShapeError("polygon has non-finite vertices")
    area = _polygon_signed_area(v)
    if np.any(np.abs(area) < 1e-18):
        raise InvalidShapeError("polygon is degenerate (zero area)")
    v = np.where(area[:, None, None] < 0, v[:, ::-1], v)
    k = v.shape[1]
    if 3 < k <= 64:   # a triangle has no two non-adjacent edges
        i, j = np.array([(a, b) for a in range(k) for b in range(a + 2, k)
                         if (b + 1) % k != a]).T
        w = _next_vertices(v)
        if np.any(_segments_properly_intersect(v[:, i], w[:, i], v[:, j], w[:, j])):
            raise InvalidShapeError("polygon is self-intersecting")
    return v


@dataclass(frozen=True)
class Polygon:
    """Simple closed polygon, stored counter-clockwise (:func:`check_polygons`)."""

    vertices: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)[None]
        object.__setattr__(self, "vertices", check_polygons(v)[0])


Shape = Circle | Polygon


@dataclass(frozen=True)
class SceneComponent:
    """One complementary component of the scene.

    ``index`` 0 is reserved for the unbounded component; its stored shape is
    the boundary curve and the component is the closure of the exterior.
    """

    index: int
    shape: Shape
    bounded: bool = True

    def __post_init__(self) -> None:
        if self.index < 0:
            raise InvalidShapeError("component index must be non-negative")
        if (self.index == 0) == self.bounded:
            raise InvalidShapeError("index 0 must be the unbounded component and vice versa")

    # --- region predicates (closed-set convention) ---

    def _inside_curve(self, pts: np.ndarray, tol: float) -> np.ndarray:
        """Closed containment in the region enclosed by the boundary curve."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if isinstance(self.shape, Circle):
            c = self.shape.center
            d = np.hypot(pts[:, 0] - c.x, pts[:, 1] - c.y)
            return d <= self.shape.radius + tol
        inside = points_in_polygon(pts, self.shape.vertices)
        near = polygon_boundary_distance(pts, self.shape.vertices) <= tol
        return inside | near

    def contains(self, pts: np.ndarray, tol: float = TOL) -> np.ndarray:
        """Membership in the closed region represented by this component."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if self.bounded:
            return self._inside_curve(pts, tol)
        # closure of the exterior: everything except the open inside
        return ~self._inside_curve(pts, -tol)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        if isinstance(self.shape, Circle):
            c = self.shape.center
            d = np.hypot(pts[:, 0] - c.x, pts[:, 1] - c.y)
            return np.abs(d - self.shape.radius)
        return polygon_boundary_distance(pts, self.shape.vertices)

    def region_distance(self, pts: np.ndarray, tol: float = TOL) -> np.ndarray:
        """Distance from points to the closed region (0 inside)."""
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        d = self.boundary_distance(pts)
        return np.where(self.contains(pts, tol), 0.0, d)

    def bbox(self) -> tuple[float, float, float, float]:
        if isinstance(self.shape, Circle):
            c, r = self.shape.center, self.shape.radius
            return (c.x - r, c.y - r, c.x + r, c.y + r)
        v = self.shape.vertices
        return (v[:, 0].min(), v[:, 1].min(), v[:, 0].max(), v[:, 1].max())

    def boundary_points(self, n: int) -> np.ndarray:
        """Roughly arc-length uniform boundary sample, vertices included."""
        if isinstance(self.shape, Circle):
            c = self.shape.center
            return sample_circle(c.x, c.y, self.shape.radius, n)
        return sample_polygon_boundary(self.shape.vertices, n)


# ---------------------------------------------------------------------------
# low-level vector helpers
# ---------------------------------------------------------------------------

def points_in_polygon(pts: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Strict crossing-number containment, broadcast: points (..., 2) against
    polygon vertex arrays (..., k, 2) give (...), the leading shapes
    broadcasting against each other; (n, 2) against one polygon gives (n,)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v = np.asarray(vertices, dtype=float)
    x, y = pts[..., None, 0], pts[..., None, 1]
    w = _next_vertices(v)
    x1, y1, x2, y2 = v[..., 0], v[..., 1], w[..., 0], w[..., 1]
    cond = (y1 > y) != (y2 > y)
    with np.errstate(divide="ignore", invalid="ignore"):
        xin = x1 + (y - y1) * (x2 - x1) / (y2 - y1)
    return np.sum(cond & (x < xin), axis=-1) % 2 == 1


def segment_distance(pts: np.ndarray, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Distances from points to segments [a_i, b_i], broadcast: points
    (..., 2) against endpoint arrays (..., m, 2) give (..., m), the leading
    shapes broadcasting against each other; (n, 2) against (m, 2) gives
    (n, m)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    return segment_distance_xy(pts[..., None, 0], pts[..., None, 1],
                               a[..., 0], a[..., 1], b[..., 0], b[..., 1])


def segment_distance_xy(px, py, ax, ay, bx, by) -> np.ndarray:
    """Point-segment distances, elementwise over broadcasting coordinates."""
    ex, ey = bx - ax, by - ay
    denom = ex * ex + ey * ey
    denom = np.where(denom < 1e-300, 1.0, denom)
    t = np.clip(((px - ax) * ex + (py - ay) * ey) / denom, 0.0, 1.0)
    return np.hypot(px - (ax + t * ex), py - (ay + t * ey))


# (point, edge) pairs per block: bounds polygon_boundary_distance's temporaries
POINT_SEGMENT_CHUNK = 1 << 16


def polygon_boundary_distance(pts: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """Distance from every point (n, 2) to the polygon boundary, shape (n,)."""
    pts = np.atleast_2d(np.asarray(pts, dtype=float))
    v = np.asarray(vertices, dtype=float)
    w = _next_vertices(v)
    step = max(POINT_SEGMENT_CHUNK // len(v), 1)
    out = np.empty(len(pts))
    for lo in range(0, len(pts), step):
        out[lo:lo + step] = segment_distance(pts[lo:lo + step], v, w).min(axis=1)
    return out


def sample_circle(cx, cy, r, n: int) -> np.ndarray:
    """n equally spaced points of a circle, the first at angle 0: (n, 2) for
    one circle, (h, n, 2) for arrays (h,) of centre coordinates and radii."""
    th = np.linspace(0.0, 2.0 * math.pi, n, endpoint=False)
    cx, cy, r = (np.asarray(a, dtype=float)[..., None] for a in (cx, cy, r))
    return np.stack([cx + r * np.cos(th), cy + r * np.sin(th)], axis=-1)


def sample_polygons_boundary(polys: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """About n boundary points of each polygon (h, k, 2) by arc length: edge
    i of length l_i of perimeter L gets its start vertex and floor((n - k)
    l_i / L) more equally spaced points.  Returns the points (N, 2),
    stacked in polygon order, and each polygon's point count (h,)."""
    v = np.asarray(polys, dtype=float)
    k = v.shape[1]
    seg = _next_vertices(v) - v
    lengths = np.hypot(seg[..., 0], seg[..., 1])
    per = max(n - k, 0)
    quota = np.floor(per * lengths / lengths.sum(axis=1, keepdims=True))
    per_edge = quota.astype(int).ravel() + 1
    edge = np.repeat(np.arange(len(per_edge)), per_edge)
    first = np.cumsum(per_edge) - per_edge
    t = (np.arange(len(edge)) - first[edge]) / per_edge[edge]
    pts = v.reshape(-1, 2)[edge] + t[:, None] * seg.reshape(-1, 2)[edge]
    return pts, per_edge.reshape(-1, k).sum(axis=1)


def sample_polygon_boundary(vertices: np.ndarray, n: int) -> np.ndarray:
    """The one-polygon case of :func:`sample_polygons_boundary`."""
    return sample_polygons_boundary(np.asarray(vertices, dtype=float)[None], n)[0]


# ---------------------------------------------------------------------------
# scene-level operations
# ---------------------------------------------------------------------------

def line_component_hits(line: Line, c: SceneComponent, tol: float = TOL) -> list[Interval1D]:
    """Parameter intervals of the line lying in the closed region of the
    bounded component ``c``; tangency is reported as a degenerate interval.

    Every line meets the unbounded component in two rays, which no finite
    interval list holds, so an unbounded ``c`` raises
    :class:`InvalidShapeError`.
    """
    if not c.bounded:
        raise InvalidShapeError("line hits need a bounded component")
    if isinstance(c.shape, Circle):
        ctr, r = c.shape.center, c.shape.radius
        nx, ny = line.normal
        d = ctr.x * nx + ctr.y * ny - line.offset
        t0 = ctr.x * line.direction[0] + ctr.y * line.direction[1]
        if abs(d) > r + tol:
            return []
        if abs(abs(d) - r) <= tol:
            return [Interval1D(t0, t0)]
        half = math.sqrt(max(r * r - d * d, 0.0))
        return [Interval1D(t0 - half, t0 + half)]
    return polygon_line_hits(line, c.shape.vertices, tol)


def polygon_line_hits(line: Line, v: np.ndarray, tol: float = TOL) -> list[Interval1D]:
    """Hits of the closed region of the simple polygon with vertex array
    ``v`` (k, 2): the one-polygon case of :func:`polygons_line_hits`."""
    return polygons_line_hits(line, np.asarray(v, dtype=float)[None], tol)[0]


def polygons_line_hits(line: Line, polys: np.ndarray,
                       tol: float = TOL) -> list[list[Interval1D]]:
    """Hits of the closed regions of the simple polygons (n, k, 2), one
    interval list per polygon; tangency is reported as a degenerate interval.

    A polygon's parameters are the line's crossings of its non-parallel
    edges at edge parameter s within [-tol / scale, 1 + tol / scale], scale
    its largest |coordinate| (at least 1).  Sorted, they are merged left to
    right, a parameter within 10 tol of the last kept one being dropped.
    The line lies in the region between kept neighbours whose midpoint is
    strictly inside; with no such stretch, the first parameter is a touch
    point if it lies within 10 tol of the boundary.  Every step runs on the
    whole stack at once: the parameters sit in an (n, k) array padded with
    +inf, and the merge is replayed column by column.
    """
    polys = np.asarray(polys, dtype=float)
    n, k = polys.shape[0], polys.shape[1]
    if k < 3:
        raise InvalidShapeError("degenerate polygon")
    out: list[list[Interval1D]] = [[] for _ in range(n)]
    dx, dy = line.direction
    nxt = _next_vertices(polys)
    e = nxt - polys
    w = polys - line.base
    denom = dx * e[..., 1] - dy * e[..., 0]
    # a parallel edge has no crossing; its endpoints come from its neighbours
    live = np.abs(denom) >= 1e-14
    denom = np.where(live, denom, 1.0)
    # solve b + t d = p + s e for (t, s)
    s = (w[..., 0] * dy - w[..., 1] * dx) / denom
    scale = np.maximum(np.abs(polys).max(axis=(1, 2)), 1.0)[:, None]
    live &= (-tol / scale <= s) & (s <= 1 + tol / scale)
    if not live.any():
        return out
    t = np.where(live, (w[..., 0] * e[..., 1] - w[..., 1] * e[..., 0]) / denom,
                 np.inf)
    t.sort(axis=1)
    keep = np.isfinite(t)
    last = np.where(keep[:, 0], t[:, 0], 0.0)
    for j in range(1, k):
        keep[:, j] &= t[:, j] - last > 10 * tol
        last = np.where(keep[:, j], t[:, j], last)
    count = keep.sum(axis=1)
    t = np.sort(np.where(keep, t, np.inf), axis=1)

    crossed = np.zeros(n, dtype=bool)
    if count.max() > 1:
        pair = np.arange(k - 1) < (count - 1)[:, None]
        mids = np.where(pair, (t[:, :-1] + t[:, 1:]) / 2.0, 0.0)
        inside = points_in_polygon(line.point_at(mids), polys[:, None]) & pair
        edge = np.diff(inside, prepend=False, append=False, axis=1)
        rows, cols = np.nonzero(edge)
        # runs of inside midpoints: edge holds (start, end + 1) pairs per row
        for r, a, b in zip(rows[::2].tolist(), t[rows[::2], cols[::2]].tolist(),
                           t[rows[1::2], cols[1::2]].tolist()):
            out[r].append(Interval1D(a, b))
        crossed = inside.any(axis=1)

    # no stretch inside: the first parameter is a touch point or nothing
    lone = np.flatnonzero((count > 0) & ~crossed)
    if len(lone):
        first = t[lone, 0]
        gap = segment_distance(line.point_at(first), polys[lone],
                               nxt[lone]).min(axis=1)
        for r, a, g in zip(lone.tolist(), first.tolist(),
                           (gap <= 10 * tol).tolist()):
            if g:
                out[r].append(Interval1D(a, a))
    return out


class HausdorffResult(NamedTuple):
    directed_ab: float
    directed_ba: float
    symmetric: float


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> HausdorffResult:
    """Directed sup-distances between finite point samples, both ways."""
    a = np.atleast_2d(np.asarray(a, dtype=float))
    b = np.atleast_2d(np.asarray(b, dtype=float))
    if a.size == 0 or b.size == 0:
        raise EmptySetError("hausdorff_distance requires non-empty samples")
    d = np.hypot(a[:, None, 0] - b[None, :, 0], a[:, None, 1] - b[None, :, 1])
    ab = float(d.min(axis=1).max())
    ba = float(d.min(axis=0).max())
    return HausdorffResult(ab, ba, max(ab, ba))


def _boundary_min_distance(a: SceneComponent, b: SceneComponent) -> float:
    """Minimum distance between the two boundary curves.

    A scene holds circles only (a packing) or polygons only, so a circle and
    a polygon raise :class:`InvalidShapeError`.
    """
    sa, sb = a.shape, b.shape
    if isinstance(sa, Circle) and isinstance(sb, Circle):
        d = math.hypot(sa.center.x - sb.center.x, sa.center.y - sb.center.y)
        # |q - center_b| over q on circle a fills [lo, hi]; the gap is the
        # distance from circle b's radius to that range
        lo, hi = abs(d - sa.radius), d + sa.radius
        return max(lo - sb.radius, sb.radius - hi, 0.0)
    if isinstance(sa, Circle) or isinstance(sb, Circle):
        raise InvalidShapeError("no boundary distance between a circle and a polygon")
    va, vb = sa.vertices, sb.vertices
    wa, wb = _next_vertices(va), _next_vertices(vb)
    if np.any(_segments_properly_intersect(va[:, None], wa[:, None], vb, wb)):
        return 0.0
    return min(float(segment_distance(vb, va, wa).min()),
               float(segment_distance(va, vb, wb).min()))


def component_closures_intersect(a: SceneComponent, b: SceneComponent, tol: float = TOL) -> bool:
    """True iff the closed regions of ``a`` and ``b`` come within ``tol``."""
    if tol < 0:
        raise ValueError("tolerance must be non-negative")
    if not a.bounded and not b.bounded:
        return True
    if not a.bounded or not b.bounded:
        bounded, unbounded = (b, a) if not a.bounded else (a, b)
        # bounded region meets the exterior closure unless strictly inside
        probe = _region_probe_points(bounded)
        if np.any(unbounded.contains(probe, tol)):
            return True
        return _boundary_min_distance(a, b) <= tol
    # quick accept: one region's probe points inside the other
    if np.any(b.contains(_region_probe_points(a), tol)):
        return True
    if np.any(a.contains(_region_probe_points(b), tol)):
        return True
    return _boundary_min_distance(a, b) <= tol


def _region_probe_points(c: SceneComponent) -> np.ndarray:
    if isinstance(c.shape, Circle):
        ctr = c.shape.center
        return np.vstack([[ctr.x, ctr.y],
                          sample_circle(ctr.x, ctr.y, c.shape.radius, 16)])
    return c.shape.vertices


# ---------------------------------------------------------------------------
# scene JSON
# ---------------------------------------------------------------------------

def scene_to_json(outer: Shape, holes) -> str:
    """The scene as JSON: component 0, unbounded with boundary ``outer``,
    then hole k from position k - 1 of the flat arrays of ``holes`` (a
    :class:`~detourkit.fractals.HoleComponents`), polygons checked by
    :func:`check_polygons`."""
    def circle(cx, cy, r):
        return {"circle": {"cx": cx, "cy": cy, "r": r}}

    if holes.vertices is None:
        first = circle(outer.center.x, outer.center.y, outer.radius)
        shapes = [circle(cx, cy, r) for (cx, cy), r
                  in zip(holes.centers.tolist(), holes.radii.tolist())]
    else:
        first = {"polygon": outer.vertices.tolist()}
        shapes = [{"polygon": v} for v in check_polygons(holes.vertices).tolist()]
    levels = [0] + holes.levels.tolist()
    entries = [{"index": i, "bounded": i > 0, "level": lv, "shape": shape}
               for i, (lv, shape) in enumerate(zip(levels, [first] + shapes))]
    return json.dumps({"components": entries}, sort_keys=True)
