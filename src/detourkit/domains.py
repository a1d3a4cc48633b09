"""Bounded open domains exposed through inside/distance oracles.

The Whitney sweep needs three vectorized answers about a domain D:

* is a point inside D,
* the boundary distance of a point,
* the exact distance from an axis-aligned square to the boundary curve.

The third one is what makes the dyadic selection rule sharp: for circles it
reduces to corner evaluations, for polygons to box-to-segment distances, both
closed form.

A polygon prunes both oracles to nearby edges and stays exact: no dropped
(query, edge) pair can hold the minimum, and a kept pair gets the floats of
the all-edges kernels.  Points use a grid of EDGE_GRID_CELLS² cells over the
bounding box, built once per domain.  Distance to a segment is convex, so on
a closed cell it peaks at a corner: the cell's ub, the least over edges of
the largest corner distance, bounds the boundary distance of its points.  A
cell keeps the edges whose box is within ub * (1 + 1e-9) + 1e-12 of it (the
slack covers the rounding of both at O(1) coordinates); points outside the
closed box, NaN included, meet every edge.

The capped cube oracle prunes in two steps.  It first tests the box of each
group of CUBE_GROUP consecutive cubes (the span of their centres, grown by
their largest reach) against each edge's box, then runs the per-cube test
only on the cubes of the groups that pass.  Rounding is monotone, so a cube
that passes its own test lies in a group that passes, and the kept pairs are
exactly the per-cube test's.  Callers hand over cubes in sweep order, where
consecutive cubes are near each other, so few groups pass.

Containment tests each point only against the edges of its horizontal
strip, the band between two consecutive distinct vertex ordinates.  Within
a strip the edges that cross the point's ordinate are the same for every
point, so the crossing count and its floats equal those of
:func:`~detourkit.geometry.points_in_polygon` over all edges; points
outside every strip, NaN included, cross no edge.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .geometry import (POINT_SEGMENT_CHUNK, _next_vertices, _polygon_signed_area,
                       check_polygons, sample_circle, sample_polygon_boundary,
                       segment_distance_xy)

__all__ = ["Domain", "DiskDomain", "PolygonDomain", "equilateral_triangle_domain",
           "comb_domain"]


class Domain:
    """Interface shared by all domain oracles."""

    name: str = "domain"

    def contains(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cube_boundary_distance(self, cx: np.ndarray, cy: np.ndarray,
                               half: np.ndarray) -> np.ndarray:
        """Exact min distance from squares [cx-half,cx+half]x[cy-half,cy+half]
        to the boundary curve of D (0 when the square meets the boundary)."""
        raise NotImplementedError

    def cube_boundary_distance_capped(self, cx, cy, half, cap) -> np.ndarray:
        """Like :meth:`cube_boundary_distance` but exact only up to ``cap``.

        Values beyond the cap may be clamped to it; quadtree sweeps only
        compare the distance against small multiples of the cube side, so a
        proportional cap never changes a decision.
        """
        return self.cube_boundary_distance(cx, cy, half)

    def bbox(self) -> tuple[float, float, float, float]:
        raise NotImplementedError

    def area(self) -> float:
        raise NotImplementedError

    def boundary_points(self, n: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class DiskDomain(Domain):
    """Open disk of given center and radius."""

    center: tuple[float, float] = (0.0, 0.0)
    radius: float = 1.0
    name: str = "disk"

    def contains(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.hypot(pts[:, 0] - self.center[0], pts[:, 1] - self.center[1]) < self.radius

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        return np.abs(self.radius - np.hypot(pts[:, 0] - self.center[0],
                                             pts[:, 1] - self.center[1]))

    def cube_boundary_distance(self, cx, cy, half) -> np.ndarray:
        cx = np.asarray(cx, dtype=float) - self.center[0]
        cy = np.asarray(cy, dtype=float) - self.center[1]
        half = np.asarray(half, dtype=float)
        # farthest and nearest points of the box from the disk center
        far = np.hypot(np.abs(cx) + half, np.abs(cy) + half)
        near = np.hypot(np.maximum(np.abs(cx) - half, 0.0),
                        np.maximum(np.abs(cy) - half, 0.0))
        outside = near - self.radius          # > 0: box fully outside
        inside = self.radius - far            # > 0: box fully inside
        return np.maximum(np.maximum(outside, inside), 0.0)

    def bbox(self):
        cx, cy = self.center
        r = self.radius
        return (cx - r, cy - r, cx + r, cy + r)

    def area(self) -> float:
        return math.pi * self.radius ** 2

    def boundary_points(self, n: int) -> np.ndarray:
        return sample_circle(*self.center, self.radius, n)


def _box_segment_pairs(cx, cy, half, ax, ay, bx, by):
    """Exact distance between boxes [cx-half,cx+half]x[cy-half,cy+half] and
    segments [(ax, ay), (bx, by)], elementwise over broadcasting arrays.

    Both sets are convex, so they either intersect (checked by clipping the
    segment to the box) or the closest pair is realised at a vertex of one of
    them: a box corner projected onto the segment, or a segment endpoint
    measured against the box.
    """
    ex, ey = bx - ax, by - ay

    def point_box(px, py):
        dx = np.maximum(np.abs(px - cx) - half, 0.0)
        dy = np.maximum(np.abs(py - cy) - half, 0.0)
        return np.hypot(dx, dy)

    best = np.minimum(point_box(ax, ay), point_box(bx, by))
    x0, x1, y0, y1 = cx - half, cx + half, cy - half, cy + half
    corners = segment_distance_xy(np.stack([x0, x0, x1, x1]), np.stack([y0, y1, y0, y1]),
                                  ax, ay, bx, by)
    best = np.minimum(best, corners.min(axis=0))

    # Liang-Barsky clip: zero out pairs whose segment crosses the box.
    with np.errstate(divide="ignore", invalid="ignore"):
        t1x, t2x = (x0 - ax) / ex, (x1 - ax) / ex
        t1y, t2y = (y0 - ay) / ey, (y1 - ay) / ey
    lox, hix = np.minimum(t1x, t2x), np.maximum(t1x, t2x)
    loy, hiy = np.minimum(t1y, t2y), np.maximum(t1y, t2y)
    # degenerate axes: segment parallel to an axis, inside-slab test instead
    para_x, para_y = np.abs(ex) < 1e-300, np.abs(ey) < 1e-300
    in_x, in_y = np.abs(ax - cx) <= half, np.abs(ay - cy) <= half
    lox = np.where(para_x, np.where(in_x, -np.inf, np.inf), lox)
    hix = np.where(para_x, np.where(in_x, np.inf, -np.inf), hix)
    loy = np.where(para_y, np.where(in_y, -np.inf, np.inf), loy)
    hiy = np.where(para_y, np.where(in_y, np.inf, -np.inf), hiy)
    tmin = np.maximum(np.maximum(lox, loy), 0.0)
    tmax = np.minimum(np.minimum(hix, hiy), 1.0)
    return np.where(tmin <= tmax, 0.0, best)


def _box_segment_distance(cx, cy, half, ax, ay, bx, by):
    """Exact distance between boxes (n,) and segments (m,), result (n, m)."""
    col = [np.asarray(a, dtype=float)[:, None] for a in (cx, cy, half)]
    return _box_segment_pairs(*col, *(np.asarray(a, dtype=float) for a in (ax, ay, bx, by)))


#: cells per side of the grid that prunes PolygonDomain's point oracle
EDGE_GRID_CELLS = 32

#: consecutive cubes whose joint box the capped cube oracle tests first
CUBE_GROUP = 32


def _point_edge_blocks(first: np.ndarray, count: np.ndarray, indices: np.ndarray):
    """Blocks of about POINT_SEGMENT_CHUNK (point, edge) pairs, point k paired
    with the edges ``indices[first[k]:first[k] + count[k]]``: yields the
    block's points ``lo:hi``, the point and edge of each pair, and where each
    point's pairs start in the block."""
    before = np.cumsum(count) - count
    cuts = np.flatnonzero(np.diff(before // POINT_SEGMENT_CHUNK, prepend=-1))
    for lo, hi in zip(cuts, [*cuts[1:], len(count)]):
        c, off = count[lo:hi], before[lo:hi] - before[lo]
        pi = np.repeat(np.arange(lo, hi), c)
        ei = indices[np.arange(len(pi)) + np.repeat(first[lo:hi] - off, c)]
        yield lo, hi, pi, ei, off


@dataclass(frozen=True, eq=False)
class PolygonDomain(Domain):
    """Open simple polygon with exact boundary distances; equality is
    identity, as each domain holds its own lazily built edge grid."""

    vertices: np.ndarray = field(repr=False)
    name: str = "polygon"

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        object.__setattr__(self, "vertices", check_polygons(v[None])[0])

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Edge k runs from vertex k, (ax, ay), to the next vertex, (bx, by)."""
        v, w = self.vertices, _next_vertices(self.vertices)
        return v[:, 0], v[:, 1], w[:, 0], w[:, 1]

    @cached_property
    def _edge_grid(self):
        """The bounding box, its cell sizes and, as CSR (indptr, indices),
        the kept edges of cell (i, j) at row i * EDGE_GRID_CELLS + j, then a
        last row with every edge, for points outside the closed box."""
        ax, ay, bx, by = self._edges
        x0, y0, x1, y1 = self.bbox()
        n = EDGE_GRID_CELLS
        hx, hy = (x1 - x0) / n, (y1 - y0) / n
        gx, gy = x0 + hx * np.arange(n + 1), y0 + hy * np.arange(n + 1)
        d = segment_distance_xy(gx[:, None, None], gy[:, None], ax, ay, bx, by)
        ub = np.max([d[:-1, :-1], d[1:, :-1], d[:-1, 1:], d[1:, 1:]], axis=0).min(axis=2)
        # axis gaps (2, n, m) between the cell columns and rows and the edge boxes
        lo, hi = np.minimum([ax, ay], [bx, by]), np.maximum([ax, ay], [bx, by])
        g = np.stack([gx, gy])
        gap = np.maximum(lo[:, None] - g[:, 1:, None], g[:, :-1, None] - hi[:, None]).clip(0.0)
        keep = np.hypot(gap[0][:, None], gap[1]) <= ub[..., None] * (1 + 1e-9) + 1e-12
        keep = np.vstack([keep.reshape(n * n, -1), np.ones((1, len(ax)), dtype=bool)])
        indptr = np.concatenate([[0], np.cumsum(keep.sum(axis=1))])
        return (x0, y0, x1, y1, hx, hy), indptr, np.nonzero(keep)[1]

    @cached_property
    def _strips(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The sorted distinct vertex ordinates and, as CSR (indptr,
        indices), the edges that cross strip k, [ys[k], ys[k + 1])."""
        ax, ay, bx, by = self._edges
        ys = np.unique(ay)
        lo, hi = np.minimum(ay, by), np.maximum(ay, by)
        cross = (lo <= ys[:-1, None]) & (hi >= ys[1:, None])
        indptr = np.concatenate([[0], np.cumsum(cross.sum(axis=1))])
        return ys, indptr, np.nonzero(cross)[1]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        """:func:`~detourkit.geometry.points_in_polygon` bit for bit, each
        point against the edges of its horizontal strip."""
        x, y = np.atleast_2d(np.asarray(pts, dtype=float)).T
        ys, indptr, indices = self._strips
        k = np.searchsorted(ys, y, side="right") - 1
        idx = np.flatnonzero((k >= 0) & (k < len(ys) - 1))       # never NaN
        out = np.zeros(len(x), dtype=bool)
        x, y, k = x[idx], y[idx], k[idx]
        ax, ay, bx, by = self._edges
        for lo, hi, pi, ei, off in _point_edge_blocks(indptr[k], np.diff(indptr)[k],
                                                      indices):
            x1, y1 = ax[ei], ay[ei]
            xin = x1 + (y[pi] - y1) * (bx[ei] - x1) / (by[ei] - y1)
            out[idx[lo:hi]] = np.logical_xor.reduceat(x[pi] < xin, off)
        return out

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        """:func:`polygon_boundary_distance` bit for bit, each point against
        its grid cell's edges, in blocks of ~POINT_SEGMENT_CHUNK pairs."""
        x, y = np.atleast_2d(np.asarray(pts, dtype=float)).T
        (x0, y0, x1, y1, hx, hy), indptr, indices = self._edge_grid
        n = EDGE_GRID_CELLS
        cell = np.full(len(x), n * n)
        box = (x >= x0) & (x <= x1) & (y >= y0) & (y <= y1)      # False for NaN
        cell[box] = (np.minimum(((x[box] - x0) / hx).astype(np.intp), n - 1) * n
                     + np.minimum(((y[box] - y0) / hy).astype(np.intp), n - 1))
        out = np.empty(len(x))
        for lo, hi, pi, ei, off in _point_edge_blocks(indptr[cell], np.diff(indptr)[cell],
                                                      indices):
            d = segment_distance_xy(x[pi], y[pi], *(a[ei] for a in self._edges))
            out[lo:hi] = np.minimum.reduceat(d, off)
        return out

    def cube_boundary_distance(self, cx, cy, half) -> np.ndarray:
        return _box_segment_distance(cx, cy, half, *self._edges).min(axis=1)

    def cube_boundary_distance_capped(self, cx, cy, half, cap) -> np.ndarray:
        """Exact for distances up to ``cap``, clamped to it beyond: a cube
        measures only the edges whose bounding box, grown by ``cap + half``,
        holds its centre, as any other is farther than ``cap``.  Groups of
        CUBE_GROUP consecutive cubes are tested first (module docstring).
        The (cube, edge) pairs go through the pair kernel in blocks of about
        POINT_SEGMENT_CHUNK candidates, which gives each pair the floats of
        the all-edges kernel."""
        cx, cy, half, cap = (np.asarray(a, dtype=float) for a in (cx, cy, half, cap))
        half = np.broadcast_to(half, cx.shape)
        reach = np.broadcast_to(cap + half, cx.shape)
        n = len(cx)
        out = np.full(n, np.inf)
        ax, ay, bx, by = self._edges
        x0, x1 = np.minimum(ax, bx), np.maximum(ax, bx)
        y0, y1 = np.minimum(ay, by), np.maximum(ay, by)
        # fmin/fmax skip NaN, which fails every test below anyway
        starts = np.arange(0, n, CUBE_GROUP)
        r = np.fmax.reduceat(reach, starts)[:, None]
        g, e = np.nonzero((np.fmax.reduceat(cx, starts)[:, None] >= x0 - r)
                          & (np.fmin.reduceat(cx, starts)[:, None] <= x1 + r)
                          & (np.fmax.reduceat(cy, starts)[:, None] >= y0 - r)
                          & (np.fmin.reduceat(cy, starts)[:, None] <= y1 + r))
        step = max(POINT_SEGMENT_CHUNK // CUBE_GROUP, 1)
        for lo in range(0, len(g), step):
            c = (g[lo:lo + step, None] * CUBE_GROUP + np.arange(CUBE_GROUP)).ravel()
            k = np.repeat(e[lo:lo + step], CUBE_GROUP)
            real = c < n                                # the last group may be short
            c, k = c[real], k[real]
            rc, px, py = reach[c], cx[c], cy[c]
            near = np.flatnonzero((px >= x0[k] - rc) & (px <= x1[k] + rc)
                                  & (py >= y0[k] - rc) & (py <= y1[k] + rc))
            c, k = c[near], k[near]
            d = _box_segment_pairs(px[near], py[near], half[c], ax[k], ay[k], bx[k], by[k])
            np.minimum.at(out, c, d)
        return np.minimum(out, np.broadcast_to(cap, out.shape))

    def bbox(self):
        v = self.vertices
        return (float(v[:, 0].min()), float(v[:, 1].min()),
                float(v[:, 0].max()), float(v[:, 1].max()))

    def area(self) -> float:
        return abs(_polygon_signed_area(self.vertices))

    def boundary_points(self, n: int) -> np.ndarray:
        return sample_polygon_boundary(self.vertices, n)


def equilateral_triangle_domain(side: float = 1.0) -> PolygonDomain:
    v = np.array([[0.0, 0.0], [side, 0.0], [side / 2.0, side * math.sqrt(3.0) / 2.0]])
    return PolygonDomain(v, name="triangle")


def comb_domain(teeth: int = 5, first_neck: float = 0.02,
                last_neck: float = 6.5e-4) -> PolygonDomain:
    """Rooms-and-corridors comb with geometrically shrinking neck widths.

    A shallow slab carries ``teeth`` corridors of length 1/2 rising to
    square rooms deeper than the slab, so the max-boundary-distance
    basepoint sits in a room and the other rooms' samples carry no
    logarithmic penalty at all.  Corridor widths interpolate geometrically
    from ``first_neck`` to ``last_neck``; crossing the last one costs about
    2 * 0.5 / last_neck in the quasihyperbolic metric (1500 with the
    defaults), which no logarithmic growth bound with intercept below 1000
    can absorb.  The last neck admits a connected cube chain once the cube
    side drops below last_neck / 5, i.e. by selection level 13.
    """
    base_top = 0.12
    corridor_top = base_top + 0.5
    room_half = 0.08
    room_top = corridor_top + 2 * room_half
    pts: list[tuple[float, float]] = [(0.0, 0.0), (1.0, 0.0), (1.0, base_top)]
    centers = [(i + 0.5) / teeth for i in range(teeth)]
    ratio = (last_neck / first_neck) ** (1.0 / max(teeth - 1, 1))
    widths = [first_neck * ratio ** i for i in range(teeth)]
    for c, w in zip(reversed(centers), reversed(widths)):
        hw = w / 2.0
        pts += [
            (c + hw, base_top),
            (c + hw, corridor_top),
            (c + room_half, corridor_top),
            (c + room_half, room_top),
            (c - room_half, room_top),
            (c - room_half, corridor_top),
            (c - hw, corridor_top),
            (c - hw, base_top),
        ]
    pts.append((0.0, base_top))
    return PolygonDomain(np.asarray(pts, dtype=float), name=f"comb{teeth}")
