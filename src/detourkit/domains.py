"""Bounded open domains exposed through inside/distance oracles.

The Whitney sweep needs three vectorized answers about a domain D:

* is a point inside D,
* the boundary distance of a point,
* the exact distance from an axis-aligned square to the boundary curve.

The third one is what makes the dyadic selection rule sharp: for circles it
reduces to corner evaluations, for polygons to box-to-segment distances, both
closed form.  The polygon point oracle uses geometry's point-segment kernel;
only cubes use the box kernel, which projects the box corners through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .geometry import (Polygon, _polygon_signed_area, points_in_polygon,
                       polygon_boundary_distance, sample_circle,
                       sample_polygon_boundary, segment_distance)

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


def _box_segment_distance(cx, cy, half, ax, ay, bx, by):
    """Exact distance between boxes (n,) and segments (m,), result (n, m).

    Both sets are convex, so they either intersect (checked by clipping the
    segment to the box) or the closest pair is realised at a vertex of one of
    them: a box corner projected onto the segment, or a segment endpoint
    measured against the box.
    """
    cx = np.asarray(cx, dtype=float)[:, None]
    cy = np.asarray(cy, dtype=float)[:, None]
    half = np.asarray(half, dtype=float)[:, None]
    ax = np.asarray(ax, dtype=float)[None, :]
    ay = np.asarray(ay, dtype=float)[None, :]
    bx = np.asarray(bx, dtype=float)[None, :]
    by = np.asarray(by, dtype=float)[None, :]

    ex = bx - ax
    ey = by - ay

    def point_box(px, py):
        dx = np.maximum(np.abs(px - cx) - half, 0.0)
        dy = np.maximum(np.abs(py - cy) - half, 0.0)
        return np.hypot(dx, dy)

    best = np.minimum(point_box(ax, ay), point_box(bx, by))
    a, b = np.column_stack([ax[0], ay[0]]), np.column_stack([bx[0], by[0]])
    corners = np.stack([np.column_stack([cx + sx * half, cy + sy * half])
                        for sx in (-1.0, 1.0) for sy in (-1.0, 1.0)])
    best = np.minimum(best, segment_distance(corners, a, b).min(axis=0))

    # Liang-Barsky clip: zero out pairs whose segment crosses the box.
    with np.errstate(divide="ignore", invalid="ignore"):
        t1x = (cx - half - ax) / ex
        t2x = (cx + half - ax) / ex
        t1y = (cy - half - ay) / ey
        t2y = (cy + half - ay) / ey
    lox = np.minimum(t1x, t2x)
    hix = np.maximum(t1x, t2x)
    loy = np.minimum(t1y, t2y)
    hiy = np.maximum(t1y, t2y)
    # degenerate axes: segment parallel to an axis, inside-slab test instead
    para_x = np.abs(ex) < 1e-300
    para_y = np.abs(ey) < 1e-300
    in_x = np.abs(ax - cx) <= half
    in_y = np.abs(ay - cy) <= half
    lox = np.where(para_x, np.where(in_x, -np.inf, np.inf), lox)
    hix = np.where(para_x, np.where(in_x, np.inf, -np.inf), hix)
    loy = np.where(para_y, np.where(in_y, -np.inf, np.inf), loy)
    hiy = np.where(para_y, np.where(in_y, np.inf, -np.inf), hiy)
    tmin = np.maximum(np.maximum(lox, loy), 0.0)
    tmax = np.minimum(np.minimum(hix, hiy), 1.0)
    hit = tmin <= tmax
    return np.where(hit, 0.0, best)


@dataclass(frozen=True)
class PolygonDomain(Domain):
    """Open simple polygon; boundary distance is exact to all edges."""

    vertices: np.ndarray = field(repr=False)
    name: str = "polygon"

    def __post_init__(self) -> None:
        poly = Polygon(np.asarray(self.vertices, dtype=float))
        object.__setattr__(self, "vertices", poly.vertices)

    def _edges(self):
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return v[:, 0], v[:, 1], w[:, 0], w[:, 1]

    def contains(self, pts: np.ndarray) -> np.ndarray:
        return points_in_polygon(np.atleast_2d(pts), self.vertices)

    def boundary_distance(self, pts: np.ndarray) -> np.ndarray:
        return polygon_boundary_distance(pts, self.vertices)

    def cube_boundary_distance(self, cx, cy, half) -> np.ndarray:
        return _box_segment_distance(cx, cy, half, *self._edges()).min(axis=1)

    def cube_boundary_distance_capped(self, cx, cy, half, cap) -> np.ndarray:
        """Per-edge bounding-box prefilter; exact for distances up to ``cap``.

        Each cube evaluates only the edges whose inflated bounding box it
        meets, which cuts the work per cube from all edges to the one or two
        nearby ones on boundary-hugging sweeps.
        """
        cx = np.asarray(cx, dtype=float)
        cy = np.asarray(cy, dtype=float)
        half = np.asarray(half, dtype=float)
        cap = np.asarray(cap, dtype=float)
        ax, ay, bx, by = self._edges()
        out = np.full(len(cx), np.inf)
        reach = cap + half
        for k in range(len(ax)):
            ex0, ex1 = min(ax[k], bx[k]), max(ax[k], bx[k])
            ey0, ey1 = min(ay[k], by[k]), max(ay[k], by[k])
            near = ((cx >= ex0 - reach) & (cx <= ex1 + reach)
                    & (cy >= ey0 - reach) & (cy <= ey1 + reach))
            idx = np.flatnonzero(near)
            if len(idx) == 0:
                continue
            d = _box_segment_distance(cx[idx], cy[idx], half[idx],
                                      ax[k:k + 1], ay[k:k + 1],
                                      bx[k:k + 1], by[k:k + 1])[:, 0]
            np.minimum.at(out, idx, d)
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
