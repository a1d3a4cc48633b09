"""Whitney cube decomposition of a bounded open planar domain.

The sweep is a level-by-level quadtree pass over dyadic cubes in the fixed
scene frame (cube = [ix 2^-j, (ix+1) 2^-j] x [iy 2^-j, (iy+1) 2^-j]).  A cube
is accepted once diam(Q) <= dist(Q, boundary) <= 4 diam(Q); the upper half is
automatic because every accepted cube's parent failed the lower half.  All
cube-to-boundary distances come from the domain oracle in closed form, which
keeps the selection sharp.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import TextIO

import numpy as np

from .domains import Domain
from .errors import (GraphInvariantError, OracleError, ResourceLimitError,
                     UncoveredPointError)

SQRT2 = math.sqrt(2.0)

MAX_CUTOFF = 24
_LEVEL_BIAS = 16
_COORD_BIAS = 1 << 27

#: corner comparability: ell(Q) <= corner delta <= CORNER_UPPER * ell(Q)
CORNER_UPPER = 4.0 * SQRT2 + SQRT2

#: candidates of a nearest-cube scan, before ties at the last place
_CANDIDATES = 32
#: relative margin on squared center distances: the tree's and ours differ
#: in rounding only, by a few ulps
_TIE_PAD = 1.0 + 1e-12


def _takes(d, side, best_d, best_side):
    """Whether a cube at box distance ``d`` beats the best so far (arrays or floats)."""
    return (d < best_d - 1e-15) | ((abs(d - best_d) <= 1e-15) & (side < best_side))


def _pack(level: np.ndarray, ix: np.ndarray, iy: np.ndarray) -> np.ndarray:
    lv = (np.asarray(level, dtype=np.int64) + _LEVEL_BIAS) << 56
    return lv | ((np.asarray(ix, dtype=np.int64) + _COORD_BIAS) << 28) \
        | (np.asarray(iy, dtype=np.int64) + _COORD_BIAS)


@dataclass(frozen=True)
class DyadicCube:
    """One closed dyadic cube of the scene frame."""

    level: int
    ix: int
    iy: int

    @property
    def side(self) -> float:
        return 2.0 ** (-self.level)

    @property
    def bounds(self) -> tuple[float, float, float, float]:
        s = self.side
        return (self.ix * s, self.iy * s, (self.ix + 1) * s, (self.iy + 1) * s)


class WhitneyDecomposition:
    """Accepted dyadic cubes of a domain with their adjacency graphs.

    Cubes are stored in canonical (level, ix, iy) order in flat arrays:
    ``levels``, ``ix``, ``iy``, ``side``, ``centers`` (n, 2), ``delta_center``
    (boundary distance at the center), ``dist`` (exact distance from the
    cube to the boundary) and ``keys`` (packed, sorted).  Two graphs live on
    the cubes: face adjacency (:meth:`adjacency_edges`, built from the
    face-neighbour table) and the 16-direction quasihyperbolic stencil
    (:meth:`stencil_graph`).  Instances are immutable: every array they
    hold, the cached tables included, is read-only, so each table is built
    once and stays valid.  Refinement returns a new object.
    """

    def __init__(self, domain: Domain, min_level_cutoff: int,
                 levels: np.ndarray, ix: np.ndarray, iy: np.ndarray,
                 dist: np.ndarray):
        # canonical (level, ix, iy) order; the packed key order matches it
        keys = _pack(levels, ix, iy)
        order = np.argsort(keys)
        self.domain = domain
        self._bbox = domain.bbox()  # closed; find_cubes locates no point outside it
        self.min_level_cutoff = int(min_level_cutoff)
        self.levels = np.asarray(levels, dtype=np.int64)[order]
        self.ix = np.asarray(ix, dtype=np.int64)[order]
        self.iy = np.asarray(iy, dtype=np.int64)[order]
        self.dist = np.asarray(dist, dtype=float)[order]
        self.side = 2.0 ** (-self.levels.astype(float))
        self.centers = np.column_stack([(self.ix + 0.5) * self.side,
                                        (self.iy + 0.5) * self.side])
        self.delta_center = domain.boundary_distance(self.centers) \
            if len(self.levels) else np.zeros(0)
        if np.any(self.delta_center <= 0.0):
            raise OracleError("inside cube center with zero boundary distance")
        self.keys = keys[order]
        _frozen(self.levels, self.ix, self.iy, self.dist, self.side, self.centers,
                self.delta_center, self.keys)
        self.uncovered_area = max(domain.area() - float(np.sum(self.side ** 2)), 0.0)

    # --- basic accessors ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.levels)

    def cube(self, i: int) -> DyadicCube:
        return DyadicCube(int(self.levels[i]), int(self.ix[i]), int(self.iy[i]))

    def corner_deltas(self) -> np.ndarray:
        """Boundary distances at the 4 corners of every cube, shape (n, 4)."""
        out = np.empty((len(self), 4))
        x0 = self.ix * self.side
        y0 = self.iy * self.side
        for k, (ox, oy) in enumerate(((0, 0), (1, 0), (1, 1), (0, 1))):
            pts = np.column_stack([x0 + ox * self.side, y0 + oy * self.side])
            out[:, k] = self.domain.boundary_distance(pts)
        return out

    # --- point location ----------------------------------------------------

    @cached_property
    def _level_list(self) -> tuple[np.ndarray, np.ndarray]:
        """The distinct levels and their sides."""
        # levels lead the canonical order: the distinct levels are the
        # values where a run starts
        lv = self.levels[np.flatnonzero(
            np.diff(self.levels, prepend=self.levels[0] - 1))]
        return _frozen(lv, 2.0 ** (-lv.astype(float)))

    @cached_property
    def _kdtree(self):
        """Index over the cube centers; it finds candidates and decides nothing.

        A sliding-midpoint build (Maneewongvatana and Mount, 1999) takes
        about half the time of a balanced one; :meth:`nearest_cubes` orders
        what either returns by itself.
        """
        from scipy.spatial import cKDTree

        return cKDTree(self.centers, balanced_tree=False, compact_nodes=False)

    def find_cubes(self, point) -> list[int]:
        """Indices of every accepted closed cube containing ``point``.

        A point on a shared cube boundary belongs to up to four cubes; the
        list is sorted canonically and empty when the point is uncovered.
        Location is exact, with no tolerance: at each level s the closed
        cells holding x are ``floor(x / s)`` and ``ceil(x / s) - 1``, as for y.
        A point outside the closed domain bbox, NaN or inf included, is
        uncovered: its cell indices would overflow the packed keys' fields.
        """
        x, y = float(point[0]), float(point[1])
        x0, y0, x1, y1 = self._bbox
        if not (len(self) and x0 <= x <= x1 and y0 <= y <= y1):
            return []
        lv, s = self._level_list
        # x / s is exact (s is a power of two); keys broadcast over x cells, y cells, levels
        u, v = x / s, y / s
        cx = np.array([np.ceil(u) - 1, np.floor(u)], dtype=np.int64)
        cy = np.array([np.ceil(v) - 1, np.floor(v)], dtype=np.int64)
        cand = _pack(lv, cx[:, None], cy[None, :]).ravel()
        pos = np.minimum(np.searchsorted(self.keys, cand), len(self) - 1)
        return sorted(set(pos[self.keys[pos] == cand].tolist()))

    def find_cube(self, point) -> int:
        """Index of the accepted cube containing ``point``.

        Ties on shared boundaries go to the cube with the nearest center.
        Raises :class:`UncoveredPointError` naming the nearest cube when the
        point is not covered, and no cube when it is not finite, when the
        decomposition is empty or when the point is too far to rank the
        cube centers (:meth:`nearest_cubes`).
        """
        x, y = float(point[0]), float(point[1])
        hits = self.find_cubes(point)
        if hits:
            return min(hits, key=lambda i: (
                (x - self.centers[i, 0]) ** 2 + (y - self.centers[i, 1]) ** 2, i))
        if not (math.isfinite(x) and math.isfinite(y)):
            raise UncoveredPointError(f"point ({x}, {y}) is not finite")
        try:
            cube = self.cube(self.nearest_cube(point))
        except ValueError:  # no cubes, or too far to rank their centers
            raise UncoveredPointError(f"point ({x}, {y}) not covered; no nearest cube") from None
        raise UncoveredPointError(
            f"point ({x}, {y}) not covered; nearest cube level={cube.level} "
            f"ix={cube.ix} iy={cube.iy}")

    def nearest_cube(self, point) -> int:
        return int(self.nearest_cubes([point])[0])

    def nearest_cubes(self, pts) -> np.ndarray:
        """Nearest accepted cube of each point (n, 2), shape (n,).

        Every cube is ranked by (center distance, cube id), the distance
        taken as dx * dx + dy * dy.  A point's candidates are the cubes
        ranked up to the 32nd, with every cube tied at the 32nd distance.
        Scanning them in rank order, a point takes the closest cube, and
        between distances within 1e-15 of each other the smaller cube.  The
        k-d tree only finds the candidates: a query of 33 settles each row
        whose 33rd center is clearly farther than its 32nd, and a ball query
        completes the others, scanned over floats.  Raises ValueError naming
        the first point that is not finite or whose squared center distances
        overflow, or any point when there are no cubes.
        """
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        if not len(pts):
            return np.zeros(0, dtype=np.intp)
        if not len(self):
            raise ValueError(f"no cube to rank for point ({pts[0, 0]}, {pts[0, 1]})")
        k = min(_CANDIDATES + 1, len(self))
        bad = ~np.all(np.isfinite(pts), axis=1)
        if not np.any(bad):
            dt, idx = self._kdtree.query(pts, k=k)
            dt, idx = dt.reshape(len(pts), k), idx.reshape(len(pts), k)
            # a missing neighbour reads inf; past about 1e154 the ball radius overflows
            bad = ~np.isfinite(dt[:, -1] ** 2 * _TIE_PAD)
        if np.any(bad):
            x, y = pts[np.argmax(bad)]
            raise ValueError(f"point ({x}, {y}) is not finite or too far from the "
                             "cube centers to rank them")
        idx, d2 = self._by_center_distance(idx, pts)
        best, best_d = idx[:, 0], np.full(len(pts), np.inf)
        for i in idx[:, :_CANDIDATES].T:
            d = self.cube_point_distances(i, pts)
            take = _takes(d, self.side[i], best_d, self.side[best])
            best, best_d = np.where(take, i, best), np.where(take, d, best_d)
        if k <= _CANDIDATES:
            return best
        # a cube the query left out is at least as far, in the tree's rounding,
        # as its 33rd: rows without a clear gap after the 32nd are completed
        cut = d2[:, _CANDIDATES - 1] * _TIE_PAD
        tied = np.flatnonzero(d2[:, -1] <= cut)
        balls = self._kdtree.query_ball_point(pts[tied], np.sqrt(cut[tied]))
        for r, ball in zip(tied.tolist(), balls):
            ids, d = self._by_center_distance(np.array([ball]), pts[r:r + 1])
            ids = ids[0, :np.searchsorted(d[0], d[0, _CANDIDATES - 1], "right")]
            box, side = self.cube_point_distances(ids, pts[r]).tolist(), self.side[ids].tolist()
            best[r] = ids[reduce(lambda b, j: j if _takes(box[j], side[j], box[b], side[b]) else b,
                                 range(len(ids)))]
        return best

    def _by_center_distance(self, idx, pts) -> tuple[np.ndarray, np.ndarray]:
        """Rows of ``idx`` (n, k) ordered by (center distance, id), and their squared distances."""
        d2 = (pts[:, :1] - self.centers[idx, 0]) ** 2 + (pts[:, 1:] - self.centers[idx, 1]) ** 2
        order = np.lexsort((idx, d2), axis=-1)
        return np.take_along_axis(idx, order, -1), np.take_along_axis(d2, order, -1)

    def cube_point_distances(self, ids, pts) -> np.ndarray:
        """Distance from each point (n, 2) to the closed cube ``ids[k]``, shape (n,)."""
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        half = self.side[ids] / 2.0
        dx = np.maximum(np.abs(pts[:, 0] - self.centers[ids, 0]) - half, 0.0)
        dy = np.maximum(np.abs(pts[:, 1] - self.centers[ids, 1]) - half, 0.0)
        return np.hypot(dx, dy)

    # --- adjacency ----------------------------------------------------------

    @cached_property
    def _face_table(self) -> np.ndarray:
        """(4, n) face neighbours at any level gap; see :func:`_face_neighbours`."""
        return _frozen(_face_neighbours(self.keys, self.levels, self.ix, self.iy))[0]

    @cached_property
    def _edges(self) -> tuple[np.ndarray, np.ndarray]:
        edges = _face_pairs(self._face_table, self.levels)
        a, b = edges[:, 0], edges[:, 1]
        return _frozen(edges, self._weights(a, b, self._lengths(a, b)))

    def adjacency_edges(self) -> tuple[np.ndarray, np.ndarray]:
        """Edges (m, 2) over cube ids and their quasihyperbolic weights.

        Cubes are adjacent exactly when they share a boundary segment of
        positive length; for dyadic cubes that is the same as the smaller
        cube's face being contained in a face of the larger one, and corner
        contacts are excluded.  The weight of an edge is the center distance
        over the harmonic mean boundary distance:
        ``|x1 - x2| * 2 / (delta1 + delta2)``.
        """
        return self._edges

    def _lengths(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return np.hypot(self.centers[a, 0] - self.centers[b, 0],
                        self.centers[a, 1] - self.centers[b, 1])

    def _weights(self, a: np.ndarray, b: np.ndarray, d: np.ndarray) -> np.ndarray:
        return d * 2.0 / (self.delta_center[a] + self.delta_center[b])

    def stencil_graph(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """CSR arrays ``(indptr, indices, weights)`` of the 16-direction graph.

        Built once: every call returns the same three read-only arrays.

        Cube i links to the accepted cube, of its own level or up to 2
        levels coarser, that contains ``center_i + side_i * (dx, dy)`` for
        each offset of :data:`STENCIL`; both directions of every edge are
        stored once.  Weights follow the formula of :meth:`adjacency_edges`.
        Face offsets come from the face-neighbour table; a longer offset
        steps from the same-level cube of a shorter one where there is such
        a cube, and probes the packed keys otherwise.

        On a refined decomposition (:func:`refine_for_qh`) every target is
        at most one level coarser; the 2-level probes serve unrefined ones.
        In the notation of that function's docstring, with s = side_i, the
        point lies within (sqrt(5) + sqrt(2) / 2) s < 2.95 s of every point
        of cube i, so the cube containing it, of side S and boundary
        distance d', has d' < d + 2.95 s < 2 sqrt(2) s (1 + q) / q + 2.95 s.
        Then sqrt(2) S <= q d' gives S < (2 + 4.1 q) s <= 3.4 s, and dyadic
        sides give S <= 2 s.

        Row i lists its same-level targets first, in slot order: for each
        positive offset of :data:`STENCIL` (dx > 0, or dx = 0 < dy) its
        target, then the target at the opposite offset, whose weight has
        the same bits, as addition commutes.  Its coarser targets follow,
        then the finer cubes that target it, each by ascending id.
        :func:`_append_rows` places all three kinds, the same-level ones in
        blocks of ``_BLOCK`` rows, which bound the temporaries; the layout
        does not depend on the block size.

        A weight stands for the integral of 1/delta along the straight
        segment between the centers, which must lie in the domain: an edge
        must be shorter than the boundary distance at the center of its
        coarser endpoint (of either endpoint, between cubes of one level).
        Refined cubes have delta(center) >= 3 sqrt(2) side + side / 2, and
        no edge is longer than sqrt(5) sides of its finer endpoint plus
        half a diagonal of its coarser one; :class:`GraphInvariantError` is
        raised when an edge breaks the bound.
        """
        return self._stencil

    @cached_property
    def _stencil(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        n = len(self)
        levels = self.levels

        def code(lv, t):
            # targets t (or -1) of cubes of levels lv, coarser ones as -2 - t
            return np.where(t < 0, -1, np.where(levels[t] == lv, t, -2 - t))

        # tgt[c][i]: the target of cube i at offset STENCIL[c] when it has
        # cube i's level, -2 - the target when it is coarser, -1 for none
        tgt = [code(levels, np.where(levels - levels[f] <= 2, f, -1)).astype(np.int32)
               for f in self._face_table]
        nsame = np.zeros(n, dtype=np.int8)             # at most 16 a row
        col = {off: c for c, off in enumerate(STENCIL)}
        up = []
        for c, (dx, dy) in enumerate(STENCIL):
            if c >= 4:
                # offset = p + q with both already tabulated: where the target
                # of p is a cube of the same level, the answer is that cube's
                # q entry
                routes = [(p, col[(dx - px, dy - py)])
                          for p, (px, py) in enumerate(STENCIL[:c])
                          if col.get((dx - px, dy - py), c) < c]
                (p, q), rest = routes[0], routes[1:]
                ok = tgt[p] >= 0
                tgt.append(np.where(ok, tgt[q][np.where(ok, tgt[p], 0)], -1))
                todo = np.flatnonzero(~ok)
                for p, q in rest:
                    ok = tgt[p][todo] >= 0
                    tgt[c][todo[ok]] = tgt[q][tgt[p][todo[ok]]]
                    todo = todo[~ok]
                # no route: the cell is mostly inside a cube one level up or
                # split finer; at most one depth matches, so order is free
                hit = _locate(self.keys, levels[todo], self.ix[todo] + dx,
                              self.iy[todo] + dy, (1, 0, 2))
                tgt[c][todo] = code(levels[todo], hit)
            t = tgt[c]
            nsame += t >= 0
            i = np.flatnonzero(t < -1)
            up.append(i * n - 2 - t[i])

        # a same-level target is mutual (offset and opposite offset) and
        # distinct within a row; a coarser target is found from the finer
        # cube only, possibly through several offsets, so those pairs are
        # made unique and stored both ways after the same-level entries
        up = _unique(np.concatenate(up))
        fine, coarse = (up // n).astype(np.int32), (up % n).astype(np.int32)
        del up
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(nsame + np.bincount(fine, minlength=n)
                  + np.bincount(coarse, minlength=n), out=indptr[1:])
        indices = np.empty(int(indptr[-1]), dtype=np.int32)
        weights = np.empty(int(indptr[-1]))
        fill = indptr[:-1].copy()
        # the same-level slots of a row: each positive offset, then its
        # opposite; centers of one level differ by exactly side * (dx, dy)
        slots = [c for dx, dy in STENCIL if dx > 0 or (dx == 0 and dy > 0)
                 for c in (col[(dx, dy)], col[(-dx, -dy)])]
        h = np.array([math.hypot(*STENCIL[c]) for c in slots])
        for lo in range(0, n, _BLOCK):
            hi = min(lo + _BLOCK, n)
            table = np.stack([tgt[c][lo:hi] for c in slots], axis=1)
            f = np.flatnonzero(table >= 0)
            row, j = f >> 4, table.take(f)                  # 16 slots a row
            i = row + lo
            d = self.side.take(i) * h.take(f & 15)
            # no edge of a row is longer than side * max(h), so only rows
            # where that reaches the row's own delta can break the bound
            if np.any(self.side[lo:hi] * h.max() >= self.delta_center[lo:hi]):
                _check_reach(d, np.maximum(self.delta_center.take(i),
                                           self.delta_center.take(j)))
            _append_rows(fill[lo:hi], indices, weights, row, j, self._weights(i, j, d))
        del tgt
        d = self._lengths(fine, coarse)
        _check_reach(d, self.delta_center[coarse])
        wt = self._weights(fine, coarse, d)
        del d
        _append_rows(fill, indices, weights, fine, coarse, wt)
        order = np.argsort(coarse, kind="stable")
        _append_rows(fill, indices, weights, coarse[order], fine[order], wt[order])
        return _frozen(indptr, indices, weights)

    def segment_cubes(self, a, b) -> tuple[np.ndarray, np.ndarray]:
        """Cubes whose interior meets the segment from center ``a[s]`` to ``b[s]``.

        Returns unique ``(segment index, cube id)`` pairs sorted by segment.
        The walk starts from the cells of the finer endpoint's level in the
        segment's bounding box.  A cell that meets the segment reports the
        accepted cube equal to it or containing it; a cell with no such
        cube is split into its four children, down to the finest level.
        Coordinates are integers in units of half a cell side, so the
        open-cell test is exact.
        """
        a = np.asarray(a, dtype=np.int64)
        b = np.asarray(b, dtype=np.int64)
        lv = np.maximum(self.levels[a], self.levels[b])

        def half_units(c):
            sh = lv - self.levels[c]
            return (2 * self.ix[c] + 1) << sh, (2 * self.iy[c] + 1) << sh

        px, py = half_units(a)
        qx, qy = half_units(b)
        # the level-lv cells u whose open x-range (2u, 2u + 2) meets the
        # segment's x-range, and likewise in y
        x0 = np.minimum(px, qx) // 2
        nx = (np.maximum(px, qx) + 1) // 2 - x0
        y0 = np.minimum(py, qy) // 2
        ny = (np.maximum(py, qy) + 1) // 2 - y0
        seg = np.repeat(np.arange(len(a)), nx * ny)
        t = np.arange(len(seg)) - np.repeat(np.cumsum(nx * ny) - nx * ny, nx * ny)
        cx = x0[seg] + t % nx[seg]
        cy = y0[seg] + t // nx[seg]
        lvl = lv[seg]

        lo, hi = int(self.levels.min()), int(self.levels.max())
        found_seg, found_cube = [], []
        while len(seg):
            sh = lvl - lv[seg]
            sx, sy = px[seg] << sh, py[seg] << sh
            ex, ey = (qx[seg] << sh) - sx, (qy[seg] << sh) - sy
            # open cell vs closed segment: strict overlap on both axes, and
            # the segment's line strictly separates two of the cell corners
            f = ex * (2 * cy - sy) - ey * (2 * cx - sx)
            fx, fy = -2 * ey, 2 * ex
            meets = ((np.minimum(sx, sx + ex) < 2 * cx + 2)
                     & (np.maximum(sx, sx + ex) > 2 * cx)
                     & (np.minimum(sy, sy + ey) < 2 * cy + 2)
                     & (np.maximum(sy, sy + ey) > 2 * cy)
                     & (f + np.minimum(fx, 0) + np.minimum(fy, 0) < 0)
                     & (f + np.maximum(fx, 0) + np.maximum(fy, 0) > 0))
            seg, lvl, cx, cy = seg[meets], lvl[meets], cx[meets], cy[meets]
            cube = _locate(self.keys, lvl, cx, cy, range(hi - lo + 1))
            found_seg.append(seg[cube >= 0])
            found_cube.append(cube[cube >= 0])
            todo = np.flatnonzero((cube < 0) & (lvl < hi))
            seg = np.repeat(seg[todo], 4)
            lvl = np.repeat(lvl[todo], 4) + 1
            cx = 2 * np.repeat(cx[todo], 4) + np.tile([0, 1, 0, 1], len(todo))
            cy = 2 * np.repeat(cy[todo], 4) + np.tile([0, 0, 1, 1], len(todo))
        key = _unique(np.concatenate(found_seg + [np.zeros(0, np.int64)]) * len(self)
                      + np.concatenate(found_cube + [np.zeros(0, np.int64)]))
        return key // len(self), key % len(self)

    def chain_cubes(self, chains) -> tuple[np.ndarray, np.ndarray]:
        """Unique ``(chain index, cube id)`` pairs of the cubes each chain meets.

        A chain meets its own cubes and every cube that a segment between
        the centers of two consecutive chain cubes crosses.  Pairs are
        sorted by cube, then by chain.
        """
        chains = [np.asarray(c, dtype=np.int64) for c in chains]
        if not chains:
            return np.zeros(0, np.int64), np.zeros(0, np.int64)
        owner = np.repeat(np.arange(len(chains)), [len(c) for c in chains])
        cubes = np.concatenate(chains)
        inner = np.flatnonzero(owner[1:] == owner[:-1])
        a, b = cubes[inner], cubes[inner + 1]
        # chains from one source share their segments: cross each once
        uniq, inv = np.unique(np.minimum(a, b) * len(self) + np.maximum(a, b),
                              return_inverse=True)
        seg, met = self.segment_cubes(uniq // len(self), uniq % len(self))
        start = np.searchsorted(seg, inv)
        count = np.searchsorted(seg, inv, side="right") - start
        pick = np.repeat(start - np.cumsum(count) + count, count) \
            + np.arange(int(count.sum()))
        key = _unique(np.concatenate([cubes, met[pick]]) * len(chains)
                      + np.concatenate([owner, np.repeat(owner[inner], count)]))
        return key % len(chains), key // len(chains)

    # --- serialization -------------------------------------------------------

    def cubes_csv(self, out: TextIO) -> None:
        """Stream the cube table to the text file ``out``, one row a cube."""
        hi = np.minimum(self.corner_deltas().min(axis=1), self.delta_center)
        cols = (self.levels, self.ix, self.iy, self.side, self.dist, hi)
        out.write("level,ix,iy,side,dist_lo,dist_hi\n")
        out.writelines(f"{j},{x},{y},{s!r},{lo!r},{h!r}\n"
                       for j, x, y, s, lo, h in zip(*(c.tolist() for c in cols)))

    def edges_csv(self, out: TextIO) -> None:
        """Stream the edges and their weights to the text file ``out``."""
        edges, w = self.adjacency_edges()
        out.write("id1,id2,weight\n")
        out.writelines(f"{a},{b},{wt!r}\n"
                       for (a, b), wt in zip(edges.tolist(), w.tolist()))


def whitney_decompose(domain: Domain, min_level_cutoff: int) -> WhitneyDecomposition:
    """Dyadic Whitney decomposition of ``domain`` down to the cutoff level.

    Cubes at levels beyond the cutoff are omitted; the area they would have
    covered is reported via ``uncovered_area``.
    """
    if min_level_cutoff > MAX_CUTOFF:
        raise ResourceLimitError(f"cutoff {min_level_cutoff} exceeds {MAX_CUTOFF}")
    x0, y0, x1, y1 = domain.bbox()
    extent = max(x1 - x0, y1 - y0)
    level, gx, gy = 0, np.zeros(0, np.int64), np.zeros(0, np.int64)
    if extent > 0:
        level = math.floor(-math.log2(extent))
        side0 = 2.0 ** (-level)
        gx = np.arange(math.floor(x0 / side0), math.floor(x1 / side0) + 1, dtype=np.int64)
        gy = np.arange(math.floor(y0 / side0), math.floor(y1 / side0) + 1, dtype=np.int64)
    ix, iy = (g.ravel() for g in np.meshgrid(gx, gy, indexing="ij"))
    # cells known to lie inside: the children of a split cell at positive
    # distance, whose box misses the boundary around an inside center
    known = np.zeros(len(ix), dtype=bool)

    accepted = []  # (levels, ix, iy, dist) of each level's accepted cubes
    while len(ix) and level <= min_level_cutoff:
        s = 2.0 ** (-level)
        cx = (ix + 0.5) * s
        cy = (iy + 0.5) * s
        dist = domain.cube_boundary_distance_capped(
            cx, cy, np.full(len(ix), s / 2.0), 8.0 * s)
        inside = known.copy()
        ask = np.flatnonzero(~known)
        inside[ask] = domain.contains(np.column_stack([cx[ask], cy[ask]]))
        accept = inside & (dist >= s * SQRT2)
        discard = (~inside) & (dist > 0.0)
        if np.any(accept):
            accepted.append((np.full(int(accept.sum()), level, dtype=np.int64),
                             ix[accept], iy[accept], dist[accept]))
        split = ~(accept | discard)
        known = np.repeat(dist[split] > 0.0, 4)
        ix, iy = _split_cells(ix[split], iy[split])
        level += 1

    if not accepted:
        warnings.warn("no cube accepted; the domain is empty or thinner than "
                      "this cutoff resolves", stacklevel=2)
        z = np.zeros(0, dtype=np.int64)
        accepted = [(z, z, z, np.zeros(0))]
    return WhitneyDecomposition(domain, min_level_cutoff,
                                *(np.concatenate(a) for a in zip(*accepted)))


def _split_cells(ix: np.ndarray, iy: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    return ((2 * ix[:, None] + [0, 1, 0, 1]).ravel(),
            (2 * iy[:, None] + [0, 0, 1, 1]).ravel())


#: face directions, in the order of the rows of the face-neighbour table
FACE_DIRS = ((1, 0), (0, 1), (-1, 0), (0, -1))

#: offsets of the quasihyperbolic graph stencil in units of the cube side:
#: the faces, the diagonals and the knight moves
STENCIL = FACE_DIRS + ((1, 1), (-1, 1), (-1, -1), (1, -1),
                       (2, 1), (1, 2), (-1, 2), (-2, 1),
                       (-2, -1), (-1, -2), (1, -2), (2, -1))


def _face_neighbours(keys: np.ndarray, levels: np.ndarray, ix: np.ndarray,
                     iy: np.ndarray) -> np.ndarray:
    """Same-or-coarser face neighbour of every cube in each face direction.

    Row d of the (4, n) result holds, for each cube, the accepted cube that
    contains the same-level cell across its face in direction
    ``FACE_DIRS[d]``, at any level gap, and -1 otherwise (the cell is
    split into finer cubes, or uncovered).  ``keys`` must be the sorted
    packed keys of (levels, ix, iy).  A same-level match in a positive
    direction gives the opposite direction's match of the other cube, so
    negative directions start one level up.  The same-level cell above a
    cube has the next key, so the next cube is that neighbour exactly when
    it holds that key.
    """
    n = len(keys)
    spread = int(levels.max() - levels.min()) if n else 0
    out = np.full((4, n), -1, dtype=np.int32)
    ids = np.arange(n, dtype=np.int64)
    below = np.flatnonzero(keys[1:] == keys[:-1] + 1)
    out[1, below] = below + 1
    for d, (dx, dy) in enumerate(FACE_DIRS):
        todo = ids[out[d] < 0]
        out[d, todo] = _locate(keys, levels[todo], ix[todo] + dx, iy[todo] + dy,
                               range(0 if d == 0 else 1, spread + 1))
        if d < 2:
            j = out[d]
            same = (j >= 0) & (levels[j] == levels)
            out[d + 2, j[same]] = ids[same]
    return out


def _locate(keys: np.ndarray, levels: np.ndarray, cx: np.ndarray,
            cy: np.ndarray, depths) -> np.ndarray:
    """Accepted cube equal to or containing each cell (levels, cx, cy), or -1.

    ``keys`` are the sorted packed keys of the accepted cubes; the cell's
    ancestors are tried at the given depths in order, each only for the
    cells still unmatched (at most one of a cell and its ancestors is
    accepted, since accepted cubes are interior-disjoint).
    """
    out = np.full(len(cx), -1, dtype=np.int64)
    todo = np.arange(len(cx))
    for k in depths:
        if not len(todo) or not len(keys):
            break
        cand = _pack(levels[todo] - k, cx[todo] >> k, cy[todo] >> k)
        pos = np.minimum(np.searchsorted(keys, cand), len(keys) - 1)
        hit = keys[pos] == cand
        out[todo[hit]] = pos[hit]
        todo = todo[~hit]
    return out


def _face_pairs(faces: np.ndarray, levels: np.ndarray) -> np.ndarray:
    """All touching cube pairs of a face-neighbour table, each exactly once.

    A same-level contact is taken from its positive direction only; a
    coarser neighbour is only ever found from the finer cube.  Pairs are
    ordered by direction, then by level difference, then by cube id.
    Corner-only contacts never appear, because only face cells are probed.
    """
    pairs = []
    for d in range(4):
        j = faces[d]
        i = np.flatnonzero(j >= 0)
        k = levels[i] - levels[j[i]]
        if d >= 2:
            i, k = i[k > 0], k[k > 0]
        i = i[np.argsort(k, kind="stable")]
        pairs.append(np.column_stack([i, j[i]]))
    return np.vstack(pairs)


def _frozen(*arrays: np.ndarray) -> tuple[np.ndarray, ...]:
    """``arrays``, marked read-only: the cached tables derived from them stay valid."""
    for a in arrays:
        a.setflags(write=False)
    return arrays


def _unique(x: np.ndarray) -> np.ndarray:
    """Sorted distinct values of an integer array (a sort is faster here
    than the hash table behind ``np.unique``)."""
    x = np.sort(x)
    return x[np.concatenate([[True], x[1:] != x[:-1]])] if len(x) else x


#: rows per block in the blocked loops of :meth:`WhitneyDecomposition.stencil_graph`
_BLOCK = 1 << 12


def _append_rows(fill: np.ndarray, indices: np.ndarray, weights: np.ndarray,
                 rows: np.ndarray, cols: np.ndarray, wts: np.ndarray) -> None:
    """Store CSR entries with sorted ``rows`` at the rows' fill pointers."""
    count = np.bincount(rows, minlength=len(fill))
    # entry k goes to its row's fill pointer plus k less the row's first entry
    shift = fill - np.cumsum(count) + count
    for lo in range(0, len(rows), _BLOCK):
        r = rows[lo:lo + _BLOCK]
        pos = shift.take(r) + np.arange(lo, lo + len(r))
        indices[pos] = cols[lo:lo + _BLOCK]
        weights[pos] = wts[lo:lo + _BLOCK]
    fill += count


def _check_reach(length: np.ndarray, reach: np.ndarray) -> None:
    bad = length >= reach
    if np.any(bad):
        k = int(np.argmax(bad))
        raise GraphInvariantError(
            f"graph edge of length {float(length[k])!r} is not shorter than the "
            f"boundary distance {float(reach[k])!r} at its coarser endpoint; "
            "refine the decomposition (refine_for_qh) first")


#: refinement target: conservative in-cube quasihyperbolic diameter bound
QH_DIAMETER_BOUND = 1.0 / 3.0


def refine_for_qh(w: WhitneyDecomposition,
                  qh_bound: float = QH_DIAMETER_BOUND) -> WhitneyDecomposition:
    """Split cubes until diag(Q) / dist(Q, boundary) <= ``qh_bound`` everywhere.

    The diagonal over the minimum boundary distance bounds the internal
    quasihyperbolic diameter of the cube from above, so the refined cubes
    satisfy the in-cube distance budget used by the graph metric.  The
    default budget is 1/3; accuracy-critical callers may pass a smaller
    value, which only strengthens the guarantee.

    Touching refined cubes are at most one level apart (the Whitney lemma
    of Stein, *Singular Integrals*, ch. VI, sec. 1, refined).  Let s be a
    cube's side, d its exact boundary distance and q = ``qh_bound`` <= 1/3.
    Every refined cube has sqrt(2) s <= q d: a capped oracle value hides only
    distances above the cap, which never split, and the sweep's cap 8 s is
    never reached, as an accepted Whitney cube has d < 4 sqrt(2) s.  A cube
    split off here has a parent with 2 sqrt(2) s > q d(parent) and
    d <= d(parent) + 2 sqrt(2) s, so d < 2 sqrt(2) s (1 + q) / q, a bound
    an unsplit sweep cube meets too.  Touching cubes have
    d <= d' + sqrt(2) s', so s <= q d / sqrt(2) < (2 + 3q) s' <= 3 s', and
    dyadic sides give s <= 2 s'.  Only an oracle whose distances are wrong
    below the cap breaks this: a face neighbour 3 or more levels coarser,
    past the bound :meth:`WhitneyDecomposition.stencil_graph` relies on,
    raises :class:`OracleError`; the check reads the face table row by row.
    Each round tests only the cubes the last one split off, and the cubes
    that meet the bound are concatenated once.
    """
    if not 0.0 < qh_bound <= QH_DIAMETER_BOUND:
        raise ValueError("qh_bound must be in (0, 1/3]")
    levels, ix, iy, dist = w.levels, w.ix, w.iy, w.dist
    # distances only steer threshold comparisons against small multiples of
    # the side, so the oracle may clamp beyond this cap without changing any
    # decision (polygon domains exploit it; exact oracles ignore it)
    cap = SQRT2 / qh_bound + 2.0
    done = []  # (levels, ix, iy, dist) of the cubes that meet the bound
    while True:
        need = 2.0 ** (-levels.astype(float)) * SQRT2 / dist > qh_bound
        done.append(tuple(a[~need] for a in (levels, ix, iy, dist)))
        if not np.any(need):
            break
        ix, iy = _split_cells(ix[need], iy[need])
        levels = np.repeat(levels[need], 4) + 1
        s = 2.0 ** (-levels.astype(float))
        dist = w.domain.cube_boundary_distance_capped(
            (ix + 0.5) * s, (iy + 0.5) * s, s / 2.0, cap * s)
    levels, ix, iy, dist = (np.concatenate(a) for a in zip(*done))
    del done
    out = WhitneyDecomposition(w.domain, w.min_level_cutoff, levels, ix, iy, dist)
    lv = out.levels
    for f in out._face_table:
        bad = np.flatnonzero((f >= 0) & (lv - lv[f] >= 3))
        if len(bad):
            i = bad[0]
            raise OracleError(
                f"refined {out.cube(i)} has a face neighbour {lv[i] - lv[f[i]]} "
                "levels coarser; the oracle's boundary distances are inconsistent")
    return out
