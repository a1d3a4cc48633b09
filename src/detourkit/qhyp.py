"""Quasihyperbolic distances and geodesics on a stencil graph over Whitney cubes.

The continuum metric (the infimum of arc length weighted by reciprocal
boundary distance) is replaced by shortest paths on a graph over the cubes
of a refined decomposition.  Each cube links to the cube containing the
point one, sqrt(2) or sqrt(5) sides away in 16 directions (the faces, the
diagonals and the knight moves), of its own level or one level coarser
(:meth:`WhitneyDecomposition.stencil_graph`).  An edge costs the center
distance over the mean of the two center boundary distances, and a query
point pays an entry leg to its cube center.  A distance query grows two
small balls until they meet, then finishes the forward sum between them.
A solver caches two kinds of Dijkstra run under one byte budget: dense
unbounded trees for geodesics, chains and fits, and distance-only balls,
the sorted ids and values of the cubes they settled, for distance queries.

The graph length of a path depends on its direction.  A 4-neighbour face
graph pays up to sqrt(2) times the continuum length toward diagonal
directions: about 1.36 log(1/(1-r)) at r = 0.99 on the disk diagonal, which
grew the growth fit's intercept with the cutoff.  With 16 directions,
neighbouring offsets are at most 26.6 degrees apart, so a straight run
between two of them costs at most 1/cos(13.3 deg), 2.8% over its length;
the disk diagonal reads within 1% of the continuum at r = 0.99.  The error
still depends on direction, and the per-cube refinement bound (1/3) does
not control it on its own.

A stencil edge skips the cubes between its endpoints, so the cubes a chain
*meets* (:meth:`WhitneyDecomposition.chain_cubes`: its own cubes and every
cube a segment between consecutive centers crosses) are what the growth
fit samples, what shadows record and what cube sums add up.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components
from scipy.sparse.csgraph import dijkstra as _sp_dijkstra

from .errors import ResolutionError
from .whitney import WhitneyDecomposition

__all__ = [
    "HolderFit", "FitReport", "ShadowTable", "GeodesicSolver", "solver_for",
    "qh_distance", "qh_geodesic", "geodesic_cube_sum",
]

#: byte budget of one solver's cached Dijkstra runs; a run that would push
#: the cache past it clears the cache first
DIJKSTRA_CACHE_BYTES = 1 << 29

#: relative pad on a meeting bound d_a + d_b: the forward float sum of the
#: same path differs from it by the rounding of fewer than 10^7 additions
PATH_PAD = 1e-8

#: cubes a distance query's finishing heap search expands before it runs the
#: source forward to its bound instead
FINISH_EXPANSIONS = 48

#: what became of a boundary sample: it got a chain, it has no accepted cube
#: nearby, or the graph does not reach its terminal cube
SERVED, NO_TERMINAL, UNREACHABLE = 0, 1, 2


@dataclass(frozen=True)
class HolderFit:
    """Logarithmic growth certificate: k(x, x0) <= log(d0/d(x))/alpha + c.

    ``samples`` counts the marked cubes the fit ran over, not boundary samples.
    """

    basepoint: tuple[float, float]
    alpha: float
    c: float
    samples: int
    max_residual: float


@dataclass(frozen=True)
class FitReport:
    status: str  # "ok" or "not-holder"
    fit: HolderFit | None
    alpha_floor: float
    c_max: float
    worst_excess: float  # residual above c_max at the alpha floor; <= 0 when fittable
    n_served: int        # boundary samples that got a chain
    n_no_terminal: int = 0   # samples with no accepted cube nearby
    n_unreachable: int = 0   # samples whose terminal cube the graph does not reach


@dataclass
class ShadowTable:
    """Boundary footprint of each cube under sampled geodesics.

    ``entries`` maps cube id to the indices of the boundary samples whose
    geodesic chain passes through the cube; ``s`` of a cube is the diameter
    of those samples (0 when no or one geodesic meets it).  Of the
    ``len(boundary)`` sampled points, ``n_served`` got a chain; the others
    appear in no entry, ``n_no_terminal`` of them for want of an accepted
    cube nearby and ``n_unreachable`` because the graph does not reach their
    terminal cube.  ``n_samples`` is the requested count.
    """

    basepoint: tuple[float, float]
    n_samples: int
    boundary: np.ndarray
    entries: dict[int, np.ndarray]
    n_served: int
    n_no_terminal: int = 0
    n_unreachable: int = 0

    def s(self, cube_id: int) -> float:
        idx = self.entries.get(cube_id)
        if idx is None or len(idx) < 2:
            return 0.0
        pts = self.boundary[idx]
        d2 = (pts[:, None, 0] - pts[None, :, 0]) ** 2 \
            + (pts[:, None, 1] - pts[None, :, 1]) ** 2
        return math.sqrt(float(d2.max()))

    def s_values(self) -> dict[int, float]:
        return {k: self.s(k) for k in self.entries}


@dataclass(frozen=True)
class Geodesic:
    """Minimizing chain between two cubes with its polyline realization."""

    cubes: np.ndarray       # cube ids along the chain, source first
    polyline: np.ndarray    # (m, 2) points: endpoint, centers, endpoint
    prefix: np.ndarray      # cumulative graph value at each chain cube
    value: float            # total value including the endpoint legs


class GeodesicSolver:
    """Shortest-path engine over one refined Whitney decomposition."""

    def __init__(self, w: WhitneyDecomposition):
        if not len(w):
            raise ResolutionError(f"no accepted cube at cutoff {w.min_level_cutoff}; "
                                  "increase the cutoff")
        self.w = w
        n = len(w)
        indptr, indices, weights = w.stencil_graph()
        self.graph = csr_matrix((weights, indices, indptr), shape=(n, n))
        self._trees: dict[int, tuple] = {}  # run_dijkstra's trees by source cube
        self._cache: dict[int, tuple] = {}  # distance-only balls by source cube
        self._max_weight = float(weights.max(initial=0.0))
        self._labels = None  # graph component of each cube, once a query needs them

    # --- infrastructure -----------------------------------------------------

    def run_dijkstra(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Unbounded single-source distances and predecessors, cached per source.

        Both come back as dense arrays; cubes the graph does not reach from
        ``src`` are at inf.  The cache holds them as the tree ``(inf, dist,
        pred)``, which serves no ball request (:meth:`_balls`).
        """
        if src not in self._trees:
            tree = _sp_dijkstra(self.graph, indices=src, return_predecessors=True)
            self._store(self._trees, src, (math.inf, *tree))
        return self._trees[src][1:]

    def _balls(self, srcs: list[int], limit: float) -> list[tuple]:
        """Cached balls ``(radius, ids, values)`` of distance-only runs from ``srcs``.

        A ball holds the sorted int32 ids of the cubes its run settled and
        their float64 values, 12 B a cube.  Its radius is at least ``limit``,
        and inf once the run's limit passes its largest value plus the
        largest edge weight, since it then holds its whole graph component.
        Sources whose ball falls short share one scipy call, which scans the
        graph's weights once for all, and such a ball at least doubles.
        """
        got = {s: ball for s in srcs
               if (ball := self._cache.get(s)) is not None and ball[0] >= limit}
        miss = [s for s in srcs if s not in got]
        if miss:
            limit = max([limit] + [2.0 * self._cache[s][0] for s in miss if s in self._cache])
            for s, dist in zip(miss, _sp_dijkstra(self.graph, indices=miss, limit=limit)):
                ids = np.flatnonzero(dist < math.inf)
                vals = dist[ids]
                whole = limit >= vals.max(initial=0.0) + self._max_weight
                got[s] = (math.inf if whole else limit, ids.astype(np.int32), vals)
                self._store(self._cache, s, got[s])
        return [got[s] for s in srcs]

    def _store(self, runs: dict, src: int, entry: tuple) -> None:
        """Cache ``entry``, a tree or a ball of ``src``, in ``runs``.

        An entry that would push the trees and balls together past
        ``DIJKSTRA_CACHE_BYTES`` clears both first.
        """
        runs.pop(src, None)
        held = [e for d in (self._trees, self._cache) for e in d.values()] + [entry]
        if sum(x.nbytes + y.nbytes for _, x, y in held) > DIJKSTRA_CACHE_BYTES:
            self._trees.clear()
            self._cache.clear()
        runs[src] = entry

    def leg(self, point, cube: int) -> float:
        c = self.w.centers[cube]
        return math.hypot(point[0] - c[0], point[1] - c[1]) / self.w.delta_center[cube]

    def chain(self, src: int, dst: int) -> np.ndarray:
        _, pred = self.run_dijkstra(src)
        cubes, reached = _tree_paths(pred, src, np.array([dst]))
        if not reached[0]:
            raise _unreachable(src, dst)
        return cubes[0]

    def default_basepoint(self) -> np.ndarray:
        """Center of the cube with maximal boundary distance."""
        i = int(np.argmax(self.w.delta_center))
        return self.w.centers[i].copy()

    # --- distances and geodesics ---------------------------------------------

    def _endpoint_cubes(self, p) -> list[int]:
        cubes = self.w.find_cubes(p)
        if not cubes:
            self.w.find_cube(p)  # raises UncoveredPointError with diagnostics
        return cubes

    def _cheapest(self, pa, pb, cas: list[int], cbs: list[int],
                  graph_value) -> tuple[int, int, float]:
        """Cheapest pair over the cubes ``cas`` of ``pa`` and ``cbs`` of ``pb``.

        A point on a shared cube boundary belongs to every adjacent closed
        cube; the distance minimizes over the admissible assignments.  A
        pair of one cube costs the straight leg; any other pair adds the
        legs to ``graph_value(ca, cb)``, the graph distance from ``ca``.
        """
        best = None
        for ca in cas:
            la = self.leg(pa, ca)
            for cb in cbs:
                if ca == cb:
                    v = math.hypot(pa[0] - pb[0], pa[1] - pb[1]) \
                        / self.w.delta_center[ca]
                else:
                    v = la + graph_value(ca, cb) + self.leg(pb, cb)
                if best is None or v < best[2]:
                    best = (ca, cb, v)
        return best

    def _graph_distance(self, ca: int, cb: int, r: float) -> float:
        """Value at ``cb`` of the unbounded forward run from ``ca``, bit for bit.

        A value in the ball A of ``ca`` is exact.  Else A and the ball B of
        ``cb`` grow from radius ``r`` until they meet; the least d_a + d_b,
        padded by ``PATH_PAD``, bounds the value: U.  Once the radii sum to U
        plus the largest weight, the float-minimal path leaves A for the last
        time into B, and a heap search from the cubes of A with d_a + d_b <= U
        over B minus A, pruned by d_b, adds its weights as scipy does.  Balls
        past 1/16 of the cubes or a search past ``FINISH_EXPANSIONS`` run the
        source to U (unmet balls: to inf, if the component labels agree).
        """
        if self._labels is not None and self._labels[ca] != self._labels[cb]:
            return math.inf
        hit = self._cache.get(ca)
        if hit is not None and (hit[0] == math.inf or _values_at(hit, cb) < math.inf):
            return float(_values_at(hit, cb))
        while True:
            a, b = self._balls([ca, cb], r)
            d = float(_values_at(a, cb))
            if d < math.inf or a[0] == math.inf:
                return d
            (ra, ids, va), rb = a, b[0]
            vb = _values_at(b, ids)  # inf where the balls do not meet
            bound = float(np.min(va + vb, initial=math.inf)) * (1.0 + PATH_PAD)
            big = 16 * max(len(ids), len(b[1])) >= len(self.w)
            total = bound + self._max_weight
            if big or ra + rb >= total:
                break
            # unmet: the smaller ball doubles, catches up to half the larger, or reaches W
            r = total / 2 if bound < math.inf else \
                max(2 * min(ra, rb), max(ra, rb) / 2, self._max_weight)
        if bound == math.inf:
            if self._labels is None:
                self._labels = connected_components(self.graph, connection="strong")[1]
            if self._labels[ca] != self._labels[cb]:
                return math.inf
        elif ra + rb >= total:
            g, keep, heap, done = self.graph, va + vb <= bound, [], set()
            lo, hi = g.indptr[ids[keep]], g.indptr[ids[keep] + 1]  # the seeds' rows
            at = np.concatenate([np.arange(l, h) for l, h in zip(lo.tolist(), hi.tolist())])
            nb, phi = g.indices[at], np.repeat(va[keep], hi - lo) + g.data[at]
            for _ in range(FINISH_EXPANSIONS):
                ok = (_values_at(a, nb) == math.inf) & (phi + _values_at(b, nb) <= bound)
                heap.extend(zip(phi[ok].tolist(), nb[ok].tolist()))
                heapq.heapify(heap)
                while heap and heap[0][1] in done:
                    heapq.heappop(heap)
                if not heap:
                    break
                phi, u = heapq.heappop(heap)
                if u == cb:
                    return phi
                done.add(u)
                lo, hi = g.indptr[u], g.indptr[u + 1]
                nb, phi = g.indices[lo:hi], phi + g.data[lo:hi]
        return float(_values_at(self._balls([ca], bound)[0], cb))

    def distance(self, a, b, limit: float = math.inf) -> float:
        """Graph quasihyperbolic distance between points of the domain.

        Symmetric by construction: the arguments are put in canonical order
        first, so distance(a, b) and distance(b, a) run identically.  Each
        pair of endpoint cubes (up to four each, on shared corners) costs its
        legs plus the unbounded forward run's value from the first point's
        cube, bit for bit (:meth:`_graph_distance`), from balls of first
        radius ``limit`` or (j + 1) / 2, j = log(1 + |a - b| / min delta).
        """
        pa = (float(a[0]), float(a[1]))
        pb = (float(b[0]), float(b[1]))
        if pb < pa:
            pa, pb = pb, pa
        cas = self._endpoint_cubes(pa)
        cbs = self._endpoint_cubes(pb)
        near = float(self.w.delta_center[cas + cbs].min())
        j = math.log1p(math.hypot(pb[0] - pa[0], pb[1] - pa[1]) / near)
        r = limit if math.isfinite(limit) else (j + 1.0) / 2.0
        return self._cheapest(pa, pb, cas, cbs,
                              lambda ca, cb: self._graph_distance(ca, cb, r))[2]

    def geodesic(self, a, b) -> Geodesic:
        pa = (float(a[0]), float(a[1]))
        pb = (float(b[0]), float(b[1]))
        cas = self._endpoint_cubes(pa)
        dists = {ca: self.run_dijkstra(ca)[0] for ca in cas}
        ca, cb, value = self._cheapest(pa, pb, cas, self._endpoint_cubes(pb),
                                       lambda ca, cb: float(dists[ca][cb]))
        if ca == cb:
            return Geodesic(np.array([ca]), np.array([pa, pb]), np.zeros(1), value)
        chain = self.chain(ca, cb)
        poly = np.vstack([[pa], self.w.centers[chain], [pb]])
        return Geodesic(chain, poly, dists[ca][chain], value)

    def to_boundary(self, x0, b) -> Geodesic:
        """Chain from the cube of ``x0`` to the deepest accepted cube at ``b``.

        ``b`` must lie within two of the smallest cube sides of the domain
        boundary; a missing terminal cube raises :class:`ResolutionError`
        suggesting a deeper cutoff.
        """
        src, term, reason, chains = self._boundary_chains(x0, [b])
        if reason[0] == NO_TERMINAL:
            raise ResolutionError(
                "no accepted cube near the boundary point; increase the cutoff")
        if reason[0] == UNREACHABLE:
            raise _unreachable(src, int(term[0]))
        chain = chains[0]
        poly = np.vstack([[np.asarray(x0, dtype=float)], self.w.centers[chain]])
        if len(chain) == 1:
            return Geodesic(chain, poly, np.zeros(1), 0.0)
        dist, _ = self.run_dijkstra(src)
        return Geodesic(chain, poly, dist[chain],
                        self.leg(x0, src) + float(dist[term[0]]))

    def _boundary_chains(self, x0, pts):
        """Chains from the cube of ``x0`` toward all boundary points at once.

        Every point must lie within two of the smallest cube sides of the
        domain boundary, or ValueError is raised.  A point's terminal is its
        nearest accepted cube, which must lie within a few selection-scale
        sides; its chain is the path from the source cube in the
        shortest-path tree, and the tree is walked back from all terminals
        in lock-step.  Returns the source cube (None when no point has a
        terminal), each point's terminal (-1 when it has none), each point's
        reason code (``SERVED``, ``NO_TERMINAL`` or ``UNREACHABLE``) and the
        chains of the served points in point order, source first.
        """
        w = self.w
        pts = np.asarray(pts, dtype=float).reshape(-1, 2)
        term = np.full(len(pts), -1, dtype=np.int64)
        reason = np.full(len(pts), NO_TERMINAL, dtype=np.int8)
        if not len(pts):
            return None, term, reason, []
        far = w.domain.boundary_distance(pts) > 2.0 * float(w.side.min())
        # the points are answered in order: a far one raises, but only after
        # the source cube was located for an earlier point with a terminal
        head = int(np.argmax(far)) if np.any(far) else len(pts)
        # the uncovered boundary band is a few selection-scale cubes wide
        reach = 8.0 * 2.0 ** (-w.min_level_cutoff)
        near = w.nearest_cubes(pts[:head])
        has = np.flatnonzero(w.cube_point_distances(near, pts[:head]) <= reach)
        src = w.find_cube(x0) if len(has) else None
        if head < len(pts):
            raise ValueError("target point is not near the domain boundary")
        if src is None:
            return None, term, reason, []
        term[has] = near[has]
        pred = self.run_dijkstra(src)[1] if np.any(term[has] != src) else None
        chains, reached = _tree_paths(pred, src, term[has])
        reason[has] = np.where(reached, SERVED, UNREACHABLE)
        return src, term, reason, [c for c, ok in zip(chains, reached) if ok]

    # --- growth fit ------------------------------------------------------------

    def holder_fit(self, x0, n_samples: int, alpha_floor: float = 1e-3,
                   c_max: float = 1e3) -> FitReport:
        """Dominating pair (alpha, c): maximize alpha, then minimize c.

        Samples the graph distance at the centers of the cubes that
        ``n_samples`` boundary-directed geodesic chains meet and fits
        k <= log(d0/d)/alpha + c over all samples, via a coarse alpha grid
        followed by bisection; c(alpha) is the smallest dominating intercept.
        """
        if n_samples < 16:
            raise ValueError("need at least 16 boundary samples")
        w = self.w
        src = w.find_cube(x0)
        leg0 = self.leg(x0, src)
        dist, _ = self.run_dijkstra(src)
        marked = np.zeros(len(w), dtype=bool)
        _, _, reason, chains = self._boundary_chains(
            x0, w.domain.boundary_points(n_samples))
        counts = _reason_counts(reason)
        marked[w.chain_cubes(chains)[1]] = True
        idx = np.flatnonzero(marked & np.isfinite(dist))
        khat = leg0 + dist[idx]
        delta0 = float(w.domain.boundary_distance(x0)[0])
        logs = np.log(delta0 / w.delta_center[idx])

        def c_of(alpha: float) -> float:
            return float(np.max(khat - logs / alpha))

        if c_of(alpha_floor) > c_max:
            return FitReport("not-holder", None, alpha_floor, c_max,
                             c_of(alpha_floor) - c_max, *counts)
        lo = alpha_floor
        hi = None
        for alpha in np.geomspace(alpha_floor, 1.0, 64):
            if c_of(float(alpha)) <= c_max:
                lo = float(alpha)
            else:
                hi = float(alpha)
                break
        if hi is None:
            alpha = 1.0
        else:
            for _ in range(60):
                mid = math.sqrt(lo * hi)
                if c_of(mid) <= c_max:
                    lo = mid
                else:
                    hi = mid
            alpha = lo
        c = max(c_of(alpha), 0.0)
        resid = float(np.max(khat - logs / alpha - c))
        fit = HolderFit((float(x0[0]), float(x0[1])), float(alpha), c,
                        int(len(idx)), resid)
        return FitReport("ok", fit, alpha_floor, c_max, resid, *counts)

    # --- shadows -----------------------------------------------------------------

    def shadows(self, x0, n_samples: int) -> ShadowTable:
        """Mark each cube with the boundary samples whose geodesic chains meet it."""
        if n_samples < 64:
            raise ValueError("need at least 64 boundary samples")
        w = self.w
        pts = w.domain.boundary_points(n_samples)
        _, _, reason, chains = self._boundary_chains(x0, pts)
        owner, cubes = w.chain_cubes(chains)
        # pairs come sorted by cube, then by chain: one run per cube
        starts = np.flatnonzero(np.diff(cubes, prepend=-1))
        samples = np.split(np.flatnonzero(reason == SERVED)[owner], starts[1:])
        entries = {int(c): idx for c, idx in zip(cubes[starts], samples)}
        return ShadowTable((float(x0[0]), float(x0[1])), n_samples, pts, entries,
                           *_reason_counts(reason))

    def shadow_sum_check(self, table: ShadowTable) -> tuple[float, float, float]:
        """(sum of s(Q)^2, quadrature of k(x, x0)^2 over the domain, ratio)."""
        w = self.w
        lhs = math.fsum(s * s for s in table.s_values().values())
        src = w.find_cube(table.basepoint)
        dist, _ = self.run_dijkstra(src)
        khat = self.leg(table.basepoint, src) + dist
        ok = np.isfinite(khat)
        rhs = float(np.sum((khat[ok] ** 2) * (w.side[ok] ** 2)))
        ratio = lhs / rhs if rhs > 0 else math.inf
        return lhs, rhs, ratio


def _tree_paths(pred, src: int, ends: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Paths from ``src`` to each of ``ends`` in a shortest-path tree.

    ``pred`` maps each cube to its predecessor toward ``src``, negative at
    ``src`` and at unreached cubes (it may be None when every end is
    ``src``).  The paths are walked back from all ends in lock-step, one
    array step per cube of the longest path.  ``ends`` must not be empty.
    Returns the paths, source first, and whether each end was reached; an
    unreached end's path stops where the tree ends.
    """
    ends = np.asarray(ends, dtype=np.int64)
    # walk[k]: the cube k steps back from each end (held at the path's last cube)
    walk = np.empty((16, len(ends)), dtype=np.int64)
    walk[0] = ends
    length = np.ones(len(ends), dtype=np.int64)
    live = ends != src
    k = 1
    while np.any(live):
        nxt = pred[walk[k - 1]]
        live &= nxt >= 0
        if k == len(walk):
            walk = np.concatenate([walk, np.empty_like(walk)])
        walk[k] = np.where(live, nxt, walk[k - 1])
        length += live
        live &= walk[k] != src
        k += 1
    # path j is walk[length[j] - 1], ..., walk[0] of column j
    stop = np.cumsum(length)
    rows = np.repeat(stop - 1, length) - np.arange(stop[-1])
    flat = walk[rows, np.repeat(np.arange(len(ends)), length)]
    # a path that stops short of src stops at a cube with no predecessor
    return np.split(flat, stop[:-1]), walk[k - 1] == src


def _unreachable(src: int, dst: int) -> ResolutionError:
    return ResolutionError(f"cube {dst} unreachable from {src}; the adjacency graph "
                           "is disconnected at this cutoff")


def _reason_counts(reason: np.ndarray) -> list[int]:
    """Sample counts (served, no terminal, unreachable) of reason codes."""
    return [int(c) for c in np.bincount(reason, minlength=3)]


def _values_at(ball: tuple, ids):
    """Values of cubes ``ids`` in a cached ball, inf where it did not settle them."""
    _, held, vals = ball
    # an int32 key: an int64 one would cast all of ``held`` for the search
    ids = np.asarray(ids, dtype=np.int32)
    k = held.searchsorted(ids)
    return np.where(held.take(k, mode="clip") == ids, vals.take(k, mode="clip"), math.inf)


def solver_for(w: WhitneyDecomposition) -> GeodesicSolver:
    """Cached solver attached to the decomposition (the graph is immutable)."""
    solver = getattr(w, "_qh_solver", None)
    if solver is None:
        solver = GeodesicSolver(w)
        w._qh_solver = solver
    return solver


# --- module-level operation wrappers ------------------------------------------

def qh_distance(w: WhitneyDecomposition, a, b) -> float:
    return solver_for(w).distance(a, b)


def qh_geodesic(w: WhitneyDecomposition, a, b) -> Geodesic:
    return solver_for(w).geodesic(a, b)


def geodesic_cube_sum(w: WhitneyDecomposition, chain: np.ndarray, beta: float,
                      x0=None) -> dict:
    """Sum of side^beta over the cubes the chain meets against the basepoint scale.

    The chain meets its own cubes and those its center-to-center segments
    cross (:meth:`WhitneyDecomposition.chain_cubes`).  Reports the sum, the
    reference delta(x0)^beta and their ratio; the basepoint defaults to the
    first chain cube's center.
    """
    if beta <= 0:
        raise ValueError("beta must be positive")
    sides = w.side[w.chain_cubes([chain])[1]]
    total = float(np.sum(sides ** beta))
    if x0 is None:
        delta0 = float(w.delta_center[chain[0]])
    else:
        delta0 = float(w.domain.boundary_distance(x0)[0])
    ref = delta0 ** beta
    return {"sum": total, "reference": ref, "ratio": total / ref, "beta": beta,
            "cubes": int(len(sides))}


def polyline_csv(poly: np.ndarray, out: TextIO) -> None:
    """Stream the polyline's vertices to the text file ``out``."""
    out.write("x,y\n")
    out.writelines(f"{x!r},{y!r}\n" for x, y in np.atleast_2d(poly).tolist())
