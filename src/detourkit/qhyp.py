"""Quasihyperbolic distances and geodesics on a stencil graph over Whitney cubes.

The continuum metric (the infimum of arc length weighted by reciprocal
boundary distance) is replaced by shortest paths on a graph over the cubes
of a refined decomposition.  Each cube links to the cube containing the
point one, sqrt(2) or sqrt(5) sides away in 16 directions (the faces, the
diagonals and the knight moves), of its own level or one level coarser
(:meth:`WhitneyDecomposition.stencil_graph`).  An edge costs the
center distance times the reciprocal of the mean of the two center
boundary distances, and a query point pays an entry leg from itself to its
cube center.

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

import math
from dataclasses import dataclass
from typing import TextIO

import numpy as np
from scipy.sparse import csr_matrix
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
        self._cache: dict[int, tuple] = {}

    # --- infrastructure -----------------------------------------------------

    def run_dijkstra(self, src: int) -> tuple[np.ndarray, np.ndarray]:
        """Unbounded single-source distances and predecessors, cached per source.

        Both come back as dense arrays; cubes the graph does not reach from
        ``src`` are at inf.
        """
        _, dist, pred = self._settle(src, math.inf, True)
        return dist, pred

    def _settle(self, src: int, limit: float, predecessors: bool) -> tuple:
        """Cache entry ``(radius, distances, predecessors)`` of a run from ``src``.

        A run without predecessors is stored as its ball: the sorted int32
        ids of the cubes it settled and their float64 values, or the dense
        array when that is no larger (past 2/3 of the cubes).  The cache is
        cleared when a new entry would push the bytes it stores past
        ``DIJKSTRA_CACHE_BYTES``.
        """
        hit = self._cache.get(src)
        if hit is None or hit[0] < limit or (predecessors and hit[2] is None):
            out = _sp_dijkstra(self.graph, indices=src,
                               return_predecessors=predecessors, limit=limit)
            hit = (limit, *out) if predecessors else (limit, _ball_of(out), None)
            held = sum(_nbytes(e) for s, e in self._cache.items() if s != src)
            if held + _nbytes(hit) > DIJKSTRA_CACHE_BYTES:
                self._cache.clear()
            self._cache[src] = hit
        return hit

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
                  dists: dict) -> tuple[int, int, float]:
        """Cheapest pair over the cubes ``cas`` of ``pa`` and ``cbs`` of ``pb``.

        A point on a shared cube boundary belongs to every adjacent closed
        cube; the distance minimizes over the admissible assignments.  A
        pair of one cube costs the straight leg; any other pair adds the
        legs to the value of ``cb`` in ``dists[ca]``, a dense run or a ball
        (:meth:`_settle`).
        """
        best = None
        for ca in cas:
            la = self.leg(pa, ca)
            for cb in cbs:
                if ca == cb:
                    v = math.hypot(pa[0] - pb[0], pa[1] - pb[1]) \
                        / self.w.delta_center[ca]
                else:
                    v = la + _value_at(dists[ca], cb) + self.leg(pb, cb)
                if best is None or v < best[2]:
                    best = (ca, cb, v)
        return best

    def _ball(self, src: int, radius: float) -> tuple[float, object]:
        """Distance-only run from ``src`` over at least ``radius``.

        Returns the radius the run covers (a cached run may cover more) and
        its distances as the cache holds them (:meth:`_settle`).
        """
        radius, dist, _ = self._settle(src, radius, False)
        return radius, dist

    def _grow(self, src: int, radius: float, dist,
              value: float) -> tuple[float, object]:
        """Next run from ``src`` after its run to ``radius`` left ``value`` undecided.

        The ball grows to where it would hold four times its cubes if it
        kept growing as it did from ``radius / 2``, so the work of the runs
        grows geometrically whether balls grow fast (toward a smooth
        boundary) or slowly (along corridors).  A finite best total is an
        upper bound and caps the radius, since a run to it decides.
        Without one, a run that reached 1/16 of the cubes is followed by a
        run over the whole graph.  A smaller ball grows until half its
        radius holds its whole graph component; then the growth rate is 0
        and the next run is unbounded, so every query stops.
        """
        reached = dist[1] if isinstance(dist, tuple) else dist[dist < math.inf]
        if math.isinf(value) and 16 * len(reached) >= len(self.w):
            return self._ball(src, math.inf)
        rate = math.log2(len(reached) / np.count_nonzero(reached <= radius / 2.0))
        step = radius / rate if rate > 0.0 else math.inf
        return self._ball(src, min(radius + step, value))

    def distance(self, a, b, limit: float = math.inf) -> float:
        """Graph quasihyperbolic distance between points of the domain.

        Symmetric by construction: the arguments are put in canonical order
        first, so distance(a, b) and distance(b, a) run identically.

        The search settles balls around the source cubes and grows them
        until they decide the answer.  The first radius is ``limit`` or,
        without one, 2 j + 1 for j = log(1 + |a - b| / min delta) over the
        endpoint cubes, since the quasihyperbolic distance is at least j; a
        cached run is read at the radius it holds.  A best total no larger
        than the smallest radius read is exact, because a pair beyond a
        run's radius costs more than that radius.  Otherwise the short runs
        grow (:meth:`_grow`); a search with no finite total ends with an
        unbounded run, so a target in another graph component costs inf.
        Every value equals the unbounded search's bit for bit, whatever
        ``limit`` and the cache.
        """
        pa = (float(a[0]), float(a[1]))
        pb = (float(b[0]), float(b[1]))
        if pb < pa:
            pa, pb = pb, pa
        cas = self._endpoint_cubes(pa)
        cbs = self._endpoint_cubes(pb)
        if not math.isfinite(limit):
            near = float(self.w.delta_center[cas + cbs].min())
            limit = 2.0 * math.log1p(math.hypot(pb[0] - pa[0], pb[1] - pa[1]) / near) + 1.0
        # a source cube that is the only target cube needs no run
        runs = {ca: self._ball(ca, self._cache[ca][0] if ca in self._cache else limit)
                for ca in cas if cbs != [ca]}
        while True:
            value = self._cheapest(pa, pb, cas, cbs,
                                   {ca: dist for ca, (_, dist) in runs.items()})[2]
            short = [ca for ca, (radius, _) in runs.items() if radius < value]
            if not short:
                return value
            for ca in short:
                runs[ca] = self._grow(ca, *runs[ca], value)

    def geodesic(self, a, b) -> Geodesic:
        pa = (float(a[0]), float(a[1]))
        pb = (float(b[0]), float(b[1]))
        cas = self._endpoint_cubes(pa)
        dists = {ca: self.run_dijkstra(ca)[0] for ca in cas}
        ca, cb, value = self._cheapest(pa, pb, cas, self._endpoint_cubes(pb), dists)
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


def _ball_of(dist: np.ndarray):
    """A distance-only run as the cache stores it.

    The sorted int32 ids and the values of the cubes it settled, 12 B a
    cube, or ``dist`` itself, 8 B a cube, when that is no larger.
    """
    ids = np.flatnonzero(dist < math.inf)
    if 3 * len(ids) >= 2 * len(dist):
        return dist
    return ids.astype(np.int32), dist[ids]


def _value_at(dist, i: int) -> float:
    """Value of cube ``i`` in a stored run, inf where the run did not settle it."""
    if not isinstance(dist, tuple):
        return float(dist[i])
    ids, vals = dist
    # an int32 key: an int64 one would cast all of ``ids`` for the search
    k = int(ids.searchsorted(np.int32(i)))
    return float(vals[k]) if k < len(ids) and ids[k] == i else math.inf


def _nbytes(entry) -> int:
    _, dist, pred = entry
    held = dist if isinstance(dist, tuple) else (dist,)
    return sum(a.nbytes for a in held) + (0 if pred is None else pred.nbytes)


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
