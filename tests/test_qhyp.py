import math

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components, dijkstra
from scipy.spatial import cKDTree

from detourkit import qhyp
from detourkit.domains import (DiskDomain, PolygonDomain, comb_domain,
                               equilateral_triangle_domain)
from detourkit.errors import ResolutionError, UncoveredPointError
from detourkit.whitney import (DyadicCube, WhitneyDecomposition,
                               refine_for_qh, whitney_decompose)


@pytest.fixture(scope="module")
def disk():
    return refine_for_qh(whitney_decompose(DiskDomain(), 9))


@pytest.fixture(scope="module")
def solver(disk):
    return qhyp.solver_for(disk)


class TestDistance:
    def test_same_point(self, disk):
        assert qhyp.qh_distance(disk, (0.2, 0.1), (0.2, 0.1)) == 0.0

    def test_radial_log(self, disk):
        # radial integral of 1/(1-r) from 0 to 0.5
        d = qhyp.qh_distance(disk, (0.0, 0.0), (0.5, 0.0))
        assert d == pytest.approx(math.log(2.0), rel=0.10)

    def test_symmetry_exact(self, disk):
        a, b = (0.11, -0.23), (0.52, 0.31)
        assert qhyp.qh_distance(disk, a, b) == qhyp.qh_distance(disk, b, a)

    def test_classical_lower_bound(self, disk, solver):
        rng = np.random.default_rng(3)
        for _ in range(30):
            r1, r2 = rng.uniform(0, 0.9, 2)
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            a = (r1 * math.cos(t1), r1 * math.sin(t1))
            b = (r2 * math.cos(t2), r2 * math.sin(t2))
            da = float(disk.domain.boundary_distance(np.array([a]))[0])
            db = float(disk.domain.boundary_distance(np.array([b]))[0])
            assert qhyp.qh_distance(disk, a, b) >= abs(math.log(da / db)) - 0.7

    def test_fine_face_point_uses_both_cubes(self):
        # two level-15 cubes meet at x = 0.75, where a nudge of 1e-12 sides
        # rounds back to 0.75: a point on that face belongs to the left cube
        # too, so its distance to the left center is the straight leg
        domain = DiskDomain(radius=8.0)
        s = 2.0 ** -15
        ix, iy = np.array([int(0.75 / s) - 1, int(0.75 / s)]), np.zeros(2, np.int64)
        dist = domain.cube_boundary_distance((ix + 0.5) * s, (iy + 0.5) * s,
                                             np.full(2, s / 2))
        w = WhitneyDecomposition(domain, 15, np.full(2, 15), ix, iy, dist)
        p, c = (0.75, s / 2), tuple(w.centers[0])
        leg = math.hypot(p[0] - c[0], p[1] - c[1]) / w.delta_center[0]
        assert qhyp.GeodesicSolver(w).distance(p, c) == leg
        assert qhyp.GeodesicSolver(w).distance(c, p) == leg

    def test_uncovered_point(self, disk):
        with pytest.raises(UncoveredPointError):
            qhyp.qh_distance(disk, (0.0, 0.0), (0.999999, 0.0))

    def test_metric_axioms_random_triples(self, disk, solver):
        rng = np.random.default_rng(5)
        pool_ids = rng.choice(len(disk), size=24, replace=False)
        pts = disk.centers[pool_ids]
        dmat = {}
        for i in range(len(pts)):
            for j in range(len(pts)):
                if i < j:
                    dmat[(i, j)] = solver.distance(pts[i], pts[j])

        def d(i, j):
            if i == j:
                return 0.0
            return dmat[(min(i, j), max(i, j))]

        for _ in range(1000):
            i, j, k = rng.integers(0, len(pts), 3)
            assert d(i, k) <= d(i, j) + d(j, k) + 1e-12

    def test_monotone_under_refinement(self):
        a, b = (0.0, 0.0), (0.6, 0.2)
        vals = []
        for cutoff in (8, 9):
            w = refine_for_qh(whitney_decompose(DiskDomain(), cutoff))
            vals.append(qhyp.qh_distance(w, a, b))
        assert vals[1] <= vals[0] + 0.1

    def test_diagonal_matches_continuum(self):
        # the graph must not pay for direction: toward the diagonal a
        # 4-neighbour face graph read 1.307 and 1.337 times log(1/(1-r))
        w = refine_for_qh(whitney_decompose(DiskDomain(), 12))
        solver = qhyp.solver_for(w)
        for r in (0.75, 0.9):
            true = math.log(1.0 / (1.0 - r))
            d = solver.distance((0.0, 0.0), (r / math.sqrt(2.0), r / math.sqrt(2.0)))
            assert abs(d / true - 1.0) <= 0.07, (r, d, true)

    def test_tiny_limit_matches_unbounded(self):
        w = refine_for_qh(whitney_decompose(DiskDomain(), 8))
        a, b = (0.1, 0.2), (0.7, -0.3)
        # the bounded search does not reach b's cube
        bounded = qhyp.GeodesicSolver(w).distance(a, b, limit=1e-3)
        assert bounded == qhyp.GeodesicSolver(w).distance(a, b)
        assert bounded == pytest.approx(1.6077, abs=1e-4)

    def test_scaling_invariance_power_of_two(self):
        # dyadic frames map exactly onto each other under doubling
        a, b = (0.0, 0.0), (0.5, 0.25)
        w1 = refine_for_qh(whitney_decompose(DiskDomain(), 8))
        w2 = refine_for_qh(whitney_decompose(DiskDomain(radius=2.0), 7))
        d1 = qhyp.qh_distance(w1, a, b)
        d2 = qhyp.qh_distance(w2, (2 * a[0], 2 * a[1]), (2 * b[0], 2 * b[1]))
        assert d2 == pytest.approx(d1, abs=1e-9)


class TestGeodesics:
    def test_single_cube_chain(self, disk):
        g = qhyp.qh_geodesic(disk, (0.01, 0.01), (0.011, 0.01))
        assert len(g.cubes) == 1
        assert g.value >= 0.0

    def test_prefix_property(self, disk):
        g = qhyp.qh_geodesic(disk, (0.0, 0.0), (0.8, 0.1))
        # sub-path value equals the difference of prefix distances
        for i in range(1, len(g.cubes)):
            sub = g.prefix[i] - g.prefix[i - 1]
            w = qhyp.solver_for(disk).graph[g.cubes[i - 1], g.cubes[i]]
            assert sub == pytest.approx(w, abs=1e-12)

    def test_delta_monotone_after_plateau(self, disk):
        g = qhyp.qh_geodesic(disk, (0.0, 0.0), (0.9, 0.0))
        deltas = disk.delta_center[g.cubes]
        peak = int(np.argmax(deltas))
        tail = deltas[peak:]
        # non-increasing within one cube-level jitter (factor 2)
        assert np.all(tail[1:] <= tail[:-1] * 2.0 * (1 + 1e-9))

    def test_geodesic_after_distance_query(self, disk):
        # a distance query caches its run without predecessors; the geodesic
        # from the same source must still get its chain
        s = qhyp.GeodesicSolver(disk)
        a, b = (0.1, 0.05), (0.7, 0.2)
        d = s.distance(a, b)
        g = s.geodesic(a, b)
        assert g.value == d
        assert len(g.cubes) >= 2

    def test_polyline_through_centers(self, disk):
        g = qhyp.qh_geodesic(disk, (0.0, 0.0), (0.5, 0.3))
        assert np.allclose(g.polyline[1:-1], disk.centers[g.cubes])


class TestToBoundary:
    def test_chain_descends_geometrically(self, disk, solver):
        g = solver.to_boundary((0.0, 0.0), (1.0, 0.0))
        deltas = disk.delta_center[g.cubes]
        assert deltas[-1] < 0.01
        assert len(g.cubes) >= disk.min_level_cutoff - 2

    def test_adjacent_target(self, disk, solver):
        # a boundary-adjacent start lands in a short chain
        b = (1.0, 0.0)
        term = disk.nearest_cube(b)
        start = disk.centers[term]
        g = solver.to_boundary(start, b)
        assert len(g.cubes) == 1

    def test_far_point_rejected(self, disk, solver):
        with pytest.raises(ValueError):
            solver.to_boundary((0.0, 0.0), (0.2, 0.2))

    def test_chain_count_comparable_to_distance(self, disk, solver):
        # cube count along the chain is bounded by an affine function of the
        # quasihyperbolic distance; the constant is reported, not asserted
        rng = np.random.default_rng(9)
        consts = []
        for theta in rng.uniform(0, 2 * math.pi, 100):
            b = (math.cos(theta), math.sin(theta))
            g = solver.to_boundary((0.0, 0.0), b)
            k = solver.distance((0.0, 0.0), disk.centers[g.cubes[-1]])
            consts.append(len(g.cubes) / (k + 1.0))
        assert max(consts) < 25.0  # regression bound for the disk at cutoff 10


class TestHolderFit:
    def test_disk_dominating(self, disk, solver):
        rep = solver.holder_fit(solver.default_basepoint(), 32)
        assert rep.status == "ok"
        assert rep.fit.max_residual <= 1e-6
        assert 0 < rep.fit.alpha <= 1.0

    def test_triangle_dominating(self):
        w = refine_for_qh(whitney_decompose(equilateral_triangle_domain(), 9))
        s = qhyp.solver_for(w)
        rep = s.holder_fit((0.5, math.sqrt(3.0) / 6.0), 32)
        assert rep.status == "ok"
        assert rep.fit.max_residual <= 1e-6

    def test_comb_not_holder(self):
        w = refine_for_qh(whitney_decompose(comb_domain(), 13))
        s = qhyp.solver_for(w)
        rep = s.holder_fit(s.default_basepoint(), 64)
        assert rep.status == "not-holder"
        assert rep.fit is None
        assert rep.worst_excess > 0

    def test_sample_floor(self, disk, solver):
        with pytest.raises(ValueError):
            solver.holder_fit(solver.default_basepoint(), 8)

    def test_bisection_below_alpha_one(self, solver):
        # with 64 samples c(alpha) runs from 0.194 at the alpha floor (the
        # excess of a c_max = 0 report) to 0.268 at alpha = 1, so a c_max
        # between them is met only below alpha = 1, where the bisection stops
        x0 = solver.default_basepoint()
        floor_c = solver.holder_fit(x0, 64, c_max=0.0).worst_excess
        assert floor_c < 0.23 < solver.holder_fit(x0, 64).fit.c
        rep = solver.holder_fit(x0, 64, c_max=0.23)
        assert rep.status == "ok"
        assert rep.alpha_floor < rep.fit.alpha < 1.0
        assert rep.fit.c <= 0.23
        looser = solver.holder_fit(x0, 64, c_max=0.25)
        assert looser.status == "ok" and looser.fit.alpha > rep.fit.alpha


class TestCubeSums:
    def test_beta_one_ratio_bounded(self, disk, solver):
        x0 = solver.default_basepoint()
        ratios = []
        for theta in np.linspace(0, 2 * math.pi, 64, endpoint=False):
            b = (math.cos(theta), math.sin(theta))
            g = solver.to_boundary(x0, b)
            ratios.append(qhyp.geodesic_cube_sum(disk, g.cubes, 1.0, x0)["ratio"])
        assert max(ratios) <= 6.0

    def test_beta_two_below_beta_one(self, disk, solver):
        x0 = solver.default_basepoint()
        g = solver.to_boundary(x0, (0.0, -1.0))
        r1 = qhyp.geodesic_cube_sum(disk, g.cubes, 1.0, x0)["ratio"]
        r2 = qhyp.geodesic_cube_sum(disk, g.cubes, 2.0, x0)["ratio"]
        assert r2 <= r1

    def test_single_cube_chain_one_term(self, disk, solver):
        i = disk.find_cube((0.0, 0.0))
        out = qhyp.geodesic_cube_sum(disk, np.array([i]), 1.0)
        assert out["cubes"] == 1
        assert out["sum"] == disk.side[i]


@pytest.fixture(scope="module")
def table(disk, solver):
    return solver.shadows(solver.default_basepoint(), 128)


class TestShadows:
    def test_root_shadow_spans_boundary(self, disk, solver, table):
        src = disk.find_cube(table.basepoint)
        assert table.s(src) == pytest.approx(2.0, abs=0.05)

    def test_deep_cubes_have_small_shadows(self, disk, table):
        deep = [cid for cid in table.entries
                if disk.levels[cid] >= disk.levels.max() - 2]
        ok = sum(table.s(cid) <= 32.0 * disk.side[cid] for cid in deep)
        assert ok >= 0.95 * len(deep)

    def test_monotone_in_samples(self, disk, solver, table):
        bigger = solver.shadows(table.basepoint, 256)
        for cid, idx in table.entries.items():
            if cid in bigger.entries:
                assert bigger.s(cid) >= table.s(cid) - 1e-12

    def test_single_sample_sparse(self, disk, solver):
        t = qhyp.ShadowTable(tuple(solver.default_basepoint()), 1,
                             disk.domain.boundary_points(1), {}, 1)
        g = solver.to_boundary(solver.default_basepoint(),
                               disk.domain.boundary_points(1)[0])
        t.entries = {int(c): np.array([0]) for c in g.cubes}
        vals = t.s_values()
        assert all(v == 0.0 for v in vals.values())

    def test_shadow_sum_finite_with_ratio(self, disk, solver, table):
        lhs, rhs, ratio = solver.shadow_sum_check(table)
        assert math.isfinite(lhs) and lhs > 0
        assert math.isfinite(rhs) and rhs > 0
        assert ratio == lhs / rhs

    def test_sample_floor(self, solver):
        with pytest.raises(ValueError):
            solver.shadows(solver.default_basepoint(), 32)

    def test_disk_serves_every_sample(self, solver, table):
        served = {int(i) for idx in table.entries.values() for i in idx}
        assert table.n_served == len(served) == table.n_samples
        assert solver.holder_fit(table.basepoint, 32).n_served == 32

    def test_comb_counts_dropped_samples(self):
        # most comb boundary samples lie in necks too thin for an accepted
        # cube at cutoff 10; they get no chain and must not be counted
        s = qhyp.GeodesicSolver(refine_for_qh(whitney_decompose(comb_domain(), 10)))
        x0 = s.default_basepoint()
        table = s.shadows(x0, 512)
        served = {int(i) for idx in table.entries.values() for i in idx}
        assert table.n_served == len(served) < table.n_samples
        assert s.holder_fit(x0, 64).n_served < 64


class TestDijkstraCache:
    def test_byte_bound_evicts(self, disk, monkeypatch):
        last = len(disk) - 1
        ref = qhyp.GeodesicSolver(disk)
        d0, pred0 = ref.run_dijkstra(0)
        d1, _ = ref.run_dijkstra(last)
        assert list(ref._trees) == [0, last]
        monkeypatch.setattr(qhyp, "DIJKSTRA_CACHE_BYTES",
                            2 * (d0.nbytes + pred0.nbytes) - 1)
        s = qhyp.GeodesicSolver(disk)
        assert np.array_equal(s.run_dijkstra(0)[0], d0)
        assert list(s._trees) == [0]
        assert np.array_equal(s.run_dijkstra(last)[0], d1)
        assert list(s._trees) == [last]
        assert np.array_equal(s.run_dijkstra(0)[0], d0)
        assert list(s._trees) == [0]

    @pytest.mark.parametrize("scene", ["disk", "comb10"])
    def test_distance_entries_hold_their_balls(self, request, scene):
        # a distance-only entry holds the cubes an unbounded run puts within
        # its radius, with the same bits: sorted int32 ids and their values
        w = request.getfixturevalue(scene)
        rng = np.random.default_rng(23)
        pts = _seeded_points(w, rng, 12)
        s = qhyp.GeodesicSolver(w)
        for k in rng.choice(len(pts), (40, 2)):
            s.distance(pts[k[0]], pts[k[1]])
        assert s._cache and not s._trees
        for src, (radius, ids, vals) in s._cache.items():
            ref = dijkstra(s.graph, indices=src)
            within = np.flatnonzero(np.isfinite(ref) & (ref <= radius))
            assert ids.dtype == np.int32 and ids.tolist() == within.tolist()
            assert vals.tobytes() == ref[within].tobytes()

    def test_byte_bound_evicts_balls(self, disk, monkeypatch):
        last = len(disk) - 1
        ref = qhyp.GeodesicSolver(disk)
        (b0,), (b1,) = ref._balls([0], 1.0), ref._balls([last], 1.0)
        size = [b[1].nbytes + b[2].nbytes for b in (b0, b1)]
        monkeypatch.setattr(qhyp, "DIJKSTRA_CACHE_BYTES", max(size) + 1)
        s = qhyp.GeodesicSolver(disk)
        for src, want in ((0, b0), (last, b1), (0, b0)):
            (got,) = s._balls([src], 1.0)
            assert got[0] == 1.0
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1:], want[1:]))
            assert list(s._cache) == [src]

    def test_tree_and_ball_share_the_budget(self, disk, monkeypatch):
        ref = qhyp.GeodesicSolver(disk)
        dist, pred = ref.run_dijkstra(0)
        (ball,) = ref._balls([0], 1.0)
        # a tree serves no ball request: the source holds one entry of each kind
        assert list(ref._trees) == list(ref._cache) == [0]
        both = dist.nbytes + pred.nbytes + ball[1].nbytes + ball[2].nbytes
        for budget, kept in ((both, [0]), (both - 1, [])):
            monkeypatch.setattr(qhyp, "DIJKSTRA_CACHE_BYTES", budget)
            s = qhyp.GeodesicSolver(disk)
            s.run_dijkstra(0)
            (got,) = s._balls([0], 1.0)
            assert got[0] == 1.0
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[1:], ball[1:]))
            assert list(s._trees) == kept and list(s._cache) == [0]
            # below the sum, each entry clears the other
            assert s.run_dijkstra(0)[0].tobytes() == dist.tobytes()
            assert list(s._trees) == [0] and list(s._cache) == kept


# --- batched boundary chains against the per-sample loop they replace ---------

def _ref_cube_point_distance(w, i, point):
    s = w.side[i]
    dx = max(abs(point[0] - w.centers[i, 0]) - s / 2.0, 0.0)
    dy = max(abs(point[1] - w.centers[i, 1]) - s / 2.0, 0.0)
    return math.hypot(dx, dy)


def _ref_nearest_cube(w, point):
    """A sequential scan, in (center distance, id) order, of every cube whose
    center is no farther than the 32nd nearest; no k-d tree."""
    d2 = (point[0] - w.centers[:, 0]) ** 2 + (point[1] - w.centers[:, 1]) ** 2
    k = min(32, len(w)) - 1
    near = np.flatnonzero(d2 <= np.partition(d2, k)[k])
    order = near[np.lexsort((near, d2[near]))]
    best, best_d = int(order[0]), math.inf
    for i in order:
        d = _ref_cube_point_distance(w, int(i), point)
        if d < best_d - 1e-15 or (abs(d - best_d) <= 1e-15
                                  and w.side[i] < w.side[best]):
            best, best_d = int(i), d
    return best


def _ref_boundary_chains(solver, x0, pts):
    """Per-sample to_boundary loop: (served, terminals, chains, reasons)."""
    w = solver.w
    served, terms, chains, reasons = [], [], [], []
    for i, b in enumerate(pts):
        if float(w.domain.boundary_distance(b)[0]) > 2.0 * float(w.side.min()):
            raise ValueError("target point is not near the domain boundary")
        term = _ref_nearest_cube(w, b)
        if _ref_cube_point_distance(w, term, b) > 8.0 * 2.0 ** (-w.min_level_cutoff):
            reasons.append(qhyp.NO_TERMINAL)
            continue
        src = w.find_cube(x0)
        _, pred = solver.run_dijkstra(src)
        out = [term]
        while out[-1] != src and pred[out[-1]] >= 0:
            out.append(int(pred[out[-1]]))
        if out[-1] != src:
            reasons.append(qhyp.UNREACHABLE)
            continue
        reasons.append(qhyp.SERVED)
        served.append(i)
        terms.append(term)
        chains.append(out[::-1])
    return served, terms, chains, reasons


@pytest.fixture(scope="module")
def triangle():
    return refine_for_qh(whitney_decompose(equilateral_triangle_domain(), 9))


@pytest.fixture(scope="module")
def comb10():
    return refine_for_qh(whitney_decompose(comb_domain(), 10))


class TestBatchedBoundaryChains:
    @pytest.mark.parametrize("scene", ["disk", "triangle", "comb10"])
    @pytest.mark.parametrize("n", [64, 512])
    def test_matches_per_sample_loop(self, request, scene, n):
        w = request.getfixturevalue(scene)
        s = qhyp.GeodesicSolver(w)
        x0 = s.default_basepoint()
        pts = w.domain.boundary_points(n)
        served, terms, chains, reasons = _ref_boundary_chains(s, x0, pts)
        src, term, reason, got = s._boundary_chains(x0, pts)
        assert reason.tolist() == reasons
        assert np.flatnonzero(reason == qhyp.SERVED).tolist() == served
        assert term[served].tolist() == terms
        assert [c.tolist() for c in got] == chains
        assert src == w.find_cube(x0)

    def test_comb_counts_by_reason(self, comb10):
        s = qhyp.GeodesicSolver(comb10)
        x0 = s.default_basepoint()
        table = s.shadows(x0, 512)
        fit = s.holder_fit(x0, 64)
        counts = (table.n_served, table.n_no_terminal, table.n_unreachable)
        assert counts == (33, 132, 329)
        assert sum(counts) == len(table.boundary) == 494
        n_fit = len(comb10.domain.boundary_points(64))
        assert fit.n_served + fit.n_no_terminal + fit.n_unreachable == n_fit

    def test_to_boundary_reasons(self, comb10):
        s = qhyp.GeodesicSolver(comb10)
        x0 = s.default_basepoint()
        pts = comb10.domain.boundary_points(512)
        _, _, reason, _ = s._boundary_chains(x0, pts)
        for code, msg in ((qhyp.NO_TERMINAL, "no accepted cube"),
                          (qhyp.UNREACHABLE, "unreachable")):
            with pytest.raises(ResolutionError, match=msg):
                s.to_boundary(x0, pts[int(np.argmax(reason == code))])

    def test_far_point_raises_after_source(self, disk, solver):
        # a far sample raises ValueError; an uncovered basepoint is reported
        # first when an earlier sample has a terminal cube, as sample by sample
        far = [(1.0, 0.0), (0.2, 0.2)]
        with pytest.raises(ValueError):
            solver._boundary_chains((0.0, 0.0), far)
        with pytest.raises(UncoveredPointError):
            solver._boundary_chains((0.999999, 0.0), far)
        with pytest.raises(ValueError):
            solver._boundary_chains((0.999999, 0.0), far[::-1])

    @pytest.mark.parametrize("scene", ["disk", "triangle", "comb10"])
    def test_nearest_cubes_match_scan(self, request, scene):
        w = request.getfixturevalue(scene)
        pts = _probe_points(w)
        got = w.nearest_cubes(pts)
        assert got.tolist() == [_ref_nearest_cube(w, p) for p in pts]
        assert w.nearest_cube(pts[0]) == got[0]

    @pytest.mark.parametrize("p, tied", [((1e9, 0.5), 400), ((1e15, 0.5), 10_000)],
                             ids=["1e9", "1e15"])
    def test_far_point_matches_scan(self, comb10, p, tied):
        # far away the squared center distances round together: hundreds or
        # thousands of cubes tie at the 32nd place
        d2 = (p[0] - comb10.centers[:, 0]) ** 2 + (p[1] - comb10.centers[:, 1]) ** 2
        assert np.sum(d2 <= np.partition(d2, 31)[31]) > tied
        assert comb10.nearest_cube(p) == _ref_nearest_cube(comb10, p)

    def test_nearest_cubes_of_32_cubes_or_fewer(self):
        # the tree's first query holds every cube, so no row is completed
        w = whitney_decompose(DiskDomain(), 2)
        assert len(w) == 12
        lo = w.centers - w.side[:, None] / 2.0
        faces = lo + w.side[:, None] * np.array([[0.5, 0.0], [1.0, 0.5]])[:, None]
        rng = np.random.default_rng(3)
        pts = np.vstack([lo, lo + w.side[:, None], *faces, rng.uniform(-1.2, 1.2, (64, 2))])
        got = w.nearest_cubes(pts)
        assert got.tolist() == [_ref_nearest_cube(w, p) for p in pts]

    @pytest.mark.parametrize("scene", ["disk", "triangle", "comb10", "tie_at_32nd"])
    def test_nearest_cubes_independent_of_the_tree(self, request, monkeypatch, scene):
        # the tree finds the candidates and orders nothing: every build,
        # balanced or sliding-midpoint, compact or not, any leaf size,
        # gives the same terminals
        w = request.getfixturevalue(scene)
        pts = _probe_points(w) if scene != "tie_at_32nd" else _TIE_PROBE[None]
        want = w.nearest_cubes(pts)
        for kw in [dict(), dict(balanced_tree=False, compact_nodes=True),
                   dict(compact_nodes=False, leafsize=1), dict(leafsize=64),
                   dict(balanced_tree=False, compact_nodes=False, leafsize=8)]:
            monkeypatch.setitem(w.__dict__, "_kdtree", cKDTree(w.centers, **kw))
            assert w.nearest_cubes(pts).tolist() == want.tolist(), kw

    def test_nearest_cube_tied_at_the_32nd_place(self, tie_at_32nd):
        # twelve cubes tie at the 32nd place and the winner is one of them:
        # a scan of the tree's first 32 alone finds it only when the tree
        # happens to list it before the other eleven
        w, p = tie_at_32nd, _TIE_PROBE
        d2 = np.sort(np.sum((w.centers - p) ** 2, axis=1))
        assert np.all(d2[:31] < d2[31]) and np.all(d2[31:] == d2[31])
        assert w.cube(w.nearest_cube(p)) == DyadicCube(3, 4, 5)
        assert w.nearest_cube(p) == _ref_nearest_cube(w, p)


def _probe_points(w):
    """Random points of the box, points on shared cube faces and corners,
    and uncovered points near the boundary."""
    rng = np.random.default_rng(11)
    x0, y0, x1, y1 = w.domain.bbox()
    ids = rng.choice(len(w), 200, replace=False)
    lo = w.centers[ids] - w.side[ids, None] / 2.0
    return np.vstack([
        rng.uniform([x0, y0], [x1, y1], (300, 2)),
        lo, lo + w.side[ids, None] * np.column_stack([rng.uniform(0, 1, 200), np.zeros(200)]),
        w.domain.boundary_points(128),
    ])


#: the center of the level-3 cell (8, 8), which no cube of ``tie_at_32nd`` covers
_TIE_PROBE = np.array([8.5, 8.5]) / 8


@pytest.fixture(scope="module")
def tie_at_32nd():
    """Cubes whose 32nd nearest center from ``_TIE_PROBE`` is a 12-way tie.

    Twelve level-3 cubes sit at the offsets (dx, dy), dx^2 + dy^2 = 25, from
    the level-3 cell (8, 8) whose center is the probe; 31 level-6 cubes,
    clear of them, have centers 4.45 to 5 level-3 sides away.  Among the
    twelve, the eight of offset (3, 4) or (4, 3) are nearest as boxes
    (hypot(2.5, 3.5) sides, against more than 4.36 for the small cubes and
    4.5 for the other four), and the lowest id of the eight, offset
    (-4, -3), wins.
    """
    big = [(8 + dx, 8 + dy) for dx in range(-5, 6) for dy in range(-5, 6)
           if dx * dx + dy * dy == 25]
    ix, iy = np.divmod(np.arange(128 * 128), 128)  # the level-6 cells of [0, 2]^2
    r = np.hypot((ix + 0.5) / 64 - _TIE_PROBE[0], (iy + 0.5) / 64 - _TIE_PROBE[1])
    clear = ~np.any([(ix // 8 == bx) & (iy // 8 == by) for bx, by in big], axis=0)
    pool = np.flatnonzero(clear & (r > 4.45 / 8) & (r < 5 / 8))
    small = np.random.default_rng(7).choice(pool, 31, replace=False)
    levels = np.r_[np.full(12, 3), np.full(31, 6)]
    return WhitneyDecomposition(DiskDomain((0.5, 0.5), 10.0), 6, levels,
                                np.r_[[b[0] for b in big], ix[small]],
                                np.r_[[b[1] for b in big], iy[small]], np.full(43, 100.0))


# --- radius-bounded distance queries against an unbounded reference -----------

def _ref_leg(w, p, c):
    return math.hypot(p[0] - w.centers[c, 0], p[1] - w.centers[c, 1]) / w.delta_center[c]


def _ref_totals(solver, runs, a, b):
    """(total, graph part) of every cube pair of two points, canonical order.

    ``runs`` caches one unbounded scipy Dijkstra per source cube.  A pair of
    one cube costs the straight leg and has graph part 0.
    """
    w = solver.w
    pa, pb = sorted([(float(a[0]), float(a[1])), (float(b[0]), float(b[1]))])
    out = []
    for ca in w.find_cubes(pa):
        if ca not in runs:
            runs[ca] = dijkstra(solver.graph, indices=ca)
        for cb in w.find_cubes(pb):
            if ca == cb:
                out.append((math.hypot(pa[0] - pb[0], pa[1] - pb[1])
                            / w.delta_center[ca], 0.0))
            else:
                d = float(runs[ca][cb])
                out.append((_ref_leg(w, pa, ca) + d + _ref_leg(w, pb, cb), d))
    return out


def _seeded_points(w, rng, n):
    """Points inside random cubes and corners of random cubes, half each."""
    ids = rng.choice(len(w), n, replace=False)
    inner = w.centers[ids[::2]] + (rng.uniform(-0.5, 0.5, (len(ids[::2]), 2))
                                   * w.side[ids[::2], None])
    corner = w.centers[ids[1::2]] - w.side[ids[1::2], None] / 2.0
    return [tuple(p) for p in np.vstack([inner, corner]).tolist()]


@pytest.fixture(scope="module")
def disk8():
    return refine_for_qh(whitney_decompose(DiskDomain(), 8))


# a square room and, through a neck too thin for an accepted cube, a small
# side room: at cutoff 9 the graph has components of 790 and 54,796 cubes
_DUMBBELL = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0), (0.0, 0.50005),
             (-0.3, 0.50005), (-0.3, 0.52), (-0.34, 0.52), (-0.34, 0.48),
             (-0.3, 0.48), (-0.3, 0.49995), (0.0, 0.49995)]


class TestBoundedSearch:
    # b is a corner shared by cubes of different levels: a bounded search
    # that reaches only the dearer cube pair once returned its total
    # (4.7594... at limit 4.616069046337154 for the first pair)
    @pytest.mark.parametrize("a, b", [((0.05, 0.02), (0.9599609375, 0.244140625)),
                                      ((-0.33, -0.03), (-0.91796875, 0.2890625))])
    def test_limit_never_changes_the_value(self, disk8, a, b):
        assert len(set(disk8.levels[disk8.find_cubes(b)].tolist())) > 1
        exact = qhyp.GeodesicSolver(disk8).distance(a, b)
        totals = _ref_totals(qhyp.GeodesicSolver(disk8), {}, a, b)
        assert exact == min(t for t, _ in totals)
        # the reached pairs change where the limit passes a pair's graph
        # part: probe each of them, their neighbours and the gaps between
        parts = sorted({d for _, d in totals if d > 0.0})
        limits = set(np.linspace(1e-3, 6.0, 25).tolist())
        for lo, hi in zip(parts, parts[1:] + [6.0]):
            limits |= {lo, np.nextafter(lo, 0.0), (lo + hi) / 2.0}
        for limit in sorted(limits):
            got = qhyp.GeodesicSolver(disk8).distance(a, b, limit=float(limit))
            assert got == exact, limit

    @pytest.mark.parametrize("scene", ["disk", "comb10"])
    def test_matches_unbounded_reference(self, request, scene):
        w = request.getfixturevalue(scene)
        rng = np.random.default_rng(23)
        pts = _seeded_points(w, rng, 24)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        pairs = [pairs[k] for k in rng.choice(len(pairs), 200, replace=False)]
        solver = qhyp.GeodesicSolver(w)
        runs: dict = {}
        want = [min(t for t, _ in _ref_totals(solver, runs, pts[i], pts[j]))
                for i, j in pairs]
        # one solver, two query orders: the cache state changes no value
        got = [solver.distance(pts[i], pts[j]) for i, j in pairs]
        back = [solver.distance(pts[j], pts[i]) for i, j in pairs[::-1]]
        assert got == want
        assert back == want[::-1]
        if scene == "comb10":
            # the comb's rooms are separate graph components
            assert 0 < sum(math.isinf(v) for v in want) < len(want)

    # the corner pairs of test_limit_never_changes_the_value
    @pytest.mark.parametrize("a, b", [((0.05, 0.02), (0.9599609375, 0.244140625)),
                                      ((-0.33, -0.03), (-0.91796875, 0.2890625))])
    def test_geodesic_takes_the_cheapest_pair(self, disk8, a, b):
        s = qhyp.GeodesicSolver(disk8)
        # distance runs from the first point in canonical order, and so
        # adds the same numbers in the same order as a geodesic from there
        a, b = sorted([a, b])
        g = s.geodesic(a, b)
        assert g.value == s.distance(b, a)
        # the first strictly cheapest pair in the order find_cubes lists them
        totals = {}
        for ca in disk8.find_cubes(a):
            d = dijkstra(s.graph, indices=ca)
            for cb in disk8.find_cubes(b):
                totals[ca, cb] = _ref_leg(disk8, a, ca) + float(d[cb]) \
                    + _ref_leg(disk8, b, cb)
        ca, cb = min(totals, key=totals.get)
        assert (g.cubes[0], g.cubes[-1]) == (ca, cb)
        assert g.value == totals[ca, cb]

    def test_small_component_stops(self, monkeypatch):
        w = refine_for_qh(whitney_decompose(PolygonDomain(np.array(_DUMBBELL)), 9))
        s = qhyp.GeodesicSolver(w)
        # the side room holds less than 1/16 of the cubes, so its balls never
        # jump to an unbounded run for their size
        src = w.find_cubes((-0.321, 0.503))
        side = np.isfinite(dijkstra(s.graph, indices=src[0]))
        assert 16 * np.count_nonzero(side) < len(w)
        runs = []

        def spy(*args, **kwargs):
            runs.append(kwargs)
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(qhyp, "_sp_dijkstra", spy)
        a, b = (-0.321, 0.503), (0.5, 0.37)
        assert s.distance(a, b) == s.distance(b, a) == math.inf
        assert len(runs) <= 2
        assert [s._cache[c][0] for c in src] == [math.inf] * len(src)
        c = (-0.31, 0.49)
        assert s.distance(a, c) == min(t for t, _ in _ref_totals(s, {}, a, c))

    @pytest.mark.parametrize("scene", ["disk", "triangle", "comb10"])
    def test_meet_and_finish_match_unbounded(self, request, scene, monkeypatch):
        w = request.getfixturevalue(scene)
        rng = np.random.default_rng(31)
        pts = _seeded_points(w, rng, 16)
        pairs = [(i, j) for i in range(len(pts)) for j in range(i + 1, len(pts))]
        pairs = [pairs[k] for k in rng.choice(len(pairs), 60, replace=False)]
        s = qhyp.GeodesicSolver(w)
        # centers of stencil neighbours: closer than the balls' first radius
        for c in rng.choice(len(w), 4, replace=False):
            pts += [tuple(w.centers[c]), tuple(w.centers[s.graph.indices[s.graph.indptr[c]]])]
            pairs.append((len(pts) - 2, len(pts) - 1))
        # a one-source _balls call runs the source forward: the fallback past
        # the finish's expansion guard, or from a ball past 1/16 of the cubes
        forward = []
        balls = s._balls

        def spy(srcs, limit):
            if len(srcs) == 1:
                forward.append(limit)
            return balls(srcs, limit)

        monkeypatch.setattr(s, "_balls", spy)
        runs: dict = {}
        finished = direct = 0
        for i, j in pairs + [(j, i) for i, j in pairs]:
            before = len(forward)
            got = s.distance(pts[i], pts[j])
            assert got == min(t for t, _ in _ref_totals(s, runs, pts[i], pts[j]))
            pa, pb = sorted([pts[i], pts[j]])
            cas, cbs = w.find_cubes(pa), w.find_cubes(pb)
            if len(cas) == len(cbs) == 1 and cas != cbs and math.isfinite(got):
                # the source ball holds the target unless the finish decided
                held = math.isfinite(float(qhyp._values_at(s._cache[cas[0]], cbs[0])))
                finished += not held
                direct += held and len(forward) == before
        assert finished > 0 and direct > 0

    def test_zero_limit_stops(self, disk8, monkeypatch):
        # balls of radius 0 hold only their own cube: every round of the
        # meeting grows them to at least the largest edge weight
        a, b = (0.1, 0.2), (0.7, -0.3)
        want = qhyp.GeodesicSolver(disk8).distance(a, b)
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(qhyp, "_sp_dijkstra", spy)
        for limit in (0.0, 5e-324):
            assert qhyp.GeodesicSolver(disk8).distance(a, b, limit=limit) == want
        assert len(calls) <= 16

    def test_cross_component_makes_no_run(self, comb10, monkeypatch):
        s = qhyp.GeodesicSolver(comb10)
        _, labels = connected_components(s.graph, connection="strong")
        rng = np.random.default_rng(7)
        pts = _seeded_points(comb10, rng, 40)
        room = [labels[comb10.find_cubes(p)[0]] for p in pts]
        cross = [(p, q) for p, a in zip(pts, room) for q, b in zip(pts, room) if a != b]
        assert len(cross) > 20
        # a first cross-room query grows a ball past 1/16 of the cubes
        # without meeting, which labels the components
        assert s.distance(*cross[0]) == math.inf
        assert s._labels is not None
        calls = []

        def spy(*args, **kwargs):
            calls.append(kwargs)
            return dijkstra(*args, **kwargs)

        monkeypatch.setattr(qhyp, "_sp_dijkstra", spy)
        assert all(s.distance(p, q) == math.inf for p, q in cross)
        assert calls == []
