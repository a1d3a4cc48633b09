import numpy as np
import pytest

from detourkit import domains, geometry
from detourkit.domains import (EDGE_GRID_CELLS, PolygonDomain, _box_segment_distance,
                               comb_domain, equilateral_triangle_domain)
from detourkit.errors import OracleError
from detourkit.geometry import (points_in_polygon, polygon_boundary_distance,
                                segment_distance)
from detourkit.whitney import WhitneyDecomposition, refine_for_qh, whitney_decompose


def bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def box_reference(domain, pts, block=4096):
    """Boundary distance through the box kernel at half = 0."""
    pts = np.atleast_2d(pts)
    edges = domain._edges
    return np.concatenate([
        _box_segment_distance(pts[lo:lo + block, 0], pts[lo:lo + block, 1],
                              np.zeros(len(pts[lo:lo + block])), *edges).min(axis=1)
        for lo in range(0, len(pts), block)])


def loop_reference(pts, a, b):
    """The (n, m, 2) projection formula, one (point, segment) pair at a time."""
    out = np.empty((len(pts), len(a)))
    for i, p in enumerate(pts):
        for j in range(len(a)):
            ab = b[j] - a[j]
            ap = p - a[j]
            denom = np.sum(ab * ab)
            denom = 1.0 if denom < 1e-300 else denom
            t = np.clip(np.sum(ap * ab) / denom, 0.0, 1.0)
            proj = a[j] + t * ab
            out[i, j] = np.hypot(p[0] - proj[0], p[1] - proj[1])
    return out


@pytest.fixture(scope="module", params=["comb", "triangle"])
def refined9(request):
    domain = comb_domain() if request.param == "comb" else equilateral_triangle_domain()
    return refine_for_qh(whitney_decompose(domain, 9))


def centres_and_corners(w):
    x0, y0 = w.ix * w.side, w.iy * w.side
    corners = [np.column_stack([x0 + ox * w.side, y0 + oy * w.side])
               for ox, oy in ((0, 0), (1, 0), (1, 1), (0, 1))]
    return np.concatenate([w.centers] + corners)


class TestPointOracle:
    def test_bulk_matches_box_kernel(self, refined9):
        pts = centres_and_corners(refined9)
        got = refined9.domain.boundary_distance(pts)
        assert bits(got) == bits(box_reference(refined9.domain, pts))

    def test_single_points_match_box_kernel(self, refined9):
        pts = centres_and_corners(refined9)
        idx = np.random.default_rng(7).choice(len(pts), 20, replace=False)
        for p in pts[idx]:
            got = refined9.domain.boundary_distance(p)
            assert got.shape == (1,)
            assert bits(got) == bits(box_reference(refined9.domain, p))

    @pytest.mark.parametrize("domain", [comb_domain(), equilateral_triangle_domain()],
                             ids=["comb", "triangle"])
    def test_boundary_points_are_exactly_zero(self, domain):
        v = domain.vertices
        w = np.roll(v, -1, axis=0)
        axis = (v[:, 0] == w[:, 0]) | (v[:, 1] == w[:, 1])
        mids = (v[axis] + w[axis]) / 2.0
        assert len(mids)
        assert np.all(domain.boundary_distance(v) == 0.0)
        assert np.all(domain.boundary_distance(mids) == 0.0)

    @pytest.mark.parametrize("ix", [0, 1], ids=["vertex", "edge-midpoint"])
    def test_centre_on_boundary_raises(self, ix):
        # level-0 cube centres (0.5, 0.5) and (1.5, 0.5): a vertex and the
        # midpoint of the bottom edge
        square = PolygonDomain(np.array([[0.5, 0.5], [2.5, 0.5], [2.5, 2.5],
                                         [0.5, 2.5]]), name="square")
        one = np.array([0], dtype=np.int64)
        with pytest.raises(OracleError):
            WhitneyDecomposition(square, 0, one, one + ix, one, np.ones(1))


class TestSegmentKernel:
    def test_matches_loop_reference(self):
        rng = np.random.default_rng(11)
        pts = rng.uniform(-2.0, 2.0, (23, 2))
        a = rng.uniform(-1.0, 1.0, (17, 2))
        b = rng.uniform(-1.0, 1.0, (17, 2))
        b[:4] = a[:4]                      # zero-length segments
        b[4] = a[4] + [1e-160, 0.0]        # squared length below the guard
        pts[:3] = a[5:8]                   # points on segment endpoints
        for p, s, e in ((pts, a, b), (pts[:1], a, b), (pts, a[:1], b[:1]),
                        (pts[:1], a[1:2], b[1:2])):
            assert bits(segment_distance(p, s, e)) == bits(loop_reference(p, s, e))

    @pytest.mark.parametrize("chunk", [1, 10, 100])
    def test_chunking_is_bitwise_neutral(self, monkeypatch, chunk):
        pts = np.random.default_rng(5).uniform(-0.2, 1.2, (1001, 2))
        for domain in (comb_domain(), equilateral_triangle_domain()):
            v = domain.vertices
            whole = segment_distance(pts, v, np.roll(v, -1, axis=0)).min(axis=1)
            monkeypatch.setattr(geometry, "POINT_SEGMENT_CHUNK", chunk)
            step = max(chunk // len(v), 1)
            assert len(pts) % step or step == 1
            assert bits(polygon_boundary_distance(pts, v)) == bits(whole)
            monkeypatch.undo()

    def test_empty_points(self):
        v = equilateral_triangle_domain().vertices
        assert polygon_boundary_distance(np.zeros((0, 2)), v).shape == (0,)


class TestCubeOracle:
    @pytest.fixture(scope="class")
    def comb9(self):
        return refine_for_qh(whitney_decompose(comb_domain(), 9))

    def test_uncapped_matches_capped_below_cap(self, comb9):
        domain = comb9.domain
        rng = np.random.default_rng(3)
        idx = np.concatenate([rng.choice(len(comb9), 3000, replace=False),
                              np.flatnonzero(comb9.levels == comb9.levels.max())[:500]])
        cx, cy = comb9.centers[idx, 0], comb9.centers[idx, 1]
        half = comb9.side[idx] / 2.0
        cap = 8.0 * comb9.side[idx]
        capped = domain.cube_boundary_distance_capped(cx, cy, half, cap)
        exact = domain.cube_boundary_distance(cx, cy, half)
        below = capped < cap
        assert below.any() and (~below).any()
        assert bits(exact[below]) == bits(capped[below])
        assert np.all(exact[~below] >= cap[~below])
        # the sweep's exact distance is below the centre's boundary distance
        assert np.all(exact < comb9.delta_center[idx])

    def test_crossed_cubes_are_zero(self):
        domain = comb_domain()
        b = domain.boundary_points(300)
        half = np.full(len(b), 2.0 ** -10)
        assert np.all(domain.cube_boundary_distance(b[:, 0], b[:, 1], half) == 0.0)
        assert np.all(domain.cube_boundary_distance_capped(
            b[:, 0], b[:, 1], half, 8.0 * half) == 0.0)


def unit_square():
    return PolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]]),
                         name="square")


DOMAINS = {"comb": comb_domain, "triangle": equilateral_triangle_domain,
           "square": unit_square}


@pytest.fixture(params=list(DOMAINS))
def domain(request):
    return DOMAINS[request.param]()


def assert_matches_all_edges(domain, pts):
    pts = np.atleast_2d(pts)
    got = domain.boundary_distance(pts)
    assert got.shape == (len(pts),)
    assert bits(got) == bits(polygon_boundary_distance(pts, domain.vertices))


class TestIdentity:
    def test_equality_is_identity_and_hashable(self):
        a, b = comb_domain(), comb_domain()
        assert a == a and a != b
        assert len({a, b, a}) == 2
        assert hash(a) == hash(a)


class TestPointPrune:
    """The edge-grid point oracle against the all-edges owner, bit for bit."""

    def test_refined_centres_and_corners(self, refined9):
        assert_matches_all_edges(refined9.domain, centres_and_corners(refined9))

    def test_vertices_and_axis_midpoints(self, domain):
        v = domain.vertices
        w = np.roll(v, -1, axis=0)
        axis = (v[:, 0] == w[:, 0]) | (v[:, 1] == w[:, 1])
        pts = np.concatenate([v, (v[axis] + w[axis]) / 2.0])
        assert np.all(domain.boundary_distance(pts) == 0.0)
        assert_matches_all_edges(domain, pts)

    def test_grid_lines_and_box_border(self, domain):
        (x0, y0, x1, y1, hx, hy), _, _ = domain._edge_grid
        k = np.arange(EDGE_GRID_CELLS + 1)
        gx, gy = x0 + k * hx, y0 + k * hy
        t = np.linspace(0.0, 1.0, 129)
        xs, ys = x0 + t * (x1 - x0), y0 + t * (y1 - y0)
        lines = [np.column_stack([np.repeat(gx, len(ys)), np.tile(ys, len(gx))]),
                 np.column_stack([np.tile(xs, len(gy)), np.repeat(gy, len(xs))])]
        border = [np.column_stack([np.full_like(ys, x), ys]) for x in (x0, x1)] \
            + [np.column_stack([xs, np.full_like(xs, y)]) for y in (y0, y1)]
        assert_matches_all_edges(domain, np.concatenate(lines + border))

    def test_inside_last_neck(self):
        # the last corridor of the default comb: centre 0.9, width 6.5e-4,
        # 1/48 of a grid cell, from the slab top 0.12 to the rooms at 0.62
        domain = comb_domain()
        hw = 6.5e-4 / 2.0
        x = np.linspace(0.9 - hw, 0.9 + hw, 41)
        y = np.linspace(0.11, 0.63, 257)
        pts = np.column_stack([np.repeat(x, len(y)), np.tile(y, len(x))])
        assert_matches_all_edges(domain, pts)
        corridor = domain.contains(pts) & (pts[:, 1] >= 0.12) & (pts[:, 1] <= 0.62)
        assert corridor.any()
        assert np.all(domain.boundary_distance(pts[corridor]) <= hw * (1 + 1e-9))

    def test_outside_box_and_non_finite(self, domain):
        x0, y0, x1, y1 = domain.bbox()
        xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        out = np.array([[np.nextafter(x0, -np.inf), ym], [np.nextafter(x1, np.inf), ym],
                        [xm, np.nextafter(y0, -np.inf)], [xm, y1 + 1e-9],
                        [x0 - 0.25, y1 + 0.25], [-3.0, 7.0], [1e300, 0.5]])
        assert_matches_all_edges(domain, out)
        nan = np.array([[np.nan, ym], [xm, np.nan], [np.nan, np.nan]])
        assert np.all(np.isnan(domain.boundary_distance(nan)))
        assert_matches_all_edges(domain, nan)
        assert_matches_all_edges(domain, np.concatenate([out, nan, [[xm, ym]]]))

    def test_seeded_points_and_small_blocks(self, domain, monkeypatch):
        pts = np.random.default_rng(13).uniform(-0.5, 1.5, (5000, 2))
        assert_matches_all_edges(domain, pts)
        monkeypatch.setattr(domains, "POINT_SEGMENT_CHUNK", 7)
        assert_matches_all_edges(domain, pts[:500])
        assert domain.boundary_distance(np.zeros((0, 2))).shape == (0,)

    def test_grid_prunes(self, domain):
        _, indptr, indices = domain._edge_grid
        count = np.diff(indptr)
        m = len(domain.vertices)
        assert len(count) == EDGE_GRID_CELLS ** 2 + 1
        assert count.min() >= 1 and count[-1] == m
        assert np.array_equal(indices[indptr[-2]:], np.arange(m))
        if m > 4:
            assert count[:-1].mean() < m / 4


def reference_capped(domain, cx, cy, half, cap):
    """The per-edge loop that measured each edge's nearby cubes on its own."""
    cx, cy, half, cap = (np.asarray(a, dtype=float) for a in (cx, cy, half, cap))
    ax, ay, bx, by = domain._edges
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
        d = _box_segment_distance(cx[idx], cy[idx], half[idx], ax[k:k + 1], ay[k:k + 1],
                                  bx[k:k + 1], by[k:k + 1])[:, 0]
        np.minimum.at(out, idx, d)
    return np.minimum(out, np.broadcast_to(cap, out.shape))


class TestCappedPrune:
    @pytest.fixture(scope="class")
    def sweep_calls(self):
        """Every capped call that the comb-9 sweep and refinement make."""
        calls = []
        original = PolygonDomain.cube_boundary_distance_capped

        def record(self, cx, cy, half, cap):
            got = original(self, cx, cy, half, cap)
            calls.append((self, *(np.array(a, dtype=float) for a in (cx, cy, half, cap)), got))
            return got

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(PolygonDomain, "cube_boundary_distance_capped", record)
            refine_for_qh(whitney_decompose(comb_domain(), 9))
        return calls

    def test_sweep_calls_match_reference(self, sweep_calls):
        assert len(sweep_calls) > 9
        assert any(np.ndim(c[4]) == 0 for c in sweep_calls)
        assert any(np.ndim(c[4]) == 1 for c in sweep_calls)
        for domain, cx, cy, half, cap, got in sweep_calls:
            assert bits(got) == bits(reference_capped(domain, cx, cy, half, cap))

    @pytest.mark.parametrize("chunk", [7, domains.POINT_SEGMENT_CHUNK])
    def test_scalar_and_array_cap(self, monkeypatch, chunk):
        monkeypatch.setattr(domains, "POINT_SEGMENT_CHUNK", chunk)
        domain = comb_domain()
        rng = np.random.default_rng(17)
        cx, cy = rng.uniform(-0.2, 1.2, (2, 4000))
        half = 2.0 ** -rng.integers(4, 12, 4000).astype(float)
        for cap in (0.05, 8.0 * half, rng.uniform(0.0, 0.1, 4000)):
            got = domain.cube_boundary_distance_capped(cx, cy, half, cap)
            assert bits(got) == bits(reference_capped(domain, cx, cy, half, cap))

    def test_far_cubes_give_cap_and_crossed_give_zero(self):
        domain = comb_domain()
        # no edge within reach: far outside, and the centre of the first room
        fx, fy = np.array([-5.0, 3.0, 0.1]), np.array([-5.0, 3.0, 0.7])
        half = np.full(3, 0.01)
        assert np.all(domain.cube_boundary_distance_capped(fx, fy, half, 0.05) == 0.05)
        cap = np.array([0.01, 0.02, 0.03])
        assert bits(domain.cube_boundary_distance_capped(fx, fy, half, cap)) == bits(cap)
        b = domain.boundary_points(300)
        half = np.full(len(b), 2.0 ** -12)
        got = domain.cube_boundary_distance_capped(b[:, 0], b[:, 1], half, 8.0 * half)
        assert np.all(got == 0.0)
        assert bits(got) == bits(reference_capped(domain, b[:, 0], b[:, 1], half, 8.0 * half))
        assert domain.cube_boundary_distance_capped(np.zeros(0), np.zeros(0), np.zeros(0),
                                                    0.1).shape == (0,)


def u_shape():
    # concave, with horizontal edges at every vertex ordinate
    return PolygonDomain(np.array([[0.0, 0.0], [3.0, 0.0], [3.0, 2.0], [2.0, 2.0],
                                   [2.0, 1.0], [1.0, 1.0], [1.0, 2.0], [0.0, 2.0]]),
                         name="U")


class TestStripContains:
    """The strip-pruned containment test against every edge, bit for bit."""

    @pytest.mark.parametrize("make", [comb_domain, equilateral_triangle_domain, u_shape])
    def test_matches_all_edges(self, make):
        domain = make()
        v = domain.vertices
        w = np.roll(v, -1, axis=0)
        x0, y0, x1, y1 = domain.bbox()
        xm, ym = (x0 + x1) / 2.0, (y0 + y1) / 2.0
        rng = np.random.default_rng(21)
        t = rng.uniform(0.0, 1.0, (64, 1, 1))
        along = (v + t * (w - v)).reshape(-1, 2)    # on every edge, axis-parallel ones too
        rows = np.column_stack([rng.uniform(x0 - 0.1, x1 + 0.1, 4000),
                                rng.choice(v[:, 1], 4000)])
        seeded = rng.uniform([x0 - 0.2, y0 - 0.2], [x1 + 0.2, y1 + 0.2], (5000, 2))
        outside = np.array([[x0 - 1.0, ym], [x1 + 1.0, ym], [xm, y0 - 1.0], [xm, y1 + 1.0],
                            [np.nextafter(x0, -np.inf), ym], [xm, np.nextafter(y1, np.inf)],
                            [1e300, ym], [-np.inf, ym], [xm, np.inf]])
        nan = np.array([[np.nan, ym], [xm, np.nan], [np.nan, np.nan]])
        pts = np.concatenate([v, (v + w) / 2.0, along, rows, seeded, outside, nan])
        got = domain.contains(pts)
        assert got.dtype == bool and got.shape == (len(pts),)
        assert bits(got) == bits(points_in_polygon(pts, v))
        assert got.any() and not got.all()
        assert not domain.contains(nan).any()
        assert domain.contains(np.zeros((0, 2))).shape == (0,)

    def test_strips_prune(self):
        ys, indptr, indices = comb_domain()._strips
        count = np.diff(indptr)
        assert len(count) == len(ys) - 1 and count.min() >= 2
        assert count.mean() < len(comb_domain().vertices) / 4


class TestGroupPrune:
    @pytest.mark.parametrize("make", [comb_domain, equilateral_triangle_domain])
    def test_shuffled_mixed_levels_match_uncapped(self, make):
        # shuffled cubes put far-apart cubes in one group, so most groups pass
        w = refine_for_qh(whitney_decompose(make(), 8))
        rng = np.random.default_rng(23)
        pick = rng.permutation(len(w))[:6000]
        assert len(np.unique(w.levels[pick])) > 3
        cx, cy = w.centers[pick, 0], w.centers[pick, 1]
        half = w.side[pick] / 2.0
        exact = w.domain.cube_boundary_distance(cx, cy, half)
        for cap in (0.01, 8.0 * w.side[pick], rng.uniform(0.0, 0.05, len(pick))):
            got = w.domain.cube_boundary_distance_capped(cx, cy, half, cap)
            assert bits(got) == bits(np.minimum(exact, cap))
            assert (got < cap).any() and (got == cap).any()
