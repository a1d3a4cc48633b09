import numpy as np
import pytest

from detourkit import geometry
from detourkit.domains import (PolygonDomain, _box_segment_distance, comb_domain,
                               equilateral_triangle_domain)
from detourkit.errors import OracleError
from detourkit.geometry import polygon_boundary_distance, segment_distance
from detourkit.whitney import WhitneyDecomposition, refine_for_qh, whitney_decompose


def bits(x):
    return np.ascontiguousarray(x, dtype=float).tobytes()


def box_reference(domain, pts, block=4096):
    """Boundary distance through the box kernel at half = 0."""
    pts = np.atleast_2d(pts)
    edges = domain._edges()
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
