import math
from fractions import Fraction

import numpy as np
import pytest

from detourkit.errors import IllConditionedError, ResourceLimitError
from detourkit.fractals import (CARPET_MAX_LEVEL, GASKET_MAX_LEVEL,
                                HoleComponents, TangentCircleTriple,
                                _interstice_corners,
                                apollonian,
                                cantor_staircase, carpet_hole_cells,
                                carpet_levels,
                                gasket_levels, julia_raster, raster_to_pgm,
                                soddy_circles, staircase_array,
                                verify_nested_construction)
from detourkit.geometry import (Circle, Point, SceneComponent,
                                _polygon_signed_area)

SQRT3 = math.sqrt(3.0)


def _point_in_triangles(pt: np.ndarray, tris: np.ndarray) -> int:
    """Index of the first triangle strictly containing ``pt``, else -1."""
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    d1 = (b[:, 0] - a[:, 0]) * (pt[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (pt[0] - a[:, 0])
    d2 = (c[:, 0] - b[:, 0]) * (pt[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (pt[0] - b[:, 0])
    d3 = (a[:, 0] - c[:, 0]) * (pt[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (pt[0] - c[:, 0])
    inside = ((d1 > 0) & (d2 > 0) & (d3 > 0)) | ((d1 < 0) & (d2 < 0) & (d3 < 0))
    hits = np.flatnonzero(inside)
    return int(hits[0]) if len(hits) else -1


class TestGasket:
    def test_level_one_matches_construction(self):
        # one subdivision: 3 solid triangles of side 1/2, the middle removed
        g = gasket_levels(1)
        assert g.n_solids(1) == 3
        assert g.max_solid_diameter(1) == 0.5
        assert g.n_holes_at(1) == 1
        assert g.hole_diameters(1)[0] == 0.5

    def test_level_zero(self):
        g = gasket_levels(0)
        assert g.n_solids(0) == 1
        assert g.max_solid_diameter(0) == 1.0
        assert g.n_holes_cumulative(0) == 0

    def test_level_three_recurrence(self):
        # solids(m) = 3 solids(m-1), holes(m) = holes(m-1) + solids(m-1)
        g = gasket_levels(3)
        solids, holes = 1, 0
        for _ in range(3):
            holes += solids
            solids *= 3
        assert g.n_solids(3) == solids == 27
        assert g.n_holes_cumulative(3) == holes == 13

    def test_outer_triangle_placement(self):
        g = gasket_levels(0)
        v = g.levels[0].solids[0]
        assert np.allclose(v, [[0, 0], [1, 0], [0.5, SQRT3 / 2]])

    def test_diameter_square_series_exact(self):
        # sum over holes of diam^2 through level m is 1 - (3/4)^m in rationals
        g = gasket_levels(8)
        total = Fraction(0)
        for j in range(1, 9):
            for w in g.hole_diameters(j):
                frac = Fraction(w)
                total += frac * frac
        assert total == 1 - Fraction(3, 4) ** 8

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            gasket_levels(GASKET_MAX_LEVEL + 1)

    def test_solids_interior_disjoint_desk_scale(self):
        g = gasket_levels(4)
        tris = g.levels[4].solids
        centers = tris.mean(axis=1)
        # no solid centroid falls inside any other solid
        for i, c in enumerate(centers):
            others = np.delete(tris, i, axis=0)
            assert _point_in_triangles(c, others) == -1

    def test_holes_inside_parent_solids(self):
        g = gasket_levels(3)
        for m in range(1, 4):
            holes = g.levels[m].holes
            parents = g.levels[m - 1].solids
            for h in holes:
                assert _point_in_triangles(h.mean(axis=0), parents) >= 0


class TestCarpet:
    def test_level_one(self):
        c = carpet_levels(1)
        assert c.n_solids(1) == 8
        assert c.n_holes_at(1) == 1
        comp = c.hole_components(1)[0]
        v = comp.shape.vertices
        assert v[:, 0].max() - v[:, 0].min() == pytest.approx(1.0 / 3.0)

    def test_level_zero(self):
        c = carpet_levels(0)
        assert c.n_solids(0) == 1
        assert c.n_holes_cumulative(0) == 0

    def test_level_two_recurrence(self):
        c = carpet_levels(2)
        assert c.n_solids(2) == 64
        assert c.n_holes_cumulative(2) == 9

    def test_resource_guard(self):
        with pytest.raises(ResourceLimitError):
            carpet_levels(CARPET_MAX_LEVEL + 1)
        with pytest.raises(ResourceLimitError):
            next(carpet_hole_cells(CARPET_MAX_LEVEL + 1))

    def test_hole_cells_match_levels(self):
        walk = list(carpet_hole_cells(4))
        levels = carpet_levels(4).levels[1:]
        assert len(walk) == len(levels) == 4
        assert all(np.array_equal(a, lv.holes) for a, lv in zip(walk, levels))


class TestHoleLevels:
    @pytest.mark.parametrize("f", [
        gasket_levels(4), carpet_levels(3),
        apollonian(TangentCircleTriple.three_unit(), 0.05),
    ], ids=["gasket", "carpet", "apollonian"])
    def test_matches_removal_order(self, f):
        # reference: hole k belongs to the first level whose cumulative hole
        # count reaches k
        for top in (f.max_level, 1):
            levels = f.hole_levels(top)
            expect = [next(j for j in range(top + 1)
                           if k <= f.n_holes_cumulative(j))
                      for k in range(1, f.n_holes_cumulative(top) + 1)]
            assert levels.dtype.kind == "i"
            assert levels.tolist() == expect
            assert [c.index for c in f.hole_components(top)] \
                == list(range(1, len(levels) + 1))


class TestHoleArrays:
    KINDS = [gasket_levels(3), carpet_levels(2),
             apollonian(TangentCircleTriple.three_unit(), 0.1)]
    IDS = ["gasket", "carpet", "apollonian"]

    @pytest.mark.parametrize("f", KINDS, ids=IDS)
    def test_boundary_points_match_components(self, f):
        holes = HoleComponents(f)
        for n in (7, 64):
            for stop in (0, 1, len(holes)):
                pts, sizes = holes.boundary_points(n, stop)
                assert len(sizes) == stop and len(pts) == sizes.sum()
                ends = np.cumsum(sizes)
                for pos in range(stop):
                    assert np.array_equal(pts[ends[pos] - sizes[pos]:ends[pos]],
                                          holes[pos].boundary_points(n))

    @pytest.mark.parametrize("f", KINDS, ids=IDS)
    def test_areas_follow_diameters(self, f):
        for j in range(f.max_level + 1):
            comps = [c for c, lv in zip(f.hole_components(j), f.hole_levels(j))
                     if lv == j]
            if f.kind == "apollonian":
                expect = [math.pi * c.shape.radius ** 2 for c in comps]
            else:
                expect = [_polygon_signed_area(c.shape.vertices) for c in comps]
            assert f.hole_areas(j) == pytest.approx(expect, rel=1e-14, abs=0)

    def test_positions_are_non_negative_ints(self):
        holes = HoleComponents(gasket_levels(2))
        assert holes[np.int64(3)].index == 4
        for pos in (-1, len(holes)):
            with pytest.raises(IndexError):
                holes[pos]
        with pytest.raises(TypeError):
            holes[:2]


class TestSoddy:
    def test_inner_radius(self):
        # oracle by symmetry: the inner circle sits at the centroid of the
        # three unit-circle centers, so r = |centroid - center| - 1
        t = TangentCircleTriple.three_unit()
        centers = np.array([[0, 0], [2, 0], [1, SQRT3]], dtype=float)
        centroid = centers.mean(axis=0)
        r_expect = np.linalg.norm(centroid - centers[0]) - 1.0
        inner, outer = soddy_circles(t)
        assert inner.shape.radius == pytest.approx(r_expect, abs=1e-10)
        assert inner.shape.radius == pytest.approx(1.0 / (3.0 + 2.0 * SQRT3),
                                                   abs=1e-9)

    def test_outer_radius_and_flag(self):
        t = TangentCircleTriple.three_unit()
        centers = np.array([[0, 0], [2, 0], [1, SQRT3]], dtype=float)
        centroid = centers.mean(axis=0)
        r_expect = np.linalg.norm(centroid - centers[0]) + 1.0
        _, outer = soddy_circles(t)
        assert outer.shape.radius == pytest.approx(r_expect, abs=1e-10)
        assert outer.shape.radius == pytest.approx(1.0 / (2.0 * SQRT3 - 3.0),
                                                   abs=1e-9)
        assert not outer.bounded and outer.index == 0

    def test_tangency_residuals(self):
        t = TangentCircleTriple.three_unit()
        inner, outer = soddy_circles(t)
        for comp in t.circles():
            d = math.hypot(inner.shape.center.x - comp.center.x,
                           inner.shape.center.y - comp.center.y)
            assert abs(d - (inner.shape.radius + comp.radius)) < 1e-9
            d = math.hypot(outer.shape.center.x - comp.center.x,
                           outer.shape.center.y - comp.center.y)
            assert abs(d - (outer.shape.radius - comp.radius)) < 1e-9

    def test_gap_rejected(self):
        comps = [SceneComponent(i + 1, Circle(Point(*c), 1.0))
                 for i, c in enumerate([(0, 0), (2.5, 0), (1, SQRT3)])]
        with pytest.raises(IllConditionedError):
            TangentCircleTriple(*comps)


@pytest.fixture(scope="module")
def packing():
    return apollonian(TangentCircleTriple.three_unit(), 0.05)


class TestApollonian:
    def test_generation_one_present(self, packing):
        gen1 = packing.circles.radii[packing.circles.levels == 1]
        inner = 1.0 / (3.0 + 2.0 * SQRT3)
        assert any(abs(r - inner) < 1e-9 for r in gen1)

    def test_generation_two_smaller_than_inner(self, packing):
        c = packing.circles
        inner = 1.0 / (3.0 + 2.0 * SQRT3)
        gen2 = c.radii[c.levels == 2]
        # children of the central interstice are smaller than its incircle;
        # outer-gap children may exceed it, so compare within the triple gap
        assert gen2.min() < inner

    def test_cutoff_above_first_children_keeps_seeds_only(self):
        # every first-generation circle has radius < 0.6, so nothing beyond
        # the three seeds and the enclosing circle is emitted
        small = apollonian(TangentCircleTriple.three_unit(), 0.6)
        assert len(small.circles.radii) == 4

    def test_area_budget(self, packing):
        c = packing.circles
        r0 = c.radii[c.enclosing][0]
        bounded = c.radii[~c.enclosing]
        assert math.pi * float(np.sum(bounded ** 2)) <= math.pi * r0 ** 2

    def test_pairwise_interior_disjoint(self, packing):
        c = packing.circles
        sel = ~c.enclosing
        ctr = c.centers[sel]
        rad = c.radii[sel]
        d = np.hypot(ctr[:, None, 0] - ctr[None, :, 0],
                     ctr[:, None, 1] - ctr[None, :, 1])
        overlap = d - (rad[:, None] + rad[None, :])
        np.fill_diagonal(overlap, 1.0)
        assert overlap.min() >= -1e-9

    def test_all_tangency_residuals(self, packing):
        rep = verify_nested_construction(packing, tol=1e-9)
        assert rep.passed, rep.contact_violations[:3]

    def test_interstice_corners_on_both_circles(self, packing):
        # corner m of an interstice is the tangency point of its wall pair m,
        # also where one wall of the pair is the enclosing circle
        c = packing.circles
        for triples in packing.interstices:
            corners = _interstice_corners(c, triples)
            for m, pair in enumerate(((0, 1), (0, 2), (1, 2))):
                for wall in pair:
                    ids = triples[:, wall]
                    d = np.hypot(corners[:, m, 0] - c.centers[ids, 0],
                                 corners[:, m, 1] - c.centers[ids, 1])
                    assert np.abs(d - c.radii[ids]).max() <= 1e-12

    def test_max_new_radius_decreasing(self, packing):
        c = packing.circles
        tops = [c.radii[c.levels == g].max()
                for g in range(1, int(c.levels.max()) + 1)
                if np.any(c.levels == g)]
        assert all(b < a for a, b in zip(tops, tops[1:]))


class TestCantorStaircase:
    @staticmethod
    def midpoint_oracle(x, depth=40):
        # independent evaluation via the self-similar midpoint recursion
        if depth == 0:
            return 0.5
        if x <= 0:
            return 0.0
        if x >= 1:
            return 1.0
        if x <= 1.0 / 3.0:
            return TestCantorStaircase.midpoint_oracle(3 * x, depth - 1) / 2.0
        if x >= 2.0 / 3.0:
            return 0.5 + TestCantorStaircase.midpoint_oracle(3 * x - 2, depth - 1) / 2.0
        return 0.5

    def test_endpoints(self):
        assert cantor_staircase(0.0) == 0.0
        assert cantor_staircase(1.0) == 1.0

    def test_one_third(self):
        assert cantor_staircase(1.0 / 3.0) == pytest.approx(
            self.midpoint_oracle(1.0 / 3.0), abs=1e-12)
        assert cantor_staircase(1.0 / 3.0) == pytest.approx(0.5, abs=1e-12)

    def test_one_quarter(self):
        assert cantor_staircase(0.25, 60) == pytest.approx(
            self.midpoint_oracle(0.25, 60), abs=1e-12)
        assert cantor_staircase(0.25, 60) == pytest.approx(1.0 / 3.0, abs=1e-12)

    def test_clamp_warns(self):
        with pytest.warns(UserWarning):
            assert cantor_staircase(1.5) == 1.0

    def test_monotone_large_sample(self):
        rng = np.random.default_rng(11)
        xs = np.sort(rng.uniform(0, 1, 20_000))
        h = staircase_array(xs)
        assert np.all(np.diff(h) >= 0)

    def test_array_matches_scalar(self):
        xs = np.array([0.0, 0.1, 0.25, 1 / 3, 0.5, 2 / 3, 0.77, 1.0])
        arr = staircase_array(xs, 48)
        for x, v in zip(xs, arr):
            assert v == cantor_staircase(float(x), 48)


class TestJuliaRaster:
    def test_squaring_map_unit_disk(self):
        # for z -> z^2 the bounded-orbit set is the closed unit disk
        counts = julia_raster("z2+lambda/z2", 0.0, grid=17, max_iter=40)
        xs = np.linspace(-2, 2, 17)
        mid = 8  # row y = 0
        for i, x in enumerate(xs):
            bounded = counts[mid, i] == 40
            assert bounded == (abs(x) <= 1.0)

    def test_far_pixel_escapes_fast(self):
        # direct iteration: |10^2 - 16/(27*10)| > 4 after one step
        z = 10.0 + 0.0j
        steps = 0
        while abs(z) <= 4.0 and steps < 5:
            z = z * z - 16.0 / (27.0 * z)
            steps += 1
        assert steps <= 5
        counts = julia_raster("z2-16/27z", grid=5, max_iter=16, window=10.0)
        # corner pixel sits at z = 10 + 10j, farther than 10; escapes early
        assert counts[-1, -1] <= 5

    @pytest.mark.parametrize("map_id,lam", [("z2+lambda/z2", 0.3 + 0.1j),
                                            ("z2-16/27z", 0.0)])
    def test_live_pixels_match_full_grid(self, map_id, lam):
        # reference: step every pixel each iteration, freezing escaped ones
        xs = np.linspace(-2.0, 2.0, 64)
        z = xs[None, :] + 1j * xs[:, None]
        expect = np.full(z.shape, 64, dtype=np.int32)
        alive = np.ones(z.shape, dtype=bool)
        for it in range(64):
            with np.errstate(all="ignore"):
                znew = (z * z + lam / (z * z) if map_id == "z2+lambda/z2"
                        else z * z - 16.0 / (27.0 * z))
            z = np.where(alive, znew, z)
            escaped = alive & (~np.isfinite(z) | (np.abs(z) > 4.0))
            expect[escaped] = it + 1
            alive &= ~escaped
        assert np.array_equal(julia_raster(map_id, lam, grid=64), expect)

    def test_zero_iterations(self):
        counts = julia_raster("z2-16/27z", grid=8, max_iter=0)
        assert np.all(counts == 0)

    def test_resolution_guard(self):
        with pytest.raises(ResourceLimitError):
            julia_raster("z2-16/27z", grid=5000)

    def test_pgm_header(self):
        counts = julia_raster("z2-16/27z", grid=8, max_iter=8)
        blob = raster_to_pgm(counts, 8)
        assert blob.startswith(b"P5\n8 8\n255\n")
        assert len(blob) == len(b"P5\n8 8\n255\n") + 64


class TestVerifyNested:
    def test_gasket_passes(self):
        rep = verify_nested_construction(gasket_levels(3))
        assert rep.passed
        assert rep.max_solid_diameter == [1.0, 0.5, 0.25, 0.125]
        assert rep.component_counts == [1, 3, 9, 27]

    def test_apollonian_depth_two_passes(self):
        packing = apollonian(TangentCircleTriple.three_unit(), 0.12)
        rep = verify_nested_construction(packing, tol=1e-9)
        assert rep.passed

    def test_mutated_gasket_detected(self):
        g = gasket_levels(2)
        levels = [lv for lv in g.levels]
        holes = levels[1].holes.copy()
        center = holes[0].mean(axis=0)
        holes[0] = center + 0.5 * (holes[0] - center)  # shrink about center
        from detourkit.fractals import FractalApproximation, FractalLevel

        mutated = FractalApproximation("gasket", [
            levels[0], FractalLevel(levels[1].solids, holes), levels[2]])
        rep = verify_nested_construction(mutated)
        assert not rep.passed
        assert any("no contact" in v for v in rep.contact_violations)
