import math

import numpy as np
import pytest

from detourkit import detour as dt
from detourkit.errors import ExceptionalLineError, ResolutionError
from detourkit.fractals import carpet_levels, gasket_levels
from detourkit.geometry import Line

SQRT3 = math.sqrt(3.0)


@pytest.fixture(scope="module")
def gasket6():
    return gasket_levels(6)


@pytest.fixture(scope="module")
def scene6(gasket6):
    return dt.FractalScene(gasket6)


class TestScene:
    def test_gasket_hole_ids_follow_levels(self, gasket6, scene6):
        # locate derives its gasket hole ids from hole_levels; the centroid
        # of every level-j hole triangle must come back as a level-j hole
        # with that triangle as its shape
        for j in range(1, 4):
            for tri in gasket6.levels[j].holes:
                k = scene6.locate(tri.mean(axis=0))
                assert scene6.hole_levels[k - 1] == j
                shape = scene6.component(k).shape.vertices
                assert sorted(map(tuple, shape)) == sorted(map(tuple, tri))


class TestIntervalCover:
    def test_two_solids_and_hole_gap(self, gasket6):
        # just below mid-height the line crosses the left and right level-1
        # solids with the removed middle triangle in between; expected
        # parameters follow from similar triangles on the explicit vertices
        y = SQRT3 / 4.0 - 0.01
        cov = dt.interval_cover(Line.horizontal(y), gasket6, 1)
        assert len(cov) == 2
        assert {c.solid for c in cov} == {0, 1}
        t = y / SQRT3  # horizontal inset of the left outer edge at height y
        left, right = cov
        assert left.interval.lo == pytest.approx(t, abs=1e-9)
        assert left.interval.hi == pytest.approx(0.25 + 0.01 / SQRT3, abs=1e-9)
        assert right.interval.lo == pytest.approx(0.75 - 0.01 / SQRT3, abs=1e-9)
        assert right.interval.hi == pytest.approx(1.0 - t, abs=1e-9)
        assert left.interval.hi < right.interval.lo

    def test_missing_line(self, gasket6):
        assert dt.interval_cover(Line.horizontal(-0.5), gasket6, 2) == []

    def test_single_solid_crossing(self, gasket6):
        cov = dt.interval_cover(Line.vertical(0.05), gasket6, 1)
        assert len(cov) == 1
        assert cov[0].solid == 0
        comp = dt.solid_components(gasket6, 1)[0]
        lo_pt = Line.vertical(0.05).point_at(cov[0].interval.lo)
        hi_pt = Line.vertical(0.05).point_at(cov[0].interval.hi)
        assert comp.boundary_distance(np.array([lo_pt, hi_pt])).max() < 1e-9

    def test_consistent_with_component_hits(self, gasket6):
        # cover intervals are contained in the per-solid hit intervals
        from detourkit.geometry import line_component_hits

        line = Line.horizontal(0.23)
        cov = dt.interval_cover(line, gasket6, 3)
        solids = dt.solid_components(gasket6, 3)
        for cv in cov:
            hits = line_component_hits(line, solids[cv.solid])
            assert any(h.lo - 1e-12 <= cv.interval.lo
                       and cv.interval.hi <= h.hi + 1e-12 for h in hits)


class TestDetourPath:
    def test_construction_passes(self, gasket6, scene6):
        rep = dt.detour_path(Line.horizontal(0.3), gasket6, 0.1, scene=scene6)
        assert rep.ok
        assert rep.level == 4  # smallest level with solids below 0.1
        assert rep.touched_count <= 40
        assert rep.hausdorff_margin <= 0.1

    def test_line_outside_scene(self, gasket6, scene6):
        rep = dt.detour_path(Line.horizontal(-1.0), gasket6, 0.1, scene=scene6)
        assert rep.ok
        assert set(rep.path.touched) == {0}
        # straight segment: all polyline points on the line
        assert rep.hausdorff_margin == 0.0

    def test_exceptional_line_rejected(self, gasket6):
        with pytest.raises(ExceptionalLineError):
            dt.detour_path(Line.horizontal(0.0), gasket6, 0.1)

    def test_epsilon_below_resolution(self, gasket6):
        with pytest.raises(ResolutionError):
            dt.detour_path(Line.horizontal(0.3), gasket6, 1e-4)

    def test_arc_margins_below_epsilon(self, gasket6, scene6):
        rep = dt.detour_path(Line.horizontal(0.3), gasket6, 0.05, scene=scene6)
        assert rep.ok
        assert all(m < 0.05 for m in rep.path.arc_margins)

    def test_touched_monotone_in_epsilon(self, gasket6, scene6):
        rng = np.random.default_rng(21)
        checked = 0
        for _ in range(20):
            y = float(rng.uniform(0.02, SQRT3 / 2 - 0.02))
            line = Line.horizontal(y)
            try:
                coarse = dt.detour_path(line, gasket6, 0.1, scene=scene6)
                fine = dt.detour_path(line, gasket6, 0.05, scene=scene6)
            except ExceptionalLineError:
                continue
            if coarse.ok and fine.ok:
                assert fine.touched_count >= coarse.touched_count
                checked += 1
        assert checked >= 15

    def test_carpet_paths_fail_honestly(self):
        carpet = carpet_levels(4)
        rep = dt.detour_path(Line.horizontal(0.52), carpet, 0.2)
        assert not rep.ok
        assert rep.violations


class TestVerifyDetour:
    def test_end_to_end_batch(self, gasket6, scene6):
        rng = np.random.default_rng(13)
        passed = attempted = 0
        while attempted < 20:
            y = float(rng.uniform(0.0, SQRT3 / 2))
            try:
                rep = dt.detour_path(Line.horizontal(y), gasket6, 0.05,
                                     scene=scene6)
            except ExceptionalLineError:
                continue
            attempted += 1
            if rep.ok and dt.verify_detour(rep.path, gasket6, scene=scene6).all_ok:
                passed += 1
        assert passed == attempted == 20

    def test_planted_hausdorff_violation(self, gasket6, scene6):
        line = Line.horizontal(0.3)
        eps = 0.05
        # a hand-built path wandering 2 eps away from the line
        poly = np.array([[-1.0, 0.3], [0.5, 0.3 + 2 * eps], [2.0, 0.3]])
        bad = dt.DetourPath(poly, frozenset({0}), line, eps, 4)
        ver = dt.verify_detour(bad, gasket6, scene=scene6)
        assert not ver.hausdorff_ok
        assert ver.hausdorff_margin == pytest.approx(2 * eps, abs=1e-12)

    def test_planted_untouched_component(self, gasket6, scene6):
        line = Line.horizontal(0.05)
        rep = dt.detour_path(line, gasket6, 0.1, scene=scene6)
        assert rep.ok
        assert not dt.verify_detour(rep.path, gasket6, scene=scene6).missed_components
        # plant a hole well above the line, so the line misses its closure
        far = next(c for c in scene6.holes
                   if c.shape.vertices[:, 1].min() > 0.3)
        tampered = dt.DetourPath(rep.path.polyline,
                                 rep.path.touched | {far.index},
                                 line, rep.path.epsilon, rep.path.level)
        ver = dt.verify_detour(tampered, gasket6, scene=scene6)
        assert not ver.line_hits_ok
        assert far.index in ver.missed_components

    def test_coverage_gap_detected(self, gasket6, scene6):
        line = Line.horizontal(0.3)
        rep = dt.detour_path(line, gasket6, 0.1, scene=scene6)
        stripped = dt.DetourPath(rep.path.polyline,
                                 frozenset(list(rep.path.touched)[:1]),
                                 line, rep.path.epsilon, rep.path.level)
        ver = dt.verify_detour(stripped, gasket6, scene=scene6)
        assert not ver.coverage_ok


class TestGroupPaths:
    def build(self, gasket6, scene, ys, eps):
        paths = []
        for y in ys:
            rep = dt.detour_path(Line.horizontal(y), gasket6, eps, scene=scene)
            assert rep.ok
            paths.append(rep.path)
        return paths

    def test_disjoint_sets_two_groups(self, gasket6, scene6):
        paths = self.build(gasket6, scene6, [0.05, 0.75], 0.05)
        part = dt.group_paths(paths, gasket6, scene=scene6)
        touched_union = set(paths[0].touched) & set(paths[1].touched)
        if not touched_union:
            # the two corridors are far apart; expect separate groups unless
            # their closures chain through the shared outer component
            assert len(part.groups) in (1, 2)

    def test_shared_component_one_group(self, gasket6, scene6):
        paths = self.build(gasket6, scene6, [0.30, 0.302], 0.05)
        assert set(paths[0].touched) & set(paths[1].touched)
        part = dt.group_paths(paths, gasket6, scene=scene6)
        assert len(part.groups) == 1

    def test_five_close_lines(self, gasket6, scene6):
        ys = [0.301, 0.3015, 0.302, 0.3025, 0.303]
        paths = self.build(gasket6, scene6, ys, 0.05)
        part = dt.group_paths(paths, gasket6, scene=scene6)
        assert len(part.groups) <= 5
        # witness edges re-verified geometrically
        from detourkit.geometry import component_closures_intersect

        for comps, edges in zip(part.touched_sets, part.witness):
            seen = set()
            for a, b in edges:
                assert component_closures_intersect(
                    scene6.component(a), scene6.component(b), 1e-9)
                seen.update((a, b))
            if len(comps) > 1:
                assert seen == set(comps)

    def test_groups_partition_and_disjoint(self, gasket6, scene6):
        paths = self.build(gasket6, scene6, [0.05, 0.3, 0.75], 0.05)
        part = dt.group_paths(paths, gasket6, scene=scene6)
        all_ids = sorted(i for g in part.groups for i in g)
        assert all_ids == [0, 1, 2]
        for i, ta in enumerate(part.touched_sets):
            for tb in part.touched_sets[i + 1:]:
                assert not (ta & tb)


class TestStructuralChecks:
    def test_gasket_hole_diameters(self, gasket6):
        rep = dt.structural_checks(gasket6)
        assert rep.max_hole_diameter == [2.0 ** (-m) for m in range(1, 7)]
        assert rep.strictly_decreasing

    def test_gasket_area_decay_exact(self, gasket6):
        rep = dt.structural_checks(gasket6)
        assert rep.area_fraction == [0.75 ** m for m in range(7)]

    def test_apollonian_radii_decreasing(self):
        from detourkit.fractals import TangentCircleTriple, apollonian

        packing = apollonian(TangentCircleTriple.three_unit(), 0.03)
        rep = dt.structural_checks(packing)
        assert rep.strictly_decreasing
