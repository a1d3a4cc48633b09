import math

import numpy as np
import pytest

from detourkit import detour as dt
from detourkit.errors import ExceptionalLineError, ResolutionError
from detourkit.fractals import (TangentCircleTriple, apollonian, carpet_levels,
                                gasket_levels)
from detourkit.geometry import Line, line_component_hits

SQRT3 = math.sqrt(3.0)


# ---------------------------------------------------------------------------
# reference algorithms: the per-solid and per-hole scans that the array
# queries of the scene replace, kept here to check them against
# ---------------------------------------------------------------------------

def reference_interval_cover(line, f, level, tol=dt.VERTEX_TOL):
    """interval_cover as a line_component_hits scan over every solid."""
    hits = []
    for comp in dt.solid_components(f, level):
        for iv in line_component_hits(line, comp, tol):
            hits.append(dt.CoverInterval(iv, comp.index - 1, iv.degenerate))
    hits.sort(key=lambda h: (h.interval.lo, h.interval.hi))
    out = []
    cursor = -math.inf
    for h in hits:
        if h.interval.lo < cursor - tol:
            continue
        out.append(h)
        cursor = max(cursor, h.interval.hi)
    return out


def _first_strictly_inside(pt, tris):
    a, b, c = tris[:, 0], tris[:, 1], tris[:, 2]
    d1 = (b[:, 0] - a[:, 0]) * (pt[1] - a[:, 1]) - (b[:, 1] - a[:, 1]) * (pt[0] - a[:, 0])
    d2 = (c[:, 0] - b[:, 0]) * (pt[1] - b[:, 1]) - (c[:, 1] - b[:, 1]) * (pt[0] - b[:, 0])
    d3 = (a[:, 0] - c[:, 0]) * (pt[1] - c[:, 1]) - (a[:, 1] - c[:, 1]) * (pt[0] - c[:, 0])
    inside = ((d1 > 0) & (d2 > 0) & (d3 > 0)) | ((d1 < 0) & (d2 < 0) & (d3 < 0))
    hits = np.flatnonzero(inside)
    return int(hits[0]) if len(hits) else -1


def reference_locate(scene, pts):
    """FractalScene.locate as a linear scan, for an array of points: the
    outer test, then the hole triangles level by level for the gasket, or
    every hole component in index order otherwise; -1 stands for None."""
    pts = np.asarray(pts, dtype=float)
    out = np.where(scene.outer._inside_curve(pts, 0.0), -1, 0)
    f = scene.fractal
    if f.kind == "gasket":
        ids = np.arange(1, len(scene.hole_levels) + 1)
        for n in np.flatnonzero(out == -1):
            for j in range(scene.max_level + 1):
                if len(f.levels[j].holes) == 0:
                    continue
                hit = _first_strictly_inside(pts[n], f.levels[j].holes)
                if hit >= 0:
                    out[n] = ids[scene.hole_levels == j][hit]
                    break
        return out
    for comp in scene.holes:
        todo = out == -1
        out[todo & comp.contains(pts, -1e-12)] = comp.index
    return out


def edge_owner_probes(polys):
    """The two points _edge_owner probes beside every edge of the polygons."""
    a = polys.reshape(-1, 2)
    b = np.roll(polys, -1, axis=1).reshape(-1, 2)
    mid = (a + b) / 2.0
    t = b - a
    norm = np.hypot(t[:, 0], t[:, 1])
    nrm = np.column_stack([t[:, 1], -t[:, 0]]) / norm[:, None]
    off = np.maximum(norm * 1e-6, 1e-12)[:, None] * nrm
    return np.vstack([mid + off, mid - off])


def cover_lines(f, rng):
    """Seeded lines, lines through solid vertices, lines touching a solid
    at one vertex only, and lines along solid edges."""
    lines = [Line((math.cos(th), math.sin(th)), float(off))
             for th, off in zip(rng.uniform(0.0, math.pi, 6),
                                rng.uniform(-0.1, 1.0, 6))]
    deep = f.solid_polygons(f.max_level)
    for v in deep[rng.choice(len(deep), 3, replace=False), 0]:
        lines.append(Line.horizontal(float(v[1])))
        lines.append(Line((1.0, 1.0), (v[1] - v[0]) / math.sqrt(2.0)))
    if f.kind == "gasket":
        top = deep[:, 2]  # apex of every solid: its horizontal touches it once
        lines.append(Line.horizontal(float(top[len(top) // 2, 1])))
        lines.append(Line((0.5, SQRT3 / 2.0), 0.0))  # along the left edge
        lines.append(Line.horizontal(0.0))           # along the bottom edge
    else:
        corner = deep[len(deep) // 3, 2]  # upper-right corner, diagonal touch
        lines.append(Line((1.0, -1.0), (corner[0] + corner[1]) / math.sqrt(2.0)))
        lines.append(Line.vertical(1.0 / 3.0))        # along solid edges
        lines.append(Line.horizontal(1.0))
    return lines


@pytest.fixture(scope="module")
def gasket6():
    return gasket_levels(6)


@pytest.fixture(scope="module")
def scene6(gasket6):
    return dt.FractalScene(gasket6)


class TestScene:
    def test_holes_built_lazily_and_memoised(self, gasket6):
        scene = dt.FractalScene(gasket6)
        assert len(scene.holes) == (3 ** 6 - 1) // 2
        assert not scene.holes._built
        comp = scene.component(7)
        assert scene.component(7) is comp
        assert list(scene.holes._built) == [6]
        eager = gasket6.hole_components()
        assert [c.index for c in scene.holes] == [c.index for c in eager]
        assert all(np.array_equal(a.shape.vertices, b.shape.vertices)
                   for a, b in zip(scene.holes, eager))

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


class TestArrayQueriesMatchScans:
    """The array-backed scene queries return what the scans above return."""

    @pytest.mark.parametrize("make", [lambda: gasket_levels(8),
                                      lambda: carpet_levels(4)],
                             ids=["gasket8", "carpet4"])
    def test_interval_cover_every_level(self, make):
        f = make()
        rng = np.random.default_rng(5)
        lines = cover_lines(f, rng)
        for level in range(f.max_level + 1):
            for line in lines:
                assert dt.interval_cover(line, f, level) \
                    == reference_interval_cover(line, f, level), (level, line)

    @pytest.mark.parametrize("make", [
        lambda: gasket_levels(8), lambda: carpet_levels(4),
        lambda: apollonian(TangentCircleTriple.three_unit(), 0.05)],
        ids=["gasket8", "carpet4", "apollonian"])
    def test_locate(self, make):
        f = make()
        scene = dt.FractalScene(f)
        x0, y0, x1, y1 = scene.outer.bbox()
        rng = np.random.default_rng(8)
        pts = [rng.uniform((x0 - 0.1, y0 - 0.1), (x1 + 0.1, y1 + 0.1), (2000, 2))]
        if f.kind == "apollonian":
            ctr, r = scene.holes.centers, scene.holes.radii
            # 1 - 1e-13 lies within the 1e-12 by which a hole is shrunk
            for s in (1 - 1e-6, 1 - 1e-13, 1 + 1e-6):
                pts.append(ctr + r[:, None] * s * np.array([0.6, 0.8]))
            pts.append(ctr)
        else:
            holes = scene.holes.vertices
            some = holes[rng.choice(len(holes), min(len(holes), 400), replace=False)]
            for polys in (f.solid_polygons(2), f.solid_polygons(f.max_level - 3), some):
                pts.append(edge_owner_probes(polys))
            # hole vertices and edge midpoints lie exactly on hole boundaries
            pts += [holes.mean(axis=1), some.reshape(-1, 2),
                    ((some + np.roll(some, -1, axis=1)) / 2.0).reshape(-1, 2)]
        pts = np.vstack(pts)
        found = [scene.locate(p) for p in pts]
        want = reference_locate(scene, pts)
        assert [-1 if k is None else k for k in found] == want.tolist()
        assert {k for k in found if k} == set(range(1, len(scene.holes) + 1))

    @pytest.mark.parametrize("make", [lambda: gasket_levels(6),
                                      lambda: carpet_levels(3)],
                             ids=["gasket6", "carpet3"])
    def test_near_line_keeps_every_hole_hit(self, make):
        # the measure-zero certificate runs the exact test on these only
        scene = dt.FractalScene(make())
        rng = np.random.default_rng(9)
        lines = [Line((math.cos(th), math.sin(th)), float(off))
                 for th, off in zip(rng.uniform(0.0, math.pi, 8),
                                    rng.uniform(-0.5, 2.0, 8))]
        lines += [Line.horizontal(0.5), Line.vertical(1.0 / 3.0)]
        for line in lines:
            near = set(dt.near_line(line, scene.holes.vertices).tolist())
            hit = {k for k, comp in enumerate(scene.holes)
                   if line_component_hits(line, comp)}
            assert hit <= near


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
