import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from detourkit import detour as dt
from detourkit.detour import VERTEX_TOL
from detourkit.errors import EmptySetError, InvalidShapeError
from detourkit.fractals import carpet_levels, gasket_levels
from detourkit.geometry import (TOL, Circle, Interval1D, Line, Point, Polygon,
                                SceneComponent, component_closures_intersect,
                                hausdorff_distance, line_component_hits,
                                points_in_polygon, polygon_boundary_distance,
                                polygons_line_hits, scene_from_json,
                                scene_to_json, segment_distance)


def unit_circle(index=1):
    return SceneComponent(index, Circle(Point(0.0, 0.0), 1.0))


def unit_square(index=1):
    return SceneComponent(index, Polygon(np.array(
        [[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])))


class TestDistanceToComponent:
    """SceneComponent.boundary_distance: distance to the boundary curve."""

    def test_circle_center(self):
        assert unit_circle().boundary_distance(np.array([[0.0, 0.0]]))[0] == 1.0

    def test_circle_outside_radial(self):
        assert unit_circle().boundary_distance(np.array([[2.0, 0.0]]))[0] == 1.0

    def test_square_center(self):
        # oracle: min over the four edge distances of (0.5, 0.5)
        edges = [0.5, 0.5, 0.5, 0.5]
        assert unit_square().boundary_distance(np.array([[0.5, 0.5]]))[0] == min(edges)

    def test_degenerate_polygon_rejected(self):
        with pytest.raises(InvalidShapeError):
            Polygon(np.array([[0.0, 0.0], [1.0, 0.0]]))

    @given(st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2), st.floats(-2, 2))
    @settings(max_examples=300, deadline=None)
    def test_lipschitz(self, x1, y1, x2, y2):
        d1, d2 = unit_square().boundary_distance(np.array([[x1, y1], [x2, y2]]))
        assert abs(d1 - d2) <= math.hypot(x1 - x2, y1 - y2) + 1e-9


class TestLineComponentHits:
    def test_diameter_chord(self):
        hits = line_component_hits(Line.horizontal(0.0), unit_circle())
        assert len(hits) == 1
        assert hits[0].lo == pytest.approx(-1.0, abs=1e-12)
        assert hits[0].hi == pytest.approx(1.0, abs=1e-12)

    def test_disjoint(self):
        assert line_component_hits(Line.horizontal(2.0), unit_circle()) == []

    def test_tangent_degenerate(self):
        hits = line_component_hits(Line.horizontal(1.0), unit_circle())
        assert len(hits) == 1 and hits[0].degenerate

    def test_square_x_parameterization(self):
        hits = line_component_hits(Line.horizontal(0.25), unit_square())
        assert len(hits) == 1
        assert hits[0].lo == pytest.approx(0.0, abs=1e-12)
        assert hits[0].hi == pytest.approx(1.0, abs=1e-12)

    def test_hit_length_invariant_under_reversal(self):
        line = Line((1.0, 0.2), 0.3)
        flipped = Line((-1.0, -0.2), -0.3)
        assert flipped == line  # canonicalization folds the reversal
        comp = unit_square()
        total = sum(iv.length for iv in line_component_hits(line, comp))
        total2 = sum(iv.length for iv in line_component_hits(flipped, comp))
        assert total == total2

    def test_hits_sorted_disjoint(self):
        # two crossings of a non-convex polygon
        poly = Polygon(np.array([
            [0.0, 0.0], [4.0, 0.0], [4.0, 3.0], [3.0, 3.0], [3.0, 1.0],
            [1.0, 1.0], [1.0, 3.0], [0.0, 3.0]]))
        comp = SceneComponent(1, poly)
        hits = line_component_hits(Line.horizontal(2.0), comp)
        assert len(hits) == 2
        assert hits[0].hi <= hits[1].lo
        assert hits[0].lo == pytest.approx(0.0, abs=1e-9)
        assert hits[0].hi == pytest.approx(1.0, abs=1e-9)
        assert hits[1].lo == pytest.approx(3.0, abs=1e-9)
        assert hits[1].hi == pytest.approx(4.0, abs=1e-9)

    def test_unbounded_component_rejected(self):
        # every line meets the closed exterior in two rays
        outer = SceneComponent(0, Circle(Point(0.0, 0.0), 5.0), bounded=False)
        with pytest.raises(InvalidShapeError):
            line_component_hits(Line.horizontal(0.0), outer)


class TestHausdorff:
    def test_identical_sets(self):
        pts = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
        res = hausdorff_distance(pts, pts)
        assert res.symmetric == 0.0

    def test_single_pair(self):
        res = hausdorff_distance(np.array([[0.0, 0.0]]), np.array([[3.0, 4.0]]))
        assert res.directed_ab == 5.0
        assert res.directed_ba == 5.0

    def test_circle_to_center(self):
        th = np.linspace(0, 2 * math.pi, 100, endpoint=False)
        circle = np.column_stack([np.cos(th), np.sin(th)])
        res = hausdorff_distance(circle, np.array([[0.0, 0.0]]))
        assert res.directed_ab == pytest.approx(1.0, abs=1e-3)

    def test_empty_rejected(self):
        with pytest.raises(EmptySetError):
            hausdorff_distance(np.zeros((0, 2)), np.array([[0.0, 0.0]]))

    @given(st.lists(st.tuples(st.floats(-5, 5), st.floats(-5, 5)),
                    min_size=1, max_size=12))
    @settings(max_examples=150, deadline=None)
    def test_symmetric_output(self, pts):
        a = np.asarray(pts)
        b = a[::-1] + 0.25
        r_ab = hausdorff_distance(a, b)
        r_ba = hausdorff_distance(b, a)
        assert r_ab.symmetric == r_ba.symmetric
        assert r_ab.directed_ab == r_ba.directed_ba

    @given(st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=1, max_size=8),
           st.lists(st.tuples(st.floats(-3, 3), st.floats(-3, 3)),
                    min_size=1, max_size=8))
    @settings(max_examples=150, deadline=None)
    def test_triangle_inequality(self, pa, pb, pc):
        a, b, c = (np.asarray(p) for p in (pa, pb, pc))
        dab = hausdorff_distance(a, b).symmetric
        dbc = hausdorff_distance(b, c).symmetric
        dac = hausdorff_distance(a, c).symmetric
        assert dac <= dab + dbc + 1e-9


class TestClosuresIntersect:
    def test_externally_tangent(self):
        a = unit_circle(1)
        b = SceneComponent(2, Circle(Point(2.0, 0.0), 1.0))
        assert component_closures_intersect(a, b, 1e-9)

    def test_gap(self):
        a = unit_circle(1)
        b = SceneComponent(2, Circle(Point(3.0, 0.0), 1.0))
        assert not component_closures_intersect(a, b, 1e-9)

    def test_gasket_shared_vertex(self):
        # level-1 solids share the vertex (1/2, 0) by construction
        tris = gasket_levels(1).levels[1].solids
        a = SceneComponent(1, Polygon(tris[0]))
        b = SceneComponent(2, Polygon(tris[1]))
        assert component_closures_intersect(a, b, 1e-9)

    def test_nested_circles_touch(self):
        a = unit_circle(1)
        b = SceneComponent(2, Circle(Point(0.2, 0.0), 0.1))
        assert component_closures_intersect(a, b, 1e-9)

    def test_unbounded_vs_interior(self):
        outer = SceneComponent(0, Circle(Point(0.0, 0.0), 5.0), bounded=False)
        inside = SceneComponent(1, Circle(Point(0.0, 0.0), 1.0))
        assert not component_closures_intersect(outer, inside, 1e-9)
        touching = SceneComponent(1, Circle(Point(4.0, 0.0), 1.0))
        assert component_closures_intersect(outer, touching, 1e-9)

    def test_circle_and_polygon_rejected(self):
        # no scene mixes circles and polygons; apart, the pair reaches the
        # boundary distance, which has no circle-polygon case
        tri = SceneComponent(2, Polygon(np.array(
            [[3.0, 0.0], [4.0, 0.0], [4.0, 1.0]])))
        with pytest.raises(InvalidShapeError):
            component_closures_intersect(unit_circle(1), tri, 1e-9)


class TestStackedKernels:
    """The point-segment and crossing-number kernels broadcast points
    (..., 2) against stacked polygons (..., k, 2), with the same float
    operations per pair as a call on one polygon."""

    @pytest.mark.parametrize("polys", [gasket_levels(4).solid_polygons(4),
                                       carpet_levels(2).solid_polygons(2)],
                             ids=["gasket4", "carpet2"])
    def test_bitwise_equal_to_per_polygon_calls(self, polys):
        rng = np.random.default_rng(21)
        nxt = np.roll(polys, -1, axis=1)
        lo, hi = polys.min(axis=(0, 1)), polys.max(axis=(0, 1))
        # random points, vertices and edge midpoints: the parity test's
        # boundary cases
        pts = np.vstack([rng.uniform(lo, hi, (40, 2)), polys[:6].reshape(-1, 2),
                         (polys[6:10] + nxt[6:10]).reshape(-1, 2) / 2.0])
        n, (p, k) = len(pts), polys.shape[:2]

        # all pairs: points (n, 1, 2) against polygons (p, k, 2)
        d = segment_distance(pts[:, None], polys, nxt)
        inside = points_in_polygon(pts[:, None], polys)
        assert d.shape == (n, p, k) and inside.shape == (n, p)
        for j in range(p):
            one = segment_distance(pts, polys[j], nxt[j])
            assert one.shape == (n, k)
            assert d[:, j].tobytes() == one.tobytes()
            assert inside[:, j].tolist() == points_in_polygon(pts, polys[j]).tolist()

        # pairwise: point i against polygon sel[i], its first container if
        # it has one
        sel = np.where(inside.any(axis=1), inside.argmax(axis=1),
                       rng.integers(0, p, n))
        d = segment_distance(pts, polys[sel], nxt[sel])
        inside = points_in_polygon(pts, polys[sel])
        assert d.shape == (n, k) and inside.shape == (n,)
        for i, j in enumerate(sel.tolist()):
            assert d[i].tobytes() == segment_distance(pts[i], polys[j], nxt[j])[0].tobytes()
            assert inside[i] == points_in_polygon(pts[i], polys[j])[0]
        assert inside.any() and not inside.all()


def reference_polygon_line_hits(line, v, tol):
    """The per-polygon line-hit test that polygons_line_hits replaces: one
    edge at a time, then a sequential merge of the sorted parameters."""
    d = np.asarray(line.direction)
    b = line.base
    e = np.roll(v, -1, axis=0) - v
    denom = d[0] * e[:, 1] - d[1] * e[:, 0]
    w = v - b
    params = []
    scale = max(np.abs(v).max(), 1.0)
    for i in range(len(v)):
        if abs(denom[i]) < 1e-14:
            continue
        s = (w[i, 0] * d[1] - w[i, 1] * d[0]) / denom[i]
        if -tol / scale <= s <= 1 + tol / scale:
            params.append((w[i, 0] * e[i, 1] - w[i, 1] * e[i, 0]) / denom[i])
    params = np.sort(np.asarray(params, dtype=float))
    if len(params):
        keep = [params[0]]
        for t in params[1:]:
            if t - keep[-1] > 10 * tol:
                keep.append(t)
        params = np.asarray(keep)
    if len(params) == 0:
        return []
    out = []
    if len(params) == 1:
        pt = line.point_at(params[0])
        if polygon_boundary_distance(pt[None, :], v)[0] <= 10 * tol:
            out.append(Interval1D(params[0], params[0]))
        return out
    mids = (params[:-1] + params[1:]) / 2.0
    inside = points_in_polygon(line.point_at(mids), v)
    i = 0
    while i < len(mids):
        if inside[i]:
            j = i
            while j + 1 < len(mids) and inside[j + 1]:
                j += 1
            out.append(Interval1D(params[i], params[j + 1]))
            i = j + 1
        else:
            i += 1
    if not out:
        pt = line.point_at(params[0])
        if polygon_boundary_distance(pt[None, :], v)[0] <= 10 * tol:
            out.append(Interval1D(params[0], params[0]))
    return out


def _bits(ivs):
    return [(iv.lo.hex(), iv.hi.hex()) for iv in ivs]


def _line_through(p, q):
    dx, dy = q[0] - p[0], q[1] - p[1]
    return Line((dx, dy), (p[1] * dx - p[0] * dy) / math.hypot(dx, dy))


def line_hit_lines(polys, rng):
    """Seeded lines over the box of ``polys``, and lines through vertices:
    horizontal, diagonal and along an edge of a polygon."""
    lo, hi = polys.min(axis=(0, 1)), polys.max(axis=(0, 1))
    lines = [_line_through(p, q) for p, q in rng.uniform(lo, hi, (6, 2, 2))]
    for v in polys[rng.choice(len(polys), min(len(polys), 3), replace=False)]:
        (x, y), nxt = v[0], v[1]
        lines += [Line.horizontal(float(y)),
                  Line((1.0, 1.0), (y - x) / math.sqrt(2.0)),
                  _line_through(v[0], nxt)]
    return lines


def _polygon_sets():
    sets = []
    for name, f in (("gasket8", gasket_levels(8)), ("carpet4", carpet_levels(4))):
        holes = dt.FractalScene(f).holes
        sets += [(f"{name}-solids{j}", f.solid_polygons(j))
                 for j in range(f.max_level + 1)]
        sets += [(f"{name}-holes{j}", holes.vertices[holes.levels == j])
                 for j in range(1, f.max_level + 1)]
    return sets


class TestStackedLineHits:
    """polygons_line_hits gives, polygon for polygon, the interval list of
    the per-polygon test it replaced."""

    @pytest.mark.parametrize("tol", [VERTEX_TOL, TOL], ids=["vertex_tol", "tol"])
    def test_equals_per_polygon_reference(self, tol):
        rng = np.random.default_rng(5)
        n_hit = n_touch = 0
        for name, polys in _polygon_sets():
            for line in line_hit_lines(polys, rng):
                got = polygons_line_hits(line, polys, tol)
                assert len(got) == len(polys)
                # every polygon within reach of the line, and a sample of
                # the rest; the rest must come back empty
                near = dt.near_line(line, polys)
                far = np.setdiff1d(np.arange(len(polys)), near)
                check = np.union1d(near, rng.choice(far, min(len(far), 32),
                                                    replace=False))
                for i in check.tolist():
                    want = reference_polygon_line_hits(line, polys[i], tol)
                    # equal objects, and equal bits down to the sign of zero
                    assert got[i] == want, (name, line, i)
                    assert _bits(got[i]) == _bits(want), (name, line, i)
                    n_hit += bool(want)
                    n_touch += any(iv.lo == iv.hi for iv in want)
                assert not any(got[i] for i in far.tolist())
        assert n_hit > 1000 and n_touch > 10

    def test_empty_stack(self):
        assert polygons_line_hits(Line.horizontal(0.5), np.zeros((0, 3, 2))) == []
        with pytest.raises(InvalidShapeError):
            polygons_line_hits(Line.horizontal(0.5), np.zeros((1, 2, 2)))


class TestTypesAndScene:
    def test_point_rejects_nan(self):
        with pytest.raises(InvalidShapeError):
            Point(float("nan"), 0.0)

    def test_line_canonicalized(self):
        line = Line((0.0, -2.0), 1.5)
        assert line.direction[1] > 0
        assert line.offset == -1.5
        assert abs(math.hypot(*line.direction) - 1.0) < 1e-12

    def test_interval_ordering(self):
        with pytest.raises(InvalidShapeError):
            Interval1D(1.0, 0.0)

    def test_scene_json_round_trip(self):
        comps = [SceneComponent(0, Circle(Point(0, 0), 2.0), bounded=False),
                 unit_square(1)]
        text = scene_to_json(comps, levels=[0, 1])
        back = scene_from_json(text)
        assert len(back) == 2
        assert back[0].index == 0 and not back[0].bounded
        assert isinstance(back[1].shape, Polygon)
        assert scene_to_json(back, levels=[0, 1]) == text

    def test_scene_duplicate_indices_rejected(self):
        with pytest.raises(InvalidShapeError):
            scene_to_json([unit_square(1), unit_circle(1)])

    def test_index_zero_must_be_unbounded(self):
        with pytest.raises(InvalidShapeError):
            SceneComponent(0, Circle(Point(0, 0), 1.0), bounded=True)
