import hashlib
import math
import multiprocessing
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from detourkit import detour as dt
from detourkit.certify import measure_zero_bound
from detourkit.errors import (ExceptionalLineError, InvalidShapeError,
                              ResolutionError)
from detourkit.fractals import (TangentCircleTriple, apollonian, carpet_levels,
                                gasket_levels)
from detourkit.geometry import (Line, Polygon, component_closures_intersect,
                                line_component_hits)

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


def reference_edge_owner(scene, a, b, tol=dt.VERTEX_TOL):
    """The owner of the edge [a, b] by one locate and one component
    boundary-distance call per probe, as detour_path found it edge by edge."""
    mid = (a + b) / 2.0
    t = b - a
    norm = math.hypot(t[0], t[1])
    if norm < tol:
        return None
    nrm = np.array([t[1], -t[0]]) / norm
    eps_out = max(norm * 1e-6, 1e-12)
    for side in (1.0, -1.0):
        k = scene.locate(mid + side * eps_out * nrm)
        if k is None:
            continue
        comp = scene.component(k)
        if float(comp.boundary_distance(mid[None, :])[0]) <= 100 * tol + 2 * eps_out:
            return k
    return None


def reference_region_distance(scene, pts, ks, tol=dt.VERTEX_TOL):
    """Coverage distance as verify_detour took it, component by component."""
    cover = np.full(len(pts), np.inf)
    for k in ks:
        cover = np.minimum(cover, scene.component(k).region_distance(pts, tol))
    return cover


def reference_group_paths(paths, scene, tol=dt.VERTEX_TOL):
    """group_paths with every contact answered by the exact predicate."""
    contact = {}

    def touching(a, b):
        if a == b:
            return True
        key = (min(a, b), max(a, b))
        if key not in contact:
            contact[key] = component_closures_intersect(
                scene.component(a), scene.component(b), tol)
        return contact[key]

    parent = list(range(len(paths)))

    def find(i):
        while parent[i] != i:
            i = parent[i]
        return i

    for i in range(len(paths)):
        for j in range(i + 1, len(paths)):
            ri, rj = find(i), find(j)
            if ri != rj and any(touching(a, b) for a in paths[i].touched
                                for b in paths[j].touched):
                parent[max(ri, rj)] = min(ri, rj)
    grouped = {}
    for i in range(len(paths)):
        grouped.setdefault(find(i), []).append(i)
    out = []
    for root in sorted(grouped):
        ids = grouped[root]
        comps = sorted({k for i in ids for k in paths[i].touched})
        edges = []
        seen = {comps[0]} if comps else set()
        frontier = list(seen)
        while frontier:
            cur = frontier.pop()
            for other in comps:
                if other not in seen and touching(cur, other):
                    seen.add(other)
                    frontier.append(other)
                    edges.append((cur, other))
        out.append((frozenset(ids), frozenset(comps), edges))
    return out


def reference_arc_route(poly, entry, exit_):
    """The per-crossing arc route that _arc_routes replaces: boundary route
    from entry to exit on the smaller-diameter side, ties to CCW."""
    n = len(poly)
    d = dt.segment_distance(np.vstack([entry, exit_]), poly, np.roll(poly, -1, axis=0))
    for dj in d.min(axis=1).tolist():
        if dj > 100 * dt.VERTEX_TOL:
            raise RuntimeError(f"point not on polygon boundary (distance {dj:.2e})")
    ei, xi = d.argmin(axis=1).tolist()

    def walk_ccw(e, end_edge, a, b):
        pts = [a]
        while e != end_edge:
            e = (e + 1) % n
            pts.append(poly[e])
        pts.append(b)
        return np.asarray(pts)

    def diam(arr):
        d2 = (arr[:, None, 0] - arr[None, :, 0]) ** 2 \
            + (arr[:, None, 1] - arr[None, :, 1]) ** 2
        return math.sqrt(float(d2.max()))

    ccw = walk_ccw(ei, xi, entry, exit_)
    if ei == xi:
        return ccw, diam(ccw)
    cw = walk_ccw(xi, ei, exit_, entry)[::-1]
    d_ccw, d_cw = diam(ccw), diam(cw)
    return (ccw, d_ccw) if d_ccw <= d_cw else (cw, d_cw)


def reference_exceptional(line, f, level):
    """check_exceptional's message (None when the line passes) over the
    vertex stack it used to build: the level's solid vertices, then every
    gasket hole vertex of the levels up to it."""
    parts = [f.solid_polygons(level).reshape(-1, 2)]
    if f.kind == "gasket":
        parts += [f.levels[j].holes.reshape(-1, 2) for j in range(level + 1)
                  if len(f.levels[j].holes)]
    verts = np.vstack(parts)
    d = line.distance_to_points(verts)
    j = int(np.argmin(d))
    if d[j] <= dt.VERTEX_TOL:
        return f"line passes within {d[j]:.2e} of vertex ({verts[j, 0]}, {verts[j, 1]})"
    return None


def probe_points(scene, rng):
    """Random points over the scene box, edge_owner_probes of solids and
    holes, hole centroids and hole vertices (exactly on hole boundaries)."""
    f = scene.fractal
    x0, y0, x1, y1 = scene.outer.bbox()
    pts = [rng.uniform((x0 - 0.1, y0 - 0.1), (x1 + 0.1, y1 + 0.1), (1500, 2))]
    if scene.holes.vertices is None:
        ctr, r = scene.holes.centers, scene.holes.radii
        for s in (1 - 1e-6, 1 - 1e-13, 1.0, 1 + 1e-6):
            pts.append(ctr + r[:, None] * s * np.array([0.6, 0.8]))
        pts.append(ctr)
    else:
        holes = scene.holes.vertices
        some = holes[rng.choice(len(holes), min(len(holes), 300), replace=False)]
        pts += [edge_owner_probes(f.solid_polygons(2)), edge_owner_probes(some),
                some.mean(axis=1), some.reshape(-1, 2)]
    return np.vstack(pts)


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

    @pytest.mark.parametrize("make", [lambda: gasket_levels(8),
                                      lambda: carpet_levels(4)],
                             ids=["gasket8", "carpet4"])
    def test_hole_arrays_counter_clockwise(self, make):
        # the stacked line-hit checks read the flat hole arrays in place of
        # each hole's Polygon, which would reverse a clockwise array
        holes = dt.FractalScene(make()).holes.vertices
        for v in holes:
            assert np.array_equal(Polygon(v).vertices, v)

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
        assert scene.locate_many(pts).tolist() == want.tolist()
        assert scene.locate_many(pts[:0]).shape == (0,)

    def test_locate_descent_batches(self):
        # the gasket descends all points together and retires them level by
        # level: a scene that stops at level 5 of the 8 generated, a batch
        # that retires whole at level 1 and one with no point inside the
        # outer triangle must agree with the scan too
        f = gasket_levels(8)
        rng = np.random.default_rng(16)

        def inside(tris, n):
            # points strictly inside each triangle, away from its edges
            w = 0.05 + 0.85 * rng.dirichlet(np.ones(3), (n, len(tris)))
            return np.einsum("nsk,skd->nsd", w, tris).reshape(-1, 2)

        solids5 = f.solid_polygons(5)
        pts = np.vstack([inside(solids5, 2), solids5.mean(axis=1)])
        deep, truncated = dt.FractalScene(f), dt.FractalScene(f, 5)
        assert truncated.locate_many(pts).tolist() == [-1] * len(pts)
        assert reference_locate(truncated, pts).tolist() == [-1] * len(pts)
        # the full scene finds them in the holes below level 5
        found = deep.locate_many(pts)
        assert found.tolist() == reference_locate(deep, pts).tolist()
        assert (deep.hole_levels[found[found > 0] - 1] > 5).all()
        assert (found > 0).sum() > len(pts) // 2
        x0, y0, x1, y1 = truncated.outer.bbox()
        box = rng.uniform((x0, y0), (x1, y1), (3000, 2))
        assert truncated.locate_many(box).tolist() \
            == reference_locate(truncated, box).tolist()

        central = inside(f.levels[1].holes, 500)
        for scene in (deep, truncated):
            assert scene.locate_many(central).tolist() == [1] * len(central)
        outside = np.vstack([rng.uniform((-1.0, -1.0), (2.0, -1e-9), (200, 2)),
                             rng.uniform((-1.0, 1.0), (2.0, 2.0), (200, 2))])
        assert deep.locate_many(outside).tolist() == [0] * len(outside)
        assert reference_locate(deep, outside).tolist() == [0] * len(outside)

    @pytest.mark.parametrize("make", [
        lambda: gasket_levels(8), lambda: carpet_levels(4),
        lambda: apollonian(TangentCircleTriple.three_unit(), 0.05)],
        ids=["gasket8", "carpet4", "apollonian"])
    def test_distances_bitwise(self, make):
        # the pairwise kernels repeat the float operations of the component
        # queries, so the values must agree to the last bit
        scene = dt.FractalScene(make())
        rng = np.random.default_rng(10)
        pts = probe_points(scene, rng)
        # holes that contain some of the points, whose vertices are among
        # the points too when they are polygons
        held = sorted({k for k in scene.locate_many(pts).tolist() if k > 0})
        ks = [0] + sorted(rng.choice(held, min(len(held), 40), replace=False).tolist())
        for family in (ks, ks[1:], [0], ks[:3]):
            assert scene.coverage_distance(pts, family).tobytes() \
                == reference_region_distance(scene, pts, family).tobytes()
        pair_ks = rng.choice(ks, len(pts))
        want = [scene.component(k).boundary_distance(p[None, :])[0]
                for p, k in zip(pts, pair_ks.tolist())]
        assert scene.pair_boundary_distance(pts, pair_ks).tobytes() \
            == np.array(want).tobytes()

    @pytest.mark.parametrize("make,level", [(lambda: gasket_levels(8), 5),
                                            (lambda: carpet_levels(4), 3)],
                             ids=["gasket8", "carpet4"])
    def test_edge_owners(self, make, level):
        f = make()
        scene = dt.FractalScene(f)
        rng = np.random.default_rng(12)
        polys = f.solid_polygons(level)
        a = polys.reshape(-1, 2)
        b = np.roll(polys, -1, axis=1).reshape(-1, 2)
        # a zero-length edge and one shorter than the tolerance have no owner
        a = np.vstack([a, a[:2]])
        b = np.vstack([b, a[-2], a[-1] + 1e-10])
        gaps = probe_points(scene, rng)[:500]
        gap_ks, owners = dt._locate_path_points(scene, gaps, a, b, dt.VERTEX_TOL)
        assert gap_ks.tolist() == [-1 if k is None else k
                                   for k in (scene.locate(p) for p in gaps)]
        want = [reference_edge_owner(scene, p, q) for p, q in zip(a, b)]
        assert owners.tolist() == [-1 if k is None else k for k in want]
        assert owners[-2:].tolist() == [-1, -1]
        assert len(set(owners.tolist()) - {-1}) > 20

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


def verify_samples(p):
    """The polyline samples verify_detour measures: the vertices and four
    points inside each segment."""
    ts = np.linspace(0.0, 1.0, 6)[1:-1]
    return np.vstack([p.polyline] + [p.polyline[:-1] * (1 - t) + p.polyline[1:] * t
                                     for t in ts])


@pytest.fixture(scope="module")
def gasket10():
    return gasket_levels(10)


class TestCoveragePrune:
    """coverage_distance measures a point exactly only against the holes
    whose bounding boxes may hold its minimum; on the samples verify_detour
    takes, and on the points where a box bound is weakest, it must equal the
    all-pairs reference to the last bit."""

    @staticmethod
    def same(scene, pts, ks):
        for family in (ks, [0] + ks):
            assert scene.coverage_distance(pts, family).tobytes() \
                == reference_region_distance(scene, pts, family).tobytes()

    def test_gasket10_paths(self, gasket10):
        scene = dt.FractalScene(gasket10)
        rng = np.random.default_rng(17)
        lines = [Line.horizontal(float(u) * SQRT3 / 2.0) for u in rng.uniform(0.05, 0.95, 3)]
        lines += [Line.vertical(float(u)) for u in rng.uniform(0.05, 0.95, 3)]
        sizes = []
        for line in lines:
            rep = dt.detour_path(line, gasket10, 0.01, scene=scene)
            assert rep.ok and rep.level == 7
            ks = sorted(k for k in rep.path.touched if k)
            samples = verify_samples(rep.path)
            box = scene.hole_boxes(ks)
            in_boxes = ((box[:, 0] <= samples[:, :1]) & (samples[:, :1] <= box[:, 2])
                        & (box[:, 1] <= samples[:, 1:]) & (samples[:, 1:] <= box[:, 3]))
            sizes.append((len(samples), len(ks), int(in_boxes.sum(axis=1).max())))
            # the samples themselves, and beside them, where distances are
            # positive and the bound has to prune
            jitter = samples + rng.normal(0.0, 1e-3, samples.shape)
            self.same(scene, np.vstack([samples, jitter]), ks)
        # hundreds of samples against dozens of holes with overlapping boxes
        assert max(n for n, _, _ in sizes) > 400
        assert max(k for _, k, _ in sizes) >= 30
        assert min(b for _, _, b in sizes) >= 2

    def test_shared_vertices_and_box_corners(self, gasket10):
        scene = dt.FractalScene(gasket10, 7)
        rep = dt.detour_path(Line.horizontal(0.2171), gasket10, 0.01, scene=scene)
        ks = sorted(k for k in rep.path.touched if k)
        verts = scene.holes.vertices[np.asarray(ks) - 1].reshape(-1, 2)
        # vertices of touched holes that lie on the closure of another one
        zero = np.stack([scene.component(k).region_distance(verts, dt.VERTEX_TOL) == 0.0
                         for k in ks])
        shared = verts[zero.sum(axis=0) >= 2]
        assert len(shared) > 5
        box = scene.hole_boxes(ks)
        corners = np.vstack([box[:, [0, 1]], box[:, [2, 1]]])   # beside the apex
        assert (reference_region_distance(scene, corners, ks[:1]) > 0).any()
        self.same(scene, np.vstack([shared, corners]), ks)

    def test_carpet_squares(self):
        f = carpet_levels(4)
        scene = dt.FractalScene(f)
        rng = np.random.default_rng(18)
        for line in (Line.horizontal(0.2), Line.vertical(0.71),
                     Line((0.6, 0.8), 0.3)):
            ks = (dt.near_line(line, scene.holes.vertices) + 1).tolist()
            t = line.project(np.array([[0.0, 0.0], [1.0, 1.0]]))
            samples = line.point_at(np.linspace(t.min() - 0.2, t.max() + 0.2, 400))
            sq = scene.holes.vertices[np.asarray(ks) - 1]
            pts = np.vstack([samples, sq.reshape(-1, 2), sq.mean(axis=1),
                             samples + rng.normal(0.0, 1e-3, samples.shape)])
            assert len(ks) >= 8
            self.same(scene, pts, ks)


class TestSceneMismatch:
    """A scene built for another fractal, or for fewer levels than a path
    needs, is refused: its holes would answer for the wrong geometry."""

    line = Line.horizontal(0.2171)

    @pytest.fixture(scope="class")
    def scenes(self, gasket10):
        return {"shallow": dt.FractalScene(gasket10, 3),
                "carpet": dt.FractalScene(carpet_levels(3)),
                "twin": dt.FractalScene(gasket_levels(10))}

    @staticmethod
    def refused(call, scenes):
        for name, match in (("shallow", "stops at level 3, below 7"),
                            ("carpet", "another fractal"),
                            ("twin", "another fractal")):
            with pytest.raises(ValueError, match=match):
                call(scenes[name])

    def test_detour_path(self, gasket10, scenes):
        self.refused(lambda s: dt.detour_path(self.line, gasket10, 0.01, scene=s),
                     scenes)
        assert dt.detour_path(self.line, gasket10, 0.01,
                              scene=dt.FractalScene(gasket10, 7)).ok

    def test_verify_detour(self, gasket10, scenes):
        path = dt.detour_path(self.line, gasket10, 0.01).path
        self.refused(lambda s: dt.verify_detour(path, gasket10, scene=s), scenes)

    def test_group_paths(self, gasket10, scenes):
        paths = [dt.detour_path(line, gasket10, 0.01).path
                 for line in (self.line, Line.horizontal(0.2233))]
        self.refused(lambda s: dt.group_paths(paths, gasket10, scene=s), scenes)


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


UNIT_SQUARE = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])


class TestArcRoutes:
    """_arc_routes answers all crossings of a line at once, with the routes
    and diameters of the per-crossing reference_arc_route."""

    def check(self, polys, entry, exit_):
        routes, diams = dt._arc_routes(polys, entry, exit_)
        assert len(routes) == len(diams) == len(polys)
        for poly, a, b, route, dm in zip(polys, entry, exit_, routes, diams):
            want, want_d = reference_arc_route(poly, a, b)
            assert route.tobytes() == want.tobytes()
            assert dm.hex() == want_d.hex()
        return routes, diams

    @pytest.mark.parametrize("make", [lambda: gasket_levels(8),
                                      lambda: carpet_levels(4)],
                             ids=["gasket8", "carpet4"])
    def test_cover_crossings(self, make):
        f = make()
        rng = np.random.default_rng(9)
        n = 0
        for level in range(1, f.max_level + 1):
            polys = f.solid_polygons(level)
            for line in cover_lines(f, rng):
                arcs = [cv for cv in dt.interval_cover(line, f, level)
                        if not cv.degenerate]
                ts = np.array([(cv.interval.lo, cv.interval.hi)
                               for cv in arcs]).reshape(-1, 2)
                self.check(polys[[cv.solid for cv in arcs]],
                           line.point_at(ts[:, 0]).reshape(-1, 2),
                           line.point_at(ts[:, 1]).reshape(-1, 2))
                n += len(arcs)
        assert n > 500

    def test_entry_and_exit_on_one_edge(self):
        routes, _ = self.check(UNIT_SQUARE[None], np.array([[0.2, 0.0]]),
                               np.array([[0.7, 0.0]]))
        assert routes[0].tolist() == [[0.2, 0.0], [0.7, 0.0]]

    def test_diameter_tie_goes_ccw(self):
        # bottom midpoint to top midpoint: both sides have diameter sqrt(5)/2
        routes, diams = self.check(UNIT_SQUARE[None], np.array([[0.5, 0.0]]),
                                   np.array([[0.5, 1.0]]))
        assert routes[0].tolist() == [[0.5, 0.0], [1.0, 0.0], [1.0, 1.0], [0.5, 1.0]]
        assert diams[0] == math.sqrt(1.25)
        # off the middle the clockwise side is smaller; batched with the tie
        polys = np.stack([UNIT_SQUARE, UNIT_SQUARE, UNIT_SQUARE])
        routes, _ = self.check(polys, np.array([[0.5, 0.0], [0.2, 0.0], [0.9, 1.0]]),
                               np.array([[0.5, 1.0], [0.0, 0.6], [1.0, 0.3]]))
        assert routes[1].tolist() == [[0.2, 0.0], [0.0, 0.0], [0.0, 0.6]]
        assert routes[2].tolist() == [[0.9, 1.0], [1.0, 1.0], [1.0, 0.3]]

    def test_no_crossings(self):
        assert dt._arc_routes(np.zeros((0, 3, 2)), np.zeros((0, 2)),
                              np.zeros((0, 2))) == ([], [])

    def test_point_off_boundary_raises(self):
        polys = np.stack([UNIT_SQUARE, UNIT_SQUARE])
        entry = np.array([[0.2, 0.0], [0.5, 0.0]])
        exit_ = np.array([[0.0, 0.6], [0.5, 0.5]])
        with pytest.raises(RuntimeError, match="not on polygon boundary"):
            reference_arc_route(polys[1], entry[1], exit_[1])
        with pytest.raises(RuntimeError, match=r"distance 5\.00e-01"):
            dt._arc_routes(polys, entry, exit_)


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

    @pytest.mark.parametrize("make", [lambda: gasket_levels(8),
                                      lambda: carpet_levels(4)])
    def test_exceptional_check_matches_vertex_stack(self, make):
        # every gasket hole vertex is a solid vertex of each deeper level,
        # so the solids alone give the same verdicts and messages
        f = make()
        rng = np.random.default_rng(17)
        exceptional = 0
        for m in range(f.max_level + 1):
            solid = f.solid_polygons(m).reshape(-1, 2)
            if f.kind == "gasket":
                holes = np.vstack([f.levels[j].holes.reshape(-1, 2)
                                   for j in range(1, m + 1)] + [np.empty((0, 2))])
                assert set(map(tuple, holes.tolist())) <= set(map(tuple, solid.tolist()))
            picks = solid[rng.choice(len(solid), min(len(solid), 6), replace=False)]
            lines = [Line((math.cos(th), math.sin(th)), float(off))
                     for th, off in zip(rng.uniform(0.0, math.pi, 4),
                                        rng.uniform(-0.1, 1.0, 4))]
            for (x, y), nudge in zip(picks, (0.0, 5e-10, -9e-10, 1.1e-9, -3e-9, 0.0)):
                lines += [Line.horizontal(float(y) + nudge), Line.vertical(float(x) - nudge),
                          Line((1.0, 1.0), (y - x) / math.sqrt(2.0) + nudge)]
            for line in lines:
                want = reference_exceptional(line, f, m)
                try:
                    dt.check_exceptional(line, f, m)
                    got = None
                except ExceptionalLineError as exc:
                    got = str(exc)
                assert got == want, (m, line)
                exceptional += want is not None
        assert exceptional > 10 * f.max_level

    def test_degenerate_crossings(self, gasket6):
        # just below the level-1 hole's bottom edge, the line only touches
        # two level-5 solids at their apexes
        line = Line.horizontal(SQRT3 / 4 - 5e-9)
        rep = dt.detour_path(line, gasket6, 0.05)
        assert rep.ok and rep.level == 5
        cover = dt.interval_cover(line, gasket6, 5)
        assert len(cover) == 2 and all(cv.degenerate for cv in cover)
        ver = dt.verify_detour(rep.path, gasket6)
        assert ver.all_ok and ver.coverage_margin == 0.0
        poly = rep.path.polyline.tolist()
        for cv in cover:
            assert line.point_at(cv.interval.lo).tolist() in poly

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

    def test_report_digest_random_lines(self):
        # horizontal, vertical and oblique lines through gasket and carpet
        # scenes; oblique lines reach the missed-component check, which the
        # axis-parallel golden artifacts of the CLI never do.  Every report
        # is encoded with repr and tobytes, not pickle, whose bytes depend on
        # the Python version.
        rng = np.random.default_rng(22)
        lines = ([Line.horizontal(float(y)) for y in rng.uniform(-0.05, 1.0, 12)]
                 + [Line.vertical(float(x)) for x in rng.uniform(-0.05, 1.05, 12)]
                 + [Line((math.cos(th), math.sin(th)), float(off))
                    for th, off in zip(rng.uniform(0.0, math.pi, 12),
                                       rng.uniform(-0.1, 1.0, 12))])
        h = hashlib.sha256()
        counts = {"ok": 0, "failed": 0, "missed": 0}
        for f, epsilons in ((gasket_levels(6), (0.1, 0.02)),
                            (carpet_levels(3), (0.2, 0.1))):
            scene = dt.FractalScene(f)
            for eps in epsilons:
                for line in lines:
                    rep = dt.detour_path(line, f, eps, scene=scene)
                    key = [rep.status, rep.level, rep.violations,
                           rep.hausdorff_margin, rep.touched_count]
                    if rep.path is not None:
                        key += [sorted(rep.path.touched), list(rep.path.arc_margins)]
                        h.update(rep.path.polyline.tobytes())
                    h.update(repr(key).encode() + b"\n")
                    counts[rep.status] += 1
                    counts["missed"] += sum("is missed by the line" in v
                                            for v in rep.violations)
        assert counts == {"ok": 90, "failed": 54, "missed": 76}
        assert h.hexdigest() == \
            "4d4c013f5a80f6895c8fc96c46a4ae0b2bebfd041ecd99b19ed470071bc7ea2a"

    def test_violations_in_walk_order(self, gasket6, scene6, monkeypatch):
        # the arc-diameter, gap-midpoint and straying checks cannot fire by
        # construction; planted wide arcs, a shifted route, and gaps and
        # edges that locate nothing make every kind of violation fire
        arc_routes, locate = dt._arc_routes, dt._locate_path_points

        def wide_arcs(*args):
            routes, diams = arc_routes(*args)
            routes[1] = routes[1] + [0.0, 0.25]
            return routes, [d * (1 + 4 * (i % 2)) for i, d in enumerate(diams)]

        def lost_points(*args):
            gap_ks, owners = locate(*args)
            gap_ks[::2], owners[::3] = -1, -1
            return gap_ks, owners

        monkeypatch.setattr(dt, "_arc_routes", wide_arcs)
        monkeypatch.setattr(dt, "_locate_path_points", lost_points)
        rep = dt.detour_path(Line((1.0, 0.4), 0.2), gasket6, 0.1, scene=scene6)
        kinds = [" ".join(v.split()[:2]) for v in rep.violations]
        assert kinds == ["gap midpoint", "arc edge", "replacement arc", "arc edge",
                         "arc edge", "gap midpoint", "replacement arc", "arc edge",
                         "gap midpoint", "arc edge", "replacement arc",
                         "gap midpoint", "path strays"]
        assert hashlib.sha256("\n".join(rep.violations).encode()).hexdigest() == \
            "fdb659833aef65ffdcca28655737c37900227ecb1b1219ba52ed7eb6888e4c2c"


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

    def test_packing_holes_rejected(self):
        # packing holes are circles, which the stacked line-hit test of the
        # touched holes does not take
        f = apollonian(TangentCircleTriple.three_unit(), 0.05)
        path = dt.DetourPath(np.zeros((2, 2)), frozenset({0, 1}),
                             Line.horizontal(0.0), 0.1, 0)
        with pytest.raises(InvalidShapeError, match="polygonal holes"):
            dt.verify_detour(path, f)

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


class TestGroupPrune:
    """group_paths skips the exact contact test for holes whose boxes lie
    apart; its partition must equal the unpruned reference's."""

    @staticmethod
    def same(paths, scene):
        part = dt.group_paths(paths, scene.fractal, scene=scene)
        got = list(zip(part.groups, part.touched_sets, part.witness))
        assert got == reference_group_paths(paths, scene)
        return part

    def test_gasket8_paths(self):
        f = gasket_levels(8)
        scene = dt.FractalScene(f)
        rng = np.random.default_rng(14)
        paths = []
        for u in rng.uniform(0.02, 0.98, 14):
            try:
                rep = dt.detour_path(Line.horizontal(float(u) * SQRT3 / 2.0), f,
                                     0.05, scene=scene)
            except ExceptionalLineError:
                continue
            assert rep.ok
            paths.append(rep.path)
        assert len(paths) >= 10
        # every path touches the outer component, so all share one group;
        # kept to the holes of their two finest levels, they split up
        assert len(self.same(paths, scene).witness[0]) > 40
        small = [dt.DetourPath(p.polyline, frozenset(
                     k for k in p.touched if k and scene.hole_levels[k - 1] >= p.level - 1),
                     p.line, p.epsilon, p.level) for p in paths]
        part = self.same(small, scene)
        assert 1 < len(part.groups) < len(paths)

    def test_packing_paths(self):
        # singleton paths on every hole, so that each tangency decides a
        # merge; five tangent pairs of this packing have boxes that touch
        # to within rounding, which only a positive margin keeps
        f = apollonian(TangentCircleTriple.three_unit(), 0.05)
        scene = dt.FractalScene(f)
        rng = np.random.default_rng(15)
        n = len(scene.holes)
        touched = [{k} for k in range(1, n + 1)]
        for _ in range(4):
            touched.append(set(rng.choice(np.arange(n + 1), 3, replace=False).tolist()))
        order = rng.permutation(len(touched))
        paths = [dt.DetourPath(np.zeros((2, 2)), frozenset(touched[i]),
                               Line.horizontal(0.0), 0.1, 0) for i in order]
        self.same(paths, scene)


def _report_key(rep):
    p = rep.path
    return (rep.status, rep.level, rep.violations, rep.hausdorff_margin,
            rep.touched_count, p.polyline.tobytes(), p.touched, p.arc_margins)


class TestWorkerProcesses:
    def test_pool_matches_serial(self, gasket6):
        # lines and certificates may run in worker processes, which build
        # their own scenes from the pickled approximation
        lines = [Line.horizontal(0.3), Line.horizontal(0.53),
                 Line.vertical(0.37), Line.vertical(0.61)]
        n = len(lines)
        ctx = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=ctx) as pool:
            cert = pool.submit(measure_zero_bound, gasket6, Line.horizontal(0.3), 4)
            reps = list(pool.map(dt.detour_path, lines, [gasket6] * n,
                                 [0.05] * n, timeout=120))
            vers = list(pool.map(dt.verify_detour, [r.path for r in reps],
                                 [gasket6] * n, timeout=120))
            cert = cert.result(timeout=120)
        serial = [dt.detour_path(line, gasket6, 0.05) for line in lines]
        assert all(r.ok for r in serial)
        assert [_report_key(r) for r in reps] == [_report_key(r) for r in serial]
        assert vers == [dt.verify_detour(r.path, gasket6) for r in serial]
        assert cert == measure_zero_bound(gasket6, Line.horizontal(0.3), 4)


class TestStructuralChecks:
    def test_gasket_hole_diameters(self, gasket6):
        rep = dt.structural_checks(gasket6)
        assert rep.max_hole_diameter == [2.0 ** (-m) for m in range(1, 7)]
        assert rep.strictly_decreasing

    def test_gasket_area_decay_exact(self, gasket6):
        rep = dt.structural_checks(gasket6)
        assert rep.area_fraction == [0.75 ** m for m in range(7)]

    def test_carpet_area_decay(self):
        rep = dt.structural_checks(carpet_levels(4))
        assert rep.kind == "carpet"
        assert rep.area_fraction == pytest.approx([(8.0 / 9.0) ** m for m in range(5)],
                                                  rel=1e-15)

    def test_apollonian_radii_decreasing(self):
        from detourkit.fractals import TangentCircleTriple, apollonian

        packing = apollonian(TangentCircleTriple.three_unit(), 0.03)
        rep = dt.structural_checks(packing)
        assert rep.strictly_decreasing
