import hashlib
import io
import math
from fractions import Fraction

import numpy as np
import pytest

from detourkit import whitney
from detourkit.domains import (DiskDomain, PolygonDomain, comb_domain,
                               equilateral_triangle_domain)
from detourkit.errors import (GraphInvariantError, OracleError,
                              ResourceLimitError, UncoveredPointError)
from detourkit.whitney import (CORNER_UPPER, WhitneyDecomposition, _pack,
                               refine_for_qh, whitney_decompose)

SQRT2 = math.sqrt(2.0)


def unit_square_domain():
    return PolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                   [0.0, 1.0]]), name="square")


def l_shape_domain():
    # the reflex corner at (0.5, 0.5) is a boundary point inside the hull
    return PolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.5], [0.5, 0.5],
                                   [0.5, 1.0], [0.0, 1.0]]), name="L")


@pytest.fixture(scope="module")
def disk10():
    return whitney_decompose(DiskDomain(), 10)


class TestSelection:
    def test_disk_low_cutoff_undercovers(self):
        w = whitney_decompose(DiskDomain(), 8)
        covered = math.pi - w.uncovered_area
        assert covered < 0.999 * math.pi

    def test_disk_cutoff_12_covers(self):
        w = whitney_decompose(DiskDomain(), 12)
        covered = math.pi - w.uncovered_area
        assert covered >= 0.995 * math.pi

    def test_square_largest_cube(self):
        w = whitney_decompose(unit_square_domain(), 6)
        assert w.side.max() == pytest.approx(1.0 / 8.0)

    def test_stein_rule_bounds(self, disk10):
        diam = disk10.side * SQRT2
        assert np.all(disk10.dist >= diam - 1e-12)
        assert np.all(disk10.dist <= 4.0 * diam * (1 + 1e-9))

    def test_corner_distance_comparability(self, disk10):
        corners = disk10.corner_deltas()
        lo = corners.min(axis=1)
        hi = corners.max(axis=1)
        assert np.all(lo >= disk10.side * (1.0 - 1e-12))
        assert np.all(hi <= CORNER_UPPER * disk10.side * (1 + 1e-9))

    def test_cutoff_guard(self):
        with pytest.raises(ResourceLimitError):
            whitney_decompose(DiskDomain(), 30)

    def test_empty_domain_warns(self):
        tiny = DiskDomain(radius=1e-9)
        with pytest.warns(UserWarning):
            w = whitney_decompose(tiny, 4)
        assert len(w) == 0

    def test_zero_extent_domain_warns(self):
        with pytest.warns(UserWarning, match="no cube accepted"):
            w = whitney_decompose(DiskDomain(radius=0.0), 5)
        assert len(w) == 0
        assert len(refine_for_qh(w)) == 0

    def test_inconsistent_oracle_rejected(self):
        class BrokenDisk(DiskDomain):
            def boundary_distance(self, pts):
                # claims boundary contact everywhere while contains() says
                # the points are inside
                return np.zeros(len(np.atleast_2d(pts)))

        with pytest.raises(OracleError):
            whitney_decompose(BrokenDisk(), 5)


def sweep_testing_every_cell(domain, cutoff):
    """The Whitney sweep with a containment test on every cell, in
    canonical (level, ix, iy) order."""
    x0, y0, x1, y1 = domain.bbox()
    level = math.floor(-math.log2(max(x1 - x0, y1 - y0)))
    s = 2.0 ** -level
    gx = np.arange(math.floor(x0 / s), math.floor(x1 / s) + 1)
    gy = np.arange(math.floor(y0 / s), math.floor(y1 / s) + 1)
    ix, iy = (g.ravel() for g in np.meshgrid(gx, gy, indexing="ij"))
    found = []
    while len(ix) and level <= cutoff:
        s = 2.0 ** -level
        cx, cy = (ix + 0.5) * s, (iy + 0.5) * s
        dist = domain.cube_boundary_distance_capped(cx, cy, np.full(len(ix), s / 2.0),
                                                    8.0 * s)
        inside = domain.contains(np.column_stack([cx, cy]))
        accept = inside & (dist >= s * SQRT2)
        split = ~accept & (inside | (dist <= 0.0))
        found.append((np.full(int(accept.sum()), level), ix[accept], iy[accept],
                      dist[accept]))
        ix = (2 * ix[split][:, None] + [0, 1, 0, 1]).ravel()
        iy = (2 * iy[split][:, None] + [0, 0, 1, 1]).ravel()
        level += 1
    levels, ix, iy, dist = (np.concatenate(a) for a in zip(*found))
    order = np.lexsort((iy, ix, levels))
    return levels[order], ix[order], iy[order], dist[order]


class TestSkippedContainment:
    @pytest.mark.filterwarnings("ignore:no cube accepted")
    @pytest.mark.parametrize("cutoff", range(4, 10))
    @pytest.mark.parametrize("make", [comb_domain, equilateral_triangle_domain,
                                      DiskDomain])
    def test_matches_sweep_testing_every_cell(self, make, cutoff):
        domain = make()
        w = whitney_decompose(domain, cutoff)
        want = sweep_testing_every_cell(domain, cutoff)
        for got, ref in zip((w.levels, w.ix, w.iy, w.dist), want):
            assert got.tobytes() == ref.astype(got.dtype).tobytes()

    def test_asks_fewer_cells(self, monkeypatch):
        asked = []
        original = PolygonDomain.contains

        def count(self, pts):
            asked.append(len(pts))
            return original(self, pts)

        monkeypatch.setattr(PolygonDomain, "contains", count)
        whitney_decompose(comb_domain(), 9)
        ours = sum(asked)
        asked.clear()
        sweep_testing_every_cell(comb_domain(), 9)
        assert ours < 0.7 * sum(asked)


class TestDisjointnessAndCoverage:
    def test_interiors_disjoint_exhaustive(self, disk10):
        # dyadic interiors intersect only through ancestor containment:
        # no accepted cube may have an accepted ancestor
        keys = set(disk10.keys.tolist())
        for lv, ix, iy in zip(disk10.levels, disk10.ix, disk10.iy):
            for k in range(1, int(lv - disk10.levels.min()) + 1):
                anc = _pack(np.array([lv - k]), np.array([ix >> k]),
                            np.array([iy >> k]))[0]
                assert anc not in keys

    def test_coverage_monotone_in_cutoff(self):
        uncovered = []
        for cutoff in (7, 8, 9):
            w = whitney_decompose(DiskDomain(), cutoff)
            uncovered.append(w.uncovered_area)
        assert uncovered[0] > uncovered[1] > uncovered[2]

    def test_uncovered_scales_with_cutoff(self):
        # uncovered area is at most a constant times 2^-cutoff times the
        # boundary length scale
        for cutoff in (8, 10):
            w = whitney_decompose(DiskDomain(), cutoff)
            assert w.uncovered_area <= 64.0 * 2.0 ** (-cutoff) * 2 * math.pi


class TestAdjacency:
    def test_neighbor_ratios(self, disk10):
        edges, _ = disk10.adjacency_edges()
        ratio = 2.0 ** np.abs(disk10.levels[edges[:, 0]].astype(float)
                              - disk10.levels[edges[:, 1]].astype(float))
        assert set(np.unique(ratio)) <= {1.0, 2.0, 4.0}

    def test_edge_weight_formula(self, disk10):
        edges, wts = disk10.adjacency_edges()
        a, b = edges[0]
        d = np.hypot(*(disk10.centers[a] - disk10.centers[b]))
        expect = d * 2.0 / (disk10.delta_center[a] + disk10.delta_center[b])
        assert wts[0] == expect

    def test_handmade_configurations(self):
        # full-edge share adjacent; corner-only contact excluded; ratio-4
        # face-contained pair adjacent
        domain = DiskDomain(radius=8.0)
        levels = np.array([3, 3, 3, 5])
        ix = np.array([0, 1, 1, 8])
        iy = np.array([0, 0, 1, 4])
        # cubes: A=[0,1/8]^2 and B=[1/8,2/8]x[0,1/8] share a full edge;
        # C=[1/8,2/8]x[1/8,2/8] touches A only at the corner (1/8,1/8);
        # D=[8/32,9/32]x[4/32,5/32] has its left face inside C's right face
        # (side ratio 4) and meets B only at the corner (1/4,1/8)
        dist = domain.cube_boundary_distance(
            (ix + 0.5) * 2.0 ** -levels.astype(float),
            (iy + 0.5) * 2.0 ** -levels.astype(float),
            2.0 ** -levels.astype(float) / 2)
        w = WhitneyDecomposition(domain, 5, levels, ix, iy, dist)
        edges, _ = w.adjacency_edges()
        pairs = {tuple(sorted([(w.cube(a).level, w.cube(a).ix, w.cube(a).iy),
                               (w.cube(b).level, w.cube(b).ix, w.cube(b).iy)]))
                 for a, b in edges}
        assert ((3, 0, 0), (3, 1, 0)) in pairs          # full edge
        assert ((3, 1, 0), (3, 1, 1)) in pairs          # full edge
        assert ((3, 0, 0), (3, 1, 1)) not in pairs      # corner only
        assert ((3, 1, 1), (5, 8, 4)) in pairs          # ratio-4 face containment
        assert ((3, 1, 0), (5, 8, 4)) not in pairs      # corner only

    def test_connectivity_below_cutoff(self, disk10):
        edges, _ = disk10.adjacency_edges()
        keep = disk10.levels <= disk10.min_level_cutoff - 2
        idx = np.flatnonzero(keep)
        remap = -np.ones(len(disk10), dtype=np.int64)
        remap[idx] = np.arange(len(idx))
        sub = [(remap[a], remap[b]) for a, b in edges
               if keep[a] and keep[b]]
        parent = list(range(len(idx)))

        def find(i):
            while parent[i] != i:
                parent[i] = parent[parent[i]]
                i = parent[i]
            return i

        for a, b in sub:
            ra, rb = find(int(a)), find(int(b))
            if ra != rb:
                parent[ra] = rb
        roots = {find(i) for i in range(len(idx))}
        assert len(roots) == 1


class TestRefine:
    def test_far_cubes_unsplit(self, disk10):
        refined = refine_for_qh(disk10)
        far = disk10.dist >= 3.0 * disk10.side * SQRT2
        keys = set(refined.keys.tolist())
        original = _pack(disk10.levels[far], disk10.ix[far], disk10.iy[far])
        assert all(k in keys for k in original.tolist())

    def test_single_split_replaces_parent(self):
        w = whitney_decompose(DiskDomain(), 7)
        refined = refine_for_qh(w)
        need = w.side * SQRT2 / w.dist > 1.0 / 3.0
        assert np.any(need)
        keys = set(refined.keys.tolist())
        parents = _pack(w.levels[need], w.ix[need], w.iy[need])
        assert not any(k in keys for k in parents.tolist())
        # the four children of the first split cube are all present unless
        # they themselves split again
        i = int(np.flatnonzero(need)[0])
        child_keys = _pack(
            np.full(4, w.levels[i] + 1),
            np.array([2 * w.ix[i], 2 * w.ix[i] + 1, 2 * w.ix[i], 2 * w.ix[i] + 1]),
            np.array([2 * w.iy[i], 2 * w.iy[i], 2 * w.iy[i] + 1, 2 * w.iy[i] + 1]))
        grandchildren = refined.levels.max() >= w.levels[i] + 2
        present = sum(k in keys for k in child_keys.tolist())
        assert present == 4 or grandchildren

    def test_qh_bound_holds(self, disk10):
        refined = refine_for_qh(disk10)
        assert float((refined.side * SQRT2 / refined.dist).max()) <= 1.0 / 3.0

    def test_neighbor_ratio_preserved(self, disk10):
        refined = refine_for_qh(disk10)
        edges, _ = refined.adjacency_edges()
        diff = np.abs(refined.levels[edges[:, 0]] - refined.levels[edges[:, 1]])
        assert diff.max() <= 1

    @pytest.mark.parametrize("make", [DiskDomain, comb_domain, l_shape_domain])
    def test_touching_cubes_one_level_apart(self, make):
        # the bound refine_for_qh's docstring proves for consistent oracles
        w = whitney_decompose(make(), 8)
        for q in (1.0 / 3.0, 1.0 / 10.0):
            refined = refine_for_qh(w, q)
            edges, _ = refined.adjacency_edges()
            diff = np.abs(refined.levels[edges[:, 0]] - refined.levels[edges[:, 1]])
            assert diff.max() == 1, q

    def test_lying_oracle_raises(self):
        # distances capped in a band near the boundary: the sweep accepts
        # coarse cubes there that touch cubes 4 levels finer, which no
        # refinement of a consistent oracle produces
        class LyingDisk(DiskDomain):
            def cube_boundary_distance_capped(self, cx, cy, half, cap):
                d = super().cube_boundary_distance_capped(cx, cy, half, cap)
                lie = (cx > 0.5) & (np.abs(cy) < 0.2)
                return np.where(lie, np.broadcast_to(cap, d.shape), d)

        with pytest.raises(OracleError, match="levels coarser; the oracle"):
            refine_for_qh(whitney_decompose(LyingDisk(), 8))

    def test_gap_beyond_face_table_raises(self):
        # a level-0 cube whose right face meets 64 level-6 cubes: the face
        # table looks 4 levels up, and the check probes the rest
        levels = np.array([0] + [6] * 64)
        ix = np.array([0] + [64] * 64)
        iy = np.arange(-1, 64)
        iy[0] = 0
        w = WhitneyDecomposition(DiskDomain((0.5, 0.5), 10.0), 6, levels, ix,
                                 iy, np.full(65, 100.0))
        assert np.all(w._face_table[2] < 0)  # no left neighbour found
        with pytest.raises(OracleError, match="6 levels coarser"):
            refine_for_qh(w)

    def test_tighter_bound_allowed(self, disk10):
        refined = refine_for_qh(disk10, 1.0 / 5.0)
        assert float((refined.side * SQRT2 / refined.dist).max()) <= 1.0 / 5.0
        with pytest.raises(ValueError):
            refine_for_qh(disk10, 0.5)


@pytest.fixture(scope="module")
def comb_refined():
    return refine_for_qh(whitney_decompose(comb_domain(), 7))


def _stencil_pairs(w):
    indptr, indices, weights = w.stencil_graph()
    rows = np.repeat(np.arange(len(w)), np.diff(indptr))
    return rows, indices.astype(np.int64), weights


class TestStencilGraph:
    def test_symmetric_without_duplicates(self, comb_refined):
        rows, cols, wts = _stencil_pairs(comb_refined)
        n = len(comb_refined)
        fwd = dict(zip((rows * n + cols).tolist(), wts.tolist()))
        assert len(fwd) == len(rows)
        assert all(fwd[c * n + r] == wt for r, c, wt in zip(rows, cols, wts))

    def test_offsets_and_levels(self, comb_refined):
        # every edge joins cubes at most 2 levels apart, and the finer
        # center plus a stencil offset lands in the coarser cube
        w = comb_refined
        rows, cols, _ = _stencil_pairs(w)
        fine = rows[w.levels[rows] >= w.levels[cols]]
        coarse = cols[w.levels[rows] >= w.levels[cols]]
        assert np.all(w.levels[fine] - w.levels[coarse] <= 2)
        rel = (w.centers[coarse] - w.centers[fine]) / w.side[fine][:, None]
        half = w.side[coarse] / w.side[fine] / 2.0
        ok = np.zeros(len(fine), dtype=bool)
        for dx, dy in ((1, 0), (0, 1), (-1, 0), (0, -1), (1, 1), (-1, 1),
                       (-1, -1), (1, -1), (2, 1), (1, 2), (-1, 2), (-2, 1),
                       (-2, -1), (-1, -2), (1, -2), (2, -1)):
            ok |= (np.abs(rel[:, 0] - dx) < half) & (np.abs(rel[:, 1] - dy) < half)
        assert np.all(ok)

    def test_contains_face_graph(self, comb_refined):
        w = comb_refined
        rows, cols, wts = _stencil_pairs(w)
        n = len(w)
        stencil = dict(zip((rows * n + cols).tolist(), wts.tolist()))
        edges, face_wts = w.adjacency_edges()
        for (a, b), wt in zip(edges, face_wts):
            assert stencil[int(a) * n + int(b)] == pytest.approx(wt, rel=1e-15)

    def test_row_layout_independent_of_block(self, comb_refined, monkeypatch):
        whole = comb_refined.stencil_graph()
        monkeypatch.setattr(whitney, "_BLOCK", 1 << 10)
        assert len(comb_refined) > 4 << 10
        blocked = comb_refined.stencil_graph()
        for a, b in zip(whole, blocked):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("make, digest", [
        (comb_domain, "01990fbd98ee5a752d8b5fdfd2d141d880ac4efab958dd4180cf5ab578fefa7a"),
        (equilateral_triangle_domain,
         "5670706770c4d1daff07031c6c72b9e5215cbb376786c37b7ed316a1ff9d81ce"),
        (DiskDomain, "f5a7d2cad7e0fe4a86b2c611a075ab94fddcbe75f6d8cc50a396764d2b0cb9fc"),
    ])
    def test_csr_digest(self, make, digest):
        # SHA-256 over the little-endian bytes of indptr (int64), indices
        # (int32) and weights (float64) of the refined cutoff-8 graph: row
        # order, columns and every weight bit
        h = hashlib.sha256()
        for a in refine_for_qh(whitney_decompose(make(), 8)).stencil_graph():
            h.update(np.ascontiguousarray(a).astype(a.dtype.newbyteorder("<")).tobytes())
        assert h.hexdigest() == digest

    @pytest.mark.parametrize("make", [comb_domain, DiskDomain,
                                      equilateral_triangle_domain])
    def test_refined_entries_one_level_apart_and_symmetric(self, make):
        # on a refined decomposition every target is at most one level
        # coarser (the bound stencil_graph's docstring proves), and the
        # matrix equals its transpose, weight bits included
        w = refine_for_qh(whitney_decompose(make(), 8))
        rows, cols, wts = _stencil_pairs(w)
        assert np.abs(w.levels[rows] - w.levels[cols]).max() <= 1
        n = len(w)
        fwd, back = rows * n + cols, cols * n + rows
        a, b = np.argsort(fwd), np.argsort(back)
        assert np.array_equal(fwd[a], back[b])
        assert wts[a].tobytes() == wts[b].tobytes()

    def test_long_edge_rejected(self):
        # unrefined Whitney cubes may sit closer to the boundary than a
        # knight offset: the straight segment would leave the domain
        with pytest.raises(GraphInvariantError):
            whitney_decompose(DiskDomain(), 8).stencil_graph()


class TestSegmentCubes:
    def test_matches_exact_crossings(self, comb_refined):
        w = comb_refined
        rows, cols, _ = _stencil_pairs(w)
        pick = np.random.default_rng(11).choice(len(rows), 400, replace=False)
        a, b = rows[pick], cols[pick]
        seg, cube = w.segment_cubes(a, b)
        x0 = [Fraction(v) for v in w.ix * w.side]
        y0 = [Fraction(v) for v in w.iy * w.side]
        s = [Fraction(v) for v in w.side]
        for k in range(len(a)):
            p = [Fraction(v) for v in w.centers[a[k]]]
            q = [Fraction(v) for v in w.centers[b[k]]]
            reach = float(max(abs(p[0] - q[0]), abs(p[1] - q[1]))) + 2 * w.side.max()
            near = np.flatnonzero(np.max(np.abs(w.centers - w.centers[a[k]]), axis=1)
                                  <= reach)
            want = set()
            for i in near:
                lo_x, lo_y, hi_x, hi_y = x0[i], y0[i], x0[i] + s[i], y0[i] + s[i]
                if not (min(p[0], q[0]) < hi_x and max(p[0], q[0]) > lo_x
                        and min(p[1], q[1]) < hi_y and max(p[1], q[1]) > lo_y):
                    continue
                f = [(q[0] - p[0]) * (y - p[1]) - (q[1] - p[1]) * (x - p[0])
                     for x in (lo_x, hi_x) for y in (lo_y, hi_y)]
                if min(f) < 0 < max(f):
                    want.add(int(i))
            assert set(cube[seg == k].tolist()) == want, k

    def test_descends_into_split_cells(self):
        # a knight segment from (0, 0) to (2, 1) at level 2 crosses cells
        # (1, 0) and (1, 1); cell (1, 0) is split into level-3 cubes, and only
        # its child (2, 1) has the segment in its interior
        levels = np.array([2, 2, 2, 3, 3, 3, 3])
        ix = np.array([0, 1, 2, 2, 3, 2, 3])
        iy = np.array([0, 1, 1, 0, 0, 1, 1])
        w = WhitneyDecomposition(DiskDomain((0.5, 0.5), 10.0), 3, levels, ix,
                                 iy, np.ones(7))
        ids = {(int(lv), int(x), int(y)): k
               for k, (lv, x, y) in enumerate(zip(w.levels, w.ix, w.iy))}
        seg, cube = w.segment_cubes([ids[(2, 0, 0)]], [ids[(2, 2, 1)]])
        assert set(cube.tolist()) == {ids[(2, 0, 0)], ids[(3, 2, 1)],
                                      ids[(2, 1, 1)], ids[(2, 2, 1)]}
        assert np.all(seg == 0)

    def test_chain_cubes_union(self, comb_refined):
        w = comb_refined
        rows, cols, _ = _stencil_pairs(w)
        k = int(np.argmax(w.levels[rows] - w.levels[cols]))  # a coarser target
        chains = [np.array([rows[k], cols[k]]), np.array([rows[0]])]
        owner, cubes = w.chain_cubes(chains)
        _, crossed = w.segment_cubes(chains[0][:1], chains[0][1:])
        assert len(crossed) > 2
        assert set(cubes[owner == 0].tolist()) == set(crossed.tolist())
        assert cubes[owner == 1].tolist() == [rows[0]]
        assert np.all(np.diff(cubes) >= 0)


class TestPointLocation:
    def test_center_found(self, disk10):
        i = disk10.find_cube((0.33, 0.21))
        cube = disk10.cube(i)
        x0, y0, x1, y1 = cube.bounds
        assert x0 <= 0.33 <= x1 and y0 <= 0.21 <= y1

    def test_origin_on_corner(self, disk10):
        cubes = disk10.find_cubes((0.0, 0.0))
        assert len(cubes) == 4

    def test_find_cubes_matches_level_loop(self, comb_refined):
        # reference: per level, the cells of the point nudged by -eps and
        # +eps on each axis, looked up one by one
        w = comb_refined
        keys = {(int(lv), int(x), int(y)): k
                for k, (lv, x, y) in enumerate(zip(w.levels, w.ix, w.iy))}

        def by_loop(p):
            hits = set()
            for lv in sorted(set(w.levels.tolist())):
                s = 2.0 ** (-lv)
                eps = s * 1e-12
                for sx in (-1.0, 1.0):
                    for sy in (-1.0, 1.0):
                        cell = (lv, math.floor((p[0] + sx * eps) / s),
                                math.floor((p[1] + sy * eps) / s))
                        if cell in keys:
                            hits.add(keys[cell])
            return sorted(hits)

        rng = np.random.default_rng(4)
        pick = rng.choice(len(w), 60, replace=False)
        corners = np.column_stack([w.ix[pick] * w.side[pick], w.iy[pick] * w.side[pick]])
        points = np.vstack([w.centers[pick], corners,
                            corners + [0.0, 0.5] * w.side[pick][:, None],
                            [[5.0, 5.0]]])
        for p in points:
            assert w.find_cubes(p) == by_loop(p), p

    @pytest.mark.parametrize("domain", [DiskDomain, comb_domain])
    def test_find_cubes_matches_stacked_candidates(self, domain):
        # reference: the candidate keys stacked with concatenate, tile and
        # roll, as find_cubes built them before they were broadcast
        w = refine_for_qh(whitney_decompose(domain(), 9))
        lv, s = w._level_list

        def stacked(p):
            eps = s * 1e-12
            s2 = np.concatenate([s, s])
            cx = np.floor(np.concatenate([p[0] - eps, p[0] + eps]) / s2).astype(np.int64)
            cy = np.floor(np.concatenate([p[1] - eps, p[1] + eps]) / s2).astype(np.int64)
            cand = _pack(np.tile(lv, 4), np.concatenate([cx, cx]),
                         np.concatenate([cy, np.roll(cy, len(lv))]))
            pos = np.minimum(np.searchsorted(w.keys, cand), len(w) - 1)
            return [int(i) for i in np.unique(pos[w.keys[pos] == cand])]

        rng = np.random.default_rng(9)
        pick = rng.choice(len(w), 400, replace=False)
        lo = np.column_stack([w.ix[pick] * w.side[pick], w.iy[pick] * w.side[pick]])
        half = w.side[pick][:, None] / 2.0
        x0, y0, x1, y1 = w.domain.bbox()
        points = np.vstack([lo, lo + half * [1.0, 0.0], lo + half * [0.0, 1.0],
                            rng.uniform([x0, y0], [x1, y1], (400, 2))])
        got = [w.find_cubes(p) for p in points]
        assert got == [stacked(p) for p in points]
        assert sum(len(g) > 1 for g in got) > 100

    def test_uncovered_raises_with_nearest(self, disk10):
        with pytest.raises(UncoveredPointError) as err:
            disk10.find_cube((0.9999999, 0.0))
        assert "nearest cube" in str(err.value)

    @pytest.mark.parametrize("p", [(2.0 ** 40, 0.0), (math.inf, 0.0), (math.nan, 0.1),
                                   (-math.inf, math.nan)])
    def test_far_and_non_finite_points_are_uncovered(self, p):
        # a far point's cell index overflows the packed keys' 28-bit field
        # and aliased a real key; inf and NaN were cast with a warning
        from detourkit.qhyp import GeodesicSolver

        w = refine_for_qh(whitney_decompose(DiskDomain(), 7))
        assert w.find_cubes(p) == []
        with pytest.raises(UncoveredPointError):
            w.find_cube(p)
        with pytest.raises(UncoveredPointError):
            GeodesicSolver(w).distance(p, (0.1, 0.1))


class TestSerialization:
    def test_cubes_csv_columns(self):
        w = whitney_decompose(unit_square_domain(), 5)
        buf = io.StringIO()
        w.cubes_csv(buf)
        header, first = buf.getvalue().splitlines()[:2]
        assert header == "level,ix,iy,side,dist_lo,dist_hi"
        parts = first.split(",")
        assert len(parts) == 6
        lo, hi = float(parts[4]), float(parts[5])
        assert lo <= hi + 1e-15

    def test_edges_csv_columns(self):
        w = whitney_decompose(unit_square_domain(), 5)
        buf = io.StringIO()
        w.edges_csv(buf)
        lines = buf.getvalue().splitlines()
        assert lines[0] == "id1,id2,weight"
        a, b, wt = lines[1].split(",")
        assert int(a) != int(b)
        assert float(wt) > 0
