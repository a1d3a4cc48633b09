import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from detourkit import certify as ct
from detourkit import qhyp
from detourkit.detour import FractalScene
from detourkit.domains import DiskDomain, PolygonDomain
import detourkit
from detourkit.errors import InvalidShapeError, MissingFitError
from detourkit.fractals import (FractalApproximation, FractalLevel,
                                TangentCircleTriple, apollonian,
                                carpet_levels, gasket_levels, staircase_array)
from detourkit.geometry import Interval1D, Line
from detourkit.whitney import (WhitneyDecomposition, refine_for_qh,
                               whitney_decompose)


@pytest.fixture(scope="module")
def gasket8():
    return gasket_levels(8)


@pytest.fixture(scope="module")
def scene8(gasket8):
    return FractalScene(gasket8)


@pytest.fixture(scope="module")
def square_w():
    domain = PolygonDomain(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0],
                                     [0.0, 1.0]]), name="square")
    return whitney_decompose(domain, 6)


def _union_length_by_cells(spans, lo, hi):
    """Length of the union of closed spans within [lo, hi], summed over the
    cells between consecutive endpoints that some span covers."""
    cuts = sorted({lo, hi} | {min(max(v, lo), hi) for s in spans for v in s})
    return sum(b - a for a, b in zip(cuts, cuts[1:])
               if any(s[0] <= a and b <= s[1] for s in spans))


class TestMergedHitLength:
    def test_matches_union_by_cells(self):
        # endpoints on a grid of eighths, so every sum is exact; the fixed
        # spans are nested, overlapping, touching, empty and clipped away
        fixed = [(1.0, 4.0), (2.0, 3.0), (3.5, 5.0), (5.0, 6.0), (6.5, 6.5),
                 (-3.0, -1.0), (9.0, 12.0), (-1.0, 0.5)]
        rng = np.random.default_rng(23)
        for trial in range(200):
            ends = np.sort(rng.integers(-16, 80, (rng.integers(0, 9), 2)), axis=1) / 8.0
            spans = [tuple(e) for e in ends.tolist()] + (fixed if trial % 2 else [])
            lo, hi = sorted(rng.integers(-8, 72, 2) / 8.0)
            got = ct._merged_hit_length([Interval1D(a, b) for a, b in spans], lo, hi)
            assert got == _union_length_by_cells(spans, lo, hi), (spans, lo, hi)

    def test_overlap_and_clip_branches(self):
        ivs = [Interval1D(a, b) for a, b in
               [(0.0, 2.0), (1.0, 3.0), (1.5, 2.5), (3.0, 4.0), (-5.0, -1.0), (6.0, 9.0)]]
        # (0, 2) then the overlap (1, 3) adds 1, the nested (1.5, 2.5) adds
        # nothing, the touching (3, 4) adds 1, (-5, -1) is clipped away and
        # (6, 9) is cut to (6, 7)
        assert ct._merged_hit_length(ivs, 0.0, 7.0) == 5.0


class TestMeasureZeroBound:
    def test_generic_line_passes(self, gasket8, scene8):
        rep = ct.measure_zero_bound(gasket8, Line.horizontal(0.27), 3,
                                    scene=scene8)
        assert rep.passed
        assert rep.value <= rep.bound + 1e-9
        # independent check of the sweep: the residual equals the line
        # measure inside the level-m solids
        from detourkit.detour import interval_cover

        direct = math.fsum(cv.interval.length
                           for cv in interval_cover(Line.horizontal(0.27),
                                                    gasket8, 3))
        assert rep.value == pytest.approx(direct, abs=1e-9)

    def test_missing_line_zero_zero(self, gasket8, scene8):
        rep = ct.measure_zero_bound(gasket8, Line.horizontal(-0.2), 3,
                                    scene=scene8)
        assert rep.value == 0.0
        assert rep.bound == 0.0
        assert rep.passed

    def test_exceptional_rejected(self, gasket8, scene8):
        from detourkit.errors import ExceptionalLineError

        with pytest.raises(ExceptionalLineError):
            ct.measure_zero_bound(gasket8, Line.horizontal(0.0), 3, scene=scene8)

    @pytest.mark.parametrize("kind", ["gasket8", "carpet4"])
    def test_equals_per_component_reference(self, kind, gasket8, scene8):
        # the per-hole loop the stacked one replaced: line_component_hits on
        # each hole's component, diameter from its Polygon's vertices
        from detourkit.detour import near_line
        from detourkit.errors import ExceptionalLineError
        from detourkit.geometry import line_component_hits

        f, scene = ((gasket8, scene8) if kind == "gasket8"
                    else (carpet_levels(4), None))
        scene = scene or FractalScene(f)
        rng = np.random.default_rng(41)
        checked = met = 0
        for th, (x, y) in zip(rng.uniform(0.0, math.pi, 8),
                              rng.uniform(0.1, 0.7, (8, 2)).tolist()):
            c, s = math.cos(th), math.sin(th)
            line = Line((c, s), y * c - x * s)   # through (x, y)
            for m in (1, 3):
                try:
                    rep = ct.measure_zero_bound(f, line, m, scene=scene)
                except ExceptionalLineError:
                    continue
                ivs, diams = [], []
                for k in near_line(line, scene.holes.vertices).tolist():
                    comp = scene.holes[k]
                    hits = line_component_hits(line, comp)
                    if scene.hole_levels[k] <= m:
                        ivs.extend(hits)
                    elif hits:
                        v = comp.shape.vertices
                        d2 = np.sum((v[:, None, :] - v[None, :, :]) ** 2, axis=-1)
                        diams.append(math.sqrt(float(d2.max())))
                x0, y0, x1, y1 = scene.outer.bbox()
                tmid = float(line.project(np.array([[(x0 + x1) / 2, (y0 + y1) / 2]]))[0])
                span = 4.0 * max(x1 - x0, y1 - y0, 1.0)
                inside = math.fsum(iv.length for iv in line_component_hits(
                    line, type(scene.outer)(1, scene.outer.shape)))
                covered = ct._merged_hit_length(ivs, tmid - span, tmid + span)
                assert rep.value.hex() == max(inside - covered, 0.0).hex()
                assert rep.bound.hex() == (3.0 * math.fsum(diams)).hex()
                checked += 1
                met += len(diams)
        assert checked >= 12 and met > 100


class TestIntegratedMeasureBound:
    def test_gasket_exact_all_levels(self, gasket8):
        for m in range(0, 8):
            rep = ct.integrated_measure_bound(gasket8, "horizontal", m)
            assert rep.exact == 3 * Fraction(3, 4) ** m

    def test_gasket_m4_value(self, gasket8):
        rep = ct.integrated_measure_bound(gasket8, "horizontal", 4)
        assert rep.exact == Fraction(243, 256)
        assert rep.bound == pytest.approx(0.94921875)

    def test_gasket_m0_full_series(self, gasket8):
        rep = ct.integrated_measure_bound(gasket8, "horizontal", 0)
        assert rep.exact == 3  # the diameter-square series sums to 1

    def test_carpet_closed_form(self):
        carpet = carpet_levels(6)
        rep = ct.integrated_measure_bound(carpet, "horizontal", 2)
        assert rep.exact == 6 * Fraction(8, 9) ** 2

    def test_packing_enumerated_only(self):
        # a packing's tail has no closed form: the bound is the enumeration
        f = apollonian(TangentCircleTriple.three_unit(), 0.05)
        rep = ct.integrated_measure_bound(f, "horizontal", 1)
        assert rep.exact is None
        assert rep.bound == rep.value
        assert rep.value == float(3 * sum(
            Fraction(d) ** 2 for j in range(2, f.max_level + 1)
            for d in f.hole_diameters(j).tolist()))

    def test_dropped_hole_raises(self):
        g = gasket_levels(5)
        lv = g.levels[3]
        levels = list(g.levels)
        levels[3] = FractalLevel(lv.solids, lv.holes[1:])
        with pytest.raises(InvalidShapeError):
            ct.integrated_measure_bound(FractalApproximation("gasket", levels),
                                        "horizontal", 1)

    def test_dropped_hole_raises_under_optimize(self):
        # python -O strips assert statements; the check must survive it
        code = (
            "from detourkit import certify as ct\n"
            "from detourkit.errors import InvalidShapeError\n"
            "from detourkit.fractals import (FractalApproximation, FractalLevel,\n"
            "                                gasket_levels)\n"
            "g = gasket_levels(5)\n"
            "levels = list(g.levels)\n"
            "levels[3] = FractalLevel(levels[3].solids, levels[3].holes[1:])\n"
            "try:\n"
            "    ct.integrated_measure_bound(FractalApproximation('gasket', levels),\n"
            "                                'horizontal', 1)\n"
            "except InvalidShapeError:\n"
            "    raise SystemExit(3)\n"
        )
        path = [str(Path(detourkit.__file__).resolve().parents[1]),
                os.environ.get("PYTHONPATH", "")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 3, proc.stderr


class TestAdjacentCubeEstimate:
    def test_constant_function(self, square_w):
        edges, _ = square_w.adjacency_edges()
        q1, q2 = map(int, edges[0])
        lhs, rhs = ct.adjacent_cube_estimate(square_w, ct.function_of("const"),
                                             q1, q2)
        assert lhs == 0.0
        assert rhs == 0.0

    def test_linear_function_exact(self, square_w):
        # two equal-size neighbors stacked in x: means of x differ by the
        # side h, and the bound is 4 (h + h) = 8h
        edges, _ = square_w.adjacency_edges()
        fn = ct.function_of("x")
        for a, b in edges:
            if square_w.levels[a] == square_w.levels[b] \
                    and square_w.iy[a] == square_w.iy[b]:
                h = square_w.side[a]
                lhs, rhs = ct.adjacent_cube_estimate(square_w, fn, int(a), int(b))
                assert lhs == pytest.approx(h, abs=1e-12)
                assert rhs == pytest.approx(8 * h, abs=1e-12)
                return
        pytest.fail("no equal-size x-stacked pair found")

    def test_smooth_function_500_pairs(self):
        w = whitney_decompose(DiskDomain(), 8)
        edges, _ = w.adjacency_edges()
        fn = ct.function_of("sinsin")
        rng = np.random.default_rng(2)
        take = rng.choice(len(edges), size=500, replace=False)
        for a, b in edges[take]:
            lhs, rhs = ct.adjacent_cube_estimate(w, fn, int(a), int(b))
            assert lhs <= rhs + 1e-12

    @pytest.mark.parametrize("level", [5, 6])
    def test_pair_across_a_large_level_gap(self, level):
        # a level-0 cube whose right face meets a column of level-5 or -6
        # cubes: the unit cube and the first small one are adjacent
        k = 2 ** level
        w = WhitneyDecomposition(DiskDomain((0.5, 0.5), 10.0), level,
                                 np.array([0] + [level] * k), np.array([0] + [k] * k),
                                 np.concatenate([[0], np.arange(k)]),
                                 np.full(k + 1, 100.0))
        lhs, rhs = ct.adjacent_cube_estimate(w, ct.function_of("x"), 0, 1)
        # means of x: 1/2 on [0, 1]^2 and 1 + h/2 on the side-h cube
        h = 2.0 ** -level
        assert lhs == pytest.approx(0.5 + h / 2, abs=1e-12)
        assert rhs == pytest.approx(4 * (1 + h), abs=1e-12)

    def test_non_adjacent_rejected(self, square_w):
        edges, _ = square_w.adjacency_edges()
        present = {(int(a), int(b)) for a, b in edges}
        q1, q2 = 0, len(square_w) - 1
        if (q1, q2) not in present:
            with pytest.raises(ValueError):
                ct.adjacent_cube_estimate(square_w, ct.function_of("x"), q1, q2)


@pytest.fixture(scope="module")
def disk_fit():
    w = refine_for_qh(whitney_decompose(DiskDomain(), 8))
    s = qhyp.solver_for(w)
    return s.holder_fit(s.default_basepoint(), 32)


class TestOscillationBound:
    def test_requires_fit(self):
        with pytest.raises(MissingFitError):
            ct.oscillation_bound(DiskDomain(), None, ct.function_of("x"))

    def test_constant_zero(self, disk_fit):
        rep = ct.oscillation_bound(DiskDomain(), disk_fit, ct.function_of("const"),
                                   p=3.0)
        assert rep.value == 0.0
        assert rep.passed

    def test_linear_on_disk(self, disk_fit):
        # antipodal boundary pair realizes |f(x) - f(y)| = 2; the mean of
        # |grad f|^p is exactly 1, so the bound core is the diameter 2
        rep = ct.oscillation_bound(DiskDomain(), disk_fit, ct.function_of("x"),
                                   n_boundary=32, p=3.0)
        assert rep.value == pytest.approx(2.0, abs=1e-9)
        assert rep.resolution["bound_core"] == pytest.approx(2.0, abs=1e-9)
        assert rep.resolution["constant"] == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("expr", ["x2+y", "sinsin"])
    def test_mean_gradient_matches_cube_loop(self, expr):
        # reference: one cube at a time, summed in cube order, as before the
        # blocked evaluation; 3,000-odd cubes span several blocks
        w = whitney_decompose(DiskDomain(), 7)
        assert len(w) > 2 * ct._CUBE_BLOCK
        fn = ct.function_of(expr, p=3.0)
        total = area = 0.0
        for i in range(len(w)):
            cell = w.side[i] ** 2
            total += float(np.mean(fn.grad_norm(ct._cube_nodes(w, i)) ** 3.0)) * cell
            area += cell
        assert ct.domain_mean_gradient_p(w, fn, 3.0) == (total / area) ** (1.0 / 3.0)

    def test_gasket_hole_triangle(self, gasket8, scene8):
        hole = scene8.component(2)  # a level-2 hole triangle
        domain = PolygonDomain(hole.shape.vertices, name="hole")
        w = refine_for_qh(whitney_decompose(domain, 9))
        s = qhyp.solver_for(w)
        fit = s.holder_fit(s.default_basepoint(), 32)
        fn = ct.function_of("x2+y")
        rep = ct.oscillation_bound(domain, fit, fn, n_boundary=256, p=3.0,
                                   c_rep_limit=10.0)
        assert rep.passed
        assert rep.resolution["constant"] <= 10.0


@pytest.fixture(scope="module")
def shadow_setup():
    w = refine_for_qh(whitney_decompose(DiskDomain(), 9))
    s = qhyp.solver_for(w)
    table = s.shadows(s.default_basepoint(), 128)
    return w, s, table


class TestBoundaryImageTail:
    def test_empty_below_min_side(self, shadow_setup):
        w, _, table = shadow_setup
        assert ct.boundary_image_tail(w, table, 3.0, float(w.side.min()) / 4) == 0.0

    def test_strictly_decreasing_in_eps(self, shadow_setup):
        # each band (eps/2, eps] down to eps = 2^-7 needs a cube met by two
        # sampled geodesics.  A sampled shadow resolves cubes no narrower
        # than the sample spacing 2 pi / n: at n = 128 (0.049 apart) straight
        # geodesics share no cube below level 6, so the table takes 512
        w, solver, _ = shadow_setup
        table = solver.shadows(solver.default_basepoint(), 512)
        vals = [ct.boundary_image_tail(w, table, 3.0, 2.0 ** -k)
                for k in range(4, 9)]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("p", [1.5, 1.0, math.nan])
    def test_exponent_below_two_rejected(self, shadow_setup, p):
        w, _, table = shadow_setup
        with pytest.raises(ValueError):
            ct.boundary_image_tail(w, table, p, 0.1)

    def test_p2_reduces_to_shadow_squares(self, shadow_setup):
        w, _, table = shadow_setup
        eps = 2.0 ** -6
        lhs = ct.boundary_image_tail(w, table, 2.0, eps)
        direct = math.fsum(s * s for cid, s in table.s_values().items()
                           if w.side[cid] <= eps)
        assert lhs == pytest.approx(direct, rel=1e-12)


class TestRemovability:
    def test_constant_zero(self, gasket8, scene8):
        rep = ct.removability_certificate(gasket8, ct.function_of("const"),
                                          3.0, 4, scene=scene8, grid=64)
        assert rep.value == 0.0
        assert rep.passed

    def test_width_series_exact(self, gasket8, scene8):
        # f = x: the image diameter of a hole is its horizontal width, so
        # the level-j term is 3^(j-1) 4^-j and partial sums are exact
        fn = ct.function_of("x")
        for m in (3, 6):
            rep = ct.removability_certificate(gasket8, fn, 3.0, m,
                                              scene=scene8, grid=32)
            expect = float(1 - Fraction(3, 4) ** m)
            assert rep.value == pytest.approx(expect, abs=1e-12)

    def test_empirical_constant_stability(self, gasket8, scene8):
        fn = ct.function_of("x2+y")
        consts = []
        for m in (3, 4, 5, 6):
            rep = ct.removability_certificate(gasket8, fn, 3.0, m,
                                              scene=scene8, grid=64)
            assert math.isfinite(rep.value) and math.isfinite(rep.bound)
            consts.append(rep.resolution["constant"])
        assert max(consts) <= 2.0 * min(consts)

    def test_sample_doubling_reported(self, gasket8, scene8):
        rep = ct.removability_certificate(gasket8, ct.function_of("x2+y"),
                                          3.0, 3, scene=scene8, grid=32)
        assert "sample_doubling_delta" in rep.resolution


def _per_object_removability(f, fn, p, m, n_boundary=512, grid=256):
    """The removability sum from one scene component per hole, with each
    kind's diameter and area read off the component's shape: a reference
    for the certificate, which reads both from the flat hole arrays."""
    scene = FractalScene(f)
    keep = scene.hole_levels <= m
    comps = [scene.holes[k] for k in range(int(keep.sum()))]
    levels = scene.hole_levels[keep]
    diams, areas = [], []
    for comp in comps:
        if f.kind == "gasket":
            v = comp.shape.vertices
            width = float(v[:, 0].max() - v[:, 0].min())
            diams.append(width)
            areas.append(math.sqrt(3.0) / 4.0 * width * width)
        elif f.kind == "carpet":
            v = comp.shape.vertices
            side = float(v[:, 0].max() - v[:, 0].min())
            diams.append(side * math.sqrt(2.0))
            areas.append(side * side)
        else:
            r = comp.shape.radius
            diams.append(2.0 * r)
            areas.append(math.pi * r * r)
    diams, areas = np.asarray(diams), np.asarray(areas)

    def image(n):
        out = []
        for comp in comps:
            vals = fn.values(comp.boundary_points(n))
            out.append(float(vals.max() - vals.min()))
        return np.array(out)

    img, img2 = image(n_boundary), image(2 * n_boundary)
    value = math.fsum(img * diams)
    x0, y0, x1, y1 = scene.outer.bbox()
    pad = 0.25 * max(x1 - x0, y1 - y0)
    gx = np.linspace(x0 - pad, x1 + pad, grid, endpoint=False) \
        + (x1 - x0 + 2 * pad) / (2 * grid)
    gy = np.linspace(y0 - pad, y1 + pad, grid, endpoint=False) \
        + (y1 - y0 + 2 * pad) / (2 * grid)
    mx, my = np.meshgrid(gx, gy, indexing="ij")
    nodes = np.column_stack([mx.ravel(), my.ravel()])
    cell = ((x1 - x0 + 2 * pad) / grid) * ((y1 - y0 + 2 * pad) / grid)
    grad_int = float(np.sum(fn.grad_norm(nodes) ** p)) * cell
    pprime = p / (p - 1.0)
    core = float(np.sum(areas)) ** (1.0 / pprime) * grad_int ** (1.0 / p)
    return {"value": value, "tail": math.fsum(img2 * diams) - value,
            "bound_core": core,
            "per_level": [math.fsum(img[levels == j] * diams[levels == j])
                          for j in range(1, m + 1)]}


def _packing(min_radius):
    return apollonian(TangentCircleTriple.three_unit(), min_radius)


class TestRemovabilityAgainstPerObject:
    """The certificate reads hole diameters, areas and boundary samples from
    the flat arrays.  The packing's values match the per-object reference to
    the bit; the carpet's move by ulps, since its diameters are sqrt2 3^-j
    rather than the width of the generated square times sqrt2."""

    @pytest.mark.parametrize("make, m, fn, rel", [
        (lambda: carpet_levels(4), 3, "x2+y", 1e-15),
        (lambda: _packing(0.05), 2, "sinsin", 0.0),
        # m beyond the generated levels
        (lambda: gasket_levels(3), 5, "x2+y", 0.0),
        (lambda: carpet_levels(2), 4, "x2+y", 1e-15),
        (lambda: _packing(0.2), None, "x2+y", 0.0),
    ])
    def test_report_matches(self, make, m, fn, rel):
        f = make()
        m = f.max_level + 2 if m is None else m
        sample = ct.function_of(fn)
        rep = ct.removability_certificate(f, sample, 3.0, m)
        ref = _per_object_removability(f, sample, 3.0, m)
        got = {"value": rep.value, "tail": rep.converged_tail,
               "bound_core": rep.resolution["bound_core"],
               "per_level": rep.resolution["per_level"]}
        if rel == 0.0:
            assert got == ref
        else:
            for key in ("value", "tail", "bound_core"):
                assert got[key] == pytest.approx(ref[key], rel=rel, abs=0), key
            assert got["per_level"] == pytest.approx(ref["per_level"],
                                                     rel=rel, abs=0)


class TestCarpetCounterexample:
    def test_image_measure_converges_from_above(self):
        rep = ct.carpet_counterexample(2.0, 8, 0.5, quad_nodes=8)
        assert rep.image_measure >= 0.9
        # endpoint floats sit on Cantor points where the staircase is only
        # Holder continuous, so the bookkeeping matches the closed form to
        # a few 1e-9
        assert rep.image_measure == pytest.approx(1.0 + (2.0 / 3.0) ** 8,
                                                  abs=1e-6)
        assert all(b < a for a, b in zip(rep.image_series, rep.image_series[1:]))

    def test_energy_monotone_and_finite(self):
        rep = ct.carpet_counterexample(4.0, 6, 0.5, quad_nodes=8)
        assert all(math.isfinite(e) for e in rep.energies)
        assert all(b > a for a, b in zip(rep.energies, rep.energies[1:]))

    def test_energy_m8_close_to_m6(self):
        r8 = ct.carpet_counterexample(4.0, 8, 0.5, quad_nodes=8)
        assert abs(r8.energies[7] - r8.energies[5]) <= 0.05 * r8.energies[7]

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.5])
    def test_energy_deltas_match_per_hole_reference(self, p):
        # reference: evaluate h and psi' at every hole of every level
        nodes = (np.arange(16) + 0.5) / 16
        rep = ct.carpet_counterexample(p, 4, 0.5)
        for j, lv in enumerate(carpet_levels(4).levels[1:], start=1):
            side = 3.0 ** (-j)
            c = staircase_array((lv.holes[:, 0] + 0.5) * side)
            y = lv.holes[:, 1][:, None] * side + side * nodes[None, :]
            f = (1.0 + (c[:, None] * ct.psi_prime(y)) ** 2) ** (p / 2.0)
            assert rep.energy_deltas[j - 1] \
                == float(np.sum(np.mean(f, axis=1))) * side * side

    def test_plateau_requirement(self):
        with pytest.raises(ValueError):
            ct.carpet_counterexample(2.0, 4, 0.05)

    def test_exponent_range(self):
        with pytest.raises(ValueError):
            ct.carpet_counterexample(10.0, 4, 0.5)

    def test_psi_matches_support_conditions(self):
        ys = np.linspace(-0.5, 1.5, 2001)
        vals = ct.psi(ys)
        assert np.all(vals[(ys <= 0) | (ys >= 1)] == 0.0)
        plateau = (ys >= 1.0 / 9.0) & (ys <= 8.0 / 9.0)
        assert np.all(vals[plateau] == 1.0)
        assert np.all((vals >= 0.0) & (vals <= 1.0))

    def test_carpet_function_gradient_consistent(self):
        fn = ct.carpet_function()
        rng = np.random.default_rng(4)
        # points inside carpet holes, where the analytic gradient is valid
        pts = []
        holes = carpet_levels(3).hole_components(3)
        for comp in holes[:10]:
            v = comp.shape.vertices
            c = v.mean(axis=0)
            pts.append(c)
        pts = np.asarray(pts)
        assert fn.check_gradient(pts, h=1e-6) <= 1e-4

    def test_gasket_contrast_tail(self, gasket8):
        fn = ct.function_of("x2+y")
        series = ct.image_tail_contrast(gasket8, fn, Line.horizontal(0.3), 8)
        assert all(b <= a + 1e-12 for a, b in zip(series, series[1:]))
        assert series[-1] < 0.25 * series[0]


class TestFunctionSamples:
    def test_gradient_consistency_smooth(self):
        fn = ct.function_of("sinsin")
        rng = np.random.default_rng(8)
        pts = rng.uniform(-1, 1, size=(64, 2))
        assert fn.check_gradient(pts, h=1e-5) <= 1e-7

    def test_fd_fallback(self):
        fn = ct.PiecewiseFunctionSample(lambda q: q[:, 0] ** 2, None, p=3.0)
        g = fn.grad(np.array([[1.0, 0.0]]))
        assert g[0, 0] == pytest.approx(2.0, abs=1e-6)
        assert g[0, 1] == pytest.approx(0.0, abs=1e-9)

    def test_unknown_function_rejected(self):
        with pytest.raises(ValueError):
            ct.function_of("bogus")
