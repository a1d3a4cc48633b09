"""Numerical certificates: line-measure bounds against a nested fractal,
integrated diameter-square tails, mean-value and oscillation estimates for
smooth functions on Whitney cubes, boundary-image tail sums, the removability
sum with its integral bound, and the square-carpet counterexample function.

All quadrature is deterministic tensor-product midpoint; empirical constants
are reported, never asserted against unnamed theoretical ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from .detour import FractalScene, check_exceptional, near_line
from .domains import DiskDomain, Domain, PolygonDomain
from .errors import InvalidShapeError, MissingFitError
from .fractals import FractalApproximation, carpet_hole_cells, staircase_array
# line_component_hits has no caller here, but perfbench's tracer wraps the
# name in this module as well as in geometry and detour
from .geometry import (Line, line_component_hits,  # noqa: F401
                       polygon_line_hits, polygons_line_hits)
from .qhyp import FitReport, HolderFit, ShadowTable
from .whitney import WhitneyDecomposition


# ---------------------------------------------------------------------------
# report and function-sample types
# ---------------------------------------------------------------------------

@dataclass
class CertificateReport:
    name: str
    truncation: str
    value: float
    bound: float
    converged_tail: float
    resolution: dict
    passed: bool
    exact: Fraction | None = None

    def to_dict(self) -> dict:
        out = {
            "name": self.name,
            "truncation": self.truncation,
            "value": float(self.value),
            "bound": float(self.bound),
            "tail": float(self.converged_tail),
            "resolution": self.resolution,
            "pass": bool(self.passed),
        }
        if self.exact is not None:
            out["exact"] = f"{self.exact.numerator}/{self.exact.denominator}"
        return out


@dataclass
class PiecewiseFunctionSample:
    """Scalar test function with a gradient evaluator.

    ``evaluator`` maps point arrays (n, 2) to values (n,); ``gradient`` maps
    them to (n, 2) or is None, in which case central differences with step
    ``fd_step`` are used.  ``p`` is the integrability exponent carried along
    to the certificates.
    """

    evaluator: Callable[[np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray], np.ndarray] | None = None
    p: float = 3.0
    fd_step: float = 1e-6

    def values(self, pts: np.ndarray) -> np.ndarray:
        return np.asarray(self.evaluator(np.atleast_2d(pts)), dtype=float)

    def grad(self, pts: np.ndarray) -> np.ndarray:
        pts = np.atleast_2d(pts)
        if self.gradient is not None:
            return np.asarray(self.gradient(pts), dtype=float)
        return self._central_difference(pts, self.fd_step)

    def _central_difference(self, pts: np.ndarray, h: float) -> np.ndarray:
        ex = np.array([h, 0.0])
        ey = np.array([0.0, h])
        gx = (self.values(pts + ex) - self.values(pts - ex)) / (2 * h)
        gy = (self.values(pts + ey) - self.values(pts - ey)) / (2 * h)
        return np.column_stack([gx, gy])

    def grad_norm(self, pts: np.ndarray) -> np.ndarray:
        g = self.grad(pts)
        return np.hypot(g[:, 0], g[:, 1])

    def check_gradient(self, pts: np.ndarray, h: float = 1e-5) -> float:
        """Max deviation between analytic and central-difference gradients."""
        if self.gradient is None:
            return 0.0
        pts = np.atleast_2d(pts)
        return float(np.abs(self.grad(pts) - self._central_difference(pts, h)).max())


def function_of(expr: str, p: float = 3.0) -> PiecewiseFunctionSample:
    """Small library of smooth test functions used by the certificates."""
    table = {
        "x": (lambda q: q[:, 0],
              lambda q: np.column_stack([np.ones(len(q)), np.zeros(len(q))])),
        "x2+y": (lambda q: q[:, 0] ** 2 + q[:, 1],
                 lambda q: np.column_stack([2 * q[:, 0], np.ones(len(q))])),
        "const": (lambda q: np.ones(len(q)),
                  lambda q: np.zeros((len(q), 2))),
        "sinsin": (lambda q: np.sin(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1]),
                   lambda q: np.pi * np.column_stack([
                       np.cos(np.pi * q[:, 0]) * np.sin(np.pi * q[:, 1]),
                       np.sin(np.pi * q[:, 0]) * np.cos(np.pi * q[:, 1])])),
    }
    if expr not in table:
        raise ValueError(f"unknown test function {expr!r}; have {sorted(table)}")
    ev, gr = table[expr]
    return PiecewiseFunctionSample(ev, gr, p=p)


# ---------------------------------------------------------------------------
# line measure bounds
# ---------------------------------------------------------------------------

def _merged_hit_length(intervals, lo: float, hi: float) -> float:
    """Total length of the union of intervals clipped to [lo, hi]."""
    spans = sorted((max(iv.lo, lo), min(iv.hi, hi)) for iv in intervals)
    total = 0.0
    cursor = -math.inf
    for a, b in spans:
        if b <= a:
            continue
        if a > cursor:
            total += b - a
            cursor = b
        elif b > cursor:
            total += b - cursor
            cursor = b
    return total


def measure_zero_bound(f: FractalApproximation, line: Line, m: int,
                       scene: FractalScene | None = None) -> CertificateReport:
    """Residual line measure against three times the met-hole diameter sum.

    The excluded family is the unbounded component plus all holes of level
    at most ``m``; the residual measure of the line inside the remaining set
    is swept directly, while the bound enumerates the deeper holes (through
    the generated depth) whose closures the line meets.
    """
    if scene is None:
        scene = FractalScene(f)
    depth = scene.max_level
    if m >= depth:
        raise ValueError("need generated levels beyond m for the bound")
    check_exceptional(line, f, min(m + 1, depth))

    # measure of the line inside the outer boundary curve's region
    region_hits = polygon_line_hits(line, scene.outer.shape.vertices)
    inside_len = math.fsum(iv.length for iv in region_hits)
    x0, y0, x1, y1 = scene.outer.bbox()
    tmid = float(line.project(np.array([[(x0 + x1) / 2, (y0 + y1) / 2]]))[0])
    span = 4.0 * max(x1 - x0, y1 - y0, 1.0)

    holes = scene.holes.vertices
    near = near_line(line, holes)
    hole_ivs = []
    met = []
    for k, hits in zip(near.tolist(), polygons_line_hits(line, holes[near])):
        if scene.hole_levels[k] <= m:
            hole_ivs.extend(hits)
        elif hits:
            met.append(k)
    # diameter: the largest vertex-pair distance of each met hole
    v = holes[met]
    d2 = np.sum((v[:, :, None, :] - v[:, None, :, :]) ** 2, axis=-1)
    met_deeper = np.sqrt(d2.max(axis=(1, 2))).tolist()
    covered = _merged_hit_length(hole_ivs, tmid - span, tmid + span)
    value = max(inside_len - covered, 0.0)
    bound = 3.0 * math.fsum(met_deeper)
    return CertificateReport(
        name="line-measure-bound",
        truncation=f"excluded levels <= {m}, enumerated depth {depth}",
        value=value,
        bound=bound,
        converged_tail=0.0,
        resolution={"m": m, "depth": depth,
                    "line": {"direction": line.direction, "offset": line.offset}},
        passed=value <= bound + 1e-9,
    )


def integrated_measure_bound(f: FractalApproximation, direction: str,
                             m: int) -> CertificateReport:
    """Three times the diameter-square tail of the holes beyond level ``m``.

    For the triangle and square fractals the tail has an exact rational
    value, reported alongside the explicit enumeration through the generated
    depth; the enumeration must agree with the closed form to the last bit,
    else :class:`InvalidShapeError` is raised.
    """
    depth = f.max_level
    exact: Fraction | None = None
    enumerated = Fraction(0)
    if f.kind == "gasket":
        for j in range(m + 1, depth + 1):
            widths, counts = np.unique(f.hole_diameters(j), return_counts=True)
            for w, n in zip(widths.tolist(), counts.tolist()):
                enumerated += n * Fraction(w) * Fraction(w)
        tail = Fraction(3, 4) ** depth  # levels beyond the generated scene
        exact = 3 * (enumerated + tail)
        if exact != 3 * Fraction(3, 4) ** m:
            raise InvalidShapeError(
                f"gasket hole tail {exact} differs from 3 (3/4)^{m}")
    elif f.kind == "carpet":
        for j in range(m + 1, depth + 1):
            enumerated += f.n_holes_at(j) * Fraction(2, 9 ** j)
        tail = 2 * Fraction(8, 9) ** depth
        exact = 3 * (enumerated + tail)
        if exact != 6 * Fraction(8, 9) ** m:
            raise InvalidShapeError(
                f"carpet hole tail {exact} differs from 6 (8/9)^{m}")
    else:
        sq = Fraction(0)
        for j in range(m + 1, depth + 1):
            for d in f.hole_diameters(j):
                sq += Fraction(d) * Fraction(d)
        enumerated = sq
        tail = Fraction(0)  # no closed form; reported as enumerated only
        exact = None
    value = float(3 * enumerated)
    bound = float(exact) if exact is not None else value
    return CertificateReport(
        name="integrated-measure-bound",
        truncation=f"levels > {m} through {depth}",
        value=value,
        bound=bound,
        converged_tail=float(3 * tail) if exact is not None else 0.0,
        resolution={"m": m, "depth": depth, "direction": direction},
        passed=value <= bound + 1e-12,
        exact=exact,
    )


# ---------------------------------------------------------------------------
# mean-value estimates on cubes
# ---------------------------------------------------------------------------

#: the chain constant of the adjacent-cube mean-value estimate in the plane
ADJACENT_CUBE_CONSTANT = 4.0

_NODES_1D = (np.arange(16) + 0.5) / 16.0


def _cube_nodes(w: WhitneyDecomposition, i: int) -> np.ndarray:
    s = w.side[i]
    x0 = w.ix[i] * s
    y0 = w.iy[i] * s
    gx, gy = np.meshgrid(x0 + s * _NODES_1D, y0 + s * _NODES_1D, indexing="ij")
    return np.column_stack([gx.ravel(), gy.ravel()])


def adjacent_cube_estimate(w: WhitneyDecomposition, fn: PiecewiseFunctionSample,
                           q1: int, q2: int) -> tuple[float, float]:
    """Mean-value gap of two adjacent cubes against the gradient bound.

    Returns (lhs, rhs) with lhs = |mean(f, Q1) - mean(f, Q2)| by 16x16
    midpoint quadrature and rhs = 4 (l1 mean|grad f|_1 + l2 mean|grad f|_2),
    the planar chain constant.
    """
    edges, _ = w.adjacency_edges()
    a, b = min(q1, q2), max(q1, q2)
    ea = np.minimum(edges[:, 0], edges[:, 1])
    eb = np.maximum(edges[:, 0], edges[:, 1])
    if not np.any((ea == a) & (eb == b)):
        raise ValueError(f"cubes {q1} and {q2} are not adjacent")
    n1 = _cube_nodes(w, q1)
    n2 = _cube_nodes(w, q2)
    lhs = abs(float(np.mean(fn.values(n1))) - float(np.mean(fn.values(n2))))
    rhs = ADJACENT_CUBE_CONSTANT * (
        w.side[q1] * float(np.mean(fn.grad_norm(n1)))
        + w.side[q2] * float(np.mean(fn.grad_norm(n2))))
    return lhs, rhs


def domain_mean_gradient_p(w: WhitneyDecomposition, fn: PiecewiseFunctionSample,
                           p: float) -> float:
    """(mean over the covered domain of |grad f|^p)^(1/p), cube quadrature."""
    total = 0.0
    area = 0.0
    for i in range(len(w)):
        nodes = _cube_nodes(w, i)
        cell = w.side[i] ** 2
        total += float(np.mean(fn.grad_norm(nodes) ** p)) * cell
        area += cell
    return (total / area) ** (1.0 / p)


def oscillation_bound(domain: Domain, fit: HolderFit | FitReport | None,
                      fn: PiecewiseFunctionSample, n_boundary: int = 32,
                      p: float | None = None, cutoff: int = 8,
                      c_rep_limit: float = 10.0) -> CertificateReport:
    """Boundary oscillation of ``fn`` against diam(D) (mean |grad f|^p)^1/p.

    Requires a growth fit for the domain as the certificate precondition;
    the empirical constant value/bound-core is reported and compared with a
    per-domain regression limit rather than any theoretical constant.
    """
    if fit is None:
        raise MissingFitError("oscillation bound requires a growth fit")
    if isinstance(fit, FitReport):
        if fit.fit is None:
            raise MissingFitError("growth fit did not dominate; no certificate")
        fit = fit.fit
    p = fn.p if p is None else p
    if p <= 2:
        raise ValueError("the oscillation certificate needs p > 2")
    pts = domain.boundary_points(n_boundary)
    vals = fn.values(pts)
    value = float(vals.max() - vals.min())

    from .whitney import whitney_decompose

    w = whitney_decompose(domain, cutoff)
    x0, y0, x1, y1 = domain.bbox()
    diam = math.hypot(x1 - x0, y1 - y0)
    if isinstance(domain, DiskDomain):
        diam = 2.0 * domain.radius
    elif isinstance(domain, PolygonDomain):
        v = domain.vertices
        d2 = (v[:, None, 0] - v[None, :, 0]) ** 2 + (v[:, None, 1] - v[None, :, 1]) ** 2
        diam = math.sqrt(float(d2.max()))
    core = diam * domain_mean_gradient_p(w, fn, p)
    c_rep = value / core if core > 0 else (0.0 if value == 0 else math.inf)
    return CertificateReport(
        name="boundary-oscillation",
        truncation=f"{n_boundary} boundary samples, cutoff {cutoff}",
        value=value,
        bound=c_rep_limit * core,
        converged_tail=0.0,
        resolution={"p": p, "n_boundary": n_boundary, "cutoff": cutoff,
                    "constant": c_rep, "bound_core": core,
                    "fit": {"alpha": fit.alpha, "c": fit.c}},
        passed=value <= c_rep_limit * core + 1e-12,
    )


def boundary_image_tail(w: WhitneyDecomposition, table: ShadowTable,
                        p: float, eps: float) -> float:
    """Tail sum of side^((1-2/p) p') shadow^(p') over cubes smaller than eps.

    With p = 2 the side exponent vanishes and the sum reduces to the shadow
    square sum over small cubes.
    """
    if p < 2:
        raise ValueError("exponent p must be at least 2")
    pprime = p / (p - 1.0) if p > 1 else math.inf
    a = (1.0 - 2.0 / p) * pprime
    total = 0.0
    for cube_id, s in table.s_values().items():
        side = w.side[cube_id]
        if side <= eps and s > 0.0:
            total += (side ** a) * (s ** pprime)
    return total


# ---------------------------------------------------------------------------
# removability certificate
# ---------------------------------------------------------------------------

def _hole_geometry(f: FractalApproximation, scene: FractalScene, m: int):
    """(levels, diameters, areas) of the scene's holes up to level ``m``, in
    hole order."""
    top = min(m, scene.max_level)
    diams = np.concatenate([f.hole_diameters(j) for j in range(top + 1)])
    areas = np.concatenate([f.hole_areas(j) for j in range(top + 1)])
    return scene.hole_levels[:len(diams)], diams, areas  # hole levels ascend


def _image_diameters(fn: PiecewiseFunctionSample, scene: FractalScene,
                     count: int, n: int) -> np.ndarray:
    """diam f(boundary) of the first ``count`` holes, n boundary samples each."""
    pts, sizes = scene.holes.boundary_points(n, count)
    vals = fn.values(pts)
    first = np.cumsum(sizes) - sizes
    return np.maximum.reduceat(vals, first) - np.minimum.reduceat(vals, first)


def removability_certificate(f: FractalApproximation,
                             fn: PiecewiseFunctionSample, p: float, m: int,
                             n_boundary: int = 512, grid: int = 256,
                             scene: FractalScene | None = None,
                             c_rep_limit: float = 10.0) -> CertificateReport:
    """Sum of image diameters times hole diameters with its integral bound.

    value = sum over holes of level <= m of diam(f(boundary)) diam(hole);
    bound-core = (sum of hole areas)^(1/p') (integral of |grad f|^p)^(1/p)
    over a padded scene box.  The image diameters use ``n_boundary`` samples
    and the report carries the sample-doubling delta so under-resolution is
    visible.
    """
    if p <= 2:
        raise ValueError("the removability certificate needs p > 2")
    if scene is None:
        scene = FractalScene(f)
    levels, diams, areas = _hole_geometry(f, scene, m)
    image = _image_diameters(fn, scene, len(diams), n_boundary)
    image2 = _image_diameters(fn, scene, len(diams), 2 * n_boundary)
    value = math.fsum(image * diams)
    doubling_delta = math.fsum(image2 * diams) - value

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
    core = (float(np.sum(areas)) ** (1.0 / pprime)) * (grad_int ** (1.0 / p))
    c_rep = value / core if core > 0 else (0.0 if value == 0 else math.inf)
    per_level = [math.fsum(image[levels == j] * diams[levels == j])
                 for j in range(1, m + 1)]
    return CertificateReport(
        name="removability-sum",
        truncation=f"holes of level <= {m}",
        value=value,
        bound=c_rep_limit * core,
        converged_tail=doubling_delta,
        resolution={"p": p, "m": m, "n_boundary": n_boundary, "grid": grid,
                    "constant": c_rep, "bound_core": core,
                    "per_level": per_level,
                    "sample_doubling_delta": doubling_delta},
        passed=value <= c_rep_limit * core + 1e-12 and math.isfinite(value),
    )


# ---------------------------------------------------------------------------
# square-carpet counterexample
# ---------------------------------------------------------------------------

RAMP = 1.0 / 9.0


def smoothstep(u: np.ndarray) -> np.ndarray:
    u = np.clip(u, 0.0, 1.0)
    return u * u * u * (10.0 + u * (-15.0 + 6.0 * u))


def smoothstep_prime(u: np.ndarray) -> np.ndarray:
    out = 30.0 * u * u * (1.0 - u) ** 2
    return np.where((u < 0.0) | (u > 1.0), 0.0, out)


def psi(y: np.ndarray) -> np.ndarray:
    """Smooth plateau: 0 outside [0,1], 1 on [1/9, 8/9], quintic ramps."""
    y = np.asarray(y, dtype=float)
    up = smoothstep(y / RAMP)
    down = smoothstep((1.0 - y) / RAMP)
    out = np.minimum(up, down)
    return np.where((y <= 0.0) | (y >= 1.0), 0.0, out)


def psi_prime(y: np.ndarray) -> np.ndarray:
    y = np.asarray(y, dtype=float)
    rising = (y > 0.0) & (y < RAMP)
    falling = (y > 1.0 - RAMP) & (y < 1.0)
    out = np.zeros_like(y)
    out[rising] = smoothstep_prime(y[rising] / RAMP) / RAMP
    out[falling] = -smoothstep_prime((1.0 - y[falling]) / RAMP) / RAMP
    return out


def carpet_function(p: float = 3.0) -> PiecewiseFunctionSample:
    """The staircase-shear f(x, y) = x + h(x) psi(y), gradient valid off the
    carpet (h is locally constant on every complementary x-extent)."""

    def ev(q: np.ndarray) -> np.ndarray:
        return q[:, 0] + staircase_array(q[:, 0]) * psi(q[:, 1])

    def gr(q: np.ndarray) -> np.ndarray:
        return np.column_stack([np.ones(len(q)),
                                staircase_array(q[:, 0]) * psi_prime(q[:, 1])])

    return PiecewiseFunctionSample(ev, gr, p=p)


@dataclass
class CarpetReport:
    p: float
    m: int
    y0: float
    energies: list[float]          # cumulative off-carpet energy through level j
    energy_deltas: list[float]
    delta_ratios: list[float]
    image_measure: float
    image_series: list[float]      # image estimate per level 1..m
    ring_energy: float
    passed: bool = field(init=False)

    def __post_init__(self) -> None:
        finite = all(math.isfinite(e) for e in self.energies)
        self.passed = finite and self.image_measure >= 0.9


def carpet_counterexample(p: float, m: int, y0: float,
                          quad_nodes: int = 16) -> CarpetReport:
    """Off-carpet p-energy and boundary-row image measure of the shear map.

    The energy integrates |grad f|^p over the window (-1/2, 3/2)^2 minus the
    level-m carpet: the ring outside the unit square plus every hole of
    level <= m (where h is constant on the hole's x-extent, so the gradient
    is (1, h psi')).  The image measure covers f(row y0) by the images of
    the surviving level-m x-intervals; it decreases to 1 as m grows.
    """
    if not 2 <= p <= 8:
        raise ValueError("p must lie in [2, 8]")
    if not RAMP <= y0 <= 1.0 - RAMP:
        raise ValueError("y0 must lie in the plateau [1/9, 8/9]")
    if m < 1:
        raise ValueError("m must be positive")

    # ring energy over (-1/2, 3/2)^2 minus the closed unit square: the block
    # left of the square and the two blocks above/below it carry |grad| = 1;
    # right of the square h = 1 and the ramps of psi contribute
    ys = np.linspace(-0.5, 1.5, 4096, endpoint=False) + 2.0 / 4096 / 2.0
    strip = 0.5 * float(np.mean((1.0 + psi_prime(ys) ** 2) ** (p / 2.0))) * 2.0
    ring = 0.5 * 2.0 + 1.0 * 1.0 + strip

    energies = []
    deltas = []
    total = ring
    nodes = (np.arange(quad_nodes) + 0.5) / quad_nodes
    # the integrand is built in place for 2^14 holes at a time; the sum of the
    # holes' means runs over blocks of 200,000 holes, which fixes its rounding
    for j, holes in enumerate(carpet_hole_cells(m), start=1):
        side = 3.0 ** (-j)
        # h depends on the hole's column and psi' on its row: 3^j values at most
        cols, col_of = np.unique(holes[:, 0], return_inverse=True)
        rows, row_of = np.unique(holes[:, 1], return_inverse=True)
        h = staircase_array((cols + 0.5) * side)[col_of]
        dpsi = psi_prime(rows[:, None] * side + side * nodes[None, :])
        means = np.empty(len(holes))
        for lo in range(0, len(holes), 1 << 14):
            part = slice(lo, lo + (1 << 14))
            f = dpsi[row_of[part]]      # (1 + (h psi')^2)^(p/2)
            f *= h[part, None]
            np.square(f, out=f)
            np.add(f, 1.0, out=f)
            np.power(f, p / 2.0, out=f)
            np.mean(f, axis=1, out=means[part])
        contrib = 0.0
        for lo in range(0, len(holes), 200_000):
            contrib += float(np.sum(means[lo:lo + 200_000])) * side * side
        deltas.append(contrib)
        total += contrib
        energies.append(total)
    ratios = [b / a for a, b in zip(deltas, deltas[1:])]

    # surviving x-intervals of the row y0 at level m
    digits = []
    y = y0
    for _ in range(m):
        y *= 3.0
        d = min(int(y), 2)
        digits.append(d)
        y -= d
    intervals = [(0, 1)]  # numerators over 3^level
    series = []
    for lvl, d in enumerate(digits, start=1):
        new = []
        allowed = (0, 2) if d == 1 else (0, 1, 2)
        for a, _ in intervals:
            for t in allowed:
                new.append((3 * a + t, 3 ** lvl))
        intervals = [(a, q) for a, q in new]
        series.append(_row_image_measure(intervals, y0))
    image = series[-1] if series else 1.0

    return CarpetReport(p, m, y0, energies, deltas, ratios, image, series, ring)


def _row_image_measure(intervals, y0: float) -> float:
    a = np.array([n / q for n, q in intervals])
    b = np.array([(n + 1) / q for n, q in intervals])
    psival = float(psi(np.array([y0]))[0])
    ha = staircase_array(a, 50)
    hb = staircase_array(b, 50)
    return float(np.sum((b - a) + psival * (hb - ha)))


def image_tail_contrast(f: FractalApproximation, fn: PiecewiseFunctionSample,
                        line: Line, levels: int,
                        samples_per_crossing: int = 64) -> list[float]:
    """Per-level image-cover estimate of fn on the line's solid crossings.

    The estimate sums the variation of fn over each solid-crossing segment;
    it is monotone non-increasing in the level and decays to zero for a
    smooth fn, in contrast to the carpet shear whose row image stays of
    unit measure.
    """
    from .detour import interval_cover

    out = []
    ts = np.linspace(0.0, 1.0, samples_per_crossing)
    for m in range(levels + 1):
        total = 0.0
        for cv in interval_cover(line, f, m):
            lo, hi = cv.interval.lo, cv.interval.hi
            pts = line.point_at(lo + (hi - lo) * ts)
            vals = fn.values(pts)
            total += float(vals.max() - vals.min())
        out.append(total)
    return out
