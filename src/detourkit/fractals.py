"""Generators for the example scenes: triangle and square nested fractals,
tangent-circle packings, the staircase function and escape-time rasters.

The leveled approximations keep their geometry in flat numpy arrays (one
block per level) so that deep levels stay cheap; ``SceneComponent`` views
are materialized on demand for the object-level API.
"""

from __future__ import annotations

import math
import operator
import warnings
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import IllConditionedError, InvalidShapeError, ResourceLimitError
from .geometry import (Circle, Point, Polygon, SceneComponent, _next_vertices,
                       sample_circle, sample_polygons_boundary, segment_distance)

SQRT3 = math.sqrt(3.0)
_AREA_PER_SQUARED_DIAMETER = {"gasket": SQRT3 / 4.0, "carpet": 0.5,
                              "apollonian": math.pi / 4.0}

# the deepest levels whose level arrays fit in 1 GiB: gasket levels 0..m
# hold 3^j solids and 3^(j-1) holes of 48 B each, 96 * 3^m B in all (m = 14:
# 0.43 GiB, 15: 1.28 GiB); carpet levels hold 8^j solid and 8^(j-1) hole
# cells of 16 B each, 16 * 9 / 7 * 8^m B (m = 8: 0.32 GiB, 9: 2.57 GiB)
GASKET_MAX_LEVEL = 14
CARPET_MAX_LEVEL = 8
_APOLLONIAN_CIRCLE_CAP = 2_000_000


@dataclass(frozen=True)
class FractalLevel:
    """Solid pieces and holes present at one construction level.

    ``solids`` holds triangle vertex arrays (n, 3, 2) for the gasket and
    integer cell indices (n, 2) for the carpet (cell k spans
    [k, k+1] * 3**-level).  ``holes`` uses the same convention for the pieces
    removed at this level.
    """

    solids: np.ndarray
    holes: np.ndarray


@dataclass(frozen=True)
class CircleData:
    """Flat arrays describing the circles of a packing."""

    centers: np.ndarray   # (n, 2)
    radii: np.ndarray     # (n,)
    levels: np.ndarray    # (n,) generation depth; seed circles are level 0
    enclosing: np.ndarray  # (n,) bool, True only for the outer circle


@dataclass(frozen=True)
class FractalApproximation:
    """Nested approximation of a compact set by leveled solids and holes."""

    kind: str  # one of {"gasket", "carpet", "apollonian"}
    levels: list[FractalLevel]
    circles: CircleData | None = None
    interstices: list[np.ndarray] = field(default_factory=list)

    @property
    def max_level(self) -> int:
        if self.kind == "apollonian":
            return len(self.interstices) - 1
        return len(self.levels) - 1

    def solid_polygons(self, level: int) -> np.ndarray:
        """Counter-clockwise vertex arrays (n, k, 2) of the solids of a level:
        triangles for the gasket, squares for the carpet."""
        if self.kind == "gasket":
            return self.levels[level].solids
        if self.kind == "carpet":
            return _squares(self.levels[level].solids, level)
        raise InvalidShapeError(f"no polygonal solids for kind {self.kind!r}")

    def n_solids(self, level: int) -> int:
        if self.kind == "apollonian":
            return len(self.interstices[level])
        return len(self.levels[level].solids)

    def n_holes_at(self, level: int) -> int:
        if self.kind == "apollonian":
            c = self.circles
            return int(np.sum((c.levels == level) & ~c.enclosing))
        return len(self.levels[level].holes)

    def n_holes_cumulative(self, level: int) -> int:
        return sum(self.n_holes_at(j) for j in range(level + 1))

    def hole_components(self, max_level: int | None = None) -> list[SceneComponent]:
        """Scene components for all holes through ``max_level``, indexed from
        1 in removal order; :meth:`outer_component` supplies index 0."""
        return list(HoleComponents(self, max_level))

    def hole_levels(self, max_level: int | None = None) -> np.ndarray:
        """Removal level of every hole through ``max_level``: entry k - 1
        belongs to hole k of :meth:`hole_components`."""
        top = self.max_level if max_level is None else max_level
        return np.repeat(np.arange(top + 1),
                         [self.n_holes_at(j) for j in range(top + 1)])

    def outer_component(self) -> SceneComponent:
        """The unbounded complementary component, index 0."""
        if self.kind == "gasket":
            return SceneComponent(0, Polygon(self.levels[0].solids[0]), bounded=False)
        if self.kind == "carpet":
            sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
            return SceneComponent(0, Polygon(sq), bounded=False)
        c = self.circles
        k = int(np.flatnonzero(c.enclosing)[0])
        return SceneComponent(0, Circle(Point(*c.centers[k]), float(c.radii[k])),
                              bounded=False)

    def hole_diameters(self, level: int) -> np.ndarray:
        """Diameters of the holes removed at ``level``.

        Gasket hole diameters equal their horizontal width, which is an exact
        dyadic float; carpet holes are squares of side 3**-level.
        """
        if self.kind == "gasket":
            return _x_widths(self.levels[level].holes)
        if self.kind == "carpet":
            n = len(self.levels[level].holes)
            return np.full(n, math.sqrt(2.0) * 3.0 ** (-level))
        c = self.circles
        return 2.0 * c.radii[(c.levels == level) & ~c.enclosing]

    def hole_areas(self, level: int) -> np.ndarray:
        """Areas of the holes removed at ``level``, from their diameters d:
        equilateral triangles (sqrt3/4 d^2), squares (d^2/2) or disks
        (pi/4 d^2)."""
        d = self.hole_diameters(level)
        return _AREA_PER_SQUARED_DIAMETER[self.kind] * d * d

    def max_solid_diameter(self, level: int) -> float:
        return self.max_solid_diameters[level]

    @cached_property
    def max_solid_diameters(self) -> list[float]:
        """Largest solid diameter of every level, computed once."""
        return [self._max_solid_diameter(m) for m in range(self.max_level + 1)]

    def _max_solid_diameter(self, level: int) -> float:
        if self.kind == "gasket":
            return float(_x_widths(self.levels[level].solids).max())
        if self.kind == "carpet":
            return math.sqrt(2.0) * 3.0 ** (-level)
        tri = self.interstices[level]
        if len(tri) == 0:
            return 0.0
        corners = _interstice_corners(self.circles, tri)
        d = np.zeros(len(tri))
        for a, b in ((0, 1), (0, 2), (1, 2)):
            d = np.maximum(d, np.hypot(corners[:, a, 0] - corners[:, b, 0],
                                       corners[:, a, 1] - corners[:, b, 1]))
        return float(d.max())


class HoleComponents(Sequence):
    """The holes through one level as a lazily materialised list.

    Position k - 1 holds hole k; positions are non-negative.  The geometry
    stays in flat arrays in hole order: ``vertices`` (H, k, 2) for the
    gasket and carpet, ``centers`` and ``radii`` for a circle packing
    (``vertices`` is then None).  A :class:`SceneComponent` is built the
    first time its position is read and memoised, so a scene pays only for
    the holes a query touches.
    """

    def __init__(self, f: FractalApproximation, max_level: int | None = None):
        top = f.max_level if max_level is None else max_level
        self.levels = f.hole_levels(top)
        self.vertices: np.ndarray | None = None
        if f.kind == "apollonian":
            c = f.circles
            sel = np.flatnonzero(~c.enclosing & (c.levels <= top))
            ids = sel[np.argsort(c.levels[sel], kind="stable")]
            self.centers, self.radii = c.centers[ids], c.radii[ids]
        elif f.kind == "gasket":
            self.vertices = np.concatenate(
                [f.levels[j].holes for j in range(top + 1)])
        else:
            self.vertices = np.concatenate(
                [_squares(f.levels[j].holes, j) for j in range(top + 1)])
        self._built: dict[int, SceneComponent] = {}

    def __len__(self) -> int:
        return len(self.levels)

    def __getitem__(self, pos: int) -> SceneComponent:
        pos = operator.index(pos)
        if not 0 <= pos < len(self):
            raise IndexError(f"hole position {pos} out of range")
        comp = self._built.get(pos)
        if comp is None:
            if self.vertices is None:
                shape = Circle(Point(*self.centers[pos]), float(self.radii[pos]))
            else:
                shape = Polygon(self.vertices[pos])
            comp = self._built[pos] = SceneComponent(pos + 1, shape)
        return comp

    def boundary_points(self, n: int, stop: int) -> tuple[np.ndarray, np.ndarray]:
        """Boundary samples of the holes at positions below ``stop``, each
        its component's ``boundary_points(n)``, from the flat arrays: the
        points (N, 2) stacked in hole order and each hole's point count."""
        if self.vertices is None:
            c, r = self.centers[:stop], self.radii[:stop]
            return (sample_circle(c[:, 0], c[:, 1], r, n).reshape(-1, 2),
                    np.full(len(r), n))
        return sample_polygons_boundary(self.vertices[:stop], n)


# ---------------------------------------------------------------------------
# gasket and carpet
# ---------------------------------------------------------------------------

_UNIT_SQUARE = np.array([[0, 0], [1, 0], [1, 1], [0, 1]])


def _squares(cells: np.ndarray, level: int) -> np.ndarray:
    """Counter-clockwise vertices (n, 4, 2) of carpet cells of a level."""
    side = 3.0 ** (-level)
    return (cells * side)[:, None, :] + _UNIT_SQUARE[None, :, :] * side


def _x_widths(tri: np.ndarray) -> np.ndarray:
    """Exact horizontal widths of triangles (n, 3, 2), corner-wise: ~9x faster than max(axis=1)."""
    a, b, c = tri[:, :, 0].T
    return np.maximum(np.maximum(a, b), c) - np.minimum(np.minimum(a, b), c)


def gasket_levels(m: int) -> FractalApproximation:
    """Triangle fractal approximation down to level ``m``.

    The outer triangle has side 1 and vertices (0,0), (1,0), (1/2, sqrt3/2).
    Level j holds 3**j solid triangles of side 2**-j; the hole removed inside
    a solid is the middle quarter spanned by its edge midpoints.
    """
    if m < 0:
        raise ValueError("level must be non-negative")
    if m > GASKET_MAX_LEVEL:
        raise ResourceLimitError(f"gasket level {m} exceeds guard {GASKET_MAX_LEVEL}")
    base = np.array([[[0.0, 0.0], [1.0, 0.0], [0.5, SQRT3 / 2.0]]])
    levels = [FractalLevel(base, np.zeros((0, 3, 2)))]
    solids = base
    for _ in range(m):
        a, b, c = solids[:, 0], solids[:, 1], solids[:, 2]
        holes = np.stack([(a + b) / 2.0, (b + c) / 2.0, (c + a) / 2.0], axis=1)
        ab, bc, ca = holes[:, 0], holes[:, 1], holes[:, 2]
        # block k of the children holds corner k's triangle of every solid
        children = np.empty((3, len(solids), 3, 2))
        for k, corners in enumerate(((a, ab, ca), (ab, b, bc), (ca, bc, c))):
            np.stack(corners, axis=1, out=children[k])
        solids = children.reshape(-1, 3, 2)
        levels.append(FractalLevel(solids, holes))
    return FractalApproximation("gasket", levels)


_CARPET_KEEP = np.array(
    [(i, j) for j in range(3) for i in range(3) if not (i == 1 and j == 1)],
    dtype=np.int64)
_CARPET_MIDDLE = np.ones((1, 2), dtype=np.int64)


def _carpet_subcells(cells: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """The cells 3c + o one level down, cell by cell: the solid children of
    cells c (n, 2) for offsets ``_CARPET_KEEP``, holes for ``_CARPET_MIDDLE``."""
    return (cells[:, None, :] * 3 + offsets[None, :, :]).reshape(-1, 2)


def carpet_hole_cells(m: int):
    """Yield the hole cells of carpet levels 1..m, level by level, the same
    as :func:`carpet_levels` holds; level m's solids are never built."""
    if m > CARPET_MAX_LEVEL:
        raise ResourceLimitError(f"carpet level {m} exceeds guard {CARPET_MAX_LEVEL}")
    cells = np.zeros((1, 2), dtype=np.int64)
    for j in range(1, m + 1):
        yield _carpet_subcells(cells, _CARPET_MIDDLE)
        if j < m:
            cells = _carpet_subcells(cells, _CARPET_KEEP)


def carpet_levels(m: int) -> FractalApproximation:
    """Square fractal approximation: unit square, middle ninths removed."""
    if m < 0:
        raise ValueError("level must be non-negative")
    if m > CARPET_MAX_LEVEL:
        raise ResourceLimitError(f"carpet level {m} exceeds guard {CARPET_MAX_LEVEL}")
    cells = np.zeros((1, 2), dtype=np.int64)
    levels = [FractalLevel(cells, np.zeros((0, 2), dtype=np.int64))]
    for _ in range(m):
        holes = _carpet_subcells(cells, _CARPET_MIDDLE)
        cells = _carpet_subcells(cells, _CARPET_KEEP)
        levels.append(FractalLevel(cells, holes))
    return FractalApproximation("carpet", levels)


# ---------------------------------------------------------------------------
# tangent circles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TangentCircleTriple:
    """Three mutually tangent circles with disjoint interiors."""

    c1: SceneComponent
    c2: SceneComponent
    c3: SceneComponent

    def __post_init__(self) -> None:
        for c in (self.c1, self.c2, self.c3):
            if not isinstance(c.shape, Circle):
                raise IllConditionedError("triple members must be circles")
        cs = self.circles()
        scale = max(max(c.radius for c in cs), 1.0)
        for i in range(3):
            for j in range(i + 1, 3):
                a, b = cs[i], cs[j]
                gap = math.hypot(a.center.x - b.center.x, a.center.y - b.center.y) \
                    - (a.radius + b.radius)
                if abs(gap) > 1e-9 * scale:
                    raise IllConditionedError(
                        f"circles {i} and {j} are not tangent (gap {gap:.3e})")

    def circles(self) -> tuple[Circle, Circle, Circle]:
        return (self.c1.shape, self.c2.shape, self.c3.shape)  # type: ignore[return-value]

    @classmethod
    def three_unit(cls) -> "TangentCircleTriple":
        centers = [(0.0, 0.0), (2.0, 0.0), (1.0, SQRT3)]
        comps = [SceneComponent(i + 1, Circle(Point(*c), 1.0))
                 for i, c in enumerate(centers)]
        return cls(*comps)


def _tangency_newton(centers: np.ndarray, radii: np.ndarray, signs: np.ndarray,
                     c0: np.ndarray, r0: float, encloses: bool = False,
                     tol: float = 1e-12):
    """Damped Newton solve of |c - c_i| = r + sign_i * r_i for (c, r).

    ``signs`` is +1 for external tangency; -1 marks a wall that surrounds the
    unknown circle (the enclosing circle), turning the equation into
    |c - c_i| = r_i - r, handled by negating both sides.  ``encloses`` marks
    an unknown circle that surrounds all three walls, |c - c_i| = r - r_i;
    ``signs`` is then ignored.
    """
    x = np.array([c0[0], c0[1], abs(r0)], dtype=float)
    dr = -np.ones(3) if encloses else np.where(signs > 0, -np.ones(3), np.ones(3))

    def residual(x):
        d = np.hypot(x[0] - centers[:, 0], x[1] - centers[:, 1])
        if encloses:
            return d - (x[2] - radii)
        return d - np.where(signs > 0, x[2] + radii, radii - x[2])

    res = residual(x)
    for _ in range(80):
        norm = np.abs(res).max()
        if norm < tol:
            break
        d = np.hypot(x[0] - centers[:, 0], x[1] - centers[:, 1])
        d = np.where(d < 1e-300, 1.0, d)
        jac = np.column_stack([
            (x[0] - centers[:, 0]) / d,
            (x[1] - centers[:, 1]) / d,
            dr,
        ])
        cond = np.linalg.cond(jac)
        if not np.isfinite(cond) or cond > 1e8:
            raise IllConditionedError(f"tangency system condition number {cond:.3e}")
        step = np.linalg.solve(jac, -res)
        lam = 1.0
        for _ in range(40):
            cand = x + lam * step
            cres = residual(cand)
            if np.abs(cres).max() < norm:
                x, res = cand, cres
                break
            lam *= 0.5
        else:
            break
    if np.abs(res).max() > 1e-9:
        raise IllConditionedError(
            f"tangency solve stalled at residual {np.abs(res).max():.3e}")
    return x[:2], float(x[2])


def soddy_circles(t: TangentCircleTriple) -> tuple[SceneComponent, SceneComponent]:
    """The two circles tangent to all three members of ``t``.

    Returns (inner, outer).  The outer circle encloses the triple and is
    flagged via ``bounded=False`` (its signed curvature in the tangency
    quadratic is negative).  Seeds come from the curvature form, then a
    damped Newton iteration drives the tangency residuals to 1e-12.
    """
    cs = t.circles()
    centers = np.array([[c.center.x, c.center.y] for c in cs])
    radii = np.array([c.radius for c in cs])
    k = 1.0 / radii
    z = centers[:, 0] + 1j * centers[:, 1]

    root = 2.0 * math.sqrt(max(k[0] * k[1] + k[1] * k[2] + k[2] * k[0], 0.0))
    k_inner = k.sum() + root
    k_outer = k.sum() - root  # negative: the second solution encloses the triple
    zroot = 2.0 * np.sqrt(k[0] * k[1] * z[0] * z[1] + k[1] * k[2] * z[1] * z[2]
                          + k[2] * k[0] * z[2] * z[0])

    def newton_from_seed(k4: float, encloses: bool):
        best = None
        for sgn in (1.0, -1.0):
            z4 = (k[0] * z[0] + k[1] * z[1] + k[2] * z[2] + sgn * zroot) / k4
            c0 = np.array([z4.real, z4.imag])
            try:
                c_fit, r_fit = _tangency_newton(centers, radii, np.ones(3), c0,
                                                abs(1.0 / k4), encloses)
            except IllConditionedError:
                continue
            if best is None or r_fit >= 0:
                best = (c_fit, r_fit)
                break
        if best is None:
            raise IllConditionedError("no tangent circle found from curvature seeds")
        return best

    inner_c, inner_r = newton_from_seed(k_inner, encloses=False)
    outer_c, outer_r = newton_from_seed(k_outer, encloses=True)
    inner = SceneComponent(1, Circle(Point(*inner_c), inner_r))
    outer = SceneComponent(0, Circle(Point(*outer_c), outer_r), bounded=False)
    return inner, outer


def _interstice_corners(circles: CircleData, triples: np.ndarray) -> np.ndarray:
    """Pairwise tangency points (n, 3, 2) of interstice wall triples."""
    ctr, rad, enc = circles.centers, circles.radii, circles.enclosing
    out = np.zeros((len(triples), 3, 2))
    for m, (i, j) in enumerate(((0, 1), (0, 2), (1, 2))):
        a, b = triples[:, i], triples[:, j]
        ca, cb = ctr[a], ctr[b]
        d = np.hypot(cb[:, 0] - ca[:, 0], cb[:, 1] - ca[:, 1])
        d = np.where(d < 1e-300, 1.0, d)
        # inside an enclosing wall b the tangency point lies on the ray from
        # c_b through c_a, at distance r_a beyond c_a
        ra = np.where(enc[b], -rad[a], rad[a])
        out[:, m] = ca + (cb - ca) * (ra / d)[:, None]
    return out


def apollonian(seed: TangentCircleTriple, min_radius: float) -> FractalApproximation:
    """Circle packing generated from three mutually tangent seed circles.

    Every packing circle of radius >= ``min_radius`` is emitted together with
    the enclosing circle (level 0, enclosing flag).  Each curvilinear
    interstice is filled by the circle tangent to its three walls, obtained
    by reflecting the known opposite tangent circle in curvature form and
    refined by the Newton solve.  An interstice whose inscribed circle falls
    below ``min_radius`` is pruned: the inscribed circle is the largest one
    the interstice contains, so no descendant can reach the threshold.
    """
    if min_radius <= 0:
        raise ValueError("min_radius must be positive")
    inner, outer = soddy_circles(seed)
    del inner  # regenerated as the first reflection below
    cs = seed.circles()
    centers: list[np.ndarray] = [np.array([outer.shape.center.x, outer.shape.center.y])]
    radii: list[float] = [outer.shape.radius]
    levels: list[int] = [0]
    enclosing: list[bool] = [True]
    for c in cs:
        centers.append(np.array([c.center.x, c.center.y]))
        radii.append(c.radius)
        levels.append(0)
        enclosing.append(False)

    # frontier entries: (wall ids, id of the circle already tangent to all walls)
    frontier: list[tuple[list[int], int]] = [
        ([1, 2, 3], 0), ([0, 1, 2], 3), ([0, 1, 3], 2), ([0, 2, 3], 1)]
    interstices: list[np.ndarray] = []
    gen = 0
    while frontier:
        interstices.append(np.asarray([t for t, _ in frontier], dtype=np.int64))
        gen += 1
        next_frontier: list[tuple[list[int], int]] = []
        for triple, opp in frontier:
            sgn = np.array([-1.0 if enclosing[t] else 1.0 for t in triple])
            k = sgn / np.array([radii[t] for t in triple])
            k_opp = (-1.0 if enclosing[opp] else 1.0) / radii[opp]
            z = np.array([complex(centers[t][0], centers[t][1]) for t in triple])
            z_opp = complex(centers[opp][0], centers[opp][1])
            k_new = 2.0 * k.sum() - k_opp
            if k_new <= 0:
                raise IllConditionedError("reflection produced an unbounded circle")
            z_new = (2.0 * (k * z).sum() - k_opp * z_opp) / k_new
            tri_centers = np.array([centers[t] for t in triple])
            tri_radii = np.array([radii[t] for t in triple])
            c_new, r_new = _tangency_newton(tri_centers, tri_radii, sgn,
                                            np.array([z_new.real, z_new.imag]),
                                            1.0 / k_new)
            if r_new < min_radius:
                continue
            new_id = len(radii)
            if new_id > _APOLLONIAN_CIRCLE_CAP:
                raise ResourceLimitError("apollonian circle cap exceeded")
            centers.append(c_new)
            radii.append(r_new)
            levels.append(gen)
            enclosing.append(False)
            for drop in range(3):
                child = list(triple)
                opp_child = child[drop]
                child[drop] = new_id
                next_frontier.append((child, opp_child))
        frontier = next_frontier

    data = CircleData(np.asarray(centers), np.asarray(radii, dtype=float),
                      np.asarray(levels, dtype=np.int64),
                      np.asarray(enclosing, dtype=bool))
    n_levels = len(interstices)
    lvls = [FractalLevel(np.zeros((0, 3, 2)), np.zeros((0, 3, 2)))
            for _ in range(n_levels)]
    return FractalApproximation("apollonian", lvls, circles=data,
                                interstices=interstices)


# ---------------------------------------------------------------------------
# staircase and escape-time raster
# ---------------------------------------------------------------------------

def cantor_staircase(x: float, iterations: int = 48) -> float:
    """Staircase value of ``x`` truncated to ``iterations`` ternary digits.

    Monotone non-decreasing in ``x``; exact on plateau points once the digit
    budget reaches them.  Inputs outside [0, 1] are clamped with a warning.
    """
    if iterations <= 0 or iterations > 64:
        raise ValueError("iterations must be in 1..64")
    if x < 0.0 or x > 1.0:
        warnings.warn("staircase input clamped to [0, 1]", stacklevel=2)
        x = min(max(x, 0.0), 1.0)
    if x == 1.0:
        return 1.0
    value = 0.0
    weight = 0.5
    for _ in range(iterations):
        x *= 3.0
        digit = int(x)
        if digit == 1:
            return value + weight
        if digit >= 2:
            value += weight
            x -= 2.0
        weight *= 0.5
    return value


def staircase_array(x: np.ndarray, iterations: int = 48) -> np.ndarray:
    """Vectorized :func:`cantor_staircase` (inputs clamped silently)."""
    x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0).copy()
    value = np.where(x == 1.0, 1.0, 0.0)
    active = (x < 1.0) & (x > 0.0)
    weight = 0.5
    for _ in range(iterations):
        x[active] *= 3.0
        digit = np.floor(x).astype(np.int64)
        middle = active & (digit == 1)
        value[middle] += weight
        active = active & ~middle
        upper = active & (digit >= 2)
        value[upper] += weight
        x[upper] -= 2.0
        weight *= 0.5
    return value


JULIA_MAPS = ("z2+lambda/z2", "z2-16/27z")


def julia_raster(map_id: str, lam: complex = 0.0, grid: int = 256,
                 max_iter: int = 64, window: float = 2.0) -> np.ndarray:
    """Escape-iteration counts per pixel; ``max_iter`` marks bounded orbits.

    Visualization only; no certificate consumes the raster.
    """
    if map_id not in JULIA_MAPS:
        raise ValueError(f"unknown map {map_id!r}; expected one of {JULIA_MAPS}")
    if grid < 1 or grid * grid > 4096 * 4096:
        raise ResourceLimitError("raster resolution exceeds 4096^2")
    xs = np.linspace(-window, window, grid)
    ys = np.linspace(-window, window, grid)
    z = (xs[None, :] + 1j * ys[:, None]).astype(np.complex128).ravel()
    counts = np.full(z.shape, max_iter, dtype=np.int32)
    live = np.arange(z.size)     # flat pixel index of every entry of z
    for it in range(max_iter):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            if map_id == "z2+lambda/z2":
                z = z * z if lam == 0 else z * z + lam / (z * z)
            else:
                z = z * z - 16.0 / (27.0 * z)
        escaped = ~np.isfinite(z.real) | ~np.isfinite(z.imag) | (np.abs(z) > 4.0)
        counts[live[escaped]] = it + 1
        z, live = z[~escaped], live[~escaped]
    return counts.reshape(grid, grid)


def raster_to_pgm(counts: np.ndarray, max_iter: int) -> bytes:
    """Grayscale binary PGM encoding of an escape-count raster."""
    scale = 255.0 / max(max_iter, 1)
    img = np.clip(counts * scale, 0, 255).astype(np.uint8)
    header = f"P5\n{img.shape[1]} {img.shape[0]}\n255\n".encode()
    return header + img.tobytes()


# ---------------------------------------------------------------------------
# structural verification
# ---------------------------------------------------------------------------

@dataclass
class NestedConstructionReport:
    kind: str
    contact_violations: list[str]
    component_counts: list[int]
    max_solid_diameter: list[float]

    @property
    def passed(self) -> bool:
        return not self.contact_violations


def verify_nested_construction(f: FractalApproximation,
                               tol: float = 1e-9) -> NestedConstructionReport:
    """Check the contact conditions of the nested removal construction.

    Every hole removed at level m inside a solid of level m-1 must reach each
    positive-length portion of the solid's boundary contributed by an earlier
    component (isolated single-point contacts of earlier boundaries are not
    walls and are skipped; for circle packings the wall contact is the
    tangency of the new circle to each of its three bounding circles).  The
    report also lists the per-level solid counts, which witness that each
    interior stage has finitely many components, and the max solid diameter
    decay.
    """
    if f.kind not in ("gasket", "apollonian"):
        raise ValueError("verification supports gasket and apollonian kinds")
    violations: list[str] = []
    counts = [f.n_solids(m) for m in range(f.max_level + 1)]
    diams = list(f.max_solid_diameters)
    if f.kind == "gasket":
        for m in range(1, f.max_level + 1):
            violations += _gasket_contact_violations(f, m, tol)
    else:
        c = f.circles
        for k in range(len(c.radii)):
            if c.levels[k] >= 1 and not c.enclosing[k]:
                violations += _apollonian_contact_violations(f, k, tol)
    return NestedConstructionReport(f.kind, violations, counts, diams)


def _gasket_contact_violations(f: FractalApproximation, m: int,
                               tol: float) -> list[str]:
    out: list[str] = []
    parents = f.levels[m - 1].solids
    holes = f.levels[m].holes
    earlier = [f.outer_component()] + f.hole_components(m - 1)
    for hi in range(len(holes)):
        hole = holes[hi]
        parent = parents[hi]  # holes are generated in parent order
        edge_a = parent
        edge_b = _next_vertices(parent)
        mids = (edge_a + edge_b) / 2.0
        probes = np.vstack([edge_a, mids, edge_b])
        for comp in earlier:
            on_curve = comp.boundary_distance(probes) <= tol
            on_edge = on_curve[:3] & on_curve[3:6] & on_curve[6:]
            if not np.any(on_edge):
                continue
            sel = np.flatnonzero(on_edge)
            gap = segment_distance(hole, edge_a[sel], edge_b[sel]).min()
            if gap > tol:
                out.append(
                    f"level {m} hole {hi}: no contact with component "
                    f"{comp.index} along its parent wall (gap {gap:.3e})")
    return out


def _apollonian_contact_violations(f: FractalApproximation, k: int,
                                   tol: float) -> list[str]:
    c = f.circles
    gen = int(c.levels[k])
    d = np.hypot(c.centers[:, 0] - c.centers[k, 0],
                 c.centers[:, 1] - c.centers[k, 1])
    target = np.where(c.enclosing, c.radii - c.radii[k], c.radii + c.radii[k])
    resid = np.abs(d - target)
    resid[c.levels >= gen] = np.inf
    resid[k] = np.inf
    if np.sum(np.isfinite(resid)) < 3:
        return [f"circle {k} (gen {gen}) has fewer than 3 earlier candidates"]
    worst = float(np.sort(resid)[:3].max())
    if worst > tol:
        return [f"circle {k} (gen {gen}): worst wall tangency residual {worst:.3e}"]
    return []
