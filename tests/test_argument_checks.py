"""Argument checks of the public API that no other test or CLI run reaches."""

import numpy as np
import pytest

from detourkit import certify as ct
from detourkit.detour import FractalScene
from detourkit.domains import DiskDomain
from detourkit.errors import IllConditionedError, InvalidShapeError, MissingFitError
from detourkit.fractals import (TangentCircleTriple, cantor_staircase, carpet_levels,
                                gasket_levels, verify_nested_construction)
from detourkit.geometry import (Circle, Line, Point, Polygon, SceneComponent,
                                component_closures_intersect)
from detourkit.qhyp import FitReport, HolderFit, geodesic_cube_sum
from detourkit.whitney import whitney_decompose


def _disk(index, x):
    return SceneComponent(index, Circle(Point(x, 0.0), 1.0))


def _square(index):
    return SceneComponent(index, Polygon(np.array([[0.0, 0.0], [1.0, 0.0],
                                                   [1.0, 1.0], [0.0, 1.0]])))


_NO_FIT = FitReport("not-holder", None, 0.1, 1.0, 0.5, 10)
_FIT = HolderFit((0.0, 0.0), 0.5, 1.0, 10, 0.0)

#: case name: (error, message pattern, call)
CASES = {
    "oscillation_bound-no-fit": (
        MissingFitError, "did not dominate",
        lambda: ct.oscillation_bound(DiskDomain(), _NO_FIT, ct.function_of("x"))),
    "oscillation_bound-p2": (
        ValueError, "p > 2",
        lambda: ct.oscillation_bound(DiskDomain(), _FIT, ct.function_of("x"), p=2.0)),
    "FractalScene.component-negative": (
        IndexError, "negative", lambda: FractalScene(gasket_levels(1)).component(-1)),
    "cantor_staircase-0": (
        ValueError, "1..64", lambda: cantor_staircase(0.5, iterations=0)),
    "cantor_staircase-65": (
        ValueError, "1..64", lambda: cantor_staircase(0.5, iterations=65)),
    "TangentCircleTriple-polygon": (
        IllConditionedError, "must be circles",
        lambda: TangentCircleTriple(_disk(1, -1.0), _disk(2, 1.0), _square(3))),
    "verify_nested_construction-carpet": (
        ValueError, "gasket and apollonian",
        lambda: verify_nested_construction(carpet_levels(2))),
    "Line-zero-direction": (
        InvalidShapeError, "nonzero", lambda: Line((0.0, 0.0), 0.0)),
    "Circle-radius-0": (
        InvalidShapeError, "positive", lambda: Circle(Point(0.0, 0.0), 0.0)),
    "SceneComponent-negative": (
        InvalidShapeError, "non-negative", lambda: _disk(-1, 0.0)),
    "component_closures_intersect-negative-tol": (
        ValueError, "non-negative",
        lambda: component_closures_intersect(_disk(1, -1.0), _disk(2, 1.0), -1.0)),
    "geodesic_cube_sum-beta-0": (
        ValueError, "beta",
        lambda: geodesic_cube_sum(whitney_decompose(DiskDomain(), 2), np.array([0]), 0.0)),
}


@pytest.mark.parametrize("case", list(CASES))
def test_rejects(case):
    error, message, call = CASES[case]
    with pytest.raises(error, match=message):
        call()
