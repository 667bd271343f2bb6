import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from sphcodes import geometry
from sphcodes.errors import DegenerateCode, DimensionMismatch, PointOnAxis


def unit_vectors(dim):
    return arrays(
        float, dim,
        elements=st.floats(-1.0, 1.0, allow_nan=False, width=64),
    ).filter(lambda v: np.linalg.norm(v) > 1e-3).map(
        lambda v: v / np.linalg.norm(v)
    )


@given(unit_vectors(5), unit_vectors(5))
def test_angle_symmetric(x, y):
    assert geometry.angle_between(x, y) == pytest.approx(
        geometry.angle_between(y, x), abs=1e-12
    )


@given(unit_vectors(7), unit_vectors(7))
def test_chordal_identity(x, y):
    # cos(angle) = 1 - chord^2 / 2 for unit vectors, the chord measured
    d = np.linalg.norm(x - y)
    assert geometry.cos_angle(x, y) == pytest.approx(1 - d * d / 2, abs=1e-12)


@given(st.integers(2, 16), st.integers(0, 2 ** 32 - 1))
def test_chordal_identity_random_dims(dim, seed):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y /= np.linalg.norm(y)
    d = np.linalg.norm(x - y)
    assert geometry.cos_angle(x, y) == pytest.approx(1 - d * d / 2, abs=1e-12)


def test_as_unit_rejects_non_unit():
    with pytest.raises(ValueError):
        geometry.as_unit([1.0, 1.0])
    with pytest.raises(ValueError):
        geometry.as_unit([np.nan, 0.0, 1.0])


def test_min_angle_of_orthoplex():
    pts = np.vstack([np.eye(3), -np.eye(3)])
    angle, (i, j) = geometry.min_angle(pts)
    assert angle == pytest.approx(math.pi / 2, abs=1e-12)
    assert i < j


def test_min_angle_needs_two_points():
    with pytest.raises(DegenerateCode):
        geometry.min_angle(np.array([[1.0, 0.0]]))


@pytest.mark.parametrize("scale", [1.0, 1.0 - 0.9e-9])
@pytest.mark.parametrize("angle", [1e-8, 1e-6, 9.9e-5])
def test_min_angle_measures_every_pair_inside_the_near_angle_by_chord(angle, scale):
    # rows at either end of EPS_NORM: inside NEAR_ANGLE every pair is near,
    # and the closest one is the later pair (1, 2)
    pts = scale * np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0],
                            [math.cos(angle), math.sin(angle), 0.0]])
    chord = np.linalg.norm(pts[1] - pts[2])
    i, j, chords = geometry.near_pairs(pts)
    assert (i.tolist(), j.tolist(), chords.tolist()) == ([1], [2], [chord])
    assert geometry.min_angle(pts) == (2.0 * math.asin(chord / 2.0), (1, 2))


@given(st.floats(0.0, 0.999999))
def test_section_radius(h):
    r = geometry.section_radius(h)
    assert r * r + h * h == pytest.approx(1.0, abs=1e-12)


def test_section_radius_domain():
    with pytest.raises(ValueError):
        geometry.section_radius(1.0)
    with pytest.raises(ValueError):
        geometry.section_radius(-0.1)


@settings(max_examples=50)
@given(st.integers(2, 12), st.integers(0, 2 ** 32 - 1))
def test_orthonormal_complement_is_orthonormal(dim, seed):
    rng = np.random.default_rng(seed)
    w = rng.standard_normal(dim)
    w /= np.linalg.norm(w)
    basis = geometry.orthonormal_complement(w)
    assert basis.shape == (dim, dim - 1)
    assert np.allclose(basis.T @ basis, np.eye(dim - 1), atol=1e-12)
    assert np.allclose(basis.T @ w, 0.0, atol=1e-12)


def test_orthonormal_complement_deterministic():
    w = np.array([0.6, 0.8, 0.0])
    assert np.array_equal(
        geometry.orthonormal_complement(w), geometry.orthonormal_complement(w)
    )


def test_project_and_normalize_unit_image():
    rng = np.random.default_rng(3)
    d = rng.standard_normal(6)
    line = geometry.LineThroughOrigin(d / np.linalg.norm(d))
    x = rng.standard_normal(6)
    x /= np.linalg.norm(x)
    img, comp = geometry.project_and_normalize(x, line)
    assert img.shape == (5,)
    assert np.linalg.norm(img) == pytest.approx(1.0, abs=1e-12)
    assert comp == pytest.approx(float(x @ line.direction), abs=1e-15)


def test_project_point_on_axis():
    line = geometry.LineThroughOrigin([0.0, 0.0, 1.0])
    with pytest.raises(PointOnAxis):
        geometry.project_and_normalize([0.0, 0.0, 1.0], line)


def test_hyperplane_offset_domain():
    with pytest.raises(ValueError):
        geometry.Hyperplane(np.array([1.0, 0.0]), 1.0)


# the boundary checks that no other test reaches: (call, exception, message fragment)
@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: geometry.as_unit([[1.0]]), ValueError,
                 "unit vector must be a 1-d array of dimension >= 1", id="as-unit-shape"),
    pytest.param(lambda: geometry.cos_angle([1.0, 0.0], [1.0, 0.0, 0.0]), DimensionMismatch,
                 "dimensions 2 and 3 differ", id="cos-angle-dims"),
    pytest.param(lambda: geometry.project_points(np.eye(3),
                                                 geometry.LineThroughOrigin([1.0, 0.0])),
                 DimensionMismatch, "points of shape (3, 3) != line dimension 2",
                 id="project-dims"),
    pytest.param(lambda: geometry.project_points([[2.0, 0.0, 0.0]],
                                                 geometry.LineThroughOrigin([0.0, 0.0, 1.0])),
                 ValueError, "point norms are not within", id="project-norm"),
])
def test_boundary_checks(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)
