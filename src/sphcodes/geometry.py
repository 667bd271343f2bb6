"""Floating-point primitives for points on unit spheres.

Angles, chordal distances, hyperplane sections and projections along a
line through the origin.  All functions are pure; arrays are never
mutated in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateCode, DimensionMismatch, PointOnAxis

# Norm validation tolerance for unit vectors.
EPS_UNIT = 1e-12
# Norm tolerance for the points of a code: code files and computed codes
# carry more rounding than a single direction, so this is coarser.
EPS_NORM = 1e-9
# Tolerance for angle comparisons (coarser: arccos loses precision near 0 and pi).
EPS_ANGLE = 1e-9
# Gram strips and candidate-score blocks hold at most this many float64 entries.
BLOCK_ENTRIES = 1 << 18


def as_unit(coords, eps: float = EPS_UNIT) -> np.ndarray:
    """Validate and return a unit vector as a float64 array.

    Raises ValueError if the norm deviates from 1 by more than ``eps``
    (a non-finite norm included) or the dimension is < 1.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("unit vector must be a 1-d array of dimension >= 1")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= eps:  # written so that a nan norm fails too
        raise ValueError(f"vector norm {nrm!r} is not within {eps} of 1")
    return v


def scaled_rows(x) -> np.ndarray:
    """Rows of ``x``, each scaled by a power of two to a largest |entry| in [0.5, 1).

    The scaling is exact, so the norm of a scaled row can neither overflow
    nor underflow, and the row divided by that norm is bit for bit the unit
    vector of the row.  An all-zero row stays as it is.
    """
    x = np.asarray(x, dtype=float)
    return np.ldexp(x, -np.frexp(np.abs(x).max(axis=-1, keepdims=True))[1])


@dataclass(frozen=True)
class Hyperplane:
    """Affine hyperplane {x : <x, normal> = offset} with 0 <= offset < 1.

    The intersection with the unit sphere is a sphere of radius
    sqrt(1 - offset^2) > 0.
    """

    normal: np.ndarray
    offset: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "normal", as_unit(self.normal))
        if not (0.0 <= self.offset < 1.0):
            raise ValueError(f"offset must be in [0, 1), got {self.offset}")

    @property
    def dimension(self) -> int:
        return self.normal.size

    @property
    def section_radius(self) -> float:
        return section_radius(self.offset)


@dataclass(frozen=True)
class LineThroughOrigin:
    """Oriented line through the origin, given by a unit direction."""

    direction: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "direction", as_unit(self.direction))

    @property
    def dimension(self) -> int:
        return self.direction.size


def clamp_cos(c: float) -> float:
    """Clamp an inner product to [-1, 1] before arccos."""
    return min(1.0, max(-1.0, float(c)))


def cos_angle(x, y) -> float:
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape:
        raise DimensionMismatch(f"dimensions {x.size} and {y.size} differ")
    return clamp_cos(float(np.dot(x, y)))


def angle_between(x, y) -> float:
    """Angle in [0, pi] between two unit vectors of the same dimension."""
    return float(np.arccos(cos_angle(x, y)))


def chordal_distance(x, y) -> float:
    """Euclidean distance between unit vectors, sqrt(2 - 2 cos(angle))."""
    return float(np.sqrt(max(0.0, 2.0 - 2.0 * cos_angle(x, y))))


def pairwise_cos(points: np.ndarray) -> np.ndarray:
    """Gram matrix of a (card, n) array, clamped to [-1, 1].

    The package itself scans Gram strips instead (:func:`max_gram_pair`);
    the benchmark's tracer still wraps this function by name.
    """
    g = points @ points.T
    return np.clip(g, -1.0, 1.0)


def _gram_strips(x: np.ndarray):
    """Row strips of the upper triangle of the Gram matrix of the rows of ``x``.

    Yields ``(start, x[start:stop] @ x[start:].T)``: entry (r, c) of a strip
    is the pair (start + r, start + c), a pair i < j where r < c.  A strip
    holds at most BLOCK_ENTRIES entries and at least one row.  Its row
    count is a power of two, and no smaller than that of the strips before
    it, so every strip starts at a multiple of the first one's row count:
    BLAS kernels then tile a strip as they tile the whole Gram matrix, and
    equal entries round alike in both.
    """
    card, start = x.shape[0], 0
    while start < card:
        stop = start + (1 << (max(1, BLOCK_ENTRIES // (card - start)).bit_length() - 1))
        yield start, x[start:stop] @ x[start:].T
        start = stop


def max_gram_pair(x) -> tuple[float, tuple[int, int]]:
    """Largest off-diagonal Gram entry of >= 2 rows and its pair i < j.

    Of equal entries, the pair first in row-major order is returned.
    """
    best, pair = -math.inf, (0, 1)
    for start, strip in _gram_strips(np.asarray(x, dtype=float)):
        rows = np.arange(strip.shape[0])
        strip[:, :rows.size][rows[:, None] >= rows] = -np.inf  # the pairs j <= i
        k = int(np.argmax(strip))
        if strip.flat[k] > best:  # strict, so that an earlier strip wins a tie
            r, c = divmod(k, strip.shape[1])
            best, pair = float(strip.flat[k]), (start + r, start + c)
    return best, pair


def min_angle(points) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise angle of >= 2 unit vectors, with the argmin pair i < j.

    Raises DegenerateCode for fewer than two points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DegenerateCode("minimum angle needs at least two points")
    cos, pair = max_gram_pair(pts)
    return float(np.arccos(clamp_cos(cos))), pair


def section_radius(h: float) -> float:
    """Radius sqrt(1 - h^2) of the sphere cut by a hyperplane at offset h."""
    if not (0.0 <= h < 1.0):
        raise ValueError(f"offset must be in [0, 1), got {h}")
    return float(np.sqrt(1.0 - h * h))


def orthonormal_complement(normal: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of the hyperplane orthogonal to ``normal``.

    Returns an (m, m-1) matrix whose columns are the basis vectors.  The
    construction pivots on the largest-magnitude coordinate of the normal,
    projects the other coordinate axes onto the hyperplane and takes their
    QR factorization with R's diagonal made positive: up to rounding, the
    Gram-Schmidt basis of the projected axes in coordinate order.
    """
    w = as_unit(normal)
    keep = np.arange(w.size) != np.argmax(np.abs(w))
    q, r = np.linalg.qr(np.eye(w.size)[:, keep] - np.outer(w, w[keep]))
    return q * np.sign(r.diagonal())


def project_points(points, line: LineThroughOrigin) -> tuple[np.ndarray, np.ndarray]:
    """Project unit vectors off the line, renormalize, re-express in n-1 coords.

    ``points`` is a (card, n) array.  Returns ``(images, axis_components)``:
    row i of ``images`` is the unit vector of dimension n-1 that point i
    projects to, written in the basis ``orthonormal_complement(direction)``,
    and ``axis_components[i]`` is <x_i, direction>.

    Raises PointOnAxis when a point is (numerically) parallel to the line.
    """
    x = np.asarray(points, dtype=float)
    d = line.direction
    if x.ndim != 2 or x.shape[1] != d.size:
        raise DimensionMismatch(f"points of shape {x.shape} != line dimension {d.size}")
    if np.any(np.abs(np.sqrt(np.vecdot(x, x)) - 1.0) > EPS_NORM):
        raise ValueError(f"point norms are not within {EPS_NORM} of 1")
    comps = x @ d
    resid = x - comps[:, None] * d
    nrms = np.sqrt(np.vecdot(resid, resid))
    if np.any(nrms <= EPS_UNIT):
        raise PointOnAxis("point lies on the projection axis")
    return (resid @ orthonormal_complement(d)) / nrms[:, None], comps


def project_and_normalize(x, line: LineThroughOrigin) -> tuple[np.ndarray, float]:
    """One-point form of :func:`project_points`: ``(image, axis_component)``."""
    images, comps = project_points(as_unit(x)[None, :], line)
    return images[0], float(comps[0])
