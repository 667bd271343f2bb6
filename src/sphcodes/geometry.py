"""Floating-point primitives for points on unit spheres.

Angles, the chords of near pairs, hyperplane sections and projections along a
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
# Tolerance for angle comparisons: two points of a code whose chord is below
# it coincide.
EPS_ANGLE = 1e-9
# Slack of the cutoff window's edges and of the region and cone boundaries.
EPS_REGION = 1e-12
# Next to 1, arccos of a Gram entry resolves angles only to about 1.5e-8, so
# the pairs closer than NEAR_ANGLE, those of chord below NEAR_CHORD, are
# measured by their chord.  For rows within EPS_NORM of the unit norm such a
# pair has a Gram entry (|x|^2 + |y|^2 - chord^2) / 2 above 1 - 7.1e-9;
# NEAR_GRAM leaves a margin below that for the rounding of the entry.
NEAR_ANGLE = 1e-4
NEAR_CHORD = 2.0 * math.sin(NEAR_ANGLE / 2)
NEAR_GRAM = 1.0 - 1e-8
# Gram strips, candidate-score blocks and envelope blocks hold at most this
# many float64 entries: 512 KiB, so that a block, its boolean sides and the
# points it is scored against fit in a 2 MiB per-core L2 cache between the
# matrix product and the reductions that read the block back.
BLOCK_ENTRIES = 1 << 16


def quadrant(d1: float, d2: float) -> str:
    """Region of a point whose signed offsets from two crossing lines are d1
    and d2: 'boundary' if either is within EPS_REGION of 0, else 'D' (both
    negative), 'U' (both positive), 'L' (d1 < 0 < d2) or 'R' (d2 < 0 < d1)."""
    if abs(d1) <= EPS_REGION or abs(d2) <= EPS_REGION:
        return "boundary"
    if d1 < 0 and d2 < 0:
        return "D"
    if d1 > 0 and d2 > 0:
        return "U"
    return "L" if d1 < 0 else "R"


def as_unit(coords) -> np.ndarray:
    """Validate and return a unit vector as a float64 array.

    Raises ValueError if the norm deviates from 1 by more than EPS_UNIT
    (a non-finite norm included) or the dimension is < 1.
    """
    v = np.asarray(coords, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise ValueError("unit vector must be a 1-d array of dimension >= 1")
    nrm = float(np.linalg.norm(v))
    if not abs(nrm - 1.0) <= EPS_UNIT:  # written so that a nan norm fails too
        raise ValueError(f"vector norm {nrm!r} is not within {EPS_UNIT} of 1")
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


def max_gram_pair(x, near: float = math.inf) -> tuple[float, tuple[int, int], list]:
    """Largest off-diagonal Gram entry of >= 2 rows, its pair i < j, and the
    pairs i < j whose entry is at least ``near``.

    Of equal entries, the pair first in row-major order is returned.  The
    pairs at least ``near`` come in row-major order, as one (2, count)
    index array for each strip that holds one.
    """
    best, pair, above = -math.inf, (0, 1), []
    for start, strip in _gram_strips(np.asarray(x, dtype=float)):
        rows = np.arange(strip.shape[0])
        strip[:, :rows.size][rows[:, None] >= rows] = -np.inf  # the pairs j <= i
        k = int(np.argmax(strip))
        if strip.flat[k] > best:  # strict, so that an earlier strip wins a tie
            r, c = divmod(k, strip.shape[1])
            best, pair = float(strip.flat[k]), (start + r, start + c)
        if strip.flat[k] >= near:
            above.append(np.array(np.nonzero(strip >= near)) + start)
    return best, pair, above


def _near(x: np.ndarray, above: list) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, chord)`` of the pairs of the index arrays ``above`` whose
    chord ||x_i - x_j|| is below NEAR_CHORD, taking the differences
    BLOCK_ENTRIES coordinates at a time."""
    i, j = np.hstack([np.empty((2, 0), dtype=np.intp), *above])
    chord = np.empty(i.size)
    step = max(1, BLOCK_ENTRIES // x.shape[1])
    for k in range(0, i.size, step):
        diff = x[i[k:k + step]] - x[j[k:k + step]]
        chord[k:k + step] = np.sqrt(np.vecdot(diff, diff))
    near = chord < NEAR_CHORD
    return i[near], j[near], chord[near]


def near_pairs(x) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``(i, j, chord)`` of the pairs i < j of rows of ``x``, in row-major
    order, whose chord ||x_i - x_j|| is below NEAR_CHORD.

    The rows must lie within EPS_NORM of the unit norm: the pairs are
    selected by a Gram entry of at least NEAR_GRAM, then measured directly.
    """
    x = np.asarray(x, dtype=float)
    return _near(x, max_gram_pair(x, NEAR_GRAM)[2])


def min_angle(points) -> tuple[float, tuple[int, int]]:
    """Minimum pairwise angle of >= 2 unit vectors, with the argmin pair i < j.

    With a near pair (:func:`near_pairs`), the angle is 2 asin(chord / 2) of
    the closest one, the first in row-major order of equal chords; without,
    it is the arccos of the largest Gram entry.  One Gram scan serves both.
    Raises DegenerateCode for fewer than two points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[0] < 2:
        raise DegenerateCode("minimum angle needs at least two points")
    cos, pair, above = max_gram_pair(pts, NEAR_GRAM)
    if above:
        i, j, chord = _near(pts, above)
        if chord.size:
            k = int(np.argmin(chord))
            return 2.0 * math.asin(chord[k] / 2.0), (int(i[k]), int(j[k]))
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
