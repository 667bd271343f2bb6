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
    nrm = math.sqrt(v.dot(v))  # np.linalg.norm's formula for a vector
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


def _strip_rows(rows_left: int) -> int:
    """Row count of the Gram strip that ``rows_left`` rows still need:
    the largest power of two of at most BLOCK_ENTRIES // rows_left, and 1
    when that is 0."""
    return 1 << (max(1, BLOCK_ENTRIES // rows_left).bit_length() - 1)


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
        stop = start + _strip_rows(card - start)
        yield start, x[start:stop] @ x[start:].T
        start = stop


def max_gram_pair(x, near: float = math.inf) -> tuple[float, tuple[int, int], list]:
    """Largest off-diagonal Gram entry of >= 2 rows, its pair i < j, and the
    pairs i < j whose entry is at least ``near``.

    Of equal entries, the pair first in row-major order is returned.  The
    pairs at least ``near`` come in row-major order, as one (2, count)
    index array for each strip that holds one.  A code that fits in one
    strip is scanned as that strip, ``x @ x.T``, without the generator.
    """
    x = np.asarray(x, dtype=float)
    card = x.shape[0]
    strips = [(0, x @ x.T)] if card <= _strip_rows(card) else _gram_strips(x)
    best, pair, above = -math.inf, (0, 1), []
    for start, strip in strips:
        rows = np.arange(strip.shape[0])
        strip[:, :rows.size][rows[:, None] >= rows] = -np.inf  # the pairs j <= i
        k = int(strip.argmax())
        top = float(strip.flat[k])
        if top > best:  # strict, so that an earlier strip wins a tie
            r, c = divmod(k, strip.shape[1])
            best, pair = top, (start + r, start + c)
        if top >= near:
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

    Returns an (m, m-1) matrix whose columns are the basis vectors: the
    Gram-Schmidt basis, in coordinate order, of the coordinate axes other
    than the pivot p, the first coordinate of the largest magnitude, each
    projected onto the hyperplane.  It has a closed form.  For the unit
    normal w and an axis j != p, let T_j hold p and the axes i >= j, S_j be
    the sum of w_i^2 over T_j and t_j = w_j / S_j: the column of axis j is
    e_j - t_j * w restricted to T_j, divided by its norm sqrt(1 - w_j t_j).
    S_j >= w_p^2 + w_j^2 >= 2 w_j^2 keeps that norm at least sqrt(1/2).
    Entries off T_j are +0.0, so an axis normal gives the other axes exactly.
    """
    return _complement(as_unit(normal))


def _complement(w: np.ndarray) -> np.ndarray:
    """:func:`orthonormal_complement` of a direction that has passed
    :func:`as_unit`, without checking it again."""
    m = w.size
    p = int(np.abs(w).argmax())
    k = np.arange(m - 1)
    axes = k + (k >= p)  # the axis of each column
    wj = w[axes]
    t = wj / (np.add.accumulate((wj * wj)[::-1])[::-1] + w[p] * w[p])
    r = np.sqrt(1.0 - wj * t)
    on_t = np.arange(m)[:, None] > axes  # T_j without j itself
    on_t[p] = True
    q = np.zeros((m, m - 1))
    np.subtract(q, w[:, None] * (t / r), out=q, where=on_t)  # 0 - 0 is +0.0
    q[axes, k] = r
    return q


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
    if (np.abs(np.sqrt(np.vecdot(x, x)) - 1.0) > EPS_NORM).any():
        raise ValueError(f"point norms are not within {EPS_NORM} of 1")
    images, nrms, comps = _projected_rows(x, d)
    return images / nrms[:, None], comps


def _projected_rows(x: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The core of :func:`project_points` for rows within EPS_NORM of the
    unit norm and a unit direction ``d``, neither checked again:
    ``(images, residual_norms, axis_components)``, where row i of ``images``
    is the residual of x_i off the line in the complement basis, not yet
    divided by its norm.  Raises PointOnAxis as project_points does."""
    comps = x @ d
    resid = x - comps[:, None] * d
    nrms = np.sqrt(np.vecdot(resid, resid))
    if nrms.min() <= EPS_UNIT:
        raise PointOnAxis("point lies on the projection axis")
    return resid @ _complement(d), nrms, comps


def project_and_normalize(x, line: LineThroughOrigin) -> tuple[np.ndarray, float]:
    """One-point form of :func:`project_points`: ``(image, axis_component)``."""
    images, comps = project_points(as_unit(x)[None, :], line)
    return images[0], float(comps[0])
