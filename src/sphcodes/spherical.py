"""Spherical codes and the three continuous spoiling operations.

A spherical code is a finite set of unit vectors in R^n.  The spoiling
operations trade dimension, cardinality and minimum angle against each
other in controlled ways; the composite pipelines chain them to hit a
requested parameter template.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import geometry
from .errors import (
    CollapseError,
    DegenerateCode,
    DimensionMismatch,
    InputFormatError,
    LambdaOutOfRange,
    SearchBudgetExhausted,
)
from .geometry import (
    EPS_ANGLE,
    EPS_NORM,
    EPS_UNIT,
    Hyperplane,
    LineThroughOrigin,
)
from .kl import kl_bound


@dataclass(frozen=True)
class SphericalCodePoint:
    """Parameter pair (R, cos phi) of a spherical code, with provenance."""

    rate: float
    cos_phi: float
    dimension: int
    card: int
    provenance: str = ""

    @property
    def phi(self) -> float:
        return float(np.arccos(geometry.clamp_cos(self.cos_phi)))


class SphericalCode:
    """Immutable set of unit vectors on S^{n-1} with a cached minimum angle."""

    def __init__(self, points, *, normalize: bool = False, check_distinct: bool = True):
        pts = np.asarray(points, dtype=float)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ValueError("points must be a (card, n) array with card, n >= 1")
        top = np.abs(pts).max()  # nan or inf when a coordinate is not finite
        if not top < math.inf:
            raise ValueError("points must have finite coordinates")
        if normalize and top > 2.0 ** 500:  # the squared norms could overflow
            pts = geometry.scaled_rows(pts)
        norms = np.sqrt(np.add.reduce(pts * pts, axis=1))  # np.linalg.norm's formula
        if normalize:
            if (norms <= EPS_UNIT).any():
                raise ValueError("cannot normalize a zero point")
            pts = pts / norms[:, None]
        elif (np.abs(norms - 1.0) > EPS_NORM).any():
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"points are not unit vectors (max norm error {worst:.3e})")
        self._points = pts
        self._points.setflags(write=False)
        # the cached minimum angle, so that a later min_angle costs no scan;
        # below NEAR_ANGLE it is the chord angle of the closest pair
        if check_distinct and self.card >= 2 and self.min_angle < EPS_ANGLE:
            raise ValueError("points are not pairwise distinct beyond EPS_ANGLE")

    @classmethod
    def _derived(cls, pts: np.ndarray, min_angle=None) -> SphericalCode:
        """The code of rows that a spoiling op derived from a validated code:
        the second half of ``__init__``, which takes ``pts`` as they are.

        The op's own arithmetic keeps what the checks test: its rows are
        finite, within EPS_NORM of the unit norm (each was divided by its
        own norm, or is a row of the code), and none is zero.  Distinctness
        is not checked, as no op result checks it.  ``min_angle``, when
        given, is the ``(angle, pair)`` that a fresh :func:`geometry.min_angle`
        of ``pts`` returns, which the op knows without a scan.
        """
        code = cls.__new__(cls)
        code._points = pts
        pts.setflags(write=False)
        if min_angle is not None:
            code._min_angle = min_angle  # the value of the cached property
        return code

    @property
    def points(self) -> np.ndarray:
        return self._points

    @property
    def dimension(self) -> int:
        return self._points.shape[1]

    @property
    def card(self) -> int:
        return self._points.shape[0]

    @cached_property
    def _min_angle(self) -> tuple[float, tuple[int, int]]:
        return geometry.min_angle(self._points)

    @property
    def min_angle(self) -> float:
        return self._min_angle[0]

    @property
    def min_angle_pair(self) -> tuple[int, int]:
        return self._min_angle[1]

    @property
    def cos_min_angle(self) -> float:
        return math.cos(self._min_angle[0])

    @property
    def rate(self) -> float:
        # np.log2 of a float, which skips the int's array conversion and
        # rounds as np.log2 of the int does; math.log2 rounds differently
        return float(np.log2(float(self.card))) / self.dimension

    def code_point(self, provenance: str = "") -> SphericalCodePoint:
        return SphericalCodePoint(
            rate=self.rate,
            cos_phi=self.cos_min_angle,
            dimension=self.dimension,
            card=self.card,
            provenance=provenance,
        )

    def __repr__(self):
        return f"SphericalCode(n={self.dimension}, card={self.card})"


def merge_close_points(pts: np.ndarray) -> np.ndarray:
    """Drop each point whose chord to an earlier kept point is below EPS_ANGLE.

    The first point of each close group is kept.  The pairs are those of
    :func:`geometry.near_pairs`, so the rows must lie within EPS_NORM of
    the unit norm.
    """
    i, j, chord = geometry.near_pairs(pts)
    keep = np.ones(pts.shape[0], dtype=bool)
    for a, b in zip(i[chord < EPS_ANGLE].tolist(), j[chord < EPS_ANGLE].tolist()):
        # pairs come in row-major order, so keep[a] is final once row a is reached
        if keep[a]:
            keep[b] = False
    return pts[keep]


# ---------------------------------------------------------------------------
# The three spoiling operations
# ---------------------------------------------------------------------------

def spoil1(code: SphericalCode, hyperplane: Hyperplane) -> SphericalCode:
    """Embed the code into the hyperplane section of the next-dimension sphere.

    Cardinality is preserved, dimension grows by one, and every pairwise
    cosine maps to rho^2 * cos + (1 - rho^2) where rho is the section radius.
    """
    if hyperplane.dimension != code.dimension + 1:
        raise DimensionMismatch(
            f"hyperplane lives in R^{hyperplane.dimension}, "
            f"need R^{code.dimension + 1}"
        )
    rho = hyperplane.section_radius
    basis = geometry.orthonormal_complement(hyperplane.normal)
    new_pts = rho * (code.points @ basis.T) + hyperplane.offset * hyperplane.normal
    return SphericalCode(new_pts, normalize=True, check_distinct=False)


def spoil1_lambda(code: SphericalCode, lam: float) -> SphericalCode:
    """Section embedding with rho^2 = lam, so cos phi -> lam*cos phi + 1 - lam.

    This is :func:`spoil1` on the hyperplane with normal e_{n+1} and offset
    h = sqrt(1 - lam), written in closed form: the complement of e_{n+1}
    is [I | 0], so each point x maps to [rho * x, h] with
    rho = sqrt(1 - h^2), then the rows are normalized.  Adding 0.0 to the
    normalized rows turns -0.0 into +0.0 as spoil1's matrix product does,
    so the two agree bit for bit.  lam = 1 is the equatorial embedding; a lam so
    small that h rounds to 1, lam = 0 among them, would collapse the whole
    code to a pole and is rejected.

    The map of cosines is increasing and the same for every pair, so the
    result's minimum angle comes from the formula, with no Gram scan: its
    pair is the code's own ``min_angle_pair``, and its cos phi is
    lam * cos phi + 1 - lam of the code's.  Below NEAR_ANGLE, where arccos
    resolves angles poorly, the angle is that pair's chord angle in the new
    points, as :func:`geometry.min_angle` measures a near pair.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    h = math.sqrt(1.0 - lam)
    if h == 1.0:
        raise CollapseError(f"lambda = {lam!r} maps every point to a single pole: "
                            "sqrt(1 - lambda) rounds to 1")
    card, n = code.points.shape
    new_pts = np.empty((card, n + 1))
    np.multiply(code.points, math.sqrt(1.0 - h * h), out=new_pts[:, :n])
    new_pts[:, n] = h
    new_pts /= np.sqrt(np.add.reduce(new_pts * new_pts, axis=1))[:, None]
    new_pts += 0.0
    if card < 2:
        return SphericalCode._derived(new_pts)
    i, j = code.min_angle_pair
    phi = math.acos(geometry.clamp_cos(lam * code.cos_min_angle + (1.0 - lam)))
    if phi < geometry.NEAR_ANGLE:
        diff = new_pts[i] - new_pts[j]
        phi = 2.0 * math.asin(math.sqrt(diff.dot(diff)) / 2.0)
    return SphericalCode._derived(new_pts, (phi, (i, j)))


def spoil2(code: SphericalCode, line: LineThroughOrigin) -> tuple[SphericalCode, float]:
    """Project off a line through the origin and renormalize.

    Returns ``(new_code, xi)`` where xi = dist(X, line) is the smallest
    projection norm over the code.  Points projecting onto coinciding rays
    are merged with a warning.

    The code's rows and the line's direction have passed their checks, so
    the projection skips them, and each image row is divided once, by its
    own norm: a 1-dimensional image is exactly +-1.
    """
    if line.dimension != code.dimension:
        raise DimensionMismatch("line dimension does not match the code")
    if code.dimension < 2:
        raise DegenerateCode("cannot project a code on S^0")
    images, _, comps = geometry._projected_rows(code.points, line.direction)
    # sqrt(max(0, 1 - c^2)) is non-increasing in c^2, so its least value
    # over the rows is its value at the largest c^2, rounding included
    xi = min(1.0, math.sqrt(max(0.0, 1.0 - float((comps * comps).max()))))
    images /= np.sqrt(np.add.reduce(images * images, axis=1))[:, None]
    out = SphericalCode._derived(images)
    if out.card >= 2 and out.min_angle >= EPS_ANGLE:  # the common case: one scan
        return out, xi
    merged = merge_close_points(out.points)
    if merged.shape[0] < out.card:
        warnings.warn(
            f"spoil2 merged {out.card - merged.shape[0]} coinciding projections",
            stacklevel=2,
        )
    if merged.shape[0] < 2:
        raise DegenerateCode("all projections coincide")
    return SphericalCode._derived(merged), xi


def xi_to_u(xi: float) -> float:
    """u = (1 - xi^2) / xi^2 for the projection distance xi."""
    if xi <= 0.0:
        raise ValueError("xi must be positive")
    return (1.0 - xi * xi) / (xi * xi)


def spoil3(code: SphericalCode, line: LineThroughOrigin, sign: int) -> SphericalCode:
    """Restrict the code to one hemisphere of the oriented line.

    ``sign=+1`` keeps points with <x, direction> >= 0, ``sign=-1`` keeps
    the strictly negative ones.  The minimum angle never decreases.

    The kept rows keep their order.  When the code's closest pair is known
    and both its points are kept, it is the closest pair of the result:
    the largest Gram entry of a subset of pairs that holds it is its own,
    and no pair before it in row-major order has that entry.  The result
    then takes the code's angle and the pair's new indices, with no scan.
    """
    if line.dimension != code.dimension:
        raise DimensionMismatch("line dimension does not match the code")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    dots = code.points @ line.direction
    mask = dots >= 0.0 if sign > 0 else dots < 0.0
    if not mask.any():
        raise DegenerateCode("selected hemisphere contains no point")
    known = vars(code).get("_min_angle")  # set once min_angle was asked for
    if known is not None and mask[known[1][0]] and mask[known[1][1]]:
        phi, pair = known
        known = (phi, tuple(int(np.count_nonzero(mask[:k])) for k in pair))
    else:
        known = None
    return SphericalCode._derived(code.points[mask], known)


def _unit_rows(v: np.ndarray) -> np.ndarray:
    """The rows of ``v`` whose norm exceeds EPS_UNIT, each divided by its norm."""
    nrm = np.sqrt(np.vecdot(v, v))
    if nrm.min() > EPS_UNIT:  # the common case: no row to drop
        return v / nrm[:, None]
    keep = nrm > EPS_UNIT
    return v[keep] / nrm[keep, None]


def _midpoint_blocks(pts: np.ndarray, rows: int):
    """The normalized midpoints of the pairs i < j in lexicographic order,
    skipping those of norm <= EPS_UNIT, the pairs of about ``rows // card``
    first points at a time."""
    card = pts.shape[0]
    step = max(1, rows // card)  # first points of the pairs in one block
    for i in range(0, card - 1, step):
        ii, jj = np.nonzero(np.arange(card) > np.arange(i, min(i + step, card))[:, None])
        yield _unit_rows(pts[ii + i] + pts[jj])


def _side_scores(dirs: np.ndarray, pts: np.ndarray) -> tuple[np.ndarray, np.ndarray, float]:
    """``(sides, closest, low)`` of the candidate rows ``dirs``: ``sides =
    dirs @ pts.T >= 0``, ``closest`` the distance of each row's nearest
    point from its separating hyperplane, and ``low`` the least of those.
    Rows whose nearest point is within a factor 2 of EPS_UNIT are scored
    again as ``pts @ dir``, so that ``sides`` and ``closest`` are what
    scoring each direction on its own gives.  The distances are taken in
    place, so that a block allocates one float array of at most
    BLOCK_ENTRIES entries.
    """
    dots = dirs @ pts.T
    sides = dots >= 0.0
    closest = np.minimum.reduce(np.abs(dots, out=dots), axis=1)
    low = closest.min()
    if low <= 2 * EPS_UNIT:
        for r in ((closest > EPS_UNIT / 2) & (closest <= 2 * EPS_UNIT)).nonzero()[0]:
            dot = pts @ dirs[r]
            sides[r], closest[r] = dot >= 0.0, np.min(np.abs(dot))
        low = closest.min()
    return sides, closest, float(low)


def _larger_side(line: LineThroughOrigin, plus: int, card: int) -> tuple:
    """``(line, sign, count)`` of the first admissible side of a line with
    ``plus`` of ``card`` points on its + side, 0 < plus < card: +1 when
    that side holds at least half, else -1."""
    return (line, +1, plus) if 2 * plus >= card else (line, -1, card - plus)


def _balanced_splits(code: SphericalCode, seed: int):
    """Admissible balanced splits ``(line, sign, count)``, card/2 <= count < card.

    Candidates are scored deterministically, a block of at most
    BLOCK_ENTRIES // card rows at a time (:func:`_side_scores`), with a
    budget of 10 * card * n trials: every code point as it is, then the
    normalized pair midpoints of :func:`_midpoint_blocks`, then unit
    directions from ``default_rng(seed)``, as one at a time would draw them,
    in blocks of 16 draws that double up to the block size (the first few
    directions usually split, so the first blocks are kept small).

    The point rows score the Gram matrix.  When all its entries exceed
    4 * EPS_UNIT, every point and every midpoint has all points on its +
    side, farther than 2 * EPS_UNIT: a midpoint's dot with a point is the
    sum of two Gram entries over a norm of at most 2, and the factor 2 to
    spare covers rounding.  Such a row splits nothing and sets no
    fallback.  The midpoints, all card * (card - 1) / 2 of them since each
    has squared norm 2 + 2 * cos > 2, are then counted against the budget
    without being scored.

    Splits are yielded in candidate order, +1 before -1, each hemisphere
    once, skipping candidates that leave a point within EPS_UNIT of the
    separating hyperplane; the search stops after the candidate that
    brings the count to 16.  If the budget holds no such split, the first
    admissible split of a skipped candidate is yielded alone.  If no
    candidate splits at all, the line along p_i - p_j of the closest pair
    (i, j), which puts p_i on its + side, splits by its fuller side: a
    near-parallel code leaves every point and midpoint one-sided, and a
    random direction splits its closest pair only with a probability of
    their angle over pi.
    """
    if code.card < 2:
        raise DegenerateCode("balanced split needs at least two points")
    pts, card, n = code.points, code.card, code.dimension
    left = 10 * card * n  # the candidates that the budget still allows
    rows = max(1, min(geometry.BLOCK_ENTRIES // card, left))
    fallback, seen, one_sided = None, set(), True
    block, midpoints, rng, size = pts, None, None, min(16, rows)
    while True:
        for start in range(0, block.shape[0], rows):
            dirs = block[start:start + rows][:left]
            sides, closest, low = _side_scores(dirs, pts)
            left -= dirs.shape[0]
            # a point row with every point on its + side splits nothing;
            # one_sided is read once the point rows are scored
            every = block is pts and bool(sides.all())
            one_sided = one_sided and every and low > 4 * EPS_UNIT
            if not every:
                plus = sides.sum(axis=1)
                # a row has an admissible side iff 0 < plus < card: one pass
                # finds the clean ones, and only they are turned into lines
                split = (plus > 0) & (plus < card)
                if low <= EPS_UNIT:
                    split &= closest > EPS_UNIT
                for r in split.nonzero()[0]:
                    line, side, p = None, sides[r], int(plus[r])
                    for sign, mask, count in ((+1, side, p), (-1, ~side, card - p)):
                        if 2 * count >= card and mask.tobytes() not in seen:
                            seen.add(mask.tobytes())
                            line = line or LineThroughOrigin(dirs[r])
                            yield line, sign, count
                    if len(seen) >= 16:
                        return
            if low <= EPS_UNIT and not seen and fallback is None:
                # the side of a point next to the plane is the one that
                # scoring the direction on its own gives
                for r in (closest <= EPS_UNIT).nonzero()[0]:
                    count = int(np.count_nonzero(pts @ dirs[r] >= 0.0))
                    if 0 < count < card:
                        fallback = _larger_side(LineThroughOrigin(dirs[r]), count, card)
                        break
            if left <= 0:
                break
        if block is pts:
            if one_sided:
                left -= card * (card - 1) // 2
            else:
                midpoints = _midpoint_blocks(pts, rows)
        if left <= 0:
            break
        block = None if midpoints is None else next(midpoints, None)
        if block is None:
            midpoints = None
            if rng is None:
                rng = np.random.default_rng(seed)
            block = _unit_rows(rng.standard_normal((size, n)))
            size = min(2 * size, rows)
    if seen:
        return
    if fallback is None:
        i, j = code.min_angle_pair
        diff = pts[i] - pts[j]
        if diff.any():  # else p_i and p_j coincide
            line = LineThroughOrigin(diff / math.sqrt(diff @ diff))
            dots = pts @ line.direction
            if dots[i] >= 0.0 > dots[j]:  # rounding may put p_i and p_j on one side
                fallback = _larger_side(line, int(np.count_nonzero(dots >= 0.0)), card)
    if fallback is None:
        raise SearchBudgetExhausted(
            f"no balanced line found in {10 * card * code.dimension} trials"
        )
    yield fallback


def check_seed(seed: int) -> None:
    """Raise ValueError unless ``seed`` is >= 0, as ``default_rng`` needs.

    Every public function that takes a seed checks it on entry, so that a
    negative seed is an error whether or not a draw would be made.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def find_balanced_line(
    code: SphericalCode, seed: int = 0
) -> tuple[LineThroughOrigin, int, int]:
    """Find a line whose better hemisphere holds c points, card/2 <= c < card.

    The first split of :func:`_balanced_splits`.  Returns ``(line, sign, count)``.
    """
    check_seed(seed)
    return next(_balanced_splits(code, seed))


# ---------------------------------------------------------------------------
# Composite pipelines
# ---------------------------------------------------------------------------

def _solve_lambda(target_cos: float, current_cos: float) -> float:
    """Solve lam * current + 1 - lam = target for lam, requiring lam in [0, 1]."""
    if current_cos >= 1.0 - 1e-15:
        raise LambdaOutOfRange("intermediate code has cos phi = 1")
    lam = (1.0 - target_cos) / (1.0 - current_cos)
    if not (0.0 <= lam <= 1.0):
        raise LambdaOutOfRange(
            f"required lambda {lam:.6g} outside [0, 1] "
            f"(target cos {target_cos:.6g} < intermediate cos {current_cos:.6g})"
        )
    return lam


def _generic_projection_line(code: SphericalCode, rng: np.random.Generator) -> np.ndarray:
    """Candidate unit directions for spoil2 inside composite pipelines, as rows.

    Bisectors of up to 32 point pairs, the closest pair first, push the
    minimum-angle cosine down (the two points project to nearly antipodal
    rays); random directions, enough to make 64 candidates, keep it roughly
    unchanged.  The normalized centroid comes last: projecting m
    orthonormal points off it leaves a regular simplex, cos phi = -1/(m-1).
    All candidates whose residual |x|^2 - <x, d>^2 exceeds EPS_UNIT at every
    point are returned, in that order.
    """
    first = code.min_angle_pair
    rest = (p for p in itertools.combinations(range(code.card), 2) if p != first)
    a, b = np.array(list(itertools.islice(itertools.chain([first], rest), 32))).T
    mids = _unit_rows(code.points[a] + code.points[b])
    draws = rng.standard_normal((64 - mids.shape[0], code.dimension))
    centroid = code.points.mean(axis=0, keepdims=True)
    dirs = np.vstack([mids, _unit_rows(draws), _unit_rows(centroid)])
    comps = dirs @ code.points.T
    sq = np.vecdot(code.points, code.points)
    return dirs[np.min(sq - comps * comps, axis=1) > EPS_UNIT]


def _spoil2_below(
    code: SphericalCode, ceiling: float, rng: np.random.Generator
) -> SphericalCode:
    """Apply spoil2 with a line keeping the result's cos phi <= ceiling.

    Every candidate line is scored by the largest off-diagonal entry of the
    projected Gram matrix (G - c c^T) / (r r^T), with c the points' axis
    components and r = sqrt(|x|^2 - c^2) their residual norms, in blocks of
    at most BLOCK_ENTRIES entries but at least one card x card Gram.  The
    first line scoring below ``ceiling - 0.05`` wins, else the first lowest
    one <= ceiling; spoil2 is applied to that line alone.  Raises
    LambdaOutOfRange if no line qualifies or the projection merges points.
    """
    dirs = _generic_projection_line(code, rng)
    pts, card = code.points, code.card
    gram = pts @ pts.T
    sq, diag = np.diagonal(gram), np.arange(card)
    rows = max(1, geometry.BLOCK_ENTRIES // (card * card))
    block = np.empty((min(rows, dirs.shape[0]), card, card))
    scores = np.full(dirs.shape[0], np.inf)
    for start in range(0, dirs.shape[0], rows):
        c = dirs[start:start + rows] @ pts.T
        r = np.sqrt(sq - c * c)
        s = np.multiply(c[:, :, None], c[:, None, :], out=block[:c.shape[0]])
        np.subtract(gram, s, out=s)
        s /= r[:, :, None]
        s /= r[:, None, :]
        s[:, diag, diag] = -np.inf
        scores[start:start + rows] = s.max(axis=(1, 2))
        if np.any(scores < ceiling - 0.05):
            break
    if not np.any(scores <= ceiling):
        raise LambdaOutOfRange(
            f"no projection line keeps cos phi below {ceiling:.6g}"
        )
    del gram, block, s  # spoil2 must not add to the scoring's peak memory
    below = np.flatnonzero(scores < ceiling - 0.05)
    best = below[0] if below.size else np.argmin(scores)
    out, _ = spoil2(code, LineThroughOrigin(dirs[best]))
    if out.card != code.card:
        raise LambdaOutOfRange("the chosen projection line merges points")
    return out


def _restrict_project_embed(
    current: SphericalCode, steps_left: int, target: float, seed: int
) -> SphericalCode:
    """Hemisphere restrictions, two projections, one section embedding.

    Backtracks over admissible balanced splits at every restriction stage,
    since a poor split can leave too many points for the low-dimensional
    projections downstream.
    """
    if steps_left == 0:
        rng = np.random.default_rng(seed)
        out = _spoil2_below(current, target, rng)
        out = _spoil2_below(out, target, rng)
        lam_solved = _solve_lambda(target, out.cos_min_angle)
        return spoil1_lambda(out, lam_solved)
    last_error: Exception | None = None
    for line, sign, _count in sorted(_balanced_splits(current, seed), key=lambda t: t[2]):
        try:
            return _restrict_project_embed(
                spoil3(current, line, sign), steps_left - 1, target, seed
            )
        except (LambdaOutOfRange, DegenerateCode, SearchBudgetExhausted) as exc:
            last_error = exc
    raise LambdaOutOfRange(
        f"no hemisphere choice admits the downstream projections "
        f"(last failure: {last_error})"
    )


def composite_spoil_up(code: SphericalCode) -> SphericalCode:
    """One-step pipeline to parameters [n+1, k, n/(n+1) cos + 1/(n+1)].

    It is :func:`spoil1_lambda` with lam = n/(n+1), so the result keeps the
    code's ``min_angle_pair`` and takes its angle from the formula.
    """
    n = code.dimension
    return spoil1_lambda(code, n / (n + 1))


def composite_spoil_down(code: SphericalCode, phi_c: float, *, seed: int = 0) -> SphericalCode:
    """Pipeline to parameters [n-1, k-a_c, n/(n-1) cos - cos(phi_c)/(n-1)].

    ``a_c`` is floor(H(phi_c)) for 0 < phi_c <= pi/2; the code must have
    phi > phi_c, k >= a_c and n >= 3 (it is projected twice), and enough
    room for the final lambda solve to land in [0, 1] (checked at runtime).
    ``seed`` must be >= 0.
    """
    check_seed(seed)
    if not 0.0 < phi_c <= math.pi / 2:
        raise ValueError(f"phi_c must be in (0, pi/2], got {phi_c}")
    n = code.dimension
    a_c = int(np.floor(kl_bound(phi_c)))
    if code.min_angle <= phi_c:
        raise ValueError(
            f"violated precondition phi > phi_c: {code.min_angle:.6g} <= {phi_c:.6g}"
        )
    k = float(np.log2(code.card))
    if k < a_c:
        raise ValueError(f"violated precondition k >= a_c: {k:.4g} < {a_c}")
    if n < 3:
        raise ValueError(f"the pipeline projects twice, so it needs n >= 3, got n = {n}")
    target = n / (n - 1) * code.cos_min_angle - float(np.cos(phi_c)) / (n - 1)
    return _restrict_project_embed(code, a_c, target, seed)


# ---------------------------------------------------------------------------
# Text files: one reader for codes, packings and binary words.  '#' starts a
# comment, blank lines are skipped, and every error names its line.
# ---------------------------------------------------------------------------

def format_rows(rows) -> list[str]:
    """Each row as its coordinates in ``%.17g``, space separated: one
    %-format call per row, which prints what ``f"{c:.17g}"`` prints."""
    rows = np.asarray(rows, dtype=float)
    fmt = " ".join(["%.17g"] * rows.shape[1])
    return [fmt % tuple(row) for row in rows.tolist()]


def text_lines(text: str):
    """``(line number, tokens)`` of every line holding more than a comment."""
    for lineno, raw in enumerate(text.splitlines(), start=1):
        parts = raw.split("#", 1)[0].split()
        if parts:
            yield lineno, parts


def keyword_value(parts: list[str], lineno: int, kind, ok):
    """The value of a '<keyword> <value>' line, parsed as ``kind``."""
    try:
        (value,) = parts[1:]
        value = kind(value)
    except ValueError:
        value = None
    if value is None or not ok(value):
        raise InputFormatError(f"bad '{parts[0]}' line", lineno)
    return value


def read_dim(text: str, empty: str):
    """``(n, lines)``: the n >= 1 of the 'dim <n>' line that must open
    ``text``, and its :func:`text_lines` after it.  A text without content
    raises InputFormatError(``empty``)."""
    lines = text_lines(text)
    for lineno, parts in lines:
        if parts[0] != "dim":
            raise InputFormatError("expected 'dim <n>' header", lineno)
        return keyword_value(parts, lineno, int, lambda v: v >= 1), lines
    raise InputFormatError(empty)


def number_rows(rows, width: int) -> tuple[np.ndarray, InputFormatError | None]:
    """The leading ``(line number, tokens)`` rows of ``width`` finite numbers
    each, as one float array, and the error of the row after them (None if
    there is none).  The rows are tried one by one only when the array fails."""
    error = None
    try:
        pts = np.array([p for _, p in rows], dtype=float).reshape(len(rows), width)
    except ValueError:  # a token that is no number, or a row of another length
        for i, (lineno, parts) in enumerate(rows):
            try:
                np.array(parts, dtype=float)
            except ValueError:
                error = InputFormatError("malformed number", lineno)
                break
            if len(parts) != width:
                error = InputFormatError(f"expected {width} numbers, got {len(parts)}", lineno)
                break
        pts = np.array([p for _, p in rows[:i]], dtype=float).reshape(i, width)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():  # a non-finite row comes before the error's row
        k = int(np.argmin(finite))
        return pts[:k], InputFormatError("coordinate is not finite", rows[k][0])
    return pts, error


def dump_spherical_code(code: SphericalCode) -> str:
    lines = [f"dim {code.dimension}"] + format_rows(code.points)
    return "\n".join(lines) + "\n"


def load_spherical_code(text: str, *, normalize: bool = False) -> SphericalCode:
    """Parse "dim n", then one point per line, each within EPS_NORM of unit
    norm unless ``normalize``.  The first bad line is the one reported."""
    dim, lines = read_dim(text, "no points found")
    rows = list(lines)
    pts, error = number_rows(rows, dim)
    if not normalize:
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            bad = np.abs(np.hypot.reduce(pts, axis=1, initial=0.0) - 1) > EPS_NORM
        if bad.any():
            k = int(np.argmax(bad))
            nrm = math.hypot(*pts[k])  # printed exactly, not as the reduction rounds it
            raise InputFormatError(f"point norm {nrm!r} not within {EPS_NORM} of 1 "
                                   "(use normalize)", rows[k][0])
    if error or not rows:
        raise error or InputFormatError("no points found")
    return SphericalCode(pts, normalize=normalize)
