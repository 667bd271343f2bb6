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
        norms = np.linalg.norm(pts, axis=1)
        if normalize:
            if np.any(norms <= EPS_UNIT):
                raise ValueError("cannot normalize a zero point")
            pts = pts / norms[:, None]
        elif np.any(np.abs(norms - 1.0) > EPS_NORM):
            worst = float(np.max(np.abs(norms - 1.0)))
            raise ValueError(f"points are not unit vectors (max norm error {worst:.3e})")
        self._points = pts
        self._points.setflags(write=False)
        # the cached minimum angle, so that a later min_angle costs no scan;
        # below NEAR_ANGLE it is the chord angle of the closest pair
        if check_distinct and self.card >= 2 and self.min_angle < EPS_ANGLE:
            raise ValueError("points are not pairwise distinct beyond EPS_ANGLE")

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
        return float(np.cos(self._min_angle[0]))

    @property
    def rate(self) -> float:
        return float(np.log2(self.card)) / self.dimension

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
    rho = sqrt(1 - h^2), then the rows are normalized.  Adding 0.0 to
    rho * x turns -0.0 into +0.0 as spoil1's matrix product does, so the
    two agree bit for bit.  lam = 1 is the equatorial embedding; lam = 0
    would collapse the whole code to a pole and is rejected.
    """
    if not (0.0 <= lam <= 1.0):
        raise ValueError(f"lambda must be in [0, 1], got {lam}")
    if lam == 0.0:
        raise CollapseError("lambda = 0 maps every point to a single pole")
    h = float(np.sqrt(1.0 - lam))
    rho_x = geometry.section_radius(h) * code.points + 0.0
    new_pts = np.column_stack([rho_x, np.full(code.card, h)])
    return SphericalCode(new_pts, normalize=True, check_distinct=False)


def spoil2(code: SphericalCode, line: LineThroughOrigin) -> tuple[SphericalCode, float]:
    """Project off a line through the origin and renormalize.

    Returns ``(new_code, xi)`` where xi = dist(X, line) is the smallest
    projection norm over the code.  Points projecting onto coinciding rays
    are merged with a warning.
    """
    if line.dimension != code.dimension:
        raise DimensionMismatch("line dimension does not match the code")
    if code.dimension < 2:
        raise DegenerateCode("cannot project a code on S^0")
    pts, comps = geometry.project_points(code.points, line)
    xi = min(1.0, float(np.min(np.sqrt(np.maximum(0.0, 1.0 - comps * comps)))))
    out = SphericalCode(pts, normalize=True, check_distinct=False)
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
    return SphericalCode(merged, check_distinct=False), xi


def xi_to_u(xi: float) -> float:
    """u = (1 - xi^2) / xi^2 for the projection distance xi."""
    if xi <= 0.0:
        raise ValueError("xi must be positive")
    return (1.0 - xi * xi) / (xi * xi)


def spoil3(code: SphericalCode, line: LineThroughOrigin, sign: int) -> SphericalCode:
    """Restrict the code to one hemisphere of the oriented line.

    ``sign=+1`` keeps points with <x, direction> >= 0, ``sign=-1`` keeps
    the strictly negative ones.  The minimum angle never decreases.
    """
    if line.dimension != code.dimension:
        raise DimensionMismatch("line dimension does not match the code")
    if sign not in (+1, -1):
        raise ValueError("sign must be +1 or -1")
    dots = code.points @ line.direction
    mask = dots >= 0.0 if sign > 0 else dots < 0.0
    if not np.any(mask):
        raise DegenerateCode("selected hemisphere contains no point")
    return SphericalCode(code.points[mask], check_distinct=False)


def _midpoint_blocks(pts: np.ndarray, rows: int):
    """The normalized midpoints of the pairs i < j in lexicographic order,
    skipping those of norm <= EPS_UNIT, the pairs of about ``rows // card``
    first points at a time."""
    card = pts.shape[0]
    step = max(1, rows // card)  # first points of the pairs in one block
    for i in range(0, card - 1, step):
        ii, jj = np.nonzero(np.arange(card) > np.arange(i, min(i + step, card))[:, None])
        mid = pts[ii + i] + pts[jj]
        nrm = np.sqrt(np.vecdot(mid, mid))
        yield mid[nrm > EPS_UNIT] / nrm[nrm > EPS_UNIT, None]


def _random_blocks(n: int, seed: int, rows: int):
    """Unit directions from ``default_rng(seed)``, as one at a time would
    draw them, in blocks of 16 rows that double up to ``rows``: the first
    few directions usually split, so the first blocks are kept small."""
    rng = np.random.default_rng(seed)
    size = min(16, rows)
    while True:
        v = rng.standard_normal((size, n))
        yield v / np.sqrt(np.vecdot(v, v))[:, None]
        size = min(2 * size, rows)


def _scored_rows(blocks, pts: np.ndarray, rows: int, left: int):
    """``(dirs, sides, closest)`` for the first ``left`` rows of ``blocks``,
    at most ``rows`` at a time: ``sides = dirs @ pts.T >= 0`` and
    ``closest`` is the distance of each row's nearest point from its
    separating hyperplane.  Rows whose nearest point is within a factor 2
    of EPS_UNIT are scored again as ``pts @ dir``, so that ``sides`` and
    ``closest`` are what scoring each direction on its own gives.  The
    distances are taken in place, so that a block allocates one float
    array of at most BLOCK_ENTRIES entries.
    """
    for block in blocks:
        for start in range(0, block.shape[0], rows):
            dirs = block[start:start + rows][:left]
            dots = dirs @ pts.T
            sides = dots >= 0.0
            closest = np.min(np.abs(dots, out=dots), axis=1)
            for r in np.flatnonzero((closest > EPS_UNIT / 2) & (closest <= 2 * EPS_UNIT)):
                dot = pts @ dirs[r]
                sides[r], closest[r] = dot >= 0.0, np.min(np.abs(dot))
            yield dirs, sides, closest
            left -= dirs.shape[0]
            if left <= 0:
                return


def _scored_candidates(code: SphericalCode, seed: int):
    """The first 10 * card * n candidate directions, scored a block at a time.

    The candidates are every code point as it is, then the normalized pair
    midpoints of :func:`_midpoint_blocks`, then the random directions of
    :func:`_random_blocks`, scored as :func:`_scored_rows` scores them.

    The point rows score the Gram matrix.  When all its entries exceed
    4 * EPS_UNIT, every point and every midpoint has all points on its +
    side, farther than 2 * EPS_UNIT: a midpoint's dot with a point is the
    sum of two Gram entries over a norm of at most 2, and the factor 2 to
    spare covers rounding.  Such a row is clean, is not scored again,
    splits nothing and sets no fallback.  The midpoints, all
    card * (card - 1) / 2 of them since each has squared norm
    2 + 2 * cos > 2, are then counted against the budget without being
    scored.
    """
    pts, card = code.points, code.card
    left = 10 * card * code.dimension
    rows = max(1, min(geometry.BLOCK_ENTRIES // card, left))
    one_sided = True
    for dirs, sides, closest in _scored_rows([pts], pts, rows, left):
        one_sided = one_sided and bool(sides.all()) and closest.min() > 4 * EPS_UNIT
        yield dirs, sides, closest
    left -= card
    if one_sided:
        midpoints, left = (), left - card * (card - 1) // 2
    else:
        midpoints = _midpoint_blocks(pts, rows)
    if left > 0:
        blocks = itertools.chain(midpoints, _random_blocks(code.dimension, seed, rows))
        yield from _scored_rows(blocks, pts, rows, left)


def _balanced_splits(code: SphericalCode, seed: int):
    """Admissible balanced splits ``(line, sign, count)``, card/2 <= count < card.

    Candidates are scored deterministically, a block at a time: every code
    point as direction, then normalized midpoints of point pairs, then
    seeded pseudorandom directions, with a budget of 10 * card * n trials.
    Splits are yielded in that order, +1 before -1, each hemisphere once,
    skipping candidates that leave a point within EPS_UNIT of the separating
    hyperplane; the search stops after the candidate that brings the count
    to 16.  If the budget holds no such split, the first admissible split of
    a skipped candidate is yielded alone.  If no candidate splits at all,
    the line along p_i - p_j of the closest pair (i, j), which puts p_i on
    its + side, splits by its fuller side: a near-parallel code leaves every
    point and midpoint one-sided, and a random direction splits its closest
    pair only with a probability of their angle over pi.
    """
    if code.card < 2:
        raise DegenerateCode("balanced split needs at least two points")
    pts, card = code.points, code.card
    fallback, seen = None, set()
    for dirs, sides, closest in _scored_candidates(code, seed):
        clean = closest > EPS_UNIT
        need_fallback = not seen and fallback is None
        if need_fallback and not clean.all():
            # the side of a point next to the plane is the one that scoring
            # the direction on its own gives
            sides[~clean] = [pts @ d >= 0.0 for d in dirs[~clean]]
        plus = np.count_nonzero(sides, axis=1)
        counts = np.column_stack([plus, card - plus])  # signs +1, -1
        valid = (card / 2 <= counts) & (counts < card)
        if need_fallback and valid.any():
            r, s = divmod(int(np.argmax(valid)), 2)
            fallback = LineThroughOrigin(dirs[r]), 1 - 2 * s, int(counts[r, s])
        for r in np.flatnonzero(clean & valid.any(axis=1)):
            side = sides[r]
            for s, mask in enumerate((side, ~side)):
                if valid[r, s] and mask.tobytes() not in seen:
                    seen.add(mask.tobytes())
                    yield LineThroughOrigin(dirs[r]), 1 - 2 * s, int(counts[r, s])
            if len(seen) >= 16:
                return
    if seen:
        return
    if fallback is None:
        i, j = code.min_angle_pair
        diff = pts[i] - pts[j]
        if diff.any():  # else p_i and p_j coincide
            line = LineThroughOrigin(diff / math.sqrt(diff @ diff))
            dots = pts @ line.direction
            plus = int(np.count_nonzero(dots >= 0.0))
            if dots[i] >= 0.0 > dots[j]:  # rounding may put p_i and p_j on one side
                fallback = (line, +1, plus) if 2 * plus >= card else (line, -1, card - plus)
    if fallback is None:
        raise SearchBudgetExhausted(
            f"no balanced line found in {10 * card * code.dimension} trials"
        )
    yield fallback


def find_balanced_line(
    code: SphericalCode, seed: int = 0
) -> tuple[LineThroughOrigin, int, int]:
    """Find a line whose better hemisphere holds c points, card/2 <= c < card.

    The first split of :func:`_balanced_splits`.  Returns ``(line, sign, count)``.
    """
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


def _generic_projection_line(
    code: SphericalCode, rng: np.random.Generator, trials: int = 64
) -> np.ndarray:
    """Candidate unit directions for spoil2 inside composite pipelines, as rows.

    Bisectors of point pairs push the minimum-angle cosine down (the two
    points project to nearly antipodal rays); random directions keep it
    roughly unchanged.  The normalized centroid comes last: projecting m
    orthonormal points off it leaves a regular simplex, cos phi = -1/(m-1).
    All candidates whose residual |x|^2 - <x, d>^2 exceeds EPS_UNIT at every
    point are returned, in that order.
    """
    first = code.min_angle_pair
    rest = (p for p in itertools.combinations(range(code.card), 2) if p != first)
    a, b = np.array(list(itertools.islice(itertools.chain([first], rest), trials // 2))).T
    mids = code.points[a] + code.points[b]
    nrm = np.sqrt(np.vecdot(mids, mids))
    mids = mids[nrm > EPS_UNIT] / nrm[nrm > EPS_UNIT, None]
    draws = rng.standard_normal((trials - mids.shape[0], code.dimension))
    centroid = code.points.mean(axis=0, keepdims=True)
    nrm = np.sqrt(np.vecdot(centroid, centroid))
    dirs = np.vstack([mids, draws / np.sqrt(np.vecdot(draws, draws))[:, None],
                      centroid[nrm > EPS_UNIT] / nrm[nrm > EPS_UNIT, None]])
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


def numerical_spoil(
    code: SphericalCode,
    template: str,
    *,
    lam: float | None = None,
    line: LineThroughOrigin | None = None,
    subcode_steps: int = 1,
    seed: int = 0,
) -> SphericalCode:
    """Realize one of the three numerical-spoiling parameter templates.

    template ``"dim_up"``:   [n+1, k, lam*cos + 1 - lam]   (requires ``lam``)
    template ``"dim_down"``: [n-1, k, (1+u)*cos +/- u]      (optional ``line``)
    template ``"subcode"``:  [n-1, k-a, cos]                (``subcode_steps`` = a)

    The subcode pipeline runs a hemisphere restrictions, two projections,
    then one section embedding with the lambda solving back to the original
    cos phi.  The guarantees assume the small-angle range; outside it only a
    warning is issued since the geometry stays well defined.
    """
    if code.min_angle > np.pi / 2 + EPS_ANGLE:
        warnings.warn("code is outside the small-angle range; templates are "
                      "not guaranteed", stacklevel=2)
    rng = np.random.default_rng(seed)
    if template == "dim_up":
        if lam is None:
            raise ValueError("dim_up requires lam")
        return spoil1_lambda(code, lam)
    if template == "dim_down":
        if line is None:
            line = LineThroughOrigin(_generic_projection_line(code, rng)[0])
        out, _ = spoil2(code, line)
        return out
    if template == "subcode":
        a = subcode_steps
        k = float(np.log2(code.card))
        if not (0 < a < k):
            raise ValueError(f"subcode steps must satisfy 0 < a < k = {k:.4g}")
        return _restrict_project_embed(code, a, code.cos_min_angle, seed)
    raise ValueError(f"unknown template {template!r}")


def composite_spoil_up(code: SphericalCode) -> SphericalCode:
    """One-step pipeline to parameters [n+1, k, n/(n+1) cos + 1/(n+1)]."""
    n = code.dimension
    return spoil1_lambda(code, n / (n + 1))


def composite_spoil_down(
    code: SphericalCode, phi_c: float, *, subcode_steps: int | None = None, seed: int = 0
) -> SphericalCode:
    """Pipeline to parameters [n-1, k-a_c, n/(n-1) cos - cos(phi_c)/(n-1)].

    ``a_c`` defaults to floor(H(phi_c)) computed by the bounds module; the
    code must have phi > phi_c, k >= a_c, and enough room for the final
    lambda solve to land in [0, 1] (checked at runtime).
    """
    n = code.dimension
    a_c = subcode_steps if subcode_steps is not None else int(np.floor(kl_bound(phi_c)))
    if code.min_angle <= phi_c:
        raise ValueError(
            f"violated precondition phi > phi_c: {code.min_angle:.6g} <= {phi_c:.6g}"
        )
    k = float(np.log2(code.card))
    if k < a_c:
        raise ValueError(f"violated precondition k >= a_c: {k:.4g} < {a_c}")
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
    """The leading ``(line number, tokens)`` rows of ``width`` numbers each,
    as one float array, and the error of the row after them (None if there
    is none).  The rows are tried one by one only when the array fails."""
    try:
        return np.array([p for _, p in rows], dtype=float).reshape(len(rows), width), None
    except ValueError:  # a token that is no number, or a row of another length
        pass
    for i, (lineno, parts) in enumerate(rows):
        try:
            np.array(parts, dtype=float)
        except ValueError:
            return number_rows(rows[:i], width)[0], InputFormatError("malformed number", lineno)
        if len(parts) != width:
            error = InputFormatError(f"expected {width} numbers, got {len(parts)}", lineno)
            return number_rows(rows[:i], width)[0], error


def dump_spherical_code(code: SphericalCode) -> str:
    lines = [f"dim {code.dimension}"] + format_rows(code.points)
    return "\n".join(lines) + "\n"


def load_spherical_code(text: str, *, normalize: bool = False) -> SphericalCode:
    """Parse "dim n", then one point per line, each within EPS_NORM of unit
    norm unless ``normalize``.  The first bad line is the one reported."""
    dim, lines = read_dim(text, "no points found")
    rows = list(lines)
    pts, error = number_rows(rows, dim)
    finite = np.isfinite(pts).all(axis=1)
    bad = ~finite
    if not normalize:
        with np.errstate(over="ignore"):  # a norm beyond the float range is inf
            bad |= np.abs(np.hypot.reduce(pts, axis=1, initial=0.0) - 1) > EPS_NORM
    if bad.any():
        k = int(np.argmax(bad))
        if not finite[k]:
            raise InputFormatError("coordinate is not finite", rows[k][0])
        nrm = math.hypot(*pts[k])  # printed exactly, not as the reduction rounds it
        raise InputFormatError(f"point norm {nrm!r} not within {EPS_NORM} of 1 "
                               "(use normalize)", rows[k][0])
    if error or not rows:
        raise error or InputFormatError("no points found")
    return SphericalCode(pts, normalize=normalize)
