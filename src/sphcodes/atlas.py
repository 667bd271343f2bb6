"""Empirical atlas: observed code points and an inner envelope estimate.

Seeds are spoiled repeatedly; every resulting code point is recorded,
and anchors falling inside the cutoff window (and under the small-angle
bound curve) mark their lower controlling region as dominated.  The
envelope of the dominated set is an explicitly labeled inner
approximation of the region of densely surrounded parameters; it is
clipped by H(phi) and post-processed to be non-increasing in phi.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import binary, geometry, spherical
from .bounds import CutoffRegion, anchor_line1, anchor_line2, kl_bound, simplex_code
from .errors import DegenerateCode, PointOnAxis, SearchBudgetExhausted
from .spherical import SphericalCode, SphericalCodePoint

# growth caps: spoiled codes beyond these sizes are recorded but not re-spoiled
MAX_DIMENSION = 24
MAX_CARD = 512
GRID_CELLS = 1024  # of the envelope's phi grid on [phi_c, pi/2]
_OPS = ("up", "lambda", "hemisphere", "project")  # the ops _spoil_once draws from


@dataclass
class Atlas:
    """Observed code points, dominated anchors, and the envelope estimate."""

    cutoff: CutoffRegion
    observed: list[SphericalCodePoint] = field(default_factory=list)
    dominated_anchors: list[SphericalCodePoint] = field(default_factory=list)
    phi_grid: np.ndarray = field(default_factory=lambda: np.array([]))
    envelope: np.ndarray = field(default_factory=lambda: np.array([]))

    def alpha(self, phi: float) -> float:
        """Envelope estimate at an angle: the value of the first grid cell at
        or above phi (the last cell beyond the grid).  The envelope is
        non-increasing and clipped by the decreasing H, so this is <= H(phi).
        """
        if self.phi_grid.size == 0:
            raise ValueError("atlas has no envelope yet")
        idx = min(int(np.searchsorted(self.phi_grid, phi)), self.phi_grid.size - 1)
        return float(self.envelope[idx])


def sylvester_hadamard_code(order: int) -> binary.BinaryCode:
    """Rows of the 2^order Sylvester Hadamard matrix as a binary code."""
    h = np.array([[0]])
    for _ in range(order):
        h = np.block([[h, h], [h, 1 - h]])
    return binary.BinaryCode(h)


def default_seeds() -> list[SphericalCode]:
    """Cheap and diverse seed codes: embedded binary families and simplices."""
    codes = [binary.BinaryCode(np.repeat([[0], [1]], n, axis=1)) for n in range(2, 9)]
    for n in (4, 6, 8):  # the even-weight words of the cube
        cube = (np.arange(2 ** n)[:, None] >> np.arange(n)) & 1
        codes.append(binary.BinaryCode(cube[cube.sum(axis=1) % 2 == 0]))
    codes.append(sylvester_hadamard_code(3))
    return [binary.embed_binary(c) for c in codes] + [simplex_code(n) for n in range(2, 7)]


def _spoil_once(code: SphericalCode, rng: np.random.Generator) -> SphericalCode | None:
    """Apply one randomly chosen spoiling operation; None when its domain
    rules it out.  Any other error propagates."""
    op = _OPS[int(rng.integers(len(_OPS)))]
    try:
        if op == "up":
            return spherical.composite_spoil_up(code)
        if op == "lambda":
            lam = float(rng.uniform(0.5, 1.0))
            return spherical.spoil1_lambda(code, lam)
        if op == "hemisphere":
            if code.card < 3:
                return None
            line, sign, _ = spherical.find_balanced_line(
                code, seed=int(rng.integers(2 ** 31))
            )
            return spherical.spoil3(code, line, sign)
        if code.dimension < 3:  # "project"
            return None
        v = rng.standard_normal(code.dimension)
        line = spherical.LineThroughOrigin(v / math.sqrt(v.dot(v)))
        return spherical.spoil2(code, line)[0]
    except (DegenerateCode, PointOnAxis, SearchBudgetExhausted):
        return None


def atlas_build(seeds: list[SphericalCode] | None, cutoff: CutoffRegion,
                budget: int = 10_000, *, seed: int = 0) -> Atlas:
    """Spoil the seeds within an operation budget and build the envelope.

    Every generated code point is recorded.  Anchors used for domination
    must lie in the cutoff window and under H(phi); the per-cell envelope
    is the max over anchors of the lower-region roof, clipped by H and
    made non-increasing in phi.
    """
    if budget <= 0:
        raise ValueError("budget must be positive")
    spherical.check_seed(seed)
    if seeds is None:
        seeds = default_seeds()
    seeds = [s for s in seeds if s.card >= 2]
    if not seeds:
        raise ValueError("all seeds are degenerate")
    rng = np.random.default_rng(seed)

    atlas = Atlas(cutoff, [s.code_point(provenance=f"seed[{i}]") for i, s in enumerate(seeds)])
    worklist = list(seeds)

    ops_done = 0
    idx = 0
    skipped = 0  # codes skipped in a row; a whole pass of them changes nothing
    while ops_done < budget and skipped < len(worklist):
        code = worklist[idx % len(worklist)]
        idx += 1
        if code.dimension > MAX_DIMENSION or code.card > MAX_CARD:
            skipped += 1
            continue
        skipped = 0
        out = _spoil_once(code, rng)
        ops_done += 1
        if out is None or out.card < 2:
            continue
        atlas.observed.append(out.code_point(provenance=f"op[{ops_done}]"))
        worklist.append(out)
        if len(worklist) > 4 * len(seeds):
            worklist.pop(0)

    # dominated anchors: inside the window and under the small-angle bound
    for pt in atlas.observed:
        if not cutoff.contains(pt.cos_phi, pt.rate):
            continue
        phi = pt.phi
        # the window admits cos phi down to -1e-12, where phi exceeds pi/2
        if phi > 0 and pt.rate <= kl_bound(min(max(phi, cutoff.phi_c), math.pi / 2)) + 1e-9:
            atlas.dominated_anchors.append(pt)

    atlas.phi_grid = np.linspace(cutoff.phi_c, math.pi / 2, GRID_CELLS)
    atlas.envelope = envelope(atlas.dominated_anchors, cutoff, atlas.phi_grid)
    return atlas


def envelope(anchors: list[SphericalCodePoint], cutoff: CutoffRegion,
             phi_grid: np.ndarray) -> np.ndarray:
    """Max over anchors of the lower-region roof on an ascending phi grid.

    The roof of an anchor is min(line1, line2) of its controlling regions,
    clipped to [0, rate_cap]; with no anchor it is 0.  The max is clipped
    by H(phi) and made non-increasing in phi.

    Only the anchors that :func:`_undominated` keeps are taken on the whole
    grid: the others never set a cell there.  Their lines are ordered only
    by a margin in the slopes, which rounding cannot undo where the grid
    is at least 1e-5 left of the corner's cos phi_c; the cells closer to
    it, or right of it, take every anchor.  The max is the same float.
    """
    x = np.cos(phi_grid)
    h = np.array([kl_bound(float(phi)) for phi in phi_grid])
    ax, ay = np.array([(p.cos_phi, p.rate) for p in anchors]).reshape(-1, 2).T
    front = _undominated(ax, ay, cutoff)
    best = _max_roof(ax[front], ay[front], cutoff, x)
    band = x > cutoff.cos_phi_c - 1e-5
    if band.any() and not front.all():
        best[band] = np.maximum(best[band], _max_roof(ax[~front], ay[~front], cutoff, x[band]))
    # non-increasing in phi: running max from large phi to small; H
    # decreases, so clipping by it again keeps the envelope non-increasing
    return np.minimum(np.maximum.accumulate(np.minimum(best, h)[::-1])[::-1], h)


def _max_roof(ax: np.ndarray, ay: np.ndarray, cutoff: CutoffRegion,
              x: np.ndarray) -> np.ndarray:
    """Max over the anchors (ax, ay) of their clipped roofs at the abscissae
    ``x``, and 0 where that is below 0.  Anchors are taken a block of at
    most BLOCK_ENTRIES roof values at a time, in two buffers that every
    block reuses."""
    best = np.zeros(x.size)
    rows = max(1, geometry.BLOCK_ENTRIES // max(1, x.size))
    line1, line2 = np.empty((2, min(rows, ax.size), x.size))
    for start in range(0, ax.size, rows):
        bx, by = ax[start:start + rows, None], ay[start:start + rows, None]
        k = bx.shape[0]
        roof = np.minimum(anchor_line1(bx, by, x, out=line1[:k]),
                          anchor_line2(bx, by, cutoff, x, out=line2[:k]), out=line1[:k])
        best = np.maximum(best, np.clip(roof, 0.0, cutoff.rate_cap, out=roof).max(axis=0))
    return best


def _undominated(ax: np.ndarray, ay: np.ndarray, cutoff: CutoffRegion) -> np.ndarray:
    """Mask of the anchors that may set a cell of the envelope left of the
    corner: all but those that another anchor dominates by a margin.

    Every line1 passes through (-1, 0) with slope s1 = ay / (ax + 1), and
    every line2 through the corner (cos phi_c, a_c) with slope s2.  So for
    x in (-1, cos phi_c], anchor B's roof is at least A's when s1_B >= s1_A
    and s2_B <= s2_A.  A is dropped when some B beats it by a relative
    1e-9 in s1 and by 1e-9 (|s2_A| + |s2_B| + a_c + 1) in s2, so that near
    ties are kept; the relation is transitive, so every dropped anchor has
    a kept one above it.  An anchor of rate <= 0 has a roof of 0 and is
    dropped.  Vertical anchors (whose line2 is vertical) and those of a
    rate below 1e-300, where the division may leave the normal floats,
    are kept and beat none.
    """
    margin = 1e-9
    cx, cy = cutoff.cos_phi_c, float(cutoff.a_c)
    keep = ay > 0.0
    slanted = np.abs(cx - ax) >= 1e-15  # anchor_line2's test of a vertical line
    ranked = np.flatnonzero(keep & slanted & (ay > 1e-300))
    if ranked.size < 2:
        return keep
    s1 = ay[ranked] / (ax[ranked] + 1.0)
    s2 = (cy - ay[ranked]) / (cx - ax[ranked])
    order = np.argsort(-s1, kind="stable")
    # for each anchor, the least s2 among those whose s1 beats its own
    beats = np.searchsorted(-s1[order], -s1 * (1.0 + margin), side="right")
    low = np.minimum.accumulate(s2[order])[np.maximum(beats - 1, 0)]
    dominated = (beats > 0) & (low + margin * np.abs(low)
                               <= s2 - margin * (np.abs(s2) + cy + 1.0))
    keep[ranked[dominated]] = False
    return keep


def multiplicity_report(
    atlas: Atlas, point: tuple[float, float], tolerance: float = 1e-3
) -> dict:
    """Observed codes within tolerance of (cos phi, R): count and (n, card) list.

    Purely descriptive; says nothing about true membership in the densely
    surrounded region.
    """
    if not atlas.observed:
        raise ValueError("atlas is empty")
    x, y = point
    hits = [
        p for p in atlas.observed
        if abs(p.cos_phi - x) <= tolerance and abs(p.rate - y) <= tolerance
    ]
    shapes = sorted({(p.dimension, p.card) for p in hits})
    return {
        "count": len(hits),
        "shapes": shapes,
        "dimension_grows": len({n for n, _ in shapes}) > 1,
        "card_grows": len({c for _, c in shapes}) > 1,
    }


# ---------------------------------------------------------------------------
# Snapshot file: text, deterministic
# ---------------------------------------------------------------------------

def dump_atlas(atlas: Atlas) -> str:
    lines = [
        "# atlas snapshot",
        f"phi_c {atlas.cutoff.phi_c:.17g}",
        f"a_c {atlas.cutoff.a_c}",
        f"points {len(atlas.observed)}",
    ]
    lines += ["%.17g %.17g %d %d %s" % (p.rate, p.cos_phi, p.dimension, p.card, p.provenance)
              for p in atlas.observed]
    lines.append(f"envelope {atlas.phi_grid.size}")
    lines += spherical.format_rows(np.column_stack([atlas.phi_grid, atlas.envelope]))
    return "\n".join(lines) + "\n"
