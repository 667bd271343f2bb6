"""Bound curves and controlling regions in the (cos phi, R) plane.

Closed-form curves: the asymptotic linear-programming bound H(phi) for
small angles, the exact large-angle cardinality bounds, and the figure
curve families built from them.  Regions: the cutoff window Z_c and the
four controlling regions anchored at a code point inside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import geometry
from .kl import kl_bound
from .spherical import SphericalCode


def rankin_curve(n: int, phi: float) -> tuple[float, float]:
    """Large-angle cardinality bound and the induced rate bound.

    For pi/2 < phi <= pi: the maximal cardinality is bounded by
    (cos phi - 1)/cos phi when cos phi <= -1/n and by n + 1 when
    -1/n <= cos phi < 0.  Returns ``(card_bound, rate_bound)``; the
    cardinality bound need not be an integer.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if not (math.pi / 2 < phi <= math.pi):
        raise ValueError(f"phi must be in (pi/2, pi], got {phi}")
    c = math.cos(phi)
    ratio = (c - 1.0) / c
    card_bound = ratio if c <= -1.0 / n else n + 1.0
    rate_bound = math.log2(min(n + 1.0, ratio)) / n
    return card_bound, rate_bound


def circle_max_points(phi: float) -> int:
    """Exact maximal cardinality on the circle: floor(2 pi / phi).

    A small tolerance keeps angles that divide the circle exactly (such as
    phi = 2 pi / 3 computed via arccos) from losing a point to rounding.
    """
    if phi <= 0.0:
        raise ValueError("phi must be positive")
    return int(math.floor(2.0 * math.pi / phi + 1e-9))


def simplex_code(n: int) -> SphericalCode:
    """Regular simplex: n + 1 points on S^{n-1} with pairwise dots -1/n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    ones = np.full(n + 1, 1.0 / math.sqrt(n + 1))
    basis = geometry.orthonormal_complement(ones)  # (n+1, n)
    scale = math.sqrt((n + 1) / n)
    verts = scale * (np.eye(n + 1) - 1.0 / (n + 1))
    return SphericalCode(verts @ basis, normalize=True, check_distinct=False)


# ---------------------------------------------------------------------------
# Figure curve families
# ---------------------------------------------------------------------------

@dataclass
class BoundCurve:
    """A named curve sampled on an ascending phi grid; ``phi_range`` is
    the range where its samples must be finite and >= 0."""

    name: str
    phi: np.ndarray
    rate: np.ndarray
    phi_range: tuple[float, float]

    def __post_init__(self):
        if np.any(np.diff(self.phi) <= 0):
            raise ValueError("samples must be strictly increasing in phi")
        inside = (self.phi >= self.phi_range[0]) & (self.phi <= self.phi_range[1])
        vals = self.rate[inside]
        if vals.size and (np.any(~np.isfinite(vals)) or np.any(vals < 0)):
            raise ValueError("rate values must be finite and >= 0 in range")

    @property
    def cos_phi(self) -> np.ndarray:
        return np.cos(self.phi)


def _large_angle_grid(samples: int) -> np.ndarray:
    """cos phi grid on [-1, 0), open at 0 where the angle leaves (pi/2, pi]."""
    return np.linspace(-1.0, 0.0, samples + 1)[:-1]


def large_angle_rate_curve(n: int, samples: int = 512, scale: float = 1.0,
                           name: str | None = None) -> BoundCurve:
    """R = scale/n * log2(min(n+1, (cos phi - 1)/cos phi)) on the large-angle grid."""
    phi_grid = np.arccos(_large_angle_grid(samples))[::-1]  # ascending phi
    rate = np.array([scale * rankin_curve(n, p)[1] for p in phi_grid])
    return BoundCurve(
        name=name or f"large-angle n={n}",
        phi=phi_grid,
        rate=rate,
        phi_range=(math.pi / 2, math.pi),
    )


def figure_curves(which: str, *, n_values=None, n: int = 2, m_values=None,
                  samples: int = 512) -> list[BoundCurve]:
    """The three plotted curve families.

    fig1: large-angle rate curves for each n in ``n_values``.
    fig2: the small-angle bound H(phi).
    fig3: the fig1 curve for dimension ``n`` rescaled by n/(n+m) for each
          m >= 0, the image of m section embeddings.
    """
    if which == "fig1":
        ns = list(n_values) if n_values is not None else list(range(1, 11))
        if not ns:
            raise ValueError("empty n range")
        return [large_angle_rate_curve(nn, samples) for nn in ns]
    if which == "fig2":
        phi_grid = np.linspace(0.0, math.pi / 2, samples + 1)[1:]
        rate = np.array([kl_bound(p) for p in phi_grid])
        return [BoundCurve("H", phi_grid, rate, (0.0, math.pi / 2))]
    if which == "fig3":
        ms = list(m_values) if m_values is not None else [1, 2, 3, 4, 5]
        if not ms:
            raise ValueError("empty m range")
        if min(ms) < 0:
            raise ValueError(f"m must be >= 0, got {min(ms)}")
        return [
            large_angle_rate_curve(n, samples, scale=n / (n + m),
                                   name=f"scaled n={n} m={m}")
            for m in ms
        ]
    raise ValueError(f"unknown figure {which!r}")


# ---------------------------------------------------------------------------
# Cutoff window and controlling regions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CutoffRegion:
    """Window phi in [phi_c, pi/2], 0 <= R <= H(phi_c)."""

    phi_c: float
    rate_cap: float = field(init=False, repr=False, compare=False)  # H(phi_c)

    def __post_init__(self):
        if not (0.0 < self.phi_c < math.pi / 2):
            raise ValueError(f"phi_c must be in (0, pi/2), got {self.phi_c}")
        object.__setattr__(self, "rate_cap", kl_bound(self.phi_c))

    @property
    def a_c(self) -> int:
        return int(math.floor(self.rate_cap))

    @property
    def cos_phi_c(self) -> float:
        return math.cos(self.phi_c)

    def contains(self, cos_phi: float, rate: float, eps: float = 1e-12) -> bool:
        return (-eps <= cos_phi <= self.cos_phi_c + eps
                and -eps <= rate <= self.rate_cap + eps)


def anchor_line1(ax, ay, x, out=None):
    """Line through (-1, 0) and the anchor (ax, ay) at abscissa x.

    The arguments may be arrays that broadcast against each other;
    ``out``, if given, is an array of the broadcast shape to write into.
    """
    out = np.multiply(ay, x + 1.0, out=out)
    out /= ax + 1.0
    return out


def anchor_line2(ax, ay, cutoff: CutoffRegion, x, out=None):
    """Line through the cutoff corner (cos phi_c, a_c) and the anchor (ax, ay).

    An anchor within 1e-15 of the cutoff edge gives a vertical line: +inf
    left of it and -inf elsewhere.  The arguments may be arrays that
    broadcast against each other; ``out``, if given, is an array of the
    broadcast shape to write into.
    """
    cx, cy = cutoff.cos_phi_c, float(cutoff.a_c)
    vertical = np.abs(cx - ax) < 1e-15
    out = np.subtract(x, ax, out=out)
    out *= cy - ay
    out /= np.where(vertical, 1.0, cx - ax)
    out += ay
    if np.any(vertical):
        out = np.where(vertical, np.where(np.less(x, ax), math.inf, -math.inf), out)
    return out[()]


class ControllingRegions:
    """The four polygonal regions anchored at a point of the cutoff window.

    The plane has coordinates (x, y) = (cos phi, R).  Boundary lines:
    line1 through (cos phi = -1, R = 0) and the anchor; line2 through the
    cutoff corner (cos phi_c, a_c) and the anchor.  The four regions are
    the sign quadrants of (y - line1(x), y - line2(x)) clipped to the
    window, so they partition it up to shared boundaries.
    """

    def __init__(self, anchor: tuple[float, float], cutoff: CutoffRegion):
        x, y = float(anchor[0]), float(anchor[1])
        if not cutoff.contains(x, y):
            raise ValueError(f"anchor ({x:.4g}, {y:.4g}) outside the cutoff window")
        self.anchor = (x, y)
        self.cutoff = cutoff

    def line1(self, x: float) -> float:
        """Line through (-1, 0) and the anchor; ``x`` may be an array."""
        return anchor_line1(*self.anchor, x)

    def line2(self, x: float) -> float:
        """Line through the cutoff corner and the anchor; ``x`` may be an array."""
        return anchor_line2(*self.anchor, self.cutoff, x)

    def membership(self, q: tuple[float, float], eps: float = 1e-12) -> str:
        """Classify a window point as 'U', 'D', 'L', 'R' or 'boundary'.

        D = below both lines (the spoiling-descendant region), U = above
        both, L = below line1 and above line2, R = the opposite pair.
        """
        x, y = float(q[0]), float(q[1])
        d1 = y - self.line1(x)
        d2 = y - self.line2(x)
        if abs(d1) <= eps or abs(d2) <= eps:
            return "boundary"
        if d1 < 0 and d2 < 0:
            return "D"
        if d1 > 0 and d2 > 0:
            return "U"
        if d1 < 0:
            return "L"
        return "R"

    def lower_boundary(self, x: float) -> float:
        """Upper edge of region D at abscissa x, clipped to [0, rate_cap]."""
        val = min(self.line1(x), self.line2(x))
        return min(max(val, 0.0), self.cutoff.rate_cap)


def controlling_regions(anchor: tuple[float, float],
                        cutoff: CutoffRegion) -> ControllingRegions:
    return ControllingRegions(anchor, cutoff)


def controlling_quadrangle(p1: tuple[float, float], p2: tuple[float, float],
                           cutoff: CutoffRegion):
    """Membership test for R-region(P1) intersected with L-region(P2)."""
    r1 = ControllingRegions(p1, cutoff)
    r2 = ControllingRegions(p2, cutoff)

    def member(q: tuple[float, float]) -> bool:
        return r1.membership(q) in ("R", "boundary") and \
            r2.membership(q) in ("L", "boundary")

    return member
