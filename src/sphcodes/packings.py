"""Lattices, periodic sphere packings, theta series and density bounds.

Lattice points are integer combinations of the basis rows.  Counting is
done by exact enumeration under a quadratic-form bound (triangular
decomposition of the Gram matrix with per-coordinate interval bounds),
subject to a configurable point budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property

import numpy as np
from scipy import integrate
from scipy.special import gammaln

from .bounds import circle_max_points, kl_bound, rankin_curve
from .errors import BudgetExceeded, InputFormatError
from .spherical import SphericalCode

NORM_BUCKET_DECIMALS = 9   # norms bucketed to 1e-9
SHELL_TOL = 1e-9
DEFAULT_POINT_BUDGET = 10_000_000


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis rows."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1]:
            raise ValueError("basis must be a square matrix of row vectors")
        if abs(np.linalg.det(b)) <= 1e-12:
            raise ValueError("basis is singular")
        object.__setattr__(self, "basis", b)
        b.setflags(write=False)

    @property
    def dimension(self) -> int:
        return self.basis.shape[0]

    @cached_property
    def gram(self) -> np.ndarray:
        return self.basis @ self.basis.T

    @cached_property
    def covolume(self) -> float:
        return abs(float(np.linalg.det(self.basis)))

    def coords_of(self, vector) -> np.ndarray:
        """Real basis coordinates c with vector = c @ basis."""
        return np.linalg.solve(self.basis.T, np.asarray(vector, dtype=float))

    @cached_property
    def minimal_norm(self) -> float:
        """Squared length of a shortest nonzero lattice vector."""
        bound = float(np.min(np.diag(self.gram)))
        best = bound
        for z, q in enumerate_quadratic(self.gram, np.zeros(self.dimension),
                                        bound + 1e-9):
            if q > 1e-12:
                best = min(best, q)
        return best


def enumerate_quadratic(gram: np.ndarray, center: np.ndarray, bound: float,
                        budget: int = DEFAULT_POINT_BUDGET):
    """Yield (z, value) for integer z with (z+center)' G (z+center) <= bound.

    Uses the upper-triangular factor of the Gram matrix and walks the
    coordinates from the last one down, pruning by the remaining budget of
    squared length.  Raises BudgetExceeded when more than ``budget`` nodes
    are visited.
    """
    n = gram.shape[0]
    R = np.linalg.cholesky(gram).T  # upper triangular, G = R'R
    c = np.asarray(center, dtype=float)
    z = np.zeros(n, dtype=int)
    visited = 0

    def rec(i: int, rem: float, acc: float):
        nonlocal visited
        s = 0.0
        for j in range(i + 1, n):
            s += R[i, j] * (z[j] + c[j])
        half = math.sqrt(max(rem, 0.0))
        lo = math.ceil((-half - s) / R[i, i] - c[i] - 1e-12)
        hi = math.floor((half - s) / R[i, i] - c[i] + 1e-12)
        for zi in range(lo, hi + 1):
            visited += 1
            if visited > budget:
                raise BudgetExceeded(f"enumeration exceeded {budget} points")
            z[i] = zi
            term = (R[i, i] * (zi + c[i]) + s) ** 2
            if term > rem + 1e-9:
                continue
            if i == 0:
                yield z.copy(), acc + term
            else:
                yield from rec(i - 1, rem - term, acc + term)

    yield from rec(n - 1, bound, 0.0)


@dataclass(frozen=True)
class ThetaCoefficients:
    """Sorted (norm, count) pairs; counts are ints or Fractions."""

    entries: tuple

    def count(self, m: float, tol: float = 1e-9):
        for norm, cnt in self.entries:
            if abs(norm - m) <= tol:
                return cnt
        return 0

    @property
    def norms(self):
        return [norm for norm, _ in self.entries]


def _bucket(value: float) -> float:
    return round(value, NORM_BUCKET_DECIMALS)


def theta_lattice(lattice: Lattice, m_max: float,
                  budget: int = DEFAULT_POINT_BUDGET) -> ThetaCoefficients:
    """Counts N(m) of lattice points with squared norm m <= m_max."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    counts: dict[float, int] = {}
    zero = np.zeros(lattice.dimension)
    for _z, q in enumerate_quadratic(lattice.gram, zero, m_max + 1e-9, budget):
        key = _bucket(q)
        counts[key] = counts.get(key, 0) + 1
    entries = tuple(sorted(counts.items()))
    return ThetaCoefficients(entries)


@dataclass(frozen=True)
class PeriodicPacking:
    """Spheres of one radius centered on finitely many lattice translates."""

    lattice: Lattice
    translates: tuple = ()
    radius: float = 0.5

    def __post_init__(self):
        n = self.lattice.dimension
        ts = [np.zeros(n)] if len(self.translates) == 0 else [
            np.asarray(t, dtype=float) for t in self.translates
        ]
        for t in ts:
            if t.shape != (n,):
                raise ValueError("translate dimension mismatch")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        object.__setattr__(self, "translates", tuple(map(tuple, ts)))
        # distinct translate classes
        for j in range(len(ts)):
            for k in range(j + 1, len(ts)):
                if coset_min_norm(self.lattice, ts[j] - ts[k]) <= 1e-18:
                    raise ValueError(f"translates {j} and {k} differ by a "
                                     "lattice vector")
        # non-overlap
        min_d = self.min_center_distance()
        if min_d < 2 * self.radius - 1e-9:
            raise ValueError(
                f"spheres overlap: min center distance {min_d:.6g} < 2r"
            )

    @property
    def translate_vectors(self) -> list[np.ndarray]:
        return [np.asarray(t, dtype=float) for t in self.translates]

    def min_center_distance(self) -> float:
        best = math.sqrt(self.lattice.minimal_norm)
        ts = self.translate_vectors
        for j in range(len(ts)):
            for k in range(j + 1, len(ts)):
                best = min(best,
                           math.sqrt(coset_min_norm(self.lattice, ts[j] - ts[k])))
        return best


def coset_min_norm(lattice: Lattice, t) -> float:
    """Minimal squared length over the coset t + Lattice."""
    t = np.asarray(t, dtype=float)
    c = lattice.coords_of(t)
    babai = c - np.round(c)
    bound = float(babai @ lattice.gram @ babai) + 1e-9
    best = bound
    for _z, q in enumerate_quadratic(lattice.gram, c, bound):
        best = min(best, q)
    return max(best, 0.0)


def theta_periodic(packing: PeriodicPacking, m_max: float,
                   budget: int = DEFAULT_POINT_BUDGET) -> ThetaCoefficients:
    """Averaged counts over all translate pairs; exact rationals over ell."""
    if m_max < 0:
        raise ValueError("m_max must be >= 0")
    lat = packing.lattice
    ts = packing.translate_vectors
    ell = len(ts)
    counts: dict[float, Fraction] = {}
    for j in range(ell):
        for k in range(ell):
            shift = lat.coords_of(ts[j] - ts[k])
            for _z, q in enumerate_quadratic(lat.gram, shift, m_max + 1e-9,
                                             budget):
                key = _bucket(q)
                counts[key] = counts.get(key, Fraction(0)) + Fraction(1, ell)
    entries = tuple(sorted(counts.items()))
    return ThetaCoefficients(entries)


# ---------------------------------------------------------------------------
# Spherical codes cut out of packings
# ---------------------------------------------------------------------------

def _centers_at_distance(packing: PeriodicPacking, x0: np.ndarray, u: float,
                         budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    lat = packing.lattice
    rows = []
    for t in packing.translate_vectors:
        shift = lat.coords_of(t - x0)
        for z, _q in enumerate_quadratic(lat.gram, shift, (u + SHELL_TOL) ** 2,
                                         budget):
            center = (z + shift) @ lat.basis
            d = float(np.linalg.norm(center))
            if abs(d - u) <= SHELL_TOL:
                rows.append(center)
    return np.asarray(rows) if rows else np.zeros((0, lat.dimension))


def shell_code(packing: PeriodicPacking, x0, u: float,
               budget: int = DEFAULT_POINT_BUDGET):
    """Spherical code of sphere centers at distance u from x0, with certificate.

    Returns ``(code, certificate)`` where the certificate records the
    guaranteed minimum angle 2 asin(radius / u) and the recomputed angle
    (an equality only for special shells; in general the recomputed angle
    can be larger).
    """
    if u <= 0:
        raise ValueError("u must be positive")
    x0 = np.asarray(x0, dtype=float)
    centers = _centers_at_distance(packing, x0, u, budget)
    if centers.shape[0] < 2:
        raise ValueError(f"shell at distance {u} has {centers.shape[0]} centers")
    code = SphericalCode(centers / u, normalize=True, check_distinct=False)
    guaranteed = 2.0 * math.asin(min(1.0, packing.radius / u))
    recomputed = code.min_angle
    if recomputed < guaranteed - 1e-9:
        raise AssertionError(
            f"shell angle {recomputed:.12g} below guarantee {guaranteed:.12g}"
        )
    return code, {"guaranteed_min_angle": guaranteed,
                  "recomputed_min_angle": recomputed,
                  "card": code.card}


def kissing_configuration(packing: PeriodicPacking, center_index: int = 0,
                          budget: int = DEFAULT_POINT_BUDGET) -> SphericalCode:
    """Normalized tangency directions around one translate's sphere."""
    ts = packing.translate_vectors
    if not (0 <= center_index < len(ts)):
        raise ValueError("center index out of range")
    x0 = ts[center_index]
    code, cert = shell_code(packing, x0, 2.0 * packing.radius, budget)
    if code.min_angle < math.pi / 3 - 1e-9:
        raise AssertionError("kissing configuration below the pi/3 guarantee")
    return code


# ---------------------------------------------------------------------------
# Areas and densities
# ---------------------------------------------------------------------------

def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return n * math.pi ** (n / 2) / math.exp(gammaln(n / 2 + 1))


def cap_area(n: int, phi: float) -> float:
    """Area of a spherical cap of angular radius phi/2 on S^{n-1}."""
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= phi <= math.pi):
        raise ValueError("phi must be in [0, pi]")
    integral, _err = integrate.quad(
        lambda x: math.sin(x) ** (n - 2), 0.0, phi / 2, epsabs=1e-12
    )
    return sphere_area(n - 1) * integral


def code_density(code: SphericalCode) -> float:
    """Fraction of the sphere covered by the disjoint caps of a code."""
    n = code.dimension
    return code.card * cap_area(n, code.min_angle) / sphere_area(n)


def max_code_density(n: int, phi: float, max_points: float) -> float:
    """Density of a hypothetical code hitting the supplied cardinality."""
    if max_points <= 0:
        raise ValueError("cardinality estimate must be positive")
    return max_points * cap_area(n, phi) / sphere_area(n)


def estimate_max_points(n: int, phi: float) -> tuple[float, str]:
    """Best available cardinality estimate with a label describing its nature."""
    if n == 2:
        return float(circle_max_points(phi)), "exact-circle"
    if phi > math.pi / 2:
        return rankin_curve(n, phi)[0], "large-angle-bound"
    return 2.0 ** (n * kl_bound(phi)), "asymptotic-heuristic"


def ball_volume(n: int, radius: float) -> float:
    return math.pi ** (n / 2) * radius ** n / math.exp(gammaln(n / 2 + 1))


def packing_density(packing: PeriodicPacking) -> float:
    """Fraction of space covered: ell * Vol(B_r) / covolume."""
    n = packing.lattice.dimension
    ell = len(packing.translates)
    return ell * ball_volume(n, packing.radius) / packing.lattice.covolume


def density_bounds(n: int, phi: float, max_points_upper) -> tuple[float, float]:
    """Upper bounds on packing density from spherical-code cardinalities.

    ``max_points_upper(n, phi)`` must upper-bound the maximal cardinality.
    Returns ``(embedding_bound, projection_bound)``: sin^n(phi/2) times the
    cardinality bound in dimension n+1 (valid for all angles) and in
    dimension n (valid only for phi >= pi/3).  Values above 1 are vacuous
    and reported as computed.
    """
    if not (0.0 < phi <= math.pi):
        raise ValueError("phi must be in (0, pi]")
    s = math.sin(phi / 2) ** n
    bound_embed = s * max_points_upper(n + 1, phi)
    if phi < math.pi / 3:
        raise ValueError("projection bound requires phi >= pi/3")
    bound_proj = s * max_points_upper(n, phi)
    return bound_embed, bound_proj


def annulus_condition(latitudes, phi: float) -> float:
    """max delta + 2 sin(phi/2) min delta over a latitude partition.

    The partition must ascend from -pi/2 to pi/2.  Small values indicate
    latitudes fine enough for density-preserving wrapping.
    """
    lats = np.asarray(latitudes, dtype=float)
    if lats.ndim != 1 or lats.size < 2:
        raise ValueError("need at least two latitudes")
    if abs(lats[0] + math.pi / 2) > 1e-12 or abs(lats[-1] - math.pi / 2) > 1e-12:
        raise ValueError("latitudes must run from -pi/2 to pi/2")
    deltas = np.diff(lats)
    if np.any(deltas <= 0):
        raise ValueError("latitudes must be strictly increasing")
    return float(np.max(deltas) + 2.0 * math.sin(phi / 2) * np.min(deltas))


# ---------------------------------------------------------------------------
# Named lattices
# ---------------------------------------------------------------------------

def integer_lattice(n: int) -> Lattice:
    return Lattice(np.eye(n))

def hexagonal_lattice() -> Lattice:
    return Lattice(np.array([[1.0, 0.0], [0.5, math.sqrt(3) / 2]]))

def checkerboard_lattice(n: int) -> Lattice:
    """D_n: integer vectors with even coordinate sum."""
    if n < 2:
        raise ValueError("n must be >= 2")
    basis = np.zeros((n, n))
    for i in range(n - 1):
        basis[i, i] = 1.0
        basis[i, i + 1] = -1.0
    basis[n - 1, n - 2] = 1.0
    basis[n - 1, n - 1] = 1.0
    return Lattice(basis)

def e8_lattice() -> Lattice:
    basis = np.zeros((8, 8))
    basis[0, 0] = 2.0
    for i in range(1, 7):
        basis[i, i - 1] = -1.0
        basis[i, i] = 1.0
    basis[7, :] = 0.5
    return Lattice(basis)


NAMED_LATTICES = {
    "Z": integer_lattice,
    "A2": hexagonal_lattice,
    "D4": lambda: checkerboard_lattice(4),
    "E8": e8_lattice,
}


def lattice_by_name(name: str, dim: int | None = None) -> Lattice:
    if name == "Z":
        if dim is None:
            raise ValueError("Z lattice needs a dimension")
        return integer_lattice(dim)
    if name in NAMED_LATTICES:
        return NAMED_LATTICES[name]()
    raise ValueError(f"unknown lattice {name!r}; known: {sorted(NAMED_LATTICES)}")


def touching_packing(lattice: Lattice, translates=()) -> PeriodicPacking:
    """Packing with the largest legal radius (spheres touch)."""
    probe = PeriodicPacking(lattice, tuple(translates), radius=1e-9)
    return PeriodicPacking(lattice, tuple(translates),
                           radius=probe.min_center_distance() / 2)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def dump_packing(packing: PeriodicPacking) -> str:
    lat = packing.lattice
    lines = [f"dim {lat.dimension}"]
    for row in lat.basis:
        lines.append(" ".join(f"{c:.17g}" for c in row))
    ts = packing.translate_vectors
    if len(ts) > 1 or np.any(ts[0]):
        lines.append(f"translates {len(ts)}")
        for t in ts:
            lines.append(" ".join(f"{c:.17g}" for c in t))
    lines.append(f"radius {packing.radius:.17g}")
    return "\n".join(lines) + "\n"


def load_packing(text: str, default_radius: float | None = None) -> PeriodicPacking:
    """Parse "dim n", n basis rows, optional translates and radius sections."""
    dim = None
    basis_rows: list[list[float]] = []
    translates: list[list[float]] = []
    radius = default_radius
    expect_translates = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if dim is None:
            if parts[0] != "dim" or len(parts) != 2:
                raise InputFormatError("expected 'dim <n>' header", lineno)
            dim = int(parts[1])
            continue
        if parts[0] == "translates":
            expect_translates = int(parts[1])
            continue
        if parts[0] == "radius":
            radius = float(parts[1])
            continue
        try:
            row = [float(t) for t in parts]
        except ValueError:
            raise InputFormatError("malformed number", lineno) from None
        if len(row) != dim:
            raise InputFormatError(f"expected {dim} entries", lineno)
        if len(basis_rows) < dim:
            basis_rows.append(row)
        elif len(translates) < expect_translates:
            translates.append(row)
        else:
            raise InputFormatError("unexpected extra row", lineno)
    if dim is None or len(basis_rows) != dim:
        raise InputFormatError("incomplete basis")
    if len(translates) != expect_translates:
        raise InputFormatError("missing translate rows")
    lat = Lattice(np.asarray(basis_rows))
    if radius is None:
        return touching_packing(lat, translates)
    return PeriodicPacking(lat, tuple(translates), radius)
