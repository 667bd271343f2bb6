"""Lattices, periodic sphere packings, theta series and density bounds.

Lattice points are integer combinations of the basis rows.  Counting is
done by exact enumeration under a quadratic-form bound (triangular
decomposition of the Gram matrix with per-coordinate interval bounds),
walked in blocks of points and subject to a configurable node budget.
Theta series, shell and kissing codes and minimal norms read whole blocks
of points and values; ``enumerate_quadratic`` is the per-point view of the
same walk.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .bounds import circle_max_points, kl_bound, rankin_curve
from .errors import BudgetExceeded, CertificateError, DimensionMismatch, InputFormatError
from .spherical import SphericalCode, format_rows, keyword_value, number_rows, read_dim

NORM_BUCKET_DECIMALS = 9   # norms bucketed to 1e-9
SHELL_TOL = 1e-9
DEFAULT_POINT_BUDGET = 10_000_000
# Enumeration blocks hold at most this many integer coordinates: a 128 KiB
# int64 block.  E8 theta to norm 12 is 1.8x faster than at 1 << 12, and
# 1 << 16 is no faster but re-faults its freed blocks on every call.
BLOCK_COORDS = 1 << 14


@dataclass(frozen=True)
class Lattice:
    """Full-rank lattice given by basis rows."""

    basis: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.basis, dtype=float)
        if b.ndim != 2 or b.shape[0] != b.shape[1] or b.shape[0] < 1:
            raise ValueError("basis must be a square matrix of row vectors, "
                             "dimension >= 1")
        if not np.all(np.isfinite(b)):
            raise ValueError("basis must have finite entries")
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
        for _z, values in _quadratic_blocks(self.gram, np.zeros(self.dimension),
                                            bound + 1e-9):
            nonzero = values[values > 1e-12]
            if nonzero.size:
                best = min(best, float(nonzero.min()))
        return best


def _quadratic_blocks(gram: np.ndarray, center: np.ndarray, bound: float,
                      budget: int = DEFAULT_POINT_BUDGET):
    """Yield (z, values) blocks of the integer z with (z+center)' G (z+center) <= bound.

    With G = R'R (R upper triangular) the coordinates are fixed from the
    last one down, each within the interval that the remaining squared
    length allows (Fincke-Pohst).  One array pass fixes one coordinate for
    a block of prefixes and the blocks go depth-first on a stack, so the
    rows come in the order of the point-by-point walk (last coordinate
    outermost, each ascending); a block holds at most BLOCK_COORDS
    coordinates.  ``z`` is an int64 array of rows and ``values`` the float
    array of their quadratic-form values.  Every integer tried for a
    coordinate is a node, pruned or not; more than ``budget`` nodes raise
    BudgetExceeded before they are built.
    """
    gram = np.asarray(gram, dtype=float)
    c = np.asarray(center, dtype=float)
    if not (np.all(np.isfinite(gram)) and np.all(np.isfinite(c))
            and math.isfinite(bound)):
        raise ValueError("enumeration needs a finite Gram matrix, center and bound")
    n = gram.shape[0]
    R = np.linalg.cholesky(gram).T  # upper triangular, G = R'R
    rows = max(1, BLOCK_COORDS // n)
    visited = 0.0  # a float: interval widths can overflow int64

    def frame(i, z, rem, acc):
        """The prefixes z (coordinates > i fixed) with their intervals for i."""
        nonlocal visited
        s = np.zeros(len(z))
        for j in range(i + 1, n):
            s = s + R[i, j] * (z[:, j] + c[j])
        half = np.sqrt(np.maximum(rem, 0.0))
        lo = np.ceil((-half - s) / R[i, i] - c[i] - 1e-12)
        hi = np.floor((half - s) / R[i, i] - c[i] + 1e-12)
        width = np.maximum(hi - lo + 1.0, 0.0)
        visited += float(width.sum())
        if visited > budget:
            raise BudgetExceeded(f"enumeration exceeded {budget} points")
        width = width.astype(np.int64)
        ends = np.cumsum(width)
        # node k of the frame is in prefix p = searchsorted(ends, k, "right")
        # and sets coordinate i to k + offset[p]; the last item is the next k
        return [i, z, rem, acc, s, lo.astype(np.int64) + width - ends, ends, 0]

    stack = [frame(n - 1, np.zeros((1, n), dtype=np.int64),
                   np.array([float(bound)]), np.zeros(1))]
    while stack:
        top = stack[-1]
        i, z, rem, acc, s, offset, ends, done = top
        top[-1] = stop = min(int(ends[-1]), done + rows)
        if stop == ends[-1]:
            stack.pop()
        k = np.arange(done, stop)
        p = np.searchsorted(ends, k, side="right")
        zi = k + offset[p]
        term = (R[i, i] * (zi + c[i]) + s[p]) ** 2
        keep = term <= rem[p] + 1e-9
        p, zi, term = p[keep], zi[keep], term[keep]
        if p.size == 0:
            continue
        z_next = z[p]
        z_next[:, i] = zi
        if i == 0:
            yield z_next, acc[p] + term
        else:
            stack.append(frame(i - 1, z_next, rem[p] - term, acc[p] + term))


def enumerate_quadratic(gram: np.ndarray, center: np.ndarray, bound: float,
                        budget: int = DEFAULT_POINT_BUDGET):
    """Yield (z, value) for integer z with (z+center)' G (z+center) <= bound.

    The per-point view of ``_quadratic_blocks``: the same points, order,
    values and node budget.  ``z`` is an int64 row of its block.
    """
    for z, values in _quadratic_blocks(gram, center, bound, budget):
        yield from zip(z, values.tolist())


@dataclass(frozen=True)
class ThetaCoefficients:
    """Sorted (norm, count) pairs; counts are ints or Fractions."""

    entries: tuple

    def count(self, m: float, tol: float = 1e-9):
        """Total count of every bucket within ``tol`` of ``m``.

        Equal norms can round into neighbouring buckets (4 and 4.000000001).
        A key is the double nearest a multiple of 1e-9, so the distance may
        exceed ``tol`` by one unit in the last place.
        """
        return sum((cnt for norm, cnt in self.entries
                    if abs(norm - m) <= tol + math.ulp(max(abs(norm), abs(m)))), 0)

    @property
    def norms(self):
        return [norm for norm, _ in self.entries]


def _theta(lattice: Lattice, translates, m_max: float,
           budget: int) -> ThetaCoefficients:
    """Counts of the vectors t_j - t_k + Lattice over ell, bucketed by norm.

    Each (j, k) pair has its own node budget.  The counts are exact: ints
    for one translate (a lattice), Fractions over ell otherwise.  Each
    enumeration block is counted by raw value as it comes, so memory grows
    with the distinct values, not with the points.
    """
    if not m_max >= 0:
        raise ValueError("m_max must be >= 0")
    counts = Counter()
    for tj, tk in itertools.product(translates, repeat=2):
        shift = lattice.coords_of(tj - tk)
        hits = Counter()
        for _z, values in _quadratic_blocks(lattice.gram, shift, m_max + 1e-9,
                                            budget):
            keys, n = np.unique(values, return_counts=True)
            for value, hit in zip(keys.tolist(), n.tolist()):
                hits[value] += hit
        for value, hit in hits.items():  # round each distinct value once
            counts[round(value, NORM_BUCKET_DECIMALS)] += hit
    ell = len(translates)
    return ThetaCoefficients(tuple(
        (key, cnt if ell == 1 else Fraction(cnt, ell))
        for key, cnt in sorted(counts.items())))


def theta_lattice(lattice: Lattice, m_max: float,
                  budget: int = DEFAULT_POINT_BUDGET) -> ThetaCoefficients:
    """Counts N(m) of lattice points with squared norm m <= m_max."""
    return _theta(lattice, [np.zeros(lattice.dimension)], m_max, budget)


@dataclass(frozen=True)
class PeriodicPacking:
    """Spheres of one radius centered on finitely many lattice translates.

    A radius of None is the largest legal one: the spheres touch.
    """

    lattice: Lattice
    translates: tuple = ()
    radius: float | None = 0.5

    def __post_init__(self):
        n = self.lattice.dimension
        ts = [np.zeros(n)] if len(self.translates) == 0 else [
            np.asarray(t, dtype=float) for t in self.translates
        ]
        for t in ts:
            if t.shape != (n,):
                raise ValueError("translate dimension mismatch")
            if not np.all(np.isfinite(t)):
                raise ValueError("translates must have finite coordinates")
        if not (self.radius is None or self.radius > 0):
            raise ValueError("radius must be positive")
        object.__setattr__(self, "translates", tuple(map(tuple, ts)))
        # non-overlap; distinct translate classes are checked on the way
        min_d = self.min_center_distance()
        if self.radius is None:
            object.__setattr__(self, "radius", min_d / 2)
        elif min_d < 2 * self.radius - 1e-9:
            raise ValueError(
                f"spheres overlap: min center distance {min_d:.6g} < 2r"
            )

    @property
    def translate_vectors(self) -> list[np.ndarray]:
        return [np.asarray(t, dtype=float) for t in self.translates]

    def min_center_distance(self) -> float:
        """Raises ValueError when two translates differ by a lattice vector."""
        best = self.lattice.minimal_norm
        ts = self.translate_vectors
        for j, k in itertools.combinations(range(len(ts)), 2):
            norm = coset_min_norm(self.lattice, ts[j] - ts[k])
            if norm <= 1e-18:
                raise ValueError(f"translates {j} and {k} differ by a lattice vector")
            best = min(best, norm)
        return math.sqrt(best)


def coset_min_norm(lattice: Lattice, t) -> float:
    """Minimal squared length over the coset t + Lattice."""
    t = np.asarray(t, dtype=float)
    c = lattice.coords_of(t)
    babai = c - np.round(c)
    bound = float(babai @ lattice.gram @ babai) + 1e-9
    best = bound
    for _z, values in _quadratic_blocks(lattice.gram, c, bound):
        best = min(best, float(values.min()))
    return max(best, 0.0)


def theta_periodic(packing: PeriodicPacking, m_max: float,
                   budget: int = DEFAULT_POINT_BUDGET) -> ThetaCoefficients:
    """Averaged counts over all translate pairs; exact rationals over ell.

    With one translate the packing is a shifted lattice, and the counts
    are those of the lattice (ints).
    """
    return _theta(packing.lattice, packing.translate_vectors, m_max, budget)


# ---------------------------------------------------------------------------
# Spherical codes cut out of packings
# ---------------------------------------------------------------------------

def _centers_at_distance(packing: PeriodicPacking, x0: np.ndarray, u: float,
                         budget: int = DEFAULT_POINT_BUDGET) -> np.ndarray:
    lat = packing.lattice
    found = []
    for t in packing.translate_vectors:
        shift = lat.coords_of(t - x0)
        blocks = [z for z, _v in _quadratic_blocks(lat.gram, shift,
                                                    (u + SHELL_TOL) ** 2, budget)]
        z = (np.concatenate(blocks) if blocks
             else np.zeros((0, lat.dimension), dtype=np.int64))
        centers = (z + shift) @ lat.basis
        d = np.sqrt(np.vecdot(centers, centers))
        found.append(centers[np.abs(d - u) <= SHELL_TOL])
    return np.concatenate(found)


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
    if x0.shape != (packing.lattice.dimension,):
        raise DimensionMismatch(
            f"x0 has {x0.size} coordinates, the lattice dimension is "
            f"{packing.lattice.dimension}"
        )
    centers = _centers_at_distance(packing, x0, u, budget)
    if centers.shape[0] < 2:
        raise ValueError(f"shell at distance {u} has {centers.shape[0]} centers")
    code = SphericalCode(centers / u, normalize=True, check_distinct=False)
    guaranteed = 2.0 * math.asin(min(1.0, packing.radius / u))
    recomputed = code.min_angle
    if recomputed < guaranteed - 1e-9:
        raise CertificateError(
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
    # shell_code certifies 2 asin(r / 2r) = pi/3 with the same 1e-9 slack
    return shell_code(packing, x0, 2.0 * packing.radius, budget)[0]


# ---------------------------------------------------------------------------
# Areas and densities
# ---------------------------------------------------------------------------

def _in_float_range(name: str, n: int, value) -> float:
    """``value()``, or an OverflowError that names ``name`` and ``n`` when a
    term of it leaves the float range, whether that raises or gives inf.

    The result itself may fit: the sphere area tends to 0, but Gamma(n/2 + 1)
    overflows from n = 342 on.
    """
    try:
        out = value()
    except OverflowError:
        out = math.inf
    if math.isinf(out):
        raise OverflowError(f"{name}(n={n}) cannot be computed: "
                            "a term exceeds the float range")
    return out


def sphere_area(n: int) -> float:
    """Surface area of the unit sphere S^{n-1} in R^n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return _in_float_range("sphere_area", n,
                           lambda: n * math.pi ** (n / 2) / math.exp(math.lgamma(n / 2 + 1)))


def _beta_fraction(a: float, b: float, x: float) -> float:
    """Continued fraction of B(x; a, b) / (x^a (1-x)^b / a), modified Lentz.

    Converges quickly for x < (a + 1) / (a + b + 2) (Numerical Recipes 6.4).
    """
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    h = d
    for m in range(1, 10_000):
        for coeff in (m * (b - m) * x / ((a + 2 * m - 1) * (a + 2 * m)),
                      -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1))):
            d = 1.0 + coeff * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coeff / c
            c = c if abs(c) > tiny else tiny
            h *= d * c
        if abs(d * c - 1.0) <= 2.0 ** -52:
            return h
    raise ValueError(f"incomplete beta fraction did not converge (a={a}, b={b}, x={x})")


def cap_area(n: int, phi: float) -> float:
    """Area of a spherical cap of angular radius phi/2 on S^{n-1}.

    The area is A(n-1) times the integral of sin^{n-2} over [0, phi/2],
    which is B(x; a, 1/2) / 2 with x = sin^2(phi/2) and a = (n-1)/2.  Past
    the fraction's crossover the complement B(1-x; 1/2, a), with 1 - x
    taken as cos^2(phi/2), is subtracted from the half sphere.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    if not (0.0 <= phi <= math.pi):
        raise ValueError("phi must be in [0, pi]")
    a = (n - 1) / 2
    s, c = math.sin(phi / 2), math.cos(phi / 2)
    front = s ** (n - 1) * c  # x^a (1-x)^(1/2)
    if s * s < (a + 1.0) / (a + 2.5):
        return sphere_area(n - 1) * front * _beta_fraction(a, 0.5, s * s) / (2 * a)
    rest = front * _beta_fraction(0.5, a, c * c)
    return sphere_area(n) / 2 - sphere_area(n - 1) * rest


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
    if n < 2:
        raise ValueError("n must be >= 2")
    if n == 2:
        return float(circle_max_points(phi)), "exact-circle"
    if phi > math.pi / 2:
        return rankin_curve(n, phi)[0], "large-angle-bound"
    return (_in_float_range("estimate_max_points", n, lambda: 2.0 ** (n * kl_bound(phi))),
            "asymptotic-heuristic")


def ball_volume(n: int, radius: float) -> float:
    return _in_float_range(
        "ball_volume", n,
        lambda: math.pi ** (n / 2) * radius ** n / math.exp(math.lgamma(n / 2 + 1)))


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
    return PeriodicPacking(lattice, tuple(translates), radius=None)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def dump_packing(packing: PeriodicPacking) -> str:
    lat = packing.lattice
    lines = [f"dim {lat.dimension}"]
    lines += format_rows(lat.basis)
    ts = packing.translate_vectors
    if len(ts) > 1 or np.any(ts[0]):
        lines.append(f"translates {len(ts)}")
        lines += format_rows(ts)
    lines.append(f"radius {packing.radius:.17g}")
    return "\n".join(lines) + "\n"


def load_packing(text: str, default_radius: float | None = None) -> PeriodicPacking:
    """Parse "dim n", n basis rows, optional translates and radius sections.

    Without a radius (here or as ``default_radius``) the spheres touch.
    """
    dim, lines = read_dim(text, "incomplete basis")
    rows, radius, translates, error = [], default_radius, 0, None
    try:
        for lineno, parts in lines:
            if parts[0] == "translates":
                translates = keyword_value(parts, lineno, int, lambda v: v >= 0)
            elif parts[0] == "radius":
                radius = keyword_value(parts, lineno, float, lambda v: 0 < v < math.inf)
            else:
                rows.append((lineno, parts))
                if len(rows) > dim + translates:
                    raise InputFormatError("unexpected extra row", lineno)
    except InputFormatError as exc:
        error = exc
    pts, bad_row = number_rows(rows, dim)
    finite = np.isfinite(pts).all(axis=1)
    if not finite.all():  # these rows all come before a bad row or the error's line
        raise InputFormatError("coordinate is not finite", rows[int(np.argmin(finite))][0])
    if bad_row or error:  # every row precedes the error's line, so a bad row comes first
        raise bad_row or error
    if len(rows) != dim + translates:
        raise InputFormatError("incomplete basis" if len(rows) < dim else "missing translate rows")
    return PeriodicPacking(Lattice(pts[:dim]), tuple(pts[dim:].tolist()), radius)
