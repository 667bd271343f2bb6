import itertools
import math
import re
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from sphcodes import packings
from sphcodes.errors import BudgetExceeded, CertificateError, InputFormatError


def brute_force_counts(basis, m_max, box=6):
    """Independent theta oracle: scan an integer coordinate box."""
    n = basis.shape[0]
    counts = {}
    for z in itertools.product(range(-box, box + 1), repeat=n):
        v = np.asarray(z, dtype=float) @ basis
        q = round(float(v @ v), 9)
        if q <= m_max + 1e-9:
            counts[q] = counts.get(q, 0) + 1
    return counts


# -- lattices ------------------------------------------------------------------

def test_lattice_rejects_non_finite_basis():
    with pytest.raises(ValueError, match="finite"):
        packings.Lattice(np.array([[1.0, 0.0], [math.nan, 1.0]]))


def test_lattice_rejects_singular_basis():
    with pytest.raises(ValueError):
        packings.Lattice(np.array([[1.0, 0.0], [2.0, 0.0]]))


@pytest.mark.parametrize("n", [0, -1])
def test_integer_lattice_names_a_dimension_below_1(n):
    with pytest.raises(ValueError, match=rf"^Z\^n needs n >= 1, got {n}$"):
        packings.integer_lattice(n)


def test_minimal_norms():
    assert packings.integer_lattice(3).minimal_norm == pytest.approx(1.0)
    assert packings.hexagonal_lattice().minimal_norm == pytest.approx(1.0)
    assert packings.checkerboard_lattice(4).minimal_norm == pytest.approx(2.0)
    assert packings.e8_lattice().minimal_norm == pytest.approx(2.0)


def test_e8_covolume_one():
    assert packings.e8_lattice().covolume == pytest.approx(1.0, abs=1e-12)


# -- theta coefficients ---------------------------------------------------------

def test_theta_square_lattice_matches_brute_force():
    lat = packings.integer_lattice(2)
    theta = packings.theta_lattice(lat, 5.0)
    oracle = brute_force_counts(lat.basis, 5.0)
    for m in (0, 1, 2, 3, 4, 5):
        assert theta.count(m) == oracle.get(float(m), 0)
    assert [theta.count(m) for m in (0, 1, 2, 3, 4, 5)] == [1, 4, 4, 0, 4, 8]


def test_theta_hexagonal_minimal_shell():
    lat = packings.hexagonal_lattice()
    theta = packings.theta_lattice(lat, 1.0)
    oracle = brute_force_counts(lat.basis, 1.0)
    assert theta.count(1) == 6 == oracle[1.0]


def test_theta_d4_minimal_shell():
    lat = packings.checkerboard_lattice(4)
    theta = packings.theta_lattice(lat, 2.0)
    oracle = brute_force_counts(lat.basis, 2.0, box=3)
    assert theta.count(2) == 24 == oracle[2.0]


def test_theta_e8_240_minimal_vectors():
    theta = packings.theta_lattice(packings.e8_lattice(), 2.0)
    # definition-based oracle, independent of any basis: integer vectors
    # with even coordinate sum, plus all-half-integer vectors with even sum
    count = 0
    for z in itertools.product((-1, 0, 1), repeat=8):
        if sum(z) % 2 == 0 and sum(c * c for c in z) == 2:
            count += 1
    for signs in itertools.product((-0.5, 0.5), repeat=8):
        if round(sum(signs)) % 2 == 0 and abs(sum(s * s for s in signs) - 2) < 1e-12:
            count += 1
    assert count == 240
    assert theta.count(2) == 240


def divisors(m):
    return [d for d in range(1, m + 1) if m % d == 0]


def test_theta_e8_is_240_sigma3():
    theta = packings.theta_lattice(packings.e8_lattice(), 12.0)
    assert theta.norms == [0, 2, 4, 6, 8, 10, 12]
    for m in range(1, 7):
        assert theta.count(2 * m) == 240 * sum(d ** 3 for d in divisors(m))


def test_theta_z4_is_jacobi_r4():
    theta = packings.theta_lattice(packings.integer_lattice(4), 9.0)
    for m in range(1, 10):
        assert theta.count(m) == 8 * sum(d for d in divisors(m) if d % 4)


def test_theta_d4_is_24_sigma_of_odd_part():
    theta = packings.theta_lattice(packings.checkerboard_lattice(4), 8.0)
    assert theta.norms == [0, 2, 4, 6, 8]
    for m in range(1, 5):
        odd = m // (m & -m)
        assert theta.count(2 * m) == 24 * sum(divisors(odd))


def test_theta_count_sums_every_bucket_within_tol():
    # equal norms on a skewed basis can round into neighbouring buckets
    theta = packings.ThetaCoefficients(((2.0, 240), (4.0, 1956), (4.000000001, 204),
                                        (4.000000002, 7)))
    assert theta.count(4) == 2160
    assert theta.count(4.000000001) == 2167
    assert theta.count(2) == 240
    assert theta.count(3) == 0
    halves = packings.ThetaCoefficients(((0.5, Fraction(7, 2)), (0.500000001, Fraction(1, 2))))
    assert halves.count(0.5) == Fraction(4)


def test_theta_e8_memory_stays_bounded():
    e8 = packings.e8_lattice()
    tracemalloc.start()
    try:
        packings.theta_lattice(e8, 12.0)
        _now, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 6e6


def test_enumeration_rejects_non_finite_input():
    for gram, center, bound in [(np.eye(2), np.zeros(2), math.inf),
                                (np.eye(2), np.zeros(2), math.nan),
                                (np.eye(2), np.array([math.nan, 0.0]), 1.0),
                                (np.array([[1.0, math.inf], [0.0, 1.0]]), np.zeros(2), 1.0)]:
        with pytest.raises(ValueError, match="finite"):
            list(packings.enumerate_quadratic(gram, center, bound))


def test_enumeration_budget_counted_before_overflow():
    with pytest.raises(BudgetExceeded):
        list(packings.enumerate_quadratic(np.eye(2), np.zeros(2), 1e300))


def test_enumeration_budget(monkeypatch):
    monkeypatch.setattr(packings, "NODE_BUDGET", 10)
    with pytest.raises(BudgetExceeded):
        list(packings.enumerate_quadratic(np.eye(3), np.zeros(3), 100.0))


def test_theta_periodic_translate_average():
    # Z^2 with translates (0,0) and (1/2, 1/2) is a scaled D-like packing:
    # N(0) = 1, and the half-integer shell contributes fractional counts
    lat = packings.integer_lattice(2)
    packing = packings.PeriodicPacking(
        lat, ((0.0, 0.0), (0.5, 0.5)), radius=0.25
    )
    theta = packings.theta_periodic(packing, 1.0)
    assert theta.count(0) == Fraction(1)
    assert theta.count(0.5) == Fraction(8, 2)  # 4 per ordered cross pair
    assert theta.count(1) == Fraction(4)


def test_periodic_rejects_lattice_equivalent_translates():
    lat = packings.integer_lattice(2)
    with pytest.raises(ValueError):
        packings.PeriodicPacking(lat, ((0.0, 0.0), (1.0, 2.0)), radius=0.25)


def test_periodic_rejects_overlap():
    lat = packings.integer_lattice(2)
    with pytest.raises(ValueError):
        packings.PeriodicPacking(lat, ((0.0, 0.0),), radius=0.6)


def test_touching_packing_enumerates_each_coset_once(monkeypatch):
    calls = []
    real = packings.coset_min_norm

    def counted(lattice, t):
        calls.append(t)
        return real(lattice, t)

    monkeypatch.setattr(packings, "coset_min_norm", counted)
    packing = packings.touching_packing(packings.integer_lattice(3),
                                        ((0.0, 0.0, 0.0), (0.5, 0.5, 0.5)))
    assert len(calls) == 1
    assert packing.radius == math.sqrt(0.75) / 2


# -- shells and kissing ----------------------------------------------------------

def test_kissing_square_lattice():
    packing = packings.touching_packing(packings.integer_lattice(2))
    code = packings.kissing_configuration(packing)
    assert code.card == 4
    assert code.min_angle == pytest.approx(math.pi / 2, abs=1e-9)


def test_kissing_hexagonal():
    packing = packings.touching_packing(packings.hexagonal_lattice())
    code = packings.kissing_configuration(packing)
    assert code.card == 6
    assert code.min_angle == pytest.approx(math.pi / 3, abs=1e-9)


def test_kissing_d4():
    packing = packings.touching_packing(packings.checkerboard_lattice(4))
    code = packings.kissing_configuration(packing)
    assert code.card == 24


def test_kissing_of_z200():
    # one node per frame below the first nonzero coordinate: many tiny frames
    packing = packings.touching_packing(packings.integer_lattice(200))
    assert packing.radius == 0.5
    assert packings.kissing_configuration(packing).card == 400


def test_shell_code_certificate():
    packing = packings.touching_packing(packings.integer_lattice(2))
    code, cert = packings.shell_code(packing, np.zeros(2), math.sqrt(2))
    assert cert["card"] == code.card == 4
    assert cert["recomputed_min_angle"] >= cert["guaranteed_min_angle"] - 1e-9


def test_missed_guarantee_is_a_domain_error():
    # a radius past the touching one breaks the angle guarantee; the
    # constructor rejects it, so it is set behind the constructor's back
    packing = packings.touching_packing(packings.integer_lattice(2))
    object.__setattr__(packing, "radius", math.sqrt(5) / 2)
    with pytest.raises(CertificateError):
        packings.shell_code(packing, np.zeros(2), math.sqrt(5))
    with pytest.raises(CertificateError):
        packings.kissing_configuration(packing)


@pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, 0.0, -1.0])
def test_shell_code_rejects_u_outside_the_positive_reals(u):
    packing = packings.touching_packing(packings.integer_lattice(2))
    with pytest.raises(ValueError, match="u must be positive and finite"):
        packings.shell_code(packing, np.zeros(2), u)


@pytest.mark.parametrize("u", [1e300, 1.5e154])
def test_shell_code_names_a_u_whose_squared_radius_overflows(u):
    packing = packings.touching_packing(packings.hexagonal_lattice())
    with pytest.raises(ValueError, match=re.escape(f"u = {u} is too large")):
        packings.shell_code(packing, np.zeros(2), u)


@pytest.mark.parametrize("m_max", [math.inf, math.nan, -1.0])
def test_theta_rejects_m_max_outside_zero_to_inf(m_max):
    with pytest.raises(ValueError, match=f"m_max must be >= 0 and finite, got {m_max}"):
        packings.theta_lattice(packings.e8_lattice(), m_max)


@pytest.mark.parametrize("x0", [[math.nan, 0.0], [0.0, math.inf]])
def test_shell_code_rejects_a_non_finite_base_point(x0):
    packing = packings.touching_packing(packings.integer_lattice(2))
    with pytest.raises(ValueError, match="x0 must have finite coordinates"):
        packings.shell_code(packing, x0, 1.0)


def test_shell_code_empty_shell():
    packing = packings.touching_packing(packings.integer_lattice(2))
    with pytest.raises(ValueError):
        packings.shell_code(packing, np.zeros(2), 1.1)


# -- areas and densities ---------------------------------------------------------

def test_sphere_areas_closed_form():
    assert packings.sphere_area(2) == pytest.approx(2 * math.pi, abs=1e-12)
    assert packings.sphere_area(3) == pytest.approx(4 * math.pi, abs=1e-12)
    assert packings.sphere_area(4) == pytest.approx(2 * math.pi ** 2, abs=1e-12)


def test_overflow_names_the_quantity_and_dimension():
    for call, quantity in [(lambda: packings.sphere_area(400), "sphere_area(n=400)"),
                           (lambda: packings.ball_volume(400, 10.0), "ball_volume(n=400)"),
                           (lambda: packings.ball_volume(1300, 1.0), "ball_volume(n=1300)"),
                           (lambda: packings.estimate_max_points(5000, 0.3),
                            "estimate_max_points(n=5000)")]:
        with pytest.raises(OverflowError) as info:
            call()
        assert str(info.value) == (f"{quantity} cannot be computed: "
                                   "a term exceeds the float range")


def test_cap_area_half_sphere():
    # phi = pi caps of angular radius pi/2 cover half the sphere
    for n in (2, 3, 5):
        assert packings.cap_area(n, math.pi) == pytest.approx(
            packings.sphere_area(n) / 2, rel=1e-12
        )


AREA_DIMENSIONS = [*range(2, 41), 48, 64, 96, 128, 200, 256]
PHI_GRID = [math.pi * k / 37 for k in range(1, 38)]  # (0, pi], pi included


def _assert_close(got, exact):
    if exact > mpmath.mpf("1e-290"):
        assert abs(got - exact) <= 1e-12 * exact


@mpmath.workdps(50)
def test_areas_match_high_precision_oracle():
    for n in AREA_DIMENSIONS:
        half = mpmath.mpf(n) / 2
        sphere = 2 * mpmath.pi ** half / mpmath.gamma(half)
        _assert_close(packings.sphere_area(n), sphere)
        for r in (0.5, 1.0, 1.5):
            _assert_close(packings.ball_volume(n, r), sphere * mpmath.mpf(r) ** n / n)
        a = half - mpmath.mpf(1) / 2
        lower = 2 * mpmath.pi ** a / mpmath.gamma(a)  # area of S^{n-2}
        for phi in PHI_GRID:
            x = mpmath.sin(mpmath.mpf(phi) / 2) ** 2
            _assert_close(packings.cap_area(n, phi),
                          lower * mpmath.betainc(a, 0.5, 0, x) / 2)


def test_cli_import_leaves_scipy_out():
    src = Path(packings.__file__).resolve().parents[1]
    out = subprocess.run(
        [sys.executable, "-c",
         "import sphcodes.cli, sys; print('scipy' in sys.modules)"],
        cwd=src, capture_output=True, text=True, check=True,
    ).stdout
    assert out == "False\n"


def test_square_code_density_is_one():
    packing = packings.touching_packing(packings.integer_lattice(2))
    code = packings.kissing_configuration(packing)
    assert packings.code_density(code) == pytest.approx(1.0, abs=1e-12)


def test_hexagonal_kissing_density_is_one():
    packing = packings.touching_packing(packings.hexagonal_lattice())
    code = packings.kissing_configuration(packing)
    assert packings.code_density(code) == pytest.approx(1.0, abs=1e-12)


def test_packing_densities():
    hexagonal = packings.touching_packing(packings.hexagonal_lattice())
    assert packings.packing_density(hexagonal) == pytest.approx(
        math.pi / math.sqrt(12), abs=1e-12
    )
    square = packings.touching_packing(packings.integer_lattice(2))
    assert packings.packing_density(square) == pytest.approx(
        math.pi / 4, abs=1e-12
    )
    e8 = packings.touching_packing(packings.e8_lattice())
    assert packings.packing_density(e8) == pytest.approx(
        math.pi ** 4 / 384, abs=1e-12
    )


def test_density_bound_dominates_hexagonal():
    # planar bound sin^2(pi/6) * M(2, pi/3) = 1/4 * 6 = 1.5 >= pi/sqrt(12)
    def upper(n, phi):
        return packings.estimate_max_points(n, phi)[0]

    _embed, proj = packings.density_bounds(2, math.pi / 3, upper)
    assert proj == pytest.approx(1.5, abs=1e-12)
    assert proj >= math.pi / math.sqrt(12)


def test_density_bound_requires_large_angle():
    with pytest.raises(ValueError):
        packings.density_bounds(2, math.pi / 4, lambda n, p: 100.0)


def test_wrapped_density_ratio_near_one():
    # on the circle, caps of angular radius phi/2 tile exactly when
    # phi = 2 pi / K: cardinality K at density exactly 1
    for K in (4, 6, 8, 12):
        phi = 2 * math.pi / K
        assert packings.max_code_density(2, phi, K) == pytest.approx(
            1.0, abs=1e-6
        )


def test_annulus_condition():
    lats = np.linspace(-math.pi / 2, math.pi / 2, 21)
    val = packings.annulus_condition(lats, math.pi / 3)
    delta = math.pi / 20
    assert val == pytest.approx(delta + 2 * math.sin(math.pi / 6) * delta,
                                abs=1e-12)


# -- file format ------------------------------------------------------------------

def test_packing_file_roundtrip():
    packing = packings.PeriodicPacking(
        packings.hexagonal_lattice(), ((0.25, 0.25),), radius=0.2
    )
    text = packings.dump_packing(packing)
    back = packings.load_packing(text)
    assert np.allclose(back.lattice.basis, packing.lattice.basis, atol=0)
    assert back.radius == packing.radius
    assert np.allclose(back.translate_vectors, packing.translate_vectors)
    # comment-only, blank and trailing-comment lines change nothing
    noisy = "# a packing\n\n" + "\n \t\n".join(r + " # c" for r in text.splitlines())
    again = packings.load_packing(noisy + "\n#")
    assert np.array_equal(again.lattice.basis, back.lattice.basis)
    assert (again.translates, again.radius) == (back.translates, back.radius)


def test_packing_dump_prints_what_the_per_coordinate_formatter_prints():
    basis = np.array([[1.0, -0.0, 5e-324], [1e-300, 1.0, 0.0], [0.1, 0.2, 3.0]])
    translates = ((0.0, 0.0, 0.0), (-0.0, 0.5, 1e-310), (1 / 3, 2 / 3, 0.25))
    packing = packings.PeriodicPacking(packings.Lattice(basis), translates, radius=0.01)
    lines = ["dim 3"] + [" ".join(f"{c:.17g}" for c in row) for row in basis]
    lines += ["translates 3"] + [" ".join(f"{c:.17g}" for c in t) for t in translates]
    lines += ["radius 0.01"]
    assert packings.dump_packing(packing) == "\n".join(lines) + "\n"


def test_load_packing_default_radius_touches():
    text = "dim 2\n1 0\n0 1\n"
    packing = packings.load_packing(text)
    assert packing.radius == pytest.approx(0.5, abs=1e-12)


def test_load_packing_bad_header():
    with pytest.raises(InputFormatError):
        packings.load_packing("1 0\n0 1\n")
    # a malformed number, a ragged row, an extra row or a bad keyword line
    # names its line, and of several bad lines the first is reported
    for text, k in [("dim 2\n# c\n1 0\n\n0 x\n", 5),
                    ("dim 2\n1 0\n0 1 0 # c\nradius x\n", 3),
                    ("dim 2\n1 0\n0 1\n0.5 0.5\ntranslates 1\n", 4),
                    ("dim 2\n1 0\nradius -1\n0 x\n", 3),
                    ("dim 2\n1 0\n0 x\nradius -1\n", 3),
                    ("dim 2\n1 0\n0 1\n0.5 x\n", 4)]:
        with pytest.raises(InputFormatError, match=f"^line {k}: "):
            packings.load_packing(text)


@pytest.mark.parametrize("text, k", [
    ("dim 2\n1 0\nnan 1\n", 3),                       # a basis row
    ("dim 2\n1 0\n0 1\ntranslates 1\ninf 0.5\n", 5),  # a translate row
    ("dim 2\n1 0\n-inf 1\n0 x\n", 3),                # above a malformed row
])
def test_load_packing_names_the_line_of_a_non_finite_coordinate(text, k):
    with pytest.raises(InputFormatError, match=f"^line {k}: coordinate is not finite"):
        packings.load_packing(text)


@pytest.mark.parametrize("text", [
    "dim 2.5\n1 0\n0 1\n",
    "dim 0\n",
    "dim 2\n1 0\n0 1\ntranslates\n",
    "dim 2\n1 0\n0 1\ntranslates two\n",
    "dim 2\n1 0\n0 1\nradius\n",
    "dim 2\n1 0\n0 1\nradius x\n",
    "dim 2\n1 0\n0 1\nradius nan\n",
    "dim 2\n1 0\n0 1\nradius -1\n",
])
def test_load_packing_bad_header_line_has_line_number(text):
    with pytest.raises(InputFormatError, match=r"^line \d+: "):
        packings.load_packing(text)


def z2_packing(**kwargs):
    return packings.PeriodicPacking(packings.integer_lattice(2), **kwargs)


# the boundary checks that no other test reaches: (call, exception, message fragment)
@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: packings.Lattice(np.ones(3)), ValueError,
                 "basis must be a square matrix of row vectors", id="lattice-shape"),
    pytest.param(lambda: z2_packing(translates=([0.0, 0.0, 0.0],)), ValueError,
                 "translate dimension mismatch", id="translate-shape"),
    pytest.param(lambda: z2_packing(translates=([math.nan, 0.0],)), ValueError,
                 "translates must have finite coordinates", id="translate-nan"),
    pytest.param(lambda: z2_packing(radius=0.0), ValueError, "radius must be positive",
                 id="radius"),
    pytest.param(lambda: packings.kissing_configuration(z2_packing(radius=None), 5),
                 ValueError, "center index out of range", id="kissing-center"),
    pytest.param(lambda: packings.sphere_area(0), ValueError, "n must be >= 1",
                 id="sphere-area-n"),
    pytest.param(lambda: packings.cap_area(3, 4.0), ValueError, "phi must be in [0, pi]",
                 id="cap-area-phi"),
    pytest.param(lambda: packings.max_code_density(3, 1.0, 0.0), ValueError,
                 "cardinality estimate must be positive", id="max-density-card"),
    pytest.param(lambda: packings.density_bounds(3, 0.0, lambda n, phi: 1.0), ValueError,
                 "phi must be in (0, pi]", id="density-bounds-phi"),
    pytest.param(lambda: packings.annulus_condition([0.0], 1.0), ValueError,
                 "need at least two latitudes", id="annulus-count"),
    pytest.param(lambda: packings.annulus_condition([0.0, math.pi / 2], 1.0), ValueError,
                 "latitudes must run from -pi/2 to pi/2", id="annulus-ends"),
    pytest.param(lambda: packings.annulus_condition(
                     [-math.pi / 2, 0.5, 0.2, math.pi / 2], 1.0),
                 ValueError, "latitudes must be strictly increasing", id="annulus-order"),
    pytest.param(lambda: packings.checkerboard_lattice(1), ValueError, "n must be >= 2",
                 id="checkerboard-n"),
])
def test_boundary_checks(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)
