import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcodes import bounds


# -- small-angle bound H --------------------------------------------------------

def test_h_at_right_angle_is_zero():
    assert bounds.kl_bound(math.pi / 2) == 0.0


def test_h_at_pi_over_six_closed_form():
    # s = 1/2, a = 3/2, b = 1/2: H = 1.5 log2 1.5 + 0.5
    expected = 1.5 * math.log2(1.5) + 0.5
    assert bounds.kl_bound(math.pi / 6) == pytest.approx(expected, abs=1e-12)


def high_precision_h(phi):
    s = mpmath.sin(mpmath.mpf(phi))
    a = (1 + s) / (2 * s)
    b = (1 - s) / (2 * s)
    return float(a * mpmath.log(a, 2) - b * mpmath.log(b, 2))


@mpmath.workdps(400)
def test_h_matches_high_precision_evaluation():
    """At small phi both a log2 a and b log2 b are about log2(1/phi)/(2 phi),
    so their difference needs that many more digits."""
    for phi in (0.2, math.pi / 6, 0.7, 1.2, 1.5):
        assert bounds.kl_bound(phi) == pytest.approx(high_precision_h(phi), abs=1e-12)
    for phi in (1e-4, 1e-8, 1e-12, 1e-20, 1e-300, 1e-320):
        assert bounds.kl_bound(phi) == pytest.approx(high_precision_h(phi), rel=1e-12, abs=0)


@given(st.floats(0.01, math.pi / 2 - 0.01))
def test_h_positive_and_decreasing(phi):
    h = bounds.kl_bound(phi)
    assert h > 0
    assert bounds.kl_bound(phi + 0.01) < h


def test_h_domain():
    with pytest.raises(ValueError):
        bounds.kl_bound(0.0)
    with pytest.raises(ValueError):
        bounds.kl_bound(math.pi / 2 + 0.1)


# -- large-angle bounds ---------------------------------------------------------

def test_rankin_tight_on_circle():
    # cos phi = -1 (phi = pi): bound (c-1)/c = 2 = floor(2 pi / pi)
    card, _ = bounds.rankin_curve(2, math.pi)
    assert card == pytest.approx(2.0, abs=1e-12)
    assert bounds.circle_max_points(math.pi) == 2
    # cos phi = -1/2 (phi = 2 pi / 3): bound 3 = floor(2 pi / (2 pi / 3))
    phi = 2 * math.pi / 3
    card, _ = bounds.rankin_curve(2, phi)
    assert card == pytest.approx(3.0, abs=1e-12)
    assert bounds.circle_max_points(phi) == 3


@pytest.mark.parametrize("phi", [0.0, -1.0, math.nan, -math.inf])
def test_circle_max_points_names_a_phi_outside_the_domain(phi):
    with pytest.raises(ValueError, match=f"^phi must be positive, got {phi}$"):
        bounds.circle_max_points(phi)


def test_rankin_plateau_value():
    # for -1/n <= cos phi < 0 the bound is n + 1
    n = 5
    phi = math.acos(-1 / (2 * n))
    card, _ = bounds.rankin_curve(n, phi)
    assert card == n + 1


@given(st.integers(1, 12), st.floats(math.pi / 2 + 1e-6, math.pi))
def test_rankin_rate_consistency(n, phi):
    card, rate = bounds.rankin_curve(n, phi)
    c = math.cos(phi)
    assert rate == pytest.approx(
        math.log2(min(n + 1, (c - 1) / c)) / n, abs=1e-12
    )


@pytest.mark.parametrize("n", range(1, 9))
def test_simplex_achieves_bound(n):
    code = bounds.simplex_code(n)
    assert code.dimension == n
    assert code.card == n + 1
    g = code.points @ code.points.T
    off = g[~np.eye(n + 1, dtype=bool)]
    assert np.allclose(off, -1 / n, atol=1e-12)
    card, _ = bounds.rankin_curve(n, code.min_angle)
    assert card == pytest.approx(n + 1, abs=1e-6)


# -- figure curve families ------------------------------------------------------

def test_fig1_matches_direct_formula():
    curves = bounds.figure_curves("fig1", n_values=range(1, 11), samples=512)
    assert len(curves) == 10
    for n, curve in zip(range(1, 11), curves):
        assert curve.phi.size == 512
        for phi, r in zip(curve.phi, curve.rate):
            c = math.cos(phi)
            expected = math.log2(min(n + 1, (c - 1) / c)) / n
            assert r == pytest.approx(expected, abs=1e-12)


def test_fig2_is_h_curve():
    (curve,) = bounds.figure_curves("fig2", samples=512)
    for phi, r in zip(curve.phi, curve.rate):
        assert r == pytest.approx(bounds.kl_bound(phi), abs=1e-12)


def test_fig3_scaled_curves():
    curves = bounds.figure_curves("fig3", n=2, m_values=[1, 2, 3, 4, 5],
                                  samples=512)
    base = bounds.figure_curves("fig1", n_values=[2], samples=512)[0]
    for m, curve in zip([1, 2, 3, 4, 5], curves):
        assert np.allclose(curve.rate, 2 / (2 + m) * base.rate, atol=1e-12)


def test_curves_monotone_phi():
    for which, kwargs in (("fig1", {"n_values": [3]}), ("fig2", {}),
                          ("fig3", {"m_values": [2]})):
        for curve in bounds.figure_curves(which, **kwargs):
            assert np.all(np.diff(curve.phi) > 0)


# -- cutoff window and controlling regions --------------------------------------

def test_cutoff_region_values():
    cut = bounds.CutoffRegion(0.4)
    assert cut.rate_cap == pytest.approx(bounds.kl_bound(0.4))
    assert cut.a_c == math.floor(cut.rate_cap)
    assert cut.contains(0.3, 0.5)
    assert not cut.contains(math.cos(0.3), 0.5)   # angle below the cutoff
    assert not cut.contains(0.3, cut.rate_cap + 1)


def test_cutoff_window_edges_have_slack_1e12():
    # the atlas admits anchors at cos phi = -1e-12, just past pi/2
    cut = bounds.CutoffRegion(0.4)
    assert cut.contains(-1e-12, 0.5) and cut.contains(0.5, -1e-12)
    assert not cut.contains(-2e-12, 0.5)
    assert not cut.contains(0.5, -2e-12)


def test_region_boundary_slack_is_1e12():
    cut = bounds.CutoffRegion(0.4)  # a_c = 1
    regs = bounds.ControllingRegions((0.25, 0.5), cut)
    # line1(-1) and line2(cos phi_c) = a_c are exact, and so is y minus them
    for y in (1e-12, -1e-12):
        assert regs.membership((-1.0, y)) == "boundary"
    assert regs.membership((-1.0, 2e-12)) == "U"
    assert regs.membership((-1.0, -2e-12)) == "L"
    for t in (2.0 ** -40, -(2.0 ** -40)):  # 9.1e-13
        assert regs.membership((cut.cos_phi_c, 1.0 + t)) == "boundary"
    assert regs.membership((cut.cos_phi_c, 1.0 + 2.0 ** -39)) == "U"  # 1.8e-12
    assert regs.membership((cut.cos_phi_c, 1.0 - 2.0 ** -39)) == "R"


def test_cutoff_rate_cap_is_computed_once(monkeypatch):
    calls = []
    real = bounds.kl_bound
    monkeypatch.setattr(bounds, "kl_bound", lambda phi: calls.append(phi) or real(phi))
    cut = bounds.CutoffRegion(0.4)
    for k in range(100):
        cut.contains(0.3, k / 100)
    assert calls == [0.4]
    assert cut.rate_cap == real(0.4)
    assert cut == bounds.CutoffRegion(0.4)


def test_regions_partition_window():
    cut = bounds.CutoffRegion(0.5)
    regs = bounds.ControllingRegions((0.4, 0.6), cut)
    rng = np.random.default_rng(0)
    seen = set()
    for _ in range(2000):
        q = (float(rng.uniform(0, cut.cos_phi_c)),
             float(rng.uniform(0, cut.rate_cap)))
        label = regs.membership(q)
        assert label in {"U", "D", "L", "R", "boundary"}
        seen.add(label)
    assert {"U", "D", "L", "R"} <= seen


def test_region_boundary_lines_through_anchor():
    cut = bounds.CutoffRegion(0.5)
    anchor = (0.3, 0.7)
    regs = bounds.ControllingRegions(anchor, cut)
    assert regs.line1(anchor[0]) == pytest.approx(anchor[1], abs=1e-12)
    assert regs.line2(anchor[0]) == pytest.approx(anchor[1], abs=1e-12)
    assert regs.line1(-1.0) == pytest.approx(0.0, abs=1e-12)
    assert regs.line2(cut.cos_phi_c) == pytest.approx(cut.a_c, abs=1e-12)


@pytest.mark.parametrize("anchor_x", [0.3, None])
def test_region_lines_on_an_array_match_scalar_calls(anchor_x):
    cut = bounds.CutoffRegion(0.5)
    # None: the anchor sits on the cutoff edge, where line2 is vertical
    regs = bounds.ControllingRegions(
        (cut.cos_phi_c if anchor_x is None else anchor_x, 0.7), cut)
    xs = np.linspace(0.0, cut.cos_phi_c, 33)
    for line in (regs.line1, regs.line2):
        assert np.array_equal(line(xs), [line(float(x)) for x in xs])


def test_lower_boundary_clipped():
    cut = bounds.CutoffRegion(0.5)
    regs = bounds.ControllingRegions((0.4, 0.6), cut)
    for x in np.linspace(0, cut.cos_phi_c, 64):
        v = regs.lower_boundary(float(x))
        assert 0.0 <= v <= cut.rate_cap


def test_quadrangle_symmetry():
    # q in R-region(p) iff p in L-region(q), for random anchor pairs
    cut = bounds.CutoffRegion(0.5)
    rng = np.random.default_rng(42)
    checked = 0
    while checked < 100:
        p = (float(rng.uniform(0.01, cut.cos_phi_c - 0.01)),
             float(rng.uniform(0.01, cut.rate_cap - 0.01)))
        q = (float(rng.uniform(0.01, cut.cos_phi_c - 0.01)),
             float(rng.uniform(0.01, cut.rate_cap - 0.01)))
        rp = bounds.ControllingRegions(p, cut)
        rq = bounds.ControllingRegions(q, cut)
        lp, lq = rp.membership(q), rq.membership(p)
        if lp == "boundary" or lq == "boundary":
            continue
        assert (lp == "R") == (lq == "L")
        assert (lp == "L") == (lq == "R")
        checked += 1


def test_quadrangle_membership():
    cut = bounds.CutoffRegion(0.5)
    p1 = (0.2, 0.3)
    p2 = (0.6, 0.9)
    member = bounds.controlling_quadrangle(p1, p2, cut)
    r1 = bounds.ControllingRegions(p1, cut)
    r2 = bounds.ControllingRegions(p2, cut)
    rng = np.random.default_rng(9)
    for _ in range(500):
        q = (float(rng.uniform(0, cut.cos_phi_c)),
             float(rng.uniform(0, cut.rate_cap)))
        expected = (r1.membership(q) in ("R", "boundary")
                    and r2.membership(q) in ("L", "boundary"))
        assert member(q) == expected


def test_anchor_outside_window_rejected():
    cut = bounds.CutoffRegion(0.5)
    with pytest.raises(ValueError):
        bounds.ControllingRegions((0.95, 0.1), cut)


# the boundary checks that no other test reaches: (call, exception, message fragment)
@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: bounds.rankin_curve(0, 2.0), ValueError, "n must be >= 1",
                 id="rankin-n"),
    pytest.param(lambda: bounds.rankin_curve(2, 1.0), ValueError,
                 "phi must be in (pi/2, pi], got 1.0", id="rankin-phi"),
    pytest.param(lambda: bounds.simplex_code(0), ValueError, "n must be >= 1",
                 id="simplex-n"),
    pytest.param(lambda: bounds.BoundCurve("c", np.array([1.0, 0.5]), np.zeros(2),
                                           (0.0, 2.0)),
                 ValueError, "samples must be strictly increasing in phi",
                 id="curve-order"),
    pytest.param(lambda: bounds.BoundCurve("c", np.array([0.5, 1.0]),
                                           np.array([0.1, math.nan]), (0.0, 2.0)),
                 ValueError, "rate values must be finite and >= 0 in range",
                 id="curve-nan-rate"),
    pytest.param(lambda: bounds.figure_curves("fig1", n_values=[]), ValueError,
                 "empty n range", id="fig1-empty"),
    pytest.param(lambda: bounds.figure_curves("fig3", m_values=[]), ValueError,
                 "empty m range", id="fig3-empty"),
    pytest.param(lambda: bounds.figure_curves("fig4"), ValueError,
                 "unknown figure 'fig4'", id="unknown-figure"),
    pytest.param(lambda: bounds.CutoffRegion(0.0), ValueError,
                 "phi_c must be in (0, pi/2), got 0.0", id="cutoff-phi-c"),
])
def test_boundary_checks(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)
