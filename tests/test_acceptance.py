"""End-to-end acceptance checks.

Each test prints one `[PASS]`/`[FAIL]` line (run pytest with -s or rely on
captured output on failure) and enforces the stated numeric tolerance and
runtime limit.
"""

import itertools
import math
import time
import warnings

import numpy as np
import pytest

from sphcodes import atlas as atlas_mod
from sphcodes import binary, bounds, packings, spherical
from sphcodes.geometry import Hyperplane, LineThroughOrigin


def report(name, ok):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}")
    assert ok, name


def random_binary_code(rng, n_max=10, card_max=64):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, min(card_max, 2 ** n) + 1))
    values = rng.choice(2 ** n, size=card, replace=False)
    return binary.BinaryCode(format(v, f"0{n}b") for v in values)


def random_sph_code(rng, dim_max=6, card_max=32):
    dim = int(rng.integers(2, dim_max + 1))
    card = int(rng.integers(2, card_max + 1))
    return spherical.SphericalCode(
        rng.standard_normal((card, dim)), normalize=True, check_distinct=False
    )


def test_criterion_1_binary_bridge():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    ok = True
    for _ in range(200):
        code = random_binary_code(rng)
        sph = binary.embed_binary(code)
        expected = 1 - 2 * code.min_distance / code.length
        if abs(sph.cos_min_angle - expected) > 1e-12:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(f"criterion 1: binary bridge identity on 200 codes "
           f"({elapsed:.2f}s)", ok and elapsed < 5)


def test_criterion_2_section_embedding_exactness():
    start = time.monotonic()
    rng = np.random.default_rng(1)
    ok = True
    for _ in range(100):
        code = random_sph_code(rng)
        normal = rng.standard_normal(code.dimension + 1)
        normal /= np.linalg.norm(normal)
        hp = Hyperplane(normal, float(rng.uniform(0, 0.99)))
        out = spherical.spoil1(code, hp)
        rho2 = hp.section_radius ** 2
        g_old = code.points @ code.points.T
        g_new = out.points @ out.points.T
        if not np.allclose(g_new, rho2 * g_old + (1 - rho2), atol=1e-9):
            ok = False
            break
    for _ in range(20):
        code = random_binary_code(rng, n_max=8, card_max=32)
        sph = binary.embed_binary(code)
        n, d = code.length, code.min_distance
        out = spherical.spoil1_lambda(sph, n / (n + 1))
        if abs(out.cos_min_angle - (1 - 2 * d / (n + 1))) > 1e-9:
            ok = False
            break
    elapsed = time.monotonic() - start
    report(f"criterion 2: section embedding exact on all pairs "
           f"({elapsed:.2f}s)", ok and elapsed < 10)


def test_criterion_3_projection_formulas():
    rng = np.random.default_rng(2)
    ok = True
    # opposite-axis-components construction: cos -> (1+u) cos + u
    for _ in range(50):
        dim = int(rng.integers(3, 7))
        h = float(rng.uniform(0.3, 0.8))
        r = math.sqrt(1 - h * h)
        e = np.zeros(dim)
        e[-1] = 1.0
        u1 = rng.standard_normal(dim - 1)
        u1 /= np.linalg.norm(u1)
        u2 = rng.standard_normal(dim - 1)
        u2 -= (u2 @ u1) * u1
        u2 /= np.linalg.norm(u2)
        x = np.append(r * u1, h)
        y = np.append(r * u2, -h)
        code = spherical.SphericalCode([x, y], check_distinct=False)
        out, xi = spherical.spoil2(code, LineThroughOrigin(e))
        u = spherical.xi_to_u(xi)
        expected = (1 + u) * float(x @ y) + u
        if abs(float(out.points[0] @ out.points[1]) - expected) > 1e-9:
            ok = False
            break
    # bisector construction on two-point codes: exactly antipodal images
    for _ in range(50):
        dim = int(rng.integers(2, 7))
        x = rng.standard_normal(dim)
        x /= np.linalg.norm(x)
        y = rng.standard_normal(dim)
        y -= (y @ x) * x
        theta = float(rng.uniform(0.3, 2.5))
        y = math.cos(theta) * x + math.sin(theta) * (y / np.linalg.norm(y))
        code = spherical.SphericalCode([x, y], check_distinct=False)
        mid = x + y
        out, xi = spherical.spoil2(code, LineThroughOrigin(mid / np.linalg.norm(mid)))
        u = spherical.xi_to_u(xi)
        if abs((1 + u) * float(x @ y) - u + 1.0) > 1e-9:
            ok = False
            break
        if abs(float(out.points[0] @ out.points[1]) + 1.0) > 1e-9:
            ok = False
            break
    report("criterion 3: projection constructions (both signs, bisector -1)", ok)


def test_criterion_4_balanced_hemispheres():
    ok = True
    # exhaustive-style check on the circle for card <= 8
    angles = [2 * math.pi * k / 16 for k in range(16)]
    for card in range(2, 9):
        for combo in itertools.islice(itertools.combinations(range(16), card), 40):
            pts = [[math.cos(angles[i]), math.sin(angles[i])] for i in combo]
            code = spherical.SphericalCode(pts, check_distinct=False)
            _line, sign, count = spherical.find_balanced_line(code, seed=0)
            if not (code.card / 2 <= count < code.card):
                ok = False
    # random higher-dimensional codes
    rng = np.random.default_rng(3)
    for _ in range(100):
        code = random_sph_code(rng, dim_max=6, card_max=16)
        line, sign, count = spherical.find_balanced_line(code, seed=4)
        out = spherical.spoil3(code, line, sign)
        if not (code.card / 2 <= out.card < code.card):
            ok = False
        if out.card >= 2 and out.min_angle < code.min_angle - 1e-12:
            ok = False
    report("criterion 4: balanced hemisphere splits (circle + random)", ok)


def test_criterion_5_composite_pipelines():
    rng = np.random.default_rng(4)
    ok = True
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for trial in range(50):
            dim = int(rng.integers(5, 9))
            card = int(rng.integers(4, 2 * dim))
            code = spherical.SphericalCode(
                rng.standard_normal((card, dim)), normalize=True,
                check_distinct=False,
            )
            # (i) dimension up
            lam = float(rng.uniform(0.4, 1.0))
            up = spherical.spoil1_lambda(code, lam)
            if abs(up.cos_min_angle - (lam * code.cos_min_angle + 1 - lam)) > 1e-6:
                ok = False
            # (ii) dimension down: recompute against the per-pair formula
            line = spherical._generic_projection_line(code, np.random.default_rng(trial))[0]
            down, _xi = spherical.spoil2(code, LineThroughOrigin(line))
            if down.dimension != code.dimension - 1:
                ok = False
            # (iii) subcode with a = 1
            sub = spherical._restrict_project_embed(code, 1, code.cos_min_angle, trial)
            if sub.dimension != code.dimension - 1:
                ok = False
            if abs(sub.cos_min_angle - code.cos_min_angle) > 1e-6:
                ok = False
            if not (code.card / 2 <= sub.card < code.card):
                ok = False
        # composite templates at moderate dimension
        words = [format(v, "04b") for v in range(16)]
        seed_code = binary.embed_binary(binary.BinaryCode(words))
        for _ in range(6):
            seed_code = spherical.composite_spoil_up(seed_code)
        n = seed_code.dimension
        up = spherical.composite_spoil_up(seed_code)
        if abs(up.cos_min_angle
               - (n / (n + 1) * seed_code.cos_min_angle + 1 / (n + 1))) > 1e-6:
            ok = False
        phi_c = 0.5
        down = spherical.composite_spoil_down(seed_code, phi_c, seed=0)
        target = (n / (n - 1) * seed_code.cos_min_angle
                  - math.cos(phi_c) / (n - 1))
        if abs(down.cos_min_angle - target) > 1e-6:
            ok = False
        if down.dimension != n - 1 or down.card != seed_code.card // 2:
            ok = False
    report("criterion 5: numerical and composite spoiling pipelines", ok)


def test_criterion_6_bound_curves():
    ok = bounds.kl_bound(math.pi / 2) == 0.0
    import mpmath
    mpmath.mp.dps = 40
    s = mpmath.mpf(1) / 2
    a = (1 + s) / (2 * s)
    b = (1 - s) / (2 * s)
    expected = float(a * mpmath.log(a, 2) - b * mpmath.log(b, 2))
    ok = ok and abs(bounds.kl_bound(math.pi / 6) - expected) < 1e-9
    for n, curve in zip(range(1, 11),
                        bounds.figure_curves("fig1", n_values=range(1, 11),
                                             samples=512)):
        for phi, r in zip(curve.phi, curve.rate):
            c = math.cos(phi)
            direct = math.log2(min(n + 1, (c - 1) / c)) / n
            if abs(r - direct) > 1e-12:
                ok = False
    for m, curve in zip([1, 2, 3, 4, 5],
                        bounds.figure_curves("fig3", n=2,
                                             m_values=[1, 2, 3, 4, 5],
                                             samples=512)):
        for phi, r in zip(curve.phi, curve.rate):
            c = math.cos(phi)
            direct = (2 / (2 + m)) * math.log2(min(3, (c - 1) / c)) / 2
            if abs(r - direct) > 1e-12:
                ok = False
    report("criterion 6: closed-form bound curves at all grid points", ok)


def test_criterion_7_rankin_tightness_and_simplex():
    ok = True
    for cos_phi in (-1.0, -0.5):
        phi = math.acos(cos_phi)
        card, _ = bounds.rankin_curve(2, phi)
        if abs(card - bounds.circle_max_points(phi)) > 1e-12:
            ok = False
    for n in range(1, 9):
        code = bounds.simplex_code(n)
        if code.card != n + 1:
            ok = False
        g = code.points @ code.points.T
        off = g[~np.eye(n + 1, dtype=bool)]
        if np.max(np.abs(off + 1 / n)) > 1e-12:
            ok = False
    report("criterion 7: circle tightness and simplex pairwise dots", ok)


def test_criterion_8_theta_series():
    start = time.monotonic()
    ok = True

    def box_counts(basis, m_max, box):
        counts = {}
        n = basis.shape[0]
        for z in itertools.product(range(-box, box + 1), repeat=n):
            v = np.asarray(z, dtype=float) @ basis
            q = round(float(v @ v), 9)
            if q <= m_max + 1e-9:
                counts[q] = counts.get(q, 0) + 1
        return counts

    z2 = packings.integer_lattice(2)
    theta = packings.theta_lattice(z2, 5.0)
    oracle = box_counts(z2.basis, 5.0, 4)
    for m, expected in zip((0, 1, 2, 3, 4, 5), (1, 4, 4, 0, 4, 8)):
        if theta.count(m) != expected or oracle.get(float(m), 0) != expected:
            ok = False
    a2 = packings.hexagonal_lattice()
    if packings.theta_lattice(a2, 1.0).count(1) != 6:
        ok = False
    if box_counts(a2.basis, 1.0, 3).get(1.0, 0) != 6:
        ok = False
    d4 = packings.checkerboard_lattice(4)
    if packings.theta_lattice(d4, 2.0).count(2) != 24:
        ok = False
    if box_counts(d4.basis, 2.0, 2).get(2.0, 0) != 24:
        ok = False
    e8 = packings.e8_lattice()
    if packings.theta_lattice(e8, 2.0).count(2) != 240:
        ok = False
    # definition-based box oracle: integer vectors with even coordinate sum,
    # plus all-half-integer vectors with even sum, at squared norm 2
    oracle_240 = 0
    for z in itertools.product((-1, 0, 1), repeat=8):
        if sum(z) % 2 == 0 and sum(c * c for c in z) == 2:
            oracle_240 += 1
    for signs in itertools.product((-0.5, 0.5), repeat=8):
        if round(sum(signs)) % 2 == 0:
            oracle_240 += 1
    if oracle_240 != 240:
        ok = False
    elapsed = time.monotonic() - start
    report(f"criterion 8: theta coefficients vs box enumeration "
           f"({elapsed:.2f}s)", ok and elapsed < 30)


def test_criterion_9_densities():
    ok = True
    square = packings.touching_packing(packings.integer_lattice(2))
    if abs(packings.code_density(packings.kissing_configuration(square))
           - 1.0) > 1e-12:
        ok = False
    hexagonal = packings.touching_packing(packings.hexagonal_lattice())
    if abs(packings.code_density(packings.kissing_configuration(hexagonal))
           - 1.0) > 1e-12:
        ok = False
    _embed, proj = packings.density_bounds(2, math.pi / 3)
    if abs(proj - 1.5) > 1e-12 or proj < math.pi / math.sqrt(12):
        ok = False
    for K in (4, 6, 8, 12):
        phi = 2 * math.pi / K
        if abs(packings.max_code_density(2, phi, K) - 1.0) > 1e-6:
            ok = False
    report("criterion 9: cap densities and planar packing bound", ok)


def test_criterion_10_atlas():
    start = time.monotonic()
    cutoff = bounds.CutoffRegion(0.4)
    atlas = atlas_mod.atlas_build(None, cutoff, 10_000, seed=0)
    ok = np.all(np.diff(atlas.envelope) <= 1e-12)
    for phi, r in zip(atlas.phi_grid, atlas.envelope):
        if r > bounds.kl_bound(float(phi)) + 1e-9 or r < 0:
            ok = False
    ok = ok and abs(atlas.alpha(math.pi / 2)) < 1e-12
    again = atlas_mod.atlas_build(None, cutoff, 10_000, seed=0)
    ok = ok and atlas_mod.dump_atlas(atlas) == atlas_mod.dump_atlas(again)
    elapsed = time.monotonic() - start
    report(f"criterion 10: atlas envelope sanity and reproducibility "
           f"({elapsed:.2f}s)", bool(ok) and elapsed < 60)
