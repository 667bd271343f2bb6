import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sphcodes import atlas, binary, geometry, spherical
from sphcodes.errors import (
    CollapseError,
    DegenerateCode,
    DimensionMismatch,
    InputFormatError,
    LambdaOutOfRange,
)
from sphcodes.geometry import Hyperplane, LineThroughOrigin


def random_sph_code(rng, dim_max=6, card_max=32):
    dim = int(rng.integers(2, dim_max + 1))
    card = int(rng.integers(2, card_max + 1))
    pts = rng.standard_normal((card, dim))
    return spherical.SphericalCode(pts, normalize=True, check_distinct=False)


def square_code():
    return spherical.SphericalCode(
        [[1, 0], [0, 1], [-1, 0], [0, -1]], check_distinct=False
    )


# -- construction ------------------------------------------------------------

def test_rejects_non_unit_points():
    with pytest.raises(ValueError):
        spherical.SphericalCode([[1.0, 1.0]])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("normalize", [False, True])
def test_rejects_non_finite_points(bad, normalize):
    with pytest.raises(ValueError, match="finite"):
        spherical.SphericalCode([[1.0, 0.0], [bad, 0.0]], normalize=normalize)


def test_rejects_duplicate_points():
    with pytest.raises(ValueError):
        spherical.SphericalCode([[1.0, 0.0], [1.0, 0.0]])


def test_rejects_one_ulp_duplicate_points():
    x = np.array([0.6, 0.8])
    y = np.array([np.nextafter(0.6, 1.0), 0.8])
    assert not np.array_equal(x, y) and x @ y >= 1.0
    with pytest.raises(ValueError, match="distinct"):
        spherical.SphericalCode([[0.0, 1.0], x, [1.0, 0.0], y])


def test_rejects_a_point_twice_whose_squared_norm_rounds_below_one():
    rng = np.random.default_rng(0)
    rng.standard_normal(5)
    x = rng.standard_normal(5)
    x /= np.linalg.norm(x)
    # arccos of the Gram entry x @ x would read 1.49e-8
    assert x @ x < 1.0 and geometry.min_angle([x, x]) == (0.0, (0, 1))
    with pytest.raises(ValueError, match="distinct"):
        spherical.SphericalCode([x, x])


def test_rejects_a_point_twice_after_a_closer_looking_distinct_pair():
    # the Gram entries of both pairs round to 1.0, where the tie would go to
    # the distinct pair (0, 1), which comes first; their chords tell them apart
    pts = [[1.0, 0.0, 0.0], [math.cos(1e-8), math.sin(1e-8), 0.0],
           [0.0, 1.0, 0.0], [0.0, 1.0, 0.0]]
    assert geometry.min_angle(pts) == (0.0, (2, 3))
    with pytest.raises(ValueError, match="distinct"):
        spherical.SphericalCode(pts)
    text = "dim 3\n" + "".join(f"{x!r} {y!r} {z!r}\n" for x, y, z in pts)
    with pytest.raises(ValueError, match="distinct"):
        spherical.load_spherical_code(text)


def test_rejects_a_point_twice_whose_norm_is_off_by_less_than_eps_norm():
    x = np.array([0.6, 0.0, 0.8])
    y = x * (1.0 - 1e-10)
    # arccos of the Gram entry 1 - 1e-10 would read 1.4e-5
    assert geometry.min_angle([x, y])[0] == pytest.approx(1e-10, rel=1e-5)
    with pytest.raises(ValueError, match="distinct"):
        spherical.SphericalCode([[1.0, 0.0, 0.0], x, y])


def test_accepts_distinct_points_closer_than_arccos_resolves():
    pts = [[1.0, 0.0, 0.0], [math.cos(1e-8), math.sin(1e-8), 0.0]]
    assert np.linalg.norm(np.subtract(*pts)) == pytest.approx(1e-8, rel=1e-12)
    code = spherical.SphericalCode(pts)
    assert abs(code.min_angle - 1e-8) <= 1e-22
    assert code.min_angle_pair == (0, 1)


def test_min_angle_of_rows_off_unit_norm_next_to_the_near_angle():
    # the Gram entry of these rows is above cos(1e-4), but their chord is
    # not below NEAR_CHORD: no pair is near, and arccos gives the angle
    t = 1.15e-4
    pts = np.array([[1.0, 0.0, 0.0], [math.cos(t), math.sin(t), 0.0]]) * (1 + 0.9e-9)
    assert pts[0] @ pts[1] >= math.cos(geometry.NEAR_ANGLE)
    assert geometry.near_pairs(pts)[0].size == 0
    angle, pair = geometry.min_angle(pts)
    assert angle == pytest.approx(math.acos(pts[0] @ pts[1]), rel=1e-6) and pair == (0, 1)


def test_rate_and_code_point():
    code = square_code()
    assert code.rate == pytest.approx(1.0)
    pt = code.code_point("demo")
    assert pt.cos_phi == pytest.approx(0.0, abs=1e-12)
    assert pt.phi == pytest.approx(math.pi / 2, abs=1e-9)
    assert pt.provenance == "demo"


# -- spoil1: hyperplane section embedding ------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.floats(0.0, 0.99))
def test_spoil1_transforms_every_pair(seed, offset):
    rng = np.random.default_rng(seed)
    code = random_sph_code(rng)
    normal = rng.standard_normal(code.dimension + 1)
    normal /= np.linalg.norm(normal)
    hp = Hyperplane(normal, offset)
    out = spherical.spoil1(code, hp)
    assert out.dimension == code.dimension + 1
    assert out.card == code.card
    rho2 = hp.section_radius ** 2
    g_old = code.points @ code.points.T
    g_new = out.points @ out.points.T
    assert np.allclose(g_new, rho2 * g_old + (1 - rho2), atol=1e-9)


def test_spoil1_lambda_one_is_equatorial():
    code = square_code()
    out = spherical.spoil1_lambda(code, 1.0)
    assert out.cos_min_angle == pytest.approx(code.cos_min_angle, abs=1e-12)


def test_spoil1_lambda_zero_collapses():
    with pytest.raises(CollapseError):
        spherical.spoil1_lambda(square_code(), 0.0)


def test_spoil1_preserves_binary_min_distance():
    # embedded binary code: section embedding sends cos to 1 - 2d/(n+1)
    code = binary.BinaryCode(["00000", "00111", "11001", "11110"])
    sph = binary.embed_binary(code)
    n, d = code.length, code.min_distance
    lam = n / (n + 1)
    out = spherical.spoil1_lambda(sph, lam)
    assert out.cos_min_angle == pytest.approx(1 - 2 * d / (n + 1), abs=1e-9)


# -- spoil2: projection off a line -------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_spoil2_two_sided_formula(seed):
    rng = np.random.default_rng(seed)
    code = random_sph_code(rng, dim_max=6, card_max=12)
    v = rng.standard_normal(code.dimension)
    line = LineThroughOrigin(v / np.linalg.norm(v))
    comps = code.points @ line.direction
    if np.min(1 - comps ** 2) < 1e-6:
        return  # a point too close to the axis: covered by its own test
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            out, xi = spherical.spoil2(code, line)
    except DegenerateCode:
        return  # all projections coincided; nothing to compare
    if out.card != code.card:
        return
    assert xi == pytest.approx(float(np.sqrt(np.min(1 - comps ** 2))), abs=1e-12)
    for a in range(code.card):
        for b in range(a + 1, code.card):
            x = math.sqrt(1 - comps[a] ** 2)
            y = math.sqrt(1 - comps[b] ** 2)
            cos_theta = float(code.points[a] @ code.points[b])
            # minus when the axis components agree in sign, plus otherwise
            expected = (cos_theta - comps[a] * comps[b]) / (x * y)
            got = float(out.points[a] @ out.points[b])
            assert got == pytest.approx(expected, abs=1e-9)


def test_spoil2_opposite_axis_components_construction():
    # two points with equal-magnitude opposite axis components: the
    # projected cosine is (1 + u) cos theta + u with u = (1 - xi^2)/xi^2
    a = math.sqrt(0.5)
    x = np.array([a, 0.0, a])
    y = np.array([0.0, a, -a])
    code = spherical.SphericalCode([x, y])
    line = LineThroughOrigin([0.0, 0.0, 1.0])
    out, xi = spherical.spoil2(code, line)
    u = spherical.xi_to_u(xi)
    assert xi == pytest.approx(math.sqrt(0.5), abs=1e-12)
    assert u == pytest.approx(1.0, abs=1e-12)
    cos_theta = float(x @ y)
    got = float(out.points[0] @ out.points[1])
    assert got == pytest.approx((1 + u) * cos_theta + u, abs=1e-9)
    assert got == pytest.approx(0.0, abs=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_spoil2_bisector_construction(seed):
    # line through the bisector of a two-point code: the projections are
    # exactly antipodal, (1 + u) cos - u = -1
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(2, 7))
    x = rng.standard_normal(dim)
    x /= np.linalg.norm(x)
    y = rng.standard_normal(dim)
    y -= (y @ x) * x
    y = math.cos(1.0) * x + math.sin(1.0) * (y / np.linalg.norm(y))
    code = spherical.SphericalCode([x, y], check_distinct=False)
    mid = x + y
    line = LineThroughOrigin(mid / np.linalg.norm(mid))
    out, xi = spherical.spoil2(code, line)
    u = spherical.xi_to_u(xi)
    cos_theta = float(x @ y)
    assert (1 + u) * cos_theta - u == pytest.approx(-1.0, abs=1e-9)
    assert float(out.points[0] @ out.points[1]) == pytest.approx(-1.0, abs=1e-9)


def test_spoil2_merges_coinciding_rays():
    # two points differing only along the axis project to the same ray
    a = math.sqrt(0.5)
    code = spherical.SphericalCode(
        [[a, 0.0, a], [a, 0.0, -a], [0.0, 1.0, 0.0]]
    )
    line = LineThroughOrigin([0.0, 0.0, 1.0])
    with pytest.warns(UserWarning):
        out, _ = spherical.spoil2(code, line)
    assert out.card == 2


# -- spoil3: hemisphere restriction -------------------------------------------

@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_spoil3_monotone_min_angle(seed):
    rng = np.random.default_rng(seed)
    code = random_sph_code(rng)
    v = rng.standard_normal(code.dimension)
    line = LineThroughOrigin(v / np.linalg.norm(v))
    sign = 1 if rng.integers(2) else -1
    try:
        out = spherical.spoil3(code, line, sign)
    except DegenerateCode:
        return
    dots = code.points @ line.direction
    plus, minus = int(np.sum(dots >= 0.0)), int(np.sum(dots < 0.0))
    assert plus + minus == code.card
    assert out.card == (plus if sign > 0 else minus)
    if out.card >= 2:
        assert out.min_angle >= code.min_angle - 1e-12


def test_spoil3_boundary_convention():
    code = square_code()
    line = LineThroughOrigin([1.0, 0.0])
    out = spherical.spoil3(code, line, +1)
    # the two boundary points (0, +-1) count as non-negative
    assert out.card == 3


# -- find_balanced_line --------------------------------------------------------

def test_balanced_line_exhaustive_on_circle():
    # all codes with card <= 8 on S^1 from a fixed angular menu
    angles = [2 * math.pi * k / 16 for k in range(16)]
    rng = np.random.default_rng(11)
    for card in range(2, 9):
        for _ in range(20):
            chosen = rng.choice(16, size=card, replace=False)
            pts = [[math.cos(angles[i]), math.sin(angles[i])] for i in chosen]
            code = spherical.SphericalCode(pts, check_distinct=False)
            line, sign, count = spherical.find_balanced_line(code, seed=0)
            assert code.card / 2 <= count < code.card
            out = spherical.spoil3(code, line, sign)
            assert out.card == count
            if out.card >= 2:
                assert out.min_angle >= code.min_angle - 1e-12


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
# two close points, which no point, midpoint or drawn direction splits
@example(871)
@example(2757)
def test_balanced_line_random_codes(seed):
    rng = np.random.default_rng(seed)
    code = random_sph_code(rng, dim_max=6, card_max=16)
    line, sign, count = spherical.find_balanced_line(code, seed=seed)
    assert code.card / 2 <= count < code.card
    out = spherical.spoil3(code, line, sign)
    assert out.card == count


def test_two_point_code_splits_one_one():
    code = spherical.SphericalCode([[1.0, 0.0], [0.0, 1.0]])
    _line, _sign, count = spherical.find_balanced_line(code, seed=0)
    assert count == 1


def test_rows_next_to_a_point_are_scored_on_their_own():
    # directions whose nearest point lies at a dot of about 1e-12, inside
    # the band that _side_scores scores again as pts @ d
    rng = np.random.default_rng(3)
    pts = spherical.SphericalCode(rng.standard_normal((8, 4)), normalize=True).points
    near = []
    for k, offset in enumerate([0.7e-12, 1e-12, -1.3e-12, 1.9e-12]):
        p = pts[k % pts.shape[0]]
        v = rng.standard_normal(pts.shape[1])
        v -= (v @ p) * p
        near.append(v / np.linalg.norm(v) + offset * p)
    dirs = np.vstack([spherical._unit_rows(rng.standard_normal((5, pts.shape[1]))), near])
    scored = [spherical._side_scores(dirs[k:k + 4], pts) for k in range(0, dirs.shape[0], 4)]
    sides = np.vstack([s for s, _c, _low in scored])
    closest = np.concatenate([c for _s, c, _low in scored])
    assert [low for _s, c, low in scored] == [c.min() for _s, c, _low in scored]
    band = (closest > geometry.EPS_UNIT / 2) & (closest <= 2 * geometry.EPS_UNIT)
    assert band[5:].all() and not band[:5].any()
    for d, side, dist in zip(dirs[5:], sides[5:], closest[5:]):
        dot = pts @ d
        assert np.array_equal(side, dot >= 0.0)
        assert dist == np.min(np.abs(dot))


# -- composite pipelines -------------------------------------------------------

def test_composite_up_square():
    # two orthogonal points on S^1 -> [3, 1, 1/3]
    code = spherical.SphericalCode([[1.0, 0.0], [0.0, 1.0]])
    out = spherical.composite_spoil_up(code)
    assert out.dimension == 3
    assert out.card == 2
    assert out.cos_min_angle == pytest.approx(1 / 3, abs=1e-9)


def test_composite_up_iterated_rate():
    code = binary.embed_binary(
        binary.BinaryCode(["0000", "0011", "0101", "0110"])
    )
    n, m = code.dimension, 3
    out = code
    for _ in range(m):
        out = spherical.composite_spoil_up(out)
    assert out.rate == pytest.approx(n / (n + m) * code.rate, abs=1e-12)


def test_subcode_template_tetrahedron():
    code = binary.embed_binary(binary.BinaryCode(["000", "011", "101", "110"]))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = spherical._restrict_project_embed(code, 1, code.cos_min_angle, 0)
    assert out.dimension == code.dimension - 1
    assert code.card / 2 <= out.card < code.card
    assert out.cos_min_angle == pytest.approx(code.cos_min_angle, abs=1e-6)


def test_dim_down_template():
    rng = np.random.default_rng(5)
    code = random_sph_code(rng, dim_max=5, card_max=8)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        line = spherical._generic_projection_line(code, np.random.default_rng(1))[0]
        out, _xi = spherical.spoil2(code, LineThroughOrigin(line))
    assert out.dimension == code.dimension - 1


def test_dim_up_template_lambda():
    code = square_code()
    out = spherical.spoil1_lambda(code, 0.7)
    assert out.dimension == 3
    assert out.cos_min_angle == pytest.approx(
        0.7 * code.cos_min_angle + 0.3, abs=1e-9
    )


def test_composite_down_matches_template():
    words = [format(v, "04b") for v in range(16)]
    code = binary.embed_binary(binary.BinaryCode(words))
    for _ in range(6):
        code = spherical.composite_spoil_up(code)
    phi_c = 0.5
    n = code.dimension
    target = n / (n - 1) * code.cos_min_angle - math.cos(phi_c) / (n - 1)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        out = spherical.composite_spoil_down(code, phi_c, seed=0)
    assert out.dimension == n - 1
    assert math.log2(out.card) == pytest.approx(math.log2(code.card) - 1)
    assert out.cos_min_angle == pytest.approx(target, abs=1e-6)


@pytest.mark.parametrize("m, n", [(3, 3), (5, 9), (16, 16)])
def test_centroid_line_projects_orthonormal_points_to_a_simplex(m, n):
    q, _ = np.linalg.qr(np.random.default_rng(m).standard_normal((n, m)))
    code = spherical.SphericalCode(q.T)
    dirs = spherical._generic_projection_line(code, np.random.default_rng(0))
    centroid = q.T.mean(axis=0)
    assert np.array_equal(dirs[-1], centroid / np.linalg.norm(centroid))
    out, _ = spherical.spoil2(code, LineThroughOrigin(dirs[-1]))
    gram = out.points @ out.points.T
    off = gram[~np.eye(m, dtype=bool)]
    assert np.max(np.abs(off + 1.0 / (m - 1))) < 1e-12


@pytest.mark.parametrize("order", [5, 6])
def test_composite_down_reaches_its_target_on_hadamard_32_and_64(order):
    code = binary.embed_binary(atlas.sylvester_hadamard_code(order))
    n = code.dimension
    out = spherical.composite_spoil_down(code, 0.3)
    assert (out.dimension, out.card) == (n - 1, n // 4)
    assert out.cos_min_angle == pytest.approx(-math.cos(0.3) / (n - 1), abs=1e-12)


def test_composite_down_reports_violated_precondition():
    # cube-corner code with phi = pi/3, well below the requested cutoff
    code = binary.embed_binary(binary.BinaryCode(["0000", "0001", "0011"]))
    assert code.min_angle < 1.5
    with pytest.raises(ValueError, match="phi > phi_c"):
        spherical.composite_spoil_down(code, 1.5)


def test_lambda_out_of_range_is_reported():
    with pytest.raises(LambdaOutOfRange):
        spherical._solve_lambda(-0.5, 0.2)


def test_no_projection_line_below_the_ceiling_is_reported():
    # a projected cosine is never below -1
    code = random_sph_code(np.random.default_rng(2))
    with pytest.raises(LambdaOutOfRange, match="no projection line keeps cos phi below"):
        spherical._spoil2_below(code, -1.5, np.random.default_rng(0))


def test_restriction_backtracks_to_the_next_split(monkeypatch):
    code = spherical.SphericalCode(np.random.default_rng(0).standard_normal((12, 6)),
                                   normalize=True, check_distinct=False)
    target = code.cos_min_angle
    splits = sorted(spherical._balanced_splits(code, 0), key=lambda t: t[2])
    restrict_project_embed, downstream = spherical._restrict_project_embed, []

    def first_downstream_fails(current, steps_left, target, seed):
        if steps_left == 0:
            downstream.append(current.points)
            if len(downstream) == 1:
                raise LambdaOutOfRange("the first split fails downstream")
        return restrict_project_embed(current, steps_left, target, seed)

    monkeypatch.setattr(spherical, "_restrict_project_embed", first_downstream_fails)
    out = restrict_project_embed(code, 1, target, 0)
    first, second = (spherical.spoil3(code, line, sign) for line, sign, _c in splits[:2])
    assert len(downstream) == 2
    assert np.array_equal(downstream[0], first.points)
    assert np.array_equal(downstream[1], second.points)
    assert np.array_equal(out.points, restrict_project_embed(second, 0, target, 0).points)


# -- file format ---------------------------------------------------------------

def test_file_roundtrip_17_digits():
    rng = np.random.default_rng(2)
    code = random_sph_code(rng, dim_max=5, card_max=6)
    text = spherical.dump_spherical_code(code)
    back = spherical.load_spherical_code(text)
    assert np.array_equal(back.points, code.points)
    # comment-only, blank and trailing-comment lines change nothing
    head, *rows = text.splitlines()
    noisy = "# a code\n\n" + head + "  # header\n" + "\n \t\n".join(r + " # pt" for r in rows)
    assert np.array_equal(spherical.load_spherical_code(noisy + "\n#").points, code.points)


def fstring_dump(points):
    """The per-coordinate f-string formatter that dump_spherical_code replaced."""
    lines = [f"dim {points.shape[1]}"]
    lines += [" ".join(f"{c:.17g}" for c in p) for p in points]
    return "\n".join(lines) + "\n"


def test_dump_prints_what_the_per_coordinate_formatter_prints():
    tiny = 5e-324  # the smallest subnormal
    special = np.array([[1.0, -0.0, tiny, 0.0],
                        [-0.0, 1.0, -tiny, 1e-300],
                        [math.sqrt(0.5), -math.sqrt(0.5), -1e-300, 2.2250738585072014e-308],
                        [-1.0, 0.0, -0.0, 1e-310]])
    rng = np.random.default_rng(5)
    x = rng.standard_normal((300, 7)) * 10.0 ** rng.integers(-20, 20, (300, 7))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    for points in (special, x):
        code = spherical.SphericalCode(points, check_distinct=False)
        assert spherical.dump_spherical_code(code) == fstring_dump(code.points)


def test_load_normalize_flag():
    text = "dim 2\n3 4\n-1 0\n"
    with pytest.raises(InputFormatError):
        spherical.load_spherical_code(text)
    code = spherical.load_spherical_code(text, normalize=True)
    assert np.allclose(code.points[0], [0.6, 0.8], atol=1e-12)


def test_load_rejects_bad_header():
    with pytest.raises(InputFormatError):
        spherical.load_spherical_code("2\n1 0\n")
    # a bad norm, a malformed number and a ragged row name their line, and
    # of several bad lines the first is reported
    for text, k in [("dim 2\n# c\n1 0\n\n3 4\n", 5),
                    ("dim 2\n1 0\n0 x # c\n3 4\n", 3),
                    ("dim 2\n1 0\n3 4\n0 x\n", 3),
                    ("# c\ndim 2 # n\n1 0\n0\n", 4),
                    ("dim 2\n1 0\n\n3 4\n0 1 0\n", 4),
                    ("dim 2\n1 0\n0 1 0\n3 4\n", 3)]:
        with pytest.raises(InputFormatError, match=f"^line {k}: "):
            spherical.load_spherical_code(text)


@pytest.mark.parametrize("text, k, message", [
    ("dim 2\n3 4\nnan 0\n", 2, "point norm 5.0"),   # a bad norm before a non-finite row
    ("dim 2\nnan 0\n3 4\n", 2, "coordinate is not finite"),
    ("dim 2\n1 0\ninf 0\n0 x\n", 3, "coordinate is not finite"),
    ("dim 2\n1 0\n0 x\ninf 0\n", 3, "malformed number"),
    ("dim 2\n1 0\n0 nan 1\n", 3, "expected 2 numbers, got 3"),
])
def test_load_reports_the_first_bad_line_among_non_finite_rows(text, k, message):
    with pytest.raises(InputFormatError, match=f"^line {k}: {message}"):
        spherical.load_spherical_code(text)


@pytest.mark.parametrize("rows, kept, error", [
    ([(1, ["1", "0"]), (2, ["0", "1"])], 2, None),
    ([(1, ["1", "0"]), (2, ["nan", "1"]), (3, ["0", "x"])], 1, "line 2: coordinate is not finite"),
    ([(1, ["1", "0"]), (2, ["0", "x"]), (3, ["inf", "1"])], 1, "line 2: malformed number"),
    ([(1, ["1e400", "0"]), (2, ["0"])], 0, "line 1: coordinate is not finite"),
    ([(1, ["1", "0"]), (2, ["0"]), (3, ["-inf", "1"])], 1, "line 2: expected 2 numbers, got 1"),
    ([], 0, None),
])
def test_number_rows_stop_before_the_first_non_finite_or_malformed_row(rows, kept, error):
    pts, exc = spherical.number_rows(rows, 2)
    assert pts.shape == (kept, 2) and np.isfinite(pts).all()
    assert (exc and str(exc)) == error


@pytest.mark.parametrize("bad, normalize", [
    ("nan", False), ("nan", True), ("inf", True), ("-inf", False)])
def test_load_names_the_line_of_a_non_finite_coordinate(bad, normalize):
    with pytest.raises(InputFormatError, match="^line 3: coordinate is not finite"):
        spherical.load_spherical_code(f"dim 2\n1 0\n{bad} 0\n0 1\n", normalize=normalize)


def test_load_then_min_angle_scans_the_gram_once(monkeypatch):
    x = np.random.default_rng(3).standard_normal((500, 6))
    code = spherical.SphericalCode(x, normalize=True, check_distinct=False)
    text, want = spherical.dump_spherical_code(code), code.min_angle
    passes = []
    strips = geometry._gram_strips
    monkeypatch.setattr(geometry, "_gram_strips", lambda pts: passes.append(1) or strips(pts))
    assert spherical.load_spherical_code(text).min_angle == want
    assert len(passes) == 1


def test_spoil2_then_min_angle_scans_the_gram_once(monkeypatch):
    x = np.random.default_rng(4).standard_normal((500, 6))
    code = spherical.SphericalCode(x, normalize=True, check_distinct=False)
    line = LineThroughOrigin(np.ones(6) / math.sqrt(6))
    passes = []
    strips = geometry._gram_strips
    monkeypatch.setattr(geometry, "_gram_strips", lambda pts: passes.append(1) or strips(pts))
    out, _ = spherical.spoil2(code, line)
    assert out.card == code.card and out.min_angle > geometry.EPS_ANGLE
    assert len(passes) == 1


def test_load_and_spoil2_admit_the_unit_norm_tolerance():
    text = "dim 3\n1 0 0\n0 1 0\n0 0 1.0000000005\n"
    code = spherical.load_spherical_code(text)
    assert abs(np.linalg.norm(code.points[2]) - 1.0) > 1e-12
    out, xi = spherical.spoil2(code, LineThroughOrigin(np.ones(3) / math.sqrt(3)))
    assert out.card == 3
    assert xi == pytest.approx(math.sqrt(2 / 3), abs=1e-9)


# the boundary checks that no other test reaches: (call, exception, message
# fragment).  Left out: the pipelines' LambdaOutOfRange and find_balanced_line's
# SearchBudgetExhausted, internal failure paths that no small input reaches.
@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: spherical.SphericalCode(np.zeros((0, 3))), ValueError,
                 "points must be a (card, n) array with card, n >= 1", id="code-shape"),
    pytest.param(lambda: spherical.SphericalCode([[0.0, 0.0], [1.0, 0.0]], normalize=True),
                 ValueError, "cannot normalize a zero point", id="code-zero-point"),
    pytest.param(lambda: spherical.spoil1(square_code(), Hyperplane(np.array([1.0, 0.0]))),
                 DimensionMismatch, "hyperplane lives in R^2, need R^3", id="spoil1-dims"),
    pytest.param(lambda: spherical.spoil1_lambda(square_code(), 1.5), ValueError,
                 "lambda must be in [0, 1], got 1.5", id="spoil1-lambda"),
    # sqrt(1 - lambda) rounds to 1, as for lambda = 0: every point maps to the pole
    *(pytest.param(lambda lam=lam: spherical.spoil1_lambda(square_code(), lam), CollapseError,
                   f"lambda = {lam!r} maps every point to a single pole",
                   id=f"spoil1-lambda-{lam!r}") for lam in (0.0, 1e-17, 5e-17, 1e-320)),
    pytest.param(lambda: spherical.spoil2(square_code(), LineThroughOrigin([0.0, 0.0, 1.0])),
                 DimensionMismatch, "line dimension does not match the code",
                 id="spoil2-dims"),
    pytest.param(lambda: spherical.spoil2(spherical.SphericalCode([[1.0], [-1.0]]),
                                          LineThroughOrigin([1.0])),
                 DegenerateCode, "cannot project a code on S^0", id="spoil2-S0"),
    pytest.param(lambda: spherical.spoil2(spherical.SphericalCode([[1.0, 0.0], [0.6, 0.8]]),
                                          LineThroughOrigin([0.0, 1.0])),
                 DegenerateCode, "all projections coincide", id="spoil2-one-ray",
                 marks=pytest.mark.filterwarnings("ignore:spoil2 merged")),
    pytest.param(lambda: spherical.xi_to_u(0.0), ValueError, "xi must be positive",
                 id="xi-zero"),
    pytest.param(lambda: spherical.spoil3(square_code(), LineThroughOrigin([0.0, 0.0, 1.0]), 1),
                 DimensionMismatch, "line dimension does not match the code",
                 id="spoil3-dims"),
    pytest.param(lambda: spherical.spoil3(square_code(), LineThroughOrigin([1.0, 0.0]), 0),
                 ValueError, "sign must be +1 or -1", id="spoil3-sign"),
    pytest.param(lambda: spherical.find_balanced_line(spherical.SphericalCode([[1.0, 0.0]])),
                 DegenerateCode, "balanced split needs at least two points",
                 id="balanced-line-one-point"),
    # a negative seed is an error whether or not the search would draw
    pytest.param(lambda: spherical.find_balanced_line(square_code(), seed=-1), ValueError,
                 "seed must be >= 0, got -1", id="balanced-line-seed"),
    pytest.param(lambda: spherical.composite_spoil_down(square_code(), 0.3, seed=-1),
                 ValueError, "seed must be >= 0, got -1", id="down-seed"),
    pytest.param(lambda: spherical.composite_spoil_down(
                     spherical.SphericalCode([[1.0, 0.0], [-1.0, 0.0]]), 0.1),
                 ValueError, "violated precondition k >= a_c: 1 < 3", id="down-k"),
    pytest.param(lambda: spherical.composite_spoil_down(square_code(), math.nan), ValueError,
                 "phi_c must be in (0, pi/2], got nan", id="down-phi-c"),
    pytest.param(lambda: spherical.composite_spoil_down(
                     spherical.SphericalCode([[1.0], [-1.0]]), 1.5),
                 ValueError, "it needs n >= 3, got n = 1", id="down-n-1"),
    pytest.param(lambda: spherical.composite_spoil_down(square_code(), 0.3), ValueError,
                 "it needs n >= 3, got n = 2", id="down-n-2"),
    pytest.param(lambda: spherical.load_spherical_code("# c\n"), InputFormatError,
                 "no points found", id="load-no-points"),
])
def test_boundary_checks(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)
