"""The array kernels of geometry, spherical, atlas and packings against loop references.

Each ``ref_*`` function is the one-point-at-a-time implementation that the
array version replaced, kept here verbatim in behaviour.  Where the
arithmetic is the same the results must be identical; where only the
order of summation changed, the tolerance is set from float64 rounding.
"""

import copy
import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from sphcodes import atlas as atlas_mod
from sphcodes import binary, bounds, geometry, packings, spherical
from sphcodes.errors import (
    BudgetExceeded,
    DegenerateCode,
    LambdaOutOfRange,
    PointOnAxis,
    SearchBudgetExhausted,
    SphCodesError,
)
from sphcodes.geometry import EPS_ANGLE, EPS_UNIT, LineThroughOrigin


# -- references ---------------------------------------------------------------

def ref_orthonormal_complement(normal):
    w = geometry.as_unit(normal)
    m = w.size
    pivot = int(np.argmax(np.abs(w)))
    basis = []
    for j in range(m):
        if j == pivot:
            continue
        v = np.zeros(m)
        v[j] = 1.0
        v = v - np.dot(v, w) * w
        for b in basis:
            v = v - np.dot(v, b) * b
        v = v / np.linalg.norm(v)
        basis.append(v)
    return np.column_stack(basis) if basis else np.zeros((m, 0))


def ref_min_angle(pts):
    g = np.clip(pts @ pts.T, -1.0, 1.0)
    np.fill_diagonal(g, -np.inf)
    i, j = np.unravel_index(int(np.argmax(g)), g.shape)
    return float(np.arccos(g[i, j])), (int(min(i, j)), int(max(i, j)))


def ref_merge_close_points(pts, eps=EPS_ANGLE):
    keep = []
    for i in range(pts.shape[0]):
        if not any(geometry.angle_between(pts[i], pts[j]) < eps for j in keep):
            keep.append(i)
    return keep


def ref_candidates(code, seed):
    n, card = code.dimension, code.card
    rng = np.random.default_rng(seed)
    for p in code.points:
        yield p
    for i in range(card):
        for j in range(i + 1, card):
            mid = code.points[i] + code.points[j]
            nrm = np.linalg.norm(mid)
            if nrm > EPS_UNIT:
                yield mid / nrm
    while True:
        v = rng.standard_normal(n)
        yield v / np.linalg.norm(v)


def ref_find_balanced_line(code, seed=0):
    if code.card < 2:
        raise DegenerateCode("balanced split needs at least two points")
    card = code.card
    budget = 10 * card * code.dimension
    fallback = None
    for trial, direction in enumerate(ref_candidates(code, seed)):
        if trial >= budget:
            break
        line = LineThroughOrigin(direction)
        dots = code.points @ line.direction
        plus = int(np.count_nonzero(dots >= 0.0))
        for sign, count in ((+1, plus), (-1, card - plus)):
            if card / 2 <= count < card:
                result = (line, sign, count)
                if np.min(np.abs(dots)) > EPS_UNIT:
                    return result
                if fallback is None:
                    fallback = result
    if fallback is not None:
        return fallback
    raise SearchBudgetExhausted(f"no balanced line found in {budget} trials")


def ref_balanced_candidates(code, seed=0, limit=16):
    card = code.card
    budget = 10 * card * code.dimension
    found, seen = [], set()
    for trial, direction in enumerate(ref_candidates(code, seed)):
        if trial >= budget or len(found) >= limit:
            break
        line = LineThroughOrigin(direction)
        dots = code.points @ line.direction
        if np.min(np.abs(dots)) <= EPS_UNIT:
            continue
        plus = int(np.count_nonzero(dots >= 0.0))
        for sign, count in ((+1, plus), (-1, card - plus)):
            if not (card / 2 <= count < card):
                continue
            mask = frozenset(np.flatnonzero(dots >= 0.0 if sign > 0 else dots < 0.0))
            if mask in seen:
                continue
            seen.add(mask)
            found.append((line, sign, count))
    if not found:
        found.append(ref_find_balanced_line(code, seed))
    found.sort(key=lambda t: t[2])
    return found


def ref_generic_projection_line(code, rng, trials=64):
    first = code.min_angle_pair
    rest = (p for p in itertools.combinations(range(code.card), 2) if p != first)
    pairs = itertools.islice(itertools.chain([first], rest), trials // 2)
    mids = [code.points[a] + code.points[b] for a, b in pairs]
    cands = [LineThroughOrigin(m / np.linalg.norm(m))
             for m in mids if np.linalg.norm(m) > EPS_UNIT]
    draws = rng.standard_normal((trials - len(cands), code.dimension))
    cands += [LineThroughOrigin(v / np.linalg.norm(v)) for v in draws]
    return [line for line in cands
            if np.min(1.0 - (code.points @ line.direction) ** 2) > EPS_UNIT]


def ref_spoil2_below(code, ceiling, rng):
    """spoil2 on every candidate line in turn, keeping the best admissible result."""
    best = None
    for line in ref_generic_projection_line(code, rng):
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                out, _ = spherical.spoil2(code, line)
        except (DegenerateCode, PointOnAxis):
            continue
        if out.card != code.card:
            continue
        c = out.cos_min_angle
        if c <= ceiling and (best is None or c < best.cos_min_angle):
            best = out
            if c < ceiling - 0.05:
                break
    if best is None:
        raise LambdaOutOfRange(f"no projection line keeps cos phi below {ceiling:.6g}")
    return best


def ref_envelope(atlas):
    regions = [bounds.ControllingRegions((p.cos_phi, p.rate), atlas.cutoff)
               for p in atlas.dominated_anchors]
    envelope = np.zeros(atlas.phi_grid.size)
    for j, phi in enumerate(atlas.phi_grid):
        x = math.cos(phi)
        best = 0.0
        for reg in regions:
            best = max(best, reg.lower_boundary(x))
        envelope[j] = min(best, bounds.kl_bound(phi))
    for j in range(envelope.size - 2, -1, -1):
        envelope[j] = max(envelope[j], envelope[j + 1])
        envelope[j] = min(envelope[j], bounds.kl_bound(float(atlas.phi_grid[j])))
    return envelope


def ref_enumerate_quadratic(gram, center, bound, budget=10_000_000, nodes=None):
    """The recursive point-by-point Fincke-Pohst walk; counts nodes into ``nodes``."""
    n = gram.shape[0]
    R = np.linalg.cholesky(gram).T
    c = np.asarray(center, dtype=float)
    z = np.zeros(n, dtype=int)
    visited = 0

    def rec(i, rem, acc):
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
    if nodes is not None:
        nodes.append(visited)


# -- codes --------------------------------------------------------------------

def random_code(seed, card, dim):
    pts = np.random.default_rng(seed).standard_normal((card, dim))
    return spherical.SphericalCode(pts, normalize=True, check_distinct=False)


def cube_code(n, parity=False):
    words = ("".join(b) for b in itertools.product("01", repeat=n))
    if parity:
        words = (w for w in words if w.count("1") % 2 == 0)
    return binary.embed_binary(binary.BinaryCode(words))


def hadamard_code(order):
    return binary.embed_binary(atlas_mod.sylvester_hadamard_code(order))


SPLIT_CODES = {
    **{f"random-{s}": (lambda s=s: random_code(s, 3 + 7 * s, 2 + s)) for s in range(6)},
    "parity-4": lambda: cube_code(4, parity=True),
    "parity-8": lambda: cube_code(8, parity=True),
    "hadamard-8": lambda: hadamard_code(3),
    "hadamard-16": lambda: hadamard_code(4),
    "cube-3": lambda: cube_code(3),
    "cube-8": lambda: cube_code(8),
    # every parity point twice: 256 points in dimension 8, so the budget
    # ends inside the pair midpoints; each candidate leaves a point on its
    # hyperplane, and the first admissible one is returned
    "parity-8-twice": lambda: spherical.SphericalCode(
        np.repeat(cube_code(8, parity=True).points, 2, axis=0), check_distinct=False),
}


# -- tests --------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 2])
def test_orthonormal_complement_matches_gram_schmidt(seed):
    rng = np.random.default_rng(seed)
    for dim in range(2, 25):
        w = rng.standard_normal(dim)
        w /= np.linalg.norm(w)
        new = geometry.orthonormal_complement(w)
        assert new.shape == (dim, dim - 1)
        assert np.max(np.abs(new - ref_orthonormal_complement(w))) <= 1e-15


def test_orthonormal_complement_of_an_axis_is_the_other_axes():
    for dim in (1, 2, 5):
        w = np.zeros(dim)
        w[-1] = 1.0
        assert np.array_equal(geometry.orthonormal_complement(w),
                              ref_orthonormal_complement(w))


@pytest.mark.parametrize("seed", range(5))
def test_spoil2_gram_and_xi(seed):
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(3, 17))
    code = random_code(seed, int(rng.integers(2, 200)), dim)
    v = rng.standard_normal(dim)
    line = LineThroughOrigin(v / np.linalg.norm(v))
    out, xi = spherical.spoil2(code, line)
    c = code.points @ line.direction
    r = np.sqrt(1.0 - c * c)
    g = code.points @ code.points.T
    assert out.card == code.card
    assert np.max(np.abs(out.points @ out.points.T - (g - np.outer(c, c)) / np.outer(r, r))) \
        <= 1e-12
    assert xi == pytest.approx(float(np.min(r)), abs=1e-15)
    for x, img in zip(code.points[:5], out.points):
        one, comp = geometry.project_and_normalize(x, line)
        assert np.max(np.abs(one - img)) <= 1e-15
        assert comp == pytest.approx(float(x @ line.direction), abs=1e-15)


@pytest.mark.parametrize("card, dim", [(2, 3), (17, 2), (300, 5), (1500, 8), (3000, 4)])
def test_min_angle_matches_full_gram(card, dim):
    for seed in range(3):
        code = random_code(seed, card, dim)
        angle, pair = geometry.min_angle(code.points)
        ref_angle, ref_pair = ref_min_angle(code.points)
        assert pair == ref_pair
        assert abs(angle - ref_angle) <= 1e-12


@pytest.mark.parametrize("name, make", [
    ("hadamard-16", lambda: hadamard_code(4)),
    ("parity-8", lambda: cube_code(8, parity=True)),
    ("parity-12", lambda: cube_code(12, parity=True)),  # 11 strips
    ("cube-10", lambda: cube_code(10)),  # 3 strips; its Gram entries round unevenly
])
def test_min_angle_breaks_ties_like_full_gram(name, make):
    # many pairs share the minimum angle: the first in row-major order
    # is returned
    pts = make().points
    angle, pair = geometry.min_angle(pts)
    assert (angle, pair) == ref_min_angle(pts)


def test_min_angle_memory_is_a_few_strips():
    pts = random_code(0, 8000, 24).points  # a full Gram matrix is 512 MB
    tracemalloc.start()
    try:
        geometry.min_angle(pts)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * geometry.BLOCK_ENTRIES * 8


@pytest.mark.parametrize("seed", range(4))
def test_merge_close_points_keeps_first_of_each_group(seed):
    rng = np.random.default_rng(seed)
    base = rng.standard_normal((40, 6))
    base /= np.linalg.norm(base, axis=1, keepdims=True)
    # exact copies, and copies moved by about an ulp, whose dot with the
    # original rounds to 1.0 or to just below it; some originals get
    # several copies; all are shuffled among the originals
    copies = base[rng.integers(0, 40, 25)]
    nudged = base[rng.integers(0, 40, 25)] * (1.0 + 1e-16 * rng.standard_normal((25, 1)))
    pts = np.vstack([base, copies, nudged])[rng.permutation(90)]
    keep = ref_merge_close_points(pts)
    assert 40 < len(keep) < 65  # some nudged copies merge and some do not
    assert np.array_equal(spherical.merge_close_points(pts), pts[keep])


def test_merge_close_points_keeps_distinct_codes_whole():
    pts = random_code(9, 300, 4).points
    assert np.array_equal(spherical.merge_close_points(pts), pts)


def same_split(a, b):
    (la, sa, ca), (lb, sb, cb) = a, b
    return (sa, ca) == (sb, cb) and np.array_equal(la.direction, lb.direction)


@pytest.mark.parametrize("name", sorted(SPLIT_CODES))
def test_find_balanced_line_matches_scalar_search(name):
    code = SPLIT_CODES[name]()
    for seed in (0, 5):
        assert same_split(spherical.find_balanced_line(code, seed),
                          ref_find_balanced_line(code, seed))


@pytest.mark.parametrize("name", sorted(set(SPLIT_CODES) - {"parity-8-twice"}))
def test_balanced_candidates_match_scalar_search(name):
    code = SPLIT_CODES[name]()
    new = sorted(spherical._balanced_splits(code, seed=3), key=lambda t: t[2])
    ref = ref_balanced_candidates(code, seed=3)
    assert len(new) == len(ref)
    assert all(same_split(a, b) for a, b in zip(new, ref))


def test_fallback_split_leaves_points_on_the_plane():
    code = SPLIT_CODES["parity-8-twice"]()
    line, sign, count = spherical.find_balanced_line(code)
    assert np.min(np.abs(code.points @ line.direction)) <= EPS_UNIT
    assert spherical.spoil3(code, line, sign).card == count


def checked_spoil2_below(calls):
    """_spoil2_below that also runs the loop reference on a copy of its rng
    and asserts the same points (or exception class) and rng state."""
    new_below = spherical._spoil2_below

    def below(code, ceiling, rng):
        ref_rng = copy.deepcopy(rng)
        outcomes = []
        for func, gen in ((ref_spoil2_below, ref_rng), (new_below, rng)):
            try:
                outcomes.append(func(code, ceiling, gen))
            except SphCodesError as exc:
                outcomes.append(exc)
        want, got = outcomes
        calls.append(type(got).__name__)
        assert rng.bit_generator.state == ref_rng.bit_generator.state
        if isinstance(want, Exception):
            assert type(got) is type(want)
            raise got
        assert np.array_equal(got.points, want.points)
        return got

    return below


@pytest.mark.parametrize("order", [3, 4])
def test_spoil2_below_matches_loop_on_hadamard_down(monkeypatch, order):
    calls = []
    monkeypatch.setattr(spherical, "_spoil2_below", checked_spoil2_below(calls))
    code = hadamard_code(order)
    for phi_c in (0.2, 0.3, 0.4):
        for seed in range(6):
            try:
                spherical.composite_spoil_down(code, phi_c, seed=seed)
            except SphCodesError:
                pass
    assert "SphericalCode" in calls


def test_spoil2_below_matches_loop_on_random_subcodes(monkeypatch):
    calls = []
    monkeypatch.setattr(spherical, "_spoil2_below", checked_spoil2_below(calls))
    for seed in range(30):
        try:
            spherical.numerical_spoil(random_code(seed, 12, 6), "subcode", seed=seed)
        except SphCodesError:
            pass
    assert calls.count("SphericalCode") >= 30


def test_down_pipeline_applies_spoil2_once_per_projection(monkeypatch):
    calls = []
    spoil2 = spherical.spoil2
    monkeypatch.setattr(spherical, "spoil2",
                        lambda *a: calls.append(1) or spoil2(*a))
    out = spherical.composite_spoil_down(hadamard_code(4), 0.3)
    assert (out.dimension, out.card) == (15, 4)
    assert 2 <= len(calls) <= 10


def test_spoil2_below_peaks_like_one_min_angle_call():
    # the reference is the clipped full Gram matrix that min_angle built
    # before it scanned row strips
    code = random_code(2, 800, 8)
    tracemalloc.start()
    try:
        np.clip(code.points @ code.points.T, -1.0, 1.0)
        gram_peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.reset_peak()
        spherical._spoil2_below(code, 1.0, np.random.default_rng(0))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * gram_peak


@pytest.mark.parametrize("seed", [0, 3])
def test_envelope_matches_grid_anchor_loop(seed):
    atlas = atlas_mod.atlas_build(None, bounds.CutoffRegion(0.4), 300, seed=seed)
    assert atlas.dominated_anchors
    assert np.max(np.abs(atlas.envelope - ref_envelope(atlas))) <= 1e-12


ENUMERATIONS = {
    "E8": lambda: (packings.e8_lattice().gram, np.zeros(8), 8 + 1e-9),
    "D4": lambda: (packings.checkerboard_lattice(4).gram, np.zeros(4), 8 + 1e-9),
    "A2": lambda: (packings.hexagonal_lattice().gram, np.zeros(2), 7 + 1e-9),
    "Z3-centered": lambda: (np.eye(3), np.random.default_rng(4).standard_normal(3), 9.0),
}


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumeration_matches_recursive_walk(name):
    gram, center, bound = ENUMERATIONS[name]()
    ref_z, ref_q = zip(*ref_enumerate_quadratic(gram, center, bound))
    z, q = zip(*packings.enumerate_quadratic(gram, center, bound))
    assert all(row.base.size <= packings.BLOCK_COORDS for row in z)  # block size
    assert np.array_equal(np.array(z), np.array(ref_z))
    assert np.array_equal(np.array(q), np.array(ref_q))


@pytest.mark.parametrize("name", sorted(ENUMERATIONS))
def test_enumeration_budget_is_the_node_count(name):
    gram, center, bound = ENUMERATIONS[name]()
    nodes = []
    list(ref_enumerate_quadratic(gram, center, bound, nodes=nodes))
    list(packings.enumerate_quadratic(gram, center, bound, budget=nodes[0]))
    with pytest.raises(BudgetExceeded):
        list(packings.enumerate_quadratic(gram, center, bound, budget=nodes[0] - 1))
