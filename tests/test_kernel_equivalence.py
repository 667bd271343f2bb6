"""The array kernels of geometry, spherical, binary, atlas and packings against loop references.

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
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        if not any(np.linalg.norm(pts[i] - pts[j]) < eps for j in keep):
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
    i, j = code.min_angle_pair
    diff = code.points[i] - code.points[j]
    line = LineThroughOrigin(diff / np.linalg.norm(diff)) if diff.any() else None
    dots = code.points @ line.direction if line else np.zeros(card)
    if dots[i] >= 0.0 > dots[j]:
        plus = int(np.count_nonzero(dots >= 0.0))
        for sign, count in ((+1, plus), (-1, card - plus)):
            if card / 2 <= count < card:
                return line, sign, count
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
    centroid = code.points.mean(axis=0)
    if np.linalg.norm(centroid) > EPS_UNIT:
        cands.append(LineThroughOrigin(centroid / np.linalg.norm(centroid)))
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


def ref_lower_boundary(anchor, cutoff, x):
    """The roof min(line1, line2) of one anchor's region D, clipped to the window."""
    ax, ay = anchor
    cx, cy = cutoff.cos_phi_c, float(cutoff.a_c)
    line1 = ay * (x + 1.0) / (ax + 1.0)
    if abs(cx - ax) < 1e-15:  # anchor on the cutoff edge: line2 is vertical
        line2 = math.inf if x < ax else -math.inf
    else:
        line2 = ay + (cy - ay) * (x - ax) / (cx - ax)
    return min(max(min(line1, line2), 0.0), cutoff.rate_cap)


def ref_envelope(atlas):
    anchors = [(p.cos_phi, p.rate) for p in atlas.dominated_anchors]
    envelope = np.zeros(atlas.phi_grid.size)
    for j, phi in enumerate(atlas.phi_grid):
        x = math.cos(phi)
        best = 0.0
        for anchor in anchors:
            best = max(best, ref_lower_boundary(anchor, atlas.cutoff, x))
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


def ref_theta(lattice, translates, m_max):
    """Theta entries counted one yielded point at a time."""
    counts = Counter()
    for tj, tk in itertools.product(translates, repeat=2):
        shift = lattice.coords_of(tj - tk)
        counts.update(round(q, packings.NORM_BUCKET_DECIMALS) for _z, q in
                      packings.enumerate_quadratic(lattice.gram, shift, m_max + 1e-9))
    ell = len(translates)
    return tuple((key, cnt if ell == 1 else Fraction(cnt, ell))
                 for key, cnt in sorted(counts.items()))


def ref_centers_at_distance(packing, x0, u):
    """Shell centers from the rows that the point view yields."""
    lat = packing.lattice
    found = []
    for t in packing.translate_vectors:
        shift = lat.coords_of(t - x0)
        rows = [z for z, _q in packings.enumerate_quadratic(
            lat.gram, shift, (u + packings.SHELL_TOL) ** 2)]
        centers = (np.reshape(rows, (-1, lat.dimension)) + shift) @ lat.basis
        d = np.sqrt(np.vecdot(centers, centers))
        found.append(centers[np.abs(d - u) <= packings.SHELL_TOL])
    return np.concatenate(found)


def ref_binary_code(words):
    """Sorted distinct words, each checked one character at a time."""
    ws = sorted(set(words))
    if not ws:
        raise ValueError("a code must contain at least one word")
    n = len(ws[0])
    for w in ws:
        if len(w) != n or any(c not in "01" for c in w):
            raise ValueError(f"word {w!r} is not a bit string of length {n}")
    return tuple(ws)


def ref_spoil1_binary(words, i, f):
    new_words = []
    for w in words:
        bit = f(w)
        if bit not in ("0", "1"):
            raise ValueError(f"f is undefined (or non-binary) on word {w!r}")
        new_words.append(w[:i] + bit + w[i:])
    return ref_binary_code(new_words)


def ref_spoil2_binary(words, i):
    return ref_binary_code(w[:i] + w[i + 1:] for w in words)


def ref_spoil3_binary(words, i, a=None):
    if a is None:
        ones = sum(1 for w in words if w[i] == "1")
        a = "1" if ones > len(words) - ones else "0"
    return ref_binary_code([w for w in words if w[i] == a])


def ref_embed_binary(words):
    scale = 1.0 / math.sqrt(len(words[0]))
    return np.array([[scale if c == "0" else -scale for c in w] for w in words])


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


def cap_code(seed, card, dim, spread=0.2):
    """Random points in a cap around e_1, all at acute angles."""
    pts = np.random.default_rng(seed).standard_normal((card, dim)) * spread
    pts[:, 0] += 1.0
    code = spherical.SphericalCode(pts, normalize=True, check_distinct=False)
    assert np.min(code.points @ code.points.T) > 0.1
    return code


def margin_code(dot):
    """Points at acute angles whose smallest Gram entry is ``dot``, exactly."""
    return spherical.SphericalCode(np.array([
        [1.0, 0.0, 0.0], [dot, np.sqrt(1.0 - dot * dot), 0.0],
        [0.6, 0.6, 0.52915026221291817], [0.8, 0.36, 0.48]]), check_distinct=False)


# Three of the 34 codes on which the default atlas (budget 10,000, seed 0)
# raised SearchBudgetExhausted before the closest-pair line, each with the
# search seed the atlas drew for it: every Gram entry is at least 0.99996,
# so no point or midpoint splits them, and random directions seldom do.
ATLAS_NEAR_PARALLEL = {
    "atlas-3x17": (780399014, [
        [-0.32553156501723746, 0.1492679156886788, -0.1036224788459034,
         0.19857343129473026, 0.15048458657650152, -0.0005902364200077667,
         -0.2049513603906537, 0.07872466347704798, 0.5343638047780923,
         -0.010420315893773681, 0.2372212272438492, 0.23821798846920336,
         -0.014799539964472322, -0.12543206243259, 0.17832467770243107,
         0.46780404238892376, 0.29234081291428216],
        [-0.3298687270874904, 0.14906137645171436, -0.10357282574964007,
         0.19912931042451026, 0.15107852218575393, -0.0006449169141854526,
         -0.20374972127118188, 0.07732383876485822, 0.5334458672239917,
         -0.010301448283042245, 0.2343554099870485, 0.23770788154963227,
         -0.01576726772950449, -0.12424869551870332, 0.17984448193152897,
         0.4674805096575068, 0.2925797973140063],
        [-0.3323722580460324, 0.1465756946407721, -0.10215963343985754,
         0.1965232881453549, 0.15015605104307894, 0.00011239549909131104,
         -0.20364431224519494, 0.07891322305442626, 0.5324985165138088,
         -0.01021781843821548, 0.23636120187589998, 0.23795112826511408,
         -0.013862235519553916, -0.12579528954695132, 0.17760368984072628,
         0.4684985219216444, 0.2924792575930147],
    ]),
    "atlas-4x20": (422469199, [
        [-0.0032648627823166254, 0.00905177119218178, 0.01256541523806288,
         -0.05436359926426819, -0.01956257434609646, -0.13395719670507736,
         0.05972805760380756, 0.06125497667466952, 0.10253800650688875,
         0.2400568150714973, 0.1458822564591043, -0.01843340058864882,
         0.18808696200507316, 0.40014260067164553, 0.011409237928510254,
         -0.018090163458713324, 0.08883212971950849, 0.41009853886894543,
         0.19482935113660624, 0.6865900316711006],
        [0.00018542071053463717, 0.00887394882768815, 0.012950327545706061,
         -0.053780316315347874, -0.01877745262630993, -0.13428579140576813,
         0.058832248115073676, 0.06066947828464638, 0.10281586970298126,
         0.2408302980615902, 0.14588351889358145, -0.018390775641691046,
         0.18956938483668231, 0.39926701617843635, 0.009816801255687287,
         -0.018334194773562285, 0.08884545246383033, 0.41006140188251744,
         0.19436066744699404, 0.6866878414111196],
        [-0.003948503628809231, 0.0117940691100739, 0.012678900695013161,
         -0.053769966447137114, -0.019128947141678676, -0.13449562807089388,
         0.058686452967891906, 0.06069929743113139, 0.10270891491859807,
         0.24062134685532494, 0.14584596158524843, -0.018489703914761544,
         0.18962266844874393, 0.39948441129993306, 0.009793218619951834,
         -0.01838919066459597, 0.08879938273548933, 0.4099747972279789,
         0.19425897522663826, 0.6866362559849939],
        [-0.0047191967572108836, 0.008763379113504681, 0.01351598415129731,
         -0.05333803796173775, -0.0195665590595656, -0.13478670924196415,
         0.058782104355613984, 0.06011457357151173, 0.10230734469258014,
         0.24076688767045454, 0.14623670656738347, -0.018443397293520295,
         0.18942758709567079, 0.3985512969576654, 0.00990626432729634,
         -0.018099261334460763, 0.0891895380662093, 0.4105602491898338,
         0.1947095059071283, 0.686669593800599],
    ]),
    "atlas-3x19": (703860208, [
        [-0.27093774211402727, 0.11120270398348846, -0.13284431100185984,
         0.23862856403624608, -0.059348258444410294, -0.11705035647748736,
         -0.12741743094624197, -0.02992532175347365, 0.6607386682494392,
         -0.09659608978599368, 0.050967274534418204, 0.2778048894379901,
         -0.08556514877903572, -0.0981614392892679, 0.013058112615117187,
         0.38545038976001544, 0.09294846796205802, 0.22941573387056183,
         0.2294157338705619],
        [-0.27492868875504656, 0.110939063325443, -0.13288439339981195,
         0.23929615968348647, -0.05951717589803807, -0.11590717216213264,
         -0.12710963745463627, -0.0310812415969811, 0.6597223868687936,
         -0.09648270206030549, 0.04809821386625138, 0.27749094001105473,
         -0.08642783417285403, -0.09688757335643847, 0.014063954056197444,
         0.38506892901499296, 0.09291367660840251, 0.2294157338705618,
         0.22941573387056188],
        [-0.27718146422496837, 0.10858180489753447, -0.13167035146465433,
         0.23705997863080652, -0.05920109154355719, -0.115274633156641,
         -0.1272094793951764, -0.030215848751018407, 0.6596778572000471,
         -0.0962327833291182, 0.05031771974326168, 0.27771906304729244,
         -0.08396005980434973, -0.09808230769222394, 0.012020598673113933,
         0.38611302959584615, 0.09328410023227533, 0.2294157338705618,
         0.22941573387056188],
    ]),
}


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
    # all Gram entries above 4 * EPS_UNIT: no point or midpoint splits, so
    # their scoring is skipped
    "hadamard-16-lambda": lambda: spherical.spoil1_lambda(hadamard_code(4), 0.6),
    "cap-40x6": lambda: cap_code(0, 40, 6),
    "margin-below": lambda: margin_code(3.99e-12),
    "margin-above": lambda: margin_code(4.01e-12),
    # card > 20 * n: the skipped midpoints use up the budget
    "cap-64x3": lambda: cap_code(1, 64, 3),
    # two close points, which no candidate in the budget splits for seeds
    # 3 and 5 (seed 0 draws a direction between them)
    "two-close-points": lambda: spherical.SphericalCode([[1.0, 0.0], [1.0, 0.01]], normalize=True),
    **{name: (lambda pts=pts: spherical.SphericalCode(pts))
       for name, (_seed, pts) in ATLAS_NEAR_PARALLEL.items()},
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


LAMBDA_CODES = {
    **{f"random-{s}": (lambda s=s: random_code(s, 4 + 9 * s, 1 + 3 * s)) for s in range(4)},
    "simplex-2": lambda: bounds.simplex_code(2),
    "simplex-6": lambda: bounds.simplex_code(6),
    "signed-zeros": lambda: spherical.SphericalCode(np.array(
        [[-0.0, 1.0, 0.0], [0.0, -0.0, -1.0], [-0.6, -0.0, 0.8], [1.0, -0.0, -0.0]])),
}


@pytest.mark.parametrize("name", sorted(LAMBDA_CODES))
def test_spoil1_lambda_is_spoil1_on_the_last_axis(name):
    code = LAMBDA_CODES[name]()
    normal = np.zeros(code.dimension + 1)
    normal[-1] = 1.0
    for lam in (1.0, 0.9, 0.5, 1 / 3, 1e-3):
        new = spherical.spoil1_lambda(code, lam)
        ref = spherical.spoil1(code, geometry.Hyperplane(normal, float(np.sqrt(1.0 - lam))))
        assert new.points.tobytes() == ref.points.tobytes()  # the signs of zeros too
        assert spherical.dump_spherical_code(new) == spherical.dump_spherical_code(ref)


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
    ("parity-12", lambda: cube_code(12, parity=True)),  # 43 strips
    ("cube-10", lambda: cube_code(10)),  # 11 strips; its Gram entries round unevenly
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
    # original rounds to 1.0 or to just below it, so arccos would keep some;
    # some originals get several copies; all are shuffled among the originals
    copies = base[rng.integers(0, 40, 25)]
    nudged = base[rng.integers(0, 40, 25)] * (1.0 + 1e-16 * rng.standard_normal((25, 1)))
    pts = np.vstack([base, copies, nudged])[rng.permutation(90)]
    keep = ref_merge_close_points(pts)
    assert len(keep) == 40  # every copy is within a few ulps of its original
    assert np.array_equal(spherical.merge_close_points(pts), pts[keep])


def test_merge_close_points_keeps_distinct_codes_whole():
    pts = random_code(9, 300, 4).points
    assert np.array_equal(spherical.merge_close_points(pts), pts)


def same_split(a, b):
    (la, sa, ca), (lb, sb, cb) = a, b
    return (sa, ca) == (sb, cb) and np.array_equal(la.direction, lb.direction)


def outcome(func, *args):
    """What ``func(*args)`` returns, or the class of the SphCodesError it raises."""
    try:
        return func(*args)
    except SphCodesError as exc:
        return type(exc)


@pytest.mark.parametrize("name", sorted(SPLIT_CODES))
def test_find_balanced_line_matches_scalar_search(name):
    code = SPLIT_CODES[name]()
    for seed in (0, 5):
        new = outcome(spherical.find_balanced_line, code, seed)
        ref = outcome(ref_find_balanced_line, code, seed)
        assert new is ref if ref is SearchBudgetExhausted else same_split(new, ref)


@pytest.mark.parametrize("name", sorted(set(SPLIT_CODES) - {"parity-8-twice"}))
def test_balanced_candidates_match_scalar_search(name):
    code = SPLIT_CODES[name]()
    new = outcome(lambda: sorted(spherical._balanced_splits(code, seed=3), key=lambda t: t[2]))
    ref = outcome(ref_balanced_candidates, code, 3)
    if ref is SearchBudgetExhausted:
        assert new is ref
        return
    assert len(new) == len(ref)
    assert all(same_split(a, b) for a, b in zip(new, ref))


def test_searches_that_the_budget_ends():
    # the skipped midpoints use up the budget of cap-64x3; no candidate
    # splits the two close points or the atlas's near-parallel codes; each
    # is split along the difference of its closest pair
    cases = [("cap-64x3", 0), ("two-close-points", 5)]
    cases += [(name, seed) for name, (seed, _pts) in ATLAS_NEAR_PARALLEL.items()]
    for name, seed in cases:
        code = SPLIT_CODES[name]()
        line, sign, count = spherical.find_balanced_line(code, seed)
        i, j = code.min_angle_pair
        diff = code.points[i] - code.points[j]
        assert np.array_equal(line.direction, diff / np.linalg.norm(diff))
        assert code.card / 2 <= count < code.card
        assert spherical.spoil3(code, line, sign).card == count
        assert same_split((line, sign, count), ref_find_balanced_line(code, seed))


def test_one_sided_code_scores_no_midpoint(monkeypatch):
    # the 16 points, then one block of 16 drawn directions; scoring the
    # 120 midpoints and then a whole block of drawn directions takes 2,720
    code = SPLIT_CODES["hadamard-16-lambda"]()
    scored = []
    blocks = spherical._scored_candidates

    def counted(code, seed):
        for scores in blocks(code, seed):
            scored.append(scores[0].shape[0])
            yield scores

    monkeypatch.setattr(spherical, "_scored_candidates", counted)
    spherical.find_balanced_line(code)
    assert sum(scored) <= 64


@pytest.mark.parametrize("name, make", [
    ("hadamard-16", lambda: hadamard_code(4)),
    ("cube-10", lambda: cube_code(10)),
    ("random-128x10", lambda: random_code(7, 128, 10)),
    ("hadamard-16-lambda", SPLIT_CODES["hadamard-16-lambda"]),
    # a cap code with a ring of 8 points inserted at rows 20-27, whose
    # pairs hold every negative Gram entry: at 1 << 10 entries the point
    # rows come in four blocks, and only the second holds one
    ("cap-and-ring-60x6", lambda: spherical.SphericalCode(np.insert(
        cap_code(0, 52, 6, spread=0.05).points, 20, [
            [0.5, 0.75 ** 0.5 * math.cos(t), 0.75 ** 0.5 * math.sin(t), 0, 0, 0]
            for t in np.arange(8) * math.pi / 4], axis=0))),
])
def test_balanced_splits_do_not_depend_on_block_size(monkeypatch, name, make):
    # rows are scored on their own and near-plane rows again one by one, so
    # how the candidates are cut into blocks changes no split
    code = make()
    runs = []
    for entries in (1 << 10, 1 << 16, 1 << 18):
        monkeypatch.setattr(geometry, "BLOCK_ENTRIES", entries)
        for seed in (0, 3):
            runs.append([(line.direction.tobytes(), sign, count)
                         for line, sign, count in spherical._balanced_splits(code, seed)])
    assert runs[0] and runs[0:2] == runs[2:4] == runs[4:6]


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


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.lists(st.text("01", min_size=n, max_size=n), min_size=1, max_size=40),
    st.integers(0, n), st.integers(0, n - 1), st.sampled_from("01"))))
def test_binary_ops_match_string_loops(case):
    """Duplicated words in any order: the array code and every operation on
    it against the string loops."""
    words, insert_at, i, a = case
    code = binary.BinaryCode(words)
    ref = ref_binary_code(words)
    assert code.words == ref == tuple(sorted(set(words)))
    assert binary.BinaryCode(code.bits) == code
    assert hash(binary.BinaryCode(code.bits)) == hash(code)
    for f in (binary.constant("1"), lambda w: str(w.count("1") % 2)):
        assert binary.spoil1_binary(code, insert_at, f).words == \
            ref_spoil1_binary(ref, insert_at, f)
    if code.length >= 2:
        assert binary.spoil2_binary(code, i).words == ref_spoil2_binary(ref, i)
    if code.card >= 2:
        assert binary.spoil3_binary(code, i).words == ref_spoil3_binary(ref, i)
        pts = binary.embed_binary(code).points
        assert pts.tobytes() == ref_embed_binary(ref).tobytes()
    if any(w[i] == a for w in ref):
        assert binary.spoil3_binary(code, i, a).words == ref_spoil3_binary(ref, i, a)


def words_or_error(make, words):
    try:
        return make(words)
    except ValueError as exc:
        return ValueError, str(exc)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.text("01x", max_size=4), max_size=8))
def test_binary_code_rejects_words_like_the_string_loop(words):
    """Bad words raise the message of the per-character check; the empty
    word, which that check accepted, is rejected."""
    got = words_or_error(lambda ws: binary.BinaryCode(ws).words, words)
    if set(words) == {""}:
        assert got == (ValueError, "words must have at least one bit")
    else:
        assert got == words_or_error(ref_binary_code, words)


@pytest.mark.parametrize("seed", [0, 3])
def test_envelope_matches_grid_anchor_loop(seed):
    atlas = atlas_mod.atlas_build(None, bounds.CutoffRegion(0.4), 300, seed=seed)
    assert atlas.dominated_anchors
    assert np.max(np.abs(atlas.envelope - ref_envelope(atlas))) <= 1e-12


def placed_anchors(cutoff):
    cx, cap = cutoff.cos_phi_c, cutoff.rate_cap
    return [(cx, 0.5 * cap),         # on the cutoff edge: line2 is vertical
            (cx - 5e-16, 0.2 * cap),  # within 1e-15 of the edge: vertical too
            (cx, cap),               # the window corner
            (0.0, cap),
            (-1e-12, 0.3 * cap),     # the window admits cos phi down to -1e-12
            (0.5 * cx, 0.25 * cap),
            (0.9 * cx, 0.05 * cap)]


def test_region_lines_match_the_scalar_roof():
    cutoff = bounds.CutoffRegion(0.4)
    xs = [0.0, 0.3, 0.5 * cutoff.cos_phi_c, cutoff.cos_phi_c, 0.95]
    for anchor in placed_anchors(cutoff):
        reg = bounds.ControllingRegions(anchor, cutoff)
        for x in xs:
            assert reg.lower_boundary(x) == ref_lower_boundary(anchor, cutoff, x)


@pytest.mark.parametrize("phi_c", [0.4, 0.9])
def test_envelope_matches_grid_anchor_loop_on_placed_anchors(monkeypatch, phi_c):
    cutoff = bounds.CutoffRegion(phi_c)
    placed = placed_anchors(cutoff)
    grid = np.linspace(phi_c, math.pi / 2, 257)
    # blocks of two anchors: vertical and slanted line2 share a block, and
    # the last block fills its buffers only in part
    monkeypatch.setattr(geometry, "BLOCK_ENTRIES", 2 * grid.size)
    # no anchor, each anchor alone, and all of them together
    for subset in [[]] + [[a] for a in placed] + [placed]:
        anchors = [spherical.SphericalCodePoint(rate=y, cos_phi=x, dimension=2, card=2)
                   for x, y in subset]
        atlas = atlas_mod.Atlas(cutoff=cutoff, dominated_anchors=anchors, phi_grid=grid)
        env = atlas_mod.envelope(anchors, cutoff, grid)
        assert np.max(np.abs(env - ref_envelope(atlas))) <= 1e-12


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
    list(packings._quadratic_blocks(gram, center, bound, budget=nodes[0]))
    with pytest.raises(BudgetExceeded):
        list(packings._quadratic_blocks(gram, center, bound, budget=nodes[0] - 1))


# (lattice, translates, m_max): the ENUMERATIONS cases as theta queries, E8 to
# norm 12, and Z^2 with two translates, whose counts are Fractions
THETA_CASES = {
    "E8": lambda: (packings.e8_lattice(), [np.zeros(8)], 8.0),
    "D4": lambda: (packings.checkerboard_lattice(4), [np.zeros(4)], 8.0),
    "A2": lambda: (packings.hexagonal_lattice(), [np.zeros(2)], 7.0),
    "Z3-centered": lambda: (packings.integer_lattice(3),
                            [np.zeros(3), np.random.default_rng(4).standard_normal(3)], 9.0),
    "E8-12": lambda: (packings.e8_lattice(), [np.zeros(8)], 12.0),
    "Z2-two-translates": lambda: (packings.integer_lattice(2),
                                  [np.zeros(2), np.array([0.5, 0.5])], 6.0),
}


@pytest.mark.parametrize("name", sorted(THETA_CASES))
def test_block_counts_match_the_point_view(name):
    lattice, translates, m_max = THETA_CASES[name]()
    theta = packings._theta(lattice, translates, m_max, packings.DEFAULT_POINT_BUDGET)
    assert repr(theta.entries) == repr(ref_theta(lattice, translates, m_max))
    packing = packings.touching_packing(lattice, translates)
    x0 = translates[-1]
    # the kissing shell, a wide shell, and an empty one
    for u in (2 * packing.radius, math.sqrt(m_max), 0.25 * packing.radius):
        got = packings._centers_at_distance(packing, x0, u)
        ref = ref_centers_at_distance(packing, x0, u)
        assert got.dtype == ref.dtype and np.array_equal(got, ref)


@pytest.mark.parametrize("name", ["E8", "D4", "A2", "E8-12"])
def test_theta_budget_is_the_node_count(name):
    lattice, _translates, m_max = THETA_CASES[name]()
    nodes = []
    list(ref_enumerate_quadratic(lattice.gram, np.zeros(lattice.dimension), m_max + 1e-9,
                                 nodes=nodes))
    packings.theta_lattice(lattice, m_max, budget=nodes[0])
    with pytest.raises(BudgetExceeded):
        packings.theta_lattice(lattice, m_max, budget=nodes[0] - 1)


def lattice_outputs():
    """Theta entries, kissing dumps and a shell code with its certificate."""
    out = [repr(packings.theta_lattice(packings.e8_lattice(), 12.0).entries),
           repr(packings.theta_lattice(packings.checkerboard_lattice(4), 8.0).entries)]
    for lattice in (packings.e8_lattice(), packings.hexagonal_lattice()):
        code = packings.kissing_configuration(packings.touching_packing(lattice))
        out.append(spherical.dump_spherical_code(code))
    code, cert = packings.shell_code(packings.touching_packing(packings.integer_lattice(2)),
                                     np.zeros(2), math.sqrt(2))
    out += [spherical.dump_spherical_code(code), repr(cert)]
    return out


def test_lattice_outputs_do_not_depend_on_block_size(monkeypatch):
    runs = []
    for coords in (1 << 8, 1 << 12, 1 << 16):
        monkeypatch.setattr(packings, "BLOCK_COORDS", coords)
        runs.append(lattice_outputs())
    assert runs[0] == runs[1] == runs[2]
