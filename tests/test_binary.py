import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sphcodes import binary
from sphcodes.errors import DegenerateAnchor, InputFormatError

words_strategy = st.lists(
    st.text(alphabet="01", min_size=4, max_size=4), min_size=2, max_size=16,
    unique=True,
)


def random_code(rng, n_max=10, card_max=64):
    n = int(rng.integers(2, n_max + 1))
    card = int(rng.integers(2, min(card_max, 2 ** n) + 1))
    values = rng.choice(2 ** n, size=card, replace=False)
    return binary.BinaryCode(format(v, f"0{n}b") for v in values)


def hamming_distance(a: str, b: str) -> int:
    """Reference: the number of positions where two equal-length words differ."""
    assert len(a) == len(b)
    return sum(x != y for x, y in zip(a, b))


@pytest.mark.parametrize("seed", range(20))
def test_min_distance_matches_pair_loop(seed):
    code = random_code(np.random.default_rng(seed), n_max=24, card_max=400)
    want = min(hamming_distance(a, b)
               for i, a in enumerate(code.words) for b in code.words[i + 1:])
    assert type(code.min_distance) is int
    assert code.min_distance == want


def golay_code():
    """Extended Golay code: the cyclic quadratic-residue code of length 23
    (spanned by the shifts of the indicator of the squares mod 23) with a
    parity bit appended."""
    residues = {i * i % 23 for i in range(1, 23)}
    gen = sum(1 << r for r in residues)
    span = {0}
    for s in range(23):
        shifted = ((gen << s) | (gen >> (23 - s))) & ((1 << 23) - 1)
        span |= {w ^ shifted for w in span}
    words = (format(w, "023b") for w in span)
    return binary.BinaryCode(w + str(w.count("1") % 2) for w in words)


def test_golay_minimum_distance_and_angle():
    code = golay_code()
    assert (code.length, code.card, code.min_distance) == (24, 4096, 8)
    assert abs(binary.embed_binary(code).cos_min_angle - 1 / 3) <= 1e-15


def test_min_distance_singleton():
    assert binary.BinaryCode(["0101"]).min_distance == 0


def test_bits_are_the_sorted_distinct_words():
    code = binary.BinaryCode(["11", "01", "11", "10"])
    assert code.bits.dtype == np.uint8 and not code.bits.flags.writeable
    assert code.bits.tolist() == [[0, 1], [1, 0], [1, 1]]
    assert code.words == ("01", "10", "11")
    assert binary.BinaryCode(np.array([[1, 1], [0, 1], [1, 0], [1, 1]])) == code
    assert binary.BinaryCode(np.array([[True, False]])).words == ("10",)


@pytest.mark.parametrize("bits", [np.array([[0, 2]]), np.array([0, 1]), np.array([[0.5, 1]])])
def test_rejects_bits_other_than_0_and_1(bits):
    with pytest.raises(ValueError, match="array of 0s and 1s"):
        binary.BinaryCode(bits)


@pytest.mark.parametrize("words", [[""], ["", ""], np.zeros((2, 0), np.uint8)])
def test_rejects_words_of_length_zero(words):
    with pytest.raises(ValueError, match="at least one bit"):
        binary.BinaryCode(words)


@pytest.mark.parametrize("words", [[], np.zeros((0, 3), np.uint8)])
def test_rejects_an_empty_code(words):
    with pytest.raises(ValueError, match="at least one word"):
        binary.BinaryCode(words)


def test_code_parameters_repetition():
    p = binary.code_parameters(binary.BinaryCode(["000", "111"]))
    assert p.n == 3 and p.d == 3
    assert p.rate == pytest.approx(1 / 3)
    assert p.delta == pytest.approx(1.0)


@given(words_strategy)
def test_spoil1_constant_parameters(words):
    code = binary.BinaryCode(words)
    out = binary.spoil1_binary(code, 2, binary.constant("1"))
    assert out.length == code.length + 1
    assert out.card == code.card
    assert out.min_distance == code.min_distance


def test_spoil1_insert_positions():
    code = binary.BinaryCode(["00", "11"])
    out = binary.spoil1_binary(code, 2, binary.constant("0"))
    assert out.words == ("000", "110")
    assert out.min_distance == 2
    code = binary.BinaryCode(["0", "1"])
    out = binary.spoil1_binary(code, 0, binary.constant("1"))
    assert out.words == ("10", "11")
    assert out.min_distance == 1


@given(words_strategy, st.integers(0, 3))
def test_spoil2_deletion_parameters(words, i):
    code = binary.BinaryCode(words)
    out = binary.spoil2_binary(code, i)
    assert out.length == code.length - 1
    assert out.card <= code.card
    if out.card == code.card and code.card >= 2:
        assert code.min_distance - 1 <= out.min_distance <= code.min_distance


@given(words_strategy, st.integers(0, 3))
def test_spoil3_majority_keeps_half(words, i):
    code = binary.BinaryCode(words)
    out = binary.spoil3_binary(code, i)
    assert out.card >= code.card / 2
    assert out.length == code.length
    if out.card >= 2:
        assert out.min_distance >= code.min_distance


def test_spoil3_tie_breaks_to_zero():
    code = binary.BinaryCode(["00", "10"])
    out = binary.spoil3_binary(code, 0)
    assert out.words == ("00",)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_embedding_angle_identity(seed):
    rng = np.random.default_rng(seed)
    code = random_code(rng)
    sph = binary.embed_binary(code)
    n, d = code.length, code.min_distance
    assert sph.cos_min_angle == pytest.approx(1 - 2 * d / n, abs=1e-12)
    assert sph.dimension == n and sph.card == code.card
    # the identity holds for every pair, not just the minimum
    for a in range(code.card):
        for b in range(a + 1, code.card):
            h = hamming_distance(code.words[a], code.words[b])
            dot = float(sph.points[a] @ sph.points[b])
            assert dot == pytest.approx(1 - 2 * h / n, abs=1e-12)


def test_cone_membership_quadrants():
    p = binary.BinaryCodePoint(rate=0.5, delta=0.25, n=4, k=2, d=1)
    cones = binary.ConeSet(p)
    assert cones.membership((0.1, 0.1)) == "D"
    assert cones.membership((0.9, 0.9)) == "U"
    # L1 passes through (0, 1), L2 through (1, 0)
    assert cones.membership((0.5, 0.25)) == "boundary"
    e1 = cones.segment1_endpoint
    e2 = cones.segment2_endpoint
    assert e1 == (pytest.approx(0.5 / 0.75), 0.0)
    assert e2 == (0.0, pytest.approx(0.5))


def test_cone_boundary_slack_is_1e12():
    cones = binary.ConeSet(
        binary.BinaryCodePoint(rate=0.75, delta=0.5, n=8, k=6, d=2))
    # the signed area from L1 of (t, 1) is exactly -t/2, and from L2 of
    # (1, s) exactly s/4: 2^-40 is 9.1e-13 and 2^-39 is 1.8e-12
    assert cones.membership((2.0 ** -39, 1.0)) == "boundary"
    assert cones.membership((2.0 ** -38, 1.0)) == "R"
    assert cones.membership((1.0, 2.0 ** -38)) == "boundary"
    assert cones.membership((1.0, -(2.0 ** -38))) == "boundary"
    assert cones.membership((1.0, 2.0 ** -37)) == "L"


def test_cone_membership_at_a_subnormal_anchor():
    # the origin's area about L1 is R delta + R (1 - delta), which rounds to 0
    # at R = 5e-324 and delta = 1/2, so comparing with it would label this
    # point D; its signed areas are -1/4 about both lines, which is R
    cones = binary.ConeSet(
        binary.BinaryCodePoint(rate=5e-324, delta=0.5, n=4, k=2, d=1))
    assert cones.membership((0.5, 0.0)) == "R"


def test_cone_partition_random_points():
    rng = np.random.default_rng(7)
    p = binary.BinaryCodePoint(rate=0.4, delta=0.3, n=10, k=4, d=3)
    cones = binary.ConeSet(p)
    labels = set()
    for _ in range(500):
        q = (float(rng.uniform(0, 1)), float(rng.uniform(0, 1)))
        labels.add(cones.membership(q))
    assert labels <= {"U", "D", "L", "R", "boundary"}
    assert {"U", "D", "L", "R"} <= labels


def test_degenerate_anchor_rejected():
    p = binary.BinaryCodePoint(rate=0.0, delta=0.5, n=4, k=0, d=2)
    with pytest.raises(DegenerateAnchor):
        binary.ConeSet(p)


@pytest.mark.parametrize("rate, delta", [(0.0, 0.5), (1.0, 0.5), (0.5, 0.0), (0.5, 1.0),
                                         (0.0, 0.0), (1.0, 1.0)])
def test_cone_set_on_an_edge_is_rejected(rate, delta):
    with pytest.raises(DegenerateAnchor, match="strictly inside the square"):
        binary.ConeSet(binary.BinaryCodePoint(rate=rate, delta=delta, n=4, k=2, d=1))


def test_numerical_spoil_points_on_lines():
    p = binary.BinaryCodePoint(rate=0.5, delta=0.25, n=8, k=4, d=2)
    p1, p2 = binary.numerical_spoil_points(p, 8)
    t = 1 / 7
    assert p1 == (pytest.approx((1 + t) * 0.5), pytest.approx((1 + t) * 0.25 - t))
    assert p2 == (pytest.approx((1 + t) * 0.5 - t), pytest.approx((1 + t) * 0.25))


def test_file_roundtrip():
    code = binary.BinaryCode(["0101", "1010", "1111"])
    text = binary.dump_binary_code(code)
    assert binary.load_binary_code("# header\n" + text) == code
    noisy = "\n \t\n".join(w + " # c" for w in text.splitlines())
    assert binary.load_binary_code("# header\n\n" + noisy + "\n#") == code


def test_load_rejects_ragged_words():
    with pytest.raises(InputFormatError):
        binary.load_binary_code("01\n011\n")
    with pytest.raises(InputFormatError, match="^line 5: "):
        binary.load_binary_code("01\n# c\n10 # c\n\n011\n")


def test_load_rejects_non_binary():
    with pytest.raises(InputFormatError) as err:
        binary.load_binary_code("01\n0x\n")
    assert err.value.line == 2


def three_words():
    return binary.BinaryCode(["000", "011", "101"])


# the boundary checks that no other test reaches: (call, exception, message fragment)
@pytest.mark.parametrize("call, exc, fragment", [
    pytest.param(lambda: binary.constant("2"), ValueError,
                 "constant bit must be '0' or '1'", id="constant-bit"),
    pytest.param(lambda: binary.spoil1_binary(three_words(), 4, binary.constant("0")),
                 ValueError, "insert position 4 outside 0..3", id="spoil1-position"),
    pytest.param(lambda: binary.spoil1_binary(three_words(), 0, lambda w: "x"), ValueError,
                 "f is undefined (or non-binary) on word '000'", id="spoil1-f"),
    pytest.param(lambda: binary.spoil2_binary(binary.BinaryCode(["0", "1"]), 0), ValueError,
                 "cannot delete a coordinate of a length-1 code", id="spoil2-length-1"),
    pytest.param(lambda: binary.spoil2_binary(three_words(), 3), ValueError,
                 "position 3 outside 0..2", id="spoil2-position"),
    pytest.param(lambda: binary.spoil3_binary(three_words(), -1), ValueError,
                 "position -1 outside 0..2", id="spoil3-position"),
    pytest.param(lambda: binary.spoil3_binary(binary.BinaryCode(["01"]), 0), ValueError,
                 "auto-select needs at least two words", id="spoil3-one-word"),
    pytest.param(lambda: binary.spoil3_binary(three_words(), 0, "2"), ValueError,
                 "symbol must be '0' or '1'", id="spoil3-symbol"),
    pytest.param(lambda: binary.spoil3_binary(binary.BinaryCode(["00", "01"]), 0, "1"),
                 ValueError, "no word carries '1' at position 0", id="spoil3-empty"),
    pytest.param(lambda: binary.embed_binary(binary.BinaryCode(["010"])), ValueError,
                 "embedding needs at least two words", id="embed-one-word"),
    pytest.param(lambda: binary.numerical_spoil_points(
                     binary.BinaryCodePoint(rate=0.5, delta=0.25, n=4, k=2, d=1), 1),
                 ValueError, "n must be >= 2", id="spoil-points-n"),
    pytest.param(lambda: binary.load_binary_code("# c\n"), InputFormatError,
                 "no words found", id="load-no-words"),
])
def test_boundary_checks(call, exc, fragment):
    with pytest.raises(exc) as err:
        call()
    assert fragment in str(err.value)
