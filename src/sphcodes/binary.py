"""Binary [n, k, d] codes, their spoiling operations and cube embedding.

A code is a read-only, sorted uint8 array of distinct rows of 0s and 1s.
All indices are 0-based.  Parameters are always recomputed after a
spoiling operation rather than trusted from the textbook labels, since
coordinate deletion can merge words (d = 1) and can lower d by one.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np

from . import geometry
from .errors import DegenerateAnchor, DimensionMismatch, InputFormatError
from .spherical import SphericalCode, text_lines


def hamming_distance(a: str, b: str) -> int:
    """Number of positions where two equal-length words differ."""
    if len(a) != len(b):
        raise DimensionMismatch(f"word lengths {len(a)} and {len(b)} differ")
    return sum(map(operator.ne, a, b))


def _parse_words(words: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each word's length, all characters as one flat array of bit values
    (any other character maps above 1), and which words hold another one."""
    lengths = np.fromiter(map(len, words), np.intp, len(words))
    # one byte per character: anything outside ASCII becomes '?'
    bits = np.frombuffer("".join(words).encode("ascii", "replace"), np.uint8) - ord("0")
    seen = np.concatenate(([0], np.cumsum(bits > 1)))  # non-bits before each position
    ends = np.cumsum(lengths)
    return lengths, bits, seen[ends] > seen[ends - lengths]


class BinaryCode:
    """Non-empty set of distinct equal-length bit words.

    Built from an iterable of '0'/'1' strings, or from a (card, n) array of
    0s and 1s such as ``bits``; duplicates are dropped either way.
    """

    def __init__(self, words):
        if isinstance(words, np.ndarray):
            if words.ndim != 2 or not ((words == 0) | (words == 1)).all():
                raise ValueError("bits must be a (card, n) array of 0s and 1s")
            bits = words
        else:
            words = list(words)
            n = len(min(words, default=""))  # the length of the first sorted word
            lengths, bits, nonbit = _parse_words(words)
            bad = nonbit | (lengths != n)
            if bad.any():
                first = min(w for w, b in zip(words, bad) if b)
                raise ValueError(f"word {first!r} is not a bit string of length {n}")
            bits = bits.reshape(len(words), n)
        card, n = bits.shape
        if card == 0:
            raise ValueError("a code must contain at least one word")
        if n == 0:
            raise ValueError("words must have at least one bit")
        # each row as one fixed-width byte key, sorted bytewise: the order of
        # the words as strings (np.unique would also import numpy.ma, 1 MB)
        keys = np.sort(np.ascontiguousarray(bits, dtype=np.uint8).view(f"V{n}").ravel())
        keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
        self._bits = keys.view(np.uint8).reshape(-1, n)
        self._bits.setflags(write=False)

    @property
    def bits(self) -> np.ndarray:
        """The words as rows of 0s and 1s, in sorted order (read-only)."""
        return self._bits

    @cached_property
    def words(self) -> tuple[str, ...]:
        return tuple((self._bits + ord("0")).view(f"S{self.length}")[:, 0].astype(str).tolist())

    @property
    def length(self) -> int:
        return self._bits.shape[1]

    @property
    def card(self) -> int:
        return self._bits.shape[0]

    @cached_property
    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance; 0 for a singleton code.

        The words as rows of +-1 have inner products n - 2d, exact integers
        in float64, so d is read off the largest one.
        """
        if self.card == 1:
            return 0
        top = geometry.max_gram_pair(1.0 - 2.0 * self._bits)[0]
        return (self.length - int(top)) // 2

    def __eq__(self, other):
        return isinstance(other, BinaryCode) and np.array_equal(self._bits, other._bits)

    def __hash__(self):
        return hash((self.length, self._bits.tobytes()))

    def __repr__(self):
        return f"BinaryCode(n={self.length}, card={self.card}, d={self.min_distance})"


@dataclass(frozen=True)
class BinaryCodePoint:
    """(R, delta) of a binary code, with the raw [n, k, d] as provenance."""

    rate: float
    delta: float
    n: int
    k: float
    d: int


def code_parameters(code: BinaryCode) -> BinaryCodePoint:
    n, k, d = code.length, math.log2(code.card), code.min_distance
    return BinaryCodePoint(rate=k / n, delta=d / n, n=n, k=k, d=d)


# ---------------------------------------------------------------------------
# The three spoiling operations
# ---------------------------------------------------------------------------

def constant(bit: str) -> Callable[[str], str]:
    if bit not in "01" or len(bit) != 1:
        raise ValueError("constant bit must be '0' or '1'")
    return lambda _w: bit


def spoil1_binary(code: BinaryCode, i: int, f: Callable[[str], str]) -> BinaryCode:
    """Insert f(word) at position i in every word (i in 0..n).

    With a constant f the parameters become [n+1, k, d]; a general partial
    f must be defined (return '0' or '1') on every word, and the result is
    simply recomputed.
    """
    n = code.length
    if not (0 <= i <= n):
        raise ValueError(f"insert position {i} outside 0..{n}")
    col = [f(w) for w in code.words]
    for w, bit in zip(code.words, col):
        if bit not in ("0", "1"):
            raise ValueError(f"f is undefined (or non-binary) on word {w!r}")
    return BinaryCode(np.insert(code.bits, i, np.array(col) == "1", axis=1))


def spoil2_binary(code: BinaryCode, i: int) -> BinaryCode:
    """Delete coordinate i (projection).  Words may merge when d = 1."""
    n = code.length
    if n < 2:
        raise ValueError("cannot delete a coordinate of a length-1 code")
    if not (0 <= i < n):
        raise ValueError(f"position {i} outside 0..{n - 1}")
    return BinaryCode(np.delete(code.bits, i, axis=1))


def spoil3_binary(code: BinaryCode, i: int, a: str | None = None) -> BinaryCode:
    """Subcode of words carrying symbol a at position i.

    With ``a=None`` the majority symbol is chosen (ties break to '0'),
    which guarantees card' >= card / 2.
    """
    n = code.length
    if not (0 <= i < n):
        raise ValueError(f"position {i} outside 0..{n - 1}")
    col = code.bits[:, i]
    if a is None:
        if code.card < 2:
            raise ValueError("auto-select needs at least two words")
        ones = int(np.count_nonzero(col))
        a = "1" if ones > code.card - ones else "0"
    if a not in ("0", "1"):
        raise ValueError("symbol must be '0' or '1'")
    sub = code.bits[col == int(a)]
    if not sub.size:
        raise ValueError(f"no word carries {a!r} at position {i}")
    return BinaryCode(sub)


# ---------------------------------------------------------------------------
# Cube embedding into S^{n-1}
# ---------------------------------------------------------------------------

def embed_binary(code: BinaryCode) -> SphericalCode:
    """Map words to cube vertices inscribed in the unit sphere.

    Bit 0 goes to +1/sqrt(n) and bit 1 to -1/sqrt(n) coordinatewise, so the
    minimum angle of the image satisfies cos phi = 1 - 2d/n.
    """
    if code.card < 2:
        raise ValueError("embedding needs at least two words")
    scale = 1.0 / math.sqrt(code.length)
    return SphericalCode(scale * (1.0 - 2.0 * code.bits), check_distinct=False)


# ---------------------------------------------------------------------------
# Controlling cones in the (R, delta) square
# ---------------------------------------------------------------------------

def _side(anchor: tuple[float, float], through: tuple[float, float],
          q: tuple[float, float]) -> float:
    """Signed area of the triangle (anchor, through, q); 0 on the line."""
    ax, ay = anchor
    bx, by = through
    qx, qy = q
    return (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)


@dataclass(frozen=True)
class ConeSet:
    """The four controlling cones anchored at a code point strictly inside (0, 1)^2.

    The boundary lines are L1 (through (R, delta) = (0, 1)) and L2
    (through (1, 0)); the segments I1 and I2 run from the anchor to the
    delta = 0 and R = 0 axes respectively.
    """

    anchor: BinaryCodePoint

    def __post_init__(self):
        p = self.anchor
        if not (0.0 < p.rate < 1.0 and 0.0 < p.delta < 1.0):
            raise DegenerateAnchor(
                f"anchor ({p.rate:.4g}, {p.delta:.4g}) must lie strictly inside the square"
            )

    @property
    def segment1_endpoint(self) -> tuple[float, float]:
        """(R/(1-delta), 0), where L1 meets the delta = 0 axis."""
        p = self.anchor
        return p.rate / (1.0 - p.delta), 0.0

    @property
    def segment2_endpoint(self) -> tuple[float, float]:
        """(0, delta/(1-R)), where L2 meets the R = 0 axis."""
        p = self.anchor
        return 0.0, p.delta / (1.0 - p.rate)

    def membership(self, q: tuple[float, float]) -> str:
        """Classify a point of the square: 'U', 'D', 'L', 'R' or 'boundary'.

        D is the cone containing the origin; crossing I1 from D enters R,
        crossing I2 enters L, and U is opposite D; 'boundary' is a signed
        area (anchor, a line's fixed point, q) within EPS_REGION of 0.
        The origin's areas are R > 0 about L1 and -delta < 0 about L2, so D
        is where both the negated L1 area and the L2 area are negative.
        """
        p = (self.anchor.rate, self.anchor.delta)
        return geometry.quadrant(-_side(p, (0.0, 1.0), q), _side(p, (1.0, 0.0), q))


def numerical_spoil_points(
    p: BinaryCodePoint, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two spoiled points at t = 1/(n-1) on the cone boundary lines.

    Returns ``(P1, P2)``: P1 = ((1+t) R, (1+t) delta - t) on L1 (second
    spoiling operation: n-1, d-1) and P2 = ((1+t) R - t, (1+t) delta) on L2
    (third spoiling: n-1, k-1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = 1.0 / (n - 1)
    r, d = p.rate, p.delta
    return ((1 + t) * r, (1 + t) * d - t), ((1 + t) * r - t, (1 + t) * d)


# ---------------------------------------------------------------------------
# File format: one word per line, '#' comments
# ---------------------------------------------------------------------------

def dump_binary_code(code: BinaryCode) -> str:
    return "\n".join(code.words) + "\n"


def load_binary_code(text: str) -> BinaryCode:
    lines = list(text_lines(text))
    if not lines:
        raise InputFormatError("no words found")
    words = [" ".join(parts) for _, parts in lines]
    lengths, bits, nonbit = _parse_words(words)
    # the first line holding a non-bit, or a length other than the first word's
    bad = nonbit | (lengths != lengths[0])
    if bad.any():
        i = int(np.argmax(bad))
        msg = (f"word {words[i]!r} has characters outside 0/1" if nonbit[i]
               else f"word length {lengths[i]} differs from {lengths[0]}")
        raise InputFormatError(msg, lines[i][0])
    return BinaryCode(bits.reshape(len(words), -1))
