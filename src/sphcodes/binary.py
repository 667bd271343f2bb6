"""Binary [n, k, d] codes, their spoiling operations and cube embedding.

Words are bit strings of explicit equal length (leading zeros matter).
All indices are 0-based.  Parameters are always recomputed after a
spoiling operation rather than trusted from the textbook labels, since
coordinate deletion can merge words (d = 1) and can lower d by one.
"""

from __future__ import annotations

import math
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
    return sum(1 for x, y in zip(a, b) if x != y)


def _check_word(w: str, n: int) -> str:
    if len(w) != n or any(c not in "01" for c in w):
        raise ValueError(f"word {w!r} is not a bit string of length {n}")
    return w


class BinaryCode:
    """Non-empty set of distinct equal-length bit words."""

    def __init__(self, words):
        ws = sorted(set(words))
        if not ws:
            raise ValueError("a code must contain at least one word")
        n = len(ws[0])
        self._words = tuple(_check_word(w, n) for w in ws)
        self._length = n

    @property
    def words(self) -> tuple[str, ...]:
        return self._words

    @property
    def length(self) -> int:
        return self._length

    @property
    def card(self) -> int:
        return len(self._words)

    @cached_property
    def min_distance(self) -> int:
        """Minimum pairwise Hamming distance; 0 for a singleton code.

        The words as rows of +-1 have inner products n - 2d, exact integers
        in float64, so d is read off the largest one.
        """
        if self.card == 1:
            return 0
        bits = np.frombuffer("".join(self._words).encode(), dtype=np.uint8) - ord("0")
        signs = 1.0 - 2.0 * bits.reshape(self.card, self._length)
        top = geometry.max_gram_pair(signs)[0]
        return (self._length - int(top)) // 2

    def __eq__(self, other):
        return isinstance(other, BinaryCode) and self._words == other._words

    def __hash__(self):
        return hash(self._words)

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

    @classmethod
    def of(cls, code: BinaryCode) -> "BinaryCodePoint":
        n = code.length
        k = math.log2(code.card)
        d = code.min_distance
        return cls(rate=k / n, delta=d / n, n=n, k=k, d=d)


def code_parameters(code: BinaryCode) -> BinaryCodePoint:
    return BinaryCodePoint.of(code)


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
    new_words = []
    for w in code.words:
        bit = f(w)
        if bit not in ("0", "1"):
            raise ValueError(f"f is undefined (or non-binary) on word {w!r}")
        new_words.append(w[:i] + bit + w[i:])
    return BinaryCode(new_words)


def spoil2_binary(code: BinaryCode, i: int) -> BinaryCode:
    """Delete coordinate i (projection).  Words may merge when d = 1."""
    n = code.length
    if n < 2:
        raise ValueError("cannot delete a coordinate of a length-1 code")
    if not (0 <= i < n):
        raise ValueError(f"position {i} outside 0..{n - 1}")
    return BinaryCode(w[:i] + w[i + 1:] for w in code.words)


def spoil3_binary(code: BinaryCode, i: int, a: str | None = None) -> BinaryCode:
    """Subcode of words carrying symbol a at position i.

    With ``a=None`` the majority symbol is chosen (ties break to '0'),
    which guarantees card' >= card / 2.
    """
    n = code.length
    if not (0 <= i < n):
        raise ValueError(f"position {i} outside 0..{n - 1}")
    if a is None:
        if code.card < 2:
            raise ValueError("auto-select needs at least two words")
        ones = sum(1 for w in code.words if w[i] == "1")
        a = "1" if ones > code.card - ones else "0"
    if a not in ("0", "1"):
        raise ValueError("symbol must be '0' or '1'")
    sub = [w for w in code.words if w[i] == a]
    if not sub:
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
    n = code.length
    scale = 1.0 / math.sqrt(n)
    pts = np.array(
        [[scale if c == "0" else -scale for c in w] for w in code.words]
    )
    return SphericalCode(pts, check_distinct=False)


# ---------------------------------------------------------------------------
# Controlling cones in the (R, delta) square
# ---------------------------------------------------------------------------

def _line1(p: BinaryCodePoint, t: float) -> tuple[float, float]:
    """L1(P): ((1+t) R, (1+t) delta - t); passes through (R, delta) = (0, 1)."""
    return (1 + t) * p.rate, (1 + t) * p.delta - t


def _line2(p: BinaryCodePoint, t: float) -> tuple[float, float]:
    """L2(P): ((1+t) R - t, (1+t) delta); passes through (R, delta) = (1, 0)."""
    return (1 + t) * p.rate - t, (1 + t) * p.delta


def _side(anchor: tuple[float, float], through: tuple[float, float],
          q: tuple[float, float]) -> float:
    """Signed area of the triangle (anchor, through, q); 0 on the line."""
    ax, ay = anchor
    bx, by = through
    qx, qy = q
    return (bx - ax) * (qy - ay) - (by - ay) * (qx - ax)


@dataclass(frozen=True)
class ConeSet:
    """The four controlling cones anchored at a binary code point.

    The boundary lines are L1 (through (R, delta) = (0, 1)) and L2
    (through (1, 0)); the segments I1 and I2 run from the anchor to the
    delta = 0 and R = 0 axes respectively.
    """

    anchor: BinaryCodePoint

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

    def membership(self, q: tuple[float, float], eps: float = 1e-12) -> str:
        """Classify a point of the square: 'U', 'D', 'L', 'R' or 'boundary'.

        D is the cone containing the origin; crossing I1 from D enters R,
        crossing I2 enters L, and U is opposite D.
        """
        p = (self.anchor.rate, self.anchor.delta)
        s1 = _side(p, (0.0, 1.0), q)
        s2 = _side(p, (1.0, 0.0), q)
        o1 = _side(p, (0.0, 1.0), (0.0, 0.0))
        o2 = _side(p, (1.0, 0.0), (0.0, 0.0))
        if abs(s1) <= eps or abs(s2) <= eps:
            return "boundary"
        same1 = (s1 > 0) == (o1 > 0)
        same2 = (s2 > 0) == (o2 > 0)
        if same1 and same2:
            return "D"
        if not same1 and not same2:
            return "U"
        # crossing L2 (the boundary shared along I2) leads from D to L
        if same1:
            return "L"
        return "R"


def controlling_cones(p: BinaryCodePoint) -> ConeSet:
    """Cone set of an anchor strictly inside (0, 1)^2."""
    if not (0.0 < p.rate < 1.0 and 0.0 < p.delta < 1.0):
        raise DegenerateAnchor(
            f"anchor ({p.rate:.4g}, {p.delta:.4g}) must lie strictly inside the square"
        )
    return ConeSet(p)


def numerical_spoil_points(
    p: BinaryCodePoint, n: int
) -> tuple[tuple[float, float], tuple[float, float]]:
    """The two spoiled points at t = 1/(n-1) on the cone boundary lines.

    Returns ``(P1, P2)`` with P1 on L1 (second spoiling operation: n-1, d-1)
    and P2 on L2 (third spoiling: n-1, k-1).
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    t = 1.0 / (n - 1)
    return _line1(p, t), _line2(p, t)


# ---------------------------------------------------------------------------
# File format: one word per line, '#' comments
# ---------------------------------------------------------------------------

def dump_binary_code(code: BinaryCode) -> str:
    return "\n".join(code.words) + "\n"


def load_binary_code(text: str) -> BinaryCode:
    words = []
    for lineno, parts in text_lines(text):
        word = " ".join(parts)
        if any(c not in "01" for c in word):
            raise InputFormatError(f"word {word!r} has characters outside 0/1", lineno)
        if words and len(word) != len(words[0]):
            raise InputFormatError(f"word length {len(word)} differs from {len(words[0])}", lineno)
        words.append(word)
    if not words:
        raise InputFormatError("no words found")
    return BinaryCode(words)
