"""The small-angle rate bound H(phi), in a module with no package imports.

``spherical`` and ``packings`` need H(phi) and ``bounds`` needs the
spherical codes, so the bound lives here, below all of them.
"""

from __future__ import annotations

import math


def kl_bound(phi: float) -> float:
    """Asymptotic upper bound H(phi) on the rate for 0 < phi <= pi/2.

    H = a log2 a - b log2 b with a = (1+s)/(2s), b = (1-s)/(2s), s = sin phi,
    using the convention 0 * log 0 = 0 (forced at phi = pi/2).
    """
    if not (0.0 < phi <= math.pi / 2):
        raise ValueError(f"phi must be in (0, pi/2], got {phi}")
    s = math.sin(phi)
    a = (1.0 + s) / (2.0 * s)
    b = (1.0 - s) / (2.0 * s)
    val = a * math.log2(a)
    if b > 0.0:
        val -= b * math.log2(b)
    return val
