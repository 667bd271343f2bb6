"""The small-angle rate bound H(phi), in a module with no package imports.

``spherical`` and ``packings`` need H(phi) and ``bounds`` needs the
spherical codes, so the bound lives here, below all of them.
"""

from __future__ import annotations

import math

_LN2 = math.log(2.0)


def kl_bound(phi: float) -> float:
    """Asymptotic upper bound H(phi) on the rate for 0 < phi <= pi/2.

    H = a log2 a - b log2 b with a = (1+s)/(2s), b = (1-s)/(2s), s = sin phi,
    using the convention 0 * log 0 = 0 (forced at phi = pi/2).  Both terms
    grow like 1/s, so H is evaluated without their difference: a - b = 1
    gives H = log2 a + b log2(1 + 1/b), where log2 a = log2(1+s) - 1 - log2 s
    and b log2(1 + 1/b) = log1p(t) / (t ln 2) with t = 1/b = 2s/(1-s).
    """
    if not (0.0 < phi <= math.pi / 2):
        raise ValueError(f"phi must be in (0, pi/2], got {phi}")
    s = math.sin(phi)
    val = math.log2(1.0 + s) - 1.0 - math.log2(s)
    if s < 1.0:  # b > 0
        t = 2.0 * s / (1.0 - s)
        val += math.log1p(t) / t / _LN2
    return val
