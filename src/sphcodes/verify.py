"""Self-check suites usable from the command line.

Each suite yields ``(label, ok)`` pairs for a handful of cheap invariant
checks; they mirror (but do not replace) the pytest suite.
"""

from __future__ import annotations

import math

import numpy as np

from . import binary, bounds, packings, spherical


def verify_spoiling():
    rng = np.random.default_rng(0)
    code = binary.embed_binary(
        binary.BinaryCode(["0000", "0011", "0101", "0110"])
    )
    yield ("embedding identity cos = 1 - 2d/n",
           abs(code.cos_min_angle - (1 - 2 * 2 / 4)) < 1e-12)

    lam = float(rng.uniform(0.3, 1.0))
    up = spherical.spoil1_lambda(code, lam)
    expect = lam * code.cos_min_angle + 1 - lam
    yield ("section embedding moves cos by lam*cos + 1 - lam",
           abs(up.cos_min_angle - expect) < 1e-9)

    line, sign, count = spherical.find_balanced_line(code)
    half = spherical.spoil3(code, line, sign)
    yield ("hemisphere restriction keeps at least half the points",
           code.card / 2 <= half.card < code.card)
    yield ("hemisphere restriction never shrinks the minimum angle",
           half.card < 2 or half.min_angle >= code.min_angle - 1e-12)


def verify_bounds():
    yield ("H(pi/2) = 0", abs(bounds.kl_bound(math.pi / 2)) < 1e-12)
    h = bounds.kl_bound(math.pi / 6)
    expect = 1.5 * math.log2(1.5) + 0.5
    yield ("H(pi/6) closed form", abs(h - expect) < 1e-12)
    simplex = bounds.simplex_code(4)
    card_bound, _ = bounds.rankin_curve(4, simplex.min_angle)
    yield ("simplex attains the large-angle cardinality bound",
           abs(card_bound - simplex.card) < 1e-6)
    regs = bounds.ControllingRegions((0.4, 0.3), bounds.CutoffRegion(0.5))
    ax, ay = regs.anchor
    ok = abs(regs.line1(ax) - ay) < 1e-12 and abs(regs.line2(ax) - ay) < 1e-12
    for x in (0.1, 0.4, 0.7):
        lo, hi = sorted((regs.line1(x), regs.line2(x)))
        ok = ok and regs.membership((x, hi + 0.1)) == "U" and regs.membership((x, lo - 0.1)) == "D"
    yield ("controlling regions: the anchor is on both lines, U above them, D below", ok)


def _sigma(m: int, power: int = 1) -> int:
    """Sum of d**power over the divisors d of m."""
    return sum(d ** power for d in range(1, m + 1) if m % d == 0)


def verify_packings():
    z2 = packings.integer_lattice(2)
    theta = packings.theta_lattice(z2, 5.0)
    yield ("square lattice theta counts",
           [theta.count(m) for m in (1, 2, 4, 5)] == [4, 4, 4, 8])
    e8 = packings.e8_lattice()
    yield ("dense 8-dimensional lattice has 240 minimal vectors",
           packings.theta_lattice(e8, 2.0).count(2) == 240)
    theta = packings.theta_lattice(e8, 8.0)
    yield ("E8 theta counts N(2m) = 240 sigma_3(m) for m <= 4",
           theta.norms == [0, 2, 4, 6, 8]
           and all(theta.count(2 * m) == 240 * _sigma(m, 3) for m in range(1, 5)))
    theta = packings.theta_lattice(packings.integer_lattice(4), 8.0)
    yield ("Z^4 theta counts are Jacobi's r_4(m) = 8 sigma(m) - 32 sigma(m/4) for m <= 8",
           theta.norms == list(range(9))
           and all(theta.count(m) == 8 * _sigma(m) - (32 * _sigma(m // 4) if m % 4 == 0 else 0)
                   for m in range(1, 9)))
    hexagonal = packings.touching_packing(packings.hexagonal_lattice())
    kiss = packings.kissing_configuration(hexagonal)
    yield ("hexagonal kissing configuration has 6 points at pi/3",
           kiss.card == 6 and abs(kiss.min_angle - math.pi / 3) < 1e-9)
    yield ("hexagonal packing density pi / sqrt(12)",
           abs(packings.packing_density(hexagonal)
               - math.pi / math.sqrt(12)) < 1e-12)
