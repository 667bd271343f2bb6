"""Output checks that do not trust the code under test.

Every check parses the program's text output itself and compares it with
a closed form or with a reference made earlier, using numpy only.  A check
raises ``CheckFailed`` on the first violation; it returns the work counts
read from the output when everything holds.
"""

from __future__ import annotations

import math
import re

import numpy as np

TOL = 1e-12


class CheckFailed(Exception):
    """An output disagrees with its closed form or with the reference."""


def _require(ok, message: str) -> None:
    if not bool(ok):
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# parsers
# ---------------------------------------------------------------------------

def parse_code(text: str) -> np.ndarray:
    """Points of a spherical-code file ("dim <n>" header, one point a line)."""
    rows = [ln.split("#", 1)[0].split() for ln in text.splitlines()]
    rows = [r for r in rows if r]
    _require(rows and len(rows[0]) == 2 and rows[0][0] == "dim",
             "code file has no 'dim <n>' header")
    dim = int(rows[0][1])
    pts = np.array([[float(t) for t in r] for r in rows[1:]], dtype=float)
    _require(pts.ndim == 2 and pts.shape[0] >= 1 and pts.shape[1] == dim,
             f"code file does not hold points of dimension {dim}")
    _require(np.all(np.isfinite(pts)), "code file holds a non-finite coordinate")
    return pts


def parse_atlas(text: str) -> dict:
    """Fields of an atlas snapshot: header values, points and envelope."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    head = dict(ln.split(" ", 1) for ln in lines[:3])
    n_points = int(head["points"])
    body = lines[3:3 + n_points]
    _require(len(body) == n_points, "atlas holds fewer points than its header")
    points = []
    for ln in body:
        rate, cos_phi, dim, card, prov = ln.split(" ", 4)
        points.append((float(rate), float(cos_phi), int(dim), int(card), prov))
    tag, cells = lines[3 + n_points].split()
    _require(tag == "envelope", "atlas has no envelope section")
    grid = np.array([[float(t) for t in ln.split()]
                     for ln in lines[4 + n_points:]], dtype=float)
    _require(grid.shape == (int(cells), 2), "envelope has the wrong size")
    return {"phi_c": float(head["phi_c"]), "a_c": int(head["a_c"]),
            "points": points, "grid": grid}


def stderr_value(text: str, key: str) -> float:
    """A ``key=value`` number from the CLI's '# ...' status line."""
    m = re.search(rf"\b{re.escape(key)}=(\S+)", text)
    _require(m is not None, f"no {key}= in the CLI's status line")
    return float(m.group(1))


# ---------------------------------------------------------------------------
# atlas
# ---------------------------------------------------------------------------

def kl_rate(phi: np.ndarray) -> np.ndarray:
    """H(phi) = a log2 a - b log2 b, a = (1+s)/2s, b = (1-s)/2s, s = sin phi."""
    s = np.sin(phi)
    a = (1.0 + s) / (2.0 * s)
    b = (1.0 - s) / (2.0 * s)
    blog = np.where(b > 0.0, b * np.log2(np.where(b > 0.0, b, 1.0)), 0.0)
    return a * np.log2(a) - blog


def check_atlas(text: str, reference: str | None) -> dict:
    """Invariants of any atlas dump, and agreement with a reference dump.

    Returns the work counts: points accepted (observed points that are not
    seeds) and seeds.
    """
    got = parse_atlas(text)
    pts = got["points"]
    rate = np.array([p[0] for p in pts])
    cos_phi = np.array([p[1] for p in pts])
    dim = np.array([p[2] for p in pts])
    card = np.array([p[3] for p in pts])
    _require(np.all(np.isfinite(rate)) and np.all(np.isfinite(cos_phi)),
             "atlas point with a non-finite number")
    _require(np.all(card >= 2) and np.all(dim >= 1), "atlas point with card < 2")
    _require(np.all(np.abs(rate - np.log2(card) / dim) <= TOL),
             "atlas rate differs from log2(card)/n")
    phi, env = got["grid"][:, 0], got["grid"][:, 1]
    _require(np.all(np.isfinite(got["grid"])), "envelope has a non-finite number")
    _require(np.all(np.diff(phi) > 0), "envelope grid is not increasing in phi")
    _require(np.all(np.diff(env) <= TOL), "envelope increases with phi")
    _require(np.all(env <= kl_rate(phi) + TOL), "envelope exceeds H(phi)")
    _require(np.all(env >= -TOL), "envelope is negative")
    if reference is not None:
        ref = parse_atlas(reference)
        _require(got["phi_c"] == ref["phi_c"] and got["a_c"] == ref["a_c"],
                 "atlas header differs from the reference")
        _require(len(pts) == len(ref["points"]),
                 f"atlas has {len(pts)} points, reference {len(ref['points'])}")
        for i, (p, q) in enumerate(zip(pts, ref["points"])):
            _require(p[2:] == q[2:], f"atlas point {i}: (n, card, provenance) "
                                     f"{p[2:]} != reference {q[2:]}")
            _require(abs(p[0] - q[0]) <= TOL and abs(p[1] - q[1]) <= TOL,
                     f"atlas point {i} differs from the reference")
        _require(got["grid"].shape == ref["grid"].shape
                 and np.all(np.abs(got["grid"] - ref["grid"]) <= TOL),
                 "envelope differs from the reference")
    seeds = sum(1 for p in pts if p[4].startswith("seed["))
    return {"points_accepted": len(pts) - seeds, "seeds": seeds}


# ---------------------------------------------------------------------------
# spoil
# ---------------------------------------------------------------------------

def check_projection(x: np.ndarray, line: np.ndarray, out_text: str,
                     stderr: str, block: int = 256) -> dict:
    """spoil --op 2: Gram of the output against (G - c c^T) / (r r^T).

    With c = X d and r = sqrt(1 - c^2) the Gram matrix of the projected and
    renormalized points does not depend on the basis the program chose.
    The comparison runs in row blocks so that it adds little to peak memory.
    """
    d = line / np.linalg.norm(line)
    y = parse_code(out_text)
    _require(y.shape == (x.shape[0], x.shape[1] - 1),
             f"projection output has shape {y.shape}, expected "
             f"{(x.shape[0], x.shape[1] - 1)}")
    c = x @ d
    r = np.sqrt(1.0 - c * c)
    for lo in range(0, x.shape[0], block):
        hi = min(lo + block, x.shape[0])
        want = (x[lo:hi] @ x.T - np.outer(c[lo:hi], c)) / np.outer(r[lo:hi], r)
        got = y[lo:hi] @ y.T
        _require(np.all(np.abs(got - want) <= TOL),
                 f"projected Gram differs from the formula in rows {lo}..{hi - 1}")
    xi = stderr_value(stderr, "xi")
    _require(abs(xi - float(np.min(r))) <= 1e-11 * max(1.0, abs(xi)),
             f"printed xi {xi!r} differs from min r {float(np.min(r))!r}")
    return {"points_in": x.shape[0], "points_out": y.shape[0]}


def check_spoil_down(out_text: str, stderr: str, n: int, card: int,
                     cos_phi: float) -> dict:
    """spoil --op down: the result's (n, card, cos phi) and unit norms."""
    y = parse_code(out_text)
    _require(y.shape == (card, n), f"down result has shape {y.shape}, "
                                   f"expected {(card, n)}")
    g = y @ y.T
    _require(np.all(np.abs(np.diag(g) - 1.0) <= TOL), "down result not unit")
    np.fill_diagonal(g, -np.inf)
    _require(abs(float(np.max(g)) - cos_phi) <= TOL,
             f"down result cos phi {float(np.max(g))!r}, expected {cos_phi!r}")
    printed = stderr_value(stderr, "cos_phi")
    _require(abs(printed - cos_phi) <= 1e-11, "printed cos_phi differs")
    return {"points_out": card}


# ---------------------------------------------------------------------------
# lattice
# ---------------------------------------------------------------------------

def sigma3(m: int) -> int:
    return sum(d ** 3 for d in range(1, m + 1) if m % d == 0)


def check_e8_theta(out_text: str, m_max: int) -> dict:
    """theta of E8: N(0) = 1 and N(2m) = 240 sigma_3(m) for 2m <= m_max."""
    rows = [ln.split(",") for ln in out_text.strip().splitlines()]
    _require(rows and rows[0] == ["m", "count"], "theta output has no header")
    got = [(float(m), int(c)) for m, c in rows[1:]]
    want = [(0.0, 1)] + [(2.0 * k, 240 * sigma3(k))
                         for k in range(1, m_max // 2 + 1)]
    _require(len(got) == len(want), f"theta has {len(got)} norms, "
                                    f"expected {len(want)}")
    for (m, c), (wm, wc) in zip(got, want):
        _require(abs(m - wm) <= 1e-9 and c == wc,
                 f"theta N({m:g}) = {c}, expected N({wm:g}) = {wc}")
    return {"vectors": sum(c for _, c in got)}


def check_e8_kissing(out_text: str, stdout: str) -> dict:
    """kissing of E8: 240 unit points whose minimum angle is pi/3."""
    y = parse_code(out_text)
    _require(y.shape == (240, 8), f"kissing output has shape {y.shape}")
    g = y @ y.T
    _require(np.all(np.abs(np.diag(g) - 1.0) <= TOL), "kissing points not unit")
    np.fill_diagonal(g, -np.inf)
    _require(abs(float(np.max(g)) - 0.5) <= TOL,
             f"kissing minimum angle has cos {float(np.max(g))!r}, not 1/2")
    _require(re.search(r"^card 240$", stdout, re.M) is not None,
             "kissing did not print card 240")
    m = re.search(r"^min_angle (\S+)$", stdout, re.M)
    _require(m is not None and abs(float(m.group(1)) - math.pi / 3) <= 1e-11,
             "kissing did not print min_angle pi/3")
    return {"vectors": 240}
