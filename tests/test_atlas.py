import gzip
import hashlib
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from sphcodes import atlas as atlas_mod
from sphcodes import binary, bounds, spherical
from sphcodes.errors import DegenerateCode


def small_build(budget=300, seed=0, phi_c=0.4):
    cutoff = bounds.CutoffRegion(phi_c)
    return atlas_mod.atlas_build(None, cutoff, budget, seed=seed)


def test_sylvester_hadamard_code():
    code = atlas_mod.sylvester_hadamard_code(3)
    assert code.length == 8
    assert code.card == 8
    assert code.min_distance == 4


def test_default_seeds_nonempty():
    seeds = atlas_mod.default_seeds()
    assert len(seeds) >= 10
    assert all(s.card >= 2 for s in seeds)


def test_budget_must_be_positive():
    with pytest.raises(ValueError):
        atlas_mod.atlas_build(None, bounds.CutoffRegion(0.4), 0)


def test_seed_must_be_non_negative():
    with pytest.raises(ValueError, match=r"seed must be >= 0, got -1"):
        atlas_mod.atlas_build(None, bounds.CutoffRegion(0.4), 5, seed=-1)


def test_all_seeds_degenerate_rejected():
    cutoff = bounds.CutoffRegion(0.4)
    single = bounds.simplex_code(2)
    lonely = type(single)(single.points[:1], check_distinct=False)
    with pytest.raises(ValueError):
        atlas_mod.atlas_build([lonely], cutoff, 100)


def test_envelope_invariants():
    atlas = small_build()
    assert atlas.phi_grid.size == 1024
    # non-increasing in phi
    assert np.all(np.diff(atlas.envelope) <= 1e-12)
    # bounded by the small-angle curve everywhere
    for phi, r in zip(atlas.phi_grid, atlas.envelope):
        assert r <= bounds.kl_bound(float(phi)) + 1e-9
        assert r >= 0.0
    # zero at the right angle
    assert atlas.alpha(math.pi / 2) == pytest.approx(0.0, abs=1e-12)


def test_alpha_is_never_above_h():
    atlas = small_build(budget=50)
    probe = np.linspace(0.4, math.pi / 2, 20_001)
    below_cells = np.nextafter(atlas.phi_grid, -math.inf)
    for phi in np.concatenate([probe, atlas.phi_grid, below_cells]).tolist():
        assert atlas.alpha(phi) <= bounds.kl_bound(min(phi, math.pi / 2))
    assert atlas.alpha(math.pi / 2) == 0.0


def test_build_ends_when_every_code_is_over_the_caps():
    # the build runs in a child process, so that a timeout stops it if it
    # walks a worklist of capped codes forever
    script = (
        "import numpy as np\n"
        "from sphcodes import atlas, bounds, spherical\n"
        "x = np.random.default_rng(0).standard_normal((600, 3))\n"
        "code = spherical.SphericalCode(x, normalize=True)\n"
        "a = atlas.atlas_build([code], bounds.CutoffRegion(0.4), 10)\n"
        "print([p.provenance for p in a.observed])\n"
    )
    src = Path(atlas_mod.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", script], cwd=src, capture_output=True,
                         text=True, check=True, timeout=60).stdout
    assert out == "['seed[0]']\n"


def test_unexpected_errors_leave_the_build(monkeypatch):
    def broken(code):
        raise ValueError("not a domain error")
    monkeypatch.setattr(spherical, "composite_spoil_up", broken)
    with pytest.raises(ValueError, match="not a domain error"):
        small_build(budget=50)


def test_an_op_outside_its_domain_yields_no_point(monkeypatch):
    # raising DegenerateCode builds the atlas that returning no code builds
    calls = {"none": 0, "raise": 0}

    def no_code(code):
        calls["none"] += 1

    def degenerate(code):
        calls["raise"] += 1
        raise DegenerateCode("outside the domain")

    monkeypatch.setattr(spherical, "composite_spoil_up", no_code)
    skipped = small_build(budget=50)
    monkeypatch.setattr(spherical, "composite_spoil_up", degenerate)
    failed = small_build(budget=50)
    assert calls["raise"] == calls["none"] > 0
    assert failed.observed == skipped.observed
    assert len(failed.observed) > len(atlas_mod.default_seeds())


def test_point_just_past_right_angle_is_not_an_anchor():
    # the window admits cos phi in [-1e-12, 0), where phi exceeds pi/2
    c = -1e-13
    code = spherical.SphericalCode([[1.0, 0.0], [c, math.sqrt(1.0 - c * c)]])
    cutoff = bounds.CutoffRegion(0.4)
    atlas = atlas_mod.atlas_build([code], cutoff, 1)
    seed_point = atlas.observed[0]
    assert seed_point.cos_phi == pytest.approx(c, abs=1e-16)
    assert seed_point.phi > math.pi / 2
    assert cutoff.contains(seed_point.cos_phi, seed_point.rate)
    assert seed_point not in atlas.dominated_anchors
    assert np.all(np.diff(atlas.envelope) <= 1e-12)


def test_observed_points_recorded():
    atlas = small_build(budget=200)
    n_seeds = len(atlas_mod.default_seeds())
    assert len(atlas.observed) > n_seeds
    for p in atlas.dominated_anchors:
        assert atlas.cutoff.contains(p.cos_phi, p.rate)


def test_reproducible_given_seed():
    a = atlas_mod.dump_atlas(small_build(budget=300, seed=7))
    b = atlas_mod.dump_atlas(small_build(budget=300, seed=7))
    assert a == b


def test_different_seed_differs():
    a = atlas_mod.dump_atlas(small_build(budget=300, seed=1))
    b = atlas_mod.dump_atlas(small_build(budget=300, seed=2))
    assert a != b


def test_multiplicity_report():
    atlas = small_build(budget=300)
    p = atlas.observed[0]
    report = atlas_mod.multiplicity_report(atlas, (p.cos_phi, p.rate),
                                           tolerance=0.05)
    assert report["count"] >= 1
    assert all(len(s) == 2 for s in report["shapes"])


def test_multiplicity_report_empty_atlas():
    atlas = atlas_mod.Atlas(cutoff=bounds.CutoffRegion(0.4))
    with pytest.raises(ValueError):
        atlas_mod.multiplicity_report(atlas, (0.5, 0.5))


def test_dump_contains_header_and_grid():
    atlas = small_build(budget=100)
    text = atlas_mod.dump_atlas(atlas)
    lines = text.splitlines()
    assert lines[0] == "# atlas snapshot"
    assert lines[1].startswith("phi_c ")
    assert f"envelope {atlas.phi_grid.size}" in text


def test_alpha_needs_an_envelope():
    with pytest.raises(ValueError, match="atlas has no envelope yet"):
        atlas_mod.Atlas(bounds.CutoffRegion(0.4)).alpha(0.5)


# -- pinned trajectories ------------------------------------------------------

REFERENCE_DIR = Path(__file__).resolve().parent.parent / "bench" / "reference"


def read_reference(seed):
    """Header, points and envelope of a reference dump of the benchmark's
    panel (phi_c 0.4, budget 500), read as text."""
    path = REFERENCE_DIR / f"atlas-b500-seed{seed}.txt.gz"
    lines = gzip.decompress(path.read_bytes()).decode().splitlines()[1:]
    head = dict(ln.split(" ", 1) for ln in lines[:3])
    count = int(head["points"])
    points = [ln.split(" ", 4) for ln in lines[3:3 + count]]
    grid = np.array([ln.split() for ln in lines[4 + count:]], dtype=float)
    assert lines[3 + count] == f"envelope {grid.shape[0]}"
    return head, points, grid


def check_invariants(atlas):
    rates = np.array([p.rate for p in atlas.observed])
    cards = np.array([p.card for p in atlas.observed])
    dims = np.array([p.dimension for p in atlas.observed])
    assert np.all(cards >= 2) and np.all(dims >= 1)
    assert np.all(np.isfinite([p.cos_phi for p in atlas.observed]))
    assert np.all(np.abs(rates - np.log2(cards) / dims) <= 1e-12)
    assert np.all(np.diff(atlas.phi_grid) > 0)
    assert np.all(np.diff(atlas.envelope) <= 1e-12)
    assert np.all(atlas.envelope >= -1e-12)
    assert all(r <= bounds.kl_bound(float(phi)) + 1e-12
               for phi, r in zip(atlas.phi_grid, atlas.envelope))


@pytest.mark.parametrize("seed", [0, 1, 2, 4, 5, 6, 7])
def test_panel_trajectory_matches_its_reference(seed):
    # every op keeps its outcome: (n, card, provenance) exactly, and the
    # numbers to 1e-12, as the benchmark checks them
    atlas = small_build(budget=500, seed=seed)
    head, points, grid = read_reference(seed)
    assert (float(head["phi_c"]), int(head["a_c"])) == (atlas.cutoff.phi_c, atlas.cutoff.a_c)
    assert [(p.dimension, p.card, p.provenance) for p in atlas.observed] == \
        [(int(n), int(card), prov) for _r, _c, n, card, prov in points]
    ref = np.array([(r, c) for r, c, *_ in points], dtype=float)
    got = np.array([(p.rate, p.cos_phi) for p in atlas.observed])
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert grid.shape == (atlas.phi_grid.size, 2)
    assert np.max(np.abs(np.column_stack([atlas.phi_grid, atlas.envelope]) - grid)) <= 1e-12
    check_invariants(atlas)


def test_panel_seed_without_a_reference_keeps_the_invariants():
    # seed 3 has no reference dump: the references were made while this
    # build failed on a kl_bound domain error (ROADMAP item 6)
    assert not (REFERENCE_DIR / "atlas-b500-seed3.txt.gz").exists()
    check_invariants(small_build(budget=500, seed=3))


def test_default_atlas_trajectory_is_pinned():
    # budget 10,000, seed 0: the digest pins the (n, card, provenance)
    # column of all its points
    atlas = small_build(budget=10_000, seed=0)
    assert (len(atlas.observed), len(atlas.dominated_anchors)) == (8084, 231)
    column = "\n".join(f"{p.dimension} {p.card} {p.provenance}" for p in atlas.observed)
    assert hashlib.sha256(column.encode()).hexdigest() == \
        "c25ca72f45aecef77a0c555d15b3055c0d6bc1bfb0009adb5b1ea38f8d30ec11"
