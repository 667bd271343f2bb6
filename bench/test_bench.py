"""Tests of the benchmark itself: the checks fail on corrupted outputs, and
the runner counts raising, failing and wrong tasks without stopping.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import math
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from spans import Tracer  # noqa: E402


def code_text(points) -> str:
    return workloads._code_text(np.asarray(points))


def projected(x, d):
    """Projection off d written in an orthonormal basis found by SVD."""
    basis = np.linalg.svd(d[None, :])[2][1:].T  # (n, n-1), orthogonal to d
    c = x @ d
    return (x - np.outer(c, d)) @ basis / np.sqrt(1.0 - c * c)[:, None], c


@pytest.fixture
def projection_case():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((60, 6))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    d = rng.standard_normal(6)
    d /= np.linalg.norm(d)
    y, c = projected(x, d)
    stderr = f"# xi={float(np.min(np.sqrt(1 - c * c))):.12g} u=0\n"
    return x, d, y, stderr


def test_projection_check_accepts_exact_output(projection_case):
    x, d, y, stderr = projection_case
    counts = checks.check_projection(x, d, code_text(y), stderr, block=16)
    assert counts == {"points_in": 60, "points_out": 60}


def test_projection_check_rejects_perturbed_gram_entry(projection_case):
    x, d, y, stderr = projection_case
    y = y.copy()
    y[5, 2] += 1e-9
    with pytest.raises(checks.CheckFailed, match="Gram"):
        checks.check_projection(x, d, code_text(y), stderr)


def test_projection_check_rejects_nan(projection_case):
    x, d, y, stderr = projection_case
    y = y.copy()
    y[0, 0] = np.nan
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_projection(x, d, code_text(y), stderr)


def test_projection_check_rejects_wrong_xi(projection_case):
    x, d, y, _ = projection_case
    with pytest.raises(checks.CheckFailed, match="xi"):
        checks.check_projection(x, d, code_text(y), "# xi=0.5 u=3\n")


def test_spoil_of_nan_input_is_a_failed_task(tmp_path):
    """spoil exits 0 with cos_phi=nan on such input; the check catches it."""
    import sphcodes.cli

    rng = np.random.default_rng(3)
    x = rng.standard_normal((20, 4))
    x /= np.linalg.norm(x, axis=1, keepdims=True)
    x[4, 1] = np.nan
    path = tmp_path / "nan.txt"
    path.write_text(code_text(x))
    d = np.array([0.5, 0.5, 0.5, 0.5])
    task = workloads.Task(
        label="nan", calls=[["spoil", str(path), "--op", "2",
                             "--line=0.5,0.5,0.5,0.5", "--out", workloads.OUT]],
        check=lambda texts, streams: checks.check_projection(
            x, d, texts[0], streams[0][1]),
        work="points_in")
    attempts, _ = run.run_loop([task], 0.0, sphcodes.cli.main, tmp_path)
    run.check_attempts(attempts)
    assert len(attempts) == 1 and attempts[0].error is not None
    assert run.summary(attempts, 1.0, 1)["failed"] == 1


def test_loop_counts_raise_exit_and_wrong_output_and_continues(tmp_path):
    def fake_main(argv):
        kind, out = argv[0], Path(argv[-1])
        if kind == "raise":
            raise RuntimeError("boom")
        if kind == "exit":
            print("error: bad input", file=sys.stderr)
            return 1
        out.write_text("right" if kind == "good" else "wrong")
        return 0

    def check(texts, streams):
        if texts[0] != "right":
            raise checks.CheckFailed("wrong output")
        return {"units": 5}

    tasks = [workloads.Task(label=k, calls=[[k, workloads.OUT]], check=check,
                            work="units", expected={"ok": True, "units": 5})
             for k in ("raise", "good", "exit", "bad", "good")]
    attempts, wall = run.run_loop(tasks, 0.0, fake_main, tmp_path)
    run.check_attempts(attempts)
    s = run.summary(attempts, wall, len(tasks))
    assert (s["tasks"], s["failed"], s["check_failures"]) == (5, 3, 1)
    assert s["work"] == 10
    assert "raised RuntimeError" in attempts[0].error
    assert "exited 1: error: bad input" in attempts[2].error
    changes = run.behaviour_changes(attempts)
    assert sorted(c.split(":")[0] for c in changes) == ["bad", "exit", "raise"]


def test_loop_runs_whole_passes_until_time_is_up(tmp_path):
    def fake_main(argv):
        Path(argv[-1]).write_text("x")
        return 0

    tasks = [workloads.Task(label=str(i), calls=[["t", workloads.OUT]],
                            check=lambda t, s: {}, work="units") for i in range(3)]
    attempts, wall = run.run_loop(tasks, 0.05, fake_main, tmp_path)
    passes = len(attempts) // 3
    assert len(attempts) % 3 == 0 and wall + 0.5 * wall / passes >= 0.05


def test_setup_probes_time_fresh_processes():
    samples = run.setup_seconds("lattice", 0)
    assert len(samples) == run.SETUP_PROBES and all(t > 0 for t in samples)


@pytest.fixture(scope="module")
def atlas_reference():
    text = workloads.atlas_reference(0)
    assert text is not None
    return text


def test_atlas_check_accepts_reference(atlas_reference):
    counts = checks.check_atlas(atlas_reference, atlas_reference)
    expected = workloads.expected_counts()["spoiling"]["atlas seed 0"]
    assert counts["points_accepted"] == expected["points_accepted"]


def _edit_point(text: str, index: int, edit) -> str:
    lines = text.splitlines()
    first = next(i for i, ln in enumerate(lines) if ln.startswith("points "))
    lines[first + 1 + index] = edit(lines[first + 1 + index].split(" "))
    return "\n".join(lines) + "\n"


def test_atlas_check_rejects_perturbed_number(atlas_reference):
    def bump(f):
        return " ".join([repr(float(f[0]) + 1e-9)] + f[1:])
    bad = _edit_point(atlas_reference, 40, bump)
    with pytest.raises(checks.CheckFailed):
        checks.check_atlas(bad, atlas_reference)


def test_atlas_check_rejects_changed_provenance(atlas_reference):
    bad = _edit_point(atlas_reference, 40, lambda f: " ".join(f[:4] + ["op[1]"]))
    with pytest.raises(checks.CheckFailed, match="provenance"):
        checks.check_atlas(bad, atlas_reference)


def test_atlas_check_rejects_nan_and_rising_envelope(atlas_reference):
    bad = _edit_point(atlas_reference, 3, lambda f: " ".join([f[0], "nan"] + f[2:]))
    with pytest.raises(checks.CheckFailed, match="non-finite"):
        checks.check_atlas(bad, None)
    lines = atlas_reference.splitlines()
    phi, r = lines[-1].split()
    lines[-1] = f"{phi} {float(r) + 0.01!r}"
    with pytest.raises(checks.CheckFailed, match="envelope"):
        checks.check_atlas("\n".join(lines) + "\n", None)


def e8_roots() -> np.ndarray:
    """The 240 minimal vectors of E8, built independently of the package."""
    roots = []
    for i in range(8):
        for j in range(i + 1, 8):
            for si in (1, -1):
                for sj in (1, -1):
                    v = np.zeros(8)
                    v[i], v[j] = si, sj
                    roots.append(v)
    for m in range(256):
        signs = np.array([-1 if m >> k & 1 else 1 for k in range(8)])
        if np.sum(signs < 0) % 2 == 0:
            roots.append(0.5 * signs)
    return np.array(roots) / math.sqrt(2.0)


def test_lattice_checks_accept_closed_forms_and_reject_corruption():
    theta = "m,count\n0,1\n" + "".join(
        f"{2 * k},{240 * checks.sigma3(k)}\n" for k in range(1, 7))
    assert checks.check_e8_theta(theta, 12) == {"vectors": 117361}
    with pytest.raises(checks.CheckFailed):
        checks.check_e8_theta(theta.replace(",2160\n", ",2161\n"), 12)
    roots = e8_roots()
    stdout = f"card 240\nmin_angle {math.pi / 3:.12g}\n"
    assert checks.check_e8_kissing(code_text(roots), stdout) == {"vectors": 240}
    roots[7] = roots[8]
    with pytest.raises(checks.CheckFailed):
        checks.check_e8_kissing(code_text(roots), stdout)


def test_down_check_rejects_perturbed_gram_entry():
    c = -math.cos(0.3) / 15
    gram = np.full((4, 4), c) + (1 - c) * np.eye(4)
    y = np.zeros((4, 15))
    y[:, :4] = np.linalg.cholesky(gram)
    stderr = f"# result n=15 card=4 cos_phi={c:.12g}\n"
    assert checks.check_spoil_down(code_text(y), stderr, 15, 4, c)["points_out"] == 4
    y[1, 0] += 1e-9
    with pytest.raises(checks.CheckFailed):
        checks.check_spoil_down(code_text(y), stderr, 15, 4, c)


def test_tracer_wraps_every_binding_and_restores():
    from sphcodes import atlas, bounds, packings

    original = bounds.kl_bound
    tracer = Tracer().install()
    try:
        assert atlas.kl_bound is bounds.kl_bound is not original
        atlas.kl_bound(0.5)
        with pytest.raises(ValueError):
            bounds.kl_bound(2.0)
        bounds.CutoffRegion(0.4).contains(0.1, 0.1)
        list(packings.enumerate_quadratic(np.eye(2), np.zeros(2), 1.0))
    finally:
        tracer.restore()
    assert atlas.kl_bound is original and bounds.kl_bound is original
    m = tracer.layer_metrics()
    assert m["bounds.kl_bound.calls"][0] >= 3  # contains -> rate_cap -> kl_bound
    assert m["bounds.kl_bound.errors"][0] == 1
    assert m["bounds.CutoffRegion.contains.calls"][0] == 1
    assert m["packings.enumerate_quadratic.points"][0] == 5
    assert m["packings.enumerate_quadratic.calls"][0] == 1
