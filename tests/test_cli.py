import math
import time

import numpy as np
import pytest

from sphcodes import bounds, cli, spherical


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_unknown_subcommand_exits_2(capsys):
    rc, _out, _err = run(capsys, "frobnicate")
    assert rc == 2


def test_missing_file_exits_1(capsys, tmp_path):
    rc, _out, err = run(capsys, "embed", str(tmp_path / "nope.txt"))
    assert rc == 1
    assert "error:" in err


def test_bounds_single_point(capsys):
    rc, out, _ = run(capsys, "bounds", "--curve", "kl", "--phi",
                     str(math.pi / 6))
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "phi,cos_phi,R,curve"
    r = float(lines[1].split(",")[2])
    assert r == pytest.approx(bounds.kl_bound(math.pi / 6), rel=1e-11)


def test_figures_fig3_matches_library(capsys, tmp_path):
    out_path = tmp_path / "fig3.csv"
    rc, _o, _e = run(capsys, "figures", "--which", "fig3", "--n", "2",
                     "--m", "1..5", "--out", str(out_path))
    assert rc == 0
    text = out_path.read_text()
    lines = text.splitlines()
    assert len(lines) == 1 + 5 * 512
    curves = bounds.figure_curves("fig3", n=2, m_values=[1, 2, 3, 4, 5])
    expected_first = curves[0].rate[0]
    assert float(lines[1].split(",")[2]) == pytest.approx(expected_first,
                                                          rel=1e-11)


def test_figures_svg(capsys, tmp_path):
    out_path = tmp_path / "fig2.svg"
    rc, _o, _e = run(capsys, "figures", "--which", "fig2", "--format", "svg",
                     "--out", str(out_path))
    assert rc == 0
    assert out_path.read_text().count("<polyline") == 1


def test_embed_then_spoil_roundtrip(capsys, tmp_path):
    code_file = tmp_path / "code.txt"
    code_file.write_text("# demo\n0000\n0011\n0101\n0110\n")
    sph_file = tmp_path / "sph.txt"
    rc, _o, err = run(capsys, "embed", str(code_file), "--out", str(sph_file))
    assert rc == 0
    assert "[4,2,2]" in err
    loaded = spherical.load_spherical_code(sph_file.read_text())
    assert loaded.card == 4
    out_file = tmp_path / "up.txt"
    rc, _o, err = run(capsys, "spoil", str(sph_file), "--op", "up",
                      "--out", str(out_file))
    assert rc == 0
    spoiled = spherical.load_spherical_code(out_file.read_text())
    assert spoiled.dimension == 5
    assert spoiled.cos_min_angle == pytest.approx(0.2, abs=1e-9)


def test_spoil_op2_reports_xi(capsys, tmp_path):
    sph_file = tmp_path / "sph.txt"
    sph_file.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\n")
    rc, _o, err = run(capsys, "spoil", str(sph_file), "--op", "2",
                      "--line", "1,1,1", "--out", str(tmp_path / "o.txt"))
    assert rc == 0
    assert "xi=" in err and "u=" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
@pytest.mark.parametrize("flags", [[], ["--normalize"]])
def test_spoil_rejects_non_finite_coordinates(capsys, tmp_path, bad, flags):
    sph_file = tmp_path / "sph.txt"
    sph_file.write_text(f"dim 3\n1 0 0\n0 1 0\n0 0 {bad}\n")
    rc, out, err = run(capsys, "spoil", str(sph_file), "--op", "up", *flags,
                       "--out", str(tmp_path / "o.txt"))
    assert rc == 1
    assert err.count("error:") == 1
    assert "nan" not in out and "cos_phi" not in err
    assert not (tmp_path / "o.txt").exists()


def test_theta_output(capsys):
    rc, out, _ = run(capsys, "theta", "--lattice", "Z", "--dim", "2",
                     "--m-max", "5")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "m,count"
    counts = {float(l.split(",")[0]): l.split(",")[1] for l in lines[1:]}
    assert counts[1.0] == "4" and counts[5.0] == "8"


PACKING_FILES = {
    "nan-basis": "dim 2\n1 0\nnan 1\n",
    "bare-translates": "dim 2\n1 0\n0 1\ntranslates\n",
    "bad-radius": "dim 2\n1 0\n0 1\nradius r\n",
    "fractional-dim": "dim 2.5\n1 0\n0 1\n",
}


@pytest.mark.parametrize("argv", [
    ["theta", "--lattice", "E8", "--m-max", "nan"],
    ["theta", "--lattice", "E8", "--m-max", "inf"],
    ["theta", "--lattice", "E8", "--m-max", "1e300"],
    *(["theta", "--lattice-file", name] for name in sorted(PACKING_FILES)),
    ["shell", "--lattice", "Z", "--dim", "2", "--x0", "nan,0", "--u", "1"],
    ["shell", "--lattice", "Z", "--dim", "2", "--u", "inf"],
], ids=lambda argv: " ".join(argv[1:]))
def test_packing_queries_reject_bad_input(capsys, tmp_path, argv):
    if argv[1] == "--lattice-file":
        path = tmp_path / "packing.txt"
        path.write_text(PACKING_FILES[argv[2]])
        argv = [*argv[:2], str(path)]
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_theta_over_budget_fails_fast(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "theta", "--lattice", "E8", "--m-max", "1e9")
    assert time.perf_counter() - start < 10
    assert rc == 1 and out == ""
    assert err.startswith("error: enumeration exceeded ")


def test_kissing_output(capsys):
    rc, out, _ = run(capsys, "kissing", "--lattice", "A2")
    assert rc == 0
    assert "card 6" in out


def test_shell_output(capsys):
    rc, out, _ = run(capsys, "shell", "--lattice", "Z", "--dim", "2",
                     "--u", str(math.sqrt(2)))
    assert rc == 0
    assert "card 4" in out


def test_density_estimates(capsys):
    rc, out, _ = run(capsys, "density", "--n", "2", "--phi",
                     str(math.pi / 3))
    assert rc == 0
    assert "max_points_estimate 6" in out
    assert "packing_bound_proj 1.5" in out


def test_verify_exits_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "42")
    assert rc == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_atlas_budget_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv(cli.BUDGET_ENV, "50")
    out_a = tmp_path / "a.txt"
    rc, _o, _e = run(capsys, "atlas", "--phi-c", "0.4", "--out", str(out_a))
    assert rc == 0
    monkeypatch.delenv(cli.BUDGET_ENV)
    out_b = tmp_path / "b.txt"
    rc, _o, _e = run(capsys, "atlas", "--phi-c", "0.4", "--budget", "50",
                     "--out", str(out_b))
    assert rc == 0
    assert out_a.read_text() == out_b.read_text()
