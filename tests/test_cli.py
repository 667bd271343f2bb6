import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

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


@pytest.mark.parametrize("m", ["-2", "-1", "1,2,-3", "-1..2"])
def test_figures_fig3_rejects_negative_m(capsys, m):
    rc, out, err = run(capsys, "figures", "--which", "fig3", "--n", "2", f"--m={m}")
    assert rc == 1
    assert out == ""
    assert err.startswith("error: m must be >= 0") and err.count("\n") == 1


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


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, flags", [
    ("dim 3\n1 0 0\n0 1 0\n", ["--op", "3", "--line", "nan,0,1"]),
    ("dim 3\n1 0 0\n0 1 0\n", ["--op", "2", "--line", "0,0,0"]),
    ("dim 3\n1 0 0\n0 1 0\n", ["--op", "2", "--line", "inf,0,1"]),
    ("dim 2\n1e200 0\n0 1\n", ["--op", "2"]),
], ids=["nan-line", "zero-line", "inf-line", "huge-coordinate"])
def test_spoil_rejects_bad_line_and_norm(capsys, tmp_path, text, flags):
    path = tmp_path / "code.txt"
    path.write_text(text)
    rc, out, err = run(capsys, "spoil", str(path), *flags)
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("text, flags, unit_text, unit_flags", [
    ("dim 3\n1 0 0\n0 1 0\n0 0 1\n", ["--line", "1e200,1e200,0"],
     "dim 3\n1 0 0\n0 1 0\n0 0 1\n", ["--line", "1,1,0"]),
    ("dim 3\n1e200 0 0\n0 1 0\n0 0 1\n", ["--line", "1,1,1", "--normalize"],
     "dim 3\n1 0 0\n0 1 0\n0 0 1\n", ["--line", "1,1,1"]),
], ids=["huge-line", "huge-coordinate-normalized"])
def test_spoil_accepts_extreme_magnitudes(capsys, tmp_path, text, flags,
                                         unit_text, unit_flags):
    outs = []
    for body, extra in ((text, flags), (unit_text, unit_flags)):
        path = tmp_path / "code.txt"
        path.write_text(body)
        rc, out, err = run(capsys, "spoil", str(path), "--op", "2", *extra)
        assert rc == 0 and "error" not in err
        outs.append(spherical.load_spherical_code(out).points)
    assert np.allclose(outs[0], outs[1], rtol=0, atol=1e-15)


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
    ["theta", "--lattice", "Z", "--dim", "0"],
    ["shell", "--lattice", "Z", "--dim", "2", "--x0", "1,2,3", "--u", "1"],
    ["density", "--n", "0", "--phi", "1"],
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


# file format read by each file-reading subcommand; "{}" is the file
FILE_COMMANDS = {
    "spoil": ("code", ["spoil", "{}", "--op", "2"]),
    "density": ("code", ["density", "--code", "{}"]),
    "embed": ("binary", ["embed", "{}"]),
    "theta": ("packing", ["theta", "--lattice-file", "{}"]),
    "kissing": ("packing", ["kissing", "--lattice-file", "{}"]),
    "shell": ("packing", ["shell", "--lattice-file", "{}", "--u", "1"]),
}


def valid_rows(fmt, n):
    """Token rows of a well-formed file of the format in dimension n."""
    if fmt == "binary":
        return [[format(k, f"0{n}b")] for k in range(2 ** n)]
    eye = [["1" if i == j else "0" for j in range(n)] for i in range(n)]
    if fmt == "code":
        return [["dim", str(n)], *eye, *[["-1" if t == "1" else t for t in row]
                                         for row in eye]]
    return [["dim", str(n)], *eye, ["translates", "2"], ["0"] * n, ["0.5"] * n]


@st.composite
def malformed_files(draw, fmt):
    n = draw(st.integers(2, 3))
    rows = valid_rows(fmt, n)
    kind = draw(st.sampled_from(["non-finite", "ragged", "bare-header", "bad-word"]))
    if kind == "bare-header":
        return f"dim {n}\n"
    row = rows[draw(st.integers(0, len(rows) - 1))]
    col = draw(st.integers(0, len(row) - 1))
    if kind == "non-finite":
        row[col] = draw(st.sampled_from(["nan", "inf", "-inf", "NaN", "Infinity"]))
    elif kind == "ragged":
        row[col] = row[col][:-1] if fmt == "binary" else ""
    elif fmt == "binary":
        word = row[col]
        at = draw(st.integers(0, len(word) - 1))
        row[col] = word[:at] + draw(st.sampled_from("2x-")) + word[at + 1:]
    else:
        row[col] += draw(st.sampled_from(["x", ",", "e"]))
    return "".join(" ".join(r) + "\n" for r in rows)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("command", sorted(FILE_COMMANDS))
@settings(max_examples=30, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_malformed_input_file_gives_one_error_line(capsys, tmp_path, command, data):
    fmt, argv = FILE_COMMANDS[command]
    path = tmp_path / "input.txt"
    path.write_text(data.draw(malformed_files(fmt), label="file"))
    rc, out, err = run(capsys, *(a.format(path) for a in argv))
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


# Gamma(n/2 + 1) in the sphere area overflows from n = 342 on, and the
# cardinality estimate 2^(n H(phi)) from n H(phi) >= 1024 on; cap_area(n, phi)
# takes sphere_area(n - 1), so n = 1300 and 2000 overflow there at phi = 1.2
OVERFLOWING = {("342", "0.5"): "sphere_area(n=342)",
               ("342", "1.2"): "sphere_area(n=342)",
               ("1300", "0.5"): "estimate_max_points(n=1300)",
               ("1300", "1.2"): "sphere_area(n=1299)",
               ("2000", "0.5"): "estimate_max_points(n=2000)",
               ("2000", "1.2"): "sphere_area(n=1999)",
               ("10000", "0.5"): "estimate_max_points(n=10000)",
               ("10000", "1.2"): "estimate_max_points(n=10000)"}


@pytest.mark.parametrize("n", ["342", "1300", "2000", "10000"])
@pytest.mark.parametrize("phi", ["0.5", "1.2"])
def test_density_overflow_gives_one_error_line(capsys, n, phi):
    rc, out, err = run(capsys, "density", "--n", n, "--phi", phi)
    assert rc == 1
    assert out == ""
    assert err == (f"error: {OVERFLOWING[n, phi]} cannot be computed: "
                   "a term exceeds the float range\n")


def test_verify_exits_zero(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "bounds", "--seed", "42")
    assert rc == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_atlas_budget_zero_is_rejected(capsys, tmp_path):
    out = tmp_path / "atlas.txt"
    rc, stdout, err = run(capsys, "atlas", "--budget", "0", "--out", str(out))
    assert rc == 1
    assert stdout == "" and not out.exists()
    assert err == "error: budget must be positive\n"
