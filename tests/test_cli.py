import math
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sphcodes import bounds, cli, emit, spherical


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_unknown_subcommand_exits_2(capsys):
    rc, _out, _err = run(capsys, "frobnicate")
    assert rc == 2


def test_missing_file_exits_1(capsys, tmp_path):
    path = tmp_path / "nope.txt"
    rc, out, err = run(capsys, "embed", str(path))
    assert (rc, out) == (1, "")
    assert err == f"error: input {str(path)!r}: No such file or directory\n"


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


@pytest.mark.parametrize("m, least", [pytest.param(m, least, id=m) for m, least in
                                      [("-2", -2), ("-1", -1), ("1,2,-3", -3), ("-1..2", -1)]])
def test_figures_fig3_rejects_negative_m(capsys, m, least):
    rc, out, err = run(capsys, "figures", "--which", "fig3", "--n", "2", f"--m={m}")
    assert rc == 1
    assert out == ""
    assert err == f"error: --m must be >= 0, got {least}\n"


@pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_figures_rejects_samples_below_1(capsys, which, samples):
    rc, out, err = run(capsys, "figures", "--which", which, f"--samples={samples}")
    assert rc == 1
    assert out == ""
    assert err == f"error: samples must be >= 1, got {samples}\n"


@pytest.mark.parametrize("which", ["fig1", "fig2", "fig3"])
def test_figures_one_sample(capsys, which):
    rc, out, _err = run(capsys, "figures", "--which", which, "--samples", "1")
    assert rc == 0
    assert len(out.splitlines()) == 1 + len(bounds.figure_curves(which, samples=1))


@pytest.mark.parametrize("argv, message", [
    (["figures", "--which", "fig1", "--n-range", "1..x"],
     "--n-range must be a list of numbers, got '1..x'"),
    (["figures", "--which", "fig3", "--m", "1..2..3"],
     "--m must be a list of numbers, got '1..2..3'"),
    (["figures", "--which", "fig3", "--m", "a"], "--m must be a list of numbers, got 'a'"),
    (["shell", "--lattice", "Z", "--dim", "2", "--u", "1", "--x0", "a,0"],
     "--x0 must be a list of numbers, got 'a,0'"),
    (["spoil", "{code}", "--op", "2", "--line", "a,b"],
     "--line must be a list of numbers, got 'a,b'"),
], ids=["n-range", "m-range", "m-word", "x0", "line"])
def test_malformed_number_list_names_its_option(capsys, tmp_path, argv, message):
    code = tmp_path / "code.txt"
    code.write_text("dim 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, *(a.format(code=code) for a in argv))
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("which, option, value, kwargs", [
    ("fig1", "--n-range", "3", {"n_values": [3]}),
    ("fig1", "--n-range", "2,5", {"n_values": [2, 5]}),
    ("fig3", "--m", "4", {"m_values": [4]}),
])
def test_number_list_of_one_element(capsys, which, option, value, kwargs):
    rc, out, err = run(capsys, "figures", "--which", which, option, value, "--samples", "8")
    assert rc == 0 and err == ""
    assert out == emit.curves_to_csv(bounds.figure_curves(which, samples=8, **kwargs))


@pytest.mark.parametrize("num", ["0", "-5", "2.5", "nan"])
def test_bounds_grid_count_must_be_a_positive_integer(capsys, num):
    rc, out, err = run(capsys, "bounds", "--grid", "0.1", "1", num)
    assert rc == 1
    assert out == ""
    assert err == f"error: --grid NUM must be an integer >= 1, got {float(num):g}\n"


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


@pytest.mark.parametrize("argv, message", [
    (["density", "--n", "2", "--phi", "nan"], "phi must be positive, got nan"),
    (["density", "--n", "2", "--phi", "0"], "phi must be positive, got 0.0"),
    (["theta", "--lattice", "Z", "--dim", "-1"], "Z^n needs n >= 1, got -1"),
    (["kissing", "--dim", "0"], "Z^n needs n >= 1, got 0"),
    (["theta", "--lattice", ""], "unknown lattice ''; known: ['A2', 'D4', 'E8', 'Z']"),
    (["theta", "--lattice", "E8", "--m-max", "inf"], "m_max must be >= 0 and finite, got inf"),
    (["theta", "--lattice", "E8", "--m-max", "nan"], "m_max must be >= 0 and finite, got nan"),
    (["shell", "--lattice", "A2", "--u", "1e300"],
     "u = 1e+300 is too large: the squared shell radius overflows"),
    (["density", "--code", ""], "--code needs a file name, got ''"),
    (["spoil", "", "--op", "up"], "input needs a file name, got ''"),
    (["embed", ""], "input needs a file name, got ''"),
    (["kissing", "--lattice", "A2", "--out", ""], "--out needs a file name, got ''"),
    (["shell", "--lattice", "A2", "--u", "1", "--out", ""], "--out needs a file name, got ''"),
    (["theta", "--lattice", "A2", "--out", ""], "--out needs a file name, got ''"),
    (["atlas", "--budget", "5", "--out", ""], "--out needs a file name, got ''"),
    (["theta", "--lattice", "D4", "--dim", "9"], "--dim applies only to Z"),
    (["kissing", "--lattice", "E8", "--dim", "3"], "--dim applies only to Z"),
    (["density", "--dim", "5", "--n", "3", "--phi", "1"], "--dim applies only to Z"),
    (["figures", "--which", "fig1", "--n-range", "5..3"], "empty --n-range range"),
    (["figures", "--which", "fig1", "--n-range", "0..2"], "--n-range must be >= 1, got 0"),
    (["figures", "--which", "fig3", "--m", "3..1"], "empty --m range"),
    (["figures", "--which", "fig3", "--n=-1", "--m", "1"], "n must be >= 1"),
    (["atlas", "--budget", "5", "--seed", "-1"], "seed must be >= 0, got -1"),
])
def test_domain_errors_name_their_input(capsys, argv, message):
    rc, out, err = run(capsys, *argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("command", [["theta"], ["kissing"], ["shell", "--u", "1"],
                                     ["density"]])
@pytest.mark.parametrize("option, message", [
    ("--lattice", "unknown lattice ''; known: ['A2', 'D4', 'E8', 'Z']"),
    ("--lattice-file", "--lattice-file needs a file name, got ''"),
])
def test_empty_lattice_options_are_errors(capsys, command, option, message):
    # an empty value is a name given, not an option left out
    rc, out, err = run(capsys, *command, option, "")
    assert (rc, out, err) == (1, "", f"error: {message}\n")


def test_dim_with_a_lattice_file_is_an_error(capsys, tmp_path):
    path = tmp_path / "packing.txt"
    path.write_text("dim 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, "theta", "--lattice-file", str(path), "--dim", "3")
    assert (rc, out, err) == (1, "", "error: --dim applies only to Z\n")


# a negative seed, on a code that a point row splits (no draw is made) and on
# one that only a drawn direction splits
SQUARE = "dim 2\n1 0\n-1 0\n0 1\n0 -1\n"
CROSS5 = "dim 3\n1 0 0\n-1 0 0\n0 1 0\n0 -1 0\n0 0 1\n"


@pytest.mark.parametrize("text", [SQUARE, CROSS5], ids=["square", "cross5"])
@pytest.mark.parametrize("op", ["2", "3", "down"])
def test_a_negative_seed_is_an_error(capsys, tmp_path, text, op):
    code, out_path = tmp_path / "code.txt", tmp_path / "out.txt"
    code.write_text(text)
    rc, out, err = run(capsys, "spoil", str(code), "--op", op, "--seed", "-1",
                       "--out", str(out_path))
    assert (rc, out, err) == (1, "", "error: seed must be >= 0, got -1\n")
    assert not out_path.exists()


# a mode option given to a mode that does not read it, or an empty value,
# which is a value given, not the option left out; "{code}" is a spherical
# code file and "{packing}" a packing file
REJECTED_OPTIONS = [
    (["spoil", "{code}", "--op", "2", "--lam", "0.5"], "--lam applies only to --op 1"),
    (["spoil", "{code}", "--op", "up", "--sign", "-"], "--sign applies only to --op 3 with --line"),
    (["spoil", "{code}", "--op", "1", "--phi-c", "0.2"], "--phi-c applies only to --op down"),
    (["spoil", "{code}", "--op", "2", "--line", "0,1", "--seed", "3"],
     "--seed applies only to --op down, and to --op 2 and 3 without --line"),
    (["spoil", "{code}", "--op", "3", "--sign", "-"], "--sign applies only to --op 3 with --line"),
    (["spoil", "{code}", "--op", "2", "--line", "0,1", "--sign", "-"],
     "--sign applies only to --op 3 with --line"),
    (["spoil", "{code}", "--op", "1", "--line", "0,1"], "--line applies only to --op 2 and 3"),
    (["spoil", "{code}", "--op", "up", "--seed", "0"],
     "--seed applies only to --op down, and to --op 2 and 3 without --line"),
    (["density", "--normalize"], "--normalize applies only to --code"),
    (["density", "--lattice", "E8", "--normalize"], "--normalize applies only to --code"),
    (["density", "--code", "{code}", "--lattice", "E8"],
     "--lattice applies only to density without --code"),
    (["density", "--code", "{code}", "--lattice-file", "{packing}"],
     "--lattice-file applies only to density without --code"),
    (["density", "--code", "{code}", "--n", "7"],
     "--n applies only to density without --code, --lattice or --lattice-file"),
    (["density", "--lattice", "E8", "--phi", "1"],
     "--phi applies only to density without --code, --lattice or --lattice-file"),
    (["figures", "--which", "fig2", "--n-range", "1..3"], "--n-range applies only to fig1"),
    (["figures", "--which", "fig1", "--m", "2"], "--m applies only to fig3"),
    (["figures", "--which", "fig2", "--n", "3"], "--n applies only to fig3"),
    (["bounds", "--curve", "kl", "--n", "5", "--phi", "0.5"], "--n applies only to --curve rankin"),
    (["bounds", "--phi", "0.5", "--grid", "0.1", "1", "5"],
     "--grid applies only to bounds without --phi"),
    (["theta", "--lattice", "E8", "--lattice-file", "{packing}"],
     "--lattice applies only to theta without --lattice-file"),
    (["kissing", "--lattice", "Z", "--lattice-file", "{packing}"],
     "--lattice applies only to kissing without --lattice-file"),
    (["shell", "--u", "1", "--lattice", "A2", "--lattice-file", "{packing}"],
     "--lattice applies only to shell without --lattice-file"),
    (["figures", "--which", "fig3", "--m", ""], "--m must be a list of numbers, got ''"),
    (["figures", "--which", "fig1", "--n-range", ""],
     "--n-range must be a list of numbers, got ''"),
    (["spoil", "{code}", "--op", "2", "--line", ""], "--line must be a list of numbers, got ''"),
    (["shell", "--u", "1", "--x0", ""], "--x0 must be a list of numbers, got ''"),
]


def mode_files(tmp_path, argv):
    """``argv`` with "{code}" and "{packing}" replaced by files written under
    ``tmp_path``."""
    code, packing = tmp_path / "code.txt", tmp_path / "packing.txt"
    code.write_text("dim 3\n1 0 0\n0 1 0\n0 0 1\n-1 0 0\n0 -1 0\n0 0 -1\n")
    packing.write_text("dim 2\n1 0\n0 1\n")
    return [a.format(code=code, packing=packing) for a in argv]


@pytest.mark.parametrize("argv, message", REJECTED_OPTIONS,
                         ids=[" ".join(argv) for argv, _m in REJECTED_OPTIONS])
def test_an_option_the_mode_does_not_read_is_an_error(capsys, tmp_path, argv, message):
    out_path = tmp_path / "out.txt"
    with_out = [] if argv[0] == "density" else ["--out", str(out_path)]
    rc, out, err = run(capsys, *mode_files(tmp_path, argv), *with_out)
    assert (rc, out, err) == (1, "", f"error: {message}\n")
    assert not out_path.exists()


# (a run that gives mode options at their defaults, the same run without them)
MODE_DEFAULTS = [
    (["spoil", "{code}", "--op", "1", "--lam", "0.9"], ["spoil", "{code}", "--op", "1"]),
    (["spoil", "{code}", "--op", "1", "--normalize"], ["spoil", "{code}", "--op", "1"]),
    (["spoil", "{code}", "--op", "2", "--seed", "0"], ["spoil", "{code}", "--op", "2"]),
    (["spoil", "{code}", "--op", "3", "--seed", "0"], ["spoil", "{code}", "--op", "3"]),
    (["spoil", "{code}", "--op", "3", "--line", "0,0,1", "--sign", "+"],
     ["spoil", "{code}", "--op", "3", "--line", "0,0,1"]),
    (["spoil", "{code}", "--op", "down", "--phi-c", "0.3", "--seed", "0"],
     ["spoil", "{code}", "--op", "down"]),
    (["density", "--code", "{code}", "--normalize"], ["density", "--code", "{code}"]),
    (["density", "--n", "2", "--phi", repr(math.pi / 3)], ["density"]),
    (["density", "--lattice", "Z", "--dim", "2"], ["density", "--lattice", "Z"]),
    (["figures", "--which", "fig1", "--n-range", "1..10", "--samples", "8"],
     ["figures", "--which", "fig1", "--samples", "8"]),
    (["figures", "--which", "fig3", "--n", "2", "--m", "1..5", "--samples", "8"],
     ["figures", "--which", "fig3", "--samples", "8"]),
    (["bounds", "--curve", "rankin", "--n", "2", "--grid", "1.6", "3.1", "8"],
     ["bounds", "--curve", "rankin", "--grid", "1.6", "3.1", "8"]),
    (["bounds", "--grid", "0.1", repr(math.pi / 2), "64"], ["bounds"]),
    (["kissing", "--lattice", "Z", "--dim", "2"], ["kissing"]),
    (["theta", "--lattice-file", "{packing}"], ["theta"]),
]


@pytest.mark.parametrize("argv, plain", MODE_DEFAULTS,
                         ids=[" ".join(argv) for argv, _p in MODE_DEFAULTS])
def test_mode_options_at_their_defaults_change_nothing(capsys, tmp_path, argv, plain):
    given = run(capsys, *mode_files(tmp_path, argv))
    assert given[0] == 0 and given[1]
    assert given == run(capsys, *mode_files(tmp_path, plain))


def test_one_parser_serves_every_call(capsys, tmp_path, monkeypatch):
    # main builds its parser once; every call must print what a freshly
    # built parser gives, whatever the calls before it parsed
    argvs = [mode_files(tmp_path, argv) for argv, _m in REJECTED_OPTIONS]
    for argv, plain in MODE_DEFAULTS:
        argvs += [mode_files(tmp_path, argv), mode_files(tmp_path, plain)]
    argvs += [[], ["frobnicate"], ["spoil", "x.txt"], ["verify", "--seed", "0"],
              ["shell", "--u", "-inf"], ["bounds", "--grid", "1", "2"], ["theta", "--help"],
              ["figures", "--which", "fig3", "--samples", "4"], ["verify", "--suite", "bounds"]]
    assert cli._parser() is cli._parser()
    shared = [run(capsys, *argv) for argv in argvs * 2]
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    fresh = [run(capsys, *argv) for argv in argvs * 2]
    assert {rc for rc, _out, _err in shared} == {0, 1, 2}
    for argv, got, want in zip(argvs * 2, shared, fresh):
        assert got == want, argv


def test_verify_takes_no_seed(capsys):
    rc, out, err = run(capsys, "verify", "--seed", "0")
    assert (rc, out) == (2, "")
    assert err.endswith("error: unrecognized arguments: --seed 0\n")


def test_u_starting_with_a_dash_needs_the_equals_form(capsys):
    # argparse reads "-inf" as an option; README documents --u=-inf
    rc, out, _err = run(capsys, "shell", "--lattice", "Z", "--u", "-inf")
    assert (rc, out) == (2, "")


def test_lattice_defaults_to_z_of_dim(capsys):
    assert run(capsys, "theta", "--m-max", "2") == run(capsys, "theta", "--lattice", "Z",
                                                       "--m-max", "2")
    rc, out, _ = run(capsys, "kissing", "--dim", "3")
    assert rc == 0 and out.startswith("card 6\n")
    assert run(capsys, "theta", "--lattice", "Z", "--dim", "3", "--m-max", "1") == (
        0, "m,count\n0,1\n1,6\n", "")
    assert run(capsys, "theta", "--m-max", "1") == (0, "m,count\n0,1\n1,4\n", "")
    assert run(capsys, "density", "--lattice", "Z", "--dim", "5") == (
        0, "packing_density 0.164493406685\n", "")


def test_theta_over_budget_fails_fast(capsys):
    start = time.perf_counter()
    rc, out, err = run(capsys, "theta", "--lattice", "E8", "--m-max", "1e9")
    assert time.perf_counter() - start < 10
    assert rc == 1 and out == ""
    assert err == "error: enumeration exceeded 10000000 nodes\n"


def test_kissing_output(capsys):
    rc, out, _ = run(capsys, "kissing", "--lattice", "A2")
    assert rc == 0
    assert "card 6" in out


def test_kissing_failure_prints_nothing_to_stdout(capsys, tmp_path):
    out_path = tmp_path / "kiss.txt"
    rc, out, err = run(capsys, "kissing", "--lattice", "Z", "--dim", "1",
                       "--out", str(out_path))
    assert rc == 1
    assert out == ""
    assert err == "error: n must be >= 2\n"
    assert not out_path.exists()


@pytest.mark.parametrize("argv", [["kissing", "--lattice", "A2"],
                                  ["shell", "--lattice", "A2", "--u", "1"]])
def test_unwritable_out_prints_nothing_to_stdout(capsys, tmp_path, argv):
    out_path = tmp_path / "missing" / "code.txt"
    rc, out, err = run(capsys, *argv, "--out", str(out_path))
    assert rc == 1
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")


def test_spoil_write_failure_prints_only_the_error(capsys, tmp_path):
    # the "# xi" note follows the write, so a failed write prints only the error
    path = tmp_path / "code.txt"
    path.write_text("dim 2\n1 0\n0 1\n")
    out_path = tmp_path / "missing" / "code.txt"
    rc, out, err = run(capsys, "spoil", str(path), "--op", "2", "--line", "1,1",
                       "--out", str(out_path))
    assert (rc, out) == (1, "")
    assert err == f"error: --out {str(out_path)!r}: No such file or directory\n"


@pytest.mark.parametrize("text, op_args", [
    ("dim 2\n1 0\n0 1\n", ["--op", "3", "--line", "1,-1"]),
    ("dim 2\n1 0\n", ["--op", "1"]),
    ("dim 2\n1 0\n", ["--op", "up"]),
])
@pytest.mark.parametrize("to_file", [False, True])
def test_spoil_to_one_point_prints_only_the_error(capsys, tmp_path, text, op_args, to_file):
    # a one-point result has no minimum angle for the "# result" note, which
    # is computed before the code is printed or written
    path = tmp_path / "code.txt"
    path.write_text(text)
    out_path = tmp_path / "out.txt"
    rc, out, err = run(capsys, "spoil", str(path), *op_args,
                       *(["--out", str(out_path)] if to_file else []))
    assert (rc, out) == (1, "")
    assert err == "error: minimum angle needs at least two points\n"
    assert not out_path.exists()


@pytest.mark.parametrize("lam", ["0", "1e-17", "5e-17", "1e-320"])
def test_spoil_with_a_lambda_that_collapses_prints_one_error(capsys, tmp_path, lam):
    # sqrt(1 - lambda) rounds to 1: the error names lambda, not an offset
    path = tmp_path / "code.txt"
    path.write_text("dim 2\n1 0\n0 1\n")
    rc, out, err = run(capsys, "spoil", str(path), "--op", "1", "--lam", lam)
    assert (rc, out) == (1, "")
    assert err == (f"error: lambda = {float(lam)!r} maps every point to a single pole: "
                   "sqrt(1 - lambda) rounds to 1\n")


def test_spoil_down_on_a_line_prints_one_error(capsys, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("dim 1\n1\n-1\n")
    rc, out, err = run(capsys, "spoil", str(path), "--op", "down", "--phi-c", "1.5")
    assert (rc, out) == (1, "")
    assert err == "error: the pipeline projects twice, so it needs n >= 3, got n = 1\n"


def test_library_warning_prints_one_line(capsys, tmp_path):
    path = tmp_path / "code.txt"
    path.write_text("dim 2\n1 0\n0 1\n-1 0\n")
    rc, out, err = run(capsys, "spoil", str(path), "--op", "2", "--line", "1,1")
    assert (rc, out) == (0, "dim 1\n-1\n1\n")
    assert err.splitlines() == ["warning: spoil2 merged 1 coinciding projections",
                                "# xi=0.707106781187 u=1",
                                "# result n=1 card=2 cos_phi=-1"]


@pytest.mark.parametrize("argv", [["kissing", "--lattice", "A2"],
                                  ["shell", "--lattice", "A2", "--u", "1"]])
def test_out_dash_prints_the_code_after_the_result_lines(capsys, argv):
    rc, out, _ = run(capsys, *argv, "--out", "-")
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "card 6" and lines[3] == "dim 2" and len(lines) == 10


@pytest.mark.parametrize("argv, message", [
    (["--u", "nan"], "u must be positive and finite, got nan"),
    (["--u", "inf"], "u must be positive and finite, got inf"),
    (["--u=-inf"], "u must be positive and finite, got -inf"),
    (["--u", "0"], "u must be positive and finite, got 0.0"),
    (["--u", "1", "--x0", "nan,0"], "x0 must have finite coordinates"),
    (["--u", "1", "--x0", "0,inf"], "x0 must have finite coordinates"),
])
def test_shell_rejects_non_finite_arguments_by_name(capsys, argv, message):
    rc, out, err = run(capsys, "shell", "--lattice", "Z", "--dim", "2", *argv)
    assert rc == 1
    assert out == ""
    assert err == f"error: {message}\n"


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


def test_density_estimate_past_a_right_angle(capsys):
    rc, out, _ = run(capsys, "density", "--n", "3", "--phi", "2.0")
    assert rc == 0
    assert out.splitlines()[0] == "max_points_estimate 3.40299796172 (large-angle-bound)"


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
    rc, out, _ = run(capsys, "verify", "--suite", "bounds")
    assert rc == 0
    assert "[PASS]" in out
    assert "[FAIL]" not in out


def test_atlas_budget_zero_is_rejected(capsys, tmp_path):
    out = tmp_path / "atlas.txt"
    rc, stdout, err = run(capsys, "atlas", "--budget", "0", "--out", str(out))
    assert rc == 1
    assert stdout == "" and not out.exists()
    assert err == "error: budget must be positive\n"


def test_verify_packings_checks_theta_closed_forms(capsys):
    rc, out, _ = run(capsys, "verify", "--suite", "packings")
    assert rc == 0
    assert "[FAIL]" not in out
    assert "[PASS] packings: E8 theta counts N(2m) = 240 sigma_3(m) for m <= 4" in out
    assert ("[PASS] packings: Z^4 theta counts are Jacobi's r_4(m) = 8 sigma(m) - 32 sigma(m/4)"
            " for m <= 8") in out
