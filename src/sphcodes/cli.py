"""Command-line front end.

Subcommands: bounds, figures, embed, spoil, atlas, theta, kissing, shell,
density, verify.  Exit codes: 0 success, 1 domain error, 2 usage error.
Human-facing numbers are printed with 12 significant digits; code files
use 17 for round-trip safety.
"""

from __future__ import annotations

import argparse
import math
import sys
import warnings
from pathlib import Path

import numpy as np

from . import atlas as atlas_mod
from . import binary, bounds, emit, geometry, packings, spherical, verify
from .emit import fmt
from .errors import SphCodesError


def _write(path: str | None, text: str, rows=()) -> None:
    """Print ``rows`` and write ``text`` to the file ``path``, or after the
    rows to stdout when ``path`` is None or "-".  A file is written before
    anything is printed, so that a failed write prints nothing."""
    if path is not None and path != "-":
        if not path:
            raise ValueError("--out needs a file name, got ''")
        try:
            Path(path).write_text(text)
        except OSError as exc:
            raise ValueError(f"--out {path!r}: {exc.strerror or exc}") from None
        text = ""
    sys.stdout.write("".join(row + "\n" for row in rows) + text)


def _numbers(text: str, option: str, kind=float) -> list:
    """The comma list ``text`` given to ``option``; a list of ints may also
    be a range ``a..b``, both ends included."""
    try:
        if kind is int and ".." in text:
            lo, hi = text.split("..")
            return list(range(int(lo), int(hi) + 1))
        return [kind(t) for t in text.split(",")]
    except ValueError:
        raise ValueError(f"{option} must be a list of numbers, got {text!r}") from None


def _line_arg(text: str) -> spherical.LineThroughOrigin:
    direction = np.asarray(_numbers(text, "--line"))
    if not (np.all(np.isfinite(direction)) and direction.any()):
        raise ValueError(f"--line must be a finite nonzero direction, got {text!r}")
    direction = geometry.scaled_rows(direction)
    return spherical.LineThroughOrigin(direction / np.linalg.norm(direction))


def _read_file(path: str, option: str) -> str:
    """The text of the file ``path`` given to ``option``."""
    if not path:
        raise ValueError(f"{option} needs a file name, got ''")
    try:
        return Path(path).read_text()
    except OSError as exc:
        raise ValueError(f"{option} {path!r}: {exc.strerror or exc}") from None


def _z_dim(args, is_z: bool) -> int:
    """The n of Z^n that --dim sets, 2 when it is not given; --dim with any
    other lattice, or with none, is an error."""
    if args.dim is not None and not is_z:
        raise ValueError("--dim applies only to Z")
    return 2 if args.dim is None else args.dim


def _load_packing_arg(args) -> packings.PeriodicPacking:
    name = "Z" if args.lattice is None else args.lattice
    dim = _z_dim(args, name == "Z" and args.lattice_file is None)
    if args.lattice_file is not None:
        return packings.load_packing(_read_file(args.lattice_file, "--lattice-file"))
    return packings.touching_packing(packings.lattice_by_name(name, dim))


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_bounds(args) -> int:
    rows = [emit.CSV_HEADER]
    if args.phi is not None:
        phis = [args.phi]
    else:
        lo, hi, num = args.grid
        if not (num >= 1 and float(num).is_integer()):  # a nan num fails too
            raise ValueError(f"--grid NUM must be an integer >= 1, got {num:g}")
        phis = list(np.linspace(lo, hi, int(num)))
    for phi in phis:
        if args.curve == "kl":
            r = bounds.kl_bound(phi)
            name = "kl"
        else:
            _card, r = bounds.rankin_curve(args.n, phi)
            name = f"rankin n={args.n}"
        rows.append(emit.csv_row(phi, math.cos(phi), r, name))
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_figures(args) -> int:
    m_values = _numbers(args.m, "--m", int) if args.m else None
    n_values = _numbers(args.n_range, "--n-range", int) if args.n_range else None
    curves = bounds.figure_curves(
        args.which, n_values=n_values, n=args.n, m_values=m_values,
        samples=args.samples,
    )
    _write(args.out, (emit.curves_to_svg if args.format == "svg" else emit.curves_to_csv)(curves))
    return 0


def cmd_embed(args) -> int:
    code = binary.load_binary_code(_read_file(args.input, "input"))
    sph = binary.embed_binary(code)
    _write(args.out, spherical.dump_spherical_code(sph))
    pt = binary.code_parameters(code)
    print(f"# [n,k,d] = [{pt.n},{fmt(pt.k)},{pt.d}] "
          f"R={fmt(pt.rate)} delta={fmt(pt.delta)} "
          f"cos_phi={fmt(sph.cos_min_angle)}", file=sys.stderr)
    return 0


def cmd_spoil(args) -> int:
    code = spherical.load_spherical_code(_read_file(args.input, "input"),
                                         normalize=args.normalize)
    xi = None
    if args.op == "1":
        out = spherical.spoil1_lambda(code, args.lam)
    elif args.op in ("2", "3"):
        if args.line:
            line, sign = _line_arg(args.line), (-1 if args.sign == "-" else +1)
        else:
            line, sign, _c = spherical.find_balanced_line(code, seed=args.seed)
        if args.op == "2":
            out, xi = spherical.spoil2(code, line)
        else:
            out = spherical.spoil3(code, line, sign)
    elif args.op == "up":
        out = spherical.composite_spoil_up(code)
    else:  # "down"
        out = spherical.composite_spoil_down(code, args.phi_c, seed=args.seed)
    _write(args.out, spherical.dump_spherical_code(out))
    if xi is not None:
        print(f"# xi={fmt(xi)} u={fmt(spherical.xi_to_u(xi))}", file=sys.stderr)
    print(f"# result n={out.dimension} card={out.card} "
          f"cos_phi={fmt(out.cos_min_angle)}", file=sys.stderr)
    return 0


def cmd_atlas(args) -> int:
    cutoff = bounds.CutoffRegion(args.phi_c)
    built = atlas_mod.atlas_build(None, cutoff, args.budget, seed=args.seed)
    _write(args.out, atlas_mod.dump_atlas(built))
    return 0


def cmd_theta(args) -> int:
    coeffs = packings.theta_periodic(_load_packing_arg(args), args.m_max)
    rows = ["m,count", *(f"{fmt(m)},{cnt}" for m, cnt in coeffs.entries)]
    _write(args.out, "\n".join(rows) + "\n")
    return 0


def cmd_kissing(args) -> int:
    packing = _load_packing_arg(args)
    code = packings.kissing_configuration(packing, args.center)
    # every value is computed before the first line is printed, so that a
    # failure leaves stdout empty
    rows = [f"card {code.card}", f"min_angle {fmt(code.min_angle)}",
            f"density {fmt(packings.code_density(code))}"]
    _write(args.out, "" if args.out is None else spherical.dump_spherical_code(code), rows)
    return 0


def cmd_shell(args) -> int:
    packing = _load_packing_arg(args)
    x0 = np.zeros(packing.lattice.dimension)
    if args.x0:
        x0 = np.asarray(_numbers(args.x0, "--x0"))
    code, cert = packings.shell_code(packing, x0, args.u)
    rows = [f"card {cert['card']}",
            f"guaranteed_min_angle {fmt(cert['guaranteed_min_angle'])}",
            f"recomputed_min_angle {fmt(cert['recomputed_min_angle'])}"]
    _write(args.out, "" if args.out is None else spherical.dump_spherical_code(code), rows)
    return 0


def cmd_density(args) -> int:
    if args.code is None and (args.lattice_file is not None or args.lattice is not None):
        packing = _load_packing_arg(args)
        print(f"packing_density {fmt(packings.packing_density(packing))}")
        return 0
    _z_dim(args, is_z=False)  # neither --code nor --n/--phi takes a lattice
    if args.code is not None:
        code = spherical.load_spherical_code(_read_file(args.code, "--code"),
                                             normalize=args.normalize)
        print(f"code_density {fmt(packings.code_density(code))}")
        return 0
    # every value is computed before the first line is printed, so that a
    # failure leaves stdout empty
    est, label = packings.estimate_max_points(args.n, args.phi)
    rows = [f"max_points_estimate {fmt(est)} ({label})",
            f"max_code_density {fmt(packings.max_code_density(args.n, args.phi, est))}"]
    if args.phi >= math.pi / 3:
        def upper(nn, pp):
            return packings.estimate_max_points(nn, pp)[0]
        b31, b32 = packings.density_bounds(args.n, args.phi, upper)
        rows += [f"packing_bound_embed {fmt(b31)}", f"packing_bound_proj {fmt(b32)}"]
    print("\n".join(rows))
    return 0


def cmd_verify(args) -> int:
    suites = {"spoiling": verify.verify_spoiling, "bounds": verify.verify_bounds,
              "packings": verify.verify_packings}
    names = [args.suite] if args.suite != "all" else list(suites)
    failed = 0
    for name in names:
        for label, ok in suites[name](seed=args.seed):
            print(f"[{'PASS' if ok else 'FAIL'}] {name}: {label}")
            failed += 0 if ok else 1
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _lattice_options(parser: argparse.ArgumentParser) -> None:
    """--lattice (Z when neither it nor --lattice-file is given), --lattice-file,
    and --dim, the n of Z^n (2 when not given), accepted only for Z."""
    parser.add_argument("--lattice")
    parser.add_argument("--lattice-file")
    parser.add_argument("--dim", type=int)


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="sphcodes")
    sub = p.add_subparsers(dest="command", required=True)

    b = sub.add_parser("bounds", help="evaluate bound curves")
    b.add_argument("--curve", choices=["kl", "rankin"], default="kl")
    b.add_argument("--phi", type=float)
    b.add_argument("--grid", type=float, nargs=3, metavar=("LO", "HI", "NUM"),
                   default=(0.1, math.pi / 2, 64))
    b.add_argument("--n", type=int, default=2)
    b.add_argument("--out")
    b.set_defaults(func=cmd_bounds)

    f = sub.add_parser("figures", help="reproduce the figure curve families")
    f.add_argument("--which", choices=["fig1", "fig2", "fig3"], required=True)
    f.add_argument("--n", type=int, default=2)
    f.add_argument("--n-range", help="for fig1, e.g. 1..10")
    f.add_argument("--m", help="for fig3, e.g. 1..5 or 1,2,3")
    f.add_argument("--samples", type=int, default=512)
    f.add_argument("--format", choices=["csv", "svg"], default="csv")
    f.add_argument("--out")
    f.set_defaults(func=cmd_figures)

    e = sub.add_parser("embed", help="embed a binary code into the sphere")
    e.add_argument("input")
    e.add_argument("--out")
    e.set_defaults(func=cmd_embed)

    s = sub.add_parser("spoil", help="apply a spoiling operation")
    s.add_argument("input")
    s.add_argument("--op", choices=["1", "2", "3", "up", "down"], required=True)
    s.add_argument("--lam", type=float, default=0.9)
    s.add_argument("--line", help="comma-separated direction")
    s.add_argument("--sign", choices=["+", "-"], default="+")
    s.add_argument("--phi-c", type=float, default=0.3)
    s.add_argument("--seed", type=int, default=0)
    s.add_argument("--normalize", action="store_true")
    s.add_argument("--out")
    s.set_defaults(func=cmd_spoil)

    a = sub.add_parser("atlas", help="build the empirical atlas")
    a.add_argument("--phi-c", type=float, default=0.4)
    a.add_argument("--budget", type=int, default=10_000)
    a.add_argument("--seed", type=int, default=0)
    a.add_argument("--out")
    a.set_defaults(func=cmd_atlas)

    t = sub.add_parser("theta", help="theta coefficients of a lattice/packing")
    _lattice_options(t)
    t.add_argument("--m-max", type=float, default=8.0)
    t.add_argument("--out")
    t.set_defaults(func=cmd_theta)

    k = sub.add_parser("kissing", help="kissing configuration of a packing")
    _lattice_options(k)
    k.add_argument("--center", type=int, default=0)
    k.add_argument("--out")
    k.set_defaults(func=cmd_kissing)

    sh = sub.add_parser("shell", help="shell code of a packing")
    _lattice_options(sh)
    sh.add_argument("--u", type=float, required=True)
    sh.add_argument("--x0", help="comma-separated base point")
    sh.add_argument("--out")
    sh.set_defaults(func=cmd_shell)

    d = sub.add_parser("density", help="densities and packing bounds")
    d.add_argument("--code")
    _lattice_options(d)
    d.add_argument("--n", type=int, default=2)
    d.add_argument("--phi", type=float, default=math.pi / 3)
    d.add_argument("--normalize", action="store_true")
    d.set_defaults(func=cmd_density)

    v = sub.add_parser("verify", help="run the property suites")
    v.add_argument("--suite", choices=["spoiling", "bounds", "packings", "all"],
                   default="all")
    v.add_argument("--seed", type=int, default=0)
    v.set_defaults(func=cmd_verify)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        # a library warning prints as one line; the filters stay as they are
        with warnings.catch_warnings():
            warnings.showwarning = lambda message, *_: print(f"warning: {message}",
                                                             file=sys.stderr)
            return args.func(args)
    except (SphCodesError, ValueError, OSError, OverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
