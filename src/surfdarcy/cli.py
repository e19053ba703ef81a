"""Command-line front end: convergence studies, property-check suites, and
VTK exports.

Exit codes: 0 success, 1 configuration or usage error, 2 numerical failure,
3 check-suite failure.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

import numpy as np

from . import fe_space, vtk_io
from .mesh import (
    DEFAULT_BOX,
    DEFAULT_N_CELLS,
    MeshError,
    build_background,
    refine_uniform,
)
from .quadrature import TRIANGLE_MAX_DEGREE
from .solver import SingularSystemError
from .suites import (
    geometric_rate_suite,
    lemma_ratio_suite,
    manufactured_residual_suite,
    positioning_suite,
)
from .verification import (
    CASE_TABLE,
    ManufacturedSolution,
    case_config,
    report_to_csv,
    report_to_markdown,
    run_case,
    run_level,
)

__all__ = ["main"]


def _parse_vector(text, length=3):
    parts = [float(p) for p in text.split(",")]
    if len(parts) != length:
        raise argparse.ArgumentTypeError(f"expected {length} comma-separated values")
    return tuple(parts)


def _parse_box(text):
    lo, hi = _parse_vector(text, 2)
    return ((lo, hi), (lo, hi), (lo, hi))


def _load_config_file(path):
    """Flat key = value file; '#' starts a comment."""
    values = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {raw!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        values[key.replace("-", "_")] = val.strip("\"'")
    return values


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a configuration error (exit 1) instead of
    exiting with argparse's code 2, which is reserved for numerical failures;
    the subcommand parsers inherit the class."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    parser = _Parser(
        prog="surfdarcy",
        description="Stabilized cut finite element solver for surface Darcy flow",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", type=str, default=None, help="key=value config file")
        p.add_argument("--tau", type=float, default=0.1, help="stabilization parameter")
        p.add_argument("--alpha", type=float, default=2.0, help="stabilization h-exponent")
        p.add_argument("--offset", type=_parse_vector, default=(0.0, 0.0, 0.0))

    def add_study(p):
        # the grid and the quadrature of a solve; the suites of `check` fix
        # their own
        p.add_argument("--ncells0", type=int, default=DEFAULT_N_CELLS)
        p.add_argument("--box", type=_parse_box, default=DEFAULT_BOX)
        p.add_argument("--quad-degree", type=int, default=4)
        p.add_argument("--quad-degree-err", type=int, default=6)

    conv = sub.add_parser("converge", help="run a convergence study")
    conv.add_argument("--case", type=int, required=True, help="study case 1..6")
    conv.add_argument("--levels", type=int, default=3, help="finest refinement level")
    conv.add_argument("--csv", type=str, default=None)
    conv.add_argument("--markdown", type=str, default=None)
    conv.add_argument("--vtk-dir", type=str, default=None)
    add_common(conv)
    add_study(conv)

    check = sub.add_parser("check", help="run the property-check suites")
    check.add_argument("--levels", type=int, default=3)
    check.add_argument("--translations", type=int, default=20)
    check.add_argument("--seed", type=int, default=0)
    add_common(check)

    exp = sub.add_parser("export", help="solve one level and write VTK files")
    exp.add_argument("--case", type=int, required=True)
    exp.add_argument("--level", type=int, default=1)
    exp.add_argument("--vtk-dir", type=str, required=True)
    add_common(exp)
    add_study(exp)
    return parser


def _parse_args(argv):
    """Parse the command line.  The values of a --config file are read as the
    chosen subcommand's own flags, placed before those on the command line so
    that these win; a key that names none of its options is rejected."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.config is None:
        return args
    values = _load_config_file(args.config)
    unknown = sorted(set(values) - (set(vars(args)) - {"command", "config"}))
    if unknown:
        raise ValueError(
            f"{args.config}: {args.command} has no option {', '.join(unknown)}"
        )
    flags = [f"--{key.replace('_', '-')}={val}" for key, val in values.items()]
    at = argv.index(args.command) + 1
    return parser.parse_args([*argv[:at], *flags, *argv[at:]])


def _validate(args):
    if getattr(args, "case", None) is not None and args.case not in CASE_TABLE:
        raise ValueError(f"case must be in {sorted(CASE_TABLE)}")
    if args.tau <= 0.0:
        raise ValueError("tau must be positive")
    if not 0.0 <= args.alpha <= 2.0:
        raise ValueError("alpha must lie in [0, 2]")
    if getattr(args, "levels", 1) > 4:
        raise ValueError("levels > 4 not supported in the study configuration")
    if args.command == "converge" and args.levels < 1:
        raise ValueError("converge needs levels >= 1 (two levels give one EOC)")
    if args.command == "check" and args.levels < 2:
        raise ValueError("check needs levels >= 2 (rates are fitted over levels 1..levels)")
    if args.command == "export" and not 0 <= args.level <= 4:
        raise ValueError("export needs 0 <= level <= 4")
    if args.command == "check" and args.translations < 1:
        raise ValueError("check needs translations >= 1")
    if getattr(args, "ncells0", 1) < 1:
        raise ValueError("ncells0 must be >= 1")
    # both degrees select a triangle rule
    for flag in ("quad_degree", "quad_degree_err"):
        if hasattr(args, flag) and not 1 <= getattr(args, flag) <= TRIANGLE_MAX_DEGREE:
            raise ValueError(f"{flag} must lie in [1, {TRIANGLE_MAX_DEGREE}]")
    # the torus reaches R + r from its center in x and y, and r in z
    torus = ManufacturedSolution().surface
    reach = np.array([torus.R + torus.r, torus.R + torus.r, torus.r])
    lo, hi = np.array(getattr(args, "box", DEFAULT_BOX), dtype=float).T
    offset = np.asarray(args.offset, dtype=float)
    if np.any(offset - reach <= lo) or np.any(offset + reach >= hi):
        raise ValueError(f"offset {tuple(args.offset)} moves the torus outside the box")


def _config_from_args(args):
    return dict(
        tau=args.tau,
        alpha=args.alpha,
        n_cells0=args.ncells0,
        box=args.box,
        offset=args.offset,
        quad_degree=args.quad_degree,
        quad_degree_err=args.quad_degree_err,
    )


def _cmd_converge(args):
    config = case_config(args.case, **_config_from_args(args))
    print(
        f"case {args.case}: orders (k_u, k_p, k_g) = "
        f"({config.k_u}, {config.k_p}, {config.k_g}), "
        f"stabilization = {config.stab.value}, tau = {config.tau}, alpha = {config.alpha}"
    )
    report = run_case(config, levels=args.levels, case=args.case)
    print(report_to_markdown(report), end="")
    if args.csv:
        Path(args.csv).write_text(report_to_csv(report))
        print(f"wrote {args.csv}")
    if args.markdown:
        Path(args.markdown).write_text(report_to_markdown(report))
        print(f"wrote {args.markdown}")
    if args.vtk_dir:
        _write_level(args.case, args.levels, report.finest, Path(args.vtk_dir))
    return 0


def _cmd_export(args):
    config = case_config(args.case, **_config_from_args(args))
    mesh = build_background(config.box, config.n_cells0)
    for _ in range(args.level):
        mesh = refine_uniform(mesh)
    out = run_level(config, mesh, ManufacturedSolution(offset=config.offset))
    _write_level(args.case, args.level, out, Path(args.vtk_dir))
    return 0


def _write_level(case, level, out, outdir: Path):
    """Write the surface fields and the active mesh of one solved level."""
    outdir.mkdir(parents=True, exist_ok=True)
    vspace, pspace = out["spaces"]
    ds = out["ds"]
    solution = out["solution"]

    # the surface holds its nodes' barycentrics, in surface_node_points order
    lam = ds.node_lambdas.reshape(-1, 4)
    cells = np.repeat(ds.cell_active, ds.node_lambdas.shape[1])
    p_vals = fe_space.evaluate(pspace, solution.p_coeffs, cells, lam)
    u_vals = fe_space.evaluate(vspace, solution.u_coeffs, cells, lam)
    surface_path = outdir / f"surface_case{case}_level{level}.vtk"
    vtk_io.export_surface(
        surface_path,
        ds,
        point_data={
            "pressure": p_vals,
            "velocity": u_vals,
            "speed": np.linalg.norm(u_vals, axis=1),
        },
    )
    mesh_path = outdir / f"active_mesh_case{case}_level{level}.vtk"
    vtk_io.export_active_mesh(mesh_path, out["active"])
    print(f"wrote {surface_path}")
    print(f"wrote {mesh_path}")


def _cmd_check(args):
    suites = [
        manufactured_residual_suite(offset=args.offset, seed=args.seed),
        geometric_rate_suite(offset=args.offset, levels=tuple(range(1, args.levels + 1))),
        lemma_ratio_suite(
            offset=args.offset,
            levels=tuple(range(1, args.levels + 1)),
            tau=args.tau,
            alpha=args.alpha,
            seed=args.seed,
        ),
        positioning_suite(
            level=min(args.levels, 2),
            n_translations=args.translations,
            tau=args.tau,
            alpha=args.alpha,
            seed=args.seed,
        ),
    ]
    failed = False
    for suite in suites:
        status = "PASS" if suite.passed else "FAIL"
        print(f"[{status}] {suite.name}")
        for line in suite.lines:
            print(f"  {line}")
        failed = failed or not suite.passed
    return 3 if failed else 0


def main(argv=None) -> int:
    """Run one command; the package's log records go to stderr, each with
    its level and logger name, while the command runs."""
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    package_log = logging.getLogger(__package__)
    package_log.addHandler(handler)
    try:
        return _run(list(sys.argv[1:] if argv is None else argv))
    finally:
        package_log.removeHandler(handler)


def _run(argv) -> int:
    try:
        args = _parse_args(argv)
        _validate(args)
    except (ValueError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    try:
        if args.command == "converge":
            return _cmd_converge(args)
        if args.command == "check":
            return _cmd_check(args)
        if args.command == "export":
            return _cmd_export(args)
    except MeshError as exc:
        # a grid too coarse to resolve the surface
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (SingularSystemError, np.linalg.LinAlgError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
