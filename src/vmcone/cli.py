"""Command-line entry point.

Subcommands:
  run                execute a configured solver run and write its artifacts
  diagnose           evaluate all conservation / identity / bound checks on
                     a recorded run directory
  audit-constraints  finite-difference audit of the characteristic
                     constraint equations on a 3D field grid
  jacobian-test      closed-form vs finite-difference flow jacobian and
                     phase-divergence comparison on random orbits

Exit status is 0 iff every check in the produced report passes.
"""

from __future__ import annotations

import argparse
import math
import sys

from . import __version__
from .config import parse_config, check_fits_memory, ConfigError
from . import cone_evolver
from . import io_utils
from . import report as report_mod
from . import constraint_audit


def _report(doc: dict, path) -> int:
    """Print a report, write it to path if one is given, and return the
    exit status."""
    for c in doc["checks"]:
        status = "PASS" if c["passed"] else "FAIL"
        print(f"[{status}] {c['name']}: value {c['value']:.6g} "
              f"(tolerance {c['tolerance']:.6g})")
    for c in doc.get("skipped", ()):
        print(f"[SKIP] {c['name']}: {c['reason']}")
    print("overall:", "PASS" if doc["passed"] else "FAIL")
    if path:
        io_utils.emit_report(doc, path)
        print(f"report written to {path}")
    return 0 if doc["passed"] else 1


def cmd_run(args) -> int:
    if args.report and not args.diagnose:
        print("--report needs --diagnose", file=sys.stderr)
        return 2
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    if args.output:
        cfg.output_directory = args.output
    history = cone_evolver.run(cfg)
    if cfg.output_directory:
        io_utils.emit_history(history, cfg.output_directory)
        io_utils.emit_report(cfg.to_dict(),
                             f"{cfg.output_directory}/config_echo.json")
        print(f"run artifacts written to {cfg.output_directory}")
    print(f"steps: {len(history.vs) - 1}, dv: {history.dv:g}, "
          f"particles: {0 if history.particles_final is None else len(history.particles_final)}")
    if args.diagnose:
        return _report(report_mod.diagnose_report(history), args.report)
    return 0


def cmd_diagnose(args) -> int:
    try:
        history = io_utils.load_history(args.history)
    except (OSError, ValueError) as exc:
        print(f"history input error: {exc}", file=sys.stderr)
        return 2
    return _report(report_mod.diagnose_report(history), args.report)


# the embedding satisfies the constraints by construction, so its residuals
# are stencil truncation error: a history audit says nothing about the run
HISTORY_AUDIT_SCOPE = "checks the embedding and the stencils, not the run"


def _audit_grid(args):
    """The grid to audit: read from --input or embedded from a history."""
    if args.input:
        return io_utils.load_grid(args.input)
    check_fits_memory("--nodes", f"the {args.nodes}^3 input grid of E, B, "
                      "rho and j", 80 * args.nodes**3)   # 10 doubles a node
    history = io_utils.load_history(args.from_history)
    extent = (history.grid.r_max / 2.0 if args.extent is None
              else args.extent)
    # two grid spacings, or a tenth of the cube; a node count below 2 is
    # left for GriddedFieldSet to name
    r_cut = (max(4.0 * extent / max(args.nodes - 1, 1), 0.1 * extent)
             if args.r_cut is None else args.r_cut)
    return constraint_audit.embed_symmetric_solution(
        history, args.v, args.nodes, extent, r_cut)


def cmd_audit(args) -> int:
    if bool(args.input) == bool(args.from_history):
        print("give exactly one of --input or --from-history",
              file=sys.stderr)
        return 2
    try:
        grid = _audit_grid(args)
    except (OSError, ValueError) as exc:
        print(f"audit input error: {exc}", file=sys.stderr)
        return 2
    doc = report_mod.audit_report(grid, tol=args.tol)
    if args.from_history:
        doc["scope"] = HISTORY_AUDIT_SCOPE
    return _report(doc, args.report)


def cmd_jacobian(args) -> int:
    bad = [msg for msg, ok in (
        ("--orbits must be at least 1", args.orbits >= 1),
        ("--duration must be finite", math.isfinite(args.duration)),
        ("--step must be positive and finite", 0.0 < args.step < math.inf),
        ("--h-fd must be positive and finite", 0.0 < args.h_fd < math.inf))
        if not ok]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    doc = report_mod.jacobian_report(n_orbits=args.orbits,
                                     duration=args.duration,
                                     step=args.step, h_fd=args.h_fd,
                                     seed=args.seed)
    return _report(doc, args.report)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vmcone",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version",
                        version=f"vmcone {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a configured solver run")
    p.add_argument("--config", required=True, help="JSON configuration file")
    p.add_argument("--output", help="override the output directory")
    p.add_argument("--diagnose", action="store_true",
                   help="run the diagnostics suite after the run")
    p.add_argument("--report", help="write the diagnostics report JSON here")
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("diagnose", help="check a recorded run directory")
    p.add_argument("--history", required=True, help="run output directory")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("audit-constraints",
                       help="finite-difference constraint audit on 3D data")
    p.add_argument("--input", help="binary grid file with E, B, rho, j")
    p.add_argument("--from-history", help="embed a recorded run slice; "
                   f"this {HISTORY_AUDIT_SCOPE}")
    p.add_argument("--v", type=float, default=0.0,
                   help="slice label when embedding from a history")
    p.add_argument("--nodes", type=int, default=48,
                   help="grid nodes per axis when embedding")
    p.add_argument("--extent", type=float,
                   help="half-width of the audit cube when embedding")
    p.add_argument("--r-cut", type=float, dest="r_cut",
                   help="radius of the excluded ball around the origin")
    p.add_argument("--tol", type=float,
                   help="constraint tolerance (default 10 h^2 + 1e-8)")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("jacobian-test",
                       help="flow jacobian determinant identity on random orbits")
    p.add_argument("--orbits", type=int, default=20)
    p.add_argument("--duration", type=float, default=0.5)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--h-fd", type=float, dest="h_fd", default=1e-4)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_jacobian)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
