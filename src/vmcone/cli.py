"""Command-line entry point.

Subcommands:
  run                execute a configured solver run and write its artifacts
  diagnose           evaluate all conservation / identity / bound checks on
                     a recorded run directory
  audit-constraints  finite-difference audit of the characteristic
                     constraint equations on a 3D field grid
  jacobian-test      closed-form vs finite-difference flow jacobian and
                     phase-divergence comparison on random orbits

Exit status: 0 if every check passes (or a run completes without one), 1 if
a check fails, 2 on a bad argument, input or output path, 3 if a run aborts.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from . import __version__
from .config import parse_config, check_fits_memory, ConfigError
from . import cone_evolver
from . import io_utils
from . import report as report_mod
from . import constraint_audit


def _output_error(exc: OSError) -> int:
    print(f"output error: {exc}", file=sys.stderr)
    return 2


def _try_outputs(report, directory=None):
    """Before any work, make the output directory and meet the error that
    writing the report would meet, leaving the report path as it was; the
    exit status of an output error, or None."""
    try:
        if directory:
            os.makedirs(directory, exist_ok=True)
        if report:
            existed = os.path.exists(report)
            open(report, "a").close()
            if not existed:
                os.remove(report)
    except OSError as exc:
        return _output_error(exc)


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
        try:
            io_utils.emit_report(doc, path)
        except OSError as exc:
            return _output_error(exc)
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
    if status := _try_outputs(args.report, args.output):
        return status
    try:
        history = cone_evolver.run(cfg)
    except cone_evolver.RunAborted as exc:
        print(f"run aborted: {exc}", file=sys.stderr)
        return 3
    if args.output:
        try:
            io_utils.emit_history(history, args.output)
        except OSError as exc:
            return _output_error(exc)
        print(f"run artifacts written to {args.output}")
    print(f"steps: {len(history.vs) - 1}, dv: {history.dv:g}, "
          f"particles: {len(history.r_final)}")
    if args.diagnose:
        return _report(report_mod.diagnose_report(history), args.report)
    return 0


def cmd_diagnose(args) -> int:
    if status := _try_outputs(args.report):
        return status
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
    """The grid to audit: read from --input, or embedded from a history on
    the cube of half-width r_max/2, r_cut two grid spacings or a tenth."""
    if args.input:
        return io_utils.load_grid(args.input)
    nodes = 48 if args.nodes is None else args.nodes
    check_fits_memory("--nodes", f"the {nodes}^3 input grid of E, B, "
                      "rho and j", 80 * nodes**3)   # 10 doubles a node
    history = io_utils.load_history(args.from_history)
    extent = history.grid.r_max / 2.0
    return constraint_audit.embed_symmetric_solution(
        history, 0.0 if args.v is None else args.v, nodes, extent,
        max(4.0 * extent / (nodes - 1), 0.1 * extent))


def cmd_audit(args) -> int:
    bad = [msg for msg, ok in (
        ("give exactly one of --input or --from-history",
         bool(args.input) != bool(args.from_history)),
        ("--tol must be positive and finite",
         args.tol is None or 0.0 < args.tol < math.inf),
        ("--nodes must give at least 3 nodes per axis",
         args.nodes is None or args.nodes >= 3),
        *((f"{flag} embeds a history; --input audits its grid as saved",
           not args.input or getattr(args, flag[2:]) is None)
          for flag in ("--v", "--nodes")))
        if not ok]
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 2
    if status := _try_outputs(args.report):
        return status
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
    if status := _try_outputs(args.report):
        return status
    try:
        doc = report_mod.jacobian_report(n_orbits=args.orbits,
                                         duration=args.duration,
                                         step=args.step, seed=args.seed)
    except ValueError as exc:
        print(f"jacobian-test input error: {exc}", file=sys.stderr)
        return 2
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
    p.add_argument("--output", help="the directory of the run artifacts")
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
    p.add_argument("--v", type=float,
                   help="slice label when embedding from a history "
                   "(default 0)")
    p.add_argument("--nodes", type=int,
                   help="grid nodes per axis when embedding (default 48)")
    p.add_argument("--tol", type=float,
                   help="constraint tolerance (default 10 h^2 + 1e-8)")
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("jacobian-test",
                       help="flow jacobian determinant identity on random orbits")
    p.add_argument("--orbits", type=int, default=20)
    p.add_argument("--duration", type=float, default=0.5)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--seed", type=int, default=1234)
    p.add_argument("--report", help="write the report JSON here")
    p.set_defaults(func=cmd_jacobian)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
