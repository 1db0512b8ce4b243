"""Command-line interface.

Subcommands::

    soflqr solve PROBLEM [--method {newton,grad}] [--tol F] [--pt-eps F]
                 [--alpha F] [--beta F] [--max-iters N]
                 [--out PATH] [--trace PATH]
    soflqr check-gradient PROBLEM [--step H]
    soflqr check-hessian PROBLEM [--step H]
    soflqr examples NAME [--out PATH]

PROBLEM is a JSON problem file or the name of a bundled benchmark
(``example1``, ``example2``).  Exit codes: 0 converged or check passed,
1 check failed, 2 not converged, 3 parse or usage error (an unwritable
``--out`` or ``--trace`` path too), 4 bad initial gain K0
(:class:`BadStartError` or a subclass), 5 internal numerical failure.
"""

import argparse
import json
import logging
import os
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .first_order import first_order_solve, gradient
from .problem import BadStartError, evaluate_start
from .problems import (
    _METHODS,
    BUILTIN_NAMES,
    ProblemFormatError,
    builtin_problem,
    load_problem,
    save_problem,
)
from .second_order import hessian, newton_solve

__all__ = ["main"]

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_NOT_CONVERGED = 2
EXIT_PARSE = 3
EXIT_BAD_START = 4
EXIT_NUMERICAL = 5

GRADIENT_CHECK_TOL = 1e-5
HESSIAN_CHECK_TOL = 1e-4


class _Parser(argparse.ArgumentParser):
    # Usage problems exit with the parse-error code so that 2 stays
    # reserved for "solver did not converge".
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_PARSE, f"{self.prog}: error: {message}\n")


def _positive_step(text):
    """``--step`` value: a finite, positive float."""
    try:
        value = float(text)
        if np.isfinite(value) and value > 0.0:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"must be a finite positive number, got {text!r}")


def _output_file(text):
    """``--out``/``--trace`` value: a path that can be written, checked
    before any work is done."""
    path = Path(text)
    if path.is_dir():
        reason = "is a directory"
    elif not path.parent.is_dir():
        reason = f"no directory {str(path.parent)!r}"
    elif not os.access(path if path.exists() else path.parent, os.W_OK):
        reason = "permission denied"
    else:
        return path
    raise argparse.ArgumentTypeError(f"cannot write {text!r}: {reason}")


def _build_parser():
    parser = _Parser(
        prog="soflqr",
        description=(
            "Structured static output feedback LQR synthesis: "
            "equality-constrained Newton and projected-gradient solvers."
        ),
    )
    parser.add_argument("--verbose", action="store_true",
                        help="log solver progress details")
    sub = parser.add_subparsers(dest="command", required=True,
                                parser_class=_Parser)

    solve = sub.add_parser("solve", help="run a solver on a problem")
    solve.add_argument("problem",
                       help="problem file path or built-in name")
    solve.add_argument("--method", choices=_METHODS,
                       help="override the problem file's solver method")
    solve.add_argument("--tol", type=float, help="stopping tolerance")
    solve.add_argument("--pt-eps", type=float, dest="pt_eps",
                       help="eigenvalue floor of the curvature model")
    solve.add_argument("--alpha", type=float,
                       help="line search sufficient-decrease parameter")
    solve.add_argument("--beta", type=float,
                       help="line search backtracking factor")
    solve.add_argument("--max-iters", type=int, dest="max_iters",
                       help="iteration cap")
    solve.add_argument("--out", type=_output_file, help="result file path "
                       "(default: <problem>.result.json)")
    solve.add_argument("--trace", type=_output_file, help="trace file path "
                       "(default: <problem>.trace.csv)")

    for which in ("gradient", "hessian"):
        check = sub.add_parser(
            f"check-{which}",
            help=f"compare the analytic {which} against finite differences",
        )
        check.add_argument("problem",
                           help="problem file path or built-in name")
        check.add_argument("--step", type=_positive_step, default=None,
                           help="finite-difference step size")

    examples = sub.add_parser("examples",
                              help="write a bundled benchmark problem file")
    examples.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    examples.add_argument("--out", type=_output_file,
                          help="output path (default: <name>.json)")
    return parser


def _resolve_problem(spec):
    """Load a problem from a path, falling back to the built-in names."""
    path = Path(spec)
    if path.exists():
        return load_problem(path), path.stem
    if spec in BUILTIN_NAMES:
        return builtin_problem(spec), spec
    raise ProblemFormatError(
        f"{spec!r} is neither an existing file nor a built-in problem "
        f"({', '.join(BUILTIN_NAMES)})"
    )


def _format_gain(K):
    return np.array2string(np.asarray(K), precision=6, suppress_small=False,
                           separator=", ")


def _cmd_solve(args):
    problem, stem = _resolve_problem(args.problem)
    problem = problem.with_params(
        method=args.method, tol=args.tol, pt_eps=args.pt_eps,
        alpha=args.alpha, beta=args.beta, max_iters=args.max_iters,
    )
    params = problem.params
    settings = asdict(params)
    del settings["method"]
    solve = newton_solve if params.method == "newton" else first_order_solve
    # A bad start and numerical failures propagate to main, which maps
    # them to exits 4 and 5.
    result = solve(problem.plant, problem.costspec, problem.constraints,
                   problem.gain0, **settings)

    out_path = args.out or Path(f"{stem}.result.json")
    trace_path = args.trace or Path(f"{stem}.trace.csv")
    payload = {
        "problem": problem.name or args.problem,
        "method": params.method,
        "tol": params.resolved_tol(),
        "pt_eps": params.pt_eps if params.method == "newton" else None,
        "alpha": params.alpha,
        "beta": params.beta,
        "max_iters": params.resolved_max_iters(),
        "K": result.K.tolist(),
        "cost": result.cost,
        "iterations": result.iterations,
        "line_search_evals": result.line_search_evals,
        "converged": result.converged,
        "status": result.status,
        "stop_reason": result.stop_reason,
        "grad_norm": result.grad_norm,
        "step_norm": result.step_norm,
    }
    with open(out_path, "w") as fh:
        json.dump(payload, fh, indent=2)
        fh.write("\n")
    result.trace.write_csv(trace_path)

    print(f"method:      {params.method}")
    print(f"status:      {result.status}")
    print(f"iterations:  {result.iterations} "
          f"({result.line_search_evals} line-search cost evaluations)")
    print(f"cost:        {result.cost:.10g}")
    print(f"gain:        {_format_gain(result.K)}")
    print(f"result file: {out_path}")
    print(f"trace file:  {trace_path}")
    if not result.converged:
        print(f"note: tolerance {params.resolved_tol():g} not reached "
              f"(status {result.status!r})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_check(args, which):
    # The oracles are loaded by the check commands alone.
    from .verify import error_report, fd_gradient, fd_hessian

    problem, _ = _resolve_problem(args.problem)
    plant, costspec = problem.plant, problem.costspec
    ev = evaluate_start(plant, costspec, problem.constraints, problem.gain0)
    step = {} if args.step is None else {"h": args.step}
    # The finite differences run first: a gain too near the stability
    # margin raises NearMarginError before an analytic derivative is
    # formed that could overflow.
    if which == "gradient":
        reference = fd_gradient(plant, costspec, ev.K, **step)
        analytic = gradient(plant, costspec, ev).grad
        threshold = GRADIENT_CHECK_TOL
    else:
        reference = fd_hessian(plant, costspec, ev.K, **step)
        analytic = hessian(plant, costspec, ev.K,
                           gradient(plant, costspec, ev))
        threshold = HESSIAN_CHECK_TOL

    report = error_report(reference, analytic)
    print(f"{which} check vs central finite differences")
    print(f"  max abs error: {report.max_abs_error:.6e} "
          f"at entry {report.location}")
    print(f"  max rel error: {report.max_rel_error:.6e} "
          f"(threshold {threshold:g})")
    # Written so that a NaN error fails.
    if not report.max_rel_error <= threshold:
        print("FAIL", file=sys.stderr)
        return EXIT_CHECK_FAILED
    print("OK")
    return EXIT_OK


def _cmd_examples(args):
    try:
        problem = builtin_problem(args.name)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    out_path = args.out or Path(f"{args.name}.json")
    save_problem(problem, out_path)
    print(f"wrote {out_path}")
    return EXIT_OK


def main(argv=None):
    args = _build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        format="%(levelname)s %(name)s: %(message)s",
    )
    try:
        if args.command == "solve":
            return _cmd_solve(args)
        if args.command == "check-gradient":
            return _cmd_check(args, "gradient")
        if args.command == "check-hessian":
            return _cmd_check(args, "hessian")
        if args.command == "examples":
            return _cmd_examples(args)
    except ProblemFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except BadStartError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_START
    except np.linalg.LinAlgError as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
