"""Command-line interface.

Subcommands::

    soflqr solve PROBLEM [--method {newton,grad}] [--tol F] [--pt-eps F]
                 [--alpha F] [--beta F] [--max-iters N]
                 [--out PATH] [--trace PATH]
    soflqr check-gradient PROBLEM [--step H]
    soflqr check-hessian PROBLEM [--step H]
    soflqr examples NAME [--out PATH]

PROBLEM is a JSON problem file or the name of a bundled benchmark
(``example1``, ``example2``).  Exit codes for ``solve``: 0 converged,
2 not converged, 3 parse error, 4 infeasible or non-stabilizing initial
gain, 5 internal numerical failure.
"""

import argparse
import json
import logging
import sys
from pathlib import Path

import numpy as np

from .first_order import first_order_solve, gradient
from .lyapunov import NotHurwitzError, SchurSolver
from .problem import InfeasibleConstraintsError, check_feasible, closed_loop
from .problems import (
    BUILTIN_NAMES,
    ProblemFormatError,
    builtin_problem,
    load_problem,
    save_problem,
)
from .second_order import hessian, newton_solve
from .verify import NearMarginError, error_report, fd_gradient, fd_hessian

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
    solve.add_argument("--method", choices=("newton", "grad"),
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
    solve.add_argument("--out", help="result file path "
                       "(default: <problem>.result.json)")
    solve.add_argument("--trace", help="trace file path "
                       "(default: <problem>.trace.csv)")

    for which in ("gradient", "hessian"):
        check = sub.add_parser(
            f"check-{which}",
            help=f"compare the analytic {which} against finite differences",
        )
        check.add_argument("problem",
                           help="problem file path or built-in name")
        check.add_argument("--step", type=float, default=None,
                           help="finite-difference step size")
        # Negative-control hook for testing the check itself.
        check.add_argument("--perturb", type=float, default=0.0,
                           help=argparse.SUPPRESS)

    examples = sub.add_parser("examples",
                              help="write a bundled benchmark problem file")
    examples.add_argument("name", help=f"one of: {', '.join(BUILTIN_NAMES)}")
    examples.add_argument("--out", help="output path (default: <name>.json)")
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


def _check_start(problem):
    """Exit-code-4 conditions: K0 must stabilize and satisfy consistent
    constraints."""
    try:
        SchurSolver(closed_loop(problem.plant, problem.gain0))
    except NotHurwitzError as exc:
        return (
            f"initial gain K0 does not stabilize the plant "
            f"(closed-loop spectral abscissa {exc.abscissa:.6e}); the solvers "
            f"assume a stabilizing initial gain is supplied, e.g. from an "
            f"external stabilization procedure"
        )
    try:
        feasible = check_feasible(problem.constraints, problem.gain0)
    except InfeasibleConstraintsError as exc:
        return str(exc)
    if not feasible:
        return "initial gain K0 does not satisfy the constraints"
    return None


def _format_gain(K):
    return np.array2string(np.asarray(K), precision=6, suppress_small=False,
                           separator=", ")


def _cmd_solve(args):
    problem, stem = _resolve_problem(args.problem)
    problem = problem.with_params(
        method=args.method, tol=args.tol, pt_eps=args.pt_eps,
        alpha=args.alpha, beta=args.beta, max_iters=args.max_iters,
    )
    start_error = _check_start(problem)
    if start_error is not None:
        print(f"error: {start_error}", file=sys.stderr)
        return EXIT_BAD_START

    params = problem.params
    common = dict(
        tol=params.resolved_tol(), alpha=params.alpha, beta=params.beta,
        max_iters=params.resolved_max_iters(),
    )
    # Numerical failures propagate to main, which maps them to exit 5.
    if params.method == "newton":
        result = newton_solve(problem.plant, problem.costspec,
                              problem.constraints, problem.gain0,
                              pt_eps=params.pt_eps, **common)
    else:
        result = first_order_solve(problem.plant, problem.costspec,
                                   problem.constraints, problem.gain0,
                                   **common)

    out_path = Path(args.out) if args.out else Path(f"{stem}.result.json")
    trace_path = Path(args.trace) if args.trace else Path(f"{stem}.trace.csv")
    payload = {
        "problem": problem.name or args.problem,
        "method": params.method,
        "tol": common["tol"],
        "pt_eps": params.pt_eps if params.method == "newton" else None,
        "alpha": params.alpha,
        "beta": params.beta,
        "max_iters": common["max_iters"],
        "K": result.K.tolist(),
        "cost": result.cost,
        "iterations": result.iterations,
        "line_search_evals": result.line_search_evals,
        "converged": result.converged,
        "status": result.status,
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
        print(f"note: tolerance {common['tol']:g} not reached "
              f"(status {result.status!r})", file=sys.stderr)
        return EXIT_NOT_CONVERGED
    return EXIT_OK


def _cmd_check(args, which):
    problem, _ = _resolve_problem(args.problem)
    start_error = _check_start(problem)
    if start_error is not None:
        print(f"error: {start_error}", file=sys.stderr)
        return EXIT_BAD_START

    plant, costspec, K0 = problem.plant, problem.costspec, problem.gain0
    gp = gradient(plant, costspec, K0)
    step = {"h": args.step} if args.step else {}
    try:
        if which == "gradient":
            analytic = gp.grad.copy()
            reference = fd_gradient(plant, costspec, K0, **step)
            threshold = GRADIENT_CHECK_TOL
        else:
            analytic = hessian(plant, costspec, K0, gp)
            reference = fd_hessian(plant, costspec, K0, **step)
            threshold = HESSIAN_CHECK_TOL
    except NearMarginError as exc:
        print(f"error: initial gain K0: {exc}", file=sys.stderr)
        return EXIT_BAD_START
    if args.perturb:
        # Corruption scaled to the result so the control works at any
        # gradient magnitude.
        analytic[0, 0] += args.perturb * max(1.0, np.abs(analytic).max())

    report = error_report(reference, analytic)
    print(f"{which} check vs central finite differences")
    print(f"  max abs error: {report.max_abs_error:.6e} "
          f"at entry {report.location}")
    print(f"  max rel error: {report.max_rel_error:.6e} "
          f"(threshold {threshold:g})")
    if report.max_rel_error > threshold:
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
    out_path = Path(args.out) if args.out else Path(f"{args.name}.json")
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
    except (np.linalg.LinAlgError, NotHurwitzError, ArithmeticError) as exc:
        print(f"error: numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
