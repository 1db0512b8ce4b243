"""Solver benchmark: time to solution end to end, spans per layer.

Run from the repository root::

    python3 benchmarks/run.py --workload bundled --seed 0 --seconds 35 \\
        --trace 0

Workloads (see ``workloads.py`` for why each exists): ``bundled``,
``newton-dense`` and ``structured``.  A pass is one sweep over the
workload's solve list, in an order drawn from ``--seed``.  Every solve
starts from fresh problem objects, so lazy constraint flattening is timed,
as a CLI user pays it.  BLAS is pinned to one thread.

With ``--trace 0`` the run measures passes for ``--seconds`` seconds with
tracing off.  The seconds are split between ``PROCESSES[workload]``
measuring processes, started one after another so that only one runs at a
time.  Each sets up, warms up and times whole passes in a fresh
interpreter, so that the speed of one process (its memory layout, its
hash seed, the core it lands on) does not set the whole run's figure.  The
run reports the end-to-end metrics:

- ``setup_s``: import ``soflqr`` and ``soflqr.cli``, generate the inputs
  and write the problem files; the median over the measuring processes
  and, up to ``SETUP_SAMPLES``, set-up-only processes;
- ``solve_s``: median wall seconds per pass over the passes of all
  measuring processes (quartiles, pass count and the median of each
  process in the text report);
- ``iterations`` and ``cost_evals``: accepted iterations and line-search
  cost evaluations per pass, exact counts;
- ``solved_share`` = 1 - ``failed_share`` and ``correct_share`` = 1 -
  ``wrong_share``; the complements are reported so that no metric reads
  0 on a clean workload, and the text report prints both forms;
- ``peak_rss_mb``: peak resident memory of the largest measuring
  process.

With ``--trace 1`` one process alternates untraced passes with passes
under the span recorder of ``spans.py``, and the per-layer metrics are
reported, including ``trace.overhead``.

Every solve is checked by ``oracle.py`` outside the timed region.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``correct`` is
false when a solve reports ``converged`` but fails the oracle; solves
that stop without converging or give a wrong answer count in ``failed``.
Full results, machine info and (traced) spans are written under
``.bench_work/results/``.
"""

import os

# Pin BLAS to one thread before numpy is imported anywhere.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import gc  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
# Measuring processes per run.  On a 2-core host a structured pass takes
# 8-11 s and a newton-dense pass about 4.5 s, so those processes time one
# or two passes each; a bundled pass takes about 0.65 s.
PROCESSES = {"bundled": 5, "newton-dense": 4, "structured": 3}
SETUP_SAMPLES = 5
# Every child process is killed once the run has lasted this long.
RUN_LIMIT = 170.0

END_TO_END_UNITS = {
    "solve_s": "s", "setup_s": "s", "iterations": "count",
    "cost_evals": "count", "solved_share": "share",
    "correct_share": "share", "peak_rss_mb": "MB",
}


class SetupError(RuntimeError):
    """The checkout cannot run the benchmark."""


def _import_soflqr():
    if not (SRC / "soflqr" / "__init__.py").is_file():
        raise SetupError(f"no soflqr package under {SRC}")
    sys.path.insert(0, str(SRC))
    import soflqr
    import soflqr.cli  # noqa: F401

    origin = Path(soflqr.__file__).resolve()
    if SRC.resolve() not in origin.parents:
        raise SetupError(f"soflqr imported from {origin}, not from {SRC}")


def setup(workload, seed, workdir, stream=0):
    """Import ``soflqr``, generate the inputs and write the problem files.

    Returns ``(seconds, solves, orders)``; ``stream`` selects the solve
    orders (see ``workloads.generate``).
    """
    start = time.perf_counter()
    _import_soflqr()
    import workloads

    try:
        solves, orders = workloads.generate(workload, seed, stream)
    except ValueError as exc:
        raise SetupError(str(exc)) from exc
    workdir.mkdir(parents=True, exist_ok=True)
    for solve in solves:
        if solve.cli:
            path = workdir / f"{solve.problem['name']}.json"
            if not path.exists():
                path.write_text(json.dumps(solve.problem, indent=2) + "\n")
    return time.perf_counter() - start, solves, orders


def _child(args, deadline):
    """Run this script in a fresh interpreter with ``args``; its stdout."""
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), *args],
            cwd=ROOT, capture_output=True, text=True, check=False,
            timeout=max(1.0, deadline - time.perf_counter()),
        )
    except subprocess.TimeoutExpired as exc:
        raise SetupError(f"{' '.join(args)}: timed out") from exc
    if proc.returncode != 0:
        raise SetupError(f"{' '.join(args)} failed: {proc.stderr}")
    return proc.stdout


def _repeat_setup(workload, seed, count, workdir, deadline):
    """Set-up seconds of ``count`` set-up-only fresh interpreters."""
    times = []
    for i in range(count):
        out = _child(["--setup-only", "--workload", workload,
                      "--seed", str(seed),
                      "--workdir", str(workdir / f"setup{i}")], deadline)
        times.append(float(out.strip().splitlines()[-1]))
    return times


def _warm_up(solves, workdir):
    """Untimed first calls into LAPACK and the solvers.

    The smallest instance of the workload, or a 3-state one where every
    instance is large, so that warming up costs little of the run.
    """
    from workloads import warm_up_solve

    smallest = min(solves, key=lambda s: len(s.problem["A"]))
    run_one(smallest if len(smallest.problem["A"]) <= 4 else warm_up_solve(),
            workdir, "warm")


def _encode(outcome):
    return {"K": None if outcome.K is None else outcome.K.tolist(),
            "cost": float(outcome.cost), "status": outcome.status,
            "iterations": int(outcome.iterations),
            "cost_evals": int(outcome.cost_evals),
            "costs": [float(c) for c in outcome.costs],
            "error": outcome.error}


def _decode(data):
    import numpy as np
    from oracle import Outcome

    K = None if data["K"] is None else np.array(data["K"], dtype=float)
    return Outcome(K=K, cost=data["cost"], status=data["status"],
                   iterations=data["iterations"],
                   cost_evals=data["cost_evals"], costs=tuple(data["costs"]),
                   error=data["error"])


def measure_process(args):
    """One measuring process: set up, warm up, time passes, save them."""
    out = Path(args.out)
    setup_seconds, solves, orders = setup(args.workload, args.seed,
                                          out.parent, args.stream)
    _warm_up(solves, out.parent)
    passes = measure(solves, orders, args.seconds, out.parent)
    out.write_text(json.dumps({
        "setup_s": setup_seconds, "peak_rss_mb": _peak_rss_mb(),
        "passes": [{"seconds": p["seconds"],
                    "outcomes": [_encode(o) for o in p["outcomes"]]}
                   for p in passes],
    }))


def measure_processes(workload, seed, seconds, workdir, deadline):
    """Passes timed by ``PROCESSES[workload]`` processes, one at a time.

    Each process measures an equal share of the seconds that the passes
    before it left.  Returns ``(passes, setup_times, peak_rss_mb,
    process_medians)``.
    """
    count = PROCESSES[workload]
    passes, setup_times, peaks, medians = [], [], [], []
    for stream in range(count):
        left = seconds - sum(p["seconds"] for p in passes)
        out = workdir / f"process{stream}" / "passes.json"
        out.parent.mkdir(parents=True)
        _child(["--measure-process", "--workload", workload,
                "--seed", str(seed), "--stream", str(stream),
                "--seconds", repr(max(0.0, left) / (count - stream)),
                "--out", str(out)], deadline)
        data = json.loads(out.read_text())
        setup_times.append(data["setup_s"])
        peaks.append(data["peak_rss_mb"])
        own = [{"seconds": p["seconds"],
                "outcomes": [_decode(o) for o in p["outcomes"]],
                "spans": (0, 0)} for p in data["passes"]]
        medians.append(statistics.median(p["seconds"] for p in own))
        passes += own
    return passes, setup_times, max(peaks), medians


def _prepare(solve, workdir, tag):
    """Untimed preparation: fresh problem objects, or the CLI argv."""
    if solve.cli:
        argv = ["solve", str(workdir / f"{solve.problem['name']}.json"),
                "--method", solve.method,
                "--out", str(workdir / f"{tag}.result.json"),
                "--trace", str(workdir / f"{tag}.trace.csv")]
        if solve.tol is not None:
            argv += ["--tol", repr(solve.tol)]
        return argv
    from soflqr.problems import problem_from_dict

    return problem_from_dict(solve.problem)


def _execute(solve, prepared):
    """The timed call.  Returns the CLI exit code or the SolveResult."""
    if solve.cli:
        import soflqr.cli

        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), \
                contextlib.redirect_stderr(sink):
            return soflqr.cli.main(prepared)
    import soflqr.first_order
    import soflqr.second_order

    p = prepared
    params = p.params
    tol = params.resolved_tol() if solve.tol is None else solve.tol
    common = dict(tol=tol, alpha=params.alpha, beta=params.beta)
    if solve.method == "newton":
        return soflqr.second_order.newton_solve(
            p.plant, p.costspec, p.constraints, p.gain0,
            pt_eps=params.pt_eps, **common)
    return soflqr.first_order.first_order_solve(
        p.plant, p.costspec, p.constraints, p.gain0, **common)


def _outcome(solve, returned, prepared):
    """Untimed extraction of what the solve reported."""
    import numpy as np
    from oracle import Outcome

    if not solve.cli:
        r = returned
        return Outcome(K=r.K, cost=r.cost, status=r.status,
                       iterations=r.iterations,
                       cost_evals=r.line_search_evals,
                       costs=tuple(r.trace.costs))
    if returned not in (0, 2):
        return Outcome(None, float("nan"), "error", 0, 0, (),
                       error=f"exit code {returned}")
    with open(prepared[prepared.index("--out") + 1]) as fh:
        data = json.load(fh)
    with open(prepared[prepared.index("--trace") + 1], newline="") as fh:
        costs = tuple(float(row["J"]) for row in csv.DictReader(fh))
    return Outcome(K=np.array(data["K"], dtype=float), cost=data["cost"],
                   status=data["status"], iterations=data["iterations"],
                   cost_evals=data["line_search_evals"], costs=costs)


def run_one(solve, workdir, tag, recorder=None):
    """Run one solve; returns ``(seconds, outcome)``."""
    from oracle import Outcome

    prepared = _prepare(solve, workdir, tag)
    start = time.perf_counter()
    try:
        if recorder is None:
            returned = _execute(solve, prepared)
        else:
            returned = recorder.root(lambda: _execute(solve, prepared),
                                     {"solve": solve.name})
        seconds = time.perf_counter() - start
    except Exception as exc:  # a crashing solve is a failed operation
        seconds = time.perf_counter() - start
        return seconds, Outcome(None, float("nan"), "error", 0, 0, (),
                                error=f"{type(exc).__name__}: {exc}")
    return seconds, _outcome(solve, returned, prepared)


def measure(solves, orders, seconds, workdir, recorder=None):
    """Whole passes, as many as fit in ``seconds`` rounded to the nearest.

    At least one pass runs.  Returns a list of passes, each a dict with
    the pass seconds, the outcomes (in solve-list order) and the range
    of recorder spans opened during the pass.
    """
    passes = []
    start = time.perf_counter()
    while True:
        gc.collect()
        outcomes = [None] * len(solves)
        first = len(recorder.spans) if recorder else 0
        total = 0.0
        for index in next(orders):
            elapsed, outcome = run_one(solves[index], workdir, f"s{index}",
                                       recorder)
            total += elapsed
            outcomes[index] = outcome
        end = len(recorder.spans) if recorder else 0
        passes.append({"seconds": total, "outcomes": outcomes,
                       "spans": (first, end)})
        typical = statistics.median(p["seconds"] for p in passes)
        if time.perf_counter() - start + typical / 2 > seconds:
            return passes


def measure_traced(solves, orders, seconds, workdir):
    """Untraced and traced passes, alternating, for ``seconds``.

    Alternating keeps drift of the host's speed during the run from
    biasing ``trace.overhead``.  Returns ``(plain, traced, recorder)``.
    """
    from spans import Recorder

    recorder = Recorder()
    plain, traced = [], []
    start = time.perf_counter()
    while True:
        plain += measure(solves, orders, 0.0, workdir)
        with recorder:
            traced += measure(solves, orders, 0.0, workdir, recorder)
        pair = plain[-1]["seconds"] + traced[-1]["seconds"]
        if time.perf_counter() - start + pair > seconds:
            return plain, traced, recorder


def judge(solves, passes):
    """Oracle verdicts, one list per pass.

    A bit-identical outcome of the same solve gets the same verdict, so
    each distinct outcome is checked once.
    """
    import numpy as np
    from oracle import check

    memo = {}
    verdicts = []
    for p in passes:
        row = []
        for solve, outcome in zip(solves, p["outcomes"]):
            K = b"" if outcome.K is None else np.asarray(outcome.K).tobytes()
            key = (solve.name, K, repr(outcome.cost), outcome.status,
                   outcome.costs, outcome.error)
            if key not in memo:
                memo[key] = check(solve, outcome)
            row.append(memo[key])
        verdicts.append(row)
    return verdicts


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, verdicts, setup_times, peak_rss_mb):
    times = [p["seconds"] for p in passes]
    attempted = sum(len(row) for row in verdicts)
    failed = sum(v.failed for row in verdicts for v in row)
    wrong = sum(v.wrong for row in verdicts for v in row)
    q1, q3 = _quartiles(times)
    return {
        "solve_s": statistics.median(times),
        "solve_s.q1": q1, "solve_s.q3": q3, "solve_s.passes": len(times),
        "setup_s": statistics.median(setup_times),
        "iterations": statistics.median(
            sum(o.iterations for o in p["outcomes"]) for p in passes),
        "cost_evals": statistics.median(
            sum(o.cost_evals for o in p["outcomes"]) for p in passes),
        "failed_share": failed / attempted,
        "wrong_share": wrong / attempted,
        "solved_share": 1.0 - failed / attempted,
        "correct_share": 1.0 - wrong / attempted,
        "peak_rss_mb": peak_rss_mb,
    }


def machine_info():
    import numpy as np
    import scipy

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version",
                                          "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def _report_solves(solves, passes, verdicts):
    first, verdict_row = passes[0]["outcomes"], verdicts[0]
    rows = []
    for solve, outcome, verdict in zip(solves, first, verdict_row):
        rows.append({
            "solve": solve.name, "status": outcome.status,
            "iterations": outcome.iterations,
            "cost_evals": outcome.cost_evals, "cost": outcome.cost,
            "converged": verdict.converged, "wrong": verdict.wrong,
            "reasons": list(verdict.reasons), "error": outcome.error,
        })
        note = "WRONG: " + "; ".join(verdict.reasons) if verdict.wrong \
            else "; ".join(verdict.reasons) or "ok"
        print(f"  {solve.name:22s} {outcome.status:9s} "
              f"it {outcome.iterations:4d}  evals {outcome.cost_evals:5d}  "
              f"J {outcome.cost:.10g}  {note}")
    return rows


def _print_metric(workload, name, value, unit, note=""):
    print(f"{workload:12s} {name:38s} {value:14.6g} {unit:6s} {note}")


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Child processes of a run.
    parser.add_argument("--setup-only", action="store_true",
                        help="time one set-up in --workdir, print it, exit")
    parser.add_argument("--workdir", help=argparse.SUPPRESS)
    parser.add_argument("--measure-process", action="store_true",
                        help="one measuring process; passes go to --out")
    parser.add_argument("--stream", type=int, default=0,
                        help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None):
    args = _parse_args(argv)
    if args.measure_process:
        measure_process(args)
        return 0
    if args.setup_only:
        seconds, _, _ = setup(args.workload, args.seed, Path(args.workdir))
        print(repr(seconds))
        return 0
    deadline = time.perf_counter() + RUN_LIMIT
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            setup_seconds, solves, orders = setup(args.workload, args.seed,
                                                  workdir)
            _warm_up(solves, workdir)
            plain, traced, recorder = measure_traced(solves, orders,
                                                     args.seconds, workdir)
            runs = {"setup_times": [setup_seconds],
                    "peak_rss_mb": _peak_rss_mb(), "process_medians": []}
        else:
            # Fail fast, before any child starts, on a checkout without
            # the package or on an unknown workload.
            _import_soflqr()
            import workloads

            if args.workload not in PROCESSES:
                raise SetupError(f"unknown workload {args.workload!r}; "
                                 f"choose from {', '.join(PROCESSES)}")
            solves, _ = workloads.generate(args.workload, args.seed)
            plain, setup_times, peak, medians = measure_processes(
                args.workload, args.seed, args.seconds, workdir, deadline)
            setup_times += _repeat_setup(
                args.workload, args.seed,
                max(0, SETUP_SAMPLES - len(setup_times)), workdir, deadline)
            traced, recorder = [], None
            runs = {"setup_times": setup_times, "peak_rss_mb": peak,
                    "process_medians": medians}
        return _report(args, solves, plain, traced, recorder, runs)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _report(args, solves, plain, traced, recorder, runs):
    from spans import PER_LAYER, layer_metrics
    from workloads import WHY

    setup_times = runs["setup_times"]
    info = machine_info()
    print(f"# machine {json.dumps(info)}")
    processes = len(runs["process_medians"]) or 1
    print(f"# workload {args.workload}: {len(solves)} solves per pass, "
          f"seed {args.seed}, trace {args.trace}, "
          f"{processes} measuring process(es)")
    print(f"# why: {WHY[args.workload]}")
    passes = plain + traced
    verdicts = judge(solves, passes)
    e2e = end_to_end(plain, verdicts[:len(plain)], setup_times,
                     runs["peak_rss_mb"])
    solve_rows = _report_solves(solves, passes, verdicts)
    attempted = sum(len(row) for row in verdicts)
    failed = sum(v.failed for row in verdicts for v in row)
    correct = not any(v.converged and v.wrong
                      for row in verdicts for v in row)

    w = args.workload
    _print_metric(w, "solve_s", e2e["solve_s"], "s",
                  f"q1 {e2e['solve_s.q1']:.6g} q3 {e2e['solve_s.q3']:.6g} "
                  f"over {e2e['solve_s.passes']} passes")
    if runs["process_medians"]:
        print("# solve_s median of each measuring process: " + ", ".join(
            f"{m:.6g}" for m in runs["process_medians"]))
    _print_metric(w, "setup_s", e2e["setup_s"], "s",
                  f"median of {len(setup_times)} set-ups")
    for name in ("iterations", "cost_evals"):
        _print_metric(w, name, e2e[name], "count", "per pass")
    for name in ("failed_share", "wrong_share", "solved_share",
                 "correct_share"):
        _print_metric(w, name, e2e[name], "share")
    _print_metric(w, "peak_rss_mb", e2e["peak_rss_mb"], "MB")

    result = {"workload": w, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "machine": info,
              "setup_times": setup_times,
              "process_medians": runs["process_medians"],
              "pass_seconds": [p["seconds"] for p in passes],
              "solves": solve_rows, "end_to_end": e2e}
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = results_dir / f"{w}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        layers = layer_metrics(
            recorder, solves,
            [(*p["spans"], p["outcomes"]) for p in traced])
        layers["trace.overhead"] = (
            statistics.median(p["seconds"] for p in traced)
            / statistics.median(p["seconds"] for p in plain))
        print("# per layer, per pass (median over "
              f"{len(traced)} traced passes); one thread and no queue, so "
              "no layer has waiting time")
        for name, unit in PER_LAYER:
            _print_metric(w, name, layers[name], unit)
        result["per_layer"] = layers
        recorder.write(f"{stem}.spans.json")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER}
    else:
        metrics = {name: {"value": e2e[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    with open(f"{stem}.json", "w") as fh:
        json.dump(result, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
