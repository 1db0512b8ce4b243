"""Span recorder for the traced benchmark run, and the per-layer metrics.

The recorder wraps public functions of the ``soflqr`` modules from the
outside: a function is replaced in every ``soflqr`` module namespace that
binds it (``gradient`` is bound in ``first_order``, ``second_order``,
``verify``, ``cli`` and the package), and ``SchurSolver`` methods are
replaced on the class.  Spans are kept in memory with parent links and
written out when the run ends.  Nothing under ``src/`` changes.

Layers are named by module.  A span's self time is its duration minus the
durations of its child spans.  There is one thread and no queue, so no
layer has waiting time, and none is reported.
"""

import json
import statistics
import sys
import time
from dataclasses import dataclass

__all__ = ["Recorder", "Span", "layer_metrics", "PER_LAYER"]

ROOT = "bench.solve"


def _pt_attrs(args, result):
    return {"modified": result.modified_count, "dim": result.matrix.shape[0]}


def _hessian_attrs(args, result):
    # hessian(plant, costspec, K, gp, ...): one column per gain entry.
    return {"entries": args[2].size}


# (module, attribute, span name, attributes from (args, result));
# "Class.method" wraps a method.
TARGETS = (
    ("lyapunov", "SchurSolver.__init__", "lyapunov.schur", None),
    ("lyapunov", "SchurSolver.solve_primal", "lyapunov.solve", None),
    ("lyapunov", "SchurSolver.solve_adjoint", "lyapunov.solve", None),
    ("lyapunov", "spectral_abscissa", "lyapunov.abscissa", None),
    ("second_order", "hessian", "second_order.hessian", _hessian_attrs),
    ("second_order", "pt_matrix", "second_order.pt", _pt_attrs),
    ("second_order", "newton_step", "second_order.kkt", None),
    ("second_order", "newton_solve", "second_order.loop", None),
    ("first_order", "gradient", "first_order.gradient", None),
    ("first_order", "project_gradient", "first_order.project", None),
    ("first_order", "first_order_solve", "first_order.loop", None),
    ("linesearch", "line_search", "linesearch", None),
    ("problem", "flatten_constraints", "problem.flatten", None),
    ("problem", "check_feasible", "problem.feasible", None),
    ("problem", "is_stabilizing", "problem.stabilizing", None),
    ("problems", "load_problem", "problems.load", None),
    ("cli", "main", "cli.solve", None),
)

# Per-layer metric names and units, in report order.
PER_LAYER = (
    ("lyapunov.schur.count", "count"),
    ("lyapunov.schur.per_iterate", "ratio"),
    ("lyapunov.schur.s", "s"),
    ("lyapunov.not_hurwitz.count", "count"),
    ("lyapunov.solve.count", "count"),
    ("lyapunov.solve.s", "s"),
    ("lyapunov.abscissa.count", "count"),
    ("lyapunov.abscissa.s", "s"),
    ("second_order.hessian.count", "count"),
    ("second_order.hessian.self_s", "s"),
    ("second_order.hessian.solves_per_entry", "ratio"),
    ("second_order.hessian.useful_share", "share"),
    ("second_order.pt.s", "s"),
    ("second_order.pt.modified_share", "share"),
    ("second_order.kkt.s", "s"),
    ("second_order.loop.self_s", "s"),
    ("first_order.gradient.count", "count"),
    ("first_order.gradient.self_s", "s"),
    ("first_order.project.count", "count"),
    ("first_order.project.s", "s"),
    ("first_order.loop.self_s", "s"),
    ("linesearch.calls", "count"),
    ("linesearch.trials", "count"),
    ("linesearch.accept_ratio", "ratio"),
    ("linesearch.unstable_share", "share"),
    ("linesearch.self_s", "s"),
    ("linesearch.stalls", "count"),
    ("problem.flatten.count", "count"),
    ("problem.flatten.s", "s"),
    ("problem.feasible.count", "count"),
    ("problem.feasible.s", "s"),
    ("problem.stabilizing.count", "count"),
    ("problem.stabilizing.s", "s"),
    ("problems.load.s", "s"),
    ("cli.solve.self_s", "s"),
    ("trace.overhead", "ratio"),
)


@dataclass(slots=True)
class Span:
    name: str
    parent: int
    start: float
    end: float
    error: str = None
    attrs: dict = None


class Recorder:
    """In-memory spans with parent links for one traced phase."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._restore = []

    def _call(self, name, fn, args, kwargs, annotate=None, attrs=None):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(index)
        start = time.perf_counter()
        error = None
        try:
            result = fn(*args, **kwargs)
            if annotate is not None:
                attrs = annotate(args, result)
            return result
        except BaseException as exc:
            error = type(exc).__name__
            raise
        finally:
            self._stack.pop()
            self.spans[index] = Span(name, parent, start,
                                     time.perf_counter(), error, attrs)

    def root(self, fn, attrs):
        """Run ``fn()`` under a benchmark-level root span."""
        return self._call(ROOT, fn, (), {}, attrs=attrs)

    def _wrap(self, fn, name, annotate):
        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, annotate)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self):
        """Wrap every target in every ``soflqr`` namespace binding it."""
        import soflqr.cli  # noqa: F401  (loads every submodule)
        import soflqr.verify  # noqa: F401

        modules = [mod for key, mod in sys.modules.items()
                   if key == "soflqr" or key.startswith("soflqr.")]
        for module_name, attr, span_name, annotate in TARGETS:
            home = sys.modules[f"soflqr.{module_name}"]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[method]
                self._restore.append((cls, method, original))
                setattr(cls, method,
                        self._wrap(original, span_name, annotate))
                continue
            original = getattr(home, attr)
            wrapper = self._wrap(original, span_name, annotate)
            for module in modules:
                if getattr(module, attr, None) is original:
                    self._restore.append((module, attr, original))
                    setattr(module, attr, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def write(self, path):
        """Write the spans as JSON, one row per span."""
        rows = [[s.name, s.parent, s.start, s.end, s.error, s.attrs]
                for s in self.spans]
        with open(path, "w") as fh:
            json.dump({"columns": ["name", "parent", "start", "end",
                                   "error", "attrs"], "spans": rows}, fh)


def _pass_metrics(spans, indices, solves_by_name, outcomes_by_name):
    """Per-layer metrics of one pass from its non-root spans."""
    count = {}
    total = {}
    child = {}
    for i in indices:
        s = spans[i]
        child[s.parent] = child.get(s.parent, 0.0) + s.end - s.start
    self_s = {}
    for i in indices:
        s = spans[i]
        duration = s.end - s.start
        count[s.name] = count.get(s.name, 0) + 1
        total[s.name] = total.get(s.name, 0.0) + duration
        self_s[s.name] = (self_s.get(s.name, 0.0) + duration
                          - child.get(i, 0.0))

    def solve_of(i):
        while spans[i].parent is not None:
            i = spans[i].parent
        return spans[i].attrs["solve"]

    def under(i, name):
        i = spans[i].parent
        while i is not None and spans[i].name != name:
            i = spans[i].parent
        return i is not None

    # Schur factorizations per visited gain count only solves that
    # returned; a solve that raised reports no iteration count.
    returned = {name for name, o in outcomes_by_name.items()
                if o.error is None}
    visited = sum(outcomes_by_name[name].iterations + 1
                  for name in returned)
    schur_returned = not_hurwitz = trials = unstable = 0
    accepted = stalls = hessian_solves = entries = useful = 0
    modified = dims = 0
    for i in indices:
        s = spans[i]
        if s.name == "lyapunov.schur":
            hurwitz_failed = s.error == "NotHurwitzError"
            not_hurwitz += hurwitz_failed
            schur_returned += solve_of(i) in returned
            if spans[s.parent].name == "linesearch":
                trials += 1
                unstable += hurwitz_failed
        elif s.name == "lyapunov.solve":
            hessian_solves += under(i, "second_order.hessian")
        elif s.name == "second_order.hessian" and s.attrs:
            entries += s.attrs["entries"]
            useful += (s.attrs["entries"]
                       - solves_by_name[solve_of(i)].pinned)
        elif s.name == "second_order.pt" and s.attrs:
            modified += s.attrs["modified"]
            dims += s.attrs["dim"]
        elif s.name == "linesearch":
            accepted += s.error is None
            stalls += s.error == "LineSearchStalled"

    def ratio(a, b):
        return a / b if b else 0.0

    return {
        "lyapunov.schur.count": count.get("lyapunov.schur", 0),
        "lyapunov.schur.per_iterate": ratio(schur_returned, visited),
        "lyapunov.schur.s": total.get("lyapunov.schur", 0.0),
        "lyapunov.not_hurwitz.count": not_hurwitz,
        "lyapunov.solve.count": count.get("lyapunov.solve", 0),
        "lyapunov.solve.s": total.get("lyapunov.solve", 0.0),
        "lyapunov.abscissa.count": count.get("lyapunov.abscissa", 0),
        "lyapunov.abscissa.s": total.get("lyapunov.abscissa", 0.0),
        "second_order.hessian.count": count.get("second_order.hessian", 0),
        "second_order.hessian.self_s":
            self_s.get("second_order.hessian", 0.0),
        "second_order.hessian.solves_per_entry":
            ratio(hessian_solves, entries),
        "second_order.hessian.useful_share": ratio(useful, entries),
        "second_order.pt.s": total.get("second_order.pt", 0.0),
        "second_order.pt.modified_share": ratio(modified, dims),
        "second_order.kkt.s": total.get("second_order.kkt", 0.0),
        "second_order.loop.self_s": self_s.get("second_order.loop", 0.0),
        "first_order.gradient.count": count.get("first_order.gradient", 0),
        "first_order.gradient.self_s":
            self_s.get("first_order.gradient", 0.0),
        "first_order.project.count": count.get("first_order.project", 0),
        "first_order.project.s": total.get("first_order.project", 0.0),
        "first_order.loop.self_s": self_s.get("first_order.loop", 0.0),
        "linesearch.calls": count.get("linesearch", 0),
        "linesearch.trials": trials,
        "linesearch.accept_ratio": ratio(accepted, trials),
        "linesearch.unstable_share": ratio(unstable, trials),
        "linesearch.self_s": self_s.get("linesearch", 0.0),
        "linesearch.stalls": stalls,
        "problem.flatten.count": count.get("problem.flatten", 0),
        "problem.flatten.s": total.get("problem.flatten", 0.0),
        "problem.feasible.count": count.get("problem.feasible", 0),
        "problem.feasible.s": total.get("problem.feasible", 0.0),
        "problem.stabilizing.count": count.get("problem.stabilizing", 0),
        "problem.stabilizing.s": total.get("problem.stabilizing", 0.0),
        "problems.load.s": total.get("problems.load", 0.0),
        "cli.solve.self_s": self_s.get("cli.solve", 0.0),
    }


def layer_metrics(recorder, solves, passes):
    """Median over passes of the per-layer metrics.

    ``passes`` is a list of ``(first span, end span, outcomes)``, one
    entry per traced pass, where spans ``first:end`` of the recorder were
    opened during the pass and ``outcomes`` are in solve-list order.
    Counts repeat exactly between passes of one run.
    """
    by_name = {s.name: s for s in solves}
    spans = recorder.spans
    per_pass = []
    for first, end, outcomes in passes:
        # Roots are left out: their self time is the benchmark's own.
        indices = [i for i in range(first, end) if spans[i].name != ROOT]
        outcomes_by_name = {s.name: o for s, o in zip(solves, outcomes)}
        per_pass.append(_pass_metrics(spans, indices, by_name,
                                      outcomes_by_name))
    return {key: statistics.median(p[key] for p in per_pass)
            for key in per_pass[0]}
