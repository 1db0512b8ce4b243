"""The traced benchmark's span recorder still hooks into the package.

``benchmarks/spans.py`` wraps public functions by name and reads some of
their arguments and results, so a signature or return-type change in
``soflqr`` can break ``benchmarks/run.py --trace 1`` without failing any
solver test.  This runs both solvers under the recorder, unedited.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

import soflqr
from soflqr import builtin_problem

SPANS = Path(__file__).resolve().parents[1] / "benchmarks" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bindings():
    """Every function and method object reachable by a span target."""
    import soflqr.cli  # noqa: F401
    import soflqr.verify  # noqa: F401

    found = {}
    for key, module in sorted(sys.modules.items()):
        if key == "soflqr" or key.startswith("soflqr."):
            for name, value in vars(module).items():
                if callable(value):
                    found[(key, name)] = value
    for name, value in vars(soflqr.SchurSolver).items():
        found[("SchurSolver", name)] = value
    return found


def test_recorder_annotates_hessian_and_pt_spans(spans):
    before = bindings()
    prob = builtin_problem("example2")
    args = (prob.plant, prob.costspec, prob.constraints, prob.gain0)
    recorder = spans.Recorder()
    recorder.install()
    try:
        assert soflqr.second_order.hessian is not before[
            ("soflqr.second_order", "hessian")]
        newton = recorder.root(lambda: soflqr.newton_solve(*args),
                               {"solve": "example2/newton"})
        grad = recorder.root(lambda: soflqr.first_order_solve(*args),
                             {"solve": "example2/grad"})
    finally:
        recorder.uninstall()
    assert newton.converged and grad.converged

    names = [s.name for s in recorder.spans]
    for name in ("lyapunov.schur", "first_order.gradient",
                 "first_order.project", "linesearch", "second_order.kkt",
                 "second_order.loop", "first_order.loop"):
        assert name in names, name
    # Line-search trials may leave the stabilizing set; nothing else fails.
    assert {(s.name, s.error) for s in recorder.spans if s.error} <= {
        ("lyapunov.schur", "NotHurwitzError")}

    hessians = [s for s in recorder.spans
                if s.name == "second_order.hessian"]
    assert len(hessians) == newton.iterations + 1
    assert all(s.attrs == {"entries": 4} for s in hessians)
    pts = [s for s in recorder.spans if s.name == "second_order.pt"]
    assert len(pts) == len(hessians)
    for s in pts:
        assert set(s.attrs) == {"modified", "dim"}
        assert s.attrs["dim"] == 2

    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []
