"""Starts next to the stability margin.

The random family of the benchmark workloads at n = 8, shifted so that
the start ``K0 = 0`` has closed-loop spectral abscissa -1e-6 or -1e-8.
There ``||grad||`` reaches 1.7e12 to 1.7e16 and the PT curvature model
spans ``pt_eps`` up to about 1e12.  Two failures are guarded against: a
line-search floor on ``t`` rather than on ``t ||delta||`` stalls the
gradient baseline at iteration 0 on every member, and a Cholesky
factorization of the PT model fails with ``LinAlgError`` (or its
ill-conditioning warning) on members 2 and 3.
"""

import json

import numpy as np
import pytest

from soflqr import (
    ConstraintSet,
    check_feasible,
    cost,
    first_order_solve,
    is_stabilizing,
    newton_solve,
)
from soflqr.cli import main

from conftest import family_member, recorded_iterates

MARGINS = (1e-6, 1e-8)
CASES = [(member, margin) for margin in MARGINS for member in range(4)]
IDS = [f"m{member}-{margin:.0e}" for member, margin in CASES]


def check_descent(plant, costspec, cs, result, iterates):
    """Every accepted iterate is Hurwitz and feasible, J strictly
    decreases along the run, and the reported J is the cost of the
    returned gain, not the running sum that drifts from it."""
    assert len(iterates) == result.iterations + 1
    for K in iterates:
        assert is_stabilizing(plant, K)
        assert check_feasible(cs, K)
    costs = result.trace.costs
    assert all(a > b for a, b in zip(costs, costs[1:]))
    assert result.cost == pytest.approx(cost(plant, costspec, result.K),
                                        rel=1e-12, abs=0.0)


@pytest.mark.parametrize("member, margin", CASES, ids=IDS)
def test_newton_converges(member, margin):
    plant, costspec = family_member(member, margin)
    cs = ConstraintSet()
    with recorded_iterates() as iterates:
        result = newton_solve(plant, costspec, cs, np.zeros((2, 3)))
    assert result.status == "converged"
    check_descent(plant, costspec, cs, result, iterates)


@pytest.mark.parametrize("member, margin", CASES, ids=IDS)
def test_gradient_leaves_the_start(member, margin):
    # Every member needs more than 50 iterations, so the run ends at
    # max_iters, having descended from K0.
    plant, costspec = family_member(member, margin)
    cs = ConstraintSet()
    with recorded_iterates() as iterates:
        result = first_order_solve(plant, costspec, cs, np.zeros((2, 3)),
                                   max_iters=50)
    assert result.status != "stalled"
    assert result.iterations > 0
    check_descent(plant, costspec, cs, result, iterates)


def test_cli_newton_exits_zero(tmp_path, monkeypatch):
    # A Cholesky factorization of this member's PT model fails, which
    # the CLI reports as exit 5, "internal numerical failure".
    monkeypatch.chdir(tmp_path)
    plant, costspec = family_member(2, 1e-8)
    path = tmp_path / "margin.json"
    path.write_text(json.dumps({
        "A": plant.A.tolist(), "B": plant.B.tolist(), "C": plant.C.tolist(),
        "Q": costspec.Q.tolist(), "R": costspec.R.tolist(),
        "X0": costspec.X0.tolist(), "K0": np.zeros((2, 3)).tolist(),
    }))
    out = tmp_path / "result.json"
    assert main(["solve", str(path), "--method", "newton",
                 "--out", str(out)]) == 0
    assert json.loads(out.read_text())["status"] == "converged"
