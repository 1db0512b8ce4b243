"""Invariance of the solvers under changes of coordinates and units.

A change of state coordinates leaves the optimal gain and cost where
they are, and a change of units moves them by known factors.  A solver
may fail to reach the optimum in bad units, but it must then say so: a
run that reports ``converged`` has the optimum of the units it ran in.
"""

import functools

import numpy as np
import pytest

from soflqr import (
    BadStartError,
    CostSpec,
    Plant,
    Problem,
    builtin_problem,
    first_order_solve,
    newton_solve,
)

from conftest import unit_scaled

NAMES = ["example1", "example2"]
SOLVERS = {"newton": newton_solve, "grad": first_order_solve}
# Capped so that grad's slow runs in bad units end in seconds.
SETTINGS = {"newton": {}, "grad": {"max_iters": 1000}}


def solve(prob, method):
    return SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                           prob.gain0, **SETTINGS[method])


@functools.lru_cache(maxsize=None)
def reference(name, method):
    result = solve(builtin_problem(name), method)
    assert result.converged
    return result


def state_change(kind, seed, n):
    """An orthogonal ``T``: a permutation, or the Q factor of a standard
    normal matrix, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    T, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return T


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["permutation", "orthogonal"])
@pytest.mark.parametrize("method", sorted(SOLVERS))
@pytest.mark.parametrize("name", NAMES)
def test_state_coordinates_move_no_result(name, method, kind, seed):
    # x -> T x with T^-1 = T^T: A -> T A T^-1, B -> T B, C -> C T^-1,
    # Q -> T^-T Q T^-1 and X0 -> T X0 T^T, with K0 and the constraints
    # kept.  Iteration counts may differ by rounding, not by much.
    prob = builtin_problem(name)
    plant, costspec = prob.plant, prob.costspec
    T = state_change(kind, seed, plant.nstates)
    moved = Problem(
        plant=Plant(A=T @ plant.A @ T.T, B=T @ plant.B, C=plant.C @ T.T),
        costspec=CostSpec(Q=T @ costspec.Q @ T.T, R=costspec.R,
                          X0=T @ costspec.X0 @ T.T),
        constraints=prob.constraints, gain0=prob.gain0)
    expected = reference(name, method)
    result = solve(moved, method)
    assert result.stop_reason == expected.stop_reason
    assert result.cost == pytest.approx(expected.cost, rel=1e-12)
    np.testing.assert_allclose(result.K, expected.K, rtol=0.0, atol=1e-9)
    assert abs(result.iterations - expected.iterations) \
        <= 0.1 * expected.iterations


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("unit", ["time", "input", "output", "cost"])
@pytest.mark.parametrize("method", sorted(SOLVERS))
@pytest.mark.parametrize("name", NAMES)
def test_converged_means_optimal_in_any_units(name, method, unit, c):
    # A run may stall, hit its cap or refuse its start in bad units
    # (example1 at time 1e-9 is a bad start); it may not report
    # convergence away from the optimum.
    prob, factor = unit_scaled(builtin_problem(name), unit, c)
    try:
        result = solve(prob, method)
    except (BadStartError, np.linalg.LinAlgError):
        assert c != 1.0
        return
    assert result.converged or c != 1.0
    if result.converged:
        J_star = factor * reference(name, "newton").cost
        assert result.cost == pytest.approx(J_star, rel=1e-6)
