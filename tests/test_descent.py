"""Tests for the line-search descent loop shared by both solvers."""

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

import soflqr.second_order
from soflqr import (
    Constraint,
    ConstraintSet,
    CostSpec,
    NewtonStep,
    Plant,
    SchurSolver,
    builtin_problem,
    check_feasible,
    closed_loop,
    effective_weight,
    evaluate,
    first_order_solve,
    gradient,
    is_stabilizing,
    newton_solve,
)

SOLVERS = {"newton": newton_solve, "grad": first_order_solve}


def unobservable_psd_problem():
    """PSD state weight that leaves two stable modes unobserved.

    The cost matrix ``P`` is singular at every gain; the optimum is
    ``K = 1 - sqrt(2)`` with ``J = sqrt(2) - 1``.
    """
    plant = Plant(A=np.diag([-1.0, -2.0, -3.0]), B=[[1.0], [0.0], [0.0]],
                  C=[[1.0, 0.0, 0.0]])
    costspec = CostSpec(Q=np.diag([1.0, 0.0, 0.0]), R=[[1.0]], X0=np.eye(3))
    return plant, costspec


@pytest.mark.parametrize("method, tol, iterations",
                         [("newton", 1e-9, 5), ("grad", 1e-5, 9)])
def test_psd_weight_with_singular_certificate_converges(method, tol,
                                                        iterations):
    plant, costspec = unobservable_psd_problem()
    result = SOLVERS[method](plant, costspec, ConstraintSet.empty(),
                             np.zeros((1, 1)), tol=tol)
    assert result.status == "converged"
    assert result.iterations == iterations
    assert result.cost == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)
    assert result.K[0, 0] == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-5)


@pytest.mark.parametrize("method, tol, iterations",
                         [("newton", 1e-9, 5), ("grad", 1e-5, 9)])
def test_scalar_plant(method, tol, iterations):
    # n = m = q = 1: J(K) = (1 + K^2) / (2 (1 - K)) is least at
    # K = 1 - sqrt(2), where J = sqrt(2) - 1.
    plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    costspec = CostSpec(Q=[[1.0]], R=[[1.0]], X0=[[1.0]])
    result = SOLVERS[method](plant, costspec, ConstraintSet.empty(),
                             np.zeros((1, 1)), tol=tol)
    assert result.status == "converged"
    assert result.iterations == iterations
    assert result.cost == pytest.approx(np.sqrt(2.0) - 1.0, abs=1e-9)
    assert result.K[0, 0] == pytest.approx(1.0 - np.sqrt(2.0), abs=1e-5)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_fully_pinned_gain_with_nonzero_rhs_converges_at_start(method):
    prob = builtin_problem("example2")
    K0 = np.array([[-2.0, 0.1], [0.2, -3.0]])
    E = np.eye(2)
    pins = [Constraint(terms=((E[[i]], E[:, [j]]),), rhs=[[K0[i, j]]])
            for i in range(2) for j in range(2)]
    result = SOLVERS[method](prob.plant, prob.costspec,
                             ConstraintSet(constraints=pins), K0)
    assert result.status == "converged"
    assert result.iterations == 0
    assert result.line_search_evals == 0
    np.testing.assert_array_equal(result.K, K0)


def singular_moment_problem():
    """X0 = diag(1, 0) leaves the second state unexcited."""
    plant = Plant(A=[[-1.0, 0.5], [0.0, -2.0]], B=np.eye(2), C=np.eye(2))
    costspec = CostSpec(Q=np.eye(2), R=np.eye(2), X0=np.diag([1.0, 0.0]))
    return plant, costspec, np.array([[-0.5, 0.1], [0.2, -0.3]])


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_singular_initial_state_moment(method):
    plant, costspec, K0 = singular_moment_problem()
    cs = ConstraintSet.empty()
    result = SOLVERS[method](plant, costspec, cs, K0, keep_iterates=True)
    assert result.status == "converged"
    assert all(check_feasible(cs, K) and is_stabilizing(plant, K)
               for K in result.iterates)
    costs = result.trace.costs
    assert all(a > b for a, b in zip(costs, costs[1:]))
    newton = newton_solve(plant, costspec, cs, K0)
    assert result.cost == pytest.approx(newton.cost, rel=1e-5)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_negative_iteration_cap_rejected(method):
    prob = builtin_problem("example2")
    with pytest.raises(ValueError, match="max_iters"):
        SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                        prob.gain0, max_iters=-1)
    result = SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                             prob.gain0, max_iters=0)
    assert result.status == "max_iters"
    assert result.iterations == 0


def test_rounding_level_ascent_direction_stalls(monkeypatch):
    # A Newton step with a positive slope along the gradient, as rounding
    # can produce near the optimum, ends the run instead of raising.
    def ascent_step(Heps, grad, cs):
        return NewtonStep(step=1e-12 * np.asarray(grad),
                          predicted_decrease=0.0)

    monkeypatch.setattr(soflqr.second_order, "newton_step", ascent_step)
    prob = builtin_problem("example1")
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0, tol=1e-15)
    assert result.status == "stalled"
    assert not result.converged
    assert result.iterations == 0
    assert result.line_search_evals == 0
    np.testing.assert_array_equal(result.K, prob.gain0)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_one_factorization_per_visited_gain(method, monkeypatch):
    count = 0
    init = SchurSolver.__init__

    def counting_init(self, Ac):
        nonlocal count
        count += 1
        init(self, Ac)

    monkeypatch.setattr(SchurSolver, "__init__", counting_init)
    prob = builtin_problem("example2")
    result = SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                             prob.gain0)
    assert result.converged
    assert result.iterations > 0
    assert count == 1 + result.line_search_evals


def test_gradient_reuses_evaluation():
    prob = builtin_problem("example2")
    ev = evaluate(prob.plant, prob.costspec, prob.gain0)
    gp = gradient(prob.plant, prob.costspec, ev)
    assert gp.evaluation is ev
    np.testing.assert_array_equal(
        gp.grad, gradient(prob.plant, prob.costspec, prob.gain0).grad)


def test_accumulated_cost_matches_recomputation():
    # Each accepted cost is the previous one plus the exact difference,
    # so rounding accumulates over example1's long gradient run.  scipy's
    # Lyapunov solve at each iterate bounds the drift.
    prob = builtin_problem("example1")
    plant, costspec = prob.plant, prob.costspec
    result = first_order_solve(plant, costspec, prob.constraints, prob.gain0,
                               tol=1e-5, keep_iterates=True)
    assert result.converged
    assert result.iterations >= 600
    for K, J in zip(result.iterates, result.trace.costs):
        P = solve_continuous_lyapunov(closed_loop(plant, K).T,
                                      -effective_weight(costspec, plant, K))
        assert J == pytest.approx(np.trace(P @ costspec.X0), rel=1e-8)
