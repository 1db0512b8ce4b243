"""Tests for the line-search descent loop shared by both solvers."""

import functools
import math

import numpy as np
import pytest
from scipy.linalg import solve_continuous_lyapunov

import soflqr.first_order
import soflqr.linesearch
import soflqr.problem
import soflqr.second_order
from soflqr import (
    Constraint,
    ConstraintSet,
    CostSpec,
    Plant,
    ProblemFormatError,
    SchurSolver,
    SolverParams,
    builtin_problem,
    check_feasible,
    closed_loop,
    effective_weight,
    evaluate,
    first_order_solve,
    gradient,
    is_stabilizing,
    line_search,
    newton_solve,
)

from conftest import (
    overflow_problem,
    recorded_iterates,
    rescaled_states,
    scaled_row_constraint,
    time_scaled,
    unit_scaled,
    unobservable_psd_problem,
)

SOLVERS = {"newton": newton_solve, "grad": first_order_solve}


@pytest.mark.parametrize("method, tol, iterations",
                         [("newton", 1e-9, 5), ("grad", 1e-5, 9)])
def test_psd_weight_with_singular_certificate_converges(method, tol,
                                                        iterations):
    plant, costspec = unobservable_psd_problem()
    result = SOLVERS[method](plant, costspec, ConstraintSet(),
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
    result = SOLVERS[method](plant, costspec, ConstraintSet(),
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
    cs = ConstraintSet()
    with recorded_iterates() as iterates:
        result = SOLVERS[method](plant, costspec, cs, K0)
    assert result.status == "converged"
    assert all(check_feasible(cs, K) and is_stabilizing(plant, K)
               for K in iterates)
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


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_settings_are_solver_params_fields(method):
    prob = builtin_problem("example2")
    args = (prob.plant, prob.costspec, prob.constraints, prob.gain0)
    with pytest.raises(ProblemFormatError, match="solver.alpha"):
        SOLVERS[method](*args, alpha=0.5)
    with pytest.raises(TypeError):
        SOLVERS[method](*args, max_iter=3)


def test_converged_is_read_only_view_of_status():
    prob = builtin_problem("example2")
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0, max_iters=0)
    assert result.status == "max_iters" and not result.converged
    # Both are read from the stop reason, the one stored verdict.
    result.stop_reason = "step_tol"
    assert result.status == "converged" and result.converged
    with pytest.raises(AttributeError):
        result.converged = False
    with pytest.raises(AttributeError):
        result.status = "stalled"


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_grad_step_norm_is_stopping_measure(name):
    # The reported step norm is the norm of the direction compared with
    # tol, which for the gradient baseline is the projected gradient's.
    prob = builtin_problem(name)
    result = first_order_solve(prob.plant, prob.costspec, prob.constraints,
                               prob.gain0)
    assert result.status == "converged"
    assert result.step_norm == result.grad_norm <= 1e-5
    assert result.trace.records[-1].step_norm > 0.0


def test_rounding_level_ascent_direction_stalls(monkeypatch):
    # A Newton step with a positive slope along the gradient, as rounding
    # can produce near the optimum, ends the run instead of raising.
    def ascent_step(Heps, grad, cs):
        return 1e-12 * np.asarray(grad)

    monkeypatch.setattr(soflqr.second_order, "newton_step", ascent_step)
    prob = builtin_problem("example1")
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0, tol=1e-15)
    assert result.status == "stalled"
    assert not result.converged
    assert result.iterations == 0
    assert result.line_search_evals == 0
    np.testing.assert_array_equal(result.K, prob.gain0)


STOPS = [
    ("step_tol", "newton", {}, "converged"),
    # Below any tol, Newton ends where the predicted decrease is at most
    # four ulps of J, and grad where no power certifies a decrease.
    ("cost_resolution", "newton", {"tol": 0.0}, "converged"),
    ("line_search_floor", "grad", {"tol": 0.0}, "stalled"),
    ("not_descent", "newton", {"tol": 0.0}, "stalled"),
    ("max_iters", "grad", {"max_iters": 3}, "max_iters"),
]


@pytest.mark.parametrize("reason, method, settings, status", STOPS,
                         ids=[stop[0] for stop in STOPS])
def test_stop_reason_names_the_rule(reason, method, settings, status,
                                    monkeypatch):
    if reason == "not_descent":
        def ascent_step(Heps, grad, cs):
            return 1e-12 * np.asarray(grad)

        monkeypatch.setattr(soflqr.second_order, "newton_step", ascent_step)
    prob = builtin_problem("example2")
    result = SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                             prob.gain0, **settings)
    assert result.stop_reason == reason
    assert result.status == status


@pytest.mark.parametrize("name, iterations",
                         [("example1", 639), ("example2", 97)])
def test_grad_converges_only_where_its_model_certifies(name, iterations):
    # Time scaling by c divides the projected gradient by c, so at
    # c = 1e9 tol is met far from the optimum (c J = 1770.7 and 22.20
    # against 159.07 and 12.83), while the model's predicted relative
    # decrease s^2 / (2 kappa J) does not change.
    prob = builtin_problem(name)
    args = (prob.costspec, prob.constraints, prob.gain0)
    result = first_order_solve(prob.plant, *args)
    assert (result.status, result.stop_reason) == ("converged", "step_tol")
    assert result.iterations == iterations
    scaled = first_order_solve(time_scaled(prob.plant, 1e9), *args)
    assert (scaled.status, scaled.stop_reason) == ("stalled", "uncertified")
    assert 1e9 * scaled.cost > 1.5 * result.cost


# In these units, Newton's step meets tol far from the optimum:
# example1 at J = 9940.53 against 159.07, example2 at its start, 22.20
# against 12.83.
MISCERTIFIED = [("example1", "input", 1e9, 2), ("example1", "output", 1e-9, 2),
                ("example2", "input", 1e9, 0), ("example2", "output", 1e-9, 0)]


@pytest.mark.parametrize("name, unit, c, iterations", MISCERTIFIED)
def test_newton_converges_only_where_its_model_certifies(name, unit, c,
                                                         iterations):
    prob, _ = unit_scaled(builtin_problem(name), unit, c)
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0)
    assert (result.status, result.stop_reason) == ("stalled", "uncertified")
    assert result.iterations == iterations
    assert result.step_norm <= 1e-9


def test_nonpositive_curvature_certifies_no_exit():
    # A short step with a nonzero slope and curvature -1 meets tol, but
    # no quadratic model bounds the decrease still to come.
    def direction(gp, pg, Z):
        return -1e-12 * pg / np.linalg.norm(pg), -1.0

    prob = builtin_problem("example2")
    result = soflqr.first_order._descend(
        prob.plant, prob.costspec, prob.constraints, prob.gain0,
        SolverParams(), direction)
    assert result.stop_reason == "uncertified"
    assert result.iterations == 0


def test_short_step_certifies_as_a_long_one():
    # Along a step 1e-300 long, s^2 and kappa underflow to 0; read per
    # unit of step length, the rule still sees grad's model predict a
    # large decrease at example2's start.
    prob = builtin_problem("example2")

    def direction(gp, pg, Z):
        delta = -1e-300 * pg / np.linalg.norm(pg)
        return delta, soflqr.first_order.curvature(prob.plant, prob.costspec,
                                                   gp, delta)

    result = soflqr.first_order._descend(
        prob.plant, prob.costspec, prob.constraints, prob.gain0,
        SolverParams(), direction)
    assert result.stop_reason == "uncertified"
    assert result.step_norm == pytest.approx(1e-300, rel=1e-12)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_norm_neither_underflows_nor_overflows(scale):
    x = scale * np.array([[3.0, 0.0], [-4.0, 12.0]])
    assert soflqr.first_order._norm(x) == math.hypot(*x.T.flat)


def test_newton_curvature_is_at_most_the_descent(monkeypatch):
    # The step's curvature theta^T (Z^T H Z) theta is positive on
    # example1, and PT only raises eigenvalues, so it is at most -s.
    searched = []
    search = soflqr.first_order.line_search

    def recording(plant, costspec, current, delta, slope, params,
                  curvature):
        searched.append((slope, curvature))
        return search(plant, costspec, current, delta, slope, params,
                      curvature)

    monkeypatch.setattr(soflqr.first_order, "line_search", recording)
    prob = builtin_problem("example1")
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0)
    assert result.converged
    assert len(searched) == result.iterations
    for slope, kappa in searched:
        assert 0.0 < kappa <= -slope * (1.0 + 1e-12)


MISFITS = [
    pytest.param({"Q": np.eye(3), "X0": np.eye(3)}, None,
                 r"field 'Q': expected shape \(4, 4\), got \(3, 3\)", id="Q"),
    pytest.param({"R": np.eye(3)}, None,
                 r"field 'R': expected shape \(2, 2\), got \(3, 3\)", id="R"),
    # CostSpec ties the order of X0 to that of Q.
    pytest.param({"X0": np.eye(3)}, None,
                 "Q and X0 must have the same order", id="X0"),
    pytest.param({}, np.zeros((3, 2)),
                 r"field 'K0': expected shape \(2, 3\), got \(3, 2\)",
                 id="K0"),
]


@pytest.mark.parametrize("weights, K0, message", MISFITS)
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_misfit_field_is_named(method, weights, K0, message):
    # On example1's plant (4 states, 2 inputs, 3 outputs) a library solve
    # checks the shapes as a problem file does, instead of failing inside
    # numpy with a broadcast or matmul error.
    prob = builtin_problem("example1")
    with pytest.raises(ValueError, match=message):
        costspec = CostSpec(**{"Q": np.eye(4), "R": np.eye(2),
                               "X0": np.eye(4), **weights})
        SOLVERS[method](prob.plant, costspec, prob.constraints,
                        prob.gain0 if K0 is None else K0)


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


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_stalled_search_counts_its_trials(method, monkeypatch):
    # Every trial is evaluated, factored and then refused, so the first
    # search stalls after the 17 powers of 0.1 above MIN_STEP.  Those
    # trials still count in line_search_evals.
    count = 0
    init = SchurSolver.__init__
    evaluate_step = soflqr.linesearch.evaluate_step
    trials = []

    def counting_init(self, Ac):
        nonlocal count
        count += 1
        init(self, Ac)

    def refused(plant, costspec, current, K):
        trials.append(K)
        trial, _ = evaluate_step(plant, costspec, current, K)
        return trial, 0.0

    monkeypatch.setattr(SchurSolver, "__init__", counting_init)
    monkeypatch.setattr(soflqr.linesearch, "evaluate_step", refused)
    prob = builtin_problem("example2")
    result = SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                             prob.gain0)
    assert result.status == "stalled"
    assert result.iterations == 0
    assert len(trials) == 17
    assert result.line_search_evals == len(trials)
    assert count == 1 + result.line_search_evals


@pytest.mark.parametrize("beta", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("name", ["example1", "example2"])
def test_warm_start_moves_no_iterate(name, beta, monkeypatch):
    # The line search started at the power the curvature predicts
    # accepts the cold search's step at every iteration of the gradient
    # runs, with fewer trials, at every beta.
    def cold(*args, curvature=None, **kwargs):
        return line_search(*args, **kwargs)

    prob = builtin_problem(name)
    args = (prob.plant, prob.costspec, prob.constraints, prob.gain0)
    warm = first_order_solve(*args, beta=beta)
    monkeypatch.setattr(soflqr.first_order, "line_search", cold)
    reference = first_order_solve(*args, beta=beta)
    assert warm.status == reference.status == "converged"
    assert warm.iterations == reference.iterations
    np.testing.assert_array_equal(warm.K, reference.K)
    assert warm.cost == reference.cost
    assert warm.step_norm == reference.step_norm
    assert warm.trace.costs == reference.trace.costs
    assert ([r.step_size for r in warm.trace.records]
            == [r.step_size for r in reference.trace.records])
    assert warm.line_search_evals < reference.line_search_evals


@pytest.mark.parametrize("search", ["predicted", "cold"])
@pytest.mark.parametrize("span", [1e6, 1e8])
def test_badly_scaled_trials_are_rejected(span, search, monkeypatch):
    # example1 in the state coordinates x = D x~, D = diag(1 .. span):
    # K and J are unchanged in exact arithmetic.  Searched from t = 1,
    # some trials of the gradient run meet a closed loop whose Schur
    # factor makes trsyl perturb the Lyapunov solve (LinAlgError);
    # the predicted start happens to avoid them.  Such trials are
    # rejected, and either run reaches the unscaled optimum.
    prob = builtin_problem("example1")
    plant, costspec = prob.plant, prob.costspec
    scaled, scaled_cost = rescaled_states(plant, costspec, span)
    args = (prob.constraints, prob.gain0)
    reference = first_order_solve(plant, costspec, *args)
    if search == "cold":
        def cold(*args, curvature=None, **kwargs):
            return line_search(*args, **kwargs)

        monkeypatch.setattr(soflqr.first_order, "line_search", cold)
    result = first_order_solve(scaled, scaled_cost, *args)
    assert result.status == reference.status == "converged"
    assert result.cost == pytest.approx(reference.cost, rel=1e-9)
    np.testing.assert_allclose(result.K, reference.K, atol=1e-6)


def test_infeasible_accepted_step_is_refused(monkeypatch):
    # The unprojected gradient of example2 moves the pinned off-diagonal
    # entries, so the step the search accepts along it leaves the
    # constraint set.  The loop raises instead of going on from that gain.
    prob = builtin_problem("example2")
    plant, costspec = prob.plant, prob.costspec
    gp = gradient(plant, costspec, prob.gain0)
    assert np.abs(gp.grad[[0, 1], [1, 0]]).min() > 0.0
    monkeypatch.setattr(soflqr.first_order, "project_gradient",
                        lambda grad, Z: grad)
    with pytest.raises(RuntimeError, match="violates the constraint set"):
        first_order_solve(plant, costspec, prob.constraints, prob.gain0)


@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_constraints_flattened_once_per_solve(method, monkeypatch):
    flatten = soflqr.problem.flatten_constraints
    calls = []

    def counting(cs, gain_shape):
        calls.append(gain_shape)
        return flatten(cs, gain_shape)

    monkeypatch.setattr(soflqr.problem, "flatten_constraints", counting)
    prob = builtin_problem("example2")
    result = SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                             prob.gain0)
    assert result.converged
    assert result.iterations > 0
    assert calls == [(2, 2)]


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
    with recorded_iterates() as iterates:
        result = first_order_solve(plant, costspec, prob.constraints,
                                   prob.gain0, tol=1e-5)
    assert result.converged
    assert result.iterations >= 600
    for K, J in zip(iterates, result.trace.costs):
        P = solve_continuous_lyapunov(closed_loop(plant, K).T,
                                      -effective_weight(costspec, plant, K))
        assert J == pytest.approx(np.trace(P @ costspec.X0), rel=1e-8)


@pytest.mark.parametrize("name, free", [("example1", None), ("example2", 2)])
def test_identity_basis_only_without_constraints(name, free, monkeypatch):
    # example1 has no constraints: the loop forms no projection, and the
    # Hessian and the step get the identity basis.  example2 pins two of
    # its four gain entries: every iterate projects, and both get the
    # 4 x 2 basis.
    bases, projected = [], []
    hessian = soflqr.second_order.hessian
    newton_step = soflqr.second_order.newton_step
    project = soflqr.first_order.project_gradient

    def recording_hessian(plant, costspec, K, gp, basis=None):
        bases.append(("hessian", basis))
        return hessian(plant, costspec, K, gp, basis)

    def recording_step(Heps, grad, Z):
        bases.append(("step", Z))
        return newton_step(Heps, grad, Z)

    def recording_project(grad, Z):
        projected.append(Z.shape)
        return project(grad, Z)

    monkeypatch.setattr(soflqr.second_order, "hessian", recording_hessian)
    monkeypatch.setattr(soflqr.second_order, "newton_step", recording_step)
    monkeypatch.setattr(soflqr.first_order, "project_gradient",
                        recording_project)
    prob = builtin_problem(name)
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0)
    assert result.converged
    visited = result.iterations + 1
    assert [kind for kind, _ in bases] == ["hessian", "step"] * visited
    if free is None:
        eye = np.eye(prob.gain0.size)
        assert all(np.array_equal(Z, eye) for _, Z in bases)
        assert projected == []
    else:
        assert all(Z.shape == (4, free) for _, Z in bases)
        assert projected == [(4, free)] * visited


@functools.lru_cache(maxsize=None)
def scaled_row_solve(method, scale):
    prob = builtin_problem("example1")
    return SOLVERS[method](prob.plant, prob.costspec,
                           scaled_row_constraint(scale), prob.gain0)


@pytest.mark.parametrize("scale", [1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("method", ["newton", "grad"])
def test_scaled_constraint_row_solves_as_the_unit_row(method, scale):
    # An absolute feasibility tolerance rejected accepted iterates of the
    # scaled row from s = 1e6 on, with a RuntimeError.
    reference = scaled_row_solve(method, 1.0)
    result = scaled_row_solve(method, scale)
    assert result.converged
    assert result.iterations == reference.iterations
    assert result.line_search_evals == reference.line_search_evals
    np.testing.assert_allclose(result.K, reference.K, rtol=1e-11)
    assert result.cost == pytest.approx(reference.cost, rel=1e-13)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("case", [1, 2, 3])
@pytest.mark.parametrize("method", ["newton", "grad"])
def test_overflow_is_never_convergence(method, case):
    # An infinite gradient once gave Newton the step 0, which read as
    # convergence, and an infinite trial ended grad with a ValueError.
    prob = overflow_problem(case)

    def solve():
        return SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                               prob.gain0)

    if method == "grad" and case in (1, 2):
        # The gradient is finite, its norm too, and every trial
        # overflows and is rejected.
        result = solve()
        assert (result.status, result.stop_reason) == (
            "stalled", "line_search_floor")
    else:
        with pytest.raises(np.linalg.LinAlgError, match="non-finite|norm"):
            solve()
