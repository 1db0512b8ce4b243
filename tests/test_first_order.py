"""Tests for the analytic gradient, projection, and baseline solver."""

import numpy as np
import pytest

from soflqr import (
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    Plant,
    builtin_problem,
    check_feasible,
    cost,
    first_order_solve,
    gradient,
    project_gradient,
    vec,
)
from soflqr.verify import are_gain, error_report, fd_gradient

from conftest import (
    identity_cost,
    random_spd,
    recorded_iterates,
    stable_plant,
)


class TestGradient:
    def test_scalar_analytic(self):
        # A = -1, B = C = 1, unit weights: P = 0.5, Gramian = 0.5,
        # grad = 2 * 0.5 * 0.5 = 0.5 at K = 0.
        plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        gp = gradient(plant, identity_cost(1, 1), [[0.0]])
        assert gp.evaluation.P[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gp.gramian[0, 0] == pytest.approx(0.5, abs=1e-14)
        assert gp.grad[0, 0] == pytest.approx(0.5, abs=1e-13)

    def test_vanishes_at_full_information_optimum(self):
        rng = np.random.default_rng(21)
        plant = stable_plant(rng, 4, 2, 4)
        plant = Plant(A=plant.A, B=plant.B, C=np.eye(4))
        costspec = identity_cost(4, 2)
        K = are_gain(plant, costspec)
        gp = gradient(plant, costspec, K)
        assert np.linalg.norm(gp.grad, "fro") <= 1e-8

    def test_matches_finite_differences(self):
        # Non-identity weights exercise the input-weight coupling.
        rng = np.random.default_rng(33)
        for _ in range(3):
            n, m, q = 4, 2, 2
            plant = stable_plant(rng, n, m, q)
            costspec = CostSpec(Q=random_spd(rng, n), R=random_spd(rng, m),
                                X0=random_spd(rng, n))
            K = np.zeros((m, q))
            report = error_report(fd_gradient(plant, costspec, K),
                                  gradient(plant, costspec, K).grad)
            assert report.max_rel_error <= 1e-5

    def test_cost_matrix_positive_definite(self):
        rng = np.random.default_rng(35)
        plant = stable_plant(rng, 3, 1, 2)
        gp = gradient(plant, identity_cost(3, 1), np.zeros((1, 2)))
        assert np.linalg.eigvalsh(gp.evaluation.P).min() > 0.0

    def test_cost_accessor_matches_cost(self):
        prob = builtin_problem("example2")
        gp = gradient(prob.plant, prob.costspec, prob.gain0)
        assert gp.evaluation.cost == pytest.approx(22.2010, abs=1e-3)


class TestProjectGradient:
    def test_sparsity_pattern_zeroes_pinned_entries(self):
        Z = builtin_problem("example2").constraints.null_basis((2, 2))
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        Gp = project_gradient(G, Z)
        np.testing.assert_allclose(
            Gp, [[1.0, 0.0], [0.0, 4.0]], atol=1e-12)

    def test_empty_constraints_identity(self):
        G = np.array([[1.0, 2.0], [3.0, 4.0]])
        np.testing.assert_array_equal(
            project_gradient(G, ConstraintSet().null_basis((2, 2))), G)

    def test_projection_properties(self):
        rng = np.random.default_rng(43)
        m, q = 2, 3
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=rng.standard_normal((2, m)),
                                  right=rng.standard_normal((q, 1))),),
            rhs=np.zeros((2, 1)),
        )])
        Abar, _, _ = cs.flattened((m, q))
        assert np.linalg.matrix_rank(Abar) == Abar.shape[0]
        G = rng.standard_normal((m, q))
        Gp = project_gradient(G, cs.null_basis((m, q)))
        # Projected direction lies in the constraint null space.
        np.testing.assert_allclose(Abar @ vec(Gp), 0.0, atol=1e-12)
        # Removed component lies in the row space.
        coeffs, residual, _, _ = np.linalg.lstsq(Abar.T, vec(G) - vec(Gp),
                                                 rcond=None)
        np.testing.assert_allclose(Abar.T @ coeffs, vec(G) - vec(Gp),
                                   atol=1e-12)

    def test_idempotent(self):
        rng = np.random.default_rng(47)
        Z = builtin_problem("example2").constraints.null_basis((2, 2))
        G = rng.standard_normal((2, 2))
        once = project_gradient(G, Z)
        twice = project_gradient(once, Z)
        np.testing.assert_allclose(twice, once, atol=1e-12)

    def test_closest_feasible_direction(self):
        rng = np.random.default_rng(53)
        Z = builtin_problem("example2").constraints.null_basis((2, 2))
        G = rng.standard_normal((2, 2))
        Gp = project_gradient(G, Z)
        best = np.linalg.norm(G - Gp, "fro")
        for _ in range(20):
            h = project_gradient(rng.standard_normal((2, 2)), Z)
            assert best <= np.linalg.norm(G - h, "fro") + 1e-12


class TestFirstOrderSolve:
    def test_zero_gradient_start(self):
        rng = np.random.default_rng(61)
        plant = stable_plant(rng, 3, 2, 3)
        plant = Plant(A=plant.A, B=plant.B, C=np.eye(3))
        costspec = identity_cost(3, 2)
        K_opt = are_gain(plant, costspec)
        result = first_order_solve(plant, costspec, ConstraintSet(),
                                   K_opt, tol=1e-6)
        assert result.iterations == 0
        assert result.converged
        np.testing.assert_array_equal(result.K, K_opt)

    def test_rejects_unstable_start(self):
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="stabilize"):
            first_order_solve(plant, identity_cost(1, 1),
                              ConstraintSet(), [[0.0]])

    def test_rejects_infeasible_start(self):
        prob = builtin_problem("example2")
        K0 = prob.gain0.copy()
        K0[0, 1] = 0.5
        with pytest.raises(ValueError, match="constraints"):
            first_order_solve(prob.plant, prob.costspec, prob.constraints,
                              K0)

    def test_decentralized_benchmark(self):
        prob = builtin_problem("example2")
        with recorded_iterates() as iterates:
            result = first_order_solve(prob.plant, prob.costspec,
                                       prob.constraints, prob.gain0,
                                       tol=1e-9)
        assert result.K[0, 0] == pytest.approx(-1.3211, abs=1e-3)
        assert result.K[1, 1] == pytest.approx(-6.0723, abs=1e-3)
        assert result.cost == pytest.approx(12.8281, abs=1e-3)
        # Every iterate stays feasible and the cost strictly decreases.
        for K in iterates:
            assert check_feasible(prob.constraints, K)
        costs = result.trace.costs
        assert all(a > b for a, b in zip(costs, costs[1:]))

    def test_trace_matches_result(self):
        prob = builtin_problem("example2")
        result = first_order_solve(prob.plant, prob.costspec,
                                   prob.constraints, prob.gain0, tol=1e-4)
        assert result.converged
        assert len(result.trace.records) == result.iterations + 1
        # The trace ends at the certified running sum, and the result
        # reports the cost of the returned gain.
        J = cost(prob.plant, prob.costspec, result.K)
        assert result.cost == pytest.approx(J, rel=1e-12, abs=0.0)
        assert result.trace.records[-1].cost == pytest.approx(J, rel=1e-9)

    def test_pinned_nonzero_entry_held_through_solve(self):
        # Inhomogeneous constraint: K[0, 0] pinned to its start value.
        prob = builtin_problem("example2")
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=[[1.0, 0.0]], right=[[1.0], [0.0]]),),
            rhs=[[-2.0]],
        )])
        with recorded_iterates() as iterates:
            result = first_order_solve(prob.plant, prob.costspec, cs,
                                       prob.gain0, tol=1e-6)
        for K in iterates:
            assert K[0, 0] == pytest.approx(-2.0, abs=1e-9)
        assert result.cost < 22.2010
