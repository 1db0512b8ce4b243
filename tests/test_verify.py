"""Tests for the independent verification oracles."""

import numpy as np
import pytest

from soflqr import (
    NotHurwitzError,
    Plant,
    SchurSolver,
    builtin_problem,
    cost,
    gradient,
    hessian,
)
from soflqr.verify import (
    are_gain,
    error_report,
    fd_gradient,
    fd_hessian,
    kron_lyapunov,
    quadrature_cost,
)

from conftest import identity_cost, stable_plant


def scalar_problem():
    plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    return plant, identity_cost(1, 1)


class TestErrorReport:
    def test_locates_worst_entry(self):
        ref = np.array([[1.0, 2.0], [3.0, 4.0]])
        cand = ref.copy()
        cand[1, 0] += 0.5
        report = error_report(ref, cand)
        assert report.location == (1, 0)
        assert report.max_abs_error == pytest.approx(0.5)
        assert report.max_rel_error == pytest.approx(0.5 / 4.0)

    def test_rejects_shape_mismatch(self):
        with pytest.raises(ValueError, match="shape"):
            error_report(np.eye(2), np.eye(3))


class TestFdGradient:
    def test_scalar(self):
        plant, costspec = scalar_problem()
        fd = fd_gradient(plant, costspec, [[0.0]], h=1e-5)
        assert fd[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_rejects_zero_step(self):
        plant, costspec = scalar_problem()
        with pytest.raises(ValueError, match="positive"):
            fd_gradient(plant, costspec, [[0.0]], h=0.0)

    def test_agrees_with_analytic_on_aircraft(self):
        prob = builtin_problem("example1")
        analytic = gradient(prob.plant, prob.costspec, prob.gain0).grad
        fd = fd_gradient(prob.plant, prob.costspec, prob.gain0)
        assert error_report(fd, analytic).max_rel_error <= 1e-5

    def test_shrinks_step_near_stability_boundary(self):
        # Gain sits closer to the stability boundary than the default
        # step, so the first attempt destabilizes and h shrinks once.
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        costspec = identity_cost(1, 1)
        K = np.array([[-1.0 - 5e-6]])
        fd = fd_gradient(plant, costspec, K, h=1e-5)
        assert np.isfinite(fd[0, 0])


class TestFdHessian:
    def test_scalar(self):
        plant, costspec = scalar_problem()
        fd = fd_hessian(plant, costspec, [[0.0]], h=1e-4)
        assert fd[0, 0] == pytest.approx(2.0, abs=1e-4)

    def test_agrees_with_analytic_on_decentralized(self):
        prob = builtin_problem("example2")
        gp = gradient(prob.plant, prob.costspec, prob.gain0)
        analytic = hessian(prob.plant, prob.costspec, prob.gain0, gp)
        fd = fd_hessian(prob.plant, prob.costspec, prob.gain0)
        assert error_report(fd, analytic).max_rel_error <= 1e-4

    def test_output_symmetric_by_construction(self):
        rng = np.random.default_rng(111)
        plant = stable_plant(rng, 3, 2, 2)
        fd = fd_hessian(plant, identity_cost(3, 2), np.zeros((2, 2)))
        assert np.array_equal(fd, fd.T)


class TestKronLyapunov:
    def test_identity_case(self):
        np.testing.assert_allclose(
            kron_lyapunov(-np.eye(2), 2.0 * np.eye(2)), np.eye(2),
            atol=1e-14)

    def test_matches_schur_solver(self):
        rng = np.random.default_rng(113)
        A = stable_plant(rng, 3, 1, 1).A
        Qc = rng.standard_normal((3, 3))
        Qc = Qc + Qc.T
        schur_based = SchurSolver(A).solve_primal(Qc)
        np.testing.assert_allclose(kron_lyapunov(A, Qc), schur_based,
                                   rtol=0, atol=1e-8)

    def test_rejects_shared_eigenvalue(self):
        with pytest.raises(ValueError, match="share an eigenvalue"):
            kron_lyapunov(np.diag([1.0, -1.0]), np.eye(2))

    def test_rejects_large_order(self):
        with pytest.raises(ValueError, match="limited"):
            kron_lyapunov(-np.eye(9), np.eye(9))


class TestAreGain:
    def test_scalar_integrator(self):
        # A = 0, B = 1, Q = R = 1: the Riccati solution is P = 1,
        # so the optimal gain is -1.
        plant = Plant(A=[[0.0]], B=[[1.0]], C=[[1.0]])
        K = are_gain(plant, identity_cost(1, 1), K_init=[[-0.5]])
        assert K[0, 0] == pytest.approx(-1.0, abs=1e-10)

    def test_zero_state_cost(self):
        plant = Plant(A=-np.eye(2), B=np.eye(2), C=np.eye(2))
        costspec = identity_cost(2, 2)
        costspec = type(costspec)(Q=np.zeros((2, 2)), R=np.eye(2),
                                  X0=np.eye(2))
        K = are_gain(plant, costspec)
        np.testing.assert_allclose(K, 0.0, atol=1e-12)

    def test_riccati_residual_and_stability(self):
        rng = np.random.default_rng(127)
        for _ in range(5):
            n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
            plant = stable_plant(rng, n, m, n)
            plant = Plant(A=plant.A, B=plant.B, C=np.eye(n))
            costspec = identity_cost(n, m)
            K = are_gain(plant, costspec)
            Ac = plant.A + plant.B @ K
            assert np.max(np.linalg.eigvals(Ac).real) < 0.0
            P = SchurSolver(Ac).solve_primal(costspec.Q + K.T @ K)
            residual = (plant.A.T @ P + P @ plant.A
                        - P @ plant.B @ plant.B.T @ P + costspec.Q)
            assert np.abs(residual).max() <= 1e-9

    def test_optimality_against_perturbations(self):
        rng = np.random.default_rng(131)
        plant = stable_plant(rng, 3, 2, 3)
        plant = Plant(A=plant.A, B=plant.B, C=np.eye(3))
        costspec = identity_cost(3, 2)
        K = are_gain(plant, costspec)
        base = cost(plant, costspec, K)
        for _ in range(20):
            delta = rng.standard_normal(K.shape)
            delta *= 1e-3 / np.linalg.norm(delta)
            assert base <= cost(plant, costspec, K + delta) + 1e-12

    def test_requires_full_state_feedback(self):
        prob = builtin_problem("example1")
        with pytest.raises(ValueError, match="C = I"):
            are_gain(prob.plant, prob.costspec)


class TestQuadratureCost:
    def test_scalar(self):
        plant, costspec = scalar_problem()
        J = quadrature_cost(plant, costspec, [[0.0]], horizon=40.0,
                            steps=2000)
        assert J == pytest.approx(0.5, abs=1e-8)

    def test_decentralized_initial_cost(self):
        prob = builtin_problem("example2")
        J = quadrature_cost(prob.plant, prob.costspec, prob.gain0,
                            horizon=40.0, steps=4000)
        assert J == pytest.approx(22.2010, abs=1e-2)

    def test_unstable_gain_raises(self):
        # The closed loop of xdot = -x + u at K = 2 is 1.
        plant, costspec = scalar_problem()
        with pytest.raises(NotHurwitzError) as info:
            quadrature_cost(plant, costspec, [[2.0]])
        assert info.value.abscissa == pytest.approx(1.0)

    def test_agrees_with_lyapunov_cost(self):
        rng = np.random.default_rng(137)
        for _ in range(4):
            n = int(rng.integers(2, 5))
            m, q = 1, int(rng.integers(1, 3))
            plant = stable_plant(rng, n, m, q)
            costspec = identity_cost(n, m)
            K = np.zeros((m, q))
            J = cost(plant, costspec, K)
            horizon = max(40.0, 35.0 / 0.7)
            Jq = quadrature_cost(plant, costspec, K, horizon=horizon,
                                 steps=4000)
            assert Jq == pytest.approx(J, rel=1e-6)
