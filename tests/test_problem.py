"""Tests for the problem data model, cost, and constraint handling."""

import csv
import dataclasses
import re

import numpy as np
import pytest

from soflqr import (
    BadStartError,
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    InfeasibleConstraintsError,
    NotHurwitzError,
    Plant,
    ProblemFormatError,
    SolveResult,
    SolveTrace,
    TraceRecord,
    builtin_problem,
    check_feasible,
    closed_loop,
    cost,
    effective_weight,
    evaluate,
    evaluate_start,
    flatten_constraints,
    is_stabilizing,
    vec,
    weights_from_performance_output,
)

from soflqr.lyapunov import HURWITZ_MARGIN

from conftest import identity_cost, scaled_row_constraint, stable_plant


# Cost units c = 10^k, k = -15 ... 15, for the weight checks.
COST_UNITS = [10.0**k for k in range(-15, 16)]


def scalar_problem():
    """A = -1, B = C = 1 with unit weights: J(K) = (1+K^2)/(2(1-K))."""
    plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    return plant, identity_cost(1, 1)


class TestPlantValidation:
    def test_rejects_non_square_A(self):
        with pytest.raises(ValueError, match="A must be square"):
            Plant(A=np.ones((2, 3)), B=np.ones((2, 1)), C=np.ones((1, 2)))

    def test_rejects_bad_B_rows(self):
        with pytest.raises(ValueError, match="B must have 2 rows"):
            Plant(A=np.eye(2), B=np.ones((3, 1)), C=np.ones((1, 2)))

    def test_rejects_bad_C_cols(self):
        with pytest.raises(ValueError, match="C must have 2 columns"):
            Plant(A=np.eye(2), B=np.ones((2, 1)), C=np.ones((1, 3)))

    def test_dimensions(self):
        p = builtin_problem("example1").plant
        assert (p.nstates, p.ninputs, p.noutputs) == (4, 2, 3)
        assert p.gain_shape() == (2, 3)


class TestCostSpecValidation:
    def test_rejects_singular_R(self):
        with pytest.raises(ValueError, match="R must be positive definite"):
            CostSpec(Q=np.eye(2), R=np.zeros((1, 1)), X0=np.eye(2))

    def test_rejects_indefinite_Q(self):
        with pytest.raises(ValueError, match="Q must be positive semi"):
            CostSpec(Q=-np.eye(2), R=np.eye(1), X0=np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="Q must be symmetric"):
            CostSpec(Q=np.array([[1.0, 0.5], [0.0, 1.0]]), R=np.eye(1),
                     X0=np.eye(2))

    @pytest.mark.parametrize(
        "c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_singular_weights_in_any_unit(self, c):
        # Rounding leaves the zero eigenvalues of c C1^T C1 near
        # -eps ||M||, -2.9e-9 for the rank-one C1 at c = 1e6; the bound
        # is relative to the matrix.
        C1 = np.array([[1.0, 2.0, 3.0, 0.5], [0.0, 1.0, 0.0, 1.0]])
        for M in (c * C1.T @ C1, c * C1[:1].T @ C1[:1]):
            CostSpec(Q=M, R=c * np.eye(2), X0=np.eye(4))
            CostSpec(Q=np.eye(4), R=np.eye(2), X0=M)
            # z = [x; u] weighted by diag(M, c I).
            Qw = np.block([[M, np.zeros((4, 2))],
                           [np.zeros((2, 4)), c * np.eye(2)]])
            Q, R = weights_from_performance_output(
                np.eye(6, 4), np.eye(6, 2, -4), Qw)
            np.testing.assert_allclose(Q, M, rtol=1e-15, atol=0.0)
            np.testing.assert_allclose(R, c * np.eye(2), rtol=1e-15,
                                       atol=0.0)

    @pytest.mark.parametrize(
        "c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
    def test_negative_eigenvalue_refused_in_any_unit(self, c):
        # A minimum eigenvalue of -1e-6 max|M| is no rounding error.
        M = c * np.diag([1.0, -1e-6])
        with pytest.raises(ValueError, match="Q must be positive semi"):
            CostSpec(Q=M, R=np.eye(1), X0=np.eye(2))
        with pytest.raises(ValueError, match="X0 must be positive semi"):
            CostSpec(Q=np.eye(2), R=np.eye(1), X0=M)
        with pytest.raises(ValueError, match="Qw must be positive semi"):
            weights_from_performance_output(np.eye(2), np.eye(2), M)

    @pytest.mark.parametrize("c", COST_UNITS)
    def test_asymmetric_weight_refused_in_any_unit(self, c):
        # The symmetric part of each M is positive definite, so only its
        # asymmetry, 0.3 or 1e-10 of max|M|, can refuse it.  A symmetry
        # bound with an absolute floor accepted both at c <= 1e-12.
        for a in (0.3, 1e-10):
            M = c * np.array([[1.0, a], [0.0, 1.0]])
            with pytest.raises(ValueError, match="Q must be symmetric"):
                CostSpec(Q=M, R=np.eye(1), X0=np.eye(2))
            with pytest.raises(ValueError, match="R must be symmetric"):
                CostSpec(Q=np.eye(2), R=M, X0=np.eye(2))
            with pytest.raises(ValueError, match="X0 must be symmetric"):
                CostSpec(Q=np.eye(2), R=np.eye(1), X0=M)
            with pytest.raises(ValueError, match="Qw must be symmetric"):
                weights_from_performance_output(np.eye(2), np.eye(2), M)

    @pytest.mark.parametrize("c", COST_UNITS)
    def test_singular_state_weight_accepted_in_any_unit(self, c):
        C1 = np.array([[1.0, 2.0, 3.0, 0.5], [0.0, 1.0, 0.0, 1.0]])
        CostSpec(Q=c * C1.T @ C1, R=np.eye(2), X0=np.eye(4))

    def test_asymmetric_R_refused_in_small_cost_units(self):
        # example1 in cost units of 1e-13 with R 30% asymmetric: an
        # absolute floor on the symmetry bound accepted it, and Newton
        # with example1's settings ran out its 200 iterations on it.
        prob = builtin_problem("example1")
        c = 1e-13
        with pytest.raises(ValueError, match="R must be symmetric"):
            CostSpec(Q=c * prob.costspec.Q,
                     R=c * np.array([[1.0, 0.3], [0.0, 1.0]]),
                     X0=prob.costspec.X0)

    def test_fields_hold_the_exact_symmetric_part(self):
        # Asymmetric by 1e-14 of max|M|, within the symmetry bound.
        M = np.array([[2.0, 0.5], [0.5 * (1.0 + 1e-14), 1.0]])
        cs = CostSpec(Q=M, R=M, X0=M)
        for W in (cs.Q, cs.R, cs.X0):
            assert np.array_equal(W, W.T)
            np.testing.assert_array_equal(W, 0.5 * (M + M.T))

    def test_weights_near_overflow(self):
        # The symmetric part of a weight near the largest double stays
        # finite, and an indefinite one is still refused.
        big = 1.7e308
        cs = CostSpec(Q=[[big]], R=[[big]], X0=[[big]])
        assert cs.Q[0, 0] == cs.R[0, 0] == cs.X0[0, 0] == big
        with pytest.raises(ValueError, match="Q must be positive semi"):
            CostSpec(Q=[[1.0, big], [big, 1.0]], R=np.eye(1), X0=np.eye(2))

    def test_rejects_Q_and_X0_of_different_orders(self):
        # effective_weight would broadcast this Q to an all-ones 4x4
        # weight, and a solve would converge to the wrong cost.
        with pytest.raises(ValueError, match=r"Q and X0 .*got 1 and 4"):
            CostSpec(Q=[[1.0]], R=np.eye(2), X0=np.eye(4))


class TestClosedLoop:
    def test_zero_gain(self):
        p = builtin_problem("example1").plant
        np.testing.assert_array_equal(closed_loop(p, np.zeros((2, 3))), p.A)

    def test_scalar(self):
        plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
        assert closed_loop(plant, [[0.5]])[0, 0] == pytest.approx(-0.5)

    def test_decentralized_vs_direct_product(self):
        # K = diag(-2, -3) subtracts 2*x2 from rows 1-2 and 3*x3 from row 3.
        p = builtin_problem("example2").plant
        K = np.diag([-2.0, -3.0])
        expected = p.A.copy()
        expected[0] -= 2.0 * p.C[0]
        expected[1] -= 2.0 * p.C[0]
        expected[2] -= 3.0 * p.C[1]
        np.testing.assert_allclose(closed_loop(p, K), expected, atol=1e-15)

    def test_rejects_bad_gain_shape(self):
        p = builtin_problem("example1").plant
        with pytest.raises(ValueError, match="gain shape"):
            closed_loop(p, np.zeros((3, 2)))


class TestEffectiveWeight:
    def test_zero_gain_returns_Q(self):
        prob = builtin_problem("example2")
        W = effective_weight(prob.costspec, prob.plant, np.zeros((2, 2)))
        np.testing.assert_array_equal(W, prob.costspec.Q)

    def test_scalar(self):
        plant, costspec = scalar_problem()
        assert effective_weight(costspec, plant,
                                [[2.0]])[0, 0] == pytest.approx(5.0)

    def test_symmetric_psd(self):
        rng = np.random.default_rng(5)
        plant = stable_plant(rng, 4, 2, 3)
        costspec = identity_cost(4, 2)
        K = rng.standard_normal((2, 3))
        W = effective_weight(costspec, plant, K)
        assert np.array_equal(W, W.T)
        assert np.linalg.eigvalsh(W).min() >= -1e-12


class TestCost:
    def test_scalar_analytic(self):
        plant, costspec = scalar_problem()
        assert cost(plant, costspec, [[0.0]]) == pytest.approx(0.5, abs=1e-12)

    def test_decentralized_initial_cost(self):
        prob = builtin_problem("example2")
        J = cost(prob.plant, prob.costspec, prob.gain0)
        assert J == pytest.approx(22.2010, abs=1e-3)

    def test_decentralized_optimal_cost(self):
        prob = builtin_problem("example2")
        K = np.diag([-1.3211, -6.0723])
        J = cost(prob.plant, prob.costspec, K)
        assert J == pytest.approx(12.8281, abs=1e-3)

    def test_unstable_gain_raises_typed_signal(self):
        # The closed loop of xdot = -x + u at K = 2 is 1.
        plant, costspec = scalar_problem()
        with pytest.raises(NotHurwitzError) as info:
            cost(plant, costspec, [[2.0]])
        assert info.value.abscissa == pytest.approx(1.0)

    def test_certificate_is_positive_definite(self):
        plant, costspec = scalar_problem()
        ev = evaluate(plant, costspec, [[0.0]])
        assert ev.cost == pytest.approx(0.5, abs=1e-12)
        assert np.linalg.eigvalsh(ev.P).min() > 0.0

    def test_finite_iff_stabilizing(self):
        rng = np.random.default_rng(101)
        plant = stable_plant(rng, 3, 1, 2)
        costspec = identity_cost(3, 1)
        for _ in range(10):
            K = 3.0 * rng.standard_normal((1, 2))
            if is_stabilizing(plant, K):
                assert np.isfinite(cost(plant, costspec, K))
            else:
                with pytest.raises(NotHurwitzError) as info:
                    cost(plant, costspec, K)
                assert info.value.abscissa >= HURWITZ_MARGIN


class TestIsStabilizing:
    def test_aircraft_open_loop_stable(self):
        p = builtin_problem("example1").plant
        assert is_stabilizing(p, np.zeros((2, 3)))

    def test_uncontrollable_integrator(self):
        plant = Plant(A=[[0.0, 1.0], [0.0, 0.0]], B=np.zeros((2, 1)),
                      C=np.eye(2))
        assert not is_stabilizing(plant, np.ones((1, 2)))

    def test_scalar_stabilized(self):
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        assert is_stabilizing(plant, [[-2.0]])


class TestFlattenConstraints:
    def test_decentralized_flattening(self):
        prob = builtin_problem("example2")
        Abar, cbar, _ = flatten_constraints(prob.constraints, (2, 2))
        np.testing.assert_array_equal(
            Abar, [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(cbar, [0.0, 0.0])

    def test_pin_single_entry(self):
        # Pin K[0, 1] of a 1x3 gain to 0.7: the row selects vec index 1.
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=[[1.0]],
                                  right=[[0.0], [1.0], [0.0]]),),
            rhs=[[0.7]],
        )])
        Abar, cbar, _ = flatten_constraints(cs, (1, 3))
        np.testing.assert_array_equal(Abar, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(cbar, [0.7])

    @pytest.mark.parametrize("c", [2.0 ** -664, 2.0 ** -40, 2.0 ** 40,
                                   2.0 ** 664])
    def test_scaled_pin_is_the_unit_pin(self, c):
        # The pin above written c times over.  The norm of a row of
        # entries near 1e200 does not overflow, nor near 1e-200 underflow.
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=[[c]],
                                  right=[[0.0], [1.0], [0.0]]),),
            rhs=[[0.7 * c]],
        )])
        Abar, cbar, _ = flatten_constraints(cs, (1, 3))
        np.testing.assert_array_equal(Abar, [[0.0, 1.0, 0.0]])
        np.testing.assert_array_equal(cbar, [0.7])

    def test_random_two_term_constraint_matches_direct_evaluation(self):
        rng = np.random.default_rng(6)
        m, q, r, c = 2, 3, 2, 2
        con = Constraint(
            terms=tuple(
                ConstraintTerm(left=rng.standard_normal((r, m)),
                               right=rng.standard_normal((q, c)))
                for _ in range(2)),
            rhs=np.zeros((r, c)),
        )
        cs = ConstraintSet(constraints=[con])
        Abar, _, _ = flatten_constraints(cs, (m, q))
        # The flattened rows come out divided by their norms.
        norms = np.linalg.norm(
            sum(np.kron(t.right.T, t.left) for t in con.terms), axis=1)
        np.testing.assert_allclose(np.linalg.norm(Abar, axis=1), 1.0,
                                   rtol=1e-15)
        for _ in range(20):
            K = rng.standard_normal((m, q))
            np.testing.assert_allclose(Abar @ vec(K),
                                       vec(con.evaluate(K)) / norms,
                                       atol=1e-12)

    def test_redundant_rows_pruned(self):
        con = Constraint(
            terms=(ConstraintTerm(left=[[1.0, 0.0]], right=[[0.0], [1.0]]),),
            rhs=[[0.0]],
        )
        cs = ConstraintSet(constraints=[con, con])
        Abar, _, _ = flatten_constraints(cs, (2, 2))
        assert Abar.shape == (1, 4)
        assert np.linalg.matrix_rank(Abar) == 1

    def test_inconsistent_rhs_raises(self):
        term = ConstraintTerm(left=[[1.0, 0.0]], right=[[0.0], [1.0]])
        cs = ConstraintSet(constraints=[
            Constraint(terms=(term,), rhs=[[0.0]]),
            Constraint(terms=(term,), rhs=[[1.0]]),
        ])
        with pytest.raises(InfeasibleConstraintsError):
            flatten_constraints(cs, (2, 2))

    def test_scaled_inconsistent_rhs_raises(self):
        # The rows above written 1e-9 times over disagree by 1 on unit
        # rows, not by 1e-9.
        term = ConstraintTerm(left=[[1e-9, 0.0]], right=[[0.0], [1.0]])
        cs = ConstraintSet(constraints=[
            Constraint(terms=(term,), rhs=[[0.0]]),
            Constraint(terms=(term,), rhs=[[1e-9]]),
        ])
        with pytest.raises(InfeasibleConstraintsError):
            flatten_constraints(cs, (2, 2))

    def test_near_dependent_rows_must_agree(self):
        # K[0, 0] = 0 and K[0, 0] + 1e-12 K[1, 0] = 1e-3 on a 2x3 gain:
        # the second row is dependent at the rank tolerance and dropped,
        # so its right-hand side must agree with the kept row's.
        pin = ConstraintTerm(left=[[1.0, 0.0]], right=[[1.0], [0.0], [0.0]])
        tilt = ConstraintTerm(left=[[0.0, 1e-12]],
                              right=[[1.0], [0.0], [0.0]])
        cs = ConstraintSet(constraints=[
            Constraint(terms=(pin,), rhs=[[0.0]]),
            Constraint(terms=(pin, tilt), rhs=[[1e-3]]),
        ])
        with pytest.raises(InfeasibleConstraintsError,
                           match=r"disagree \(misfit 1\.000e-03\)"):
            flatten_constraints(cs, (2, 3))

    @pytest.mark.parametrize("rhs", [0.0, 1.0])
    def test_zero_row(self, rhs):
        # 0 K[0, 0] = rhs: a zero row has no scale, and holds for every
        # gain or for none.
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=[[0.0]], right=[[1.0], [0.0]]),),
            rhs=[[rhs]])])
        if rhs:
            with pytest.raises(InfeasibleConstraintsError):
                flatten_constraints(cs, (1, 2))
            return
        Abar, cbar, Z = flatten_constraints(cs, (1, 2))
        assert Abar.shape == (0, 2) and cbar.shape == (0,)
        np.testing.assert_array_equal(Z, np.eye(2))

    @pytest.mark.parametrize("gain_shape, message", [
        ((3, 2), "'constraints[0].terms[0].left': expected 3 columns"),
        ((2, 3), "'constraints[0].terms[0].right': expected 3 rows"),
    ], ids=["left", "right"])
    def test_term_must_multiply_the_gain(self, gain_shape, message):
        prob = builtin_problem("example2")
        with pytest.raises(ValueError, match=re.escape(message)):
            flatten_constraints(prob.constraints, gain_shape)

    def test_empty_set(self):
        Abar, cbar, Z = flatten_constraints(ConstraintSet(), (2, 3))
        assert Abar.shape == (0, 6)
        assert cbar.shape == (0,)
        np.testing.assert_array_equal(Z, np.eye(6))
        np.testing.assert_array_equal(
            ConstraintSet().null_basis((2, 3)), np.eye(6))

    def test_null_basis_selects_free_entries_exactly(self):
        # example2 pins K[1, 0] and K[0, 1]; the basis spans the
        # coordinate vectors of the free entries, vec indices 0 and 3.
        cs = builtin_problem("example2").constraints
        Z = cs.null_basis((2, 2))
        np.testing.assert_array_equal(np.abs(Z), [[1.0, 0.0], [0.0, 0.0],
                                                  [0.0, 0.0], [0.0, 1.0]])
        G = np.array([[1.5, -2.0], [3.0, 0.25]])
        np.testing.assert_array_equal(Z @ (Z.T @ vec(G)),
                                      [1.5, 0.0, 0.0, 0.25])

    def test_null_basis_orthonormal_complement(self):
        rng = np.random.default_rng(9)
        m, q = 2, 3
        term = ConstraintTerm(left=rng.standard_normal((2, m)),
                              right=rng.standard_normal((q, 1)))
        con = Constraint(terms=(term,), rhs=np.zeros((2, 1)))
        cs = ConstraintSet(constraints=[con, con])
        Abar, _, _ = cs.flattened((m, q))
        Z = cs.null_basis((m, q))
        assert Abar.shape == (2, 6)
        assert Z.shape == (6, 4)
        np.testing.assert_allclose(Z.T @ Z, np.eye(4), atol=1e-14)
        np.testing.assert_allclose(Abar @ Z, 0.0, atol=1e-14)
        assert np.linalg.matrix_rank(np.vstack([Abar, Z.T])) == 6


class TestCheckFeasible:
    def test_decentralized_start_feasible(self):
        prob = builtin_problem("example2")
        assert check_feasible(prob.constraints, prob.gain0)

    def test_off_diagonal_violation(self):
        prob = builtin_problem("example2")
        K = prob.gain0.copy()
        K[0, 1] = 0.1
        assert not check_feasible(prob.constraints, K)

    @pytest.mark.parametrize("scale", [1.0, 1e3, 1e6, 1e9, 1e12])
    def test_tolerance_is_relative_to_the_row(self, scale):
        # The row's norm is 1.446 scale: a gain 0.5e-9 off holds at every
        # scale, one 2e-9 off at none.
        cs = scaled_row_constraint(scale)
        K = np.array([[0.3, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert check_feasible(cs, K)
        K[1, 2] = 0.5e-9
        assert check_feasible(cs, K)
        K[1, 2] = 2e-9
        assert not check_feasible(cs, K)

    def test_empty_set_always_feasible(self):
        assert check_feasible(ConstraintSet(), np.ones((3, 3)))

    def test_set_cannot_change_after_use(self):
        # The flattened system is cached on first use, so a set that
        # could still change would answer for its old constraints.
        pin = Constraint(
            terms=(ConstraintTerm(left=[[1.0, 0.0]],
                                  right=[[1.0], [0.0], [0.0]]),),
            rhs=[[1.0]],
        )
        K0 = builtin_problem("example1").gain0
        given = []
        cs = ConstraintSet(constraints=given)
        assert check_feasible(cs, K0)
        with pytest.raises(AttributeError):
            cs.constraints.append(pin)
        given.append(pin)
        assert len(cs) == 0
        assert check_feasible(cs, K0)
        assert not check_feasible(ConstraintSet(constraints=given), K0)


class TestProblemShapeContract:
    # example2 has n = 3 states and a 2x2 gain.
    @pytest.mark.parametrize("field, change", [
        ("K0", {"gain0": np.zeros((2, 3))}),
        ("K0", {"gain0": [-2.0, -3.0]}),
        ("K0", {"plant": Plant(A=-np.eye(3), B=np.ones((3, 2)),
                               C=np.eye(3))}),
        ("Q", {"costspec": CostSpec(Q=np.eye(2), R=np.eye(2), X0=np.eye(2))}),
        ("R", {"costspec": CostSpec(Q=np.eye(3), R=np.eye(3), X0=np.eye(3))}),
        ("constraints[1].terms[0].right", {"constraints": ConstraintSet(
            constraints=[
                Constraint(terms=((np.eye(2), np.eye(2)),),
                           rhs=np.zeros((2, 2))),
                Constraint(terms=((np.eye(2), np.eye(3)),),
                           rhs=np.zeros((2, 3))),
            ])}),
    ], ids=["K0=2x3", "K0=vector", "C=3x3", "Q=2x2", "R=3x3", "right=3x3"])
    def test_rejects_fields_that_do_not_fit_the_plant(self, field, change):
        prob = builtin_problem("example2")
        with pytest.raises(ProblemFormatError, match=re.escape(f"'{field}'")):
            dataclasses.replace(prob, **change)

    def test_with_params_copy_is_checked(self):
        prob = builtin_problem("example2")
        object.__setattr__(prob, "gain0", np.zeros((2, 3)))
        with pytest.raises(ProblemFormatError, match="'K0'"):
            prob.with_params(tol=1e-3)

    def test_constraints_stay_unflattened(self):
        # The solve, not the problem's construction, pays for flattening.
        prob = builtin_problem("example2")
        assert prob.constraints._flattened is None


class TestEvaluateStart:
    def test_returns_the_evaluation_at_K0(self):
        prob = builtin_problem("example2")
        ev = evaluate_start(prob.plant, prob.costspec, prob.constraints,
                            prob.gain0.tolist())
        reference = evaluate(prob.plant, prob.costspec, prob.gain0)
        np.testing.assert_array_equal(ev.K, prob.gain0)
        np.testing.assert_array_equal(ev.P, reference.P)
        assert ev.cost == reference.cost

    def test_bad_starts(self):
        prob = builtin_problem("example2")
        args = (prob.plant, prob.costspec, prob.constraints)
        with pytest.raises(BadStartError,
                           match=r"stabiliz.*abscissa 1\.675471e\+00"):
            evaluate_start(*args, np.zeros((2, 2)))
        K0 = prob.gain0.copy()
        K0[0, 1] = 0.1
        with pytest.raises(BadStartError, match="constraints"):
            evaluate_start(*args, K0)
        pin = prob.constraints.constraints[0]
        inconsistent = ConstraintSet(constraints=[
            pin, Constraint(terms=pin.terms, rhs=[[1.0]])])
        with pytest.raises(InfeasibleConstraintsError):
            evaluate_start(prob.plant, prob.costspec, inconsistent,
                           prob.gain0)

    def test_inconsistent_constraints_are_a_bad_start(self):
        assert issubclass(InfeasibleConstraintsError, BadStartError)


class TestWeightsFromPerformanceOutput:
    def test_stacked_identity(self):
        n, m = 3, 2
        C1 = np.vstack([np.eye(n), np.zeros((m, n))])
        D1 = np.vstack([np.zeros((n, m)), np.eye(m)])
        Q, R = weights_from_performance_output(C1, D1, np.eye(n + m))
        np.testing.assert_allclose(Q, np.eye(n), atol=1e-14)
        np.testing.assert_allclose(R, np.eye(m), atol=1e-14)

    def test_zero_direct_term_rejected(self):
        with pytest.raises(ValueError,
                           match=r"D1\^T Qw D1 must be positive definite"):
            weights_from_performance_output(np.eye(2), np.zeros((2, 1)),
                                            np.eye(2))

    def test_full_column_rank_direct_term(self):
        rng = np.random.default_rng(9)
        D1 = rng.standard_normal((5, 2))
        _, R = weights_from_performance_output(np.zeros((5, 3)), D1,
                                               np.eye(5))
        assert np.linalg.eigvalsh(R).min() > 0.0

    def test_rejects_indefinite_weight(self):
        with pytest.raises(ValueError, match="Qw"):
            weights_from_performance_output(np.eye(2), np.eye(2),
                                            -np.eye(2))


class TestTraceCSV:
    """``SolveTrace.write_csv`` writes the bytes ``csv.writer`` writes."""

    @staticmethod
    def reference(trace, path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(SolveTrace.CSV_HEADER)
            for r in trace.records:
                writer.writerow([
                    r.iteration, repr(r.cost), repr(r.grad_norm),
                    repr(r.step_norm), repr(r.step_size),
                    repr(r.spectral_abscissa), repr(r.seconds),
                ])
        return path.read_bytes()

    def test_special_values(self, tmp_path):
        inf, nan = float("inf"), float("nan")
        trace = SolveTrace()
        for it, values in enumerate([
                (159.0686, 3.2e-3, 0.0, 0.0, -0.0117, 1.5e-4),
                (nan, inf, -inf, -0.0, 5e-324, 1e308),
                (-1e308, -5e-324, 0.1, 1.0 / 3.0, -inf, 12.0)]):
            trace.records.append(TraceRecord(it, *values))
        trace.write_csv(tmp_path / "t.csv")
        written = (tmp_path / "t.csv").read_bytes()
        assert written == self.reference(trace, tmp_path / "ref.csv")
        assert written.count(b"\r\n") == 4
        assert b"nan,inf,-inf,-0.0,5e-324,1e+308\r\n" in written

    def test_empty_trace_is_header_only(self, tmp_path):
        SolveTrace().write_csv(tmp_path / "t.csv")
        written = (tmp_path / "t.csv").read_bytes()
        assert written == self.reference(SolveTrace(), tmp_path / "ref.csv")
        assert written == (b"iter,J,grad_norm,step_norm,step_size_t,"
                           b"spectral_abscissa,cumulative_seconds\r\n")


class TestSolveResult:
    """A result stores its stop reason; status and converged follow."""

    @pytest.mark.parametrize("stop_reason, status", [
        ("step_tol", "converged"),
        ("cost_resolution", "converged"),
        ("uncertified", "stalled"),
        ("not_descent", "stalled"),
        ("line_search_floor", "stalled"),
        ("max_iters", "max_iters"),
    ])
    def test_status_follows_from_stop_reason(self, stop_reason, status):
        trace = SolveTrace()
        for it in range(3):
            trace.records.append(TraceRecord(it, 10.0 - it, 0.5 ** it, 0.1,
                                             1.0, -1.0, 0.01 * it))
        result = SolveResult(K=np.zeros((1, 1)), cost=8.0,
                             stop_reason=stop_reason, step_norm=0.2,
                             line_search_evals=4, trace=trace)
        assert result.status == status
        assert result.converged == (status == "converged")
        assert (result.iterations, result.grad_norm) == (2, 0.25)
