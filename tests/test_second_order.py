"""Tests for the Hessian, PT truncation, Newton step, and Newton solver."""

import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import soflqr
from soflqr import (
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    LineSearchStalled,
    NotHurwitzError,
    Plant,
    ProblemFormatError,
    SchurSolver,
    SolverParams,
    builtin_problem,
    cost,
    curvature,
    first_order_solve,
    gradient,
    hessian,
    line_search,
    newton_solve,
    newton_step,
    pt_matrix,
    spectral_abscissa,
    vec,
)
from soflqr.linesearch import _first_power
from soflqr.second_order import eigen_hessian, schur_hessian
from soflqr.verify import are_gain, error_report, fd_hessian, kron_hessian

from conftest import (
    family_member,
    identity_cost,
    random_spd,
    recorded_iterates,
    stable_plant,
)


def scalar_problem():
    plant = Plant(A=[[-1.0]], B=[[1.0]], C=[[1.0]])
    return plant, identity_cost(1, 1)


# The line-search settings of the tests below: alpha = 0.2, beta = 0.1.
SEARCH = SolverParams(alpha=0.2, beta=0.1)


def slope(gp, delta):
    """``<grad, delta>``, the slope :func:`line_search` is given."""
    return float(np.vdot(gp.grad, delta))


def pinned_diagonal_problem(n=40, k=4, seed=0):
    """Random n-state plant with a diagonal k x k gain.

    ``A = randn / sqrt(n)`` shifted to spectral abscissa -0.5, standard
    normal ``B`` and ``C``, identity weights.  Every off-diagonal gain
    entry is pinned to 0, except ``K[0, 1]``, pinned to 0.1, which the
    start gain also holds.  Only k of the k*k entries are free.
    """
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (spectral_abscissa(A) + 0.5) * np.eye(n)
    plant = Plant(A=A, B=rng.standard_normal((n, k)),
                  C=rng.standard_normal((k, n)))
    constraints = []
    for j in range(k):
        for i in range(k):
            if i != j:
                left = np.zeros((1, k))
                left[0, i] = 1.0
                right = np.zeros((k, 1))
                right[j, 0] = 1.0
                value = 0.1 if (i, j) == (0, 1) else 0.0
                constraints.append(Constraint(
                    terms=(ConstraintTerm(left=left, right=right),),
                    rhs=[[value]]))
    K0 = np.zeros((k, k))
    K0[0, 1] = 0.1
    return (plant, identity_cost(n, k), ConstraintSet(constraints=constraints),
            K0)


class TestHessian:
    def test_scalar_analytic(self):
        # J(K) = (1+K^2)/(2(1-K)) gives J''(0) = 2.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        H = hessian(plant, costspec, [[0.0]], gp)
        assert H[0, 0] == pytest.approx(2.0, abs=1e-12)

    def test_matches_finite_differences_of_gradient(self):
        # Non-identity weights exercise every Hessian term, including
        # the input-weight couplings.
        rng = np.random.default_rng(71)
        for _ in range(2):
            plant = stable_plant(rng, 3, 2, 2)
            costspec = CostSpec(Q=random_spd(rng, 3), R=random_spd(rng, 2),
                                X0=random_spd(rng, 3))
            K = np.zeros((2, 2))
            gp = gradient(plant, costspec, K)
            H = hessian(plant, costspec, K, gp)
            report = error_report(fd_hessian(plant, costspec, K), H)
            assert report.max_rel_error <= 1e-4

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(73)
        plant = stable_plant(rng, 4, 2, 2)
        costspec = identity_cost(4, 2)
        K = 0.1 * rng.standard_normal((2, 2))
        gp = gradient(plant, costspec, K)
        H = hessian(plant, costspec, K, gp)
        assert np.array_equal(H, H.T)
        report = error_report(kron_hessian(plant, costspec, K), H)
        assert report.max_rel_error <= 1e-10

    def test_matches_kron_oracle(self):
        # Each column's one Schur-coordinate solve against the paper's
        # three Kronecker-solved terms, on the bundled decentralized
        # problem and on random plants with non-identity weights.
        prob = builtin_problem("example2")
        cases = [(prob.plant, prob.costspec, prob.gain0)]
        rng = np.random.default_rng(75)
        for n, m, q in [(3, 2, 2), (5, 1, 3), (6, 3, 2)]:
            costspec = CostSpec(Q=random_spd(rng, n), R=random_spd(rng, m),
                                X0=random_spd(rng, n))
            cases.append((stable_plant(rng, n, m, q), costspec,
                          0.05 * rng.standard_normal((m, q))))
        for plant, costspec, K in cases:
            gp = gradient(plant, costspec, K)
            H = hessian(plant, costspec, K, gp)
            report = error_report(kron_hessian(plant, costspec, K), H)
            assert report.max_rel_error <= 1e-10

    def test_paths_match_oracle_and_each_other(self):
        # The eigenbasis contraction and the Schur loop on random plants
        # with non-identity weights and a nonzero gain.
        rng = np.random.default_rng(101)
        for n, m, q in [(3, 2, 2), (8, 3, 2), (16, 2, 3), (40, 4, 6),
                        (60, 3, 4)]:
            plant = stable_plant(rng, n, m, q)
            costspec = CostSpec(Q=random_spd(rng, n), R=random_spd(rng, m),
                                X0=random_spd(rng, n))
            K = 0.02 * rng.standard_normal((m, q))
            gp = gradient(plant, costspec, K)
            eigen = eigen_hessian(plant, costspec, gp)
            schur = schur_hessian(plant, costspec, gp)
            assert np.array_equal(eigen, eigen.T)
            assert error_report(schur, eigen).max_rel_error <= 1e-12
            if n <= 16:
                reference = kron_hessian(plant, costspec, K, max_order=16)
                for H in (eigen, schur):
                    assert error_report(reference, H).max_rel_error <= 1e-9

    def test_defective_closed_loop_takes_schur_path(self):
        # A 3x3 Jordan block has one eigenvector: the eigenbasis formula
        # would be far off, so the guard hands the Hessian to the loop.
        A = -np.eye(3) + np.diag([1.0, 1.0], 1)
        plant = Plant(A=A, B=[[0.0], [0.0], [1.0]], C=[[1.0, 0.0, 0.0]])
        costspec = identity_cost(3, 1)
        K = np.zeros((1, 1))
        gp = gradient(plant, costspec, K)
        assert eigen_hessian(plant, costspec, gp) is None
        H = hessian(plant, costspec, K, gp)
        np.testing.assert_array_equal(H,
                                      schur_hessian(plant, costspec, gp))
        report = error_report(kron_hessian(plant, costspec, K), H)
        assert report.max_rel_error <= 1e-9

    @pytest.mark.parametrize("case", ["example1", "diag40k4"])
    def test_eigen_path_solves_no_lyapunov_equation(self, monkeypatch, case):
        if case == "example1":
            prob = builtin_problem("example1")
            plant, costspec, cs, K = (prob.plant, prob.costspec,
                                      prob.constraints, prob.gain0)
        else:
            plant, costspec, cs, K = pinned_diagonal_problem()
        gp = gradient(plant, costspec, K)
        calls = {"solve_schur": 0, "__init__": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(SchurSolver,
                                                             name),
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(SchurSolver, name, counted)
        # hessian picks the eigenbasis path here: the Schur loop would
        # make one solve per free coordinate.
        Z = cs.null_basis(K.shape)
        H = hessian(plant, costspec, K, gp, Z)
        assert calls == {"solve_schur": 0, "__init__": 0}
        np.testing.assert_array_equal(
            H, eigen_hessian(plant, costspec, gp, Z))

    @pytest.mark.parametrize("case", ["example1", "random3x2"])
    def test_one_schur_solve_per_entry(self, monkeypatch, case):
        if case == "example1":
            prob = builtin_problem("example1")
            plant, costspec, K = prob.plant, prob.costspec, prob.gain0
        else:
            plant = stable_plant(np.random.default_rng(77), 5, 3, 2)
            costspec = identity_cost(5, 3)
            K = np.zeros((3, 2))
        gp = gradient(plant, costspec, K)
        calls = {"solve_schur": 0, "__init__": 0}
        for name in calls:
            def counted(*args, _name=name, _original=getattr(SchurSolver,
                                                             name),
                        **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            monkeypatch.setattr(SchurSolver, name, counted)
        schur_hessian(plant, costspec, gp)
        assert calls == {"solve_schur": K.size, "__init__": 0}

    @pytest.mark.parametrize("case, free", [("example2", 2),
                                            ("diag40k4", 4)])
    def test_one_schur_solve_per_free_coordinate(self, monkeypatch, case,
                                                 free):
        if case == "example2":
            prob = builtin_problem("example2")
            plant, costspec, cs, K = (prob.plant, prob.costspec,
                                      prob.constraints, prob.gain0)
        else:
            plant, costspec, cs, K = pinned_diagonal_problem()
        Z = cs.null_basis(K.shape)
        gp = gradient(plant, costspec, K)
        calls = 0
        original = SchurSolver.solve_schur

        def counted(*args, **kwargs):
            nonlocal calls
            calls += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(SchurSolver, "solve_schur", counted)
        reduced = schur_hessian(plant, costspec, gp, Z)
        assert calls == free
        assert reduced.shape == (free, free)
        assert np.array_equal(reduced, reduced.T)
        monkeypatch.setattr(SchurSolver, "solve_schur", original)
        full = schur_hessian(plant, costspec, gp)
        report = error_report(Z.T @ full @ Z, reduced)
        assert report.max_rel_error <= 1e-12


def identity_basis_cases():
    """``(name, plant, costspec, K)`` without constraints: example1, and
    the n = 8 family member with a 2 x 3 gain (m q = 6) at a nonzero
    gain, under random positive definite weights."""
    prob = builtin_problem("example1")
    rng = np.random.default_rng(113)
    plant, _ = family_member(0, 0.5)
    costspec = CostSpec(Q=random_spd(rng, 8), R=random_spd(rng, 2),
                        X0=random_spd(rng, 8))
    return [("example1", prob.plant, prob.costspec, prob.gain0),
            ("family", plant, costspec,
             0.05 * rng.standard_normal((2, 3)))]


class TestIdentityBasisShortcuts:
    """Without a basis, each Hessian path forms the full Hessian, that of
    the basis ``Z = I``, bit for bit."""

    @pytest.mark.parametrize("case", [0, 1])
    def test_hessian_paths_without_basis(self, case):
        _, plant, costspec, K = identity_basis_cases()[case]
        gp = gradient(plant, costspec, K)
        eye = np.eye(K.size)
        for path in (eigen_hessian, schur_hessian, hessian):
            args = (plant, costspec, K, gp) if path is hessian else (
                plant, costspec, gp)
            H = path(*args)
            assert H is not None, path.__name__
            assert H.tobytes() == path(*args, eye).tobytes(), path.__name__
        assert hessian(plant, costspec, K, gp).tobytes() == eigen_hessian(
            plant, costspec, gp).tobytes()


class TestPTMatrix:
    def test_truncation_rule(self):
        H = np.diag([2.0, -0.5, 1e-12])
        result = pt_matrix(H, 1e-6)
        np.testing.assert_allclose(
            np.sort(np.linalg.eigvalsh(result.matrix)),
            [1e-6, 0.5, 2.0], rtol=1e-12)
        assert result.modified_count == 2

    def test_definite_input_unchanged(self):
        rng = np.random.default_rng(79)
        M = rng.standard_normal((4, 4))
        H = M @ M.T + 0.5 * np.eye(4)
        result = pt_matrix(H, 1e-6)
        np.testing.assert_allclose(result.matrix, H, atol=1e-12)
        assert result.modified_count == 0

    def test_negated_identity(self):
        result = pt_matrix(-np.eye(3), 1e-6)
        np.testing.assert_allclose(result.matrix, np.eye(3), atol=1e-12)

    def test_shares_eigenbasis(self):
        rng = np.random.default_rng(83)
        M = rng.standard_normal((5, 5))
        H = M + M.T
        Heps = pt_matrix(H, 1e-3).matrix
        commutator = H @ Heps - Heps @ H
        assert np.linalg.norm(commutator, "fro") <= 1e-12

    def test_rejects_nonpositive_floor(self):
        with pytest.raises(ValueError, match="positive"):
            pt_matrix(np.eye(2), 0.0)

    @pytest.mark.parametrize("entry", [np.nan, np.inf])
    def test_non_finite_hessian_is_a_numerical_failure(self, entry):
        # eigh gives an infinite Hessian an infinite eigenvalue and the
        # step 0, which would read as convergence.
        H = np.eye(2)
        H[0, 0] = entry
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            pt_matrix(H, 1e-6)


class TestNewtonStep:
    def test_scalar_unconstrained(self):
        step = newton_step(pt_matrix(np.array([[2.0]]), 1e-9),
                           np.array([[0.5]]), np.eye(1))
        assert step[0, 0] == pytest.approx(-0.25, abs=1e-14)
        # The slope -<g, step> along the step.
        assert -np.vdot([[0.5]], step) == pytest.approx(0.125, abs=1e-14)

    def test_fully_pinned_gain_cannot_move(self):
        # Pinning every entry leaves an empty null space, a 0 x 0 reduced
        # model and only the zero step.
        constraints = []
        for i in range(2):
            for j in range(2):
                left = np.zeros((1, 2))
                left[0, i] = 1.0
                right = np.zeros((2, 1))
                right[j, 0] = 1.0
                constraints.append(Constraint(
                    terms=(ConstraintTerm(left=left, right=right),),
                    rhs=[[0.0]]))
        cs = ConstraintSet(constraints=constraints)
        Z = cs.null_basis((2, 2))
        assert Z.shape == (4, 0)
        H = pt_matrix(Z.T @ np.diag([3.0, 1.0, 2.0, 5.0]) @ Z, 1e-9)
        step = newton_step(H, np.ones((2, 2)), Z)
        np.testing.assert_array_equal(step, np.zeros((2, 2)))
        assert -np.vdot(np.ones((2, 2)), step) == 0.0

    def test_random_kkt_residual(self):
        # The reduced model Z^T H Z of an indefinite H: the step lies in
        # the null space, is stationary for the PT model restricted to
        # it, and descends along the raw gradient.
        rng = np.random.default_rng(89)
        m, q, p = 2, 3, 2
        M = rng.standard_normal((m * q, m * q))
        cs = ConstraintSet(constraints=[Constraint(
            terms=(ConstraintTerm(left=rng.standard_normal((p, m)),
                                  right=rng.standard_normal((q, 1))),),
            rhs=np.zeros((p, 1)),
        )])
        Abar, _, _ = cs.flattened((m, q))
        Z = cs.null_basis((m, q))
        assert Z.shape == (m * q, m * q - p)
        H = pt_matrix(Z.T @ (M + M.T) @ Z, 1e-6)
        G = rng.standard_normal((m, q))
        step = newton_step(H, G, Z)
        d = vec(step)
        np.testing.assert_allclose(Abar @ d, 0.0, atol=1e-10)
        residual = H.matrix @ (Z.T @ d) + Z.T @ vec(G)
        np.testing.assert_allclose(residual, 0.0, atol=1e-10)
        # Descent against the raw gradient.
        assert float(vec(G) @ d) < 0.0
        assert -np.vdot(G, step) > 0.0


class TestLineSearch:
    def test_full_step_accepted(self):
        plant, costspec = scalar_problem()
        K = np.array([[0.0]])
        gp = gradient(plant, costspec, K)
        delta = np.array([[-0.25]])
        trial, t, evals = line_search(plant, costspec, gp.evaluation,
                                      delta, slope(gp, delta), SEARCH)
        assert t == 1.0
        assert evals == 1
        assert trial.K[0, 0] == pytest.approx(-0.25)

    def test_backtracks_past_unstable_trial(self):
        # Unstable plant A = 1: gains above -1 destabilize.  From K = -3
        # the full step lands at -0.5 (unstable); t = 0.1 is accepted.
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        costspec = identity_cost(1, 1)
        K = np.array([[-3.0]])
        gp = gradient(plant, costspec, K)
        assert gp.grad[0, 0] == pytest.approx(-0.25, abs=1e-12)
        delta = np.array([[2.5]])
        trial, t, evals = line_search(plant, costspec, gp.evaluation,
                                      delta, slope(gp, delta), SEARCH)
        assert t == pytest.approx(0.1)
        assert evals == 2
        assert trial.K[0, 0] == pytest.approx(-2.75)
        assert cost(plant, costspec, trial.K) < cost(plant, costspec, K)

    def test_rejects_ascent_direction(self, monkeypatch):
        # A direction with a positive or a zero slope stalls before any
        # trial is evaluated: no closed loop is factored.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        delta = np.array([[1.0]])
        built = []
        monkeypatch.setattr(SchurSolver, "__init__",
                            lambda self, Ac: built.append(Ac))
        for s in (slope(gp, delta), 0.0):
            with pytest.raises(LineSearchStalled, match="descent") as info:
                line_search(plant, costspec, gp.evaluation, delta, s, SEARCH)
            assert info.value.evals == 0
        assert built == []

    def test_rejects_bad_parameters(self):
        # The ranges of alpha and beta are SolverParams' to check.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        delta = np.array([[-0.1]])
        with pytest.raises(ProblemFormatError, match="alpha"):
            line_search(plant, costspec, gp.evaluation, delta,
                        slope(gp, delta), SolverParams(alpha=0.7, beta=0.1))
        with pytest.raises(ProblemFormatError, match="beta"):
            line_search(plant, costspec, gp.evaluation, delta,
                        slope(gp, delta), SolverParams(alpha=0.2, beta=1.5))

    def test_ill_conditioned_trial_is_rejected(self, monkeypatch):
        # A trial whose Lyapunov solve LAPACK had to perturb (trsyl
        # info = 1, raised as LinAlgError) is rejected like an unstable
        # one; the search goes on to t = 0.1.
        import soflqr.linesearch

        evaluate_step = soflqr.linesearch.evaluate_step
        refusals = []

        def ill_conditioned_unit_step(plant, costspec, current, K):
            if K[0, 0] == -0.25:
                # The solve at a Hurwitz matrix that trsyl perturbs.
                try:
                    SchurSolver(np.diag([-1e-9, -1e7])).solve_primal(
                        np.eye(2))
                except np.linalg.LinAlgError as exc:
                    refusals.append(exc)
                    raise
            return evaluate_step(plant, costspec, current, K)

        monkeypatch.setattr(soflqr.linesearch, "evaluate_step",
                            ill_conditioned_unit_step)
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        delta = np.array([[-0.25]])
        trial, t, evals = line_search(plant, costspec, gp.evaluation,
                                      delta, slope(gp, delta), SEARCH)
        assert (t, evals) == (0.1, 2)
        assert trial.K[0, 0] == pytest.approx(-0.025)
        assert len(refusals) == 1
        assert not isinstance(refusals[0], NotHurwitzError)

    def test_illegal_lapack_argument_is_not_a_rejection(self, monkeypatch):
        # info < 0 from trsyl is a programming error: it leaves the
        # search as ValueError at the first trial instead of being
        # counted as a rejected trial.
        import soflqr._lapack

        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        delta = np.array([[-0.25]])
        calls = []

        def illegal(T, *args, **kwargs):
            calls.append(T)
            return np.zeros_like(T), 1.0, -3

        monkeypatch.setattr(soflqr._lapack.flapack, "dtrsyl", illegal)
        with pytest.raises(ValueError, match="illegal value") as info:
            line_search(plant, costspec, gp.evaluation, delta,
                        slope(gp, delta), SEARCH)
        assert type(info.value) is ValueError
        assert len(calls) == 1

    def test_stalls_below_float_resolution(self):
        # A direction so small that K + t*delta rounds back to K can
        # never produce a strict decrease.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        delta = np.array([[-1e-300]])
        with pytest.raises(LineSearchStalled):
            line_search(plant, costspec, gp.evaluation, delta,
                        slope(gp, delta), SEARCH)


class TestFirstPower:
    @pytest.mark.parametrize("bound, estimate, power", [
        # 0.1 ** 2 rounds above 0.01: the estimate is raised.
        (0.01, 2, 3),
        # The bound is 0.1 ** 5 itself, but the logarithms give 6: the
        # estimate is lowered.
        (1.0000000000000003e-05, 6, 5),
    ])
    def test_corrects_the_logarithm(self, bound, estimate, power):
        beta = 0.1
        assert math.ceil(math.log(bound) / math.log(beta)) == estimate
        k = _first_power(beta, bound)
        assert k == power
        # The least k with beta ** k <= bound.
        assert beta ** k <= bound < beta ** (k - 1)


def steep_scalar_problem():
    """:func:`scalar_problem` with ``X0 = 100``: along ``delta = -0.25``
    from ``K = 0`` the slope is -12.5 and the curvature 12.5, and the unit
    step is acceptable."""
    plant, _ = scalar_problem()
    return plant, CostSpec(Q=[[1.0]], R=[[1.0]], X0=[[100.0]])


class TestWarmStart:
    """``line_search`` started at the power the curvature predicts.

    With slope ``s`` and curvature ``kappa`` the start is the largest
    ``beta ** k <= 2 (1 - alpha) |s| / kappa``, or 1.
    """

    @staticmethod
    def trial_steps(monkeypatch, delta):
        """Record ``t`` of every trial at ``K = 0`` along ``delta``."""
        import soflqr.linesearch

        steps = []
        evaluate_step = soflqr.linesearch.evaluate_step

        def recording(plant, costspec, current, K):
            steps.append(float(K[0, 0] / delta))
            return evaluate_step(plant, costspec, current, K)

        monkeypatch.setattr(soflqr.linesearch, "evaluate_step", recording)
        return steps

    @pytest.mark.parametrize("k", [0, 1, 3, 7, 16])
    def test_first_trial_is_cold_power(self, k, monkeypatch):
        # A curvature that predicts 5 beta^k, between beta^k and
        # beta^(k-1), starts at the cold sequence's k-th power.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        steps = self.trial_steps(monkeypatch, -1.0)
        slope = -0.5
        assert np.vdot(gp.grad, [[-1.0]]) == slope
        line_search(plant, costspec, gp.evaluation, np.array([[-1.0]]),
                    slope, SEARCH,
                    curvature=1.6 * -slope / (5.0 * 0.1 ** k))
        assert steps[0] == 0.1 ** k

    @pytest.mark.parametrize("curvature", [None, 0.0, -1.0, 0.5, 1.0, 4.0])
    def test_cold_start(self, curvature, monkeypatch):
        # No curvature, one that is not positive, or one below
        # 2 (1 - alpha) |s| = 20, which predicts a step above 1: the
        # search starts at t = 1.
        plant, costspec = steep_scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        steps = self.trial_steps(monkeypatch, -0.25)
        delta = np.array([[-0.25]])
        # None passes no curvature: the default.
        given = {} if curvature is None else {"curvature": curvature}
        _, t, evals = line_search(plant, costspec, gp.evaluation, delta,
                                  slope(gp, delta), SEARCH, **given)
        assert steps == [1.0]
        assert (t, evals) == (1.0, 1)

    def test_skips_only_rejected_powers(self):
        # The cold search rejects t = 1 (unstable) and accepts t = 0.1.
        # The exact curvature predicts 0.64, so the search starts at 0.1,
        # accepts it, and the cubic rules out t = 1 without a trial.
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        costspec = identity_cost(1, 1)
        gp = gradient(plant, costspec, [[-3.0]])
        delta = np.array([[2.5]])
        kappa = curvature(plant, costspec, gp, delta)
        assert kappa == pytest.approx(1.5625, rel=1e-12)
        args = (plant, costspec, gp.evaluation, delta, slope(gp, delta),
                SEARCH)
        cold_trial, cold_t, cold_evals = line_search(*args)
        trial, t, evals = line_search(*args, curvature=kappa)
        assert (cold_t, cold_evals) == (0.1, 2)
        assert (t, evals) == (cold_t, 1)
        np.testing.assert_array_equal(trial.K, cold_trial.K)
        assert trial.cost == cold_trial.cost

    @pytest.mark.parametrize("delta, accepted", [(-0.5, 1.0), (-1.0, 0.1)],
                             ids=["confirmed", "refuted"])
    def test_climb(self, delta, accepted, monkeypatch):
        # The exact curvature predicts 0.8 and 0.4, so both searches
        # start at 0.1, accept it, and the cubic predicts Armijo at 1.
        # Along -0.5 the trial at 1 confirms it; along -1 it does not
        # (J(-1) = J(0)), and the search keeps 0.1.  Either way the step
        # is the cold search's.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        args = (plant, costspec, gp.evaluation, np.array([[delta]]),
                slope(gp, [[delta]]), SEARCH)
        cold_trial, cold_t, _ = line_search(*args)
        steps = self.trial_steps(monkeypatch, delta)
        kappa = curvature(plant, costspec, gp, np.array([[delta]]))
        assert kappa == pytest.approx(2.0 * delta ** 2, rel=1e-12)
        trial, t, evals = line_search(*args, curvature=kappa)
        assert steps == [0.1, 1.0]
        assert t == cold_t == accepted
        assert evals == 2
        np.testing.assert_array_equal(trial.K, cold_trial.K)

    @pytest.mark.parametrize("curvature, delta, trials", [
        # Predicted below MIN_STEP: the last power, then 1.
        (1e300, -0.25, [1e-16, 1.0]),
        # Predicted 5e-11 along a tiny direction: the cost change of
        # every power from 1e-11 down rounds away, so the search wraps.
        (160.0, -1e-8, [1e-11, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1.0]),
    ], ids=["past-floor", "tiny-direction"])
    def test_wraps_to_skipped_powers(self, curvature, delta, trials,
                                     monkeypatch):
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        steps = self.trial_steps(monkeypatch, delta)
        _, t, evals = line_search(plant, costspec, gp.evaluation,
                                  np.array([[delta]]), slope(gp, [[delta]]),
                                  SEARCH, curvature=curvature)
        assert t == 1.0
        assert evals == len(trials)
        np.testing.assert_allclose(steps, trials, rtol=1e-14)

    @pytest.mark.parametrize("curvature", [None, 1.0, 1.0 - 1e-12])
    def test_beta_near_one_unit_step(self, curvature, monkeypatch):
        # With beta this close to 1 there are about 3.7e13 powers above
        # MIN_STEP; an acceptable unit step is still found after one
        # trial, without enumerating them.
        plant, costspec = steep_scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        steps = self.trial_steps(monkeypatch, -0.25)
        delta = np.array([[-0.25]])
        given = {} if curvature is None else {"curvature": curvature}
        _, t, evals = line_search(plant, costspec, gp.evaluation, delta,
                                  slope(gp, delta),
                                  SolverParams(alpha=0.2, beta=1.0 - 1e-12),
                                  **given)
        assert steps == [1.0]
        assert (t, evals) == (1.0, 1)

    def test_beta_near_one_predicted_start(self):
        # With beta = 1 - 1e-12 the predicted start 0.8 is about 2.2e11
        # powers below 1; it is found from logarithms, not by walking
        # down.  B = 0 makes J(K) = (1 + K^2) / 2 exactly quadratic, so
        # the start is the largest acceptable power and the cubic stops
        # the climb at once.  A fresh interpreter with a timeout, so that
        # a walk over the powers fails instead of hanging the suite.
        root = str(Path(soflqr.__file__).resolve().parent.parent)
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {root!r})\n"
            "import numpy as np\n"
            "from soflqr import (CostSpec, Plant, SolverParams, curvature,\n"
            "                    gradient, line_search)\n"
            "plant = Plant(A=[[-1.0]], B=[[0.0]], C=[[1.0]])\n"
            "costspec = CostSpec(Q=[[1.0]], R=[[1.0]], X0=[[1.0]])\n"
            "gp = gradient(plant, costspec, [[1.0]])\n"
            "delta = np.array([[-2.0]])\n"
            "kappa = curvature(plant, costspec, gp, delta)\n"
            "_, t, evals = line_search(plant, costspec, gp.evaluation,\n"
            "                          delta, float(np.vdot(gp.grad, delta)),\n"
            "                          SolverParams(alpha=0.2, beta=1.0 - 1e-12),\n"
            "                          curvature=kappa)\n"
            "print(kappa, t, evals)\n"
        )
        proc = subprocess.run([sys.executable, "-c", probe],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        kappa, t, evals = map(float, proc.stdout.split())
        assert kappa == pytest.approx(4.0, rel=1e-12)
        assert 0.8 * (1.0 - 1e-11) <= t <= 0.8
        assert evals == 1

    @pytest.mark.parametrize("curvature", [0.1, 1e-8, 1e-300])
    def test_stalls_below_float_resolution(self, curvature, monkeypatch):
        # Started at the floor (first two) or at 0.1 (last), the search
        # still tries all 17 powers above MIN_STEP before it stalls.
        plant, costspec = scalar_problem()
        gp = gradient(plant, costspec, [[0.0]])
        steps = self.trial_steps(monkeypatch, -1e-300)
        delta = np.array([[-1e-300]])
        with pytest.raises(LineSearchStalled):
            line_search(plant, costspec, gp.evaluation, delta,
                        slope(gp, delta), SEARCH, curvature=curvature)
        assert len(steps) == 17


class TestNewtonSolve:
    def test_aircraft_benchmark(self):
        prob = builtin_problem("example1")
        result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                              prob.gain0, tol=1e-9, pt_eps=1e-9)
        assert result.converged
        assert result.iterations <= 40
        assert result.cost == pytest.approx(159.0686, abs=1e-2)
        expected = np.array([[0.3975, 1.5925, 7.8522],
                             [-1.2575, -3.4823, -5.0041]])
        np.testing.assert_allclose(result.K, expected, atol=2e-3)

    def test_decentralized_benchmark(self):
        prob = builtin_problem("example2")
        with recorded_iterates() as iterates:
            result = newton_solve(prob.plant, prob.costspec,
                                  prob.constraints, prob.gain0, tol=1e-9,
                                  pt_eps=1e-6)
        assert result.converged
        assert result.iterations <= 15
        assert result.cost == pytest.approx(12.8281, abs=1e-3)
        assert result.K[0, 0] == pytest.approx(-1.3211, abs=1e-3)
        assert result.K[1, 1] == pytest.approx(-6.0723, abs=1e-3)
        for K in iterates:
            assert abs(K[0, 1]) <= 1e-9
            assert abs(K[1, 0]) <= 1e-9

    def test_matches_full_information_optimum(self):
        rng = np.random.default_rng(97)
        plant = stable_plant(rng, 3, 2, 3)
        plant = Plant(A=plant.A, B=plant.B, C=np.eye(3))
        costspec = identity_cost(3, 2)
        result = newton_solve(plant, costspec, ConstraintSet.empty(),
                              np.zeros((2, 3)), tol=1e-9, pt_eps=1e-9)
        np.testing.assert_allclose(result.K, are_gain(plant, costspec),
                                   atol=1e-6)

    def test_pinned_diagonal_converges_to_gradient_optimum(self):
        # PT of the full indefinite Hessian used to distort the step on
        # this instance: 29 iterations, ending stalled.  PT of the
        # positive definite reduced Hessian converges quadratically.
        plant, costspec, cs, K0 = pinned_diagonal_problem()
        newton = newton_solve(plant, costspec, cs, K0, tol=1e-9,
                              pt_eps=1e-6)
        assert newton.status == "converged"
        assert newton.iterations <= 10
        grad = first_order_solve(plant, costspec, cs, K0, tol=1e-5)
        # The gradient baseline used to stall at the rounding floor of J
        # after 313 iterations.
        assert grad.status == "converged"
        assert newton.cost == pytest.approx(grad.cost, rel=1e-9)
        assert newton.K[0, 1] == 0.1

    def test_large_pinned_diagonal_converges(self):
        # 80 states, an 8 x 8 diagonal gain: Newton used to stall at step
        # norm 4.2e-9 against tol 1e-9, the rounding floor of J.
        plant, costspec, cs, K0 = pinned_diagonal_problem(n=80, k=8, seed=1)
        result = newton_solve(plant, costspec, cs, K0, tol=1e-9,
                              pt_eps=1e-6)
        assert result.status == "converged"
        assert result.iterations <= 12

    def test_zero_step_start(self):
        prob = builtin_problem("example2")
        converged = newton_solve(prob.plant, prob.costspec,
                                 prob.constraints, prob.gain0,
                                 tol=1e-9, pt_eps=1e-6)
        again = newton_solve(prob.plant, prob.costspec, prob.constraints,
                             converged.K, tol=1e-6, pt_eps=1e-6)
        assert again.iterations == 0
        assert again.converged

    def test_rejects_unstable_start(self):
        plant = Plant(A=[[1.0]], B=[[1.0]], C=[[1.0]])
        with pytest.raises(ValueError, match="stabilize"):
            newton_solve(plant, identity_cost(1, 1), ConstraintSet.empty(),
                         [[0.0]])

    def test_monotone_descent_with_stability(self):
        prob = builtin_problem("example1")
        result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                              prob.gain0, tol=1e-9, pt_eps=1e-9)
        costs = result.trace.costs
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert all(r.spectral_abscissa < 0.0 for r in result.trace.records)
