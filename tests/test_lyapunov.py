"""Tests for the Lyapunov kernel: solves, abscissa, vectorization."""

import numpy as np
import pytest
import scipy.linalg

from soflqr import (
    CostSpec,
    NotHurwitzError,
    SchurSolver,
    builtin_problem,
    evaluate,
    evaluate_start,
    gradient,
    spectral_abscissa,
    unvec,
    vec,
)
from soflqr.verify import kron_lyapunov

from conftest import family_member, rescaled_states, stable_plant


def characteristic_polynomial(M):
    """Faddeev-LeVerrier recursion: coefficients of det(sI - M).

    Uses only traces and matrix products, independent of any eigenvalue
    routine, so its roots serve as an eigenvalue oracle.
    """
    n = M.shape[0]
    coeffs = np.empty(n + 1)
    coeffs[0] = 1.0
    N = np.zeros_like(M)
    for k in range(1, n + 1):
        N = M @ N + coeffs[k - 1] * np.eye(n)
        coeffs[k] = -np.trace(M @ N) / k
    return coeffs


def primal_residual(A, X, Q):
    """Frobenius norm of ``A^T X + X A + Q``."""
    return float(np.linalg.norm(A.T @ X + X @ A + Q, "fro"))


class TestSpectralAbscissa:
    def test_diagonal(self):
        assert spectral_abscissa(-np.eye(3)) == -1.0

    def test_imaginary_pair(self):
        assert spectral_abscissa(np.array([[0.0, 1.0], [-1.0, 0.0]])) == 0.0

    def test_aircraft_state_matrix_vs_charpoly_oracle(self):
        # Independent oracle: roots of the characteristic polynomial
        # computed by the Faddeev-LeVerrier recursion.
        A = builtin_problem("example1").plant.A
        roots = np.roots(characteristic_polynomial(A))
        oracle = np.max(roots.real)
        value = spectral_abscissa(A)
        assert value == pytest.approx(oracle, abs=1e-10)
        assert value == pytest.approx(-0.010475941988581745, abs=1e-12)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            spectral_abscissa(np.ones((2, 3)))

    def test_rejects_non_finite(self):
        # The type SchurSolver raises for the same matrix.
        for bad in (np.nan, np.inf):
            with pytest.raises(np.linalg.LinAlgError, match="finite"):
                spectral_abscissa(np.array([[bad, 0.0], [0.0, -1.0]]))


class TestPrimalSolve:
    def test_identity_case(self):
        A, Q = -np.eye(2), 2.0 * np.eye(2)
        X = SchurSolver(A).solve_primal(Q)
        np.testing.assert_allclose(X, np.eye(2), atol=1e-14)
        assert primal_residual(A, X, Q) < 1e-12

    def test_scalar(self):
        X = SchurSolver(np.array([[-2.0]])).solve_primal(np.array([[4.0]]))
        assert X[0, 0] == pytest.approx(1.0, abs=1e-14)

    def test_matches_kronecker_oracle(self):
        rng = np.random.default_rng(42)
        A = stable_plant(rng, 3, 1, 1).A
        X = SchurSolver(A).solve_primal(np.eye(3))
        oracle = kron_lyapunov(A, np.eye(3))
        np.testing.assert_allclose(X, oracle, rtol=0, atol=1e-10)

    def test_result_exactly_symmetric(self):
        # The cost matrix P and the Gramian G the solvers read are
        # symmetrized after the solve; K = 0 leaves the closed loop A.
        rng = np.random.default_rng(7)
        plant = stable_plant(rng, 4, 1, 1)
        costspec = CostSpec(Q=np.diag([1.0, 2.0, 3.0, 4.0]), R=np.eye(1),
                            X0=np.eye(4))
        gp = gradient(plant, costspec, evaluate(plant, costspec,
                                                np.zeros((1, 1))))
        assert np.array_equal(gp.evaluation.P, gp.evaluation.P.T)
        assert np.array_equal(gp.gramian, gp.gramian.T)

    def test_positive_definite_for_definite_weight(self):
        rng = np.random.default_rng(11)
        for _ in range(5):
            A = stable_plant(rng, 4, 1, 1).A
            X = SchurSolver(A).solve_primal(np.eye(4))
            assert np.linalg.eigvalsh(0.5 * (X + X.T)).min() > 0.0

    def test_residual_bound(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            A = stable_plant(rng, 5, 1, 1).A
            Qc = rng.standard_normal((5, 5))
            Qc = Qc + Qc.T
            X = SchurSolver(A).solve_primal(Qc)
            assert primal_residual(A, X, Qc) <= 1e-8 * max(
                1.0, np.linalg.norm(Qc, "fro"))

    def test_rejects_unstable(self):
        with pytest.raises(NotHurwitzError):
            SchurSolver(np.array([[1.0]]))

    def test_rejects_marginal(self):
        # Abscissa in (-1e-10, 0) counts as non-Hurwitz.
        with pytest.raises(NotHurwitzError):
            SchurSolver(np.array([[-1e-12]]))


class TestAdjointSolve:
    def test_identity_case(self):
        Y = SchurSolver(-np.eye(3)).solve_adjoint(2.0 * np.eye(3))
        np.testing.assert_allclose(Y, np.eye(3), atol=1e-14)

    def test_scalar(self):
        Y = SchurSolver(np.array([[-1.0]])).solve_adjoint(np.array([[1.0]]))
        assert Y[0, 0] == pytest.approx(0.5, abs=1e-14)

    def test_psd_for_psd_input(self):
        rng = np.random.default_rng(17)
        A = stable_plant(rng, 4, 1, 1).A
        Y = SchurSolver(A).solve_adjoint(np.eye(4))
        assert np.linalg.eigvalsh(0.5 * (Y + Y.T)).min() > 0.0

    def test_adjoint_pairing(self):
        # <primal(Q), X> = <Q, adjoint(X)> independently solved on each side.
        rng = np.random.default_rng(19)
        for _ in range(10):
            n = int(rng.integers(2, 6))
            A = stable_plant(rng, n, 1, 1).A
            Q = rng.standard_normal((n, n))
            Q = Q + Q.T
            X = rng.standard_normal((n, n))
            X = X + X.T
            solver = SchurSolver(A)
            left = np.trace(solver.solve_primal(Q).T @ X)
            right = np.trace(Q.T @ solver.solve_adjoint(X))
            assert left == pytest.approx(right, rel=1e-9)


class TestSchurSolver:
    def test_factorization_reused_across_rhs(self):
        rng = np.random.default_rng(23)
        A = stable_plant(rng, 4, 1, 1).A
        solver = SchurSolver(A)
        for _ in range(3):
            W = rng.standard_normal((4, 4))
            X = solver.solve_primal(W)
            np.testing.assert_allclose(A.T @ X + X @ A, -W, atol=1e-11)
            Y = solver.solve_adjoint(W)
            np.testing.assert_allclose(Y @ A.T + A @ Y, -W, atol=1e-11)

    def test_abscissa_matches_eigenvalues(self):
        rng = np.random.default_rng(29)
        for _ in range(20):
            A = stable_plant(rng, int(rng.integers(2, 7)), 1, 1).A
            assert SchurSolver(A).abscissa == pytest.approx(
                spectral_abscissa(A), abs=1e-10)

    def test_abscissa_is_exact_schur_diagonal_maximum(self):
        # Every quasi-triangular T here mixes 1x1 and 2x2 blocks; the
        # rightmost eigenvalue is real for some and a complex pair for
        # others.  The abscissa read off diag(T) equals the largest real
        # part of the eigenvalues of T to the last bit.
        rng = np.random.default_rng(31)
        rightmost = set()
        checked = 0
        for _ in range(200):
            n = int(rng.integers(3, 41))
            A = stable_plant(rng, n, 1, 1).A
            solver = SchurSolver(A)
            T = solver.T
            pairs = np.flatnonzero(np.diag(T, -1))
            if pairs.size == 0 or 2 * pairs.size == n:
                continue
            checked += 1
            np.testing.assert_array_equal(T[pairs, pairs],
                                          T[pairs + 1, pairs + 1])
            eigs = np.linalg.eigvals(T)
            assert solver.abscissa == np.max(eigs.real)
            rightmost.add(bool(eigs[np.argmax(eigs.real)].imag != 0.0))
        assert checked >= 100
        assert rightmost == {False, True}

    def test_factor_equals_scipy_schur(self):
        # One plain gees call, pinned bit for bit to scipy's Schur form on
        # the benchmark family's plants, complex pairs included, so that
        # a change to the call shows here.
        pairs = 0
        for n in (1, 2, 3, 4, 8, 40, 60, 80, 120):
            A = family_member(n, 0.5, n=n)[0].A
            T, U = scipy.linalg.schur(A, output="real")
            solver = SchurSolver(A)
            np.testing.assert_array_equal(solver.T, T)
            np.testing.assert_array_equal(solver.U, U)
            pairs += np.count_nonzero(np.diag(T, -1))
        assert pairs > 0

    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    @pytest.mark.parametrize("span", [1e6, 1e8])
    def test_perturbed_solve_names_ill_conditioning(self, span, reverse):
        # example2 in rescaled states: a 2x2 block of T is about
        # [[-2, 1e6], [-3e-6, -2]] at span 1e6, so trsyl perturbs the
        # solve, yet every eigenvalue sum has modulus at least 4.
        prob = builtin_problem("example2")
        plant, costspec = rescaled_states(prob.plant, prob.costspec, span,
                                          reverse)
        with pytest.raises(np.linalg.LinAlgError) as info:
            evaluate_start(plant, costspec, prob.constraints, prob.gain0)
        assert not isinstance(info.value, NotHurwitzError)
        message = str(info.value)
        assert "ill-conditioned" in message
        assert "min |la + lb| = 4.000e+00" in message
        assert "share an eigenvalue" not in message

    def test_perturbed_solve_names_shared_eigenvalue(self):
        # Hurwitz, but -1e-9 - 1e-9 lies within eps ||T||_1 = 2.2e-9 of 0.
        solver = SchurSolver(np.diag([-1e-9, -1e7]))
        with pytest.raises(np.linalg.LinAlgError,
                           match="share an eigenvalue") as info:
            solver.solve_primal(np.eye(2))
        assert not isinstance(info.value, NotHurwitzError)

    @pytest.mark.parametrize("Ac, error", [
        (np.array([[-1.0, np.nan], [0.0, -1.0]]), ValueError),
        (np.array([[-1.0, np.inf], [0.0, -1.0]]), ValueError),
        (np.zeros((0, 0)), ValueError),
        # The unstable eigenvalue is not the first on the diagonal.
        (np.array([[-1.0, 5.0], [0.0, 0.5]]), NotHurwitzError),
    ], ids=["nan", "inf", "empty", "unstable"])
    def test_rejects_bad_input(self, Ac, error):
        with pytest.raises(error):
            SchurSolver(Ac)

    @pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
    def test_non_finite_matrix_is_a_numerical_failure(self, entry):
        # An overflowing closed loop: a refused trial in the line search
        # and exit 5 at the CLI, not the ValueError of a malformed input.
        with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
            SchurSolver(np.array([[-1.0, entry], [0.0, -2.0]]))


class TestVecUnvec:
    def test_column_major(self):
        np.testing.assert_array_equal(
            vec(np.array([[1.0, 2.0], [3.0, 4.0]])),
            np.array([1.0, 3.0, 2.0, 4.0]))

    def test_single_entry_matrix(self):
        E = np.zeros((2, 2))
        E[1, 0] = 1.0
        np.testing.assert_array_equal(vec(E), [0.0, 1.0, 0.0, 0.0])

    def test_unvec_inverts_vec(self):
        rng = np.random.default_rng(31)
        M = rng.standard_normal((2, 3))
        np.testing.assert_array_equal(unvec(vec(M), 2, 3), M)

    def test_unvec_rejects_bad_size(self):
        with pytest.raises(ValueError, match="reshape"):
            unvec(np.arange(5.0), 2, 3)


class TestKron:
    def test_block_diagonal(self):
        M = np.array([[1.0, 2.0], [3.0, 4.0]])
        expected = np.block([[M, np.zeros((2, 2))], [np.zeros((2, 2)), M]])
        np.testing.assert_array_equal(np.kron(np.eye(2), M), expected)

    def test_row_vectors(self):
        np.testing.assert_array_equal(np.kron([0.0, 1.0], [1.0, 0.0]),
                                      [0.0, 0.0, 1.0, 0.0])

    def test_vectorization_identity(self):
        # vec(A X B) = kron(B^T, A) vec(X), via direct multiplication.
        rng = np.random.default_rng(37)
        A, X, B = (rng.standard_normal((2, 2)) for _ in range(3))
        np.testing.assert_allclose(vec(A @ X @ B),
                                   np.kron(B.T, A) @ vec(X), atol=1e-14)
