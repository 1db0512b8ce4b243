"""Equality-constrained Newton solver with an exact Lyapunov-based Hessian.

Feasible gains are parameterized as ``vec(K) = vec(K0) + Z theta`` with
an orthonormal basis ``Z`` of the constraint null space (the identity
without constraints), so only the reduced Hessian ``Z^T H Z`` is built.
Each of its columns takes one auxiliary Lyapunov solve against the
closed loop, done in Schur coordinates; the adjoint identity between
the primal and adjoint Lyapunov operators supplies the rest.  With
``p`` independent constraint rows, one iteration therefore costs
``(m*q - p) + 2`` quasi-triangular solves on a single Schur
factorization.  Indefiniteness is handled by the PT (positive-definite
truncation) transform of the reduced Hessian's spectrum, and the step
``Z theta`` keeps every iterate on the constraint set.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .first_order import _descend
from .lyapunov import unvec, vec

__all__ = [
    "PTMatrix",
    "NewtonStep",
    "hessian",
    "pt_matrix",
    "newton_step",
    "newton_solve",
]


@dataclass(frozen=True)
class PTMatrix:
    """Positive-definite truncation of a symmetric matrix.

    Eigenvalues are replaced by ``max(|eig|, eigen_floor)`` in the
    original eigenbasis, so the result is positive definite and shares
    eigenvectors with the input.
    """

    matrix: np.ndarray
    eigen_floor: float
    modified_count: int


@dataclass(frozen=True)
class NewtonStep:
    """Constrained Newton step and the decrease its model predicts."""

    step: np.ndarray
    predicted_decrease: float


def hessian(plant, costspec, K, gp, basis=None):
    """Hessian of the cost in vectorized gain coordinates.

    ``gp`` is the :class:`GradientPair` at the same ``K``; its Gramian
    ``G`` and its evaluation's ``P`` and Schur factorization
    ``Ac = U T U^T`` are reused.  Returns the symmetric ndarray.  Columns
    follow the column-major ordering of the gain entries.  With
    ``basis`` (an ``m*q x N`` matrix ``Z``, such as
    :meth:`ConstraintSet.null_basis`) the result is the reduced Hessian
    ``Z^T H Z`` from ``N`` solves instead of ``m*q``.  With
    ``M = B^T P + R K C``, the column of entry ``E = E_ij`` is

        2 B^T (X + X^T) G C^T + 2 M (Y + Y^T) C^T + 2 R E C G C^T,

    where ``Ac^T X + X Ac + M^T E C = 0`` and
    ``Ac Y + Y Ac^T + B E C G = 0``.  The two Lyapunov operators are
    adjoint to each other, so the matrix of ``Y`` terms is the transpose
    of the matrix ``S`` of ``X`` terms, and
    ``H = S + S^T + 2 kron(C G C^T, R)``: one solve per entry.  By
    linearity, the solve with ``E = unvec(z)`` gives ``S z`` for a basis
    column ``z``, and the reduced Hessian is
    ``Z^T S Z + (Z^T S Z)^T + 2 Z^T kron(C G C^T, R) Z``.  Each
    right-hand side is formed, solved and contracted in Schur
    coordinates, with no n x n basis change.  Both kron factors are
    symmetrized, so the result is symmetric to the last bit; a basis of
    coordinate vectors, such as the identity, selects its entries
    exactly.
    """
    K = np.asarray(K, dtype=float)
    B, C, R = plant.B, plant.C, costspec.R
    m, q = plant.gain_shape()
    Z = np.eye(m * q) if basis is None else np.asarray(basis, dtype=float)
    solver = gp.evaluation.solver
    U = solver.U
    GCt = gp.gramian.value @ C.T
    Ms = U.T @ (gp.evaluation.P.value @ B + C.T @ K.T @ R)
    Cs = U.T @ C.T
    Bs = U.T @ B
    GCs = U.T @ GCt

    SZ = np.empty(Z.shape)
    for col in range(Z.shape[1]):
        Y = solver.solve_schur(Ms @ unvec(Z[:, col], m, q) @ Cs.T)
        SZ[:, col] = vec(2.0 * (Bs.T @ Y @ GCs + (GCs.T @ Y @ Bs).T))
    S = Z.T @ SZ
    CGCt = C @ GCt
    weight = np.kron(0.5 * (CGCt + CGCt.T), 0.5 * (R + R.T))
    return S + S.T + 2.0 * (Z.T @ weight @ Z)


def pt_matrix(H, eps):
    """Positive-definite truncation of a symmetric matrix ``H``.

    Eigendecomposes ``H`` with a symmetric eigensolver and maps each
    eigenvalue to its absolute value, or to ``eps`` when the absolute
    value falls below ``eps``.  The result is the curvature model used
    by the Newton step: positive definite, same eigenvectors as ``H``.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    H = np.asarray(H, dtype=float)
    eigvals, M = np.linalg.eigh(0.5 * (H + H.T))
    truncated = np.where(np.abs(eigvals) >= eps, np.abs(eigvals), eps)
    modified = int(np.sum(truncated != eigvals))
    Heps = (M * truncated) @ M.T
    return PTMatrix(matrix=0.5 * (Heps + Heps.T), eigen_floor=float(eps),
                    modified_count=modified)


def newton_step(Heps, grad, cs):
    """Constrained Newton step from the reduced curvature model.

    ``Heps`` is the :class:`PTMatrix` of ``Z^T H Z``, a positive
    definite model, for the null-space basis ``Z`` of the
    constraints, and ``grad`` is the m x q gradient.  Solves
    ``Heps theta = -Z^T vec(grad)`` by Cholesky and returns the step
    ``unvec(Z theta)``, which satisfies ``Abar vec(dK) = 0``, so iterates
    stay on the constraint set.  Without constraints ``Z`` is the
    identity and this is the plain Newton system.
    """
    grad = np.asarray(grad, dtype=float)
    m, q = grad.shape
    Z = cs.null_basis((m, q))
    Hm = Heps.matrix
    g = Z.T @ vec(grad)
    theta = scipy.linalg.solve(Hm, -g, assume_a="pos")
    predicted = -(g @ theta + 0.5 * theta @ Hm @ theta)
    return NewtonStep(step=unvec(Z @ theta, m, q),
                      predicted_decrease=float(predicted))


def newton_solve(plant, costspec, cs, K0, tol=1e-9, pt_eps=1e-6, alpha=0.2,
                 beta=0.1, max_iters=200, keep_iterates=False):
    """Constrained Newton descent on the structured feedback LQR cost.

    Per iteration: evaluate the gradient, assemble the Hessian reduced to
    the constraint null space from one auxiliary Lyapunov solve per free
    coordinate, truncate its spectrum to the positive definite model,
    solve it for the step, and accept a step size with the
    stability-guarded backtracking search.  Terminates
    when ``||vec(dK)|| <= tol``.

    Parameters
    ----------
    K0 : ndarray
        Initial gain; must be stabilizing and feasible.
    tol : float
        Stopping threshold on the Newton step norm.
    pt_eps : float
        Eigenvalue floor of the truncated curvature model.

    Returns
    -------
    SolveResult
        Final gain, cost, convergence status, and per-iteration trace.
    """
    def direction(gp, pg):
        K = gp.evaluation.K
        H = hessian(plant, costspec, K, gp, cs.null_basis(K.shape))
        return newton_step(pt_matrix(H, pt_eps), gp.grad, cs).step

    return _descend(plant, costspec, cs, K0, direction, tol, alpha, beta,
                    max_iters, keep_iterates, "Newton", step_measure=True)
