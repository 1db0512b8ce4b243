"""Equality-constrained Newton solver with an exact Lyapunov-based Hessian.

Each entry-column of the Hessian of the cost with respect to the gain
takes one auxiliary Lyapunov solve against the closed loop, done in
Schur coordinates; the adjoint identity between the primal and adjoint
Lyapunov operators supplies the rest.  One iteration therefore costs
``m*q + 2`` quasi-triangular solves on a single Schur factorization.
Indefiniteness is handled by the PT (positive-definite truncation)
transform of the Hessian spectrum, and the constrained Newton step comes
from the bordered KKT system, keeping every iterate on the constraint
set.
"""

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .first_order import _descend, gradient, project_gradient
from .linesearch import LineSearchStalled, line_search
from .lyapunov import unvec, vec

__all__ = [
    "HessianMatrix",
    "PTMatrix",
    "NewtonStep",
    "hessian",
    "pt_matrix",
    "newton_step",
    "newton_solve",
    "line_search",
    "LineSearchStalled",
]


@dataclass(frozen=True)
class HessianMatrix:
    """Hessian in the vectorized gain coordinates, exactly symmetric."""

    matrix: np.ndarray


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
    """Constrained Newton step and its KKT dual variables."""

    step: np.ndarray
    dual: np.ndarray
    predicted_decrease: float


def hessian(plant, costspec, K, gp):
    """Hessian of the cost in vectorized gain coordinates.

    ``gp`` is the :class:`GradientPair` at the same ``K``; its ``P``,
    ``G`` and Schur factorization ``Ac = U T U^T`` are reused.  Columns
    follow the column-major ordering of the gain entries.  With
    ``M = B^T P + R K C``, the column of entry ``E = E_ij`` is

        2 B^T (X + X^T) G C^T + 2 M (Y + Y^T) C^T + 2 R E C G C^T,

    where ``Ac^T X + X Ac + M^T E C = 0`` and
    ``Ac Y + Y Ac^T + B E C G = 0``.  The two Lyapunov operators are
    adjoint to each other, so the matrix of ``Y`` terms is the transpose
    of the matrix ``S`` of ``X`` terms, and
    ``H = S + S^T + 2 kron(C G C^T, R)``: one solve per entry.  Its
    rank-one right-hand side is formed, solved and contracted in Schur
    coordinates, with no n x n basis change.  Both kron factors are
    symmetrized, so ``H`` is symmetric to the last bit.
    """
    K = np.asarray(K, dtype=float)
    B, C, R = plant.B, plant.C, costspec.R
    m, q = plant.gain_shape()
    solver = gp.solver
    U = solver.U
    GCt = gp.gramian.value @ C.T
    Ms = U.T @ (gp.cost_matrix.value @ B + C.T @ K.T @ R)
    Cs = U.T @ C.T
    Bs = U.T @ B
    GCs = U.T @ GCt

    S = np.empty((m * q, m * q))
    col = 0
    for j in range(q):
        for i in range(m):
            Z = solver.solve_schur(np.outer(Ms[:, i], Cs[:, j]))
            S[:, col] = vec(2.0 * (Bs.T @ Z @ GCs + (GCs.T @ Z @ Bs).T))
            col += 1
    CGCt = C @ GCt
    weight = np.kron(0.5 * (CGCt + CGCt.T), 0.5 * (R + R.T))
    return HessianMatrix(matrix=S + S.T + 2.0 * weight)


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
    """Solve the bordered KKT system for the constrained Newton step.

    With curvature model ``Heps`` (a :class:`PTMatrix`) and gradient
    ``grad`` (m x q), solves

        [Heps  Abar^T] [vec(dK)]   [-vec(grad)]
        [Abar    0   ] [  w    ] = [     0    ]

    so the step satisfies ``Abar vec(dK) = 0`` and iterates stay on the
    constraint set.  Without constraints this reduces to the plain
    Newton system.
    """
    grad = np.asarray(grad, dtype=float)
    m, q = grad.shape
    gv = vec(grad)
    Hm = Heps.matrix if isinstance(Heps, PTMatrix) else np.asarray(Heps)
    Abar, _ = cs.flattened((m, q))
    p = Abar.shape[0]
    if p == 0:
        d = scipy.linalg.solve(Hm, -gv, assume_a="pos")
        w = np.zeros(0)
    else:
        kkt = np.zeros((m * q + p, m * q + p))
        kkt[: m * q, : m * q] = Hm
        kkt[: m * q, m * q :] = Abar.T
        kkt[m * q :, : m * q] = Abar
        rhs = np.concatenate([-gv, np.zeros(p)])
        try:
            sol = scipy.linalg.solve(kkt, rhs, assume_a="sym")
        except np.linalg.LinAlgError as exc:
            raise np.linalg.LinAlgError(
                f"KKT system is singular; the constraint matrix is likely "
                f"rank deficient ({exc})"
            ) from exc
        d, w = sol[: m * q], sol[m * q :]
    predicted = -(gv @ d + 0.5 * d @ Hm @ d)
    return NewtonStep(step=unvec(d, m, q), dual=w,
                      predicted_decrease=float(predicted))


def newton_solve(plant, costspec, cs, K0, tol=1e-9, pt_eps=1e-6, alpha=0.2,
                 beta=0.1, max_iters=200, keep_iterates=False):
    """Constrained Newton descent on the structured feedback LQR cost.

    Per iteration: evaluate the gradient, assemble the Hessian from one
    auxiliary Lyapunov solve per gain entry, truncate its spectrum to the
    positive definite model, solve the KKT system for the step, and accept a step
    size with the stability-guarded backtracking search.  Terminates
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
    def direction(K, gp):
        hess = hessian(plant, costspec, K, gp)
        ns = newton_step(pt_matrix(hess.matrix, pt_eps), gp.grad, cs)
        grad_norm = float(np.linalg.norm(vec(project_gradient(gp.grad, cs))))
        return ns.step, grad_norm, float(np.linalg.norm(vec(ns.step)))

    return _descend(plant, costspec, cs, K0, direction, tol, alpha, beta,
                    max_iters, keep_iterates, "Newton", step_measure=True)
