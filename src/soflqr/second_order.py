"""Equality-constrained Newton solver with an exact Lyapunov-based Hessian.

Each entry-column of the Hessian of the cost with respect to the gain is
assembled from three auxiliary Lyapunov solves against the same closed
loop, so one iteration costs ``3*m*q + 2`` quasi-triangular solves on a
single Schur factorization.  Indefiniteness is handled by the PT
(positive-definite truncation) transform of the Hessian spectrum, and
the constrained Newton step comes from the bordered KKT system, keeping
every iterate on the constraint set.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .first_order import _descend, gradient, project_gradient
from .linesearch import LineSearchStalled, line_search
from .lyapunov import unvec, vec

__all__ = [
    "HessianWorkspace",
    "HessianMatrix",
    "PTMatrix",
    "NewtonStep",
    "build_hessian_workspace",
    "hessian",
    "pt_matrix",
    "newton_step",
    "newton_solve",
    "line_search",
    "LineSearchStalled",
]

# Column-wise asymmetry of the assembled Hessian beyond this level is
# surfaced as a warning; the matrix is symmetric in exact arithmetic.
ASYMMETRY_WARN = 1e-6


@dataclass
class HessianWorkspace:
    """Auxiliary Lyapunov solutions behind one Hessian evaluation.

    For every gain entry ``(i, j)`` (row ``i``, column ``j``) there are
    three n x n solutions; keys are the ``(i, j)`` index pairs.  The
    shared cost matrix and Gramian come from the gradient evaluation at
    the same gain.
    """

    cost_terms: dict = field(default_factory=dict)
    gramian_terms: dict = field(default_factory=dict)
    weight_terms: dict = field(default_factory=dict)
    cost_matrix: np.ndarray = None
    gramian: np.ndarray = None


@dataclass(frozen=True)
class HessianMatrix:
    """Symmetrized Hessian in the vectorized gain coordinates.

    ``asymmetry`` records ``||H_raw - H_raw^T||_F / ||H_raw||_F`` of the
    column-assembled matrix before averaging.
    """

    matrix: np.ndarray
    asymmetry: float


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


def build_hessian_workspace(plant, costspec, K, gp):
    """Solve the auxiliary Lyapunov equations for every gain entry.

    ``gp`` is the :class:`GradientPair` evaluated at the same ``K``; its
    cost matrix and Gramian seed the right-hand sides, and all solves
    reuse its Schur factorization of the closed loop.
    """
    K = np.asarray(K, dtype=float)
    B, C, R = plant.B, plant.C, costspec.R
    m, q = plant.gain_shape()
    solver = gp.solver
    P = gp.cost_matrix.value
    G = gp.gramian.value
    KC = K @ C

    ws = HessianWorkspace(cost_matrix=P, gramian=G)
    for j in range(q):
        for i in range(m):
            # B E_ij C and R E_ij have rank one; build them as outers.
            BEC = np.outer(B[:, i], C[j, :])
            ws.cost_terms[i, j] = solver.solve_primal(P @ BEC)
            ws.gramian_terms[i, j] = solver.solve_adjoint(G @ BEC.T)
            ws.weight_terms[i, j] = solver.solve_primal(
                np.outer(KC.T @ R[:, i], C[j, :]))
    return ws


def hessian(plant, costspec, K, gp, workspace=None):
    """Hessian of the cost in vectorized gain coordinates.

    Columns follow the column-major ordering of the gain entries, so the
    matrix acts on ``vec(K)``.  Each column combines the three auxiliary
    solutions for its entry with the shared gradient data:

        2 B^T (P1 + P1^T) G C^T + 2 (B^T P + R K C)(G1 + G1^T) C^T
        + 2 B^T (R1 + R1^T) G C^T + 2 R E_ij C G C^T.

    The assembled matrix is symmetrized by averaging; asymmetry beyond
    ``ASYMMETRY_WARN`` triggers a warning but is not fatal.
    """
    K = np.asarray(K, dtype=float)
    if workspace is None:
        workspace = build_hessian_workspace(plant, costspec, K, gp)
    B, C, R = plant.B, plant.C, costspec.R
    m, q = plant.gain_shape()
    P = workspace.cost_matrix
    G = workspace.gramian
    BtP_RKC = B.T @ P + R @ K @ C
    GCt = G @ C.T

    H = np.empty((m * q, m * q))
    col = 0
    for j in range(q):
        for i in range(m):
            P1 = workspace.cost_terms[i, j]
            G1 = workspace.gramian_terms[i, j]
            R1 = workspace.weight_terms[i, j]
            block = (2.0 * B.T @ (P1.T + P1) @ GCt
                     + 2.0 * BtP_RKC @ (G1.T + G1) @ C.T
                     + 2.0 * B.T @ (R1.T + R1) @ GCt
                     + 2.0 * np.outer(R[:, i], C[j, :] @ GCt))
            H[:, col] = vec(block)
            col += 1

    norm = np.linalg.norm(H, "fro")
    asymmetry = 0.0
    if norm > 0.0:
        asymmetry = float(np.linalg.norm(H - H.T, "fro") / norm)
    if asymmetry > ASYMMETRY_WARN:
        warnings.warn(
            f"Hessian asymmetry {asymmetry:.3e} exceeds {ASYMMETRY_WARN:.0e}; "
            f"the column solves may be inaccurate",
            RuntimeWarning, stacklevel=2,
        )
    return HessianMatrix(matrix=0.5 * (H + H.T), asymmetry=asymmetry)


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

    Per iteration: evaluate the gradient, assemble the Hessian from the
    auxiliary Lyapunov solves, truncate its spectrum to the positive
    definite model, solve the KKT system for the step, and accept a step
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
