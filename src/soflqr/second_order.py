"""Equality-constrained Newton solver with an exact Lyapunov-based Hessian.

Feasible gains are parameterized as ``vec(K) = vec(K0) + Z theta`` with
an orthonormal basis ``Z`` of the constraint null space (the identity
without constraints), so only the reduced Hessian ``Z^T H Z`` is built.
It reuses the gradient's Schur factorization of the closed loop: either
in the eigenbasis of the Schur factor, where every auxiliary Lyapunov
solve becomes an elementwise product, or, when that basis is too badly
conditioned, from one auxiliary solve in Schur coordinates per free
coordinate.  The adjoint identity between the primal and adjoint
Lyapunov operators supplies the rest.  Indefiniteness is handled by the
PT (positive-definite truncation) of the reduced Hessian's spectrum,
and the step is solved in the eigenbasis the truncation computes.  The
step ``Z theta`` keeps every iterate on the constraint set.
"""

from dataclasses import dataclass

import numpy as np

from ._lapack import lapack
from .first_order import _descend
from .lyapunov import unvec, vec
from .problems import SolverParams

__all__ = [
    "PTMatrix",
    "EIGEN_GUARD",
    "hessian",
    "schur_hessian",
    "eigen_hessian",
    "pt_matrix",
    "newton_step",
    "newton_solve",
]


# Largest kappa_1(W) ||T||_1 / min |lambda_a + lambda_b| for which the
# Hessian is formed in the eigenbasis W of the Schur factor T.
EIGEN_GUARD = 1e6


@dataclass(frozen=True)
class PTMatrix:
    """Positive-definite truncation of a symmetric matrix, kept factored.

    ``eigvecs`` is the input's orthonormal eigenbasis ``V``; ``eigvals``
    are its eigenvalues replaced by ``max(|eig|, eps)``, so the model
    ``V diag(eigvals) V^T`` is positive definite.  ``modified_count`` is
    the number of eigenvalues changed.
    """

    eigvals: np.ndarray
    eigvecs: np.ndarray
    modified_count: int

    @property
    def matrix(self):
        """The model ``V diag(eigvals) V^T``, formed on each read."""
        return (self.eigvecs * self.eigvals) @ self.eigvecs.T


def hessian(plant, costspec, K, gp, basis=None):
    """Hessian of the cost in vectorized gain coordinates.

    ``gp`` is the :class:`GradientPair` at the gain ``K``, which the
    Hessian reads from ``gp`` rather than from ``K``; its Gramian
    ``G``, its ``M = B^T P + R K C`` and its evaluation's Schur form
    ``Ac = U T U^T`` are reused.  Returns the symmetric ndarray.  Columns
    follow the column-major ordering of the gain entries.  With
    ``basis`` (an ``m*q x N`` matrix ``Z``, such as
    :meth:`ConstraintSet.null_basis`) the result is the reduced Hessian
    ``Z^T H Z``; without it, ``Z`` is the identity and the result is
    ``H`` itself.  The column of entry ``E = E_ij`` is

        2 B^T (X + X^T) G C^T + 2 M (Y + Y^T) C^T + 2 R E C G C^T,

    where ``Ac^T X + X Ac + M^T E C = 0`` and
    ``Ac Y + Y Ac^T + B E C G = 0``.  The two Lyapunov operators are
    adjoint to each other, so the matrix of ``Y`` terms is the transpose
    of the matrix ``S`` of ``X`` terms, and
    ``H = S + S^T + 2 kron(C G C^T, R)``.  The reduced Hessian is
    ``Z^T S Z + (Z^T S Z)^T + 2 Z^T kron(C G C^T, R) Z``.  Both kron
    factors are symmetrized, so the result is symmetric to the last bit;
    a basis of coordinate vectors, such as the identity, selects its
    entries exactly.

    ``S`` comes from :func:`eigen_hessian` when the eigenvectors of
    ``T`` are well enough conditioned for it, and otherwise from
    :func:`schur_hessian`.
    """
    # K stays the third argument: benchmarks/spans.py sizes the Hessian
    # span from it.
    H = eigen_hessian(plant, costspec, gp, basis)
    return schur_hessian(plant, costspec, gp, basis) if H is None else H


def _schur_factors(plant, gp):
    # M^T, C^T, B and G C^T in the Schur coordinates of the closed loop.
    U, C = gp.evaluation.solver.U, plant.C
    return U.T @ gp.M.T, U.T @ C.T, U.T @ plant.B, U.T @ (gp.gramian @ C.T)


def _assemble(plant, costspec, gp, Z, ZSZ):
    # The reduced Hessian from ZSZ = Z^T S Z.
    CGCt = plant.C @ gp.gramian @ plant.C.T
    weight = np.kron(0.5 * (CGCt + CGCt.T), costspec.R)
    return ZSZ + ZSZ.T + 2.0 * (Z.T @ weight @ Z)


def _basis(plant, basis):
    # No basis is the identity, which gives the full Hessian.
    if basis is None:
        m, q = plant.gain_shape()
        return np.eye(m * q)
    return np.asarray(basis, dtype=float)


def schur_hessian(plant, costspec, gp, basis=None):
    """:func:`hessian` from one Schur-coordinate Lyapunov solve per basis
    column.

    By linearity, the solve with ``E = unvec(z)`` gives ``S z`` for a
    basis column ``z``, so the reduced Hessian takes ``N`` solves.  Each
    right-hand side is formed, solved and contracted in Schur
    coordinates, with no n x n basis change.  This path is correct for
    every Hurwitz closed loop, defective ones included.
    """
    m, q = plant.gain_shape()
    Z = _basis(plant, basis)
    solver = gp.evaluation.solver
    Ms, Cs, Bs, GCs = _schur_factors(plant, gp)
    SZ = np.empty(Z.shape)
    for col in range(Z.shape[1]):
        Y = solver.solve_schur(Ms @ unvec(Z[:, col], m, q) @ Cs.T)
        SZ[:, col] = vec(2.0 * (Bs.T @ Y @ GCs + (GCs.T @ Y @ Bs).T))
    return _assemble(plant, costspec, gp, Z, Z.T @ SZ)


def _khatri_rao(X, Y):
    # Row-wise Khatri-Rao product: row a is kron(X[a], Y[a]).
    return (X[:, :, None] * Y[:, None, :]).reshape(X.shape[0], -1)


def eigen_hessian(plant, costspec, gp, basis=None):
    """:func:`hessian` from the eigenvectors of the Schur factor ``T``.

    With ``T = W Lambda W^-1``, the solve ``T^T Y + Y T + Ms E Cs^T = 0``
    is ``Y = -W^-T (L o (Mv E Cv^T)) W^-1`` for ``Mv = W^T Ms``,
    ``Cv = W^T Cs`` and ``L_ab = 1 / (lambda_a + lambda_b)``.  With
    ``Bv = W^-1 Bs`` and ``Gv = W^-1 G Cs``, the entry of ``S`` that maps
    ``E_ij`` to gain entry ``(k, l)`` is

        -2 ((Bv o Mv)^T L (Cv o Gv))[(k, i), (j, l)]
        -2 ((Cv o Bv)^T L (Mv o Gv))[(j, k), (i, l)],

    where ``o`` is the row-wise Khatri-Rao product: one eigendecomposition
    of ``T`` and two contractions, with no Lyapunov solve.

    The path is used only where it is accurate:
    ``kappa_1(W) ||T||_1 / min |lambda_a + lambda_b|`` must be at most
    ``EIGEN_GUARD``, with ``kappa_1(W)`` estimated by LAPACK ``gecon`` on
    the LU factors that also apply ``W^-1``.  Otherwise, as for a
    defective closed loop or an exactly singular ``W`` (``getrf``'s
    ``info > 0``), it returns None.  An illegal argument to ``getrf``,
    ``gecon`` or ``getrs`` raises ``ValueError``.
    """
    m, q = plant.gain_shape()
    T = gp.evaluation.solver.T
    lam, W = np.linalg.eig(T)
    # W is real when every eigenvalue of T is, complex otherwise.
    prefix = "z" if np.iscomplexobj(W) else "d"
    lu, piv, info = lapack(prefix + "getrf", W)
    if info > 0:
        return None
    rcond, _ = lapack(prefix + "gecon", lu, np.linalg.norm(W, 1),
                      norm="1")
    sums = lam[:, None] + lam[None, :]
    if not np.linalg.norm(T, 1) <= EIGEN_GUARD * rcond * np.abs(sums).min():
        return None
    L = 1.0 / sums
    Ms, Cs, Bs, GCs = _schur_factors(plant, gp)
    BG, _ = lapack(prefix + "getrs", lu, piv,
                   np.hstack([Bs, GCs]).astype(W.dtype))
    Bv, Gv = BG[:, :m], BG[:, m:]
    Mv, Cv = W.T @ Ms, W.T @ Cs
    F1 = (_khatri_rao(Bv, Mv).T @ (L @ _khatri_rao(Cv, Gv))).real
    F2 = (_khatri_rao(Cv, Bv).T @ (L @ _khatri_rao(Mv, Gv))).real
    # F1[k, i, j, l] and F2[j, k, i, l] to S[(k, l), (i, j)], whose row
    # and column indices are column-major: k + m l and i + m j.
    S = -2.0 * (F1.reshape(m, m, q, q).transpose(3, 0, 2, 1)
                + F2.reshape(q, m, m, q).transpose(3, 1, 0, 2))
    S = S.reshape(m * q, m * q)
    Z = _basis(plant, basis)
    return _assemble(plant, costspec, gp, Z, Z.T @ S @ Z)


def pt_matrix(H, eps):
    """Positive-definite truncation of a symmetric matrix ``H``.

    Eigendecomposes ``H`` with a symmetric eigensolver and maps each
    eigenvalue to its absolute value, or to ``eps`` when the absolute
    value falls below ``eps``.  Returns the eigenpairs of the result, the
    Newton step's positive definite curvature model.  Raises
    ``numpy.linalg.LinAlgError`` if ``H`` has a non-finite entry, as an
    overflowing Hessian does: its truncation is no curvature model.
    """
    if eps <= 0.0:
        raise ValueError(f"eps must be positive, got {eps}")
    H = np.asarray(H, dtype=float)
    if not np.isfinite(H).all():
        raise np.linalg.LinAlgError("Hessian has non-finite entries")
    eigvals, V = np.linalg.eigh(0.5 * (H + H.T))
    truncated = np.where(np.abs(eigvals) >= eps, np.abs(eigvals), eps)
    modified = int(np.sum(truncated != eigvals))
    return PTMatrix(eigvals=truncated, eigvecs=V, modified_count=modified)


def newton_step(Heps, grad, Z):
    """Constrained Newton step from the reduced curvature model.

    ``Heps`` is the :class:`PTMatrix` of ``Z^T H Z``, a positive
    definite model, for the orthonormal null-space basis ``Z`` of the
    constraints (:meth:`ConstraintSet.null_basis`), and ``grad`` is the
    m x q gradient.  Solves ``Heps theta = -Z^T vec(grad)`` in its
    eigenbasis, with no second factorization to fail on a wide spectrum,
    and returns the m x q step ``unvec(Z theta)``, which satisfies
    ``Abar vec(dK) = 0``, so iterates stay on the constraint set.
    Without constraints ``Z`` is the identity and this is the plain
    Newton system.
    """
    grad = np.asarray(grad, dtype=float)
    V = Heps.eigvecs
    theta = -(V @ ((V.T @ (Z.T @ vec(grad))) / Heps.eigvals))
    return unvec(Z @ theta, *grad.shape)


def newton_solve(plant, costspec, cs, K0, **settings):
    """Constrained Newton descent on the structured feedback LQR cost.

    Per iteration: evaluate the gradient, assemble the Hessian reduced to
    the constraint null space (:func:`hessian`), truncate its spectrum to
    the positive definite model, solve it for the step, and accept a step
    size with the stability-guarded backtracking search.  The step
    ``Z theta`` comes with the curvature ``theta^T (Z^T H Z) theta`` of
    the cost along it, read from the reduced Hessian already built.  PT
    only raises eigenvalues, so that curvature is at most the descent
    ``-<grad, dK>`` and every search starts from ``t = 1``.  Terminates
    when ``||vec(dK)|| <= tol``, or when the step's predicted decrease
    falls below the resolution of the cost, each only where the
    curvature certifies it; a stalled search stalls the run.

    Parameters
    ----------
    K0 : ndarray
        Initial gain; must be stabilizing and feasible, else
        :class:`BadStartError` is raised.
    **settings
        :class:`SolverParams` fields but ``method``; ``tol`` bounds the
        Newton step norm and ``pt_eps`` floors the curvature model's
        eigenvalues.  Unset fields take the ``newton`` defaults, and one
        out of range raises :class:`ProblemFormatError`.

    Returns
    -------
    SolveResult
        Final gain, cost, stop reason, and per-iteration trace.
    """
    params = SolverParams(method="newton", **settings)

    def direction(gp, pg, Z):
        H = hessian(plant, costspec, gp.evaluation.K, gp, Z)
        delta = newton_step(pt_matrix(H, params.pt_eps), gp.grad, Z)
        theta = Z.T @ vec(delta)
        return delta, float(theta @ (H @ theta))

    return _descend(plant, costspec, cs, K0, params, direction)
