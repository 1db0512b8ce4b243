"""Dense continuous-time Lyapunov equation kernel.

Solves the two operator equations used throughout the package,

    primal:   Ac^T X + X Ac + W = 0
    adjoint:  X Ac^T + Ac X + W = 0

for a Hurwitz matrix ``Ac``, via the Bartels-Stewart method (real Schur
factorization of ``Ac`` plus a quasi-triangular Sylvester solve).  The
factorization is computed once per ``SchurSolver`` instance so that many
right-hand sides can be solved against the same closed-loop matrix.
``SchurSolver`` calls the LAPACK routines ``dgees`` (factorization) and
``dtrsyl`` (Sylvester solve) through :func:`soflqr._lapack.lapack`, which
does not import ``scipy.linalg``.  Each failure has one type: a matrix
that fails the Hurwitz test raises :class:`NotHurwitzError`, a
factorization or solve LAPACK could not do accurately raises
``numpy.linalg.LinAlgError``, and an illegal LAPACK argument raises
``ValueError``.

Also provides the column-major vectorization pair ``vec``/``unvec``; all
Kronecker identities in the package assume column-major ordering.
"""

import numpy as np

from ._lapack import lapack

__all__ = [
    "HURWITZ_MARGIN",
    "NotHurwitzError",
    "SchurSolver",
    "spectral_abscissa",
    "vec",
    "unvec",
]

# Spectral abscissa must lie strictly below this value for a matrix to be
# accepted as Hurwitz; near-marginal closed loops make the Lyapunov solve
# ill-conditioned.
HURWITZ_MARGIN = -1e-10


def _no_sort(wr, wi):
    # ``gees`` takes an eigenvalue selector; unsorted, it is never called.
    return None


class NotHurwitzError(ValueError):
    """The spectral abscissa ``abscissa`` of a matrix required to be
    Hurwitz is not below ``HURWITZ_MARGIN``.

    For the solvers in this package this means that a controller gain
    does not stabilize the plant, so its cost is infinite.
    """

    def __init__(self, abscissa):
        self.abscissa = abscissa
        super().__init__(
            f"matrix is not Hurwitz: spectral abscissa {abscissa:.6e} "
            f"is not below {HURWITZ_MARGIN:.0e}"
        )


def spectral_abscissa(M):
    """Largest real part over the eigenvalues of the square matrix ``M``."""
    M = np.asarray(M, dtype=float)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {M.shape}")
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix contains non-finite entries")
    try:
        eigs = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise np.linalg.LinAlgError(
            f"eigenvalue computation failed for {M.shape} matrix: {exc}"
        ) from exc
    return float(np.max(eigs.real))


def vec(M):
    """Stack the columns of ``M`` into a 1-D vector (column-major)."""
    return np.asarray(M, dtype=float).flatten(order="F")


def unvec(v, rows, cols):
    """Inverse of :func:`vec` for the given target shape."""
    v = np.asarray(v, dtype=float).ravel()
    if v.size != rows * cols:
        raise ValueError(
            f"cannot reshape vector of length {v.size} into {rows}x{cols}"
        )
    return v.reshape((rows, cols), order="F")


class SchurSolver:
    """Lyapunov solves against a fixed Hurwitz matrix.

    Factorizes ``Ac = U T U^T`` (real Schur form) once, by one LAPACK
    ``gees`` call on the wrapper's default workspace, and solves each
    right-hand side with one quasi-triangular Sylvester solve (LAPACK
    ``trsyl``), so repeated solves cost O(n^2) beyond the one-time O(n^3)
    factorization.  Up to order 120, ``T`` and ``U`` equal those of
    ``scipy.linalg.schur(Ac, output="real")`` bit for bit.  Both are kept:
    :meth:`solve_schur` is the kernel in their coordinates, which
    :meth:`solve_primal` and :meth:`solve_adjoint` wrap in the basis change.

    Raises
    ------
    NotHurwitzError
        If the spectral abscissa of ``Ac`` is not below ``HURWITZ_MARGIN``.
    numpy.linalg.LinAlgError
        If ``gees`` does not converge.
    """

    def __init__(self, Ac):
        Ac = np.asarray(Ac, dtype=float)
        if Ac.ndim != 2 or Ac.shape[0] != Ac.shape[1] or not Ac.size:
            raise ValueError(
                f"expected a non-empty square matrix, got shape {Ac.shape}"
            )
        if not np.isfinite(Ac).all():
            raise ValueError("matrix contains non-finite entries")
        self.T, _, _, _, self.U, _, info = lapack("dgees", _no_sort, Ac)
        if info > 0:
            raise np.linalg.LinAlgError(
                f"gees: Schur form not found (info {info})"
            )
        # A 2x2 block of LAPACK's real Schur form has equal diagonal
        # entries, the real part of its complex-conjugate eigenvalues.
        self.abscissa = float(self.T.diagonal().max())
        if self.abscissa >= HURWITZ_MARGIN:
            raise NotHurwitzError(self.abscissa)

    def solve_schur(self, Wt, adjoint=False):
        """Solve ``T^T Z + Z T + Wt = 0`` in Schur coordinates.

        With ``adjoint`` the equation is ``Z T^T + T Z + Wt = 0``.  For
        ``Wt = U^T W U`` the solution is ``Z = U^T X U``, where ``X``
        solves the primal (adjoint) equation with constant term ``W``.
        Raises ``numpy.linalg.LinAlgError``, naming the cause, if
        ``trsyl`` had to perturb the solve.
        """
        trana, tranb = ("N", "T") if adjoint else ("T", "N")
        # trana, tranb and isgn = 1 by position, cheaper than keywords.
        x, scale, info = lapack("dtrsyl", self.T, self.T, -Wt, trana, tranb, 1)
        if info == 1:
            # trsyl perturbed the solve.  Hurwitz T keeps Re(la + lb) < 0;
            # the equation is singular to working precision only if some
            # |la + lb| <= eps ||T||_1, and is otherwise ill-conditioned.
            eigs = np.linalg.eigvals(self.T)
            gap = np.abs(eigs[:, None] + eigs).min()
            size = np.linalg.norm(self.T, 1)
            cause = ("the closed-loop matrix and its negation share an "
                     "eigenvalue within eps ||T||_1"
                     if gap <= np.finfo(float).eps * size
                     else "the Schur factor T is ill-conditioned")
            raise np.linalg.LinAlgError(
                f"Lyapunov solve refused, trsyl had to perturb it: {cause}"
                f" (||T||_1 = {size:.3e}, min |la + lb| = {gap:.3e})")
        return x / scale

    def _solve(self, W, adjoint):
        U = self.U
        W = np.asarray(W, dtype=float)
        return U @ self.solve_schur(U.T @ W @ U, adjoint) @ U.T

    def solve_primal(self, W):
        """Solve ``Ac^T X + X Ac + W = 0`` for general square ``W``."""
        return self._solve(W, adjoint=False)

    def solve_adjoint(self, W):
        """Solve ``X Ac^T + Ac X + W = 0`` for general square ``W``."""
        return self._solve(W, adjoint=True)
