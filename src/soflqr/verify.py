"""Independent verification oracles.

Each oracle reaches its answer by a different route from the analytic
derivatives it checks: costs and gradients from the production solves
are differenced numerically, the dense Kronecker linear system solves
Lyapunov equations without a Schur factorization, the optimal
full-information gain comes from a Riccati fixed-point iteration on
``SchurSolver`` solves, and the cost integral is evaluated by quadrature
on matrix exponentials.  These routines back the test suite and the CLI
``check-gradient`` / ``check-hessian`` commands.  Every oracle admits a
gain by the solvers' own Hurwitz test, the construction of
:class:`SchurSolver` on its closed loop, so a gain that the solvers
refuse raises :class:`NotHurwitzError` here too, and a non-finite
closed loop or a refused Lyapunov solve ``numpy.linalg.LinAlgError``.

Importing this module loads no SciPy subpackage: ``quadrature_cost``
imports ``scipy.linalg`` and ``scipy.integrate`` (with ``scipy.optimize``
and ``scipy.special``) on its first call, so the CLI does not pay for
them.
"""

from dataclasses import dataclass

import numpy as np

from .first_order import gradient
from .lyapunov import NotHurwitzError, SchurSolver, unvec, vec
from .problem import BadStartError, closed_loop, cost, effective_weight

__all__ = [
    "FD_SHRINKS",
    "NearMarginError",
    "OracleReport",
    "error_report",
    "fd_gradient",
    "fd_hessian",
    "kron_lyapunov",
    "kron_hessian",
    "are_gain",
    "quadrature_cost",
]


# Times the step of a central difference may be shrunk tenfold before
# the base gain counts as too close to the stability margin.
FD_SHRINKS = 3


@dataclass(frozen=True)
class OracleReport:
    """Worst-case agreement between a candidate and a reference array.

    ``max_rel_error`` is the largest absolute error normalized by the
    largest reference magnitude, so near-zero entries are compared on
    the scale of the reference rather than against themselves.
    ``location`` is the index of the worst entry, a tuple of ints.
    """

    max_abs_error: float
    max_rel_error: float
    location: tuple


def error_report(reference, candidate):
    """Compare ``candidate`` against ``reference`` entry by entry."""
    reference = np.asarray(reference, dtype=float)
    candidate = np.asarray(candidate, dtype=float)
    if reference.shape != candidate.shape:
        raise ValueError(
            f"shape mismatch: reference {reference.shape} vs candidate "
            f"{candidate.shape}"
        )
    err = np.abs(candidate - reference)
    location = tuple(int(i) for i in
                     np.unravel_index(int(np.argmax(err)), err.shape))
    max_abs = float(err[location])
    scale = float(np.abs(reference).max()) if reference.size else 0.0
    max_rel = max_abs / max(scale, np.finfo(float).tiny)
    return OracleReport(max_abs_error=max_abs, max_rel_error=max_rel,
                        location=location)


class NearMarginError(BadStartError):
    """The gain lies within the finite-difference step of the stability
    margin: a shifted gain fails the Hurwitz test, or its Lyapunov solve
    is refused, at every step down to the floor ``h / 10**FD_SHRINKS``.
    A :class:`BadStartError`, so the CLI checks exit 4 for it."""

    def __init__(self, floor):
        super().__init__(
            f"the gain lies within the finite-difference step of the "
            f"stability margin: a shift of {floor:.1e} still "
            f"destabilizes the closed loop"
        )


def _unit_gains(m, q):
    # The unit gains E_ij of an m x q gain, in the column-major order of vec.
    for e in np.eye(m * q):
        yield unvec(e, m, q)


def _central_difference(f, K, E, h):
    # (f(K + s E) - f(K - s E)) / (2 s) at s = h, shrunk tenfold while a
    # shifted gain destabilizes the loop or its Lyapunov solve is refused.
    for k in range(FD_SHRINKS + 1):
        step = h / 10.0 ** k
        try:
            return (f(K + step * E) - f(K - step * E)) / (2.0 * step)
        except (NotHurwitzError, np.linalg.LinAlgError):
            continue
    raise NearMarginError(h / 10.0 ** FD_SHRINKS)


def fd_gradient(plant, costspec, K, h=1e-5):
    """Central-difference gradient of the cost at ``K``.

    Shifts one gain entry at a time by ``+-h``.  While a shifted gain
    destabilizes the closed loop, or its Lyapunov solve is refused, the
    step for that entry is shrunk by a factor of ten, at most
    ``FD_SHRINKS`` times; past that floor :class:`NearMarginError` is
    raised.
    """
    if h <= 0.0:
        raise ValueError(f"step size h must be positive, got {h}")
    K = np.asarray(K, dtype=float)

    def f(G):
        return cost(plant, costspec, G)

    return unvec([_central_difference(f, K, E, h)
                  for E in _unit_gains(*K.shape)], *K.shape)


def fd_hessian(plant, costspec, K, h=1e-4):
    """Central differences of the analytic gradient, symmetrized.

    Column ``(i, j)`` is ``vec((grad(K + h E_ij) - grad(K - h E_ij)) /
    (2 h))`` in the column-major entry ordering, matching the layout of
    the analytic Hessian.  Steps that destabilize the closed loop are
    shrunk as in :func:`fd_gradient`.
    """
    if h <= 0.0:
        raise ValueError(f"step size h must be positive, got {h}")
    K = np.asarray(K, dtype=float)

    def f(G):
        return gradient(plant, costspec, G).grad

    H = np.column_stack([vec(_central_difference(f, K, E, h))
                         for E in _unit_gains(*K.shape)])
    return 0.5 * (H + H.T)


def kron_lyapunov(Ac, Qc, max_order=8):
    """Lyapunov solve through the dense Kronecker linear system.

    Solves ``(I (x) Ac^T + Ac^T (x) I) vec(P) = vec(-Qc)`` directly,
    which is O(n^6) and serves as the reference for the Schur-based
    solver on small problems.

    Raises
    ------
    ValueError
        If ``n > max_order``, or if ``Ac`` and ``-Ac`` share an
        eigenvalue so the parameter matrix is singular.
    """
    Ac = np.asarray(Ac, dtype=float)
    Qc = np.asarray(Qc, dtype=float)
    n = Ac.shape[0]
    if Ac.shape != (n, n) or Qc.shape != (n, n):
        raise ValueError(
            f"Ac and Qc must be square with equal size, got {Ac.shape} "
            f"and {Qc.shape}"
        )
    if n > max_order:
        raise ValueError(
            f"dense Kronecker solve is limited to order {max_order}, "
            f"got n={n}"
        )
    eigs = np.linalg.eigvals(Ac)
    sums = np.abs(eigs[:, None] + eigs[None, :])
    if sums.min() <= 1e-12 * max(1.0, np.abs(eigs).max()):
        raise ValueError(
            "parameter matrix is singular: Ac and -Ac share an eigenvalue"
        )
    M = np.kron(np.eye(n), Ac.T) + np.kron(Ac.T, np.eye(n))
    return unvec(np.linalg.solve(M, vec(-Qc)), n, n)


def kron_hessian(plant, costspec, K, max_order=8):
    """Hessian from the paper's three-solve column formula.

    For each entry ``E = E_ij``, with ``BEC = B E C`` and
    ``M = B^T P + R K C``, the column is ``vec`` of

        2 B^T (P1 + P1^T + R1 + R1^T) G C^T + 2 M (G1 + G1^T) C^T
        + 2 R E C G C^T,

    where ``Ac^T P1 + P1 Ac + P BEC = 0``,
    ``Ac G1 + G1 Ac^T + G BEC^T = 0`` and
    ``Ac^T R1 + R1 Ac + (K C)^T R E C = 0``.  ``P``, ``G`` and every
    term are Kronecker solves, so the state order is limited to
    ``max_order``.  Symmetrized like :func:`fd_hessian`.  Raises
    :class:`NotHurwitzError` for a gain that :class:`SchurSolver`
    refuses, which the Kronecker solves alone cannot tell.
    """
    K = np.asarray(K, dtype=float)
    m, q = K.shape
    B, C, R = plant.B, plant.C, costspec.R
    Ac = closed_loop(plant, K)
    SchurSolver(Ac)
    P = kron_lyapunov(Ac, effective_weight(costspec, plant, K), max_order)
    G = kron_lyapunov(Ac.T, costspec.X0, max_order)
    M = B.T @ P + R @ K @ C
    GCt = G @ C.T
    H = np.empty((m * q, m * q))
    for col, E in enumerate(_unit_gains(m, q)):
        BEC = B @ E @ C
        P1 = kron_lyapunov(Ac, P @ BEC, max_order)
        G1 = kron_lyapunov(Ac.T, G @ BEC.T, max_order)
        R1 = kron_lyapunov(Ac, (K @ C).T @ R @ E @ C, max_order)
        block = (2.0 * B.T @ (P1 + P1.T + R1 + R1.T) @ GCt
                 + 2.0 * M @ (G1 + G1.T) @ C.T
                 + 2.0 * R @ E @ C @ GCt)
        H[:, col] = vec(block)
    return 0.5 * (H + H.T)


def are_gain(plant, costspec, K_init=None, tol=1e-12, max_iters=500):
    """Optimal full-information gain by Riccati fixed-point iteration.

    Requires ``C = I``.  Alternates the closed-loop Lyapunov solve with
    the gain update ``K <- -inv(R) B^T P`` (Kleinman iteration) until
    the gain change drops below ``tol``; each iterate is stabilizing, so
    divergence surfaces as a stability failure or iteration overrun.

    Parameters
    ----------
    K_init : ndarray, optional
        Stabilizing initial state-feedback gain.  Defaults to zero,
        which requires the open-loop plant to be stable.
    """
    n = plant.nstates
    if plant.C.shape != (n, n) or not np.array_equal(plant.C, np.eye(n)):
        raise ValueError("are_gain requires full state feedback, C = I")
    A, B = plant.A, plant.B
    Q, R = costspec.Q, costspec.R
    Rinv = np.linalg.inv(R)
    if K_init is None:
        K = np.zeros((plant.ninputs, n))
    else:
        K = np.asarray(K_init, dtype=float).copy()

    for _ in range(max_iters):
        try:
            P = SchurSolver(A + B @ K).solve_primal(Q + K.T @ R @ K)
        except NotHurwitzError as exc:
            raise RuntimeError(
                "Riccati iteration left the stabilizing set; the initial "
                "gain must stabilize A + B K"
            ) from exc
        K_next = -Rinv @ B.T @ (0.5 * (P + P.T))
        if np.abs(K_next - K).max() <= tol:
            return K_next
        K = K_next
    raise RuntimeError(
        f"Riccati iteration did not converge within {max_iters} steps; "
        f"the pair (A, B) may not be stabilizable"
    )


def quadrature_cost(plant, costspec, K, horizon=40.0, steps=2000):
    """Cost integral evaluated by composite Simpson quadrature.

    Samples ``trace(Phi(t)^T Qc Phi(t) X0)`` with ``Phi(t)`` the
    closed-loop matrix exponential, propagated by repeated products of
    ``expm(Ac * dt)``.  ``horizon`` must be long enough for the
    integrand tail to be negligible.

    Raises :class:`NotHurwitzError` for a gain that :class:`SchurSolver`
    refuses, even one whose integral is finite.
    """
    from scipy.integrate import simpson
    from scipy.linalg import expm

    if horizon <= 0.0 or steps < 2:
        raise ValueError("horizon must be positive and steps at least 2")
    K = np.asarray(K, dtype=float)
    Ac = closed_loop(plant, K)
    SchurSolver(Ac)
    Qc = effective_weight(costspec, plant, K)
    X0 = costspec.X0
    dt = horizon / steps
    step_exp = expm(Ac * dt)
    values = np.empty(steps + 1)
    Phi = np.eye(plant.nstates)
    for k in range(steps + 1):
        values[k] = np.trace(Phi.T @ Qc @ Phi @ X0)
        Phi = Phi @ step_exp
    return float(simpson(values, dx=dt))
