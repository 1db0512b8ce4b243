"""Analytic cost gradient, the shared descent loop, and the
gradient-projection baseline solver.

The gradient of the infinite-horizon cost with respect to the gain is
assembled from two Lyapunov solves against the closed loop,

    grad = 2 (B^T P + R K C) G C^T,

where ``P`` solves the primal equation with the effective state weight
and ``G`` is the state-covariance Gramian for the initial-state second
moment.  Both solvers run the same stability-guarded line-search descent
and differ only in the direction: the baseline projects the gradient
orthogonally onto the homogeneous constraint subspace.
"""

import logging
import time
from dataclasses import dataclass

import numpy as np

from .linesearch import LineSearchStalled, NotDescentError, line_search
from .lyapunov import (
    LyapunovSolution,
    solve_lyapunov_adjoint,
    unvec,
    vec,
)
from .problem import (
    Evaluation,
    InfiniteCostError,
    SolveResult,
    SolveTrace,
    TraceRecord,
    check_feasible,
    evaluate,
)

__all__ = ["GradientPair", "gradient", "project_gradient", "first_order_solve"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GradientPair:
    """Cost gradient at an evaluated gain.

    Attributes
    ----------
    grad : ndarray
        m x q gradient of the cost with respect to the gain.
    gramian : LyapunovSolution
        State-covariance Gramian ``G`` from the adjoint equation.
    evaluation : Evaluation
        The evaluation at the gain: its Schur factorization of the closed
        loop, the cost matrix ``P`` and the cost.
    """

    grad: np.ndarray
    gramian: LyapunovSolution
    evaluation: Evaluation


def gradient(plant, costspec, K):
    """Analytic gradient of the cost at a stabilizing gain ``K``.

    ``K`` is a gain or an :class:`Evaluation` at it.  An evaluation
    already holds the Schur factorization and ``P``, so only the adjoint
    solve for ``G`` is added.  Raises :class:`InfiniteCostError` if the
    gain does not stabilize the plant.
    """
    ev = K if isinstance(K, Evaluation) else evaluate(plant, costspec, K)
    G = solve_lyapunov_adjoint(ev.solver, costspec.X0)
    grad = 2.0 * (plant.B.T @ ev.P.value
                  + costspec.R @ ev.K @ plant.C) @ G.value @ plant.C.T
    return GradientPair(grad=grad, gramian=G, evaluation=ev)


def project_gradient(grad, cs):
    """Orthogonal projection of ``grad`` onto the constraint null space.

    Returns the feasible direction closest to ``grad`` in the Frobenius
    norm, ``unvec(Z Z^T vec(grad))`` for the orthonormal null-space
    basis ``Z`` of ``Abar`` cached by the constraint set.  The
    right-hand side ``cbar`` plays no part: directions in the null space
    keep a feasible gain feasible.
    """
    grad = np.asarray(grad, dtype=float)
    Z = cs.null_basis(grad.shape)
    return unvec(Z @ (Z.T @ vec(grad)), *grad.shape)


def _descend(plant, costspec, cs, K0, direction, tol, alpha, beta,
             max_iters, keep_iterates, name, step_measure=False):
    """Line-search descent shared by both solvers.

    At each iterate the gradient ``gp`` and its projection ``pg`` are
    computed once, and ``direction(gp, pg)`` returns the search direction
    ``delta``.  The trace records ``||pg||``, and the run has converged
    when ``||delta||`` falls to ``tol``, or when the predicted decrease
    ``-<grad, delta>`` is positive but at most four ulps of the cost, so
    that no step along ``delta`` can lower the cost by a representable
    amount.  With ``step_measure`` that
    ``||delta||`` is reported as the result's ``step_norm``, else the
    last accepted step is.  A direction without descent, or a line
    search that cannot certify a decrease, ends the run as stalled.
    """
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters}")
    try:
        ev = evaluate(plant, costspec, np.array(K0, dtype=float))
    except InfiniteCostError as exc:
        raise ValueError("initial gain K0 does not stabilize the plant") \
            from exc
    if not check_feasible(cs, ev.K):
        raise ValueError("initial gain K0 does not satisfy the constraints")

    trace = SolveTrace()
    iterates = [ev.K.copy()] if keep_iterates else None
    start = time.perf_counter()
    status = "max_iters"
    evals_total = 0
    last_step_norm = 0.0
    last_t = 0.0

    for it in range(max_iters + 1):
        gp = gradient(plant, costspec, ev)
        pg = project_gradient(gp.grad, cs)
        delta = direction(gp, pg)
        measure = float(np.linalg.norm(vec(delta)))
        trace.append(TraceRecord(
            iteration=it, cost=ev.cost,
            grad_norm=float(np.linalg.norm(vec(pg))),
            step_norm=last_step_norm, step_size=last_t,
            spectral_abscissa=ev.solver.abscissa,
            seconds=time.perf_counter() - start,
        ))
        slope = float(np.trace(gp.grad.T @ delta))
        if measure <= tol or 0.0 < -slope <= 4.0 * np.spacing(ev.cost):
            status = "converged"
            break
        if it == max_iters:
            break
        try:
            ev, t, evals = line_search(plant, costspec, cs, ev, delta,
                                       gp.grad, alpha, beta)
        except (LineSearchStalled, NotDescentError) as exc:
            status = "stalled"
            logger.info(
                "%s solve stalled after %d iterations at stopping measure "
                "%.3e (tol %.1e): %s", name, it, measure, tol, exc,
            )
            break
        evals_total += evals
        last_step_norm = t * measure
        last_t = t
        if keep_iterates:
            iterates.append(ev.K.copy())

    final = trace.records[-1]
    return SolveResult(
        K=ev.K, cost=final.cost, converged=(status == "converged"),
        status=status, iterations=final.iteration,
        grad_norm=final.grad_norm,
        step_norm=measure if step_measure else final.step_norm,
        line_search_evals=evals_total, trace=trace, iterates=iterates,
    )


def first_order_solve(plant, costspec, cs, K0, tol=1e-5, alpha=0.2,
                      beta=0.1, max_iters=10000, keep_iterates=False):
    """Projected-gradient descent on the constrained cost.

    Iterates ``K <- K - t * Gp`` where ``Gp`` is the projected gradient
    and ``t`` comes from the stability-guarded backtracking line search,
    until ``||vec(Gp)|| <= tol``.  Every iterate is feasible and
    stabilizing.

    Parameters
    ----------
    K0 : ndarray
        Initial gain; must be stabilizing and feasible.
    tol : float
        Stopping threshold on the projected-gradient norm.

    Returns
    -------
    SolveResult
        Final gain, cost, convergence status, and per-iteration trace.
        ``status == "stalled"`` means the line search hit the numerical
        precision floor of the cost before the tolerance was met.
    """
    return _descend(plant, costspec, cs, K0, lambda gp, pg: -pg, tol, alpha,
                    beta, max_iters, keep_iterates, "first-order")
