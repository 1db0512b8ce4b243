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
import math
import time
from dataclasses import dataclass

import numpy as np

from .linesearch import LineSearchStalled, line_search
from .lyapunov import unvec, vec
from .problem import (
    Evaluation,
    SolveResult,
    SolveTrace,
    TraceRecord,
    check_feasible,
    effective_weight,
    evaluate,
    evaluate_start,
)
from .problems import SolverParams

__all__ = ["GradientPair", "gradient", "curvature", "project_gradient",
           "first_order_solve"]

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class GradientPair:
    """Cost gradient at an evaluated gain.

    Attributes
    ----------
    grad : ndarray
        m x q gradient ``2 M G C^T`` of the cost with respect to the gain.
    M : ndarray
        ``B^T P + R K C``, which :func:`curvature` reads again.
    gramian : ndarray
        Symmetric state-covariance Gramian ``G`` from the adjoint
        equation.
    evaluation : Evaluation
        The evaluation at the gain: its Schur factorization of the closed
        loop, the cost matrix ``P`` and the cost.
    """

    grad: np.ndarray
    M: np.ndarray
    gramian: np.ndarray
    evaluation: Evaluation


def gradient(plant, costspec, K):
    """Analytic gradient of the cost at a stabilizing gain ``K``.

    ``K`` is a gain or an :class:`Evaluation` at it.  An evaluation
    already holds the Schur factorization and ``P``, so only the adjoint
    solve for ``G`` is added.  Raises :class:`NotHurwitzError` if the
    gain does not stabilize the plant.
    """
    ev = K if isinstance(K, Evaluation) else evaluate(plant, costspec, K)
    G = ev.solver.solve_adjoint(costspec.X0)
    G = 0.5 * (G + G.T)
    M = plant.B.T @ ev.P + costspec.R @ ev.K @ plant.C
    grad = 2.0 * M @ G @ plant.C.T
    return GradientPair(grad=grad, M=M, gramian=G, evaluation=ev)


def curvature(plant, costspec, gp, delta):
    """Second derivative ``<delta, H delta>`` of the cost along ``delta``.

    ``gp`` is the :class:`GradientPair` at the gain; its Gramian ``G``,
    its ``M = B^T P + R K C`` and its evaluation's Schur factorization are
    reused, so this is one Lyapunov solve.  With ``W = (delta C)^T M``,
    the change of ``P`` along ``delta`` solves
    ``Ac^T P' + P' Ac + W + W^T = 0``, and

        <delta, H delta> = 4 <P' B delta C, G> + 2 <(delta C)^T R delta C, G>,

    the quadratic form of :func:`~soflqr.second_order.hessian`, whose two
    solved terms are equal by the adjoint identity.
    """
    dC = np.asarray(delta, dtype=float) @ plant.C
    W = dC.T @ gp.M
    dP = gp.evaluation.solver.solve_primal(W + W.T)
    return float(np.vdot(4.0 * dP @ plant.B @ dC
                         + 2.0 * dC.T @ costspec.R @ dC, gp.gramian))


def project_gradient(grad, Z):
    """Orthogonal projection of ``grad`` onto the constraint null space.

    ``Z`` is an orthonormal basis of the null space of ``Abar``, as
    :meth:`ConstraintSet.null_basis` gives it.  Returns the feasible
    direction closest to ``grad`` in the Frobenius norm,
    ``unvec(Z Z^T vec(grad))``.  The right-hand side ``cbar`` plays no
    part: directions in the null space keep a feasible gain feasible.
    """
    grad = np.asarray(grad, dtype=float)
    return unvec(Z @ (Z.T @ vec(grad)), *grad.shape)


def _norm(x):
    # ||vec(x)||, summed in vec's column-major order, as
    # np.linalg.norm(vec(x)) sums it.
    return math.sqrt(np.vdot(x.T, x.T))


def _descend(plant, costspec, cs, K0, params, direction):
    """Line-search descent shared by both solvers, with the settings of
    the :class:`SolverParams` ``params``.

    Only the loop reads the constraint set ``cs``: it looks up the
    null-space basis ``Z`` once, and raises ``RuntimeError`` if an
    accepted gain violates ``cs``.  An empty ``cs`` has the identity for
    ``Z``; the loop passes None for it and forms no product with it, so
    ``pg`` is the gradient itself.  At each iterate the gradient ``gp``
    and its projection ``pg`` are computed once, and
    ``direction(gp, pg, Z)`` returns the search direction ``delta`` and
    the curvature ``<delta, H delta>`` of the cost along it, or 0 for a
    search from ``t = 1``.  The loop forms the slope
    ``s = <grad, delta>`` and makes every stop decision; the line search
    is handed ``s`` and only searches.  The trace records ``||pg||``, and
    the run has converged when ``||delta||``, the result's ``step_norm``,
    falls to ``tol``, or when ``-s`` is positive but at most four ulps of
    the cost, so that no step along ``delta`` can lower the cost by a
    representable amount (stop reasons ``step_tol`` and
    ``cost_resolution``).  :class:`LineSearchStalled`, for a direction
    without descent or a search that certifies no decrease, ends the run
    as stalled, with its trials counted, its reason logged and its code
    as the stop reason.  A run that uses up ``max_iters`` stops with
    reason ``max_iters``.

    ``K0`` is checked by :func:`evaluate_start`, and :func:`gradient` is
    called once per visited gain.  The trace's costs are the certified
    running sum ``J(K0) + sum dJ``, which decreases strictly; the result's
    cost is ``<Q + (K C)^T R (K C), G>`` with the Gramian ``G`` of the
    last gradient, at the returned gain.  By the adjoint identity it is
    ``trace(P X0)``, without the rounding the running sum has gathered.
    """
    tol, max_iters = params.resolved_tol(), params.resolved_max_iters()
    ev = evaluate_start(plant, costspec, cs, K0)
    Z = cs.null_basis(ev.K.shape) if len(cs) else None

    trace = SolveTrace()
    start = time.perf_counter()
    status = stop_reason = "max_iters"
    evals_total = 0
    last_step_norm = 0.0
    last_t = 0.0

    for it in range(max_iters + 1):
        gp = gradient(plant, costspec, ev)
        pg = gp.grad if Z is None else project_gradient(gp.grad, Z)
        delta, kappa = direction(gp, pg, Z)
        measure = _norm(delta)
        trace.append(TraceRecord(
            iteration=it, cost=ev.cost, grad_norm=_norm(pg),
            step_norm=last_step_norm, step_size=last_t,
            spectral_abscissa=ev.solver.abscissa,
            seconds=time.perf_counter() - start,
        ))
        slope = float(np.vdot(gp.grad, delta))
        if measure <= tol:
            status, stop_reason = "converged", "step_tol"
            break
        if 0.0 < -slope <= 4.0 * np.spacing(ev.cost):
            status, stop_reason = "converged", "cost_resolution"
            break
        if it == max_iters:
            break
        try:
            ev, t, evals = line_search(plant, costspec, ev, delta, slope,
                                       params, curvature=kappa)
        except LineSearchStalled as exc:
            evals_total += exc.evals
            status, stop_reason = "stalled", exc.code
            logger.info(
                "%s solve stalled after %d iterations at stopping measure "
                "%.3e (tol %.1e): %s", params.method, it, measure, tol,
                exc.reason,
            )
            break
        evals_total += evals
        if len(cs) and not check_feasible(cs, ev.K):
            raise RuntimeError(
                "accepted line-search iterate violates the constraint set; "
                "the step direction was not in the constraint null space")
        last_step_norm = t * measure
        last_t = t

    final = trace.records[-1]
    J = float(np.vdot(effective_weight(costspec, plant, ev.K), gp.gramian))
    return SolveResult(
        K=ev.K, cost=J, status=status, stop_reason=stop_reason,
        iterations=final.iteration, grad_norm=final.grad_norm,
        step_norm=measure, line_search_evals=evals_total, trace=trace,
    )


def first_order_solve(plant, costspec, cs, K0, **settings):
    """Projected-gradient descent on the constrained cost.

    Iterates ``K <- K - t * Gp`` where ``Gp`` is the projected gradient
    and ``t`` comes from the stability-guarded backtracking line search,
    until ``||vec(Gp)|| <= tol``.  Every iterate is feasible and
    stabilizing.

    Parameters
    ----------
    K0 : ndarray
        Initial gain; must be stabilizing and feasible, else
        :class:`BadStartError` is raised.
    **settings
        :class:`SolverParams` fields but ``method``; ``tol`` bounds the
        projected-gradient norm.  Unset fields take the ``grad``
        defaults, and one out of range raises :class:`ProblemFormatError`.

    Returns
    -------
    SolveResult
        Final gain, cost, convergence status, and per-iteration trace.
        ``status == "stalled"`` means the line search hit the numerical
        precision floor of the cost before the tolerance was met.
    """
    def direction(gp, pg, Z):
        delta = -pg
        return delta, curvature(plant, costspec, gp, delta)

    return _descend(plant, costspec, cs, K0,
                    SolverParams(method="grad", **settings), direction)
