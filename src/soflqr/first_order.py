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
    # np.linalg.norm(vec(x)) sums it; where the squares overflow, hypot
    # over the same entries, which does not.
    norm = math.sqrt(np.vdot(x.T, x.T))
    return norm if math.isfinite(norm) else math.hypot(*x.T.flat)


def _descend(plant, costspec, cs, K0, params, direction):
    """Line-search descent shared by both solvers, with the settings of
    the :class:`SolverParams` ``params``.

    Only the loop reads the constraint set ``cs``: it looks up the
    null-space basis ``Z`` once (the identity for an empty ``cs``, which
    it does not project on), and raises ``RuntimeError`` if an accepted
    gain violates ``cs``.  At each iterate, ``direction(gp, pg, Z)``
    maps the gradient ``gp`` and its projection ``pg`` to the search
    direction ``delta`` and the curvature ``<delta, H delta>`` along it,
    or 0 for a search from ``t = 1``.  The loop forms the slope
    ``s = <grad, delta>`` and makes every stop decision, which it
    records as the result's ``stop_reason`` alone: ``step_tol`` when
    ``||delta||``, the result's ``step_norm``, falls to ``tol``;
    ``cost_resolution`` when ``-s`` is positive but at most four ulps of
    the cost, so no step can lower it by a representable amount;
    ``uncertified`` instead of either when the curvature ``kappa`` is
    positive and the quadratic model's predicted decrease
    ``s^2 / (2 kappa)`` exceeds ``1e-5`` of the cost ``J``, a bound that
    scaling time does not change; the code of
    :class:`LineSearchStalled`, whose trials are counted and reason
    logged; or ``max_iters``.  A gradient whose norm (by
    ``hypot`` where the squares overflow) is not finite, as an
    overflowing closed loop gives, raises ``numpy.linalg.LinAlgError``.

    ``K0`` is checked by :func:`evaluate_start`, and :func:`gradient` is
    called once per visited gain.  The trace records ``||pg||`` and the
    certified running sum ``J(K0) + sum dJ``, which decreases strictly;
    the result's cost is ``<Q + (K C)^T R (K C), G>`` with the last
    gradient's Gramian ``G``, by the adjoint identity ``trace(P X0)``
    without the rounding the running sum has gathered.
    """
    tol, max_iters = params.resolved_tol(), params.resolved_max_iters()
    ev = evaluate_start(plant, costspec, cs, K0)
    Z = cs.null_basis(ev.K.shape)

    trace = SolveTrace()
    start = time.perf_counter()
    stop_reason = "max_iters"
    evals_total = 0
    last_step_norm = 0.0
    last_t = 0.0

    for it in range(max_iters + 1):
        gp = gradient(plant, costspec, ev)
        pg = project_gradient(gp.grad, Z) if len(cs) else gp.grad
        grad_norm = _norm(pg)
        if not math.isfinite(grad_norm):
            raise np.linalg.LinAlgError(
                f"gradient norm is {grad_norm} at iteration {it}")
        delta, kappa = direction(gp, pg, Z)
        measure = _norm(delta)
        trace.records.append(TraceRecord(
            iteration=it, cost=ev.cost, grad_norm=grad_norm,
            step_norm=last_step_norm, step_size=last_t,
            spectral_abscissa=ev.solver.abscissa,
            seconds=time.perf_counter() - start,
        ))
        slope = float(np.vdot(gp.grad, delta))
        if measure <= tol or 0.0 < -slope <= 4.0 * np.spacing(ev.cost):
            stop_reason = "step_tol" if measure <= tol else "cost_resolution"
            # A positive curvature certifies the exit only where the
            # model's relative decrease s^2 / (2 kappa J) is at most 1e-5.
            if kappa > 0.0 and slope * slope > 2e-5 * kappa * ev.cost:
                stop_reason = "uncertified"
            break
        if it == max_iters:
            break
        try:
            ev, t, evals = line_search(plant, costspec, ev, delta, slope,
                                       params, curvature=kappa)
        except LineSearchStalled as exc:
            evals_total += exc.evals
            stop_reason = exc.code
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

    J = float(np.vdot(effective_weight(costspec, plant, ev.K), gp.gramian))
    return SolveResult(K=ev.K, cost=J, stop_reason=stop_reason,
                       step_norm=measure, line_search_evals=evals_total,
                       trace=trace)


def first_order_solve(plant, costspec, cs, K0, **settings):
    """Projected-gradient descent on the constrained cost.

    Iterates ``K <- K - t * Gp`` where ``Gp`` is the projected gradient
    and ``t`` comes from the stability-guarded backtracking line search,
    until ``||vec(Gp)|| <= tol``.  That stop is ``uncertified``, not
    converged, where the curvature along ``-Gp`` still predicts a
    relative decrease above 1e-5.  Every iterate is feasible and
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
        Final gain, cost, stop reason, and per-iteration trace.
    """
    def direction(gp, pg, Z):
        delta = -pg
        return delta, curvature(plant, costspec, gp, delta)

    return _descend(plant, costspec, cs, K0,
                    SolverParams(method="grad", **settings), direction)
