"""Backtracking line search with a closed-loop stability guard.

Shared by the gradient-projection and Newton solvers: the trial steps
walk down from a start ``t0`` by factors of ``beta``, each computed as
``t0 * beta ** j``, above a floor.  The floor is ``MIN_STEP``, lowered
to ``MIN_STEP max(1, ||K||) / ||delta||`` for a direction longer than
``max(1, ||K||)`` (Frobenius norms).  So the smallest trial step
``t ||delta||`` is ``MIN_STEP min(||delta||, max(1, ||K||))``: a long
direction, such as a gradient of 1e12 near the stability margin, is not
tried at steps that move ``K`` by order one and no further.  A trial is
accepted when the trial gain keeps the closed loop Hurwitz and
satisfies the Armijo sufficient-decrease condition.
The decrease is the exact cost change of :func:`evaluate_step`, not the
difference of two rounded costs.  The caller supplies the direction, its
slope ``s = <grad, delta>`` and the curvature ``kappa = <delta, H delta>``
of the cost along it; the search evaluates trials and nothing else.  It
never sees the constraints: a direction in their null space keeps every
trial feasible, and the descent loop checks the accepted gain.

The start is the minimizer ``|s| / kappa`` of the quadratic model
``dJ(t) ~ t s + t^2 kappa / 2`` where the model refuses Armijo at
``t = 1``, that is where ``kappa > 2 (1 - alpha) |s|``, and ``t = 1``
otherwise: for ``kappa <= 0``, and along every PT-truncated Newton step,
whose ``kappa <= |s|``.  The first accepted trial is taken; no larger
step is tried (Nocedal and Wright, *Numerical Optimization*, 2nd ed.,
section 3.5, initial step length).  If every step down to the floor is
rejected, the cold powers ``1, beta, beta^2, ...`` above the start are
tried, largest first, before the search stalls.  A start the model
places well costs one trial at any ``beta``.  A rejected one walks down
one factor of ``beta`` per trial, so with ``beta`` near 1 a start that
is too long by a factor ``r`` costs about ``log r / (1 - beta)``
trials.
"""

import math

import numpy as np

from .lyapunov import NotHurwitzError
from .problem import evaluate_step

__all__ = ["LineSearchStalled", "line_search", "MIN_STEP"]

# Floor on the trial step: ``t >= MIN_STEP`` for a direction no longer
# than ``max(1, ||K||)``, and ``t ||delta|| >= MIN_STEP max(1, ||K||)``
# for a longer one.
MIN_STEP = 1e-16


class LineSearchStalled(RuntimeError):
    """The search found no acceptable step.

    ``code`` says why: ``"not_descent"`` for a direction without descent,
    or ``"line_search_floor"`` when no trial step above the floor
    certified a decrease.  ``reason`` says it in words, with the numbers,
    and ``evals`` is the number of trials the search evaluated before it
    gave up.
    """

    def __init__(self, code, reason, evals):
        super().__init__(f"line search stalled: {reason}")
        self.code = code
        self.reason = reason
        self.evals = evals


def line_search(plant, costspec, current, delta, slope, params,
                curvature=0.0):
    """Backtracking search along the direction ``delta``.

    Accepts the first trial step ``t`` (see the module docstring) whose
    exact cost change ``dJ`` satisfies the Armijo condition
    ``dJ <= alpha * t * slope`` and leaves ``J(K) + dJ`` strictly below
    ``J(K)`` in floating point.  It takes no constraints: feasibility of
    ``K + t*delta`` is the caller's.  Destabilizing trial points
    (:class:`NotHurwitzError`), and those whose factorization or
    Lyapunov solve LAPACK refused (``numpy.linalg.LinAlgError``), count
    as rejections; any other error propagates.

    Parameters
    ----------
    current : Evaluation
        Evaluation at the current gain ``K``; its cost is ``J(K)``.
    slope : float
        ``<grad, delta>`` for the full (not projected) gradient at ``K``.
    params : SolverParams
        Supplies ``alpha`` and ``beta``, whose ranges it has checked.
    curvature : float
        ``<delta, H delta>`` for the cost Hessian ``H`` at ``K``.  Above
        ``2 (1 - alpha) |slope|`` it starts the search at the quadratic
        model's minimizer ``|slope| / curvature``; zero, the default, or
        any smaller value starts it at ``t = 1``.  Along a PT-truncated
        Newton step ``curvature <= -slope``, so that search starts at 1.

    Returns
    -------
    (Evaluation, float, int)
        Evaluation at the accepted gain ``K + t*delta``, the accepted
        ``t``, and the number of trials evaluated.  Raises
        :class:`LineSearchStalled`, carrying its reason and trial count,
        before any trial if ``slope >= 0``, and after the last one if
        every step down to the floor and every cold power above the
        start is rejected.
    """
    alpha, beta = params.alpha, params.beta
    if slope >= 0.0:
        raise LineSearchStalled(
            "not_descent",
            f"delta is not a descent direction: <grad, delta> = "
            f"{slope:.3e}", 0)

    # hypot neither underflows nor overflows where the sum of squares
    # would.
    floor = MIN_STEP * min(1.0, max(1.0, math.hypot(*current.K.flat))
                           / math.hypot(*delta.flat))
    t0 = 1.0
    if curvature > 2.0 * (1.0 - alpha) * -slope:
        # The model refuses Armijo at t = 1: start at its minimizer.
        t0 = -slope / curvature

    def steps():
        # t0 beta^j down to the floor, then the cold powers above t0,
        # largest first.
        for top, bottom in ((t0, floor), (1.0, max(t0, floor))):
            t, j = top, 0
            while t > bottom:
                yield t
                j += 1
                t = top * beta ** j

    evals = 0
    for t in steps():
        evals += 1
        try:
            # The Hurwitz gate comes before the Lyapunov solve, so a
            # destabilizing trial is never solved.  LinAlgError means
            # LAPACK could not factor the closed loop or solve for its
            # cost accurately enough to be trusted.
            trial, dJ = evaluate_step(plant, costspec, current,
                                      current.K + t * delta)
        except (NotHurwitzError, np.linalg.LinAlgError):
            continue
        if trial.cost < current.cost and dJ <= alpha * t * slope:
            return trial, t, evals
    raise LineSearchStalled(
        "line_search_floor",
        f"no trial step above {floor:.1e} produced a certified "
        f"cost decrease", evals)
