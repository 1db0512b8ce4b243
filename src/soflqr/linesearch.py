"""Backtracking line search with a closed-loop stability guard.

Shared by the gradient-projection and Newton solvers: the trial steps
are the powers ``beta^k`` above a floor, each computed as ``beta ** k``.
The floor is ``MIN_STEP``, lowered to ``MIN_STEP max(1, ||K||) /
||delta||`` for a direction longer than ``max(1, ||K||)`` (Frobenius
norms).  So the smallest trial step ``t ||delta||`` is
``MIN_STEP min(||delta||, max(1, ||K||))``: a long direction, such as a
gradient of 1e12 near the stability margin, is not tried at steps that
move ``K`` by order one and no further.  A trial is accepted when the
trial gain keeps the closed loop Hurwitz and satisfies the Armijo
sufficient-decrease condition.
The decrease is the exact cost change of :func:`evaluate_step`, not the
difference of two rounded costs.  The caller supplies the direction, its
slope ``s = <grad, delta>`` and the curvature ``kappa = <delta, H delta>``
of the cost along it; the search evaluates trials and nothing else.  It
never sees the constraints: a direction in their null space keeps every
trial feasible, and the descent loop checks the accepted gain.

The cold search, for ``kappa <= 0``, tries ``1, beta, beta^2, ...`` and
accepts the largest acceptable power.  A positive ``kappa`` instead
starts the search where the model ``dJ(t) ~ t s + t^2 kappa / 2``
predicts that power: at the largest ``beta^k <= 2 (1 - alpha) |s| /
kappa``, or at 1 when that bound is at least 1.  Its exponent comes from
logarithms, so the start costs O(1) for every ``beta``.  If that first
trial is accepted below 1, the cubic through ``s``, ``kappa`` and the
exact ``dJ`` of the trial decides whether to try the next larger power;
the search climbs while the cubic predicts Armijo there and the trial
confirms it.  A rejected start walks down as the cold search does, and
if the powers run down to the floor, the skipped ones are tried next,
largest first, before the search stalls.  So a search with a good
prediction costs one trial, and accepts the cold search's step whenever
acceptability is monotone in ``t`` and the cubic's verdict on the next
larger power is right.  Climbing and walking move one power per trial,
so a prediction off by a factor ``r`` costs about
``log r / log(1 / beta)`` trials, as it would from ``t = 1``.
"""

import itertools
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
    or ``"line_search_floor"`` when no power above the floor certified a
    decrease.  ``reason`` says it in words, with the numbers, and
    ``evals`` is the number of trials the search evaluated before it
    gave up.
    """

    def __init__(self, code, reason, evals):
        super().__init__(f"line search stalled: {reason}")
        self.code = code
        self.reason = reason
        self.evals = evals


def _first_power(beta, bound):
    """Least ``k >= 0`` with ``beta ** k <= bound``, for ``0 < bound``.

    The logarithms give ``k`` to within rounding; the two loops settle
    it against ``beta ** k`` itself, in a step or two for every ``beta``.
    """
    k = max(0, math.ceil(math.log(bound) / math.log(beta)))
    while beta ** k > bound:
        k += 1
    while k and beta ** (k - 1) <= bound:
        k -= 1
    return k


def line_search(plant, costspec, current, delta, slope, params,
                curvature=0.0):
    """Backtracking search along the direction ``delta``.

    Accepts a power ``t = beta ** k`` above the floor whose exact cost
    change ``dJ`` satisfies the Armijo condition
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
        ``<delta, H delta>`` for the cost Hessian ``H`` at ``K``.  A
        positive value starts the search at the power the quadratic model
        predicts (see the module docstring); zero, the default, or a
        negative value starts a cold search at ``t = 1``.  Along a
        PT-truncated Newton step ``curvature <= -slope``, so the
        prediction is never below 1.

    Returns
    -------
    (Evaluation, float, int)
        Evaluation at the accepted gain ``K + t*delta``, the accepted
        ``t``, and the number of trials evaluated.  Raises
        :class:`LineSearchStalled`, carrying its reason and trial count,
        before any trial if ``slope >= 0``, and after the last one if
        every power above the floor is rejected.
    """
    alpha, beta = params.alpha, params.beta
    if slope >= 0.0:
        raise LineSearchStalled(
            "not_descent",
            f"delta is not a descent direction: <grad, delta> = "
            f"{slope:.3e}", 0)

    def attempt(k):
        # The accepted trial and its dJ at t = beta^k, or None.
        t = beta ** k
        try:
            # The Hurwitz gate comes before the Lyapunov solve, so a
            # destabilizing trial is never solved.  LinAlgError means
            # LAPACK could not factor the closed loop or solve for its
            # cost accurately enough to be trusted.
            trial, dJ = evaluate_step(plant, costspec, current,
                                      current.K + t * delta)
        except (NotHurwitzError, np.linalg.LinAlgError):
            return None
        if trial.cost < current.cost and dJ <= alpha * t * slope:
            return trial, dJ
        return None

    # Powers k = 0 .. count - 1 lie above the floor.  hypot neither
    # underflows nor overflows where the sum of squares would.
    floor = MIN_STEP * min(1.0, max(1.0, math.hypot(*current.K.flat))
                           / math.hypot(*delta.flat))
    count = _first_power(beta, floor)
    start = 0
    if curvature > 0.0:
        predicted = 2.0 * (1.0 - alpha) * -slope / curvature
        if predicted < 1.0:
            start = min(_first_power(beta, max(predicted, floor)),
                        count - 1)

    evals = 0
    for k in itertools.chain(range(start, count), range(start)):
        evals += 1
        accepted = attempt(k)
        if accepted is not None:
            break
    else:
        raise LineSearchStalled(
            "line_search_floor",
            f"no trial step above {floor:.1e} produced a certified "
            f"cost decrease", evals)
    if k == start:
        # The start was accepted: climb while the cubic through the
        # slope, the curvature and the last accepted dJ predicts Armijo
        # at the next larger power, and the trial there confirms it.
        while k > 0:
            t, up = beta ** k, beta ** (k - 1)
            cubic = accepted[1] - t * slope - 0.5 * t * t * curvature
            model = (up * slope + 0.5 * up * up * curvature
                     + cubic * (up / t) ** 3)
            if not model <= alpha * up * slope:
                break
            evals += 1
            higher = attempt(k - 1)
            if higher is None:
                break
            accepted, k = higher, k - 1
    return accepted[0], beta ** k, evals
