"""Backtracking line search with a closed-loop stability guard.

Shared by the gradient-projection and Newton solvers: the trial steps
are the powers ``beta^k`` above ``MIN_STEP``, each computed as
``beta ** k``.  A trial is accepted when the trial gain keeps the closed
loop Hurwitz and satisfies the Armijo sufficient-decrease condition.
The decrease is the exact cost change of :func:`evaluate_step`, not the
difference of two rounded costs.

The cold search tries ``1, beta, beta^2, ...`` and accepts the largest
acceptable power.  Given the curvature ``kappa = <delta, H delta>`` of
the cost along ``delta``, a search instead starts where the model
``dJ(t) ~ t s + t^2 kappa / 2``, with the slope ``s = <grad, delta>``,
predicts that power: at the largest ``beta^k <= 2 (1 - alpha) |s| /
kappa``, or at 1 when ``kappa <= 0``.  Its exponent comes from
logarithms, so the start costs O(1) for every ``beta``.  If that first
trial is accepted below 1, the cubic through ``s``, ``kappa`` and the
exact ``dJ`` of the trial decides whether to try the next larger power;
the search climbs while the cubic predicts Armijo there and the trial
confirms it.  A rejected start walks down as the cold search does, and
if the powers run down to ``MIN_STEP``, the skipped ones are tried next,
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
from .problem import InfiniteCostError, check_feasible, evaluate_step

__all__ = ["LineSearchStalled", "NotDescentError", "line_search",
           "MIN_STEP"]

# Step sizes below this are treated as underflow: the search has reached
# the floating-point floor of the cost along the given direction.
MIN_STEP = 1e-16


class LineSearchStalled(RuntimeError):
    """No acceptable step found before the step size underflowed."""

    def __init__(self):
        super().__init__(
            f"line search stalled: no trial step above {MIN_STEP:.0e} "
            f"produced a certified cost decrease"
        )


class NotDescentError(ValueError):
    """The search direction has a nonnegative slope along the gradient."""


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


def line_search(plant, costspec, cs, current, delta, grad, alpha, beta,
                curvature=None):
    """Backtracking search along the descent direction ``delta``.

    Accepts a power ``t = beta ** k`` above ``MIN_STEP`` whose exact cost
    change ``dJ`` satisfies the Armijo condition
    ``dJ <= alpha * t * <grad, delta>`` (with the full gradient ``grad``)
    and leaves ``J(K) + dJ`` strictly below ``J(K)`` in floating point.
    Destabilizing trial points, and those whose Lyapunov solve is too
    ill-conditioned to be trusted, count as rejections.  Without
    ``curvature`` the powers are tried from ``t = 1`` down; with it the
    search starts at the power the quadratic model predicts and may climb
    from there (see the module docstring).

    Parameters
    ----------
    cs : ConstraintSet
        Used to verify the accepted iterate stays feasible.
    current : Evaluation
        Evaluation at the current gain ``K``; its cost is ``J(K)``.
    grad : ndarray
        Cost gradient at ``K`` (not the projected gradient).
    curvature : float, optional
        ``<delta, H delta>`` for the cost Hessian ``H`` at ``K``.
        ``None`` starts a cold search at ``t = 1``; so does a curvature
        that is not positive.  Newton passes None: for its PT-truncated
        step the prediction is never below 1.

    Returns
    -------
    (Evaluation, float, int)
        Evaluation at the accepted gain ``K + t*delta``, the accepted
        ``t``, and the number of cost evaluations performed, that is of
        trials actually evaluated.  Raises :class:`NotDescentError` if
        ``<grad, delta> >= 0`` and :class:`LineSearchStalled` if every
        power above ``MIN_STEP`` is rejected.
    """
    if not 0.0 < alpha < 0.5:
        raise ValueError(f"alpha must be in (0, 0.5), got {alpha}")
    if not 0.0 < beta < 1.0:
        raise ValueError(f"beta must be in (0, 1), got {beta}")
    K, current_cost = current.K, current.cost
    delta = np.asarray(delta, dtype=float)
    slope = float(np.trace(np.asarray(grad).T @ delta))
    if slope >= 0.0:
        raise NotDescentError(
            f"delta is not a descent direction: <grad, delta> = {slope:.3e}"
        )

    def attempt(k):
        # The accepted trial and its dJ at t = beta^k, or None.
        t = beta ** k
        try:
            # The Hurwitz gate comes before the Lyapunov solve, so a
            # destabilizing trial is never solved.  NotHurwitzError from
            # the solve means trsyl had to perturb it: the closed loop is
            # too ill-conditioned for its cost to be trusted.
            trial, dJ = evaluate_step(plant, costspec, current,
                                      K + t * delta)
        except (InfiniteCostError, NotHurwitzError):
            return None
        if trial.cost < current_cost and dJ <= alpha * t * slope:
            return trial, dJ
        return None

    # Powers k = 0 .. count - 1 lie above MIN_STEP.
    count = _first_power(beta, MIN_STEP)
    start = 0
    if curvature is not None and curvature > 0.0:
        predicted = 2.0 * (1.0 - alpha) * -slope / curvature
        if predicted < 1.0:
            start = min(_first_power(beta, max(predicted, MIN_STEP)),
                        count - 1)

    evals = 0
    for k in itertools.chain(range(start, count), range(start)):
        evals += 1
        accepted = attempt(k)
        if accepted is not None:
            break
    else:
        raise LineSearchStalled()
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
    trial = accepted[0]
    if len(cs) and not check_feasible(cs, trial.K):
        raise RuntimeError(
            "accepted line-search iterate violates the constraint set; "
            "the step direction was not in the constraint null space"
        )
    return trial, beta ** k, evals
