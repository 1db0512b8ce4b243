"""Backtracking line search with a closed-loop stability guard.

Shared by the gradient-projection and Newton solvers: the trial steps
are the powers ``1, beta, beta^2, ...`` (built by repeated
multiplication), tried in decreasing order until the trial gain keeps
the closed loop Hurwitz and satisfies the Armijo sufficient-decrease
condition.  The decrease is the exact cost change of
:func:`evaluate_step`, not the difference of two rounded costs.

A search is warm-started: it begins one power of ``beta`` above the step
the previous search accepted, not at the unit step.  The cold search
accepts the largest acceptable power ``beta^k``; a warm search that
begins at a power at or above ``beta^k`` skips only powers the cold
search rejected, so it accepts the same step.  The two differ only when
the accepted step would grow by more than ``1/beta`` in one iteration.
If the warm-started powers run down to ``MIN_STEP``, the skipped ones
are tried next, largest first, before the search stalls.  Finding the
start costs one multiplication per skipped power and stores nothing.
"""

import numpy as np

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


def _trial_steps(beta, t_prev):
    """The powers ``1, beta, beta^2, ...`` above ``MIN_STEP``, starting at
    the smallest one above ``t_prev`` and then wrapping to the skipped ones.

    Every step is built by repeated multiplication from 1, never as
    ``t_prev / beta``, so it is bit-identical to the cold search's.
    """
    start, skipped = 1.0, 0
    while t_prev and start * beta > max(t_prev, MIN_STEP):
        start *= beta
        skipped += 1
    t = start
    while t > MIN_STEP:
        yield t
        t *= beta
    t = 1.0
    for _ in range(skipped):
        yield t
        t *= beta


def line_search(plant, costspec, cs, current, delta, grad, alpha, beta,
                t_prev=None):
    """Backtracking search along the descent direction ``delta``.

    Tries the powers ``1, beta, beta^2, ...`` above ``MIN_STEP`` from
    the smallest power above ``t_prev`` downwards, then the skipped
    larger powers from ``1`` down, and accepts the first ``t`` whose
    exact cost change ``dJ`` satisfies the Armijo condition
    ``dJ <= alpha * t * <grad, delta>`` (with the full gradient ``grad``)
    and leaves ``J(K) + dJ`` strictly below ``J(K)`` in floating point.
    Destabilizing trial points count as rejections.

    Parameters
    ----------
    cs : ConstraintSet
        Used to verify the accepted iterate stays feasible.
    current : Evaluation
        Evaluation at the current gain ``K``; its cost is ``J(K)``.
    grad : ndarray
        Cost gradient at ``K`` (not the projected gradient).
    t_prev : float, optional
        Step accepted by the previous search.  When it is a power
        ``beta^k``, the search starts at ``beta^(k-1)``.  ``None`` or 0
        (no previous step) starts a cold search at ``t = 1``.

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

    for evals, t in enumerate(_trial_steps(beta, t_prev), start=1):
        try:
            # The Hurwitz gate comes before the Lyapunov solve, so a
            # destabilizing trial is never solved.
            trial, dJ = evaluate_step(plant, costspec, current,
                                      K + t * delta)
        except InfiniteCostError:
            continue
        if trial.cost < current_cost and dJ <= alpha * t * slope:
            if len(cs) and not check_feasible(cs, trial.K):
                raise RuntimeError(
                    "accepted line-search iterate violates the constraint "
                    "set; the step direction was not in the constraint "
                    "null space"
                )
            return trial, t, evals
    raise LineSearchStalled()
