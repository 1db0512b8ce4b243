"""Backtracking line search with a closed-loop stability guard.

Shared by the gradient-projection and Newton solvers: starting from a
unit step, the step size is shrunk geometrically until the trial gain
keeps the closed loop Hurwitz and satisfies the Armijo
sufficient-decrease condition.  The decrease is the exact cost change
of :func:`evaluate_step`, not the difference of two rounded costs.
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


def line_search(plant, costspec, cs, current, delta, grad, alpha, beta):
    """Backtracking search along the descent direction ``delta``.

    Accepts the first ``t`` in ``1, beta, beta^2, ...`` whose exact cost
    change ``dJ`` satisfies the Armijo condition
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

    Returns
    -------
    (Evaluation, float, int)
        Evaluation at the accepted gain ``K + t*delta``, the accepted
        ``t``, and the number of cost evaluations performed.  Raises
        :class:`NotDescentError` if ``<grad, delta> >= 0`` and
        :class:`LineSearchStalled` if ``t`` falls below ``MIN_STEP``.
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

    t = 1.0
    evals = 0
    while t > MIN_STEP:
        evals += 1
        try:
            # The Hurwitz gate comes before the Lyapunov solve, so a
            # destabilizing trial is never solved.
            trial, dJ = evaluate_step(plant, costspec, current,
                                      K + t * delta)
        except InfiniteCostError:
            t *= beta
            continue
        if trial.cost < current_cost and dJ <= alpha * t * slope:
            if len(cs) and not check_feasible(cs, trial.K):
                raise RuntimeError(
                    "accepted line-search iterate violates the constraint "
                    "set; the step direction was not in the constraint "
                    "null space"
                )
            return trial, t, evals
        t *= beta
    raise LineSearchStalled()
