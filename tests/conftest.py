"""Shared helpers for building random test instances and recording
solver iterates."""

from contextlib import contextmanager

import numpy as np

import soflqr.first_order
from soflqr import (
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    Plant,
    Problem,
    spectral_abscissa,
)


def stable_plant(rng, n, m, q, margin=0.7, normalized=False):
    """Random plant whose open loop is Hurwitz with the given margin.

    The state matrix, standard normal or, if ``normalized``, standard
    normal divided by ``sqrt(n)``, is shifted so its spectral abscissa is
    exactly ``-margin``, which makes the zero gain stabilizing and keeps
    the Lyapunov solves well conditioned.
    """
    A = rng.standard_normal((n, n))
    if normalized:
        A = A / np.sqrt(n)
    A = A - (spectral_abscissa(A) + margin) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((q, n))
    return Plant(A=A, B=B, C=C)


def identity_cost(n, m):
    """Unit state and input weights with identity initial-state moment."""
    return CostSpec(Q=np.eye(n), R=np.eye(m), X0=np.eye(n))


def family_member(member, margin, n=8, m=2, q=3):
    """Member of the seeded random family of the benchmark workloads.

    The normalized :func:`stable_plant` drawn from ``default_rng(member)``,
    so ``K0 = 0`` has closed-loop abscissa ``-margin``, with identity
    weights.  Returns ``(plant, costspec)``.
    """
    plant = stable_plant(np.random.default_rng(member), n, m, q, margin,
                         normalized=True)
    return plant, identity_cost(n, m)


def rescaled_states(plant, costspec, span, reverse=False):
    """The plant and cost in the state coordinates ``x = D x~``.

    ``D = diag(geomspace(1, span, n))``, or its reverse, so that
    ``A -> D^-1 A D``, ``B -> D^-1 B``, ``C -> C D``, ``Q -> D Q D`` and
    ``X0 -> D^-1 X0 D^-1``.  K and J are unchanged in exact arithmetic.
    Returns ``(plant, costspec)``.
    """
    d = np.geomspace(1.0, span, plant.nstates)
    if reverse:
        d = d[::-1]
    D, Dinv = np.diag(d), np.diag(1.0 / d)
    scaled = Plant(A=Dinv @ plant.A @ D, B=Dinv @ plant.B, C=plant.C @ D)
    scaled_cost = CostSpec(Q=D @ costspec.Q @ D, R=costspec.R,
                           X0=Dinv @ costspec.X0 @ Dinv)
    return scaled, scaled_cost


def time_scaled(plant, c):
    """``plant`` with time scaled by ``c``: ``A -> c A`` and ``B -> c B``
    divide the cost, its gradient and its curvature by ``c``, and leave
    the optimal gain where it is."""
    return Plant(A=c * plant.A, B=c * plant.B, C=plant.C)


def unobservable_psd_problem():
    """PSD state weight that leaves two stable modes unobserved.

    The cost matrix ``P`` is singular at every gain; the optimum is
    ``K = 1 - sqrt(2)`` with ``J = sqrt(2) - 1``.
    """
    plant = Plant(A=np.diag([-1.0, -2.0, -3.0]), B=[[1.0], [0.0], [0.0]],
                  C=[[1.0, 0.0, 0.0]])
    costspec = CostSpec(Q=np.diag([1.0, 0.0, 0.0]), R=[[1.0]], X0=np.eye(3))
    return plant, costspec


def scaled_row_constraint(scale):
    """``scale (K00 + K12 - 0.3 K01) = 0`` on a 2 x 3 gain, such as
    example1's: one flattened row, of norm ``1.446 scale``."""
    terms = [ConstraintTerm(left=scale * c * np.eye(2)[[i]],
                            right=np.eye(3)[:, [j]])
             for i, j, c in ((0, 0, 1.0), (1, 2, 1.0), (0, 1, -0.3))]
    return ConstraintSet((Constraint(terms=terms, rhs=[[0.0]]),))


def overflow_problem(case):
    """Problem whose closed loop overflows, with ``A = diag(-1, -2)``,
    ``C = [1 0]`` and ``R = 1``.

    1. ``B = [1e160; 0]``, ``Q = X0 = I``, ``K0 = 0``: the gradient at
       ``K0`` is 5e159, finite although its square overflows; the
       Hessian is not finite, and every gradient trial overflows.
    2. As 1, with ``Q = X0 = 1e-5 I``: the gradient is 5e149.
    3. ``B = [1e10; 0]``, ``Q = X0 = I``, ``K0 = -1e300``: the closed
       loop at ``K0`` is infinite.
    """
    weight = 1e-5 if case == 2 else 1.0
    plant = Plant(A=np.diag([-1.0, -2.0]),
                  B=[[1e10 if case == 3 else 1e160], [0.0]],
                  C=[[1.0, 0.0]])
    costspec = CostSpec(Q=weight * np.eye(2), R=[[1.0]],
                        X0=weight * np.eye(2))
    return Problem(plant=plant, costspec=costspec,
                   constraints=ConstraintSet(),
                   gain0=np.array([[-1e300 if case == 3 else 0.0]]),
                   name=f"overflow{case}")


def random_spd(rng, n, floor=0.1):
    """Random symmetric positive definite matrix."""
    M = rng.standard_normal((n, n))
    return M @ M.T + floor * np.eye(n)


@contextmanager
def recorded_iterates():
    """Record the gain of every iterate a solver visits.

    The descent loop shared by both solvers calls
    ``soflqr.first_order.gradient`` exactly once per visited gain, the
    start included, so wrapping it yields those gains in order.  A
    context manager rather than a fixture, so that Hypothesis tests can
    use it once per example::

        with recorded_iterates() as iterates:
            result = newton_solve(...)
    """
    original = soflqr.first_order.gradient
    iterates = []

    def recording(plant, costspec, K):
        gp = original(plant, costspec, K)
        iterates.append(gp.evaluation.K.copy())
        return gp

    soflqr.first_order.gradient = recording
    try:
        yield iterates
    finally:
        soflqr.first_order.gradient = original
