"""Shared helpers for building random test instances and recording
solver iterates."""

from contextlib import contextmanager

import numpy as np

import soflqr.first_order
from soflqr import CostSpec, Plant, spectral_abscissa


def stable_plant(rng, n, m, q, margin=0.7):
    """Random plant whose open loop is Hurwitz with the given margin.

    The state matrix is shifted so its spectral abscissa is exactly
    ``-margin``, which makes the zero gain stabilizing and keeps the
    Lyapunov solves well conditioned.
    """
    A = rng.standard_normal((n, n))
    A = A - (spectral_abscissa(A) + margin) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((q, n))
    return Plant(A=A, B=B, C=C)


def identity_cost(n, m):
    """Unit state and input weights with identity initial-state moment."""
    return CostSpec(Q=np.eye(n), R=np.eye(m), X0=np.eye(n))


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
