"""Property tests of the Hessian over random plants and weights.

Plants have n in [1, 6] states and m, q in [1, 3] inputs and outputs,
with a random positive definite R, a rank-deficient positive
semidefinite Q, an X0 of rank at least one that is singular for n > 1,
and a small stabilizing gain.  Matrix
entries are drawn on a grid of eighths, which keeps the Lyapunov solves
well conditioned while still reaching zero rows, repeated eigenvalues
and defective state matrices.
"""

import numpy as np
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from soflqr import (
    CostSpec,
    Plant,
    closed_loop,
    gradient,
    hessian,
    spectral_abscissa,
)
from soflqr.verify import error_report, fd_hessian, kron_hessian

EIGHTHS = st.integers(-8, 8).map(lambda k: k / 8.0)


def _matrix(draw, rows, cols):
    return draw(arrays(np.float64, (rows, cols), elements=EIGHTHS))


def _low_rank_psd(draw, n, min_rank):
    # Rank below n, so the matrix is singular, unless min_rank = n = 1.
    F = _matrix(draw, n, draw(st.integers(min_rank, max(min_rank, n - 1))))
    return F @ F.T


@st.composite
def hessian_problems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    A = _matrix(draw, n, n)
    A -= (spectral_abscissa(A) + 0.5) * np.eye(n)
    plant = Plant(A=A, B=_matrix(draw, n, m), C=_matrix(draw, q, n))
    L = _matrix(draw, m, m)
    costspec = CostSpec(Q=_low_rank_psd(draw, n, 0),
                        R=L @ L.T + 0.1 * np.eye(m),
                        X0=_low_rank_psd(draw, n, 1))
    K = 0.1 * _matrix(draw, m, q)
    assume(spectral_abscissa(closed_loop(plant, K)) < -0.1)
    return plant, costspec, K


def _term_scale(plant, costspec, gp):
    # Size of the Hessian's terms before they are summed: the input-weight
    # term and, with |abscissa| for the Lyapunov gain, the solved terms.
    norm = np.linalg.norm
    P, G = gp.cost_matrix.value, gp.gramian.value
    B, C = plant.B, plant.C
    return norm(G, 2) * norm(C, 2) ** 2 * (
        norm(costspec.R, 2)
        + norm(B, 2) ** 2 * norm(P, 2) / abs(gp.solver.abscissa))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hessian_problems())
def test_hessian_symmetric_and_matches_oracles(problem):
    plant, costspec, K = problem
    gp = gradient(plant, costspec, K)
    H = hessian(plant, costspec, K, gp).matrix
    assert np.array_equal(H, H.T)
    # Errors are relative to the largest entry.  A Hessian below 1e-5 of
    # its terms' size has cancelled to rounding level, and is judged
    # against that floor instead.
    scale = max(np.abs(H).max(), 1e-5 * _term_scale(plant, costspec, gp))
    kron = error_report(kron_hessian(plant, costspec, K), H)
    assert kron.max_abs_error <= 1e-9 * scale
    fd = error_report(fd_hessian(plant, costspec, K, h=1e-4), H)
    assert fd.max_abs_error <= 1e-4 * scale
