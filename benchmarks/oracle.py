"""Correctness oracle applied to every solve, outside the timed region.

Each check works from the generated problem-file object and the solver's
reported outcome:

- feasibility ``||Abar vec K - cbar||_inf`` from the raw constraint
  matrices;
- a Hurwitz closed loop, from ``numpy.linalg.eigvals``;
- a strictly decreasing cost trace;
- the reported ``J`` equal to the cost recomputed with
  ``scipy.linalg.solve_continuous_lyapunov``;
- the central-difference gradient ``soflqr.verify.fd_gradient``,
  projected on the constraint null space, near zero;
- the pinned optimal cost, where one is known.

A solve that fails any check is wrong.  A solve is failed when it is
wrong or its status is not ``converged``.
"""

from dataclasses import dataclass

import numpy as np
from scipy.linalg import null_space, solve_continuous_lyapunov

__all__ = ["Outcome", "Verdict", "check"]

FEASIBILITY_TOL = 1e-9
COST_RTOL = 1e-8
# Projected FD gradient norm accepted as stationary, relative to max(1, J).
# The first-order solver stops at a projected-gradient norm of 1e-5.
STATIONARY_RTOL = 1e-4


@dataclass(frozen=True)
class Outcome:
    """What one solve reported."""

    K: np.ndarray
    cost: float
    status: str
    iterations: int
    cost_evals: int
    costs: tuple
    error: str = None


@dataclass(frozen=True)
class Verdict:
    converged: bool
    wrong: bool
    reasons: tuple

    @property
    def failed(self):
        return self.wrong or not self.converged


def _matrix(data, key):
    return np.array(data[key], dtype=float)


def _constraint_rows(problem, m, q):
    """``Abar`` and ``cbar`` in column-major ``vec`` coordinates."""
    rows, rhs = [], []
    for con in problem.get("constraints", []):
        block = 0.0
        for term in con["terms"]:
            block = block + np.kron(np.array(term["right"]).T,
                                    np.array(term["left"]))
        rows.append(np.atleast_2d(block))
        rhs.append(np.array(con["rhs"], dtype=float).flatten(order="F"))
    if not rows:
        return np.zeros((0, m * q)), np.zeros(0)
    return np.vstack(rows), np.concatenate(rhs)


def _cost(A, B, C, Q, R, X0, K):
    Ac = A + B @ K @ C
    KC = K @ C
    P = solve_continuous_lyapunov(Ac.T, -(Q + KC.T @ R @ KC))
    return float(np.trace(P @ X0))


def check(solve, outcome):
    """Verdict on ``outcome`` of ``solve`` (a ``workloads.Solve``)."""
    from soflqr.problems import problem_from_dict
    from soflqr.verify import fd_gradient

    if outcome.error is not None:
        return Verdict(converged=False, wrong=False,
                       reasons=(f"raised {outcome.error}",))
    data = solve.problem
    A, B, C = (_matrix(data, k) for k in "ABC")
    Q, R, X0 = (_matrix(data, k) for k in ("Q", "R", "X0"))
    K = np.asarray(outcome.K, dtype=float)
    m, q = K.shape
    reasons = []

    Abar, cbar = _constraint_rows(data, m, q)
    vK = K.flatten(order="F")
    if Abar.shape[0]:
        residual = float(np.abs(Abar @ vK - cbar).max())
        if residual > FEASIBILITY_TOL:
            reasons.append(f"infeasible: residual {residual:.2e}")

    abscissa = float(np.max(np.linalg.eigvals(A + B @ K @ C).real))
    if abscissa >= 0.0:
        reasons.append(f"closed loop not Hurwitz: abscissa {abscissa:.3e}")
        return Verdict(outcome.status == "converged", True, tuple(reasons))

    costs = np.asarray(outcome.costs, dtype=float)
    if np.any(np.diff(costs) >= 0.0):
        reasons.append("cost trace not strictly decreasing")

    J = _cost(A, B, C, Q, R, X0, K)
    if abs(outcome.cost - J) > COST_RTOL * max(1.0, abs(J)):
        reasons.append(f"reported J {outcome.cost!r} != recomputed {J!r}")

    problem = problem_from_dict(data)
    g = fd_gradient(problem.plant, problem.costspec, K).flatten(order="F")
    Z = null_space(Abar) if Abar.shape[0] else np.eye(m * q)
    stationarity = float(np.linalg.norm(Z.T @ g))
    if stationarity > STATIONARY_RTOL * max(1.0, abs(J)):
        reasons.append(f"projected FD gradient {stationarity:.2e}")

    if solve.j_star is not None:
        j_star, tol = solve.j_star
        if abs(J - j_star) > tol:
            reasons.append(f"J {J:.10g} != pinned {j_star:.10g}")

    return Verdict(converged=outcome.status == "converged",
                   wrong=bool(reasons), reasons=tuple(reasons))
