"""Seeded workload generator for the solver benchmark.

A workload is a fixed list of solves; one sweep over the list is a pass.
Every instance is a problem-file JSON object (the format of
``soflqr.problems``), so the solvers receive only these generated inputs.

The random instances come from the family used for the baseline table in
ROADMAP.md: ``rng = default_rng(member)``, ``A = randn(n, n) / sqrt(n)``
shifted so its spectral abscissa is -0.5, ``B`` and ``C`` standard normal,
``Q``, ``R`` and ``X0`` identity, ``K0 = 0``.  The family members are part
of the workload's definition, not of the run's ``--seed``: the benchmark
seed permutes the order of the solves in every pass.  Rotating the state
coordinates by the seed was tried and rejected: with the current solvers,
rounding-level changes of the input change outcomes, not only timings.
A newton-dense member stalled on one rotation, and the structured 80/8
Newton solve converged, stalled or raised "delta is not a descent
direction" depending on the rotation.  ``failed`` and the counts would
then move with the seed rather than with the code.
"""

from dataclasses import dataclass

import numpy as np

__all__ = ["WORKLOADS", "WHY", "Solve", "generate", "warm_up_solve"]

WORKLOADS = ("bundled", "newton-dense", "structured")

# Why each workload exists: the layer it stresses, the layer it bypasses,
# and the measurements that motivated it.
WHY = {
    "bundled": (
        "n <= 4, so per-call overhead and the line search dominate. "
        "Measured on a 2-core host: line_search took 0.31 s and gradient "
        "0.14 s of a 0.54 s pass. The Hessian took 19 ms, so Hessian work "
        "should show no change here.  The ROADMAP item-2 instance (PSD Q with "
        "unobservable modes) stays in, so its wrong answer is counted."
    ),
    "newton-dense": (
        "The Hessian workspace dominates. It took 0.88 s of the 1.08 s "
        "spent at n = 60. At n = 120 a solve does 17 Schur factorizations "
        "and 881 Sylvester solves in 3.4 s. There are no constraints, so "
        "null-space work should show no change here."
    ),
    "structured": (
        "Only 1/k of the Hessian columns are useful, and the KKT and "
        "projection paths run. The solver also stalls here. On member 0 at "
        "40/4, Newton needs 30 iterations and ends stalled at step norm "
        "5.6e-9; with zero pins it needs 4. The full Hessian's minimum "
        "eigenvalue is -1.7e3, but the reduced Z^T H Z is positive "
        "definite (+3.8e2). So full-space PT distorts the step."
    ),
}


@dataclass(frozen=True)
class Solve:
    """One solver run of a workload.

    Attributes
    ----------
    name : str
        ``<instance>/<method>``, unique within the workload.
    problem : dict
        Problem-file JSON object; ``problem["name"]`` names the file the
        CLI reads for workloads solved through the command line.
    method : str
        ``"newton"`` or ``"grad"``.
    tol : float or None
        Tolerance override; None keeps the problem file's setting.
    cli : bool
        Run through ``soflqr.cli.main(["solve", ...])`` on the written
        file instead of calling the solver function in-process.
    j_star : tuple or None
        Pinned optimal cost and its absolute tolerance, if known.
    """

    name: str
    problem: dict
    method: str
    tol: float = None
    cli: bool = False
    j_star: tuple = None

    @property
    def pinned(self):
        """Number of scalar equality rows, all independent here."""
        return sum(len(c["rhs"]) * len(c["rhs"][0])
                   for c in self.problem.get("constraints", []))


def _abscissa(M):
    return float(np.max(np.linalg.eigvals(M).real))


def _family(member, n, m, q, name):
    rng = np.random.default_rng(member)
    A = rng.standard_normal((n, n)) / np.sqrt(n)
    A -= (_abscissa(A) + 0.5) * np.eye(n)
    B = rng.standard_normal((n, m))
    C = rng.standard_normal((q, n))
    return {
        "name": name,
        "A": A.tolist(), "B": B.tolist(), "C": C.tolist(),
        "Q": np.eye(n).tolist(), "R": np.eye(m).tolist(),
        "X0": np.eye(n).tolist(), "K0": np.zeros((m, q)).tolist(),
        "solver": {"method": "newton", "tol": 1e-9, "pt_eps": 1e-6,
                   "alpha": 0.2, "beta": 0.1},
    }


def _pinned_diagonal(member, n, k):
    """Family member with a diagonal k x k gain.

    Every off-diagonal entry is pinned to 0, except entry (0, 1), pinned
    to 0.1 so that the constraint right-hand side is nonzero.  ``K0``
    satisfies the pins.
    """
    data = _family(member, n, k, k, f"diag{n}k{k}m{member}")
    constraints = []
    for j in range(k):
        for i in range(k):
            if i == j:
                continue
            left = np.zeros((1, k))
            left[0, i] = 1.0
            right = np.zeros((k, 1))
            right[j, 0] = 1.0
            value = 0.1 if (i, j) == (0, 1) else 0.0
            constraints.append({"terms": [{"left": left.tolist(),
                                           "right": right.tolist()}],
                                "rhs": [[value]]})
    data["constraints"] = constraints
    data["K0"][0][1] = 0.1
    if _abscissa(np.array(data["A"]) + np.array(data["B"])
                 @ np.array(data["K0"]) @ np.array(data["C"])) >= 0.0:
        raise ValueError(f"{data['name']}: K0 does not stabilize")
    return data


def _item2():
    # ROADMAP item 2: PSD Q with two unobservable modes.  The optimum is
    # K = 1 - sqrt(2) with J = sqrt(2) - 1.
    return {
        "name": "item2",
        "A": np.diag([-1.0, -2.0, -3.0]).tolist(),
        "B": [[1.0], [0.0], [0.0]],
        "C": [[1.0, 0.0, 0.0]],
        "Q": np.diag([1.0, 0.0, 0.0]).tolist(),
        "R": [[1.0]],
        "X0": np.eye(3).tolist(),
        "K0": [[0.0]],
        "solver": {"method": "newton", "tol": 1e-9, "pt_eps": 1e-6,
                   "alpha": 0.2, "beta": 0.1},
    }


def warm_up_solve():
    """A 3-state in-process Newton solve for untimed warm-up."""
    return Solve("item2/newton", _item2(), "newton")


def _bundled():
    from soflqr.problems import builtin_problem, problem_to_dict

    instances = [
        (problem_to_dict(builtin_problem("example1")), (159.0686, 1e-4)),
        (problem_to_dict(builtin_problem("example2")), (12.8281, 1e-4)),
        (_item2(), (np.sqrt(2.0) - 1.0, 1e-7)),
    ]
    solves = []
    for data, j_star in instances:
        solves.append(Solve(f"{data['name']}/newton", data, "newton",
                            cli=True, j_star=j_star))
        solves.append(Solve(f"{data['name']}/grad", data, "grad", tol=1e-5,
                            cli=True, j_star=j_star))
    return solves


def _newton_dense():
    sizes = [(0, 60, 4, 6), (1, 60, 4, 6), (2, 60, 4, 6), (0, 120, 6, 8)]
    return [
        Solve(f"rand{n}m{member}/newton",
              _family(member, n, m, q, f"rand{n}m{member}"), "newton")
        for member, n, m, q in sizes
    ]


def _structured():
    small = [_pinned_diagonal(member, 40, 4) for member in (0, 1)]
    solves = []
    for data in small:
        solves.append(Solve(f"{data['name']}/newton", data, "newton"))
        solves.append(Solve(f"{data['name']}/grad", data, "grad", tol=1e-5))
    large = _pinned_diagonal(1, 80, 8)
    solves.append(Solve(f"{large['name']}/newton", large, "newton"))
    return solves


def generate(workload, seed, stream=0):
    """Solve list of ``workload`` and the solve order of its passes.

    Returns ``(solves, orders)`` where ``orders`` is an endless iterator
    of index permutations drawn from ``seed`` and ``stream``, one per
    pass.  Measuring processes of one run use distinct streams.
    """
    factories = {"bundled": _bundled, "newton-dense": _newton_dense,
                "structured": _structured}
    if workload not in factories:
        raise ValueError(f"unknown workload {workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    solves = factories[workload]()
    rng = np.random.default_rng([seed, stream])

    def orders():
        while True:
            yield rng.permutation(len(solves))

    return solves, orders()
