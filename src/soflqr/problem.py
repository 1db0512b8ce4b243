"""Problem data model for structured static output feedback LQR synthesis.

Holds the plant ``(A, B, C)``, the quadratic cost specification
``(Q, R, X0)``, linear matrix-equality constraints on the gain, and the
basic evaluations built on them: closed loop, effective state weight,
the evaluation of the cost at a gain and of its exact change to a
nearby gain, stability and feasibility checks, the check of a solve's
initial gain, and constraint flattening to the vectorized form
``Abar vec(K) = cbar``.  An evaluation fails as :class:`SchurSolver`
does, with :class:`NotHurwitzError` at a gain it refuses.
"""

import logging
from dataclasses import dataclass, field

import numpy as np

from ._lapack import lapack
from .lyapunov import NotHurwitzError, SchurSolver, vec

__all__ = [
    "FEASIBILITY_TOL",
    "BadStartError",
    "InfeasibleConstraintsError",
    "Plant",
    "CostSpec",
    "ConstraintTerm",
    "Constraint",
    "ConstraintSet",
    "Evaluation",
    "TraceRecord",
    "SolveTrace",
    "SolveResult",
    "closed_loop",
    "effective_weight",
    "evaluate",
    "evaluate_start",
    "evaluate_step",
    "cost",
    "is_stabilizing",
    "flatten_constraints",
    "check_feasible",
    "weights_from_performance_output",
]

logger = logging.getLogger(__name__)

# Tolerance for membership in the constraint set: the largest residual of
# a flattened constraint row, which flatten_constraints scales to unit norm.
FEASIBILITY_TOL = 1e-9


class BadStartError(ValueError):
    """The initial gain of a solve does not stabilize the plant or does
    not satisfy the constraints: the one exception of CLI exit 4, with
    its subclasses :class:`InfeasibleConstraintsError` and
    :class:`~soflqr.verify.NearMarginError`."""


class InfeasibleConstraintsError(BadStartError):
    """Rows dependent at the rank tolerance of :func:`flatten_constraints`
    have right-hand sides that disagree, so no ``K0`` is feasible."""


def _as_matrix(value, name):
    M = np.asarray(value, dtype=float)
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if not np.all(np.isfinite(M)):
        raise ValueError(f"{name} contains non-finite entries")
    return M


def _check_symmetric(M, name):
    scale = max(1.0, np.abs(M).max()) if M.size else 1.0
    if np.abs(M - M.T).max() > 1e-12 * scale:
        raise ValueError(f"{name} must be symmetric")


@dataclass(frozen=True)
class Plant:
    """Continuous-time LTI plant ``xdot = A x + B u``, ``y = C x``."""

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def __post_init__(self):
        A = _as_matrix(self.A, "A")
        B = _as_matrix(self.B, "B")
        C = _as_matrix(self.C, "C")
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        n = A.shape[0]
        if B.shape[0] != n:
            raise ValueError(f"B must have {n} rows, got shape {B.shape}")
        if C.shape[1] != n:
            raise ValueError(f"C must have {n} columns, got shape {C.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "C", C)

    @property
    def nstates(self):
        return self.A.shape[0]

    @property
    def ninputs(self):
        return self.B.shape[1]

    @property
    def noutputs(self):
        return self.C.shape[0]

    def gain_shape(self):
        """Shape of a compatible output feedback gain."""
        return (self.ninputs, self.noutputs)


@dataclass(frozen=True)
class CostSpec:
    """Quadratic cost data: state weight ``Q`` (PSD), input weight ``R``
    (PD), and the initial-state second moment ``X0`` (PSD), all
    symmetric, with ``Q`` and ``X0`` of one order.  A PSD matrix ``M``
    may have eigenvalues down to ``-1e-10 * max|M|``, the rounding of a
    singular one, so the check holds in any cost unit."""

    Q: np.ndarray
    R: np.ndarray
    X0: np.ndarray

    def __post_init__(self):
        Q = _as_matrix(self.Q, "Q")
        R = _as_matrix(self.R, "R")
        X0 = _as_matrix(self.X0, "X0")
        for M, name in ((Q, "Q"), (R, "R"), (X0, "X0")):
            if M.shape[0] != M.shape[1]:
                raise ValueError(f"{name} must be square, got shape {M.shape}")
            _check_symmetric(M, name)
        if X0.shape != Q.shape:
            raise ValueError(f"Q and X0 must have the same order, got "
                             f"{Q.shape[0]} and {X0.shape[0]}")
        if np.linalg.eigvalsh(Q).min() < -1e-10 * np.abs(Q).max():
            raise ValueError("Q must be positive semidefinite")
        if R.size == 0 or np.linalg.eigvalsh(R).min() <= 0.0:
            raise ValueError("R must be positive definite")
        if np.linalg.eigvalsh(X0).min() < -1e-10 * np.abs(X0).max():
            raise ValueError("X0 must be positive semidefinite")
        object.__setattr__(self, "Q", Q)
        object.__setattr__(self, "R", R)
        object.__setattr__(self, "X0", X0)


def weights_from_performance_output(C1, D1, Qw):
    """Build ``(Q, R)`` from a performance output ``z = C1 x + D1 u``.

    The weights are ``Q = C1^T Qw C1`` and ``R = D1^T Qw D1`` for a
    symmetric positive semidefinite output weight ``Qw``, checked as
    :class:`CostSpec` checks ``Q``.  ``R`` must come
    out positive definite; otherwise the cost has flat input directions
    and a ValueError is raised.
    """
    C1 = _as_matrix(C1, "C1")
    D1 = _as_matrix(D1, "D1")
    Qw = _as_matrix(Qw, "Qw")
    _check_symmetric(Qw, "Qw")
    if C1.shape[0] != Qw.shape[0] or D1.shape[0] != Qw.shape[0]:
        raise ValueError(
            f"C1 and D1 must have {Qw.shape[0]} rows to match Qw, got "
            f"{C1.shape} and {D1.shape}"
        )
    if np.linalg.eigvalsh(Qw).min() < -1e-10 * np.abs(Qw).max():
        raise ValueError("Qw must be positive semidefinite")
    Q = C1.T @ Qw @ C1
    R = D1.T @ Qw @ D1
    Q = 0.5 * (Q + Q.T)
    R = 0.5 * (R + R.T)
    if R.size == 0 or np.linalg.eigvalsh(R).min() <= 0.0:
        raise ValueError("D1^T Qw D1 is not positive definite")
    return Q, R


@dataclass(frozen=True)
class ConstraintTerm:
    """One bilinear term ``left @ K @ right`` of a matrix equality."""

    left: np.ndarray
    right: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "left", _as_matrix(self.left, "left"))
        object.__setattr__(self, "right", _as_matrix(self.right, "right"))


@dataclass(frozen=True)
class Constraint:
    """Matrix equality ``sum_j left_j @ K @ right_j = rhs``."""

    terms: tuple
    rhs: np.ndarray

    def __post_init__(self):
        if not self.terms:
            raise ValueError("constraint must have at least one term")
        rhs = _as_matrix(self.rhs, "rhs")
        terms = []
        for k, term in enumerate(self.terms):
            if not isinstance(term, ConstraintTerm):
                term = ConstraintTerm(*term)
            shape = (term.left.shape[0], term.right.shape[1])
            if shape != rhs.shape:
                raise ValueError(
                    f"constraint term {k} maps to shape {shape}, but the "
                    f"right-hand side has shape {rhs.shape}"
                )
            terms.append(term)
        object.__setattr__(self, "terms", tuple(terms))
        object.__setattr__(self, "rhs", rhs)

    def evaluate(self, K):
        K = np.asarray(K, dtype=float)
        out = np.zeros_like(self.rhs)
        for term in self.terms:
            out += term.left @ K @ term.right
        return out


@dataclass(frozen=True)
class ConstraintSet:
    """Collection of linear matrix-equality constraints on an m x q gain.

    The flattened form ``Abar vec(K) = cbar``, with unit rows, and an
    orthonormal basis ``Z`` of the null space of ``Abar`` are computed
    lazily by :func:`flatten_constraints` and cached; rows dependent at
    its rank tolerance are pruned there so ``Abar`` always has full row
    rank, and must agree with the kept rows.  A constraint multiplied by
    any factor flattens to the same rows.  Feasible gains are
    exactly ``vec(K) = vec(K0) + Z theta`` for any feasible ``K0``.
    The set is frozen and holds its constraints in a tuple, so the
    cache cannot go stale.
    """

    constraints: tuple = ()
    _flattened: tuple = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def __len__(self):
        return len(self.constraints)

    def flattened(self, gain_shape):
        """Cached ``(Abar, cbar, Z)`` of :func:`flatten_constraints` for
        gains of the given shape."""
        if self._flattened is None or self._flattened[0] != gain_shape:
            object.__setattr__(self, "_flattened", (
                gain_shape, *flatten_constraints(self, gain_shape)))
        return self._flattened[1:]

    def null_basis(self, gain_shape):
        """Cached orthonormal basis ``Z`` of the null space of ``Abar``,
        shape ``(m*q, m*q - p)``; the identity without constraints."""
        return self.flattened(gain_shape)[2]


def _check_term_shapes(cs, gain_shape):
    # Every term L K R of cs must take an m x q gain K; the error names
    # the term as the field of a problem file.
    m, q = gain_shape
    for k, con in enumerate(cs.constraints):
        for t, term in enumerate(con.terms):
            where = f"constraints[{k}].terms[{t}]"
            if term.left.shape[1] != m:
                raise ValueError(f"field '{where}.left': expected {m} "
                                 f"columns, got {term.left.shape[1]}")
            if term.right.shape[0] != q:
                raise ValueError(f"field '{where}.right': expected {q} "
                                 f"rows, got {term.right.shape[0]}")


def _check_shapes(plant, costspec, cs, K0):
    """Raise ValueError, naming the field of a problem file, unless ``Q``
    (and so ``X0``) is n x n, ``R`` m x m, ``K0`` m x q, and every term
    of ``cs`` takes an m x q gain, for the plant's n, m and q."""
    n, (m, q) = plant.nstates, plant.gain_shape()
    for name, shape, expected in (("Q", costspec.Q.shape, (n, n)),
                                  ("R", costspec.R.shape, (m, m)),
                                  ("K0", np.shape(K0), (m, q))):
        if shape != expected:
            raise ValueError(
                f"field '{name}': expected shape {expected}, got {shape}")
    _check_term_shapes(cs, (m, q))


def _pivoted_qr(a):
    """``a[:, pivots] = Q R`` for an M x N matrix ``a``, with ``Q``
    orthogonal of order M; ``R`` is the upper triangle of the returned
    M x N factor.  The LAPACK calls and results of
    ``scipy.linalg.qr(a, pivoting=True)``."""
    M, N = a.shape
    if not a.size:
        return np.eye(M), np.zeros((M, N)), np.arange(N)
    qr, jpvt, tau, _, _ = lapack("dgeqp3", a, query=True)
    # dorgqr reads the min(M, N) reflectors and fills in the rest of Q.
    k = min(M, N)
    q = np.empty((M, M), order="F")
    q[:, :k] = qr[:, :k]
    Q, _, _ = lapack("dorgqr", q, tau, overwrite_a=1, query=True)
    return Q, qr, jpvt - 1


def flatten_constraints(cs, gain_shape):
    """Convert matrix equalities to the vector form ``Abar vec(K) = cbar``.

    Each constraint ``sum_j L_j K R_j = C0`` contributes the block
    ``sum_j kron(R_j^T, L_j)`` and the stacked right-hand side
    ``vec(C0)``; a term that cannot multiply an m x q gain raises
    ValueError.  Each row and its right-hand side are then divided by
    the row's 2-norm, a zero row is kept at zero, and everything below
    reads these unit rows, so no scale of a constraint moves a decision.
    One pivoted QR factorization ``Abar^T P = Q R`` decides everything
    else.  Its rank is the number of pivots with
    ``|R_ii| > 1e-10 * |R_00|``, and the rows of the leading pivots are
    kept, so ``Abar`` has full row rank.  The kept rows' least-norm
    solution, from the leading triangle of ``R``, must meet every row
    within ``1e-8 * max(1, ||cbar||)``; otherwise a dropped row disagrees
    with the kept ones and :class:`InfeasibleConstraintsError` is
    raised.  The trailing ``m*q - p`` columns of ``Q`` are an
    orthonormal basis of the null space of ``Abar``, the identity for
    the empty set.  For pinned entries the factorization is a product of
    exact coordinate swaps, so the basis selects the free entries
    exactly.

    Returns
    -------
    (ndarray, ndarray, ndarray)
        ``Abar`` with full row rank and unit rows, shape ``(p, m*q)``,
        ``cbar`` of length ``p``, and the basis ``Z`` of shape
        ``(m*q, m*q - p)``.
    """
    _check_term_shapes(cs, gain_shape)
    m, q = gain_shape
    # The empty leading parts give an empty set its shapes.
    Abar = np.vstack([np.zeros((0, m * q))] + [
        sum(np.kron(t.right.T, t.left) for t in con.terms)
        for con in cs.constraints])
    cbar = np.concatenate([np.zeros(0)]
                          + [vec(con.rhs) for con in cs.constraints])
    # Unit rows, so that the rank, the misfit and check_feasible read one
    # system; hypot, unlike a sum of squares, neither overflows nor
    # underflows.  A zero row stays zero.
    norms = np.hypot.reduce(Abar, axis=1)
    norms[norms == 0.0] = 1.0
    Abar, cbar = Abar / norms[:, None], cbar / norms
    # Abar^T[:, pivots] = Qf r, and |r_00| is the largest pivot.
    Qf, r, pivots = _pivoted_qr(Abar.T)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * diag.max(initial=0.0)))
    # The kept rows are r_rr^T Qf_r^T; their least-norm solution must
    # meet every row, the dropped ones included.  r_rr^T y = c is solved
    # as a lower-triangular system, as scipy.linalg.solve_triangular
    # solves it for a C-ordered r; a transposed upper-triangular solve
    # differs in the last bits.
    y = np.zeros(0)
    if rank:
        # The rank test keeps no zero pivot, so trtrs has no info > 0.
        y, _ = lapack("dtrtrs", r[:rank, :rank].T, cbar[pivots[:rank]],
                      lower=1)
    misfit = float(np.linalg.norm(Abar @ (Qf[:, :rank] @ y) - cbar))
    if misfit > 1e-8 * max(1.0, np.linalg.norm(cbar)):
        raise InfeasibleConstraintsError(
            f"constraints are inconsistent: rows dependent at the rank "
            f"tolerance have right-hand sides that disagree (misfit "
            f"{misfit:.3e})"
        )
    if rank < Abar.shape[0]:
        keep = np.sort(pivots[:rank])
        logger.info(
            "pruned %d redundant constraint row(s): kept rows %s of %d",
            Abar.shape[0] - rank, keep.tolist(), Abar.shape[0],
        )
        Abar = Abar[keep]
        cbar = cbar[keep]
    return Abar, cbar, Qf[:, rank:]


def check_feasible(cs, K):
    """True iff ``K`` satisfies every row ``a^T vec(K) = c`` of the
    flattened system to within ``FEASIBILITY_TOL``.

    The rows are unit rows, so the bound is relative to the row as the
    constraint was written: a constraint multiplied by any factor holds
    for the same gains, and a pinned entry has the absolute bound
    ``FEASIBILITY_TOL``."""
    K = np.asarray(K, dtype=float)
    Abar, cbar, _ = cs.flattened(K.shape)
    return bool(np.all(np.abs(Abar @ vec(K) - cbar) <= FEASIBILITY_TOL))


def closed_loop(plant, K):
    """Closed-loop state matrix ``A + B K C``."""
    K = np.asarray(K, dtype=float)
    if K.shape != plant.gain_shape():
        raise ValueError(
            f"gain shape {K.shape} does not match plant gain shape "
            f"{plant.gain_shape()}"
        )
    return plant.A + plant.B @ K @ plant.C


def effective_weight(costspec, plant, K):
    """Effective state weight ``Q + (K C)^T R (K C)`` of the closed loop."""
    K = np.asarray(K, dtype=float)
    KC = K @ plant.C
    W = costspec.Q + KC.T @ costspec.R @ KC
    return 0.5 * (W + W.T)


def is_stabilizing(plant, K):
    """True iff the closed loop is Hurwitz with margin below
    ``HURWITZ_MARGIN``, by the same Schur-diagonal test as the solvers."""
    try:
        SchurSolver(closed_loop(plant, K))
    except NotHurwitzError:
        return False
    return True


@dataclass(frozen=True)
class Evaluation:
    """The closed loop at the gain ``K``, factored once, and its cost.

    ``solver`` is the Schur factorization of ``A + B K C``, whose
    ``abscissa`` is the closed-loop spectral abscissa; ``P``, symmetric,
    solves the closed-loop Lyapunov equation with the effective weight;
    ``cost`` is ``trace(P @ X0)``.
    """

    K: np.ndarray
    solver: SchurSolver
    P: np.ndarray
    cost: float


def evaluate(plant, costspec, K):
    """Factor the closed loop at ``K`` and solve for its cost.

    Raises :class:`NotHurwitzError` for non-stabilizing gains.
    """
    K = np.asarray(K, dtype=float)
    solver = SchurSolver(closed_loop(plant, K))
    P = solver.solve_primal(effective_weight(costspec, plant, K))
    P = 0.5 * (P + P.T)
    return Evaluation(K=K, solver=solver, P=P,
                      cost=float(np.trace(P @ costspec.X0)))


def evaluate_start(plant, costspec, cs, K0):
    """Evaluation at a solve's initial gain ``K0``.

    Raises ValueError, naming the field as :class:`~soflqr.Problem`
    does, for data that do not fit the plant, and :class:`BadStartError`
    unless ``K0`` stabilizes the plant, by the Hurwitz test of
    :class:`SchurSolver`, and satisfies ``cs``; an inconsistent ``cs``
    raises :class:`InfeasibleConstraintsError`, and a refused Lyapunov
    solve at ``K0`` ``numpy.linalg.LinAlgError``.
    """
    _check_shapes(plant, costspec, cs, K0)
    try:
        ev = evaluate(plant, costspec, np.array(K0, dtype=float))
    except NotHurwitzError as exc:
        raise BadStartError(
            f"initial gain K0 does not stabilize the plant (closed-loop "
            f"spectral abscissa {exc.abscissa:.6e}); the solvers need a "
            f"stabilizing K0, e.g. from an external stabilization procedure"
        ) from exc
    if not check_feasible(cs, ev.K):
        raise BadStartError("initial gain K0 does not satisfy the constraints")
    return ev


def evaluate_step(plant, costspec, current, K):
    """Evaluation at the gain ``K`` from the exact change of the cost.

    ``current`` is the :class:`Evaluation` at a nearby gain.  With
    ``dK = K - current.K``, ``dA = B dK C`` and the factorization of the
    new closed loop ``Ac' = Ac + dA``, the change ``dP`` of the cost
    matrix solves ``Ac'^T dP + dP Ac' + D = 0`` with

        D = dA^T P + P dA + (dK C)^T R (K C) + (K C)^T R (dK C)
            + (dK C)^T R (dK C),

    the difference of the two cost equations, where ``K`` in ``K C`` is
    the current gain.  Every term of ``D`` is of the order of ``dK``, so
    ``dJ = <dP, X0>`` carries no cancellation, whereas the difference of
    two costs near an optimum is rounding noise.  Returns the evaluation,
    with ``P + dP`` and the cost ``current.cost + dJ``, and ``dJ``.
    Raises :class:`NotHurwitzError` for non-stabilizing gains.
    """
    K = np.asarray(K, dtype=float)
    solver = SchurSolver(closed_loop(plant, K))
    P = current.P
    dKC = (K - current.K) @ plant.C
    RdKC = costspec.R @ dKC
    # Half the change of the effective weight, so that D = half + half^T
    # is symmetric to the last bit.
    weight = (current.K @ plant.C).T @ RdKC + 0.5 * (dKC.T @ RdKC)
    half = P @ plant.B @ dKC + weight
    dP = solver.solve_primal(half + half.T)
    dP = 0.5 * (dP + dP.T)
    dJ = float(np.vdot(dP, costspec.X0))
    return Evaluation(K=K, solver=solver, P=P + dP,
                      cost=current.cost + dJ), dJ


def cost(plant, costspec, K):
    """Infinite-horizon quadratic cost ``trace(P X0)`` of the closed loop.

    Raises :class:`NotHurwitzError` for non-stabilizing gains.
    """
    return evaluate(plant, costspec, K).cost


@dataclass(frozen=True)
class TraceRecord:
    """State of one solver iterate plus the step that produced it."""

    iteration: int
    cost: float
    grad_norm: float
    step_norm: float
    step_size: float
    spectral_abscissa: float
    seconds: float


@dataclass
class SolveTrace:
    """Per-iteration convergence record of a solver run."""

    records: list = field(default_factory=list)

    CSV_HEADER = (
        "iter", "J", "grad_norm", "step_norm", "step_size_t",
        "spectral_abscissa", "cumulative_seconds",
    )

    @property
    def costs(self):
        return [r.cost for r in self.records]

    def write_csv(self, path):
        """Write the trace as comma-separated values with a header row.

        The bytes are those of ``csv.writer`` (excel dialect, CRLF line
        ends) on the rows ``[iteration, repr(cost), ..., repr(seconds)]``:
        no field holds a comma, a quote or a line break, so none is
        quoted.
        """
        lines = [",".join(self.CSV_HEADER)]
        lines.extend(
            f"{r.iteration},{r.cost!r},{r.grad_norm!r},{r.step_norm!r},"
            f"{r.step_size!r},{r.spectral_abscissa!r},{r.seconds!r}"
            for r in self.records)
        lines.append("")
        with open(path, "w", newline="") as fh:
            fh.write("\r\n".join(lines))


# The status of a run for each stop reason, the rule that ended it.
_STATUS = {
    "step_tol": "converged",         # step_norm <= tol
    "cost_resolution": "converged",  # predicted decrease <= 4 ulps of J
    "uncertified": "stalled",        # either, but s^2 > 2e-5 kappa J
    "not_descent": "stalled",        # the codes of LineSearchStalled
    "line_search_floor": "stalled",
    "max_iters": "max_iters",
}


@dataclass
class SolveResult:
    """Outcome of a solver run.

    ``stop_reason`` names the rule that ended the run; ``status`` and
    ``converged`` follow from it by the table ``_STATUS``, and
    ``iterations`` (accepted steps) and ``grad_norm`` are read from the
    trace's last row.  ``cost`` is the cost of ``K`` from its Gramian,
    whereas the trace's costs are the running sum the line search
    certified.  ``step_norm`` is the norm of the search direction at
    ``K``, the stopping measure.
    """

    K: np.ndarray
    cost: float
    stop_reason: str
    step_norm: float
    line_search_evals: int
    trace: SolveTrace

    @property
    def status(self):
        return _STATUS[self.stop_reason]

    @property
    def converged(self):
        return self.status == "converged"

    @property
    def iterations(self):
        return self.trace.records[-1].iteration

    @property
    def grad_norm(self):
        return self.trace.records[-1].grad_norm
