"""Problem bundles, JSON problem files, and the bundled benchmarks.

A problem file is a JSON object with named matrix fields::

    {
      "name": "...",                       # optional string
      "A": [[...]], "B": [[...]], "C": [[...]],
      "Q": [[...]], "R": [[...]],
      "X0": [[...]],                       # optional, defaults to identity
      "K0": [[...]],
      "constraints": [                     # optional
        {"terms": [{"left": [[...]], "right": [[...]]}], "rhs": [[...]]}
      ],
      "solver": {"method": "newton", "tol": 1e-9, "pt_eps": 1e-9,
                 "alpha": 0.2, "beta": 0.1, "max_iters": 200}
    }

Every matrix is 2-D and finite, and its shape fits the plant of n
states, m inputs and q outputs: ``Q`` and ``X0`` are n x n, ``R`` m x m,
``K0`` m x q, and each term's ``left`` has m columns and ``right`` q
rows.  The loader parses only the JSON structure; the model types check
the values, and :class:`Problem` the shapes, so a problem built in code
meets the same rules.  Every ``solver`` key is optional; a key that is
not a :class:`SolverParams` field is an error.

JSON floats round-trip exactly, so a written file parses back to
bit-identical matrices.  Two benchmarks ship as built-ins: ``example1``,
an unconstrained fourth-order aircraft model with a 2x3 gain, and
``example2``, a third-order plant under decentralized (diagonal) gain
constraints.
"""

import json
import numbers
from dataclasses import asdict, dataclass, field, fields, replace

import numpy as np

from .problem import (Constraint, ConstraintSet, ConstraintTerm, CostSpec,
                      Plant, _as_matrix, _check_shapes)

__all__ = [
    "ProblemFormatError",
    "SolverParams",
    "Problem",
    "problem_from_dict",
    "problem_to_dict",
    "load_problem",
    "save_problem",
    "builtin_problem",
    "BUILTIN_NAMES",
]


_METHODS = ("newton", "grad")

# Per-method defaults used when a problem file leaves a field unset.
_DEFAULT_TOL = {"newton": 1e-9, "grad": 1e-5}
_DEFAULT_MAX_ITERS = {"newton": 200, "grad": 10000}


class ProblemFormatError(ValueError):
    """A problem file could not be parsed into a valid problem."""


@dataclass(frozen=True)
class SolverParams:
    """Solver selection and tuning knobs carried by a problem file.

    The one copy of the solver defaults: the CLI and both solver
    functions build their settings here.  A field out of range raises
    :class:`ProblemFormatError`.  ``tol`` and ``max_iters`` may be None
    for the method's default.

    The line search moves one power of ``beta`` per trial, so a start
    off by a factor ``r`` costs about ``log r / log(1 / beta)`` trials,
    nearly ``log r / (1 - beta)`` as ``beta`` nears 1: with ``beta =
    0.9999999999``, grad on ``example2`` was still searching after 20 s.
    Use ``beta <= 0.9``.
    """

    method: str = "newton"
    tol: float = None
    pt_eps: float = 1e-6
    alpha: float = 0.2
    beta: float = 0.1
    max_iters: int = None

    def __post_init__(self):
        if self.method not in _METHODS:
            raise ProblemFormatError(
                f"field 'solver.method': expected one of {_METHODS}, "
                f"got {self.method!r}"
            )
        # Open bounds: NaN and infinities fail the comparison.
        for name, kind, low, high, expected in (
                ("tol", numbers.Real, -np.inf, np.inf, "a finite number"),
                ("pt_eps", numbers.Real, 0.0, np.inf, "a number > 0"),
                ("alpha", numbers.Real, 0.0, 0.5, "a number in (0, 0.5)"),
                ("beta", numbers.Real, 0.0, 1.0, "a number in (0, 1)"),
                ("max_iters", numbers.Integral, -1, np.inf,
                 "an integer >= 0")):
            value = getattr(self, name)
            if value is None and name in ("tol", "max_iters"):
                continue
            if isinstance(value, bool) or not isinstance(value, kind) \
                    or not low < value < high:
                raise ProblemFormatError(
                    f"field 'solver.{name}': expected {expected}, "
                    f"got {value!r}"
                )

    def resolved_tol(self):
        return _DEFAULT_TOL[self.method] if self.tol is None else self.tol

    def resolved_max_iters(self):
        if self.max_iters is None:
            return _DEFAULT_MAX_ITERS[self.method]
        return self.max_iters


@dataclass(frozen=True)
class Problem:
    """A complete solvable instance: plant, cost, constraints, start.
    A field that does not fit the plant raises :class:`ProblemFormatError`
    with the field's name in a problem file, such as ``'K0'``."""

    plant: Plant
    costspec: CostSpec
    constraints: ConstraintSet
    gain0: np.ndarray
    params: SolverParams = field(default_factory=SolverParams)
    name: str = None

    def __post_init__(self):
        try:
            _check_shapes(self.plant, self.costspec, self.constraints,
                          self.gain0)
        except ValueError as exc:
            raise ProblemFormatError(str(exc)) from exc

    def with_params(self, **overrides):
        """Copy of the problem with solver parameters replaced."""
        overrides = {k: v for k, v in overrides.items() if v is not None}
        return replace(self, params=replace(self.params, **overrides))


def _matrix_field(data, key, prefix=""):
    if key not in data:
        raise ProblemFormatError(f"field '{prefix}{key}': missing")
    try:
        return _as_matrix(data[key], key)
    except (TypeError, ValueError) as exc:
        raise ProblemFormatError(f"field '{prefix}{key}': {exc}") from exc


def _list_field(data, key, prefix=""):
    value = data.get(key, [])
    if not isinstance(value, list):
        raise ProblemFormatError(
            f"field '{prefix}{key}': expected a list, got {value!r}")
    return value


def problem_from_dict(data):
    """Build a :class:`Problem` from parsed JSON, parsing field by field
    so errors name the offending entry; the model types check values."""
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must be a JSON object")
    name = data.get("name")
    if "name" in data and not isinstance(name, str):
        raise ProblemFormatError(
            f"field 'name': expected a string, got {name!r}")
    A, B, C = (_matrix_field(data, key) for key in "ABC")
    try:
        plant = Plant(A=A, B=B, C=C)
    except ValueError as exc:
        raise ProblemFormatError(f"plant: {exc}") from exc

    Q, R = (_matrix_field(data, key) for key in "QR")
    X0 = _matrix_field(data, "X0") if "X0" in data else np.eye(plant.nstates)
    try:
        costspec = CostSpec(Q=Q, R=R, X0=X0)
    except ValueError as exc:
        raise ProblemFormatError(f"cost: {exc}") from exc
    K0 = _matrix_field(data, "K0")

    constraints = []
    for k, entry in enumerate(_list_field(data, "constraints")):
        if not isinstance(entry, dict) or not {"terms", "rhs"} <= set(entry):
            raise ProblemFormatError(
                f"field 'constraints[{k}]': expected an object with "
                f"'terms' and 'rhs'"
            )
        terms = []
        for t, term in enumerate(_list_field(entry, "terms",
                                             f"constraints[{k}].")):
            where = f"constraints[{k}].terms[{t}]"
            if not isinstance(term, dict):
                raise ProblemFormatError(
                    f"field '{where}': expected an object with 'left' and "
                    f"'right'"
                )
            terms.append(ConstraintTerm(
                left=_matrix_field(term, "left", prefix=f"{where}."),
                right=_matrix_field(term, "right", prefix=f"{where}.")))
        rhs = _matrix_field(entry, "rhs", prefix=f"constraints[{k}].")
        try:
            constraints.append(Constraint(terms=tuple(terms), rhs=rhs))
        except ValueError as exc:
            raise ProblemFormatError(
                f"field 'constraints[{k}]': {exc}") from exc

    solver = data.get("solver", {})
    if not isinstance(solver, dict):
        raise ProblemFormatError("field 'solver': expected an object")
    known = [f.name for f in fields(SolverParams)]
    for key in solver:
        if key not in known:
            raise ProblemFormatError(
                f"field 'solver.{key}': unknown solver parameter; expected "
                f"one of {', '.join(known)}"
            )

    return Problem(
        plant=plant, costspec=costspec,
        constraints=ConstraintSet(constraints=constraints),
        gain0=K0, params=SolverParams(**solver), name=name,
    )


def problem_to_dict(problem):
    """Serialize a :class:`Problem` to a JSON-compatible dict."""
    data = {}
    if problem.name is not None:
        data["name"] = problem.name
    data["A"] = problem.plant.A.tolist()
    data["B"] = problem.plant.B.tolist()
    data["C"] = problem.plant.C.tolist()
    data["Q"] = problem.costspec.Q.tolist()
    data["R"] = problem.costspec.R.tolist()
    data["X0"] = problem.costspec.X0.tolist()
    data["K0"] = np.asarray(problem.gain0, dtype=float).tolist()
    if len(problem.constraints):
        data["constraints"] = [
            {
                "terms": [
                    {"left": t.left.tolist(), "right": t.right.tolist()}
                    for t in con.terms
                ],
                "rhs": con.rhs.tolist(),
            }
            for con in problem.constraints.constraints
        ]
    # Unset (None) fields are left out, so they keep the method default.
    data["solver"] = {key: value
                      for key, value in asdict(problem.params).items()
                      if value is not None}
    return data


def load_problem(path):
    """Parse a JSON problem file.

    A file that cannot be read or decoded as UTF-8 JSON raises
    :class:`ProblemFormatError`.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: "
            f"{exc.msg}"
        ) from exc
    except UnicodeDecodeError as exc:
        raise ProblemFormatError(
            f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})"
        ) from exc
    except OSError as exc:
        raise ProblemFormatError(
            f"{path}: cannot read: {exc.strerror or exc}") from exc
    return problem_from_dict(data)


def save_problem(problem, path):
    """Write a problem file; floats are emitted at full precision."""
    with open(path, "w") as fh:
        json.dump(problem_to_dict(problem), fh, indent=2)
        fh.write("\n")


def _example1():
    # Fourth-order aircraft longitudinal model with three measured
    # outputs; unconstrained 2x3 gain starting from zero.
    plant = Plant(
        A=np.array([
            [-0.037, 0.0123, 0.00055, -1.0],
            [0.0, 0.0, 1.0, 0.0],
            [-6.37, 0.0, -0.23, 0.0618],
            [1.25, 0.0, 0.016, -0.0457],
        ]),
        B=np.array([
            [0.00084, 0.000236],
            [0.0, 0.0],
            [0.08, 0.804],
            [-0.0862, -0.0665],
        ]),
        C=np.array([
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0],
            [0.0, 0.0, 0.0, 1.0],
        ]),
    )
    return Problem(
        plant=plant,
        costspec=CostSpec(Q=np.eye(4), R=np.eye(2), X0=np.eye(4)),
        constraints=ConstraintSet(),
        gain0=np.zeros((2, 3)),
        params=SolverParams(pt_eps=1e-9),
        name="example1",
    )


def _example2():
    # Third-order plant with a decentralized 2x2 gain: each input may
    # use only its own measured output, pinning both off-diagonal gain
    # entries to zero through one matrix equality apiece.
    plant = Plant(
        A=np.array([
            [-4.0, 2.0, 1.0],
            [3.0, -2.0, 5.0],
            [-7.0, 0.0, 3.0],
        ]),
        B=np.array([
            [1.0, 0.0],
            [1.0, 0.0],
            [0.0, 1.0],
        ]),
        C=np.array([
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        ]),
    )
    constraints = ConstraintSet(constraints=[
        Constraint(
            terms=(ConstraintTerm(left=np.array([[1.0, 0.0]]),
                                  right=np.array([[0.0], [1.0]])),),
            rhs=np.array([[0.0]]),
        ),
        Constraint(
            terms=(ConstraintTerm(left=np.array([[0.0, 1.0]]),
                                  right=np.array([[1.0], [0.0]])),),
            rhs=np.array([[0.0]]),
        ),
    ])
    return Problem(
        plant=plant,
        costspec=CostSpec(Q=np.eye(3), R=np.eye(2), X0=np.eye(3)),
        constraints=constraints,
        gain0=np.diag([-2.0, -3.0]),
        name="example2",
    )


_BUILTINS = {"example1": _example1, "example2": _example2}
BUILTIN_NAMES = tuple(_BUILTINS)


def builtin_problem(name):
    """Return one of the bundled benchmark problems by name."""
    if name not in _BUILTINS:
        raise ValueError(
            f"unknown built-in problem {name!r}; available: "
            f"{', '.join(BUILTIN_NAMES)}"
        )
    return _BUILTINS[name]()
