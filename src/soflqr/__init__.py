"""Structured static output feedback LQR synthesis.

Computes linear-equality-constrained static output feedback gains that
minimize the infinite-horizon LQR cost of an LTI plant.  The main solver
is an equality-constrained Newton method whose Hessian is assembled
exactly from auxiliary Lyapunov solves and regularized by positive
definite eigenvalue truncation; a projected-gradient first-order solver
is included as the convergence baseline.  Independent verification
oracles (finite differences, dense Kronecker solves, Riccati iteration,
quadrature) live in :mod:`soflqr.verify`.
"""

from .first_order import (
    GradientPair,
    first_order_solve,
    gradient,
    project_gradient,
)
from .linesearch import LineSearchStalled, NotDescentError, line_search
from .lyapunov import (
    LyapunovSolution,
    NotHurwitzError,
    SchurSolver,
    kron,
    solve_lyapunov_adjoint,
    solve_lyapunov_primal,
    spectral_abscissa,
    unvec,
    vec,
)
from .problem import (
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    Evaluation,
    InfeasibleConstraintsError,
    InfiniteCostError,
    Plant,
    SolveResult,
    SolveTrace,
    TraceRecord,
    check_feasible,
    closed_loop,
    cost,
    effective_weight,
    evaluate,
    evaluate_step,
    flatten_constraints,
    is_stabilizing,
    weights_from_performance_output,
)
from .problems import (
    BUILTIN_NAMES,
    Problem,
    ProblemFormatError,
    SolverParams,
    builtin_problem,
    load_problem,
    save_problem,
)
from .second_order import (
    NewtonStep,
    PTMatrix,
    hessian,
    newton_solve,
    newton_step,
    pt_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "BUILTIN_NAMES",
    "Constraint",
    "ConstraintSet",
    "ConstraintTerm",
    "CostSpec",
    "Evaluation",
    "GradientPair",
    "InfeasibleConstraintsError",
    "InfiniteCostError",
    "LineSearchStalled",
    "LyapunovSolution",
    "NewtonStep",
    "NotDescentError",
    "NotHurwitzError",
    "PTMatrix",
    "Plant",
    "Problem",
    "ProblemFormatError",
    "SchurSolver",
    "SolveResult",
    "SolveTrace",
    "SolverParams",
    "TraceRecord",
    "builtin_problem",
    "check_feasible",
    "closed_loop",
    "cost",
    "effective_weight",
    "evaluate",
    "evaluate_step",
    "first_order_solve",
    "flatten_constraints",
    "gradient",
    "hessian",
    "is_stabilizing",
    "kron",
    "line_search",
    "load_problem",
    "newton_solve",
    "newton_step",
    "project_gradient",
    "pt_matrix",
    "save_problem",
    "solve_lyapunov_adjoint",
    "solve_lyapunov_primal",
    "spectral_abscissa",
    "unvec",
    "vec",
    "weights_from_performance_output",
]
