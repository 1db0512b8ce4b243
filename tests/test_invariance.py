"""Invariance of the solvers under changes of coordinates and units.

A change of state coordinates leaves the optimal gain and cost where
they are, and a change of units moves them by known factors.  A solver
may fail to reach the optimum in bad units, but it must then say so: a
run that reports ``converged`` has the optimum of the units it ran in.
"""

import dataclasses
import functools

import numpy as np
import pytest

from soflqr import (
    BadStartError,
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    Plant,
    Problem,
    builtin_problem,
    first_order_solve,
    newton_solve,
)

from conftest import drawn_member, unit_scaled

NAMES = ["example1", "example2"]
SOLVERS = {"newton": newton_solve, "grad": first_order_solve}
# Capped so that grad's slow runs in bad units end in seconds.
SETTINGS = {"newton": {}, "grad": {"max_iters": 1000}}


def solve(prob, method):
    return SOLVERS[method](prob.plant, prob.costspec, prob.constraints,
                           prob.gain0, **SETTINGS[method])


@functools.lru_cache(maxsize=None)
def reference(name, method):
    result = solve(builtin_problem(name), method)
    assert result.converged
    return result


def state_change(kind, seed, n):
    """An orthogonal ``T``: a permutation, or the Q factor of a standard
    normal matrix, drawn from ``default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    if kind == "permutation":
        return np.eye(n)[rng.permutation(n)]
    T, _ = np.linalg.qr(rng.standard_normal((n, n)))
    return T


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("kind", ["permutation", "orthogonal"])
@pytest.mark.parametrize("method", sorted(SOLVERS))
@pytest.mark.parametrize("name", NAMES)
def test_state_coordinates_move_no_result(name, method, kind, seed):
    # x -> T x with T^-1 = T^T: A -> T A T^-1, B -> T B, C -> C T^-1,
    # Q -> T^-T Q T^-1 and X0 -> T X0 T^T, with K0 and the constraints
    # kept.  Iteration counts may differ by rounding, not by much.
    prob = builtin_problem(name)
    plant, costspec = prob.plant, prob.costspec
    T = state_change(kind, seed, plant.nstates)
    moved = Problem(
        plant=Plant(A=T @ plant.A @ T.T, B=T @ plant.B, C=plant.C @ T.T),
        costspec=CostSpec(Q=T @ costspec.Q @ T.T, R=costspec.R,
                          X0=T @ costspec.X0 @ T.T),
        constraints=prob.constraints, gain0=prob.gain0)
    expected = reference(name, method)
    result = solve(moved, method)
    assert result.stop_reason == expected.stop_reason
    assert result.cost == pytest.approx(expected.cost, rel=1e-12)
    np.testing.assert_allclose(result.K, expected.K, rtol=0.0, atol=1e-9)
    assert abs(result.iterations - expected.iterations) \
        <= 0.1 * expected.iterations


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9])
@pytest.mark.parametrize("unit", ["time", "input", "output", "cost"])
@pytest.mark.parametrize("method", sorted(SOLVERS))
@pytest.mark.parametrize("name", NAMES)
def test_converged_means_optimal_in_any_units(name, method, unit, c):
    # A run may stall, hit its cap or refuse its start in bad units
    # (example1 at time 1e-9 is a bad start); it may not report
    # convergence away from the optimum.
    prob, factor = unit_scaled(builtin_problem(name), unit, c)
    try:
        result = solve(prob, method)
    except (BadStartError, np.linalg.LinAlgError):
        assert c != 1.0
        return
    assert result.converged or c != 1.0
    if result.converged:
        J_star = factor * reference(name, "newton").cost
        assert result.cost == pytest.approx(J_star, rel=1e-6)


def row_scaled(prob, row, c):
    """``prob`` with the constraint ``row`` multiplied by ``c`` through
    the left factor and the right-hand side."""
    constraints = list(prob.constraints.constraints)
    con = constraints[row]
    constraints[row] = Constraint(
        terms=tuple(ConstraintTerm(c * t.left, t.right) for t in con.terms),
        rhs=c * con.rhs)
    return dataclasses.replace(prob, constraints=ConstraintSet(constraints))


@pytest.mark.parametrize("c", [1e-12, 1e-9, 1e-6, 1e-3, 1e3, 1e6, 1e9, 1e12])
@pytest.mark.parametrize("row", [0, 1])
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_constraint_row_scale_moves_no_result(method, row, c):
    # example2 pins K[0, 1] and K[1, 0]; a pin written c times over pins
    # the same entry, so the solve is the unscaled one.
    result = solve(row_scaled(builtin_problem("example2"), row, c), method)
    expected = reference("example2", method)
    assert result.stop_reason == expected.stop_reason
    assert result.cost == pytest.approx(expected.cost, rel=1e-12)
    np.testing.assert_allclose(result.K, expected.K, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("method", sorted(SOLVERS))
@pytest.mark.parametrize("name", NAMES)
def test_input_and_output_order_moves_no_result(name, method, seed):
    # u = P u' and y' = S y with permutations P and S: B -> B P,
    # R -> P^T R P, C -> S C, K -> P^T K S^T, and each term L K R of a
    # constraint becomes (L P) K' (S R), so that P K' S is the gain.
    prob = builtin_problem(name)
    plant, costspec = prob.plant, prob.costspec
    rng = np.random.default_rng(seed)
    P = np.eye(plant.ninputs)[rng.permutation(plant.ninputs)]
    S = np.eye(plant.noutputs)[rng.permutation(plant.noutputs)]
    moved = Problem(
        plant=Plant(A=plant.A, B=plant.B @ P, C=S @ plant.C),
        costspec=CostSpec(Q=costspec.Q, R=P.T @ costspec.R @ P,
                          X0=costspec.X0),
        constraints=ConstraintSet([
            Constraint(terms=tuple(ConstraintTerm(t.left @ P, S @ t.right)
                                   for t in con.terms), rhs=con.rhs)
            for con in prob.constraints.constraints]),
        gain0=P.T @ prob.gain0 @ S.T)
    expected = reference(name, method)
    result = solve(moved, method)
    assert result.stop_reason == expected.stop_reason
    assert result.cost == pytest.approx(expected.cost, rel=1e-12)
    np.testing.assert_allclose(P @ result.K @ S, expected.K, rtol=0.0,
                               atol=1e-9)
    assert abs(result.iterations - expected.iterations) \
        <= 0.1 * expected.iterations


@pytest.mark.parametrize("member", range(40))
@pytest.mark.parametrize("method", sorted(SOLVERS))
def test_drawn_state_permutation_moves_no_result(method, member):
    # A -> Pi A Pi^T, B -> Pi B and C -> C Pi^T on drawn family plants,
    # with identity weights, K0 = 0 and no constraints: the same status,
    # and where Newton converges, the same gain and cost.
    plant, costspec, pins = drawn_member(member)
    n = plant.nstates
    Pi = np.eye(n)[np.random.default_rng([member, 2]).permutation(n)]
    permuted = Plant(A=Pi @ plant.A @ Pi.T, B=Pi @ plant.B,
                     C=plant.C @ Pi.T)
    # A grad run that reaches its cap must reach it on both plants.
    settings = {"max_iters": 3000} if method == "grad" else {}
    original, moved = (SOLVERS[method](p, costspec, ConstraintSet([]),
                                       np.zeros(pins.shape), **settings)
                       for p in (plant, permuted))
    assert moved.status == original.status
    if method == "newton" and original.converged:
        K = original.K
        np.testing.assert_allclose(moved.K, K, rtol=0.0,
                                   atol=1e-8 * max(1.0, np.abs(K).max()))
        assert moved.cost == pytest.approx(original.cost, rel=1e-12)


def singular_state_weight():
    """example1 with ``Q = C1^T C1`` of rank 2, ``C1 = [[1, 2, 3, 0.5],
    [0, 1, 0, 1]]``: in large cost units the rounding of ``eigvalsh``
    leaves its zero eigenvalues negative by about ``eps ||Q||``."""
    C1 = np.array([[1.0, 2.0, 3.0, 0.5], [0.0, 1.0, 0.0, 1.0]])
    prob = builtin_problem("example1")
    return dataclasses.replace(prob, costspec=CostSpec(
        Q=C1.T @ C1, R=prob.costspec.R, X0=prob.costspec.X0))


@pytest.mark.parametrize("c", [1e-9, 1e-6, 1e-3, 1.0, 1e3, 1e6, 1e9, 1e12])
def test_singular_state_weight_in_any_cost_unit(c):
    # Newton with example1's pt_eps converges to c J* at every c.
    prob, factor = unit_scaled(singular_state_weight(), "cost", c)
    result = newton_solve(prob.plant, prob.costspec, prob.constraints,
                          prob.gain0, pt_eps=prob.params.pt_eps)
    assert result.converged
    assert result.cost / factor == pytest.approx(187.020590033, rel=1e-11)
