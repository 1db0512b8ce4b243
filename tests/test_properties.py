"""Property tests of the Hessian and the curvature along a direction, of
the exact cost difference, of constraint flattening and of constrained
solves over random plants and weights.

Plants have n in [1, 6] states and m, q in [1, 3] inputs and outputs.
For the Hessian, R is a random positive definite matrix, Q a
rank-deficient positive semidefinite one, X0 of rank at least one and
singular for n > 1, and the gain small and stabilizing.  Constrained
solves use positive definite weights, random pins or general rows
``L K R = c`` with a nonzero right-hand side, and a feasible stabilizing
start.  The reduced Hessian is also checked on the benchmark's seeded
plant family, with n in [2, 8] and random zero pins (see
``conftest.drawn_member``).  Elsewhere matrix entries are drawn on a
grid of eighths, which keeps the Lyapunov solves well conditioned while
still reaching zero rows, repeated eigenvalues and defective state
matrices.  Flattening draws
Gaussian rows with exactly or nearly dependent rows appended, and its
direct LAPACK calls are compared bit for bit with the ``scipy.linalg``
code they replaced.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import soflqr.first_order
import soflqr.linesearch
from soflqr import (
    Constraint,
    ConstraintSet,
    ConstraintTerm,
    CostSpec,
    InfeasibleConstraintsError,
    Plant,
    builtin_problem,
    check_feasible,
    closed_loop,
    curvature,
    effective_weight,
    evaluate,
    evaluate_step,
    first_order_solve,
    flatten_constraints,
    gradient,
    hessian,
    is_stabilizing,
    newton_solve,
    newton_step,
    pt_matrix,
    spectral_abscissa,
    unvec,
    vec,
)
from soflqr.second_order import eigen_hessian, schur_hessian
from soflqr.verify import error_report, fd_hessian, kron_hessian, kron_lyapunov

from conftest import drawn_member, recorded_iterates

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
    P, G = gp.evaluation.P, gp.gramian
    B, C = plant.B, plant.C
    return norm(G, 2) * norm(C, 2) ** 2 * (
        norm(costspec.R, 2)
        + norm(B, 2) ** 2 * norm(P, 2) / abs(gp.evaluation.solver.abscissa))


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hessian_problems())
def test_hessian_symmetric_and_matches_oracles(problem):
    plant, costspec, K = problem
    gp = gradient(plant, costspec, K)
    H = hessian(plant, costspec, K, gp)
    assert np.array_equal(H, H.T)
    # Errors are relative to the largest entry.  A Hessian below 1e-5 of
    # its terms' size has cancelled to rounding level, and is judged
    # against that floor instead.
    scale = max(np.abs(H).max(), 1e-5 * _term_scale(plant, costspec, gp))
    reference = kron_hessian(plant, costspec, K)
    assert error_report(reference, H).max_abs_error <= 1e-9 * scale
    # The draws take the eigenbasis path; the Schur loop is held to the
    # same oracle.
    loop = error_report(reference, schur_hessian(plant, costspec, gp))
    assert loop.max_abs_error <= 1e-9 * scale
    fd = error_report(fd_hessian(plant, costspec, K, h=1e-4), H)
    assert fd.max_abs_error <= 1e-4 * scale


@settings(max_examples=80, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hessian_problems(), st.data())
def test_curvature_is_hessian_quadratic_form(problem, data):
    # The line search's one-solve curvature along delta equals the
    # quadratic form of the assembled Hessian and of the Kronecker oracle.
    plant, costspec, K = problem
    delta = _matrix(data.draw, *K.shape)
    gp = gradient(plant, costspec, K)
    kappa = curvature(plant, costspec, gp, delta)
    d = vec(delta)
    H = hessian(plant, costspec, K, gp)
    # As in the Hessian test, relative to the largest entry or the
    # rounding floor of the terms, times the size of delta.
    scale = max(np.abs(H).max(),
                1e-5 * _term_scale(plant, costspec, gp)) * (d @ d)
    assert abs(kappa - d @ H @ d) <= 1e-9 * scale
    reference = kron_hessian(plant, costspec, K)
    assert abs(kappa - d @ reference @ d) <= 1e-9 * scale


def _pinned(pins, K):
    # One constraint per entry of the boolean mask pins, holding it at K's.
    m, q = pins.shape
    constraints = []
    for i, j in zip(*np.nonzero(pins)):
        left, right = np.zeros((1, m)), np.zeros((q, 1))
        left[0, i] = right[j, 0] = 1.0
        constraints.append(Constraint(terms=(ConstraintTerm(left, right),),
                                      rhs=[[K[i, j]]]))
    return ConstraintSet(constraints=constraints)


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(st.integers(0, 2 ** 20))
def test_reduced_hessian_on_drawn_pins(member):
    # Benchmark-family plants with random zero pins, at K0 = 0: the two
    # Hessian paths agree on Z^T H Z, and the curvature along Z theta is
    # its quadratic form.  Both carry the input-weight term.
    plant, costspec, pins = drawn_member(member)
    K = np.zeros(pins.shape)
    Z = _pinned(pins, K).null_basis(K.shape)
    assume(Z.shape[1] > 0)
    gp = gradient(plant, costspec, K)
    H = hessian(plant, costspec, K, gp, Z)
    scale = np.abs(H).max()
    eigen = eigen_hessian(plant, costspec, gp, Z)
    if eigen is not None:
        loop = schur_hessian(plant, costspec, gp, Z)
        assert np.abs(loop - eigen).max() <= 1e-12 * scale
    theta = np.random.default_rng([member, 3]).standard_normal(Z.shape[1])
    kappa = curvature(plant, costspec, gp, unvec(Z @ theta, *K.shape))
    assert abs(kappa - theta @ H @ theta) <= 1e-12 * scale * (theta @ theta)


def _kron_cost(plant, costspec, K):
    P = kron_lyapunov(closed_loop(plant, K),
                      effective_weight(costspec, plant, K))
    return float(np.trace(P @ costspec.X0))


@settings(max_examples=60, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(hessian_problems(), st.data())
def test_exact_cost_difference(problem, data):
    plant, costspec, K = problem
    delta = _matrix(data.draw, *K.shape)
    assume(np.any(delta != 0.0))
    current = evaluate(plant, costspec, K)
    J = current.cost
    # A step large enough that the two costs differ well above rounding:
    # dJ agrees with the difference of two independent Kronecker costs.
    t = 0.5
    assume(spectral_abscissa(closed_loop(plant, K + t * delta)) < -0.1)
    trial, dJ = evaluate_step(plant, costspec, current, K + t * delta)
    J_new = _kron_cost(plant, costspec, K + t * delta)
    assert trial.cost == J + dJ
    assert abs(dJ - (J_new - _kron_cost(plant, costspec, K))) <= 1e-10 * max(
        1.0, abs(J), abs(J_new))
    # A step so small that J(K + t delta) - J(K) would be rounding noise:
    # dJ / t still tends to the slope <g, delta>, with the second-order
    # term t delta^T H delta / 2 as the only error.
    gp = gradient(plant, costspec, current)
    slope = float(np.sum(gp.grad * delta))
    curvature = float(vec(delta) @ kron_hessian(plant, costspec, K)
                      @ vec(delta))
    t = 1e-9
    _, dJ = evaluate_step(plant, costspec, current, K + t * delta)
    assert abs(dJ / t - slope) <= t * abs(curvature) + 1e-7 * (
        abs(slope) + abs(curvature))


@st.composite
def constrained_problems(draw, pinned=st.booleans()):
    """Plant, positive definite weights, a feasible stabilizing start and
    equality constraints it satisfies: random pins, or general rows
    ``L K R = L K0 R``, with a nonzero right-hand side; ``pinned`` draws
    which."""
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, 3))
    q = draw(st.integers(1, 3))
    A = _matrix(draw, n, n)
    A -= (spectral_abscissa(A) + 0.5) * np.eye(n)
    plant = Plant(A=A, B=_matrix(draw, n, m), C=_matrix(draw, q, n))
    FQ, FR = _matrix(draw, n, n), _matrix(draw, m, m)
    costspec = CostSpec(Q=FQ @ FQ.T + 0.1 * np.eye(n),
                        R=FR @ FR.T + 0.1 * np.eye(m), X0=np.eye(n))
    K0 = 0.1 * _matrix(draw, m, q)
    assume(spectral_abscissa(closed_loop(plant, K0)) < -0.1)
    if draw(pinned):
        cs = _pinned(draw(arrays(np.bool_, (m, q))), K0)
    else:
        constraints = []
        for _ in range(draw(st.integers(1, 2))):
            term = ConstraintTerm(_matrix(draw, draw(st.integers(1, m)), m),
                                  _matrix(draw, q, 1))
            constraints.append(Constraint(
                terms=(term,), rhs=term.left @ K0 @ term.right))
        cs = ConstraintSet(constraints=constraints)
    assume(np.any(cs.flattened((m, q))[1] != 0.0))
    return plant, costspec, cs, K0


def _scipy_flattened(cs, gain_shape):
    # flatten_constraints as it was written on scipy.linalg, the reference
    # its direct LAPACK calls must match bit for bit; None where that
    # raised InfeasibleConstraintsError.  Rows are divided by their norms
    # before the factorization, as there.
    from scipy.linalg import qr, solve_triangular
    m, q = gain_shape
    Abar = np.vstack([np.zeros((0, m * q))] + [
        sum(np.kron(t.right.T, t.left) for t in con.terms)
        for con in cs.constraints])
    cbar = np.concatenate([np.zeros(0)]
                          + [vec(con.rhs) for con in cs.constraints])
    norms = np.hypot.reduce(Abar, axis=1)
    norms[norms == 0.0] = 1.0
    Abar, cbar = Abar / norms[:, None], cbar / norms
    Qf, r, pivots = qr(Abar.T, pivoting=True)
    diag = np.abs(np.diag(r))
    rank = int(np.sum(diag > 1e-10 * diag.max(initial=0.0)))
    y = solve_triangular(r[:rank, :rank], cbar[pivots[:rank]], trans="T")
    misfit = float(np.linalg.norm(Abar @ (Qf[:, :rank] @ y) - cbar))
    if misfit > 1e-8 * max(1.0, np.linalg.norm(cbar)):
        return None
    keep = np.sort(pivots[:rank])
    return Abar[keep], cbar[keep], Qf[:, rank:]


def _assert_flattened_as_scipy(cs, gain_shape):
    expected = _scipy_flattened(cs, gain_shape)
    if expected is None:
        with pytest.raises(InfeasibleConstraintsError):
            flatten_constraints(cs, gain_shape)
        return
    for got, want in zip(flatten_constraints(cs, gain_shape), expected):
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


def _check_descent(plant, costspec, cs, result, iterates):
    assert all(check_feasible(cs, K) and is_stabilizing(plant, K)
               for K in iterates)
    costs = result.trace.costs
    assert all(a > b for a, b in zip(costs, costs[1:]))


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(constrained_problems())
def test_constrained_newton_step_and_solves(problem):
    plant, costspec, cs, K0 = problem
    _assert_flattened_as_scipy(cs, K0.shape)
    Abar, _, _ = cs.flattened(K0.shape)
    Z = cs.null_basis(K0.shape)

    def reduced_model(K):
        gp = gradient(plant, costspec, K)
        return gp, pt_matrix(hessian(plant, costspec, K, gp, Z), 1e-6)

    gp, Heps = reduced_model(K0)
    d, g = vec(newton_step(Heps, gp.grad, Z)), vec(gp.grad)
    # The step lies in null(Abar) and is stationary for the reduced model.
    assert np.abs(Abar @ d).max(initial=0.0) <= 1e-12 * max(
        1.0, np.linalg.norm(Abar, 2) * np.linalg.norm(d))
    np.testing.assert_allclose(
        Heps.matrix @ (Z.T @ d) + Z.T @ g, 0.0,
        atol=1e-12 * max(1.0, np.linalg.norm(Z.T @ g)))

    with recorded_iterates() as iterates:
        newton = newton_solve(plant, costspec, cs, K0, tol=1e-9)
    _check_descent(plant, costspec, cs, newton, iterates)
    # Gradient descent needs about cond(Z^T H Z) iterations per digit at
    # the optimum; badly conditioned draws stop at the Newton checks.
    curvature = np.linalg.eigvalsh(reduced_model(newton.K)[1].matrix)
    if curvature.size and curvature[-1] > 100.0 * curvature[0]:
        return
    with recorded_iterates() as iterates:
        grad = first_order_solve(plant, costspec, cs, K0, tol=1e-6)
    _check_descent(plant, costspec, cs, grad, iterates)
    assert newton.cost == pytest.approx(grad.cost, rel=1e-9)


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(constrained_problems(pinned=st.just(False)), st.data())
def test_row_scales_move_no_solve(problem, data):
    # Each general row L_i K R = c_i multiplied by its own 10^k,
    # k in [-12, 12], is the same constraint: the same null-space
    # projector and the same Newton solve.
    plant, costspec, cs, K0 = problem
    scaled = []
    for con in cs.constraints:
        (term,) = con.terms
        s = 10.0 ** np.array(data.draw(st.lists(
            st.integers(-12, 12), min_size=term.left.shape[0],
            max_size=term.left.shape[0])))[:, None]
        scaled.append(Constraint(
            terms=(ConstraintTerm(s * term.left, term.right),),
            rhs=s * con.rhs))
    scaled = ConstraintSet(constraints=scaled)
    Z, Zs = cs.null_basis(K0.shape), scaled.null_basis(K0.shape)
    assert Zs.shape == Z.shape
    np.testing.assert_allclose(Zs @ Zs.T, Z @ Z.T, rtol=0.0, atol=1e-12)
    expected = newton_solve(plant, costspec, cs, K0, tol=1e-9)
    result = newton_solve(plant, costspec, scaled, K0, tol=1e-9)
    assert result.stop_reason == expected.stop_reason
    assert result.cost == pytest.approx(expected.cost, rel=1e-12)
    np.testing.assert_allclose(result.K, expected.K, rtol=0.0, atol=1e-9)


def _newton_trials(monkeypatch, plant, costspec, cs, K0, alpha):
    """Newton solve at ``alpha``; its result and, per line search, the
    gain ``K + delta`` of a unit step and the gains of the trials."""
    searches = []
    line_search = soflqr.first_order.line_search
    evaluate_step = soflqr.linesearch.evaluate_step

    def recording_search(plant, costspec, current, delta, *args, **kwargs):
        searches.append([current.K + delta])
        return line_search(plant, costspec, current, delta, *args, **kwargs)

    def recording_step(plant, costspec, current, K):
        searches[-1].append(K)
        return evaluate_step(plant, costspec, current, K)

    monkeypatch.setattr(soflqr.first_order, "line_search", recording_search)
    monkeypatch.setattr(soflqr.linesearch, "evaluate_step", recording_step)
    result = newton_solve(plant, costspec, cs, K0, alpha=alpha)
    monkeypatch.undo()
    return result, searches


def _assert_newton_starts_at_unit_step(monkeypatch, plant, costspec, cs,
                                       K0):
    # PT only raises eigenvalues, so Newton's curvature is at most -s,
    # below the model's Armijo bound 2 (1 - alpha) |s| for every alpha
    # in (0, 0.5): every search's first trial is t = 1.
    for alpha in (0.01, 0.2, 0.49):
        result, searches = _newton_trials(monkeypatch, plant, costspec, cs,
                                          K0, alpha)
        # A stalled search is one more than the accepted steps; one
        # refused as not descent tries nothing.
        assert len(searches) == result.iterations + (
            result.stop_reason in ("line_search_floor", "not_descent"))
        for unit, *trials in searches:
            assert trials or result.stop_reason == "not_descent"
            if trials:
                np.testing.assert_array_equal(trials[0], unit)


@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow,
                                 HealthCheck.filter_too_much])
@given(constrained_problems())
def test_newton_search_starts_at_unit_step(problem):
    with pytest.MonkeyPatch.context() as monkeypatch:
        _assert_newton_starts_at_unit_step(monkeypatch, *problem)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_newton_search_starts_at_unit_step_on_examples(name, monkeypatch):
    prob = builtin_problem(name)
    _assert_newton_starts_at_unit_step(monkeypatch, prob.plant,
                                       prob.costspec, prob.constraints,
                                       prob.gain0)


def _row_constraints(rows, rhs, m, q):
    # Row a of vec(K) as one term e_i^T K a_i^T per gain row i, with
    # a_i the row i of unvec(a); the flattened row is a exactly.
    constraints = []
    for a, c in zip(rows, rhs):
        A = unvec(a, m, q)
        terms = tuple(ConstraintTerm(np.eye(m)[i:i + 1], A[i:i + 1].T)
                      for i in range(m))
        constraints.append(Constraint(terms=terms, rhs=[[c]]))
    return ConstraintSet(constraints=constraints)


@st.composite
def dependent_systems(draw):
    # A full-row-rank block of `rank` rows, then rows that are random
    # combinations of it, with right-hand sides from the same
    # combinations; for `near`, the combinations' coefficients are
    # perturbed by 1e-12 relative.
    m, q = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    rank = draw(st.integers(1, m * q))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    block = rng.standard_normal((rank, m * q))
    assume(np.linalg.cond(block) < 1e4)
    weights = rng.standard_normal((draw(st.integers(1, 3)), rank))
    dependent = weights @ block
    if draw(st.booleans()):
        dependent *= 1.0 + 1e-12 * rng.standard_normal(dependent.shape)
    c = rng.standard_normal(rank)
    return (m, q, rank, np.vstack([block, dependent]),
            np.concatenate([c, weights @ c]))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(dependent_systems())
def test_flattening_keeps_rank_rows_and_rejects_disagreement(system):
    m, q, rank, rows, rhs = system
    Abar, cbar, Z = _row_constraints(rows, rhs, m, q).flattened((m, q))
    assert Abar.shape == (rank, m * q) and cbar.shape == (rank,)
    assert Z.shape == (m * q, m * q - rank)
    np.testing.assert_allclose(Z.T @ Z, np.eye(m * q - rank), atol=1e-14)
    np.testing.assert_allclose(Abar @ Z, 0.0,
                               atol=1e-12 * np.abs(Abar).max())
    # A dependent row whose right-hand side disagrees is an error.
    shifted = rhs.copy()
    shifted[-1] += 1e-6 * (1.0 + np.linalg.norm(rhs))
    with pytest.raises(InfeasibleConstraintsError):
        _row_constraints(rows, shifted, m, q).flattened((m, q))
    for c in (rhs, shifted):
        _assert_flattened_as_scipy(_row_constraints(rows, c, m, q), (m, q))


# Above about 128 rows, LAPACK's blocked QR runs only with the queried
# workspace, and its result differs in the last bits.
BLOCKED = np.random.default_rng(0).standard_normal((140, 144))


@pytest.mark.parametrize("rows, rhs, m, q", [
    (np.zeros((0, 6)), np.zeros(0), 2, 3),
    (np.arange(10.0).reshape(5, 2) - 4.5, np.arange(5.0) - 2.0, 1, 2),
    (np.zeros((2, 4)), np.zeros(2), 2, 2),
    (BLOCKED, BLOCKED @ np.linspace(-1.0, 1.0, 144), 12, 12),
], ids=["empty", "wide", "rank-0", "blocked"])
def test_flattening_edge_cases_match_scipy(rows, rhs, m, q):
    _assert_flattened_as_scipy(_row_constraints(rows, rhs, m, q), (m, q))
