"""Acceptance suite: one test per release criterion.

Each test prints a single pass/fail line (visible with ``pytest -s``)
and asserts the criterion at its required tolerance.  The two bundled
benchmarks are solved once per method in module-scoped fixtures and
shared across criteria.
"""

import numpy as np
import pytest

from soflqr import (
    ConstraintSet,
    Plant,
    SchurSolver,
    builtin_problem,
    evaluate,
    first_order_solve,
    gradient,
    hessian,
    newton_solve,
    pt_matrix,
)
from soflqr.verify import are_gain, error_report, fd_gradient, fd_hessian, \
    kron_hessian, kron_lyapunov

from conftest import family_member, identity_cost, recorded_iterates, \
    stable_plant, unobservable_psd_problem

K_STAR_AIRCRAFT = np.array([[0.3975, 1.5925, 7.8522],
                            [-1.2575, -3.4823, -5.0041]])
J_STAR_AIRCRAFT = 159.0686
K_STAR_DIAG = (-1.3211, -6.0723)
J_STAR_DECENTRALIZED = 12.8281
J_INITIAL_DECENTRALIZED = 22.2010
# e_{k+1} <= C_QUADRATIC e_k^2 over Newton's last three steps, for
# e = ||grad||.  The largest ratio measured is 1.50 (the PSD-Q instance);
# the bound leaves a factor 10.  A linear rate r gives r / e_k, which is
# above 1e4 once e_k is below 1e-4.
C_QUADRATIC = 15.0
# (e_end / e_{end-w})^(1/w) for w in GRAD_WINDOWS on the gradient
# baseline lies in 0.891-0.970 on the two bundled runs, and in
# 0.745-0.970 on every benchmark gradient solve.  RATE_BAND allows a
# contraction 1 - r three times weaker than the slowest measured, and a
# ratio a third below the fastest.
GRAD_WINDOWS = (10, 20, 50)
RATE_BAND = (0.5, 0.99)


def report(number, passed, detail):
    line = f"criterion {number:02d} {'PASS' if passed else 'FAIL'}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def aircraft():
    return builtin_problem("example1")


@pytest.fixture(scope="module")
def decentralized():
    return builtin_problem("example2")


def solve_recorded(solver, *args, **kwargs):
    """Run a solver; returns its result and the gain of every iterate."""
    with recorded_iterates() as iterates:
        return solver(*args, **kwargs), iterates


@pytest.fixture(scope="module")
def aircraft_newton(aircraft):
    return solve_recorded(newton_solve, aircraft.plant, aircraft.costspec,
                          aircraft.constraints, aircraft.gain0,
                          tol=1e-9, pt_eps=1e-9, alpha=0.2, beta=0.1)


@pytest.fixture(scope="module")
def aircraft_grad(aircraft):
    # The first-order baseline runs at the relaxed 1e-5 tolerance.
    return solve_recorded(first_order_solve, aircraft.plant,
                          aircraft.costspec, aircraft.constraints,
                          aircraft.gain0, tol=1e-5, alpha=0.2, beta=0.1,
                          max_iters=5000)


@pytest.fixture(scope="module")
def decentralized_newton(decentralized):
    return solve_recorded(newton_solve, decentralized.plant,
                          decentralized.costspec, decentralized.constraints,
                          decentralized.gain0, tol=1e-9, pt_eps=1e-6,
                          alpha=0.2, beta=0.1)


@pytest.fixture(scope="module")
def decentralized_grad(decentralized):
    return solve_recorded(first_order_solve, decentralized.plant,
                          decentralized.costspec, decentralized.constraints,
                          decentralized.gain0, tol=1e-9, alpha=0.2,
                          beta=0.1, max_iters=5000)


@pytest.fixture(scope="module")
def full_information_runs():
    """Ten random stabilizable instances solved by Newton with C = I."""
    rng = np.random.default_rng(2024)
    runs = []
    for _ in range(10):
        n, m = int(rng.integers(2, 5)), int(rng.integers(1, 3))
        plant = stable_plant(rng, n, m, n)
        plant = Plant(A=plant.A, B=plant.B, C=np.eye(n))
        costspec = identity_cost(n, m)
        runs.append((plant, costspec, solve_recorded(
            newton_solve, plant, costspec, ConstraintSet(),
            np.zeros((m, n)), tol=1e-9, pt_eps=1e-9)))
    return runs


@pytest.fixture(scope="module")
def newton_rate_runs(aircraft_newton, decentralized_newton):
    """Newton runs whose final steps show the local rate: both bundled
    problems, the PSD-Q instance and three n = 60 family members."""
    runs = {"aircraft": aircraft_newton[0],
            "decentralized": decentralized_newton[0]}
    plant, costspec = unobservable_psd_problem()
    runs["psd_q"] = newton_solve(plant, costspec, ConstraintSet(),
                                 np.zeros((1, 1)), tol=1e-9)
    for member in range(3):
        plant, costspec = family_member(member, 0.5, n=60, m=4, q=6)
        runs[f"rand60m{member}"] = newton_solve(
            plant, costspec, ConstraintSet(), np.zeros((4, 6)),
            tol=1e-9)
    return runs


def test_criterion_1_aircraft_newton(aircraft_newton):
    r, _ = aircraft_newton
    gain_err = np.abs(r.K - K_STAR_AIRCRAFT).max()
    cost_err = abs(r.cost - J_STAR_AIRCRAFT)
    ok = (r.converged and gain_err <= 2e-3 and cost_err <= 1e-2
          and r.iterations <= 40)
    report(1, ok,
           f"aircraft Newton: {r.iterations} iterations, "
           f"J={r.cost:.4f} (err {cost_err:.2e}), "
           f"max gain err {gain_err:.2e}")


def test_criterion_2_aircraft_first_order(aircraft_grad):
    r, _ = aircraft_grad
    gain_err = np.abs(r.K - K_STAR_AIRCRAFT).max()
    cost_err = abs(r.cost - J_STAR_AIRCRAFT)
    ok = (r.converged and gain_err <= 2e-3 and cost_err <= 1e-2
          and 300 <= r.iterations <= 1500)
    report(2, ok,
           f"aircraft first-order (tol 1e-5): {r.iterations} iterations, "
           f"J={r.cost:.4f} (err {cost_err:.2e}), "
           f"max gain err {gain_err:.2e}")


def test_criterion_3_decentralized_newton(decentralized_newton):
    r, iterates = decentralized_newton
    diag_err = max(abs(r.K[0, 0] - K_STAR_DIAG[0]),
                   abs(r.K[1, 1] - K_STAR_DIAG[1]))
    cost_err = abs(r.cost - J_STAR_DECENTRALIZED)
    initial_err = abs(r.trace.costs[0] - J_INITIAL_DECENTRALIZED)
    off_diag = max(max(abs(K[0, 1]), abs(K[1, 0])) for K in iterates)
    ok = (r.converged and diag_err <= 1e-3 and cost_err <= 1e-3
          and initial_err <= 1e-3 and r.iterations <= 15
          and off_diag <= 1e-9)
    report(3, ok,
           f"decentralized Newton: {r.iterations} iterations, "
           f"J={r.cost:.4f}, J0={r.trace.costs[0]:.4f}, "
           f"diag err {diag_err:.2e}, worst off-diagonal {off_diag:.1e}")


def test_criterion_4_decentralized_first_order(decentralized_grad):
    r, _ = decentralized_grad
    diag_err = max(abs(r.K[0, 0] - K_STAR_DIAG[0]),
                   abs(r.K[1, 1] - K_STAR_DIAG[1]))
    cost_err = abs(r.cost - J_STAR_DECENTRALIZED)
    ok = (r.converged and diag_err <= 1e-3 and cost_err <= 1e-3
          and 60 <= r.iterations <= 300)
    report(4, ok,
           f"decentralized first-order: {r.iterations} iterations "
           f"(status {r.status}), J={r.cost:.4f}, diag err {diag_err:.2e}")


def test_criterion_5_iteration_ratio(aircraft_newton, aircraft_grad,
                                     decentralized_newton,
                                     decentralized_grad):
    newton_1, grad_1, newton_2, grad_2 = (
        run[0].iterations for run in (aircraft_newton, aircraft_grad,
                                      decentralized_newton,
                                      decentralized_grad))
    ratio_1 = grad_1 / max(newton_1, 1)
    ratio_2 = grad_2 / max(newton_2, 1)
    ok = ratio_1 >= 4.0 and ratio_2 >= 4.0
    report(5, ok,
           f"Newton vs first-order iterations: "
           f"{newton_1} vs {grad_1} (x{ratio_1:.1f}), "
           f"{newton_2} vs {grad_2} (x{ratio_2:.1f})")


def test_criterion_6_gradient_oracle_suite():
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(25):
        n = int(rng.integers(2, 7))
        m = int(rng.integers(1, 4))
        q = int(rng.integers(1, 4))
        plant = stable_plant(rng, n, m, q)
        costspec = identity_cost(n, m)
        K = np.zeros((m, q))
        analytic = gradient(plant, costspec, K).grad
        fd = fd_gradient(plant, costspec, K, h=1e-5)
        worst = max(worst, error_report(fd, analytic).max_rel_error)
    report(6, worst <= 1e-5,
           f"analytic gradient vs finite differences on 25 instances: "
           f"worst rel error {worst:.2e} (tol 1e-05)")


def test_criterion_7_hessian_oracle_suite():
    rng = np.random.default_rng(1002)
    worst = 0.0
    worst_kron = 0.0
    for _ in range(10):
        n = int(rng.integers(2, 5))
        plant = stable_plant(rng, n, 2, 2)
        costspec = identity_cost(n, 2)
        K = np.zeros((2, 2))
        gp = gradient(plant, costspec, K)
        H = hessian(plant, costspec, K, gp)
        fd = fd_hessian(plant, costspec, K, h=1e-4)
        worst = max(worst, error_report(fd, H).max_rel_error)
        worst_kron = max(worst_kron, error_report(
            kron_hessian(plant, costspec, K), H).max_rel_error)
    report(7, worst <= 1e-4 and worst_kron <= 1e-9,
           f"Hessian vs differenced gradient on 10 instances: worst rel "
           f"error {worst:.2e} (tol 1e-04), worst rel error vs Kronecker "
           f"oracle {worst_kron:.2e} (tol 1e-09)")


def test_criterion_8_lyapunov_cross_check():
    rng = np.random.default_rng(1003)
    worst_rel = 0.0
    worst_residual_ratio = 0.0
    for _ in range(50):
        n = int(rng.integers(2, 6))
        A = stable_plant(rng, n, 1, 1).A
        Qc = rng.standard_normal((n, n))
        Qc = Qc + Qc.T
        X = SchurSolver(A).solve_primal(Qc)
        reference = kron_lyapunov(A, Qc)
        rel = (np.linalg.norm(X - reference, "fro")
               / np.linalg.norm(reference, "fro"))
        worst_rel = max(worst_rel, rel)
        bound = 1e-8 * max(1.0, np.linalg.norm(Qc, "fro"))
        residual = np.linalg.norm(A.T @ X + X @ A + Qc, "fro")
        worst_residual_ratio = max(worst_residual_ratio, residual / bound)
    report(8, worst_rel <= 1e-8 and worst_residual_ratio <= 1.0,
           f"Schur solver vs Kronecker oracle on 50 instances: worst rel "
           f"error {worst_rel:.2e} (tol 1e-08), worst residual at "
           f"{worst_residual_ratio:.2f} of bound")


def test_criterion_9_riccati_consistency(full_information_runs):
    worst = 0.0
    for plant, costspec, (result, _) in full_information_runs:
        reference = are_gain(plant, costspec)
        worst = max(worst, np.abs(result.K - reference).max())
    report(9, worst <= 1e-6,
           f"Newton vs Riccati oracle on 10 full-information instances: "
           f"worst gain error {worst:.2e} (tol 1e-06)")


def test_criterion_10_pt_matrix_property():
    rng = np.random.default_rng(1004)
    eps = 1e-6
    worst_floor = np.inf
    worst_commutator = 0.0
    for _ in range(10):
        size = int(rng.integers(3, 8))
        basis, _ = np.linalg.qr(rng.standard_normal((size, size)))
        # Mixed-sign spectrum with entries straddling the floor.
        eigs = rng.uniform(-2.0, 2.0, size)
        eigs[rng.integers(size)] = rng.uniform(-eps, eps)
        H = (basis * eigs) @ basis.T
        H = 0.5 * (H + H.T)
        result = pt_matrix(H, eps)
        worst_floor = min(worst_floor,
                          np.linalg.eigvalsh(result.matrix).min())
        commutator = H @ result.matrix - result.matrix @ H
        worst_commutator = max(worst_commutator,
                               np.linalg.norm(commutator, "fro"))
    ok = worst_floor >= eps - 1e-12 and worst_commutator <= 1e-8
    report(10, ok,
           f"PT truncation on 10 indefinite matrices: min eigenvalue "
           f"{worst_floor:.3e} (floor {eps:g}), worst commutator "
           f"{worst_commutator:.2e} (tol 1e-08)")


def test_criterion_11_descent_with_stability(aircraft_newton, aircraft_grad,
                                             decentralized_newton,
                                             decentralized_grad,
                                             full_information_runs,
                                             aircraft, decentralized):
    runs = [
        (aircraft.plant, aircraft.costspec, aircraft_newton),
        (aircraft.plant, aircraft.costspec, aircraft_grad),
        (decentralized.plant, decentralized.costspec, decentralized_newton),
        (decentralized.plant, decentralized.costspec, decentralized_grad),
    ] + list(full_information_runs)
    monotone = True
    stable = True
    certified = True
    for plant, costspec, (result, iterates) in runs:
        costs = result.trace.costs
        monotone &= all(a > b for a, b in zip(costs, costs[1:]))
        stable &= all(r.spectral_abscissa < 0.0
                      for r in result.trace.records)
        for K in iterates:
            P = evaluate(plant, costspec, K).P
            certified &= np.linalg.eigvalsh(P).min() > 0.0
    ok = monotone and stable and certified
    report(11, ok,
           f"{len(runs)} solver runs: strictly decreasing costs "
           f"({monotone}), Hurwitz at every iterate ({stable}), positive "
           f"definite certificate at every iterate ({certified})")


def test_criterion_12_newton_quadratic_rate(newton_rate_runs):
    worst = 0.0
    for name, result in newton_rate_runs.items():
        assert result.converged, name
        e = [r.grad_norm for r in result.trace.records]
        assert len(e) >= 4, name
        worst = max(worst, max(e[k + 1] / e[k] ** 2
                               for k in range(len(e) - 4, len(e) - 1)))
    report(12, worst <= C_QUADRATIC,
           f"{len(newton_rate_runs)} Newton runs: largest e_(k+1) / e_k^2 "
           f"over the last three steps {worst:.3g} (bound {C_QUADRATIC:g})")


def test_criterion_13_first_order_linear_rate(aircraft_grad,
                                              decentralized_grad):
    ratios = []
    # The decentralized run ends at the rounding floor of J short of its
    # 1e-9 tolerance; its last steps still show the rate.
    for result, _ in (aircraft_grad, decentralized_grad):
        e = [r.grad_norm for r in result.trace.records]
        ratios += [(e[-1] / e[-1 - w]) ** (1.0 / w)
                   for w in GRAD_WINDOWS if len(e) > w]
    low, high = RATE_BAND
    report(13, len(ratios) == 2 * len(GRAD_WINDOWS)
           and low <= min(ratios) and max(ratios) <= high,
           f"windowed gradient-norm ratios {min(ratios):.3f}-"
           f"{max(ratios):.3f} over w = {GRAD_WINDOWS} "
           f"(band {low:g}-{high:g})")
