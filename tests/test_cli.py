"""End-to-end tests of the command-line interface."""

import csv
import dataclasses
import json
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from soflqr import (
    NotHurwitzError,
    Plant,
    ProblemFormatError,
    SchurSolver,
    SolverParams,
    builtin_problem,
    first_order_solve,
    is_stabilizing,
    load_problem,
    newton_solve,
    save_problem,
    spectral_abscissa,
)
import soflqr
import soflqr.cli
from soflqr.cli import main
from soflqr.lyapunov import HURWITZ_MARGIN

from conftest import (
    overflow_problem,
    rescaled_states,
    scaled_row_constraint,
    time_scaled,
    unit_scaled,
)


@pytest.fixture(autouse=True)
def run_in_tmp(tmp_path, monkeypatch):
    """Keep default output files inside the test directory."""
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_problem(path, **overrides):
    """Example-2 problem file with optional field overrides."""
    data = {
        "A": [[-4.0, 2.0, 1.0], [3.0, -2.0, 5.0], [-7.0, 0.0, 3.0]],
        "B": [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0]],
        "C": [[0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "Q": [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]],
        "R": [[1.0, 0.0], [0.0, 1.0]],
        "K0": [[-2.0, 0.0], [0.0, -3.0]],
        "constraints": [
            {"terms": [{"left": [[1.0, 0.0]], "right": [[0.0], [1.0]]}],
             "rhs": [[0.0]]},
            {"terms": [{"left": [[0.0, 1.0]], "right": [[1.0], [0.0]]}],
             "rhs": [[0.0]]},
        ],
        "solver": {"method": "newton", "tol": 1e-9, "pt_eps": 1e-6},
    }
    data.update(overrides)
    path.write_text(json.dumps(data))
    return path


class TestExamples:
    def test_round_trip_is_bit_identical(self, tmp_path):
        out = tmp_path / "ex1.json"
        assert main(["examples", "example1", "--out", str(out)]) == 0
        problem = load_problem(out)
        reference = load_problem(out)
        assert np.array_equal(problem.plant.A, reference.plant.A)
        # Written file must reproduce the in-memory matrices exactly.
        built = builtin_problem("example1")
        assert np.array_equal(problem.plant.A, built.plant.A)
        assert np.array_equal(problem.plant.B, built.plant.B)
        assert np.array_equal(problem.plant.C, built.plant.C)
        assert np.array_equal(problem.gain0, built.gain0)

    def test_aircraft_matrix_entries(self, tmp_path):
        out = tmp_path / "ex1.json"
        main(["examples", "example1", "--out", str(out)])
        data = json.loads(out.read_text())
        assert data["A"][3][0] == 1.25
        assert data["B"][3][0] == -0.0862

    def test_decentralized_flattens_to_pin_rows(self, tmp_path):
        out = tmp_path / "ex2.json"
        main(["examples", "example2", "--out", str(out)])
        problem = load_problem(out)
        Abar, cbar, _ = problem.constraints.flattened((2, 2))
        np.testing.assert_array_equal(
            Abar, [[0.0, 0.0, 1.0, 0.0], [0.0, 1.0, 0.0, 0.0]])
        np.testing.assert_array_equal(cbar, [0.0, 0.0])

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_method_defaults_left_unset(self, tmp_path, name):
        out = tmp_path / "ex.json"
        assert main(["examples", name, "--out", str(out)]) == 0
        solver = json.loads(out.read_text())["solver"]
        assert "tol" not in solver and "max_iters" not in solver

    def test_unknown_name_fails(self, capsys):
        assert main(["examples", "example3"]) == 3
        assert "unknown built-in" in capsys.readouterr().err


class TestSolve:
    def test_newton_on_decentralized(self, tmp_path):
        out = tmp_path / "r.json"
        trace = tmp_path / "t.csv"
        code = main(["solve", "example2", "--method", "newton",
                     "--out", str(out), "--trace", str(trace)])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["converged"] is True
        assert result["iterations"] <= 15
        assert result["cost"] == pytest.approx(12.8281, abs=1e-3)
        K = np.array(result["K"])
        assert K[0, 0] == pytest.approx(-1.3211, abs=1e-3)
        assert K[1, 1] == pytest.approx(-6.0723, abs=1e-3)
        assert abs(K[0, 1]) <= 1e-9 and abs(K[1, 0]) <= 1e-9

    def test_first_order_on_decentralized(self, tmp_path):
        out = tmp_path / "r.json"
        code = main(["solve", "example2", "--method", "grad",
                     "--tol", "1e-9", "--out", str(out),
                     "--trace", str(tmp_path / "t.csv")])
        # The run ends converged where no step can lower J by a
        # representable amount, short of the 1e-9 tolerance.
        assert code == 0
        result = json.loads(out.read_text())
        assert result["stop_reason"] == "cost_resolution"
        K = np.array(result["K"])
        assert K[0, 0] == pytest.approx(-1.3211, abs=1e-3)
        assert K[1, 1] == pytest.approx(-6.0723, abs=1e-3)
        assert 60 <= result["iterations"] <= 300

    @pytest.mark.parametrize("name", ["example1", "example2"])
    def test_grad_on_builtin_runs_at_grad_tolerance(self, tmp_path, name):
        # The built-ins set no tol, so --method grad takes grad's default
        # instead of Newton's 1e-9, at which both runs stall.
        out = tmp_path / "r.json"
        code = main(["solve", name, "--method", "grad", "--out", str(out),
                     "--trace", str(tmp_path / "t.csv")])
        assert code == 0
        result = json.loads(out.read_text())
        assert result["tol"] == 1e-5
        assert result["status"] == "converged"

    def test_beta_near_one_takes_model_steps(self, tmp_path):
        # Every search of this run accepts its first trial, the quadratic
        # model's minimizer, so beta = 1 - 1e-10 gives the run of
        # beta = 0.1: one trial per step.  A search that walked the
        # powers of beta would take about 1e10 trials per factor of ten;
        # a fresh interpreter with a timeout fails on that instead of
        # hanging the suite.
        root = str(Path(soflqr.__file__).resolve().parent.parent)
        out = tmp_path / "r.json"
        probe = (
            "import sys\n"
            f"sys.path.insert(0, {root!r})\n"
            "from soflqr.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, "solve", "example2", "--method",
             "grad", "--beta", "0.9999999999", "--out", str(out),
             "--trace", str(tmp_path / "t.csv")],
            capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(out.read_text())
        assert result["beta"] == 0.9999999999
        assert result["status"] == "converged"
        assert (result["iterations"], result["line_search_evals"]) == (71, 71)
        prob = builtin_problem("example2")
        reference = first_order_solve(prob.plant, prob.costspec,
                                      prob.constraints, prob.gain0, beta=0.1)
        assert np.array(result["K"]).tobytes() == reference.K.tobytes()
        assert result["cost"] == reference.cost

    @pytest.mark.parametrize("method", ["newton", "grad"])
    def test_cli_and_library_defaults_agree(self, tmp_path, method):
        path = write_problem(tmp_path / "p.json", solver={"method": method})
        out = tmp_path / "r.json"
        main(["solve", str(path), "--out", str(out),
              "--trace", str(tmp_path / "t.csv")])
        result = json.loads(out.read_text())
        problem = load_problem(path)
        solve = {"newton": newton_solve, "grad": first_order_solve}[method]
        reference = solve(problem.plant, problem.costspec,
                          problem.constraints, problem.gain0)
        assert reference.status == "converged"
        assert np.array(result["K"]).tobytes() == reference.K.tobytes()
        assert result["cost"] == reference.cost
        assert result["iterations"] == reference.iterations
        assert result["line_search_evals"] == reference.line_search_evals

    def test_trace_file_format(self, tmp_path):
        trace = tmp_path / "t.csv"
        main(["solve", "example2", "--out", str(tmp_path / "r.json"),
              "--trace", str(trace)])
        with open(trace) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["iter", "J", "grad_norm", "step_norm",
                           "step_size_t", "spectral_abscissa",
                           "cumulative_seconds"]
        costs = [float(r[1]) for r in rows[1:]]
        assert costs[0] == pytest.approx(22.2010, abs=1e-3)
        assert all(a > b for a, b in zip(costs, costs[1:]))
        assert all(float(r[5]) < 0.0 for r in rows[1:])

    def test_deterministic_result_files(self, tmp_path):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        for out in (out1, out2):
            main(["solve", "example2", "--out", str(out),
                  "--trace", str(tmp_path / "t.csv")])
        assert out1.read_text() == out2.read_text()

    def test_unstable_initial_gain(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json",
                             K0=[[0.0, 0.0], [0.0, 0.0]])
        assert main(["solve", str(path)]) == 4
        assert "stabiliz" in capsys.readouterr().err

    def test_infeasible_initial_gain(self, tmp_path, capsys):
        path = write_problem(tmp_path / "p.json",
                             K0=[[-2.0, 0.1], [0.0, -3.0]])
        assert main(["solve", str(path)]) == 4
        assert "constraints" in capsys.readouterr().err

    def test_scaled_pin_still_pins(self, tmp_path):
        # example2 with its K[0, 1] pin written 1e12 times over: the unit
        # pin on K[1, 0] must hold as well.
        path = write_problem(tmp_path / "p.json", constraints=[
            {"terms": [{"left": [[1e12, 0.0]], "right": [[0.0], [1.0]]}],
             "rhs": [[0.0]]},
            {"terms": [{"left": [[0.0, 1.0]], "right": [[1.0], [0.0]]}],
             "rhs": [[0.0]]}])
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["status"] == "converged"
        assert result["cost"] == pytest.approx(12.82812808, abs=5e-9)
        assert result["K"][0][1] == 0.0 and result["K"][1][0] == 0.0

    def test_malformed_json(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text('{"A": [[1, 2')
        assert main(["solve", str(path)]) == 3
        assert "line" in capsys.readouterr().err

    def test_missing_field_names_it(self, tmp_path, capsys):
        path = tmp_path / "p.json"
        path.write_text(json.dumps({"A": [[-1.0]], "B": [[1.0]]}))
        assert main(["solve", str(path)]) == 3
        assert "'C'" in capsys.readouterr().err

    def test_unknown_problem_name(self, capsys):
        assert main(["solve", "nosuch"]) == 3

    # Each case and what its error message must name.
    UNREADABLE = {
        "constraints=7": "'constraints'",
        "terms=5": "'constraints[0].terms'",
        "terms=[5]": "'constraints[0].terms[0]'",
        "terms=null": "'constraints[0].terms'",
        "terms=[]": "'constraints[0]'",
        "directory": "p.json",
        "latin-1": "p.json",
        "name=[1]": "'name'",
        "name=5": "'name'",
        "array": "JSON object",
        "method=bfgs": "'solver.method'",
        "solver=[1]": "'solver'",
        "Q=text": "'Q'",
        "K0=vector": "'K0'",
        "B=2x2": "plant: B",
        "R=0": "cost: R",
        "Q=3x2": "cost: Q",
        "Q,X0=2x2": "'Q'",
        "X0=2x2": "X0",
        "R=3x3": "'R'",
        "K0=2x3": "'K0'",
        "no rhs": "'constraints[0]'",
        "left=1x3": "'constraints[0].terms[0].left'",
        "right=3x1": "'constraints[0].terms[0].right'",
        "rhs=1x2": "'constraints[0]'",
    }

    # Example-2 files with one field of the wrong type or shape: n = 3
    # states, a 2x2 gain, one pin per constraint.
    EYE2 = [[1.0, 0.0], [0.0, 1.0]]
    EYE3 = [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
    PIN = {"left": [[1.0, 0.0]], "right": [[0.0], [1.0]]}
    MALFORMED = {
        "method=bfgs": {"solver": {"method": "bfgs"}},
        "solver=[1]": {"solver": [1]},
        "Q=text": {"Q": [["a"]]},
        "K0=vector": {"K0": [-2.0, -3.0]},
        "B=2x2": {"B": EYE2},
        "R=0": {"R": [[0.0, 0.0], [0.0, 0.0]]},
        "Q=3x2": {"Q": [[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]]},
        "Q,X0=2x2": {"Q": EYE2, "X0": EYE2},
        "X0=2x2": {"X0": EYE2},
        "R=3x3": {"R": EYE3},
        "K0=2x3": {"K0": [[-2.0, 0.0, 0.0], [0.0, -3.0, 0.0]]},
        "no rhs": {"constraints": [{"terms": [PIN]}]},
        "left=1x3": {"constraints": [{
            "terms": [{"left": [[1.0, 0.0, 0.0]], "right": PIN["right"]}],
            "rhs": [[0.0]]}]},
        "right=3x1": {"constraints": [{
            "terms": [{"left": PIN["left"], "right": [[0.0], [1.0], [0.0]]}],
            "rhs": [[0.0]]}]},
        "rhs=1x2": {"constraints": [{"terms": [PIN], "rhs": [[0.0, 0.0]]}]},
    }

    @pytest.mark.parametrize("case", UNREADABLE)
    def test_unreadable_or_malformed_file(self, tmp_path, capsys, case):
        path = tmp_path / "p.json"
        if case in self.MALFORMED:
            write_problem(path, **self.MALFORMED[case])
        elif case == "constraints=7":
            write_problem(path, constraints=7)
        elif case.startswith("terms="):
            terms = json.loads(case[len("terms="):])
            write_problem(path, constraints=[{"terms": terms,
                                              "rhs": [[0.0]]}])
        elif case.startswith("name="):
            write_problem(path, name=json.loads(case[len("name="):]))
        elif case == "directory":
            path.mkdir()
        elif case == "array":
            path.write_text("[1, 2]")
        else:
            path.write_bytes('{"name": "caf\xe9"}'.encode("latin-1"))
        assert main(["solve", str(path)]) == 3
        assert self.UNREADABLE[case] in capsys.readouterr().err

    def test_file_overrides_respected(self, tmp_path):
        # max_iters = 1 cannot converge from the benchmark start.
        path = write_problem(tmp_path / "p.json")
        out = tmp_path / "r.json"
        code = main(["solve", str(path), "--max-iters", "1",
                     "--out", str(out), "--trace", str(tmp_path / "t.csv")])
        assert code == 2
        result = json.loads(out.read_text())
        assert result["status"] == result["stop_reason"] == "max_iters"

    def test_numerical_failure_exit_code(self, monkeypatch, capsys):
        def explode(*args, **kwargs):
            raise np.linalg.LinAlgError("factorization failed")

        monkeypatch.setattr(soflqr.cli, "newton_solve", explode)
        assert main(["solve", "example2"]) == 5
        assert "numerical failure" in capsys.readouterr().err

    def test_not_hurwitz_is_not_a_numerical_failure(self, monkeypatch,
                                                     capsys):
        # Exit 5 means LinAlgError only.  The solvers turn a
        # non-stabilizing K0 into BadStartError and reject destabilizing
        # trials, so a NotHurwitzError reaching main is a programming
        # error: it propagates instead of being reported as exit 5.
        def unstable(*args, **kwargs):
            raise NotHurwitzError(1.0)

        monkeypatch.setattr(soflqr.cli, "newton_solve", unstable)
        with pytest.raises(NotHurwitzError):
            main(["solve", "example2"])
        assert "numerical failure" not in capsys.readouterr().err

    def test_start_is_factored_once(self, tmp_path, monkeypatch):
        # The start check and the solve share one evaluation of K0.
        count = 0
        init = SchurSolver.__init__

        def counting_init(self, Ac):
            nonlocal count
            count += 1
            init(self, Ac)

        monkeypatch.setattr(SchurSolver, "__init__", counting_init)
        path = write_problem(tmp_path / "p.json")
        assert main(["solve", str(path), "--max-iters", "0",
                     "--out", str(tmp_path / "r.json"),
                     "--trace", str(tmp_path / "t.csv")]) == 2
        assert count == 1

    @pytest.mark.parametrize("argv", [
        ["solve", "example2", "--out"],
        ["solve", "example2", "--trace"],
        ["examples", "example2", "--out"],
    ], ids=["solve-out", "solve-trace", "examples-out"])
    @pytest.mark.parametrize("target", ["missing-parent", "directory",
                                        "read-only"])
    def test_unwritable_output_path(self, tmp_path, monkeypatch, capsys,
                                    argv, target):
        def never(*args, **kwargs):
            raise AssertionError("solved despite an unwritable path")

        monkeypatch.setattr(soflqr.cli, "newton_solve", never)
        path = tmp_path / "out.json"
        if target == "missing-parent":
            path = tmp_path / "nodir" / "out.json"
        elif target == "directory":
            path = tmp_path
        else:
            # Permission bits do not bind a superuser; deny by fiat.
            monkeypatch.setattr(soflqr.cli.os, "access", lambda *args: False)
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, str(path)])
        assert excinfo.value.code == 3
        assert str(path) in capsys.readouterr().err


def scaled_row_problem():
    return dataclasses.replace(builtin_problem("example1"),
                               constraints=scaled_row_constraint(1e9))


# Problem files that once ended in a traceback (exit 1) or in a false
# "converged", with the exit codes of newton and grad.
ADVERSARIAL = {
    "overflow1": (lambda: overflow_problem(1), 5, 2),
    "overflow2": (lambda: overflow_problem(2), 5, 2),
    "overflow3": (lambda: overflow_problem(3), 5, 5),
    "scaled-row": (scaled_row_problem, 0, 0),
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", ["newton", "grad"])
@pytest.mark.parametrize("name", ADVERSARIAL)
def test_adversarial_file_exits_with_a_documented_code(tmp_path, name,
                                                       method):
    build, *codes = ADVERSARIAL[name]
    path = tmp_path / f"{name}.json"
    save_problem(build(), path)
    code = main(["solve", str(path), "--method", method])
    assert code in (0, 2, 4, 5)
    assert code == codes[method == "grad"]


@pytest.mark.parametrize("which", ["gradient", "hessian"])
@pytest.mark.parametrize("case", [1, 2])
def test_overflow_checks_exit_near_margin(tmp_path, capsys, case, which):
    # With B = [1e160; 0] the margin in gain space lies 1e-160 from
    # K0 = 0: every +h shift down to the floor is not Hurwitz (abscissa
    # 1e152 to 1e155), so exit 4 is the near-margin verdict, reached
    # before the analytic derivative, whose Hessian would overflow.
    path = tmp_path / f"overflow{case}.json"
    save_problem(overflow_problem(case), path)
    assert main([f"check-{which}", str(path)]) == 4
    err = capsys.readouterr().err
    assert "stability margin" in err
    assert "RuntimeWarning" not in err


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_uncertified_grad_exits_not_converged(tmp_path, name):
    # Time-scaled by 1e9, grad meets tol where its model still predicts
    # a relative decrease above 1e-5, which is not convergence.
    prob = builtin_problem(name)
    path = tmp_path / f"{name}.json"
    save_problem(dataclasses.replace(
        prob, plant=time_scaled(prob.plant, 1e9)), path)
    out = tmp_path / "r.json"
    assert main(["solve", str(path), "--method", "grad",
                 "--out", str(out)]) == 2
    result = json.loads(out.read_text())
    assert (result["status"], result["stop_reason"]) == (
        "stalled", "uncertified")
    assert result["converged"] is False


@pytest.mark.parametrize("name, unit, c", [
    ("example1", "input", 1e9), ("example1", "output", 1e-9),
    ("example2", "input", 1e9), ("example2", "output", 1e-9)])
def test_uncertified_newton_exits_not_converged(tmp_path, name, unit, c):
    # In these units Newton's step meets tol far from the optimum, where
    # the step's curvature still predicts a relative decrease above 1e-5.
    prob, _ = unit_scaled(builtin_problem(name), unit, c)
    path = tmp_path / f"{name}.json"
    save_problem(prob, path)
    out = tmp_path / "r.json"
    assert main(["solve", str(path), "--method", "newton",
                 "--out", str(out)]) == 2
    result = json.loads(out.read_text())
    assert (result["status"], result["stop_reason"]) == (
        "stalled", "uncertified")


@pytest.mark.parametrize("pt_eps", ["1e10", "1e100", "1e150", "1e200",
                                    "1e300"])
def test_huge_pt_floor_exits_not_converged(tmp_path, pt_eps):
    # The PT floor shrinks Newton's step on example2 to about 2/pt_eps,
    # far from the optimum (J = 22.20 against 12.83).  At 1e200 and 1e300
    # the squares of the step underflow: its norm, s^2 and kappa read 0,
    # which met tol and certified the exit.
    out = tmp_path / "r.json"
    assert main(["solve", "example2", "--pt-eps", pt_eps,
                 "--out", str(out)]) == 2
    result = json.loads(out.read_text())
    assert result["converged"] is False
    assert result["cost"] > 22.2


@pytest.mark.parametrize("flags", [
    ["--out", "x", "--trace", "x"],
    ["--out", "p.json"],
    ["--trace", "./p.json"],
], ids=["out-trace", "out-problem", "trace-problem"])
def test_colliding_paths_are_refused(tmp_path, monkeypatch, capsys, flags):
    def never(*args, **kwargs):
        raise AssertionError("solved despite colliding paths")

    monkeypatch.setattr(soflqr.cli, "newton_solve", never)
    problem = tmp_path / "p.json"
    save_problem(builtin_problem("example2"), problem)
    (tmp_path / "x").write_text("kept\n")
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    assert main(["solve", "p.json", *flags]) == 3
    err = capsys.readouterr().err
    named = [f for f in flags if f.startswith("--")]
    assert all(flag in err for flag in named)
    assert ("PROBLEM" in err) == (len(named) == 1)
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


class TestSolverFields:
    @pytest.mark.parametrize("flag, value, field", [
        ("--alpha", "0.7", "alpha"),
        ("--alpha", "0", "alpha"),
        ("--beta", "2", "beta"),
        ("--beta", "1", "beta"),
        ("--pt-eps", "0", "pt_eps"),
        ("--pt-eps", "-1e-6", "pt_eps"),
        ("--tol", "nan", "tol"),
        ("--max-iters", "-1", "max_iters"),
    ])
    def test_out_of_range_flag_is_a_parse_error(self, flag, value, field,
                                                capsys):
        assert main(["solve", "example1", f"{flag}={value}"]) == 3
        assert f"solver.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("solver, field", [
        ({"alpha": "0.1"}, "alpha"),
        ({"beta": None}, "beta"),
        ({"pt_eps": float("inf")}, "pt_eps"),
        ({"tol": [1e-9]}, "tol"),
        ({"max_iters": 2.5}, "max_iters"),
        ({"max_iters": True}, "max_iters"),
        # A misspelt key is an error, not a silently ignored setting.
        ({"method": "grad", "max_iter": 3}, "max_iter"),
    ])
    def test_bad_solver_field_in_file(self, tmp_path, capsys, solver, field):
        path = write_problem(tmp_path / "p.json", solver=solver)
        assert main(["solve", str(path)]) == 3
        assert f"solver.{field}" in capsys.readouterr().err

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_non_finite_matrix_entry(self, tmp_path, capsys, value):
        path = write_problem(tmp_path / "p.json",
                             K0=[[value, 0.0], [0.0, -3.0]])
        assert main(["solve", str(path)]) == 3
        assert "'K0'" in capsys.readouterr().err

    def test_range_ends_and_defaults_accepted(self):
        params = SolverParams(method="grad", tol=0, pt_eps=1e-300,
                              alpha=0.4999, beta=1e-9, max_iters=0)
        assert params.resolved_max_iters() == 0
        assert SolverParams().resolved_tol() == 1e-9
        with pytest.raises(ProblemFormatError, match="solver.alpha"):
            SolverParams(alpha=0.5)


def near_margin_problem(tmp_path, seed):
    """Single-input problem whose open loop sits at ``HURWITZ_MARGIN`` by
    ``eigvals``, with rows scaled over five decades.  Rounding puts the
    Schur diagonal on either side of the margin, depending on the seed.
    """
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 7))
    M = rng.standard_normal((n, n)) * 10.0 ** rng.uniform(-2, 3, size=(n, 1))
    A = M - (spectral_abscissa(M) - HURWITZ_MARGIN) * np.eye(n)
    e1 = np.eye(n)[:, :1]
    path = tmp_path / f"margin{seed}.json"
    path.write_text(json.dumps({
        "A": A.tolist(), "B": e1.tolist(), "C": e1.T.tolist(),
        "Q": np.eye(n).tolist(), "R": [[1.0]], "K0": [[0.0]],
    }))
    return path, A


@pytest.mark.parametrize("seed", range(8))
def test_start_check_uses_the_solvers_hurwitz_test(tmp_path, capsys, seed):
    # Seed 0 reads stable by eigvals and unstable by the Schur diagonal.
    path, A = near_margin_problem(tmp_path, seed)
    try:
        SchurSolver(A)
        rejected = False
    except NotHurwitzError:
        rejected = True
    e1 = np.eye(A.shape[0])[:, :1]
    assert is_stabilizing(Plant(A=A, B=e1, C=e1.T), [[0.0]]) != rejected
    code = main(["solve", str(path)])
    err = capsys.readouterr().err
    assert (code == 4) == rejected, (code, err)
    if rejected:
        assert "stabiliz" in err
    # A start gain within the finite-difference step of the margin is a
    # bad start for the checks, not a numerical failure.
    for command in ("check-gradient", "check-hessian"):
        code = main([command, str(path)])
        err = capsys.readouterr().err
        assert code != 5, (command, err)
        if rejected:
            assert code == 4 and "stabiliz" in err
        elif code == 4:
            assert "finite-difference step of the stability margin" in err


def corrupt(monkeypatch, which, scale):
    """Negative control: the CLI's analytic gradient or Hessian, with
    entry (0, 0) moved by ``scale`` times its largest magnitude (at
    least 1), so that the corruption shows at any scale."""
    def moved(value):
        value = np.array(value, dtype=float)
        value[0, 0] += scale * max(1.0, np.abs(value).max())
        return value

    original = getattr(soflqr.cli, which)
    if which == "gradient":
        def patched(*args):
            gp = original(*args)
            return dataclasses.replace(gp, grad=moved(gp.grad))
    else:
        def patched(*args):
            return moved(original(*args))
    monkeypatch.setattr(soflqr.cli, which, patched)


class TestChecks:
    def test_gradient_check_passes(self, capsys):
        assert main(["check-gradient", "example1"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_hessian_check_passes(self, capsys):
        assert main(["check-hessian", "example2"]) == 0
        assert "OK" in capsys.readouterr().out

    def test_perturbed_gradient_detected(self, monkeypatch, capsys):
        # Negative control: a corrupted analytic gradient must fail.
        corrupt(monkeypatch, "gradient", 1.0)
        assert main(["check-gradient", "example1"]) == 1
        assert "FAIL" in capsys.readouterr().err

    def test_perturbed_hessian_detected(self, monkeypatch):
        corrupt(monkeypatch, "hessian", 5.0)
        assert main(["check-hessian", "example2"]) == 1

    @pytest.mark.parametrize("which", ["gradient", "hessian"])
    def test_nan_derivative_fails(self, monkeypatch, capsys, which):
        # A NaN error compares false against the threshold; it must
        # still fail the check.
        corrupt(monkeypatch, which, np.nan)
        assert main([f"check-{which}", "example2"]) == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.err and "OK" not in captured.out

    @pytest.mark.parametrize("command", ["solve", "check-gradient",
                                         "check-hessian"])
    def test_inconsistent_constraints(self, tmp_path, capsys, command):
        pin = {"terms": [{"left": [[1.0, 0.0]], "right": [[0.0], [1.0]]}],
               "rhs": [[0.0]]}
        path = write_problem(tmp_path / "p.json",
                             constraints=[pin, {**pin, "rhs": [[1.0]]}])
        assert main([command, str(path)]) == 4
        assert "inconsistent" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["solve", "check-gradient",
                                         "check-hessian"])
    def test_scaled_inconsistent_constraints(self, tmp_path, capsys,
                                             command):
        # K[0, 1] = 0 and K[0, 1] = 1, each written 1e-9 times over.
        pin = {"terms": [{"left": [[1e-9, 0.0]], "right": [[0.0], [1.0]]}],
               "rhs": [[0.0]]}
        path = write_problem(tmp_path / "p.json",
                             constraints=[pin, {**pin, "rhs": [[1e-9]]}])
        assert main([command, str(path)]) == 4
        assert "inconsistent" in capsys.readouterr().err

    @staticmethod
    def near_dependent_pins(tmp_path, rhs):
        # example1 with K[0, 0] = 0 and K[0, 0] + 1e-12 K[1, 0] = rhs; the
        # second row is dependent at the rank tolerance and is dropped.
        path = tmp_path / "p.json"
        main(["examples", "example1", "--out", str(path)])
        first = {"left": [[1.0, 0.0]], "right": [[1.0], [0.0], [0.0]]}
        tilt = {"left": [[0.0, 1e-12]], "right": [[1.0], [0.0], [0.0]]}
        data = json.loads(path.read_text())
        data["constraints"] = [{"terms": [first], "rhs": [[0.0]]},
                               {"terms": [first, tilt], "rhs": [[rhs]]}]
        path.write_text(json.dumps(data))
        return path

    @pytest.mark.parametrize("method", ["newton", "grad"])
    def test_dropped_row_must_agree(self, tmp_path, capsys, method):
        path = self.near_dependent_pins(tmp_path, 1e-3)
        assert main(["solve", str(path), "--method", method]) == 4
        assert "disagree" in capsys.readouterr().err

    @pytest.mark.parametrize("method", ["newton", "grad"])
    def test_agreeing_dropped_row_converges(self, tmp_path, method):
        path = self.near_dependent_pins(tmp_path, 0.0)
        out = tmp_path / "r.json"
        assert main(["solve", str(path), "--method", method,
                     "--out", str(out)]) == 0
        result = json.loads(out.read_text())
        assert result["status"] == "converged"
        assert result["K"][0][0] == 0.0

    @pytest.mark.parametrize("command", ["solve", "check-gradient"])
    @pytest.mark.parametrize("reverse", [False, True],
                             ids=["forward", "reversed"])
    @pytest.mark.parametrize("span", [1e6, 1e8])
    def test_ill_conditioned_start_is_numerical_failure(
            self, tmp_path, capsys, span, reverse, command):
        # trsyl perturbs the start's Lyapunov solve on rescaled example2;
        # the refusal says why, and is not a shared eigenvalue.
        prob = builtin_problem("example2")
        plant, costspec = rescaled_states(prob.plant, prob.costspec, span,
                                          reverse)
        path = tmp_path / "scaled.json"
        save_problem(dataclasses.replace(prob, plant=plant,
                                         costspec=costspec), path)
        assert main([command, str(path)]) == 5
        err = capsys.readouterr().err
        assert "ill-conditioned" in err
        assert "share an eigenvalue" not in err

    @pytest.mark.parametrize("which", ["gradient", "hessian"])
    def test_entry_index_is_printed_plain(self, capsys, which):
        assert main([f"check-{which}", "example2"]) == 0
        assert re.search(r"at entry \(\d+, \d+\)$",
                         capsys.readouterr().out, re.MULTILINE)

    def test_check_requires_stabilizing_gain(self, tmp_path):
        path = write_problem(tmp_path / "p.json",
                             K0=[[0.0, 0.0], [0.0, 0.0]])
        assert main(["check-gradient", str(path)]) == 4

    @pytest.mark.parametrize("command", ["check-gradient", "check-hessian"])
    @pytest.mark.parametrize("step", ["0", "-1e-4", "nan", "inf"])
    def test_step_must_be_finite_and_positive(self, capsys, command, step):
        # A usage error (exit 3), not a failed check (exit 1), and never
        # a silent fallback to the default step.
        with pytest.raises(SystemExit) as excinfo:
            main([command, "example2", f"--step={step}"])
        assert excinfo.value.code == 3
        assert "--step" in capsys.readouterr().err


class TestUsageErrors:
    def test_bad_method_value(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["solve", "example1", "--method", "quasinewton"])
        assert excinfo.value.code == 3

    def test_missing_command(self):
        with pytest.raises(SystemExit) as excinfo:
            main([])
        assert excinfo.value.code == 3
