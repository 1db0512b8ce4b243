"""Every LAPACK ``info`` the package reads, through ``soflqr._lapack.lapack``.

Each test makes one routine of the wrapper report a chosen ``info``
after running it, by patching the routine on ``soflqr._lapack.flapack``,
which ``lapack`` looks up at call time.  A negative ``info`` is an
illegal argument and raises ``ValueError`` naming the routine; what a
positive one means is said where the routine is called.
"""

import numpy as np
import pytest

from soflqr import (
    Plant,
    SchurSolver,
    builtin_problem,
    flatten_constraints,
    gradient,
    hessian,
)
from soflqr._lapack import flapack
from soflqr.second_order import schur_hessian

from conftest import identity_cost


def force_info(monkeypatch, name, info):
    """Make the wrapper's routine ``name`` run and then report ``info``.

    Returns the list that records one entry per call.
    """
    routine = getattr(flapack, name)
    calls = []

    def forced(*args, **kwargs):
        calls.append(name)
        return (*routine(*args, **kwargs)[:-1], info)

    monkeypatch.setattr(flapack, name, forced)
    return calls


def hessian_case(spectrum):
    """Plant, cost, gain and gradient whose Schur factor has a real
    (``"d"`` routines) or a complex (``"z"``) eigenbasis."""
    if spectrum == "d":
        A = np.array([[-1.0, 1.0, 0.0], [0.0, -2.0, 1.0], [0.0, 0.0, -3.0]])
        plant = Plant(A=A, B=[[0.0], [1.0], [1.0]], C=[[1.0, 0.0, 1.0]])
        costspec, K = identity_cost(3, 1), np.zeros((1, 1))
    else:
        prob = builtin_problem("example1")
        plant, costspec, K = prob.plant, prob.costspec, prob.gain0
    gp = gradient(plant, costspec, K)
    assert np.iscomplexobj(np.linalg.eig(gp.evaluation.solver.T)[1]) \
        == (spectrum == "z")
    return plant, costspec, K, gp


class TestSchurSolver:
    def test_gees_not_converged_is_linalg_error(self, monkeypatch):
        calls = force_info(monkeypatch, "dgees", 2)
        with pytest.raises(np.linalg.LinAlgError, match="Schur form not "
                           "found"):
            SchurSolver(-np.eye(2))
        assert calls == ["dgees"]

    def test_gees_illegal_argument_is_value_error(self, monkeypatch):
        force_info(monkeypatch, "dgees", -4)
        with pytest.raises(ValueError,
                           match="dgees: illegal value in argument 4") as exc:
            SchurSolver(-np.eye(2))
        assert type(exc.value) is ValueError


class TestEigenHessian:
    @pytest.mark.parametrize("spectrum", ["d", "z"])
    def test_singular_eigenbasis_falls_back(self, monkeypatch, spectrum):
        # getrf's info > 0, an exactly singular W, hands the Hessian to
        # the Schur loop.
        plant, costspec, K, gp = hessian_case(spectrum)
        calls = force_info(monkeypatch, spectrum + "getrf", 1)
        H = hessian(plant, costspec, K, gp)
        assert calls == [spectrum + "getrf"]
        np.testing.assert_array_equal(H, schur_hessian(plant, costspec, gp))

    @pytest.mark.parametrize("spectrum", ["d", "z"])
    @pytest.mark.parametrize("routine", ["getrf", "gecon", "getrs"])
    def test_illegal_argument_is_value_error(self, monkeypatch, routine,
                                             spectrum):
        plant, costspec, K, gp = hessian_case(spectrum)
        name = spectrum + routine
        calls = force_info(monkeypatch, name, -2)
        with pytest.raises(ValueError,
                           match=f"{name}: illegal value in argument 2"):
            hessian(plant, costspec, K, gp)
        assert calls == [name]


@pytest.mark.parametrize("routine", ["dgeqp3", "dorgqr", "dtrtrs"])
def test_flatten_illegal_argument_is_value_error(monkeypatch, routine):
    cs = builtin_problem("example2").constraints
    calls = force_info(monkeypatch, routine, -1)
    with pytest.raises(ValueError,
                       match=f"{routine}: illegal value in argument 1"):
        flatten_constraints(cs, (2, 2))
    assert calls
