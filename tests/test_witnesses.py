"""A failing theorem conclusion carries a witness.

For each driver one construction is broken, so that one conclusion fails.
The failing result must name a basis tuple with one label per tensor factor
of the failing identity's domain, each label from its own factor, and the
failing identity's label as its detail.  A sub-suite conclusion carries the
sub-suite's first failure instead.
"""

import pytest

import homhopf.galois as galois
import homhopf.integrals as integrals
import homhopf.modules as modules
from homhopf.catalog import entry
from homhopf.galois import (coinvariants, free_module, galois_psi_ambient,
                            prop51_check, thm56_check, thm57_check)
from homhopf.integrals import (find_quantum_integral, theorem43_check,
                               thm48_check)
from homhopf.linalg import tensor_space
from homhopf.modules import prop31_check, regular_induced
from homhopf.records import replace


def _doubled(fn):
    """fn with its map doubled."""
    def doubled(*args):
        f = fn(*args)
        return f + f
    return doubled


def _assert_witnessed(rep, name, domain, detail=None):
    result = next(r for r in rep.results if r.name == name)
    assert result.status == "fail", rep.pretty()
    assert result.witness is not None, rep.pretty()
    factors = domain.factors
    assert len(result.witness.basis) == len(factors)
    assert all(label in sp.labels
               for label, sp in zip(result.witness.basis, factors))
    assert result.detail == detail


@pytest.fixture(params=["kC2", "sweedler-H4"])
def CA(request):
    return entry(request.param).comodule_algebra


def test_prop31_witness(monkeypatch, CA):
    monkeypatch.setattr(modules, "prop31_u", _doubled(modules.prop31_u))
    _assert_witnessed(prop31_check(CA), "u . v = id",
                      regular_induced(CA).space)


def test_theorem43_witness(monkeypatch, CA):
    monkeypatch.setattr(integrals, "lambda_M", _doubled(integrals.lambda_M))
    GA = regular_induced(CA)
    _assert_witnessed(theorem43_check(CA, [GA]),
                      f"lambda_M splits test module 0 (dim {GA.dim})",
                      GA.space, "lambda_M . rho_M = id")


def test_theorem48_witness(monkeypatch, CA):
    real = integrals.generator_epi

    def doubled_f(*args):
        f, g = real(*args)
        return f + f, g
    monkeypatch.setattr(integrals, "generator_epi", doubled_f)
    GA = regular_induced(CA)
    _assert_witnessed(thm48_check(CA, [GA]), "f . g = id (module 0)",
                      GA.space)


def test_theorem48_sub_suite_carries_its_first_failure(monkeypatch, CA):
    real = integrals.thm48_module

    def doubled_action(*args):
        AHM = real(*args)
        return replace(AHM, action=AHM.action + AHM.action)
    monkeypatch.setattr(integrals, "thm48_module", doubled_action)
    rep = thm48_check(CA)
    result = next(r for r in rep.results if r.name ==
                  "A (x) H (x) M is a relative Hopf module (module 0)")
    assert result.status == "fail" and result.witness is not None
    assert result.detail == \
        "module: Hom-associativity: (m.a).alpha(b) = mu(m).(ab)"


def test_theorem56_witness(monkeypatch, CA):
    monkeypatch.setattr(galois, "quantum_trace_left",
                        _doubled(galois.quantum_trace_left))
    _assert_witnessed(
        thm56_check(CA), "theta . eta = id and eta . theta = id (module 0)",
        free_module(coinvariants(CA), 1).space, "theta . eta")


def test_theorem57_witness(monkeypatch, CA):
    # the Galois map before its factors are flipped is no morphism from
    # xi's source module; the A-linearity identity lives on (A (x) A) (x) A
    monkeypatch.setattr(galois, "galois_xi", galois_psi_ambient)
    _assert_witnessed(thm57_check(CA), "xi respects the action and coaction",
                      tensor_space(CA.space, CA.space, CA.space), "A-linear")


def test_prop51_witness(monkeypatch, CA):
    gamma = find_quantum_integral(CA, require_total=True)
    monkeypatch.setattr(galois, "quantum_trace_left",
                        _doubled(galois.quantum_trace_left))
    _assert_witnessed(prop51_check(CA, gamma),
                      "t^l restricts to the identity on B",
                      coinvariants(CA).algebra.space)
