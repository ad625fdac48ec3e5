"""The kernel's one scalar form: an int when the value is integral, a
Fraction otherwise, never a float.  Integer instances stay in int
arithmetic from the parsed file to the composites of the axiom checks."""

from fractions import Fraction

import pytest

import homhopf.modules as modules
import homhopf.structures as structures
from homhopf.catalog import cyclic_group_hopf, entry, sweedler_hopf
from homhopf.instance_io import ParsedInstance, emit_instance, parse_instance
from homhopf.integrals import thm48_module
from homhopf.modules import check_rel_hopf, regular_rel_hopf
from homhopf.structures import (check_comodule_algebra, check_hom_hopf,
                                regular_comodule_algebra)
from conftest import _seam
from test_integral_systems import _rebased


def _structure_maps(CA, mods=()):
    """The structure maps of CA, its Hopf algebra and the given modules."""
    A, H = CA.algebra, CA.hopf
    maps = [H.algebra.mult, H.algebra.unit, H.algebra.alpha,
            H.algebra.alpha_inv, H.comult, H.counit, H.antipode,
            H.antipode_inv,
            A.mult, A.unit, A.alpha, A.alpha_inv, CA.coaction]
    for M in mods:
        maps += [M.mu, M.mu_inv, M.action, M.coaction]
    return maps


def _stored(CA, mods=()):
    """Every scalar stored in the structure maps of CA, its Hopf algebra
    and the given modules."""
    return [c for f in _structure_maps(CA, mods) for col in f.cols
            for _, c in col]


def _assert_one_form(scalars):
    """No float; every integral scalar an int, the others Fractions."""
    assert all(type(c) in (int, Fraction) for c in scalars)
    assert all(type(c) is int for c in scalars if c.denominator == 1)


def _round_trip(CA, mods):
    inst = ParsedInstance("x", "hopf", "", CA, dict(mods), {})
    parsed = parse_instance(emit_instance(inst))
    return parsed.comodule_algebra, list(parsed.modules.values())


@pytest.mark.parametrize("hopf", [lambda: cyclic_group_hopf(12),
                                  sweedler_hopf], ids=["kC12", "sweedler-H4"])
def test_integer_instances_store_only_ints(hopf):
    CA = regular_comodule_algebra(hopf())
    mods = {"A": regular_rel_hopf(CA)}
    for ca, ms in ((CA, mods.values()), _round_trip(CA, mods)):
        scalars = _stored(ca, ms)
        assert scalars and all(type(c) is int for c in scalars)


def test_thm48_composites_of_an_integer_instance_are_ints(monkeypatch):
    calls = _seam(monkeypatch, modules)
    CA = regular_comodule_algebra(sweedler_hopf())
    assert check_rel_hopf(thm48_module(
        CA, CA.algebra.alpha, CA.algebra.alpha_inv)).ok
    compared = [c[3:] for c in calls]
    assert len(compared) >= 4
    assert all(type(c) is int for pair in compared for f in pair
               for col in f.cols for _, c in col)


def test_rebased_instance_stores_exact_scalars_in_one_form():
    CA = _rebased(entry("kC3-twisted").comodule_algebra)
    mods = {"A": regular_rel_hopf(CA)}
    for ca, ms in ((CA, mods.values()), _round_trip(CA, mods)):
        scalars = _stored(ca, ms)
        _assert_one_form(scalars)
        assert any(type(c) is Fraction for c in scalars)
        assert any(type(c) is int for c in scalars)


def test_integer_maps_skip_the_common_denominator():
    """An all-int map's cached scaled form is (1, cols): the products take
    their d == 1 path on the very columns, with no copy."""
    CA = regular_comodule_algebra(cyclic_group_hopf(12))
    for f in _structure_maps(CA, [regular_rel_hopf(CA)]):
        d, cols = f.scaled
        assert d == 1 and cols is f.cols
        assert f.scaled is f.scaled


def test_rebased_axiom_composites_keep_one_scalar_form(monkeypatch):
    """The composites of the Hom-Hopf and comodule-algebra axioms on a
    rebased instance come out of the common-denominator products with
    every integral scalar an int and the rest Fractions."""
    calls = _seam(monkeypatch, structures)
    CA = _rebased(entry("kC3-twisted").comodule_algebra)
    assert check_hom_hopf(CA.hopf).ok
    assert check_comodule_algebra(CA).ok
    compared = [c[3:] for c in calls]
    assert len(compared) >= 10
    scalars = [c for pair in compared for f in pair for col in f.cols
               for _, c in col]
    _assert_one_form(scalars)
    assert any(type(c) is Fraction for c in scalars)
    assert any(type(c) is int for c in scalars)
