"""The built-in instance catalog and the parameterised integral families."""

from fractions import Fraction

import pytest

from homhopf.catalog import (GROUP_FAMILY_CHOICES, MATRIX_FAMILY_CHOICES,
                             entry, example_group_family,
                             example_matrix_family, group_family_gamma,
                             matrix_family_gamma, names)
from homhopf.errors import ParametersNotCoinvariant, UnknownEntry


def test_catalog_lists_eight_entries():
    assert len(names()) == 8


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntry):
        entry("bogus")


@pytest.mark.parametrize("name", names())
def test_every_entry_validates(name):
    rep = entry(name).validate()
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("mu", GROUP_FAMILY_CHOICES,
                         ids=[str(m) for m in GROUP_FAMILY_CHOICES])
def test_group_family(mu):
    rep = example_group_family(mu)
    assert rep.ok, rep.pretty()


@pytest.mark.parametrize("mu", MATRIX_FAMILY_CHOICES,
                         ids=[str(m) for m in MATRIX_FAMILY_CHOICES])
def test_matrix_family(mu):
    rep = example_matrix_family(mu)
    assert rep.ok, rep.pretty()


def test_family_choices_cover_both_verdicts():
    group_totals = [all(Fraction(v) == 1 for v in mu.values())
                    for mu in GROUP_FAMILY_CHOICES]
    matrix_totals = [sum(Fraction(mu[u][u]) for u in range(2)) == 1
                     for mu in MATRIX_FAMILY_CHOICES]
    for verdicts in (group_totals, matrix_totals):
        assert len(verdicts) >= 4
        assert any(verdicts) and not all(verdicts)


def test_matrix_family_total_iff_trace_one():
    CA = entry("matrix-datum-2").comodule_algebra
    from homhopf.integrals import is_total
    traced = [[Fraction(1, 2), Fraction(9)], [Fraction(4), Fraction(1, 2)]]
    untraced = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1)]]
    assert is_total(CA, matrix_family_gamma(CA, traced))
    assert not is_total(CA, matrix_family_gamma(CA, untraced))


def test_group_family_rejects_non_coinvariant_parameters():
    CA = entry("kG-C2-datum").comodule_algebra
    with pytest.raises((ParametersNotCoinvariant, TypeError, ValueError)):
        group_family_gamma(CA, {0: object(), 1: Fraction(1)})


def test_expected_tables_are_regression_checked():
    """Every expected value is recomputed somewhere in the suite; spot-check
    a couple of headline numbers here."""
    from homhopf.integrals import TotalIntegral, find_total_integral
    res = find_total_integral(entry("sweedler-H4").comodule_algebra)
    assert isinstance(res, TotalIntegral)
    assert len(res.solution_family) == 3
    res2 = find_total_integral(entry("kC3-twisted").comodule_algebra)
    assert isinstance(res2, TotalIntegral)
    assert len(res2.solution_family) == 1


@pytest.mark.parametrize("name", ["kG-C2-datum", "kC3"])
def test_matrix_family_needs_a_square_dimension(name):
    CA = entry(name).comodule_algebra          # H has dimension 2 or 3
    with pytest.raises(ValueError, match="square dimension"):
        matrix_family_gamma(CA, [[Fraction(1)]])
