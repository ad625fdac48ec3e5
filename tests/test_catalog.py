"""The built-in instance catalog and the parameterised integral families."""

import hashlib
from fractions import Fraction

import pytest

import homhopf.catalog as catalog
from homhopf.catalog import (GROUP_FAMILY_CHOICES, MATRIX_FAMILY_CHOICES,
                             cyclic_group_hopf, entry, example_group_family,
                             example_matrix_family, group_family_gamma,
                             matrix_family_gamma, names)
from homhopf.errors import UnknownEntry
from homhopf.instance_io import ParsedInstance, emit_instance
from homhopf.modules import regular_rel_hopf
from homhopf.report import Report
from homhopf.structures import regular_comodule_algebra


def test_catalog_lists_eight_entries():
    assert len(names()) == 8


def test_unknown_entry_raises():
    with pytest.raises(UnknownEntry):
        entry("bogus")


@pytest.mark.parametrize("name", names())
def test_every_entry_validates(name):
    rep = entry(name).validate()
    assert rep.ok, rep.pretty()


def test_entry_refuses_a_hopf_entry_whose_comparison_fails(monkeypatch):
    # validate() is the structure suite that check runs; entry() adds the
    # comparison isomorphism G(A) ~ Gtilde(H) for a Hopf entry
    failing = Report("comparison isomorphism G(A) ~ Gtilde(H)")
    failing.record("u . v = id", False)
    monkeypatch.setattr(catalog, "prop31_check", lambda CA: failing)
    monkeypatch.setattr(catalog, "_CACHE", {})
    with pytest.raises(AssertionError, match=r"\[FAIL\] comparison: u \. v"):
        entry("kC2")


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
    with pytest.raises((TypeError, ValueError)):
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


# sha256 of the emitted file text, pinned so that a rewrite of the catalog's
# structure constants cannot change a single byte of what it emits
EMITTED_SHA256 = {
    "kC2": "178006561f297c5f4d184337468d20f0781d5c18e3e7a6f7fb5288b1dd4f1573",
    "kC3": "f978e7cc724887c8150d2e5dfcee41bfd643da9c959816b805c3242825de407c",
    "kC3-twisted":
        "80b3d979c18e5185bce3a688590392113969164d774c993905206565c914b58b",
    "kG-C2-datum":
        "09d99cb07e484151e006cde9a363a24b4ec4b20fa6c653578ec07d07354e6480",
    "matrix-datum-2":
        "365df4debb292d26f186ff0efbff6074efe0eed3e62311d5828c32ff4196df78",
    "sweedler-H4":
        "22e07ca419e6d5d6cd21eff07a9ece1cad1a1f8f298b4133cd1a3fbdff6465d5",
    "trivial-k-over-H4":
        "a1ef032cce5f07d029bb2bc7dcfada2f59b85d9514b7ac9c946de0148a1d70cd",
    "trivial-k-over-kC2":
        "42e2af441197ebfb419e7cba8ab816e761d9a291cdad0cb986a34afb43da2d30",
}

# kC_n coacting on itself with its regular relative Hopf module A, emitted
# as verdictbench/make_inputs.py emits the benchmark's kC<n>.json inputs
KCN_EMITTED_SHA256 = {
    2: "0a301547447ee10322f5d23e6824e7e022f298c5d27fc117f1b0ec2e51491299",
    3: "6d65f4051753ae05eba8cc8a64eec2cd6a4f44792edb334e7c54aabcbe7c8f9f",
    4: "91f5397e61d362654f5ea1a35faa04c9f3770d13911b3c9a414dbb28f2dfbed5",
    5: "fc4237d21f9d04ac712e8ebb0d2ae837c3670f8f6ca1b149525a7010bba11263",
    6: "26b2d47c6386aa24faaa8dd703599eaf8a0e01d01f20c656aaf925d93b236f3d",
    7: "241c7a031ffd7f5697ebebe50b3bb6a4ed904532127454fdd6398a86b68d7de3",
    8: "45b4a87c51eee145b89e7727345fccd944ad85a8c92654e20f15742b7205ca5a",
    9: "925285378b266bbaa8f7b9fe6ebf3c5977038781013c4f59be46c196d3c33834",
    10: "8b69499520b523f5f3c47ea420c09705eb16b07684092da39a76c3859bc9959c",
    11: "d4cca797e41637bcf667d23d5e770baa68bae2c4d0ea2e49376c64044e6313d0",
    12: "88b6763c60db73fa334a03ae5d6469afe42201842cd1a408ab8d84396ca27aed",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_table_covers_every_entry():
    assert sorted(EMITTED_SHA256) == names()


@pytest.mark.parametrize("name", sorted(EMITTED_SHA256))
def test_emitted_entry_is_byte_identical_to_golden(name):
    assert _sha256(emit_instance(entry(name))) == EMITTED_SHA256[name]


@pytest.mark.parametrize("n", sorted(KCN_EMITTED_SHA256))
def test_emitted_kcn_is_byte_identical_to_golden(n):
    CA = regular_comodule_algebra(cyclic_group_hopf(n))
    inst = ParsedInstance(
        f"kC{n}", "hopf", f"kC{n} coacting on itself by its comultiplication",
        CA, {"A": regular_rel_hopf(CA)}, {})
    assert _sha256(emit_instance(inst)) == KCN_EMITTED_SHA256[n]
