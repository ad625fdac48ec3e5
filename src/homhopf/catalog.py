"""Built-in catalog of small exactly-presented instances.

Every entry is validated against its structural axioms the first time it is
requested, and carries a table of expected results that the test-suite
recomputes on every run.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .errors import UnknownEntry
from .instance_io import ParsedInstance
from .integrals import is_total, quantum_integral_identities
from .linalg import SCALAR_SPACE, LinearMap, Space, frac, space, tensor_space
from .modules import prop31_check, regular_induced, regular_rel_hopf
from .report import Report
from .structures import (ComoduleAlgebra, HomAlgebra, HomHopfAlgebra,
                         regular_comodule_algebra, twist)
from .verify import check_maps


# ---------------------------------------------------------------------------
# Constructions
# ---------------------------------------------------------------------------

def cyclic_group_hopf(n: int) -> HomHopfAlgebra:
    """The group algebra of the cyclic group of order n with identity
    twisting maps."""
    labels = tuple("1" if i == 0 else ("g" if i == 1 else f"g{i}")
                   for i in range(n))
    sp = Space(labels)
    mult = LinearMap(tensor_space(sp, sp), sp, tuple(
        (((i + j) % n, 1),) for i in range(n) for j in range(n)))
    comult = LinearMap(sp, tensor_space(sp, sp),
                       tuple(((i * n + i, 1),) for i in range(n)))
    counit = LinearMap(sp, SCALAR_SPACE, (((0, 1),),) * n)
    unit = LinearMap(SCALAR_SPACE, sp, (((0, 1),),))
    antipode = LinearMap(sp, sp, tuple((((-i) % n, 1),) for i in range(n)))
    ident = LinearMap.identity(sp)
    return HomHopfAlgebra.build(sp, mult, unit, comult, counit, antipode,
                                ident, ident)


def sweedler_hopf() -> HomHopfAlgebra:
    """The four-dimensional Hopf algebra with basis (1, g, x, gx), where
    g^2 = 1, x^2 = 0, xg = -gx, with identity twisting maps."""
    sp = space("1", "g", "x", "gx")
    one, g, x, gx = range(4)
    # column a * 4 + b is the product ab
    mult = LinearMap(tensor_space(sp, sp), sp, (
        ((one, 1),), ((g, 1),), ((x, 1),), ((gx, 1),),
        ((g, 1),), ((one, 1),), ((gx, 1),), ((x, 1),),
        ((x, 1),), ((gx, -1),), (), (),
        ((gx, 1),), ((x, -1),), (), ()))
    # Delta(x) = x (x) 1 + g (x) x, Delta(gx) = 1 (x) gx + gx (x) g
    comult = LinearMap(sp, tensor_space(sp, sp), (
        ((one * 4 + one, 1),), ((g * 4 + g, 1),),
        ((g * 4 + x, 1), (x * 4 + one, 1)),
        ((one * 4 + gx, 1), (gx * 4 + g, 1))))
    counit = LinearMap(sp, SCALAR_SPACE, (((0, 1),), ((0, 1),), (), ()))
    unit = LinearMap(SCALAR_SPACE, sp, (((one, 1),),))
    antipode = LinearMap(sp, sp, (((one, 1),), ((g, 1),), ((gx, -1),),
                                  ((x, 1),)))
    ident = LinearMap.identity(sp)
    return HomHopfAlgebra.build(sp, mult, unit, comult, counit, antipode,
                                ident, ident)


def twisted_cyclic3() -> HomHopfAlgebra:
    """kC3 twisted along the group automorphism g -> g^2."""
    H = cyclic_group_hopf(3)
    sp = H.space
    aut = LinearMap(sp, sp, tuple((((2 * i) % 3, 1),) for i in range(3)))
    return twist(H, aut)


def trivial_comodule_algebra(H: HomHopfAlgebra) -> ComoduleAlgebra:
    """A = k with the trivial coaction 1 -> 1 (x) 1_H."""
    sp = space("1")
    ident = LinearMap.identity(sp)
    mult = LinearMap(tensor_space(sp, sp), sp, ident.cols)
    unit = LinearMap(SCALAR_SPACE, sp, (((0, 1),),))
    algebra = HomAlgebra(sp, mult, unit, ident, ident)
    # 1 (x) 1_H has the coordinates of 1_H, as A (x) H has H's basis
    coaction = LinearMap(sp, tensor_space(sp, H.space),
                         H.algebra.unit.cols)
    return ComoduleAlgebra(algebra, H, coaction)


def matrix_datum(n: int) -> ComoduleAlgebra:
    """The comatrix coalgebra (basis c_ij, Delta(c_ij) = sum_u c_iu (x) c_uj,
    eps(c_ij) = delta_ij, identity twisting) coacting trivially on A = k.

    The multiplication attached to the coalgebra is the matrix-unit product
    c_ij c_kl = delta_jk c_il; only products against 1_H = sum_u c_uu are
    ever used by the integral equations, and those reduce to the unit law.
    No bialgebra or antipode claims are made for this datum, so only the
    coalgebra and the integral equations are checked for it.
    """
    sp = Space(tuple(f"c{i}{j}" for i in range(n) for j in range(n)))
    comult = LinearMap(sp, tensor_space(sp, sp), tuple(
        tuple(((i * n + u) * n * n + u * n + j, 1) for u in range(n))
        for i in range(n) for j in range(n)))
    counit = LinearMap(sp, SCALAR_SPACE, tuple(
        ((0, 1),) if i == j else () for i in range(n) for j in range(n)))
    mult = LinearMap(tensor_space(sp, sp), sp, tuple(
        ((i * n + s, 1),) if j == r else ()
        for i in range(n) for j in range(n)
        for r in range(n) for s in range(n)))
    unit = LinearMap(SCALAR_SPACE, sp,
                     (tuple((i * n + i, 1) for i in range(n)),))
    ident = LinearMap.identity(sp)
    algebra = HomAlgebra(sp, mult, unit, ident, ident)
    antipode = LinearMap.zero(sp, sp)
    H = HomHopfAlgebra(algebra, comult, counit, antipode, None)
    return trivial_comodule_algebra(H)


# ---------------------------------------------------------------------------
# The two parameterised integral families
# ---------------------------------------------------------------------------

def matrix_family_gamma(CA: ComoduleAlgebra,
                        mu: list[list[Fraction]]) -> LinearMap:
    """gamma(c_ij)(c_rs) = delta_is beta(mu_rj) for the comatrix datum;
    mu is an n x n parameter matrix with entries in B = A^{coH}."""
    H = CA.hopf
    A = CA.algebra
    n = math.isqrt(H.dim)
    if n * n != H.dim:
        raise ValueError(f"a comatrix datum has square dimension, got {H.dim}")
    # D(c_ij (x) c_rs) = delta_is mu_rj, one row
    D = _scalar_table(H, [frac(mu[r][j]) if i == s else 0
                          for i in range(n) for j in range(n)
                          for r in range(n) for s in range(n)])
    return A.alpha @ A.unit @ D


def group_family_gamma(CA: ComoduleAlgebra,
                       mu: dict[int, Fraction]) -> LinearMap:
    """gamma(x)(y) = delta_xy beta(mu_x) on a group-algebra H acting on the
    trivial A = k; mu maps group-element index to a coinvariant scalar."""
    H = CA.hopf
    A = CA.algebra
    # D(x (x) y) = delta_xy mu_x, one row
    D = _scalar_table(H, [frac(mu[x]) if x == y else 0
                          for x in range(H.dim) for y in range(H.dim)])
    return A.alpha @ A.unit @ D


def _scalar_table(H: HomHopfAlgebra, values) -> LinearMap:
    """The map H (x) H -> k with the given values on the basis."""
    return LinearMap(tensor_space(H.space, H.space), SCALAR_SPACE,
                     tuple(((0, v),) if v else () for v in values))


def example_family_verify(CA: ComoduleAlgebra, gamma_map: LinearMap,
                          expect_total: bool) -> Report:
    """Check the two integral equations for an explicit parameterised gamma
    and confirm that totality matches the trace criterion."""
    rep = Report("parameterised quantum integral family")
    beta, eq41 = quantum_integral_identities(CA, gamma_map, total=False)
    check_maps(rep, "the integral equation holds", [eq41])
    check_maps(rep, "gamma intertwines the twisting maps", [beta])
    rep.record("totality matches the trace criterion",
               is_total(CA, gamma_map) == expect_total,
               detail=f"expected total={expect_total}")
    return rep


# ---------------------------------------------------------------------------
# Catalog entries
# ---------------------------------------------------------------------------

def _hopf_entry(name: str, description: str, CA: ComoduleAlgebra,
                expected: dict) -> ParsedInstance:
    """A Hopf entry carrying the modules A and G(A) over CA."""
    modules = {"A": regular_rel_hopf(CA), "G(A)": regular_induced(CA)}
    return ParsedInstance(name, "hopf", description, CA, modules, expected)


def _regular_entry(name: str, description: str, H: HomHopfAlgebra,
                   kernel_dim: int) -> ParsedInstance:
    """H coacting on itself, with the values every such entry shares."""
    return _hopf_entry(name, description, regular_comodule_algebra(H), {
        "total_integral": True, "total_integral_kernel_dim": kernel_dim,
        "total_quantum_integral": True, "galois": "bijective",
        "coinvariant_dim": 1})


def _build_entries() -> dict[str, Callable[[], ParsedInstance]]:
    return {
        "kC2": lambda: _regular_entry(
            "kC2", "group algebra of the cyclic group of order 2, "
            "coacting on itself", cyclic_group_hopf(2), 1),
        "kC3": lambda: _regular_entry(
            "kC3", "group algebra of the cyclic group of order 3, "
            "coacting on itself", cyclic_group_hopf(3), 2),
        "kC3-twisted": lambda: _regular_entry(
            "kC3-twisted", "kC3 twisted along the automorphism g -> g^2",
            twisted_cyclic3(), 1),
        "sweedler-H4": lambda: _regular_entry(
            "sweedler-H4", "the four-dimensional Hopf algebra coacting on "
            "itself", sweedler_hopf(), 3),
        "trivial-k-over-kC2": lambda: _hopf_entry(
            "trivial-k-over-kC2", "A = k with the trivial coaction of kC2",
            trivial_comodule_algebra(cyclic_group_hopf(2)),
            {"total_integral": True, "total_integral_kernel_dim": 0,
             "total_quantum_integral": True, "galois": "neither",
             "coinvariant_dim": 1}),
        "trivial-k-over-H4": lambda: _hopf_entry(
            "trivial-k-over-H4", "A = k with the trivial coaction of the "
            "four-dimensional Hopf algebra",
            trivial_comodule_algebra(sweedler_hopf()),
            {"total_integral": False, "total_quantum_integral": False,
             "galois": "neither", "coinvariant_dim": 1}),
        "kG-C2-datum": lambda: _hopf_entry(
            "kG-C2-datum", "A = k under kC2 with the diagonal parameterised "
            "integral family gamma(x)(y) = delta_xy mu_x",
            trivial_comodule_algebra(cyclic_group_hopf(2)),
            {"total_integral": True, "family": "group",
             "family_total_iff": "all mu_x equal 1"}),
        "matrix-datum-2": lambda: ParsedInstance(
            "matrix-datum-2", "coalgebra-datum",
            "the 2 x 2 comatrix coalgebra coacting trivially on k, with "
            "the family gamma(c_ij)(c_rs) = delta_is mu_rj",
            matrix_datum(2), {},
            {"family": "matrix", "family_total_iff": "trace of mu equals 1"}),
    }


_BUILDERS = _build_entries()
_CACHE: dict[str, ParsedInstance] = {}


def names() -> list[str]:
    return sorted(_BUILDERS)


def entry(name: str) -> ParsedInstance:
    """Fetch a catalog entry by name, validated by the structure suite and,
    for a Hopf entry, the comparison isomorphism G(A) ~ Gtilde(H)."""
    if name not in _BUILDERS:
        raise UnknownEntry(f"unknown catalog entry {name!r}; "
                           f"known: {', '.join(names())}")
    if name not in _CACHE:
        ent = _BUILDERS[name]()
        rep = ent.validate()
        if ent.kind == "hopf":
            rep.extend(prop31_check(ent.comodule_algebra), "comparison: ")
        if not rep.ok:
            raise AssertionError(
                f"catalog entry {name} fails its structural checks:\n"
                + rep.pretty())
        _CACHE[name] = ent
    return _CACHE[name]


# ---------------------------------------------------------------------------
# Parameterised-example drivers
# ---------------------------------------------------------------------------

GROUP_FAMILY_CHOICES = [
    {0: Fraction(1), 1: Fraction(1)},
    {0: Fraction(1), 1: Fraction(0)},
    {0: Fraction(0), 1: Fraction(0)},
    {0: Fraction(2), 1: Fraction(1)},
    {0: Fraction(1), 1: Fraction(-1)},
]

MATRIX_FAMILY_CHOICES = [
    [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)]],
    [[Fraction(1, 2), Fraction(3)], [Fraction(-7), Fraction(1, 2)]],
    [[Fraction(1), Fraction(1)], [Fraction(1), Fraction(1)]],
    [[Fraction(0), Fraction(5)], [Fraction(2), Fraction(0)]],
    [[Fraction(2), Fraction(0)], [Fraction(0), Fraction(-1)]],
]


def example_group_family(mu: dict[int, Fraction]) -> Report:
    """Verify the diagonal family over the order-2 group algebra; total
    exactly when every mu_x is 1."""
    CA = entry("kG-C2-datum").comodule_algebra
    gamma = group_family_gamma(CA, mu)
    expect_total = all(frac(v) == 1 for v in mu.values())
    return example_family_verify(CA, gamma, expect_total)


def example_matrix_family(mu: list[list[Fraction]]) -> Report:
    """Verify the comatrix family; total exactly when the trace of mu is 1."""
    CA = entry("matrix-datum-2").comodule_algebra
    gamma = matrix_family_gamma(CA, mu)
    expect_total = sum(frac(mu[u][u]) for u in range(2)) == 1
    return example_family_verify(CA, gamma, expect_total)
