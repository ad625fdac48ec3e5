"""Structure-constant Hom-algebras, Hom-Hopf algebras and
Hom-comodule algebras (whose suite includes their algebra's), with axiom
checkers, a twisting constructor and algebra generators (algebra_generators).

Every structure is a bundle of linear maps over a fixed labelled basis, and
every axiom is an equality of composites of those maps.  Checkers return a
Report instead of raising: an invalid structure is data for the caller to
inspect (catalog and CLI loaders refuse on any failure).
"""

from __future__ import annotations

from typing import Optional

from .errors import NotAutomorphism
from .linalg import (LinearMap, SCALAR_SPACE, Space, Subspace, basis_inclusion,
                     product_after, span, tensor_after, tensor_space)
from .records import _set, record
from .report import Report
from .verify import check_identity, check_maps


@record(frozen=True)
class HomAlgebra:
    """A monoidal Hom-algebra (A, alpha): multiplication, unit, automorphism."""

    space: Space
    mult: LinearMap          # A (x) A -> A
    unit: LinearMap          # k -> A
    alpha: LinearMap
    alpha_inv: LinearMap

    @property
    def dim(self) -> int:
        return self.space.dim


@record(frozen=True)
class HomHopfAlgebra:
    """A monoidal Hom-Hopf algebra: compatible Hom-bialgebra plus antipode.

    One object (H, alpha) carries both structures, as in [CG11]: the
    coalgebra's automorphism gamma is the algebra's alpha (algebra.alpha).

    The antipode inverse is optional at construction, but every operation
    that needs a bijective antipode (quantum integrals and everything in
    the Galois layer) refuses to run without it.
    """

    algebra: HomAlgebra
    comult: LinearMap        # H -> H (x) H
    counit: LinearMap        # H -> k
    antipode: LinearMap
    antipode_inv: Optional[LinearMap]

    @staticmethod
    def build(space: Space, mult: LinearMap, unit: LinearMap,
              comult: LinearMap, counit: LinearMap, antipode: LinearMap,
              alpha: LinearMap, alpha_inv: LinearMap) -> "HomHopfAlgebra":
        try:
            s_inv = antipode.inverse()
        except ValueError:
            s_inv = None
        return HomHopfAlgebra(HomAlgebra(space, mult, unit, alpha, alpha_inv),
                              comult, counit, antipode, s_inv)

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.space.dim

    def require_bijective_antipode(self) -> None:
        if self.antipode_inv is None:
            raise ValueError("this operation needs a bijective antipode")


@record(frozen=True)
class ComoduleAlgebra:
    """A right (H, alpha)-Hom-comodule algebra (A, beta) with coaction A -> A (x) H."""

    algebra: HomAlgebra
    hopf: HomHopfAlgebra
    coaction: LinearMap      # A -> A (x) H

    @property
    def space(self) -> Space:
        return self.algebra.space


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def check_hom_algebra(A: HomAlgebra) -> Report:
    """Exhaustive Definition-level check of the Hom-algebra axioms, run once
    per algebra object: A keeps the report, which its callers only read.

    Hom-associativity is reduced (check_maps) to A (x) A (x) span(S), S =
    algebra_generators(A), once the other axioms hold; else, or if that
    fails, it is decided on A (x) A (x) A in blocks of the first factor, to
    the first that differs (the witness is the whole map's).  L =
    {c : (xy)alpha(c) = alpha(x)(yc)} holds 1, is alpha^{+-1}-stable and,
    alpha being multiplicative, closed under products: (xy)alpha(cd) =
    ((x'y')alpha(c))alpha^2(d) = (x(y'c))alpha^2(d) =
    alpha(x)((y'c)alpha(d)) = alpha(x)(y(cd)), x' = alpha^{-1}(x), y' =
    alpha^{-1}(y).  So L = A."""
    if "axioms" in vars(A):
        return A.axioms
    rep, laws = Report(f"Hom-algebra axioms on {A.space.labels}"), Report("")
    sp, m, al = A.space, A.mult, A.alpha
    ida = LinearMap.identity(sp)

    def assoc(x: LinearMap, b: LinearMap) -> tuple:  # on X (x) A (x) B
        return (m @ (al @ x).tensor(m @ ida.tensor(b)),
                m @ (m @ x.tensor(ida)).tensor(al @ b))

    check_maps(rep, "alpha invertible", [(al @ A.alpha_inv, ida)])
    check_identity(rep, "alpha multiplicative: alpha(ab) = alpha(a)alpha(b)",
                   [sp, sp], sp, al @ m, m @ al.tensor(al))
    check_maps(rep, "alpha(1) = 1", [(al @ A.unit, A.unit)])
    check_identity(laws, "unit law: a·1 = alpha(a)", [sp], sp,
                   m @ tensor_after(ida, A.unit, ida), al)
    check_identity(laws, "unit law: 1·a = alpha(a)", [sp], sp,
                   m @ tensor_after(A.unit, ida, ida), al)
    check_maps(rep, "Hom-associativity: alpha(a)(bc) = (ab)alpha(c)",
               (assoc(basis_inclusion(sp, [i]), ida) for i in range(A.dim)),
               reduced=rep.ok and laws.ok and [assoc(ida, basis_inclusion(
                   sp, algebra_generators(A)))])
    rep.extend(laws)
    _set(A, "axioms", rep)
    return rep


def check_hom_coalgebra(H: HomHopfAlgebra) -> Report:
    """The Hom-coalgebra axioms of (H, gamma), gamma the algebra's alpha
    (H.algebra.alpha): one object carries both, as in [CG11]."""
    rep = Report(f"Hom-coalgebra axioms on {H.space.labels}")
    sp = H.space
    d, eps = H.comult, H.counit
    g, g_inv = H.algebra.alpha, H.algebra.alpha_inv
    idc = LinearMap.identity(sp)

    check_maps(rep, "gamma invertible", [(g @ g_inv, idc)])
    check_identity(rep, "Delta gamma = (gamma x gamma) Delta", [sp],
                   tensor_space(sp, sp), d @ g, tensor_after(g, g, d))
    check_identity(rep, "eps gamma = eps", [sp], SCALAR_SPACE, eps @ g, eps)
    check_identity(rep, "Hom-coassociativity", [sp],
                   tensor_space(sp, sp, sp),
                   tensor_after(g_inv, d, d), tensor_after(d, g_inv, d))
    check_identity(rep, "counit law: eps(c1)c2 = gamma^{-1}(c)", [sp], sp,
                   tensor_after(eps, idc, d), g_inv)
    check_identity(rep, "counit law: eps(c2)c1 = gamma^{-1}(c)", [sp], sp,
                   tensor_after(idc, eps, d), g_inv)
    return rep


def check_hom_hopf(H: HomHopfAlgebra) -> Report:
    """Algebra + coalgebra axioms, bialgebra compatibility, antipode identities."""
    rep = Report(f"Hom-Hopf axioms on {H.space.labels}")
    rep.extend(check_hom_algebra(H.algebra), prefix="algebra: ")
    rep.extend(check_hom_coalgebra(H), prefix="coalgebra: ")

    sp = H.space
    A = H.algebra
    m, d, eps, S, unit = A.mult, H.comult, H.counit, H.antipode, A.unit
    idh = LinearMap.identity(sp)

    check_identity(rep, "Delta(ab) = a1 b1 (x) a2 b2", [sp, sp],
                   tensor_space(sp, sp), d @ m,
                   product_after(m, m, d, d, (sp, sp, sp, sp)))
    check_maps(rep, "Delta(1) = 1 (x) 1", [(d @ unit, unit.tensor(unit))])
    check_identity(rep, "eps(ab) = eps(a)eps(b)", [sp, sp], SCALAR_SPACE,
                   eps @ m, eps.tensor(eps))
    check_maps(rep, "eps(1) = 1",
               [(eps @ unit, LinearMap.identity(SCALAR_SPACE))])

    # one check for both convolution sides, so a corrupted antipode entry
    # yields a single failure with a single witness
    both = Space(tuple(f"(S*id) {lab}" for lab in sp.labels)
                 + tuple(f"(id*S) {lab}" for lab in sp.labels))
    top, bottom = (basis_inclusion(both, range(k, k + sp.dim))
                   for k in (0, sp.dim))
    check_identity(rep, "antipode: S * id = id * S = unit eps", [sp], both,
                   top @ (m @ tensor_after(S, idh, d))
                   + bottom @ (m @ tensor_after(idh, S, d)),
                   (top + bottom) @ (unit @ eps))
    check_identity(rep, "S alpha = alpha S", [sp], sp,
                   S @ A.alpha, A.alpha @ S)
    return rep


def check_comodule_axioms(rep: Report, space: Space, mu: LinearMap,
                          mu_inv: LinearMap, coaction: LinearMap,
                          H: HomHopfAlgebra) -> None:
    """Definition 2.6 axioms for a right Hom-comodule (shared by A and modules)."""
    sp, prefix = space, "comodule: "
    rho = coaction
    check_identity(rep, prefix + "Hom-coassociativity of coaction", [sp],
                   tensor_space(sp, H.space, H.space),
                   tensor_after(rho, H.algebra.alpha_inv, rho),
                   tensor_after(mu_inv, H.comult, rho))
    check_identity(rep, prefix + "counit law: m0 eps(m1) = mu^{-1}(m)", [sp], sp,
                   tensor_after(LinearMap.identity(sp), H.counit,
                                rho), mu_inv)
    check_identity(rep, prefix + "coaction intertwines: rho mu = (mu x alpha) rho",
                   [sp], tensor_space(sp, H.space),
                   rho @ mu, tensor_after(mu, H.algebra.alpha, rho))


def check_comodule_algebra(CA: ComoduleAlgebra) -> Report:
    rep = Report(f"Hom-comodule algebra axioms on {CA.space.labels}")
    A, H = CA.algebra, CA.hopf
    sp = A.space
    rho = CA.coaction

    rep.extend(check_hom_algebra(A), prefix="algebra: ")
    check_comodule_axioms(rep, sp, A.alpha, A.alpha_inv, CA.coaction, H)
    check_identity(rep, "multiplicativity: rho(ab) = a0 b0 (x) a1 b1", [sp, sp],
                   tensor_space(sp, H.space), rho @ A.mult,
                   product_after(A.mult, H.algebra.mult, rho, rho,
                                 (sp, H.space, sp, H.space)))
    check_maps(rep, "unitality: rho(1) = 1 (x) 1",
               [(rho @ A.unit, A.unit.tensor(H.algebra.unit))])
    return rep


def algebra_generators(A: HomAlgebra) -> tuple[int, ...]:
    """Basis indices S such that span(1, S), closed under the multiplication
    alone, is A: basis element i is kept when that closure of the ones kept
    so far does not hold it.  The closure uses no axiom, so S has this
    property for every A, and a subspace holding 1 and S and closed under
    products is A.  kC_n gives (g), H4 (g, x), k ().  A keeps the result,
    as it keeps check_hom_algebra's report."""
    if "generators" in vars(A):
        return A.generators

    def closure(sub: Subspace) -> Subspace:
        E = sub.embedding(Space(tuple(map(str, range(sub.dim)))))
        grown = span(A.space, sub.basis + (A.mult @ E.tensor(E)).cols)
        return grown if grown.dim in (sub.dim, A.dim) else closure(grown)

    sub, gens = closure(span(A.space, A.unit.cols)), ()
    for i in range(A.dim):
        if sub.dim == A.dim:
            break
        if (grown := span(A.space, sub.basis + (((i, 1),),))).dim > sub.dim:
            sub, gens = closure(grown), gens + (i,)
    _set(A, "generators", gens)
    return gens


# ---------------------------------------------------------------------------
# Twisting
# ---------------------------------------------------------------------------

def twist(H: HomHopfAlgebra, aut: LinearMap) -> HomHopfAlgebra:
    """Twist a Hom-Hopf algebra by a bialgebra automorphism.

    Produces m' = aut . m, Delta' = Delta . aut^{-1}, alpha' = aut . alpha,
    keeping unit, counit and antipode.  With an ordinary Hopf algebra
    (alpha = id) as input this realizes the standard twisting that turns a
    classical bialgebra into a monoidal Hom-bialgebra.
    """
    A = H.algebra
    try:
        aut_inv_candidate = aut.inverse()
    except ValueError:
        raise NotAutomorphism("twisting map is not invertible")
    aut2 = aut.tensor(aut)
    rep = Report("")
    if not check_maps(rep, "", [
            (aut @ A.mult, A.mult @ aut2, "commute with multiplication"),
            (H.comult @ aut, aut2 @ H.comult, "commute with comultiplication"),
            (H.counit @ aut, H.counit, "preserve the counit"),
            (aut @ A.unit, A.unit, "preserve the unit")]):
        raise NotAutomorphism(f"aut does not {rep.results[0].detail}")

    new_alpha = aut @ A.alpha
    return HomHopfAlgebra.build(A.space, aut @ A.mult, A.unit,
                                H.comult @ aut_inv_candidate, H.counit,
                                H.antipode, new_alpha, new_alpha.inverse())


def regular_comodule_algebra(H: HomHopfAlgebra) -> ComoduleAlgebra:
    """A = H coacting on itself by its comultiplication."""
    return ComoduleAlgebra(H.algebra, H, H.comult)
