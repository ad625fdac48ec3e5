"""Structure-constant Hom-algebras, Hom-coalgebras, Hom-Hopf algebras and
Hom-comodule algebras, with exhaustive axiom checkers and a twisting
constructor.

Every structure is a bundle of linear maps over a fixed labelled basis.
Checkers return a Report instead of raising: an invalid structure is data
for the caller to inspect (catalog and CLI loaders refuse on any failure).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import NotAutomorphism
from .linalg import (LinearMap, SCALAR_SPACE, Space, Vector, bilinear,
                     components, tensor_space, tensor_vec, vec_scale, vec_add)
from .report import Report
from .verify import check_identity


@dataclass(frozen=True)
class HomAlgebra:
    """A monoidal Hom-algebra (A, alpha): multiplication, unit, automorphism."""

    space: Space
    mult: LinearMap          # A (x) A -> A
    unit: Vector
    alpha: LinearMap
    alpha_inv: LinearMap

    @staticmethod
    def build(space: Space, mult: LinearMap, unit: Vector, alpha: LinearMap) -> "HomAlgebra":
        return HomAlgebra(space, mult, unit, alpha, alpha.inverse())

    def mul(self, x: Vector, y: Vector) -> Vector:
        return bilinear(self.mult, x, y)

    def a(self, x: Vector) -> Vector:
        return self.alpha.apply(x)

    def a_inv(self, x: Vector) -> Vector:
        return self.alpha_inv.apply(x)

    def basis_vector(self, i: int) -> Vector:
        return self.space.basis_vector(i)

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True)
class HomCoalgebra:
    """A monoidal Hom-coalgebra (C, gamma): comultiplication, counit, automorphism."""

    space: Space
    comult: LinearMap        # C -> C (x) C
    counit: LinearMap        # C -> k
    gamma: LinearMap
    gamma_inv: LinearMap

    @staticmethod
    def build(space: Space, comult: LinearMap, counit: LinearMap,
              gamma: LinearMap) -> "HomCoalgebra":
        return HomCoalgebra(space, comult, counit, gamma, gamma.inverse())

    def sweedler(self, x: Vector):
        """Yield (coeff, i, j) over the terms of Delta(x) = sum x1 (x) x2."""
        n = self.space.dim
        for (i, j), c in components(self.comult.apply(x), (n, n)):
            yield c, i, j

    def eps(self, x: Vector):
        return self.counit.apply(x)[0]

    def g(self, x: Vector) -> Vector:
        return self.gamma.apply(x)

    def g_inv(self, x: Vector) -> Vector:
        return self.gamma_inv.apply(x)

    @property
    def dim(self) -> int:
        return self.space.dim


@dataclass(frozen=True)
class HomHopfAlgebra:
    """A monoidal Hom-Hopf algebra: compatible Hom-bialgebra plus antipode.

    The antipode inverse is optional at construction, but every operation
    that needs a bijective antipode (quantum integrals and everything in
    the Galois layer) refuses to run without it.
    """

    algebra: HomAlgebra
    coalgebra: HomCoalgebra
    antipode: LinearMap
    antipode_inv: Optional[LinearMap]

    @staticmethod
    def build(algebra: HomAlgebra, coalgebra: HomCoalgebra,
              antipode: LinearMap) -> "HomHopfAlgebra":
        if algebra.space is not coalgebra.space and algebra.space != coalgebra.space:
            raise ValueError("algebra and coalgebra must share the underlying space")
        if not algebra.alpha.same_matrix(coalgebra.gamma):
            raise ValueError("Hopf structure needs gamma = alpha")
        try:
            s_inv = antipode.inverse()
        except ValueError:
            s_inv = None
        return HomHopfAlgebra(algebra, coalgebra, antipode, s_inv)

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def dim(self) -> int:
        return self.space.dim

    # convenience pass-throughs used all over the formula code
    def mul(self, x, y):
        return self.algebra.mul(x, y)

    def a(self, x):
        return self.algebra.a(x)

    def a_inv(self, x):
        return self.algebra.a_inv(x)

    def sweedler(self, x):
        return self.coalgebra.sweedler(x)

    def eps(self, x):
        return self.coalgebra.eps(x)

    def s(self, x):
        return self.antipode.apply(x)

    def s_inv(self, x):
        if self.antipode_inv is None:
            raise ValueError("this operation needs a bijective antipode")
        return self.antipode_inv.apply(x)

    @property
    def unit(self) -> Vector:
        return self.algebra.unit

    def require_bijective_antipode(self) -> None:
        if self.antipode_inv is None:
            raise ValueError("this operation needs a bijective antipode")


@dataclass(frozen=True)
class ComoduleAlgebra:
    """A right (H, alpha)-Hom-comodule algebra (A, beta) with coaction A -> A (x) H."""

    algebra: HomAlgebra
    hopf: HomHopfAlgebra
    coaction: LinearMap      # A -> A (x) H

    def rho(self, x: Vector):
        """Yield (coeff, i, j) over rho(x) = sum x0 (x) x1 in A (x) H."""
        for (i, j), c in components(self.coaction.apply(x),
                                    (self.algebra.dim, self.hopf.dim)):
            yield c, i, j

    @property
    def space(self) -> Space:
        return self.algebra.space

    @property
    def beta(self) -> LinearMap:
        return self.algebra.alpha

    @property
    def dim(self) -> int:
        return self.algebra.dim


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def check_hom_algebra(A: HomAlgebra) -> Report:
    """Exhaustive Definition-level check of the Hom-algebra axioms."""
    rep = Report(f"Hom-algebra axioms on {A.space.labels}")
    sp = A.space
    e = sp.basis_vector

    rep.record("alpha invertible", (A.alpha @ A.alpha_inv).is_identity())
    check_identity(rep, "alpha multiplicative: alpha(ab) = alpha(a)alpha(b)",
                   [sp, sp], sp,
                   lambda i, j: A.a(A.mul(e(i), e(j))),
                   lambda i, j: A.mul(A.a(e(i)), A.a(e(j))))
    rep.record("alpha(1) = 1", A.a(A.unit) == A.unit)
    check_identity(rep, "Hom-associativity: alpha(a)(bc) = (ab)alpha(c)",
                   [sp, sp, sp], sp,
                   lambda i, j, k: A.mul(A.a(e(i)), A.mul(e(j), e(k))),
                   lambda i, j, k: A.mul(A.mul(e(i), e(j)), A.a(e(k))))
    check_identity(rep, "unit law: a·1 = alpha(a)", [sp], sp,
                   lambda i: A.mul(e(i), A.unit), lambda i: A.a(e(i)))
    check_identity(rep, "unit law: 1·a = alpha(a)", [sp], sp,
                   lambda i: A.mul(A.unit, e(i)), lambda i: A.a(e(i)))
    return rep


def check_hom_coalgebra(C: HomCoalgebra) -> Report:
    rep = Report(f"Hom-coalgebra axioms on {C.space.labels}")
    sp = C.space
    e = sp.basis_vector
    cc = tensor_space(sp, sp)
    ccc = tensor_space(sp, sp, sp)
    n = sp.dim

    rep.record("gamma invertible", (C.gamma @ C.gamma_inv).is_identity())
    gamma2 = C.gamma.tensor(C.gamma)
    check_identity(rep, "Delta gamma = (gamma x gamma) Delta", [sp], cc,
                   lambda i: C.comult.apply(C.g(e(i))),
                   lambda i: gamma2.apply(C.comult.apply(e(i))))
    check_identity(rep, "eps gamma = eps", [sp], SCALAR_SPACE,
                   lambda i: (C.eps(C.g(e(i))),),
                   lambda i: (C.eps(e(i)),))

    def coassoc_lhs(i):
        # gamma^{-1}(c1) (x) Delta(c2)
        out = ccc.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(
                c, tensor_vec(C.g_inv(e(p)), C.comult.apply(e(q)))))
        return out

    def coassoc_rhs(i):
        # Delta(c1) (x) gamma(c2)
        out = ccc.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(
                c, tensor_vec(C.comult.apply(e(p)), C.g(e(q)))))
        return out

    check_identity(rep, "Hom-coassociativity", [sp], ccc, coassoc_lhs, coassoc_rhs)

    def counit_left(i):
        out = sp.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(c * C.eps(e(p)), e(q)))
        return out

    def counit_right(i):
        out = sp.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(c * C.eps(e(q)), e(p)))
        return out

    check_identity(rep, "counit law: eps(c1)c2 = gamma^{-1}(c)", [sp], sp,
                   counit_left, lambda i: C.g_inv(e(i)))
    check_identity(rep, "counit law: eps(c2)c1 = gamma^{-1}(c)", [sp], sp,
                   counit_right, lambda i: C.g_inv(e(i)))
    return rep


def check_hom_hopf(H: HomHopfAlgebra) -> Report:
    """Algebra + coalgebra axioms, bialgebra compatibility, antipode identities."""
    rep = Report(f"Hom-Hopf axioms on {H.space.labels}")
    rep.extend(check_hom_algebra(H.algebra), prefix="algebra: ")
    rep.extend(check_hom_coalgebra(H.coalgebra), prefix="coalgebra: ")

    sp = H.space
    e = sp.basis_vector
    cc = tensor_space(sp, sp)
    A, C = H.algebra, H.coalgebra

    def delta_of_product(i, j):
        return C.comult.apply(A.mul(e(i), e(j)))

    def product_of_deltas(i, j):
        out = cc.zero()
        for c1, p1, q1 in C.sweedler(e(i)):
            for c2, p2, q2 in C.sweedler(e(j)):
                out = vec_add(out, vec_scale(
                    c1 * c2, tensor_vec(A.mul(e(p1), e(p2)), A.mul(e(q1), e(q2)))))
        return out

    check_identity(rep, "Delta(ab) = a1 b1 (x) a2 b2", [sp, sp], cc,
                   delta_of_product, product_of_deltas)
    rep.record("Delta(1) = 1 (x) 1",
               C.comult.apply(A.unit) == tensor_vec(A.unit, A.unit))
    check_identity(rep, "eps(ab) = eps(a)eps(b)", [sp, sp], SCALAR_SPACE,
                   lambda i, j: (C.eps(A.mul(e(i), e(j))),),
                   lambda i, j: (C.eps(e(i)) * C.eps(e(j)),))
    rep.record("eps(1) = 1", C.eps(A.unit) == 1)

    def conv_left(i):
        out = sp.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(c, A.mul(H.s(e(p)), e(q))))
        return out

    def conv_right(i):
        out = sp.zero()
        for c, p, q in C.sweedler(e(i)):
            out = vec_add(out, vec_scale(c, A.mul(e(p), H.s(e(q)))))
        return out

    def eta_eps(i):
        return vec_scale(C.eps(e(i)), A.unit)

    # one check for both convolution sides, so a corrupted antipode entry
    # yields a single failure with a single witness
    both = Space(tuple(f"(S*id) {lab}" for lab in sp.labels)
                 + tuple(f"(id*S) {lab}" for lab in sp.labels))
    check_identity(rep, "antipode: S * id = id * S = unit eps", [sp], both,
                   lambda i: conv_left(i) + conv_right(i),
                   lambda i: eta_eps(i) + eta_eps(i))
    check_identity(rep, "S alpha = alpha S", [sp], sp,
                   lambda i: H.s(A.a(e(i))), lambda i: A.a(H.s(e(i))))
    return rep


def check_comodule_axioms(rep: Report, prefix: str, space: Space,
                          mu: LinearMap, mu_inv: LinearMap,
                          coaction: LinearMap, H: HomHopfAlgebra) -> None:
    """Definition 2.6 axioms for a right Hom-comodule (shared by A and modules)."""
    sp = space
    e = sp.basis_vector
    n, nh = sp.dim, H.dim
    mhh = tensor_space(sp, H.space, H.space)
    mh = tensor_space(sp, H.space)

    eh = H.space.basis_vector

    def rho_pairs(x):
        for (i, j), c in components(coaction.apply(x), (n, nh)):
            yield c, i, j

    def coassoc_lhs(i):
        # m00 (x) m01 (x) alpha^{-1}(m1)
        out = mhh.zero()
        for c, p, q in rho_pairs(e(i)):
            out = vec_add(out, vec_scale(
                c, tensor_vec(coaction.apply(e(p)), H.a_inv(eh(q)))))
        return out

    def coassoc_rhs(i):
        # mu^{-1}(m0) (x) Delta(m1)
        out = mhh.zero()
        for c, p, q in rho_pairs(e(i)):
            out = vec_add(out, vec_scale(
                c, tensor_vec(mu_inv.apply(e(p)), H.coalgebra.comult.apply(eh(q)))))
        return out

    check_identity(rep, prefix + "Hom-coassociativity of coaction", [sp], mhh,
                   coassoc_lhs, coassoc_rhs)

    def counit_side(i):
        out = sp.zero()
        for c, p, q in rho_pairs(e(i)):
            out = vec_add(out, vec_scale(c * H.eps(eh(q)), e(p)))
        return out

    check_identity(rep, prefix + "counit law: m0 eps(m1) = mu^{-1}(m)", [sp], sp,
                   counit_side, lambda i: mu_inv.apply(e(i)))
    mu_alpha = mu.tensor(H.algebra.alpha)
    check_identity(rep, prefix + "coaction intertwines: rho mu = (mu x alpha) rho",
                   [sp], mh,
                   lambda i: coaction.apply(mu.apply(e(i))),
                   lambda i: mu_alpha.apply(coaction.apply(e(i))))


def check_comodule_algebra(CA: ComoduleAlgebra) -> Report:
    rep = Report(f"Hom-comodule algebra axioms on {CA.space.labels}")
    A, H = CA.algebra, CA.hopf
    sp = A.space
    e = sp.basis_vector
    ah = tensor_space(sp, H.space)

    check_comodule_axioms(rep, "comodule: ", sp, A.alpha, A.alpha_inv,
                          CA.coaction, H)

    def rho_of_product(i, j):
        return CA.coaction.apply(A.mul(e(i), e(j)))

    def product_of_rhos(i, j):
        out = ah.zero()
        for c1, p1, q1 in CA.rho(e(i)):
            for c2, p2, q2 in CA.rho(e(j)):
                out = vec_add(out, vec_scale(
                    c1 * c2, tensor_vec(A.mul(e(p1), e(p2)), H.mul(e(q1), e(q2)))))
        return out

    check_identity(rep, "multiplicativity: rho(ab) = a0 b0 (x) a1 b1", [sp, sp], ah,
                   rho_of_product, product_of_rhos)
    rep.record("unitality: rho(1) = 1 (x) 1",
               CA.coaction.apply(A.unit) == tensor_vec(A.unit, H.unit))
    return rep


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
    A, C = H.algebra, H.coalgebra
    aut_inv_candidate = None
    try:
        aut_inv_candidate = aut.inverse()
    except ValueError:
        raise NotAutomorphism("twisting map is not invertible")
    aut2 = aut.tensor(aut)
    if not (aut @ A.mult).same_matrix(A.mult @ aut2):
        raise NotAutomorphism("aut does not commute with multiplication")
    if not (C.comult @ aut).same_matrix(aut2 @ C.comult):
        raise NotAutomorphism("aut does not commute with comultiplication")
    if not (C.counit @ aut).same_matrix(C.counit):
        raise NotAutomorphism("aut does not preserve the counit")
    if aut.apply(A.unit) != A.unit:
        raise NotAutomorphism("aut does not preserve the unit")

    new_alpha = aut @ A.alpha
    algebra = HomAlgebra(A.space, aut @ A.mult, A.unit, new_alpha,
                         new_alpha.inverse())
    coalgebra = HomCoalgebra(C.space, C.comult @ aut_inv_candidate, C.counit,
                             new_alpha, new_alpha.inverse())
    return HomHopfAlgebra.build(algebra, coalgebra, H.antipode)


def regular_comodule_algebra(H: HomHopfAlgebra) -> ComoduleAlgebra:
    """A = H coacting on itself by its comultiplication."""
    return ComoduleAlgebra(H.algebra, H, H.coalgebra.comult)
