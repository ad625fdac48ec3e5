"""Right Hom-modules, Hom-comodules and relative Hom-Hopf modules, the
induced structures M (x) H and A (x) N, the adjunction unit/counit, and
the comparison isomorphism between the two module structures on A (x) H.
"""

from __future__ import annotations

from .linalg import (LinearMap, Space, permute_factors, tensor_after,
                     tensor_space)
from .records import record, replace
from .report import Report
from .structures import (ComoduleAlgebra, HomAlgebra, HomHopfAlgebra,
                         check_comodule_axioms)
from .verify import check_identity


@record(frozen=True)
class HomModule:
    """A right (A, beta)-Hom-module (M, mu)."""

    space: Space
    mu: LinearMap
    mu_inv: LinearMap
    action: LinearMap        # M (x) A -> M
    over: HomAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim


@record(frozen=True)
class HomComodule:
    """A right (H, alpha)-Hom-comodule (N, nu)."""

    space: Space
    mu: LinearMap
    mu_inv: LinearMap
    coaction: LinearMap      # N -> N (x) H
    over: HomHopfAlgebra

    @property
    def dim(self) -> int:
        return self.space.dim


@record(frozen=True)
class RelHopfModule:
    """Simultaneously a right A-module and right H-comodule over the pair
    (H, A), with the compatibility rho(m.a) = m0.a0 (x) m1 a1."""

    space: Space
    mu: LinearMap
    mu_inv: LinearMap
    action: LinearMap        # M (x) A -> M
    coaction: LinearMap      # M -> M (x) H
    over: ComoduleAlgebra

    def as_module(self) -> HomModule:
        return HomModule(self.space, self.mu, self.mu_inv, self.action,
                         self.over.algebra)

    def as_comodule(self) -> HomComodule:
        return HomComodule(self.space, self.mu, self.mu_inv, self.coaction,
                           self.over.hopf)

    @property
    def dim(self) -> int:
        return self.space.dim


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def check_hom_module(M: HomModule) -> Report:
    rep = Report(f"Hom-module axioms on dim {M.dim}")
    A = M.over
    sp, asp = M.space, A.space
    act, mu = M.action, M.mu
    idm = LinearMap.identity(sp)

    rep.record("mu invertible", (M.mu @ M.mu_inv).is_identity())
    check_identity(rep, "Hom-associativity: (m.a).alpha(b) = mu(m).(ab)",
                   [sp, asp, asp], sp,
                   act @ act.tensor(A.alpha), act @ mu.tensor(A.mult))
    check_identity(rep, "unit law: m.1 = mu(m)", [sp], sp,
                   act @ tensor_after(idm, A.unit_map, idm), mu)
    check_identity(rep, "action intertwines: mu(m.a) = mu(m).alpha(a)",
                   [sp, asp], sp, mu @ act, act @ mu.tensor(A.alpha))
    return rep


def check_hom_comodule(N: HomComodule) -> Report:
    rep = Report(f"Hom-comodule axioms on dim {N.dim}")
    rep.record("mu invertible", (N.mu @ N.mu_inv).is_identity())
    check_comodule_axioms(rep, "", N.space, N.mu, N.mu_inv, N.coaction, N.over)
    return rep


def check_rel_hopf(M: RelHopfModule) -> Report:
    """Module axioms + comodule axioms + the compatibility condition."""
    rep = Report(f"relative Hom-Hopf module axioms on dim {M.dim}")
    rep.extend(check_hom_module(M.as_module()), prefix="module: ")
    rep.extend(check_hom_comodule(M.as_comodule()), prefix="comodule: ")

    CA = M.over
    H = CA.hopf
    sp, asp = M.space, CA.space
    check_identity(rep, "compatibility: rho(m.a) = m0.a0 (x) m1 a1",
                   [sp, asp], tensor_space(sp, H.space),
                   M.coaction @ M.action,
                   tensor_after(M.action, H.algebra.mult, permute_factors(
                       M.coaction.tensor(CA.coaction),
                       (sp, H.space, asp, H.space), (0, 2, 1, 3))))
    return rep


# ---------------------------------------------------------------------------
# Induced structures
# ---------------------------------------------------------------------------

def regular_rel_hopf(CA: ComoduleAlgebra) -> RelHopfModule:
    """A itself with the regular action and its coaction."""
    return RelHopfModule(CA.space, CA.algebra.alpha, CA.algebra.alpha_inv,
                         CA.algebra.mult, CA.coaction, CA)


def induce_G(M: HomModule, CA: ComoduleAlgebra) -> RelHopfModule:
    """G(M) = M (x) H with (m (x) h).a = m.a0 (x) h a1 and
    rho(m (x) h) = (mu^{-1}(m) (x) h1) (x) alpha(h2)."""
    H = CA.hopf
    if M.over is not CA.algebra and not M.over.mult.same_matrix(CA.algebra.mult):
        raise ValueError("module must live over the comodule algebra's algebra")
    sp = tensor_space(M.space, H.space)
    action = tensor_after(M.action, H.algebra.mult, permute_factors(
        LinearMap.identity(sp).tensor(CA.coaction),
        (M.space, H.space, CA.space, H.space), (0, 2, 1, 3)))
    coaction = M.mu_inv.tensor(tensor_after(
        LinearMap.identity(H.space), H.algebra.alpha, H.coalgebra.comult))
    mu = M.mu.tensor(H.algebra.alpha)
    return RelHopfModule(sp, mu, M.mu_inv.tensor(H.algebra.alpha_inv),
                         action, coaction, CA)


def regular_induced(CA: ComoduleAlgebra) -> RelHopfModule:
    """G(A) = A (x) H with the standard induced structures."""
    return induce_G(regular_rel_hopf(CA).as_module(), CA)


def tensor_module(X: RelHopfModule, nu: LinearMap,
                  nu_inv: LinearMap) -> RelHopfModule:
    """X (x) N for a relative Hom-Hopf module X and an object (N, nu) of the
    Hom-category, with (x (x) n).b = x.beta^{-1}(b) (x) nu(n),
    rho(x (x) n) = (x0 (x) nu^{-1}(n)) (x) alpha(x1) and automorphism
    mu_X (x) nu.

    The twists come from reassociating (x (x) n) (x) b and
    (x0 (x) x1) (x) n through the Hom-associator.  Theorem 4.8's
    A (x) H (x) M is G(A) (x) M, the source of Theorem 5.7's xi is
    A (x) A, and the ambient of the induction A (x)_B N is A (x) N.
    """
    CA = X.over
    sp, N = X.space, nu.domain
    action = tensor_after(X.action, nu, permute_factors(
        LinearMap.identity(tensor_space(sp, N)).tensor(CA.algebra.alpha_inv),
        (sp, N, CA.space), (0, 2, 1)))
    coaction = permute_factors(
        tensor_after(LinearMap.identity(sp), CA.hopf.algebra.alpha,
                     X.coaction).tensor(nu_inv),
        (sp, CA.hopf.space, N), (0, 2, 1))
    return RelHopfModule(tensor_space(sp, N), X.mu.tensor(nu),
                         X.mu_inv.tensor(nu_inv), action, coaction, CA)


def induce_Gtilde(N: HomComodule, CA: ComoduleAlgebra) -> RelHopfModule:
    """Gtilde(N) = A (x) N with (a (x) n).b = a beta^{-1}(b) (x) nu(n) and
    rho(a (x) n) = (a0 (x) n0) (x) n1 a1.

    The action and automorphism are those of tensor_module(A, nu); the
    coaction is the diagonal one, multiplying the H-outputs in the order
    n1 a1.  With the beta^{-1}/nu twists on the action dropped, or with
    the product taken as a1 n1, the compatibility axiom
    rho((a (x) n).b) = ((a (x) n)0 . b0) (x) (a (x) n)1 b1 fails already
    for four-dimensional noncommutative H.
    """
    H = CA.hopf
    amb = tensor_module(regular_rel_hopf(CA), N.mu, N.mu_inv)
    coaction = tensor_after(LinearMap.identity(amb.space), H.algebra.mult,
                            permute_factors(
                                CA.coaction.tensor(N.coaction),
                                (CA.space, H.space, N.space, H.space),
                                (0, 2, 3, 1)))
    return replace(amb, coaction=coaction)


def regular_comodule(H: HomHopfAlgebra) -> HomComodule:
    """H as a right comodule over itself via its comultiplication."""
    return HomComodule(H.space, H.coalgebra.gamma, H.coalgebra.gamma_inv,
                       H.coalgebra.comult, H)


# ---------------------------------------------------------------------------
# Adjunction unit / counit and morphism predicates
# ---------------------------------------------------------------------------

def adjunction_unit(M: RelHopfModule) -> LinearMap:
    """eta_M = rho_M : M -> G(F(M))."""
    return M.coaction


def adjunction_counit(N: HomModule, H: HomHopfAlgebra) -> LinearMap:
    """delta_N : N (x) H -> N, n (x) h -> eps(h) nu(n).

    The nu-twist makes delta_N right A-linear and closes both triangle
    identities exactly; the untwisted variant only closes them up to nu.
    """
    # nu (x) eps lands in N (x) k, whose basis is N's
    return LinearMap(tensor_space(N.space, H.space), N.space,
                     N.mu.tensor(H.coalgebra.counit).cols)


def is_colinear(f: LinearMap, M, N) -> bool:
    """rho_N . f = (f x id_H) . rho_M, entry-exactly."""
    H = N.over.hopf if isinstance(N, RelHopfModule) else N.over
    idh = LinearMap.identity(H.space)
    return (N.coaction @ f).same_matrix(f.tensor(idh) @ M.coaction)


def is_alinear(f: LinearMap, M, N) -> bool:
    """f . action_M = action_N . (f x id_A)."""
    A = M.over.algebra if isinstance(M, RelHopfModule) else M.over
    ida = LinearMap.identity(A.space)
    return (f @ M.action).same_matrix(N.action @ f.tensor(ida))


def is_intertwining(f: LinearMap, M, N) -> bool:
    """nu . f = f . mu (objects of the Hom-category are pairs (M, mu))."""
    return (N.mu @ f).same_matrix(f @ M.mu)


def is_morphism(f: LinearMap, M: RelHopfModule, N: RelHopfModule) -> bool:
    return (is_intertwining(f, M, N) and is_alinear(f, M, N)
            and is_colinear(f, M, N))


def triangle_identities_hold(M: RelHopfModule, N: HomModule,
                             CA: ComoduleAlgebra) -> bool:
    """G(delta_N) . eta_{G(N)} = id and delta_{F(M)} . F(eta_M) = id."""
    H = CA.hopf
    GN = induce_G(N, CA)
    delta_N = adjunction_counit(N, H)
    g_delta = delta_N.tensor(LinearMap.identity(H.space))
    first = (g_delta @ GN.coaction).is_identity()
    delta_FM = adjunction_counit(M.as_module(), H)
    second = (delta_FM @ M.coaction).is_identity()
    return first and second


# ---------------------------------------------------------------------------
# Proposition: G(A) and Gtilde(H) are isomorphic on A (x) H
# ---------------------------------------------------------------------------

def prop31_u(CA: ComoduleAlgebra) -> LinearMap:
    """u(a (x) h) = beta(a0) (x) alpha(h) a1, a morphism Gtilde(H) -> G(A).

    The alpha on the middle leg is forced once alpha is not the identity:
    the variants with h or alpha^{-1}(h) in its place are still bijective
    but fail colinearity for the Gtilde(H) coaction on a twisted group
    algebra with nontrivial alpha.
    """
    return _prop31_map(CA, LinearMap.identity(CA.hopf.space))


def prop31_v(CA: ComoduleAlgebra) -> LinearMap:
    """v(a (x) h) = beta(a0) (x) alpha(h) S^{-1}(a1), the two-sided inverse
    of u and a morphism G(A) -> Gtilde(H).

    The inverse antipode is what makes u and v mutually inverse for every
    Hopf algebra with bijective antipode; a variant with S in place of
    S^{-1} only inverts u when the coproduct is cocommutative, since it
    relies on S(c2) c1 = eps(c) 1.
    """
    H = CA.hopf
    H.require_bijective_antipode()
    return _prop31_map(CA, H.antipode_inv)


def _prop31_map(CA: ComoduleAlgebra, t: LinearMap) -> LinearMap:
    """a (x) h -> beta(a0) (x) alpha(h) t(a1)."""
    A, H = CA.algebra, CA.hopf
    return tensor_after(
        A.alpha, H.algebra.mult @ H.algebra.alpha.tensor(t),
        permute_factors(CA.coaction.tensor(LinearMap.identity(H.space)),
                        (A.space, H.space, H.space), (0, 2, 1)))


def prop31_check(CA: ComoduleAlgebra) -> Report:
    """Certify that u and v are mutually inverse morphisms between the two
    induced module structures on A (x) H: u : Gtilde(H) -> G(A) and
    v : G(A) -> Gtilde(H)."""
    rep = Report("comparison isomorphism G(A) ~ Gtilde(H)")
    GA = regular_induced(CA)
    GtH = induce_Gtilde(regular_comodule(CA.hopf), CA)
    rep.extend(check_rel_hopf(GA), "G(A)")
    rep.extend(check_rel_hopf(GtH), "Gtilde(H)")
    u = prop31_u(CA)
    v = prop31_v(CA)
    rep.record("u . v = id", (u @ v).is_identity())
    rep.record("v . u = id", (v @ u).is_identity())
    rep.record("u is a morphism Gtilde(H) -> G(A)", is_morphism(u, GtH, GA))
    rep.record("v is a morphism G(A) -> Gtilde(H)", is_morphism(v, GA, GtH))
    return rep
