"""Right Hom-modules and relative Hom-Hopf modules (Hom-associativity checked
on algebra generators), the induced structures G(M) = M (x) H and Gtilde(H)
= A (x) H, the tensor product X (x) N with an object of the Hom-category, and
the comparison isomorphism between the two module structures on A (x) H.
"""

from __future__ import annotations

from .linalg import (SCALAR_SPACE, LinearMap, Space, basis_inclusion,
                     product_after, swap_map, tensor_after, tensor_space)
from .records import _set, record, replace
from .report import Report
from .structures import (ComoduleAlgebra, HomAlgebra, algebra_generators,
                         check_comodule_axioms, check_hom_algebra)
from .verify import check_identity, check_maps


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

    @property
    def dim(self) -> int:
        return self.space.dim


# ---------------------------------------------------------------------------
# Axiom checkers
# ---------------------------------------------------------------------------

def check_hom_module(M: HomModule) -> Report:
    """mu invertible, Hom-associativity, the unit law and the intertwining
    law.  Hom-associativity is reduced (check_maps) to M (x) A (x) span(S),
    S = algebra_generators(A) (the zero space when S is empty, as for
    A = k), once the other three and A's check_hom_algebra hold; else, or
    if that fails, it is decided on M (x) A (x) A in blocks of the first
    factor, to the first that differs (the witness is the whole map's).  T =
    {b : (m.a).alpha(b) = mu(m).(ab) for all m, a} is then A: a subspace
    holding 1 (unit laws, intertwining), alpha^{+-1}-stable (apply mu^{+-1}
    at (m, a, b)) and closed under products: for b, c in T, n = mu^{-1}(m.a)
    and a' = alpha^{-1}(a), mu(m).(a(bc)) = mu(m).((a'b)alpha(c)) =
    (m.(a'b)).alpha^2(c) = (n.alpha(b)).alpha^2(c) = (m.a).alpha(bc), by
    A's Hom-associativity and alpha(c), b, alpha(c) in T."""
    rep, laws = Report(f"Hom-module axioms on dim {M.dim}"), Report("")
    A, sp, act, mu = M.over, M.space, M.action, M.mu
    asp, idm, ida = A.space, *map(LinearMap.identity, (sp, A.space))

    def assoc(ax, mx, b) -> tuple:  # on X (x) A (x) B; ax, mx: act, mu on X
        return (act @ ax.tensor(A.alpha @ b),
                act @ mx.tensor(A.mult @ ida.tensor(b)))

    gate = check_maps(rep, "mu invertible", [(M.mu @ M.mu_inv, idm)])
    gate &= check_identity(laws, "unit law: m.1 = mu(m)", [sp], sp,
                           act @ tensor_after(idm, A.unit, idm), mu)
    gate &= check_identity(
        laws, "action intertwines: mu(m.a) = mu(m).alpha(a)", [sp, asp], sp,
        mu @ act, act @ mu.tensor(A.alpha))
    blocks = (basis_inclusion(sp, [i]) for i in range(M.dim))
    check_maps(rep, "Hom-associativity: (m.a).alpha(b) = mu(m).(ab)",
               (assoc(act @ x.tensor(ida), mu @ x, ida) for x in blocks),
               reduced=gate and check_hom_algebra(A).ok and [assoc(
                   act, mu, basis_inclusion(asp, algebra_generators(A)))])
    rep.extend(laws)
    return rep


def check_rel_hopf(M: RelHopfModule) -> Report:
    """Module axioms + comodule axioms + the compatibility condition.  M
    keeps the report, which later calls return and callers only read."""
    if "axioms" in vars(M):
        return M.axioms
    rep = Report(f"relative Hom-Hopf module axioms on dim {M.dim}")
    rep.extend(check_hom_module(M.as_module()), prefix="module: ")
    CA = M.over
    H = CA.hopf
    check_maps(rep, "comodule: mu invertible",
               [(M.mu @ M.mu_inv, LinearMap.identity(M.space))])
    check_comodule_axioms(rep, M.space, M.mu, M.mu_inv, M.coaction, H)
    sp, asp = M.space, CA.space
    check_identity(rep, "compatibility: rho(m.a) = m0.a0 (x) m1 a1",
                   [sp, asp], tensor_space(sp, H.space),
                   M.coaction @ M.action,
                   product_after(M.action, H.algebra.mult, M.coaction,
                                 CA.coaction, (sp, H.space, asp, H.space)))
    _set(M, "axioms", rep)
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
    action = product_after(M.action, H.algebra.mult, LinearMap.identity(sp),
                           CA.coaction, (M.space, H.space, CA.space, H.space))
    coaction = M.mu_inv.tensor(tensor_after(
        LinearMap.identity(H.space), H.algebra.alpha, H.comult))
    mu = M.mu.tensor(H.algebra.alpha)
    return RelHopfModule(sp, mu, M.mu_inv.tensor(H.algebra.alpha_inv),
                         action, coaction, CA)


def regular_induced(CA: ComoduleAlgebra) -> RelHopfModule:
    """G(A) = A (x) H with the standard induced structures, kept on CA."""
    if "induced" not in vars(CA):
        _set(CA, "induced", induce_G(regular_rel_hopf(CA).as_module(), CA))
    return CA.induced


def tensor_module(X: RelHopfModule, nu: LinearMap, nu_inv: LinearMap,
                  b: LinearMap | None = None) -> RelHopfModule:
    """X (x) N for a relative Hom-Hopf module X and an object (N, nu) of the
    Hom-category, with (x (x) n).b = x.beta^{-1}(b) (x) nu(n),
    rho(x (x) n) = (x0 (x) nu^{-1}(n)) (x) alpha(x1) and automorphism
    mu_X (x) nu.  Given b: B -> A, the action is given on (X (x) N) (x) B
    only, as morphism_identities(..., on=b) reads it.

    The twists come from reassociating (x (x) n) (x) b and
    (x0 (x) x1) (x) n through the Hom-associator.  Theorem 4.8's
    A (x) H (x) M is G(A) (x) M and the source of Theorem 5.7's xi is
    A (x) A.  The induction N (x)_B A builds its own ambient N (x) A.

    Whether X (x) N passes check_rel_hopf does not depend on the object
    (N, nu), nu^{-1} being nu's inverse, once it passes for (k, 2) and
    (k, 3).  The action, coaction, mu and mu^{-1} of X (x) N are maps on X
    tensored with nu, nu^{-1}, nu and nu^{-1}.  Every identity that
    check_rel_hopf decides (the full ones; check_hom_module's reduced
    Hom-associativity is equivalent to its full one) is one composite
    against one composite of these, of A's and H's maps and of leg
    products product_after(f, g, x, y, (P, Q, R, S)) that carry N's leg
    along.  With N's leg moved last, its
    sides are f (x) nu^a and g (x) nu^b, f and g maps on X, a and b the
    signed count of structure maps that N's leg passes:
      mu invertible (module, comodule)  mu mu^{-1} = id              (0, 0)
      Hom-associativity        (m.a).alpha(b) = mu(m).(ab)           (2, 2)
      unit law                 m.1 = mu(m)                           (1, 1)
      action intertwines       mu(m.a) = mu(m).alpha(a)              (2, 2)
      Hom-coassociativity      (rho x alpha^{-1}) rho
                               = (mu^{-1} x Delta) rho             (-2, -2)
      counit law               m0 eps(m1) = mu^{-1}(m)             (-1, -1)
      coaction intertwines     rho mu = (mu x alpha) rho             (0, 0)
      compatibility            rho(m.a) = m0.a0 (x) m1 a1            (0, 0)
    On (k, c) an identity reads f c^a = g c^b.  If it holds for c = 2 and
    c = 3, then either a = b and f = g, or a != b and f = g = 0 (2^d != 3^d
    for d != 0); either way f (x) nu^a = g (x) nu^b for every (N, nu).  So
    integrals.thm48_check decides Theorem 4.8's A (x) H (x) M for every M
    at once.
    """
    CA = X.over
    sp, N = X.space, nu.domain
    idxn = LinearMap.identity(tensor_space(sp, N))
    beta_inv = CA.algebra.alpha_inv if b is None else CA.algebra.alpha_inv @ b
    action = product_after(X.action, nu, idxn, beta_inv,
                           (sp, N, CA.space, SCALAR_SPACE))
    coaction = product_after(idxn, CA.hopf.algebra.alpha, X.coaction, nu_inv,
                             (sp, CA.hopf.space, N, SCALAR_SPACE))
    return RelHopfModule(tensor_space(sp, N), X.mu.tensor(nu),
                         X.mu_inv.tensor(nu_inv), action, coaction, CA)


def induce_Gtilde(CA: ComoduleAlgebra) -> RelHopfModule:
    """Gtilde(H) = A (x) H with (a (x) h).b = a beta^{-1}(b) (x) alpha(h)
    and rho(a (x) h) = (a0 (x) h1) (x) h2 a1.

    The action and automorphism are those of tensor_module(A, alpha); the
    coaction is the diagonal one, multiplying the H-outputs in the order
    h2 a1.  With the beta^{-1}/alpha twists on the action dropped, or with
    the product taken as a1 h2, the compatibility axiom
    rho((a (x) h).b) = ((a (x) h)0 . b0) (x) (a (x) h)1 b1 fails already
    for four-dimensional noncommutative H.
    """
    H = CA.hopf
    amb = tensor_module(regular_rel_hopf(CA), H.algebra.alpha,
                        H.algebra.alpha_inv)
    coaction = product_after(LinearMap.identity(amb.space),
                             H.algebra.mult @ swap_map(H.space, H.space),
                             CA.coaction, H.comult,
                             (CA.space, H.space, H.space, H.space))
    return replace(amb, coaction=coaction)


# ---------------------------------------------------------------------------
# Adjunction unit and morphism identities
# ---------------------------------------------------------------------------

def adjunction_unit(M: RelHopfModule) -> LinearMap:
    """eta_M = rho_M : M -> G(F(M))."""
    return M.coaction


def morphism_identities(f: LinearMap, M, N, laws: str = "mu A H",
                        on: LinearMap | None = None):
    """A generator of the identities (lhs, rhs, label) of a morphism
    f: M -> N, one per law in laws: "mu" nu . f = f . mu (objects of the
    Hom-category are pairs (M, mu)), "A" f . action_M = action_N . (f x id_A)
    and "H" rho_N . f = (f x id_H) . rho_M.

    With on the inclusion of span(S), S = algebra_generators(A), "A" is
    read on M (x) span(S), where M's action is given; that decides it once
    M, N are Hom-modules and "mu" holds (decided first), as L = {a : f(m.a)
    = f(m).a} holds 1 (f(m.1) = nu(f(m))), is beta^{+-1}-stable and closed
    under products: f(mu(m).(ab)) = f((m.a).beta(b)) = f(mu(m)).(ab)."""
    for law in laws.split():
        if law == "mu":
            yield N.mu @ f, f @ M.mu, "intertwines mu"
        elif law == "A":
            A = M.over.algebra if isinstance(M, RelHopfModule) else M.over
            yield (f @ M.action, N.action @ f.tensor(
                on or LinearMap.identity(A.space)), "A-linear")
        else:
            idh = LinearMap.identity(N.over.hopf.space)
            yield N.coaction @ f, tensor_after(f, idh, M.coaction), "colinear"


def is_morphism(f: LinearMap, M: RelHopfModule, N: RelHopfModule) -> bool:
    return check_maps(Report(""), "", morphism_identities(f, M, N))


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
    return product_after(
        A.alpha, H.algebra.mult @ H.algebra.alpha.tensor(t)
        @ swap_map(H.space, H.space), CA.coaction,
        LinearMap.identity(H.space), (A.space, H.space, SCALAR_SPACE, H.space))


def prop31_check(CA: ComoduleAlgebra) -> Report:
    """Certify that u and v are mutually inverse morphisms between the two
    induced module structures on A (x) H: u : Gtilde(H) -> G(A) and
    v : G(A) -> Gtilde(H)."""
    rep = Report("comparison isomorphism G(A) ~ Gtilde(H)")
    GA = regular_induced(CA)
    GtH = induce_Gtilde(CA)
    rep.extend(check_rel_hopf(GA), "G(A)")
    rep.extend(check_rel_hopf(GtH), "Gtilde(H)")
    u = prop31_u(CA)
    v = prop31_v(CA)
    ident = LinearMap.identity(GA.space)
    check_maps(rep, "u . v = id", [(u @ v, ident)])
    check_maps(rep, "v . u = id", [(v @ u, ident)])
    check_maps(rep, "u is a morphism Gtilde(H) -> G(A)",
               morphism_identities(u, GtH, GA))
    check_maps(rep, "v is a morphism G(A) -> Gtilde(H)",
               morphism_identities(v, GA, GtH))
    return rep
