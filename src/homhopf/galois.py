"""Coinvariants, quantum traces, balanced tensor products, the canonical
Galois map, and the adjunction machinery behind the affineness criterion.

Everything here is built from maps.  A structure map of the coinvariants
is a composite with the embedding B -> A, read in B's coordinates off the
pivots of its RREF basis (Subspace.coordinates).  The one balanced tensor
product, N (x)_B A for a right B-module N, is linalg.quotient_by(rel), the
cokernel of one relation map rel, and a map descends to it when its
composite with bt.rel is zero.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from .errors import StructureDoesNotDescend
from .integrals import QuantumIntegral, total_quantum_hypothesis
from .linalg import (SCALAR_SPACE, LinearMap, QuotientSpace, Space, Subspace,
                     kernel_basis, product_after, quotient_by, rank, span,
                     swap_map, tensor_after, tensor_space)
from .modules import (HomModule, RelHopfModule, check_rel_hopf,
                      morphism_identities, regular_induced, regular_rel_hopf,
                      tensor_module)
from .records import record
from .report import Report
from .structures import (ComoduleAlgebra, HomAlgebra, HomHopfAlgebra,
                         regular_comodule_algebra)
from .verify import check_maps, record_suite


# ---------------------------------------------------------------------------
# Coinvariants
# ---------------------------------------------------------------------------

def coinvariant_subspace(space: Space, mu_inv: LinearMap,
                         coaction: LinearMap, H: HomHopfAlgebra) -> Subspace:
    """Exact kernel of rho(m) - mu^{-1}(m) (x) 1_H."""
    insert_unit = tensor_after(mu_inv, H.algebra.unit,
                               LinearMap.identity(space))
    return span(space, kernel_basis(coaction - insert_unit))


@record(frozen=True)
class CoinvariantAlgebra:
    """B = A^{coH} with its induced multiplication, unit, and automorphism."""

    of: ComoduleAlgebra
    subspace: Subspace
    algebra: HomAlgebra      # structure on subspace coordinates
    embed: LinearMap         # B -> A

    @property
    def dim(self) -> int:
        return self.algebra.dim

    @property
    def left_action(self) -> LinearMap:
        """B (x) A -> A, b (x) a -> b a."""
        A = self.of.algebra
        return A.mult @ self.embed.tensor(LinearMap.identity(A.space))

    @property
    def right_action(self) -> LinearMap:
        """A (x) B -> A, a (x) b -> a b."""
        A = self.of.algebra
        return A.mult @ LinearMap.identity(A.space).tensor(self.embed)


def _restrict(sub: Subspace, f: LinearMap, space: Space,
              error: str) -> LinearMap:
    """f read in the coordinates of sub; raises ValueError(error) when f
    does not land in sub."""
    g = sub.coordinates(f, space)
    if g is None:
        raise ValueError(error)
    return g


def coinvariants(CA: ComoduleAlgebra) -> CoinvariantAlgebra:
    """B = {a : rho(a) = beta^{-1}(a) (x) 1_H} as a Hom-subalgebra of A."""
    A = CA.algebra
    sub = coinvariant_subspace(A.space, A.alpha_inv, CA.coaction, CA.hopf)
    if sub.dim == 0:
        raise ValueError("coinvariants are zero; B must contain 1_A")
    bspace = Space(tuple(f"b{i}" for i in range(sub.dim)))
    embed = sub.embedding(bspace)
    unit = _restrict(sub, A.unit, bspace,
                     "1_A is not coinvariant; coaction is not unital")
    mult = _restrict(sub, A.mult @ embed.tensor(embed), bspace,
                     "coinvariants are not closed under multiplication")
    beta_b = _restrict(sub, A.alpha @ embed, bspace,
                       "coinvariants are not beta-stable")
    algebra = HomAlgebra(bspace, mult, unit, beta_b, beta_b.inverse())
    return CoinvariantAlgebra(CA, sub, algebra, embed)


def coinvariant_module(M: RelHopfModule,
                       B: CoinvariantAlgebra) -> tuple[HomModule, Subspace]:
    """M^{coH}, maybe zero, as a right B-Hom-module in subspace coordinates."""
    sub = coinvariant_subspace(M.space, M.mu_inv, M.coaction, M.over.hopf)
    cspace = Space(tuple(f"c{i}" for i in range(sub.dim)))
    embed = sub.embedding(cspace)
    action = _restrict(sub, M.action @ embed.tensor(B.embed), cspace,
                       "coinvariants are not closed under the B-action")
    mu = _restrict(sub, M.mu @ embed, cspace, "coinvariants are not mu-stable")
    return HomModule(cspace, mu, mu.inverse(), action, B.algebra), sub


# ---------------------------------------------------------------------------
# Quantum traces
# ---------------------------------------------------------------------------

def quantum_trace_left(CA: ComoduleAlgebra, gamma: QuantumIntegral) -> LinearMap:
    """t^l(a) = beta(a0) gamma(a1)(1_H); B-valued, restricting to the
    identity on B.

    By beta-compatibility this is a0 gamma(alpha^{-1}(a1))(1_H).  The beta
    is needed once beta is not the identity: a0 gamma(a1)(1_H) lands in B
    for some total quantum integrals of kC3-twisted but not for all of
    them, and for none after a change of basis."""
    A, H = CA.algebra, CA.hopf
    idh = LinearMap.identity(H.space)
    at_unit = gamma.gamma_hat @ tensor_after(idh, H.algebra.unit, idh)
    return A.mult @ tensor_after(A.alpha, at_unit, CA.coaction)


def quantum_trace_right(CA: ComoduleAlgebra, gamma: QuantumIntegral) -> LinearMap:
    """t^r(a) = gamma(1_H)(S^{-1}(alpha^2(a1))) beta(a0)."""
    A, H = CA.algebra, CA.hopf
    H.require_bijective_antipode()
    al = H.algebra.alpha
    from_unit = gamma.gamma_hat @ H.algebra.unit.tensor(
        H.antipode_inv @ al @ al)
    return A.mult @ tensor_after(from_unit, A.alpha,
                                 swap_map(A.space, H.space) @ CA.coaction)


def prop51_maps(CA: ComoduleAlgebra,
                gamma: QuantumIntegral) -> tuple[LinearMap, LinearMap]:
    """lam(a (x) h) = a0 gamma(a1)(h) and
    Lam(a (x) h) = lam(1_A (x) alpha^{-1}(h) S^{-1}(a1)) beta(a0),
    both maps A (x) H -> A."""
    A, H = CA.algebra, CA.hopf
    H.require_bijective_antipode()
    idh, flip = LinearMap.identity(H.space), swap_map(H.space, H.space)
    lam = A.mult @ tensor_after(LinearMap.identity(A.space), gamma.gamma_hat,
                                CA.coaction.tensor(idh))
    # a (x) h -> a1 (x) h (x) a0 -> lam(1_A (x) arg(a1 (x) h)) (x) beta(a0)
    arg = H.algebra.mult @ H.algebra.alpha_inv.tensor(H.antipode_inv) @ flip
    big = A.mult @ product_after(
        lam @ A.unit.tensor(arg), A.alpha,
        swap_map(A.space, H.space) @ CA.coaction, idh,
        (H.space, A.space, H.space, SCALAR_SPACE))
    return lam, big


# ---------------------------------------------------------------------------
# Balanced tensor products
# ---------------------------------------------------------------------------

def balanced_tensor(N: HomModule, B: CoinvariantAlgebra) -> QuotientSpace:
    """N (x)_B A for a right B-module N, B in its own coordinates: the
    cokernel of the Hom-twisted balancing relations
    (n.b) (x) a - nu(n) (x) b beta^{-1}(a), a map N (x) B (x) A -> N (x) A."""
    A = B.of.algebra
    idb = LinearMap.identity(B.algebra.space)
    return quotient_by(N.action.tensor(LinearMap.identity(A.space))
                       - N.mu.tensor(B.left_action @ idb.tensor(A.alpha_inv)))


def _require_descends(f: LinearMap, rel: LinearMap, what: str) -> None:
    if any((f @ rel).scaled[1]):
        raise StructureDoesNotDescend(
            f"{what} does not vanish on a balancing relation")


def descend_linear(f: LinearMap, bt: QuotientSpace, what: str) -> LinearMap:
    """Descend f: bt.rel.codomain -> Z through the quotient after verifying
    that f kills every balancing relation."""
    _require_descends(f, bt.rel, what)
    return f @ bt.section


def descend_module(amb: RelHopfModule, bt: QuotientSpace,
                   what: str) -> RelHopfModule:
    """Descend the action, coaction and automorphism of amb, a relative Hopf
    module on bt.rel.codomain, to the quotient, after verifying that
    each one kills every balancing relation."""
    CA = amb.over
    ida = LinearMap.identity(CA.space)
    proj, sec = bt.projection, bt.section
    act = proj @ amb.action
    _require_descends(act, bt.rel.tensor(ida), f"the A-action on {what}")
    coaction = descend_linear(
        proj.tensor(LinearMap.identity(CA.hopf.space)) @ amb.coaction, bt,
        f"the coaction on {what}")
    mu = descend_linear(proj @ amb.mu, bt, f"the automorphism of {what}")
    return RelHopfModule(bt.space, mu, mu.inverse(), act @ sec.tensor(ida),
                         coaction, CA)


# ---------------------------------------------------------------------------
# A (x)_B A and the canonical Galois map
# ---------------------------------------------------------------------------

def balanced_tensor_AA(CA: ComoduleAlgebra, B: CoinvariantAlgebra
                       ) -> tuple[QuotientSpace, RelHopfModule]:
    """A (x)_B A, the induction of A as a right B-module."""
    A = CA.algebra
    return induction(HomModule(A.space, A.alpha, A.alpha_inv, B.right_action,
                               B.algebra), B)


def galois_psi_ambient(CA: ComoduleAlgebra) -> LinearMap:
    """psi~(a (x) b) = beta^{-1}(a) b0 (x) alpha(b1) on A (x) A."""
    A = CA.algebra
    return tensor_after(A.mult, CA.hopf.algebra.alpha,
                        A.alpha_inv.tensor(CA.coaction))


@record(frozen=True)
class GaloisMap:
    """The canonical map psi: A (x)_B A -> A (x) H with its classification."""

    psi: LinearMap
    classification: str      # "bijective" | "surjective-only" | "neither"
    rank: int

    @property
    def surjective(self) -> bool:
        return self.classification in ("bijective", "surjective-only")


def canonical_psi(CA: ComoduleAlgebra, bt: QuotientSpace) -> GaloisMap:
    """Descend psi~ to the balanced tensor square and classify it by exact
    rank computation."""
    psi = descend_linear(galois_psi_ambient(CA), bt,
                         "the canonical Galois map")
    r = rank(psi)
    full = psi.codomain.dim
    if r == full and r == bt.dim:
        cls = "bijective"
    elif r == full:
        cls = "surjective-only"
    else:
        cls = "neither"
    return GaloisMap(psi, cls, r)


def galois_xi(CA: ComoduleAlgebra) -> LinearMap:
    """xi(a (x) b) = beta^{-1}(b) a0 (x) alpha(a1), i.e. psi~ after swapping
    the tensor factors; defined on all of A (x) A (no quotient)."""
    return galois_psi_ambient(CA) @ swap_map(CA.algebra.space,
                                             CA.algebra.space)


def xi_source_module(CA: ComoduleAlgebra) -> RelHopfModule:
    """A (x) A = tensor_module(A, A), with action
    (a (x) b).a' = a beta^{-1}(a') (x) beta(b) and coaction
    (a0 (x) beta^{-1}(b)) (x) alpha(a1)."""
    A = CA.algebra
    return tensor_module(regular_rel_hopf(CA), A.alpha, A.alpha_inv)


# ---------------------------------------------------------------------------
# Induction N (x)_B A and the adjunction of the structure theorem
# ---------------------------------------------------------------------------

def induction(N: HomModule, B: CoinvariantAlgebra
              ) -> tuple[QuotientSpace, RelHopfModule]:
    """N (x)_B A with automorphism nu (x) beta, action
    (n (x) a).a' = nu(n) (x) a beta^{-1}(a') and coaction
    (nu^{-1}(n) (x) a0) (x) alpha(a1); descent is verified."""
    CA = B.of
    A = CA.algebra
    ida = LinearMap.identity(A.space)
    amb = RelHopfModule(
        tensor_space(N.space, A.space), N.mu.tensor(A.alpha),
        N.mu_inv.tensor(A.alpha_inv),
        N.mu.tensor(A.mult @ ida.tensor(A.alpha_inv)),
        N.mu_inv.tensor(tensor_after(ida, CA.hopf.algebra.alpha,
                                     CA.coaction)), CA)
    bt = balanced_tensor(N, B)
    return bt, descend_module(amb, bt, "the induced module")


@record(frozen=True)
class AdjunctionPair:
    """eta_N: N -> (N (x)_B A)^{coH} and theta_N back."""

    eta: LinearMap
    theta: LinearMap
    coinv: HomModule

    def inverse_identities(self) -> list[tuple[LinearMap, LinearMap, str]]:
        eta, theta = self.eta, self.theta
        return [(theta @ eta, LinearMap.identity(eta.domain), "theta . eta"),
                (eta @ theta, LinearMap.identity(theta.domain), "eta . theta")]


def thm56_adjunction(N: HomModule, B: CoinvariantAlgebra,
                     gamma: QuantumIntegral) -> AdjunctionPair:
    """eta_N(n) = n (x)_B 1_A into the coinvariants of N (x)_B A, and
    theta_N(sum n_i (x)_B a_i) = sum n_i . t^l(a_i)."""
    CA = B.of
    bt, ind = induction(N, B)
    coinv_mod, sub = coinvariant_module(ind, B)
    tl = quantum_trace_left(CA, gamma)
    idn = LinearMap.identity(N.space)
    unit_tensor = bt.projection @ tensor_after(idn, CA.algebra.unit, idn)
    eta = _restrict(sub, unit_tensor, coinv_mod.space,
                    "n (x) 1_A is not coinvariant in N (x)_B A")
    tl_b = _restrict(B.subspace, tl, B.algebra.space,
                     "the left quantum trace does not land in B")
    amb = bt.section @ sub.embedding(coinv_mod.space)
    theta = N.action @ tensor_after(idn, tl_b, amb)
    return AdjunctionPair(eta, theta, coinv_mod)


def free_adjunctions(B: CoinvariantAlgebra, gamma: QuantumIntegral
                     ) -> Iterator[tuple[HomModule, AdjunctionPair]]:
    """(N, eta_N and theta_N) on the test modules N = B, B^2 of 5.6 and 5.7."""
    for N in (free_module(B, 1), free_module(B, 2)):
        yield N, thm56_adjunction(N, B, gamma)


def beta_evaluation(M: RelHopfModule, B: CoinvariantAlgebra
                    ) -> tuple[QuotientSpace, LinearMap]:
    """beta_M: M^{coH} (x)_B A -> M, m (x)_B a -> m.a, with descent checked."""
    coinv_mod, sub = coinvariant_module(M, B)
    bt = balanced_tensor(coinv_mod, B)
    amb = M.action @ sub.embedding(coinv_mod.space).tensor(
        LinearMap.identity(B.of.algebra.space))
    beta_m = descend_linear(amb, bt,
                            "the evaluation of coinvariants against A")
    return bt, beta_m


# ---------------------------------------------------------------------------
# Theorem-level drivers
# ---------------------------------------------------------------------------

def free_module(B: CoinvariantAlgebra, copies: int) -> HomModule:
    """The free right B-module B^copies with componentwise structure."""
    balg = B.algebra
    space = Space(tuple(f"e{c}.{lab}" for c in range(copies)
                        for lab in balg.space.labels))
    # componentwise is id (x) f on k^copies (x) B, relabelled
    ids = LinearMap.identity(Space(tuple(f"e{c}" for c in range(copies))))
    action = LinearMap(tensor_space(space, balg.space), space,
                       ids.tensor(balg.mult).cols)
    mu = LinearMap(space, space, ids.tensor(balg.alpha).cols)
    mu_inv = LinearMap(space, space, ids.tensor(balg.alpha_inv).cols)
    return HomModule(space, mu, mu_inv, action, balg)


def thm57_check(CA: ComoduleAlgebra,
                test_modules: Sequence[RelHopfModule] = ()) -> Report:
    """Verify the affineness criterion: when a total quantum integral exists
    and the canonical Galois map is surjective, induction and taking
    coinvariants are inverse equivalences on B, B^2 and the test modules
    (A if none)."""
    rep = Report("affineness criterion")
    gamma = total_quantum_hypothesis(rep, CA)

    B = coinvariants(CA)
    rep.certificates["coinvariant_dim"] = B.dim
    bt, aa_mod = balanced_tensor_AA(CA, B)
    record_suite(rep, "the balanced tensor square is a relative Hopf module",
                 check_rel_hopf(aa_mod))
    gal = canonical_psi(CA, bt)
    rep.certificates["galois"] = gal.classification
    rep.record("hypothesis: the canonical Galois map is "
               + ("surjective" if gal.surjective else "not surjective"), True,
               detail=gal.classification)

    # The flipped Galois map is a morphism of relative Hopf modules from
    # A (x) A with the twisted structures to the induced module A (x) H,
    # and is onto exactly when psi is.
    xi = galois_xi(CA)
    check_maps(rep, "xi respects the action and coaction",
               morphism_identities(xi, xi_source_module(CA),
                                   regular_induced(CA)))
    if gal.surjective:
        rep.record("xi is surjective", rank(xi) == xi.codomain.dim)

    if not rep.skip_unless(gamma is not None and gal.surjective, (
            "conclusion: adjunction units are isomorphisms",
            "conclusion: evaluation counits are isomorphisms"),
            "hypotheses not satisfied"):
        rep.certificates["equivalence"] = None
        return rep

    for idx, (_, pair) in enumerate(free_adjunctions(B, gamma)):
        check_maps(rep, f"unit of adjunction is an isomorphism (module {idx})",
                   pair.inverse_identities())

    for idx, M in enumerate(test_modules or [regular_rel_hopf(CA)]):
        btm, beta_m = beta_evaluation(M, B)
        r = rank(beta_m)
        rep.record(f"evaluation counit is an isomorphism (module {idx})",
                   r == btm.dim == M.dim, detail=f"rank {r}, source dim "
                   f"{btm.dim}, target dim {M.dim}")
    rep.certificates["equivalence"] = rep.ok
    return rep


def cor58_check(H: HomHopfAlgebra,
                test_modules: Sequence[RelHopfModule] = ()) -> Report:
    """Specialize the affineness criterion to A = H coacting on itself."""
    rep = thm57_check(regular_comodule_algebra(H), test_modules)
    rep.title = "affineness criterion for the regular coaction"
    return rep


def prop51_check(CA: ComoduleAlgebra, gamma: QuantumIntegral) -> Report:
    """Certify the retraction maps lam and Lam built from a total quantum
    integral, and the quantum trace projections onto the coinvariants."""
    rep = Report("quantum-integral retractions and trace projections")
    A, H = CA.algebra, CA.hopf
    lam, big = prop51_maps(CA, gamma)
    idh = LinearMap.identity(H.space)
    # lam retracts the beta-twisted coaction: lam(beta^{-1}(a0) (x) a1) = a;
    # the untwisted composite lam . rho is only the identity when beta = id
    ida = LinearMap.identity(A.space)
    check_maps(rep, "lam . (beta^{-1} x id) . rho_A = id_A",
               [(lam @ A.alpha_inv.tensor(idh) @ CA.coaction, ida)])
    check_maps(rep, "Lam . rho_A = id_A", [(big @ CA.coaction, ida)])

    # colinearity of lam in its twisted form:
    # lam(beta^{-1}(a) (x) h1) (x) alpha(h2) = rho_A(lam(a (x) h))
    colin_lhs = tensor_after(lam, H.algebra.alpha,
                             A.alpha_inv.tensor(H.comult))
    check_maps(rep, "lam(beta^{-1}(a) (x) h1) (x) alpha(h2) = "
               "rho_A(lam(a (x) h))", [(colin_lhs, CA.coaction @ lam)])
    check_maps(rep, "Lam is a relative-category morphism G(A) -> A",
               morphism_identities(big, regular_induced(CA),
                                   regular_rel_hopf(CA)))

    B = coinvariants(CA)
    tl = quantum_trace_left(CA, gamma)
    tr = quantum_trace_right(CA, gamma)
    for tag, t in (("t^l", tl), ("t^r", tr)):
        # B is the kernel of rho_A - (beta^{-1} (x) 1_H)
        check_maps(rep, f"{tag} lands in the coinvariants", [(
            CA.coaction @ t, tensor_after(A.alpha_inv, H.algebra.unit, t))])
        check_maps(rep, f"{tag} restricts to the identity on B",
                   [(t @ B.embed, B.embed)])
        check_maps(rep, f"{tag} is idempotent", [(t @ t, t)])
    check_maps(rep, "t^l is left B-linear",
               [(tl @ B.left_action, A.mult @ B.embed.tensor(tl))])
    check_maps(rep, "t^r is right B-linear",
               [(tr @ B.right_action, A.mult @ tr.tensor(B.embed))])
    return rep


def thm56_check(CA: ComoduleAlgebra) -> Report:
    """When a total quantum integral exists, the unit of the induction /
    coinvariants adjunction is an isomorphism on the free modules B, B^2."""
    rep = Report("adjunction unit is an isomorphism")
    gamma = total_quantum_hypothesis(
        rep, CA, "conclusion: unit and inverse on each test module")
    if gamma is None:
        return rep
    for idx, (N, pair) in enumerate(free_adjunctions(coinvariants(CA), gamma)):
        check_maps(rep, f"theta . eta = id and eta . theta = id (module {idx})",
                   pair.inverse_identities())
        check_maps(rep, f"eta is B-linear (module {idx})",
                   morphism_identities(pair.eta, N, pair.coinv, "A mu"))
        check_maps(rep, f"theta is B-linear (module {idx})",
                   morphism_identities(pair.theta, pair.coinv, N, "A mu"))
    return rep
