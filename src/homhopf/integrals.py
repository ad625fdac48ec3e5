"""Total integrals and total quantum integrals as affine feasibility
problems, the splitting maps lambda_M, the integral existence equivalence,
and the generator epimorphism on A (x) H (x) M.

Each existence question is an affine system in the entries of one unknown
map.  Its coefficients are read off the scaled int columns of the maps in
its conditions, each a term L . (id (x) X (x) id) . R against a second term
or a constant map, and kept as ints over one scale.  Every solution is then
re-verified with verify.check_maps against the condition's identities, each
a pair of composite maps written apart from the assembly's terms.
"""

from __future__ import annotations

import math
from typing import Callable, Iterator, Sequence

from .errors import CentralityViolated, EquivalenceViolated, NotIntertwining
from .linalg import (SCALAR_SPACE, Column, Infeasible, LinearMap, Scalar,
                     Space, Vector, _scaled_map, _sparse, basis_inclusion,
                     product_after, solve_affine, swap_map, tensor_after,
                     tensor_space)
from .modules import (RelHopfModule, check_hom_module, check_rel_hopf,
                      induce_G, morphism_identities, regular_induced,
                      regular_rel_hopf, tensor_module, tensor_module_on)
from .records import record
from .report import Report
from .structures import (ComoduleAlgebra, algebra_generators,
                         check_hom_algebra)
from .verify import check_maps, record_suite


@record(frozen=True)
class TotalIntegral:
    """A solved total integral phi: H -> A plus the homogeneous solution family."""

    phi: LinearMap
    solution_family: tuple[LinearMap, ...]   # kernel basis, as maps H -> A


@record(frozen=True)
class QuantumIntegral:
    """A quantum integral in curried form gamma_hat: H (x) H -> A."""

    gamma_hat: LinearMap
    total: bool
    solution_family: tuple[LinearMap, ...]


# ---------------------------------------------------------------------------
# Affine systems in the entries of an unknown map, assembled from map terms
# ---------------------------------------------------------------------------

# A linear term L . (id_U (x) X (x) id_W) . R in the unknown map X: D -> C,
# given as (L, R, dim W); dim U follows from R's codomain.
_Term = tuple[LinearMap, LinearMap, int]


class _MapSystem:
    """Affine conditions on the entries of an unknown map X: dom -> cod,
    each a term against a term or a constant map, in ints over one scale.

    Unknown k = c * dom.dim + d is the entry of X sending basis vector d of
    dom to basis vector c of cod.  The coefficients are read off the terms'
    scaled int columns through vec(L X R) = (L (x) R^T) vec(X) and kept as
    ints times the system's scale, the lcm of the terms' scales so far, so
    no residual is evaluated and no Fraction built while the system is.
    """

    def __init__(self, dom: Space, cod: Space):
        self.dom, self.cod = dom, cod
        self.scale = 1
        self.cols: list[dict[int, int]] = [
            {} for _ in range(dom.dim * cod.dim)]
        self.rhs: list[Scalar] = []

    def condition(self, lhs: _Term, rhs: _Term | LinearMap) -> None:
        """Append the rows of lhs = rhs, a term against a term or a constant
        map, each E -> F.  Entry (f, e) is row e * dim F + f: one block of F
        per basis vector of E.

        The RREF is unique, so the row order changes no result, and with the
        fraction-free elimination no cost either: in-process medians of 21
        alternated rounds (Python 3.11.7, 2 vCPUs) on rebased kC4, block
        against row-major, are 2.5/2.6 ms (total integral), 70.9/71.1 ms
        (total quantum integral) and 8.6/8.4 ms (4.3 retraction)."""
        nd, nc = self.dom.dim, self.cod.dim
        terms = [(1, *lhs)] + ([(-1, *rhs)] if isinstance(rhs, tuple) else [])
        ne, nf = lhs[1].domain.dim, lhs[0].codomain.dim
        base = len(self.rhs)
        scale = math.lcm(self.scale,
                         *(L.scaled[0] * R.scaled[0] for _, L, R, _ in terms))
        if scale != self.scale:
            up, self.scale = scale // self.scale, scale
            for col in self.cols:
                for i in col:
                    col[i] *= up
        for sign, L, R, w in terms:
            (dl, lcols), (dr, rcols) = L.scaled, R.scaled
            m = sign * (scale // (dl * dr))
            for e, col in enumerate(rcols):
                for r, rv in col:
                    ui, rest = divmod(r, nd * w)
                    d, wi = divmod(rest, w)
                    rv *= m
                    for c in range(nc):
                        acc = self.cols[c * nd + d]
                        for f, lv in lcols[(ui * nc + c) * w + wi]:
                            i = base + e * nf + f
                            acc[i] = acc.get(i, 0) + rv * lv
        out = [0] * (ne * nf)
        if isinstance(rhs, LinearMap):
            for e, col in enumerate(rhs.cols):
                for f, v in col:
                    out[e * nf + f] = v
        self.rhs.extend(out)

    def equations(self) -> tuple[LinearMap, Vector]:
        """(coeff, rhs) of coeff . x = rhs, coeff built in its scaled form."""
        unknowns = Space(tuple(f"u{k}" for k in range(len(self.cols))))
        eqspace = Space(tuple(f"eq{r}" for r in range(len(self.rhs))))
        return (_scaled_map(unknowns, eqspace, self.scale,
                            tuple(_sparse(acc) for acc in self.cols)),
                tuple(self.rhs))

    def as_map(self, flat: Column) -> LinearMap:
        """The map X with entry (c, d) at unknown c * dom.dim + d of the
        sparse column flat."""
        n = self.dom.dim
        cols = [[] for _ in range(n)]
        for k, x in flat:
            cols[k % n].append((k // n, x))
        return LinearMap(self.dom, self.cod, tuple(map(tuple, cols)))

    def solve(self, identities: Callable[[LinearMap], list], what: str
              ) -> tuple[LinearMap, Iterator[LinearMap]] | Infeasible:
        """The particular solution X, re-verified against identities(X),
        and the kernel basis as maps, each built when it is read;
        Infeasible when there is no solution."""
        sol = solve_affine(*self.equations())
        if isinstance(sol, Infeasible):
            return sol
        x = self.as_map(sol.particular)
        if not check_maps(Report(""), "", identities(x)):
            raise EquivalenceViolated(f"solved {what} fails re-verification")
        return x, map(self.as_map, sol.kernel)


# ---------------------------------------------------------------------------
# Total integrals (Definition-level conditions on phi: H -> A)
# ---------------------------------------------------------------------------

def total_integral_identities(CA: ComoduleAlgebra, phi: LinearMap) -> list:
    """rho_A phi = (phi x id) Delta, phi alpha = beta phi and
    phi(1_H) = 1_A, as (lhs, rhs, label)."""
    A, H = CA.algebra, CA.hopf
    idh = LinearMap.identity(H.space)
    return [(CA.coaction @ phi, phi.tensor(idh) @ H.coalgebra.comult,
             "H-colinear"),
            (phi @ H.algebra.alpha, A.alpha @ phi,
             "intertwining alpha and beta"),
            (phi @ H.algebra.unit, A.unit, "phi(1_H) = 1_A")]


def verify_total_integral(CA: ComoduleAlgebra, phi: LinearMap) -> bool:
    return check_maps(Report(""), "", total_integral_identities(CA, phi))


def _total_integral_system(CA: ComoduleAlgebra) -> _MapSystem:
    """rho_A phi = (phi (x) id) Delta, phi alpha = beta phi, phi(1_H) = 1_A."""
    A, H = CA.algebra, CA.hopf
    ida, idh = LinearMap.identity(A.space), LinearMap.identity(H.space)
    system = _MapSystem(H.space, A.space)
    system.condition((CA.coaction, idh, 1),
                     (LinearMap.identity(tensor_space(A.space, H.space)),
                      H.coalgebra.comult, H.dim))
    system.condition((ida, H.algebra.alpha, 1), (A.alpha, idh, 1))
    system.condition((ida, H.algebra.unit, 1), A.unit)
    return system


def find_total_integral(CA: ComoduleAlgebra) -> TotalIntegral | Infeasible:
    """Decide existence of a total integral phi: H -> A exactly."""
    res = _total_integral_system(CA).solve(
        lambda phi: total_integral_identities(CA, phi), "total integral")
    if isinstance(res, Infeasible):
        return res
    phi, family = res
    return TotalIntegral(phi, tuple(family))


# ---------------------------------------------------------------------------
# Quantum integrals (gamma: H -> Hom(H, A), curried as H (x) H -> A)
# ---------------------------------------------------------------------------

def quantum_integral_identities(CA: ComoduleAlgebra, gh: LinearMap,
                                total: bool) -> list:
    """beta-compatibility, Eq. 4.1 and, if total, Eq. 4.2 on the curried
    gamma_hat: H (x) H -> A, as (lhs, rhs, label).

    Eq. 4.1 per basis pair (g, h), valued in A (x) H:
    gamma(alpha^{-1}(g))(h1) (x) alpha(h2) = beta(w0) (x) g1 w1 with
    w = gamma(g2)(alpha^{-1}(h)), using gamma(alpha(g2))(h) = beta(w) and
    rho(beta(w)) = beta(w0) (x) alpha(w1), so the two bracketed occurrences
    are coaction legs of the same element.
    """
    A, H = CA.algebra, CA.hopf
    al, al_inv = H.algebra.alpha, H.algebra.alpha_inv
    delta, idh = H.coalgebra.comult, LinearMap.identity(H.space)
    # g (x) h -> g1 (x) w -> beta(w0) (x) g1 w1
    w = tensor_after(idh, gh, delta.tensor(al_inv))
    legs = product_after(A.alpha, H.algebra.mult, idh, CA.coaction,
                         (SCALAR_SPACE, H.space, A.space, H.space))
    identities = [(gh @ al.tensor(al), A.alpha @ gh, "beta-compatible"),
                  (tensor_after(gh, al, al_inv.tensor(delta)), legs @ w,
                   "Eq. 4.1")]
    return identities + [_eq42_identity(CA, gh)] if total else identities


def _eq42_identity(CA: ComoduleAlgebra, gh: LinearMap) -> tuple:
    """Eq. 4.2, per basis h: gamma(h1)(h2) = eps(h) 1_A."""
    A, H = CA.algebra, CA.hopf
    return (gh @ H.coalgebra.comult, A.unit @ H.coalgebra.counit,
            "Eq. 4.2")


def verify_quantum_integral(CA: ComoduleAlgebra, gh: LinearMap,
                            total: bool) -> bool:
    return check_maps(Report(""), "",
                      quantum_integral_identities(CA, gh, total))


def is_total(CA: ComoduleAlgebra, gh: LinearMap) -> bool:
    return check_maps(Report(""), "", [_eq42_identity(CA, gh)])


def _quantum_integral_system(CA: ComoduleAlgebra,
                             require_total: bool) -> _MapSystem:
    """beta-compatibility, Eq. 4.1 and (if require_total) Eq. 4.2 on the
    curried gamma_hat: H (x) H -> A."""
    A, H = CA.algebra, CA.hopf
    hh = tensor_space(H.space, H.space)
    ida, idh = LinearMap.identity(A.space), LinearMap.identity(H.space)
    al, al_inv = H.algebra.alpha, H.algebra.alpha_inv
    delta = H.coalgebra.comult
    system = _MapSystem(hh, A.space)
    # gamma_hat (alpha (x) alpha) = beta gamma_hat
    system.condition((ida, al.tensor(al), 1),
                     (A.alpha, LinearMap.identity(hh), 1))
    # Eq. 4.1, one block of A (x) H per pair (g, h):
    # gamma(alpha^{-1}(g))(h1) (x) alpha(h2) = beta(w0) (x) g1 w1 with
    # w = gamma(g2)(alpha^{-1}(h)); the right side sends g1 (x) w to
    # beta(w0) (x) g1 w1
    system.condition((ida.tensor(al), al_inv.tensor(delta), H.dim),
                     (product_after(A.alpha, H.algebra.mult, idh, CA.coaction,
                                    (SCALAR_SPACE, H.space, A.space, H.space)),
                      delta.tensor(al_inv), 1))
    if require_total:
        # Eq. 4.2, one block of A per h: gamma(h1)(h2) = eps(h) 1_A
        system.condition((ida, delta, 1), A.unit @ H.coalgebra.counit)
    return system


def find_quantum_integral(CA: ComoduleAlgebra, require_total: bool = True
                          ) -> QuantumIntegral | Infeasible:
    """Decide existence of a (total) quantum integral exactly."""
    CA.hopf.require_bijective_antipode()
    res = _quantum_integral_system(CA, require_total).solve(
        lambda gh: quantum_integral_identities(CA, gh, require_total),
        "quantum integral")
    if isinstance(res, Infeasible):
        return res
    gh, family = res
    return QuantumIntegral(gh, require_total or is_total(CA, gh),
                           tuple(family))


def record_existence(rep: Report, what: str, key: str, res: object) -> bool:
    """Record whether the solver's answer res is a solution, under the check
    "<what> exists" or "<what> does not exist" and the certificate key."""
    feasible = not isinstance(res, Infeasible)
    rep.record(f"{what} exists" if feasible else f"{what} does not exist",
               True, detail="feasible" if feasible else "infeasible")
    rep.certificates[key] = feasible
    return feasible


def total_quantum_hypothesis(rep: Report, CA: ComoduleAlgebra,
                             *gated: str) -> QuantumIntegral | None:
    """The hypothesis of Theorems 4.8, 5.6 and 5.7, a total quantum integral,
    recorded in rep; None if there is none, each conclusion in gated skipped."""
    gamma = find_quantum_integral(CA, require_total=True)
    feasible = record_existence(rep, "hypothesis: a total quantum integral",
                                "total_quantum_integral", gamma)
    return gamma if rep.skip_unless(feasible, gated) else None


# ---------------------------------------------------------------------------
# Conversions between phi and gamma
# ---------------------------------------------------------------------------

def phi_from_gamma(CA: ComoduleAlgebra, gamma: QuantumIntegral) -> LinearMap:
    """phi(h) = beta^{-1}(gamma(1_H)(h)), H-colinear by Eq. 4.1 at g = 1_H
    and beta-compatibility.  gamma(h)(1_H) is not colinear in general (not
    for the regular coaction of Sweedler's H4), and dropping beta^{-1} can
    break colinearity when alpha is not the identity."""
    A, H = CA.algebra, CA.hopf
    idh = LinearMap.identity(H.space)
    phi = A.alpha_inv @ gamma.gamma_hat @ tensor_after(
        H.algebra.unit, idh, idh)
    if not check_maps(Report(""), "", total_integral_identities(CA, phi)[:1]):
        raise EquivalenceViolated("phi built from a quantum integral is not colinear")
    return phi


def gamma_from_central_phi(CA: ComoduleAlgebra, phi: LinearMap) -> QuantumIntegral:
    """gamma(g)(h) = phi(h S^{-1}(g)) for a colinear phi whose coaction legs
    centralize H: g phi(h)1 (x) phi(h)0 = phi(h)1 g (x) phi(h)0."""
    A, H = CA.algebra, CA.hopf
    H.require_bijective_antipode()
    idh = LinearMap.identity(H.space)
    rep = Report("")
    if not check_maps(rep, "", total_integral_identities(CA, phi)[:2]):
        raise NotIntertwining(f"phi is not {rep.results[0].detail}")

    # centrality as one equality of maps H (x) H -> H (x) A:
    # h (x) g -> g phi(h)1 (x) phi(h)0 and h (x) g -> phi(h)1 g (x) phi(h)0
    legs = swap_map(A.space, H.space) @ CA.coaction @ phi
    mult, flip = H.algebra.mult, swap_map(H.space, H.space)
    lhs, rhs = (product_after(m, LinearMap.identity(A.space), legs, idh,
                              (H.space, A.space, H.space, SCALAR_SPACE))
                for m in (mult @ flip, mult))
    if not check_maps(rep, "", [(lhs, rhs)]):
        h, g = rep.results[-1].witness.basis
        raise CentralityViolated(g, h)

    gh = phi @ mult @ idh.tensor(H.antipode_inv) @ flip
    if not verify_quantum_integral(CA, gh, total=False):
        raise EquivalenceViolated("gamma built from central phi fails Eq-level check")
    return QuantumIntegral(gh, is_total(CA, gh), ())


# ---------------------------------------------------------------------------
# Splitting
# ---------------------------------------------------------------------------

def lambda_M(M: RelHopfModule, phi: TotalIntegral) -> LinearMap:
    """The colinear retraction of rho_M:
    lambda(m (x) h) = mu(m0) . phi(S(m1) alpha^{-1}(h))."""
    H = M.over.hopf
    arg = H.algebra.mult @ H.antipode.tensor(H.algebra.alpha_inv)
    return M.action @ tensor_after(
        M.mu, phi.phi @ arg,
        M.coaction.tensor(LinearMap.identity(H.space)))


# ---------------------------------------------------------------------------
# Existence equivalence: total integral <-> rho_A splits colinearly
# ---------------------------------------------------------------------------

def colinear_retraction_identities(CA: ComoduleAlgebra, ga: LinearMap,
                                   lam: LinearMap) -> list:
    """lambda_A: A (x) H -> A is a retraction of rho_A, H-colinear against
    the induced coaction ga on A (x) H, and automorphism-intertwining, as
    (lhs, rhs, label)."""
    A, H = CA.algebra, CA.hopf
    idh = LinearMap.identity(H.space)
    return [(lam @ CA.coaction, LinearMap.identity(A.space), "retraction"),
            (CA.coaction @ lam, lam.tensor(idh) @ ga, "H-colinear"),
            (lam @ A.alpha.tensor(H.algebra.alpha), A.alpha @ lam,
             "intertwining beta (x) alpha and beta")]


def _colinear_retraction_system(CA: ComoduleAlgebra,
                                ga: LinearMap) -> _MapSystem:
    """lambda_A rho_A = id_A, rho_A lambda_A = (lambda_A (x) id) ga and
    lambda_A (beta (x) alpha) = beta lambda_A on lambda_A: A (x) H -> A."""
    A, H = CA.algebra, CA.hopf
    ah = tensor_space(A.space, H.space)
    ida, idah = LinearMap.identity(A.space), LinearMap.identity(ah)
    system = _MapSystem(ah, A.space)
    system.condition((ida, CA.coaction, 1), ida)
    system.condition((CA.coaction, idah, 1), (idah, ga, H.dim))
    system.condition((ida, A.alpha.tensor(H.algebra.alpha), 1),
                     (A.alpha, idah, 1))
    return system


def theorem43_check(CA: ComoduleAlgebra,
                    test_modules: Sequence[RelHopfModule] = ()) -> Report:
    """Machine-check the equivalence: a total integral exists iff rho_A has
    an H-colinear retraction; when it holds, certify the splitting of every
    test module via lambda_M."""
    A, H = CA.algebra, CA.hopf
    rep = Report("total integral existence equivalence")

    res1 = find_total_integral(CA)
    exists1 = isinstance(res1, TotalIntegral)

    ga = regular_induced(CA).coaction
    res3 = _colinear_retraction_system(CA, ga).solve(
        lambda lam: colinear_retraction_identities(CA, ga, lam),
        "colinear retraction")
    exists3 = not isinstance(res3, Infeasible)

    rep.record("condition (1): total integral "
               + ("exists" if exists1 else "does not exist"), True,
               detail=str(exists1))
    rep.record("condition (3): rho_A "
               + ("splits" if exists3 else "does not split") + " colinearly",
               True, detail=str(exists3))
    if exists1 != exists3:
        raise EquivalenceViolated(
            f"integral existence ({exists1}) disagrees with splitting ({exists3})")
    rep.record("equivalence (1) <-> (3)", True)
    rep.certificates["exists"] = exists1

    if exists3:
        lam, _ = res3
        idh = LinearMap.identity(H.space)
        # phi(h) = beta^{-1}(lambda_A(1 (x) h)), shaped as phi_from_gamma by
        # Eq. 4.1; without beta^{-1} only some retractions give a colinear phi
        phi_map = A.alpha_inv @ lam @ tensor_after(A.unit, idh, idh)
        check_maps(rep, "phi(h) = beta^{-1}(lambda_A(1 (x) h)) is a total "
                   "integral", total_integral_identities(CA, phi_map))
        assert isinstance(res1, TotalIntegral)
        for idx, M in enumerate(test_modules):
            lm = lambda_M(M, res1)
            check_maps(rep, f"lambda_M splits test module {idx} (dim {M.dim})",
                       [(lm @ M.coaction, LinearMap.identity(M.space),
                         "lambda_M . rho_M = id"),
                        *morphism_identities(lm, induce_G(M.as_module(), CA),
                                             M, "H")])
    else:
        assert isinstance(res1, Infeasible)
        rep.record("infeasibility certificate re-verifies", res1.reverify(),
                   detail=f"ranks {res1.system_rank}/{res1.augmented_rank}")
    return rep


# ---------------------------------------------------------------------------
# Generator epimorphism (A (x) H (x) M)
# ---------------------------------------------------------------------------

def thm48_module(CA: ComoduleAlgebra, mu: LinearMap,
                 mu_inv: LinearMap) -> RelHopfModule:
    """A (x) H (x) M = tensor_module(G(A), mu, mu_inv) for an object (M, mu),
    with
    (a (x) h (x) m).b = a beta^{-1}(b0) (x) h alpha^{-1}(b1) (x) mu(m) and
    rho = beta^{-1}(a) (x) h1 (x) mu^{-1}(m) (x) alpha^2(h2).  G(A) is acted
    on by beta^{-1}(b), which rho . beta^{-1} = (beta^{-1} (x) alpha^{-1})
    . rho turns into beta^{-1}(b0) (x) alpha^{-1}(b1)."""
    return tensor_module(regular_induced(CA), mu, mu_inv)


def generator_epi(CA: ComoduleAlgebra, M: RelHopfModule,
                  gamma: QuantumIntegral) -> tuple[LinearMap, LinearMap]:
    """The split epimorphism f: A (x) H (x) M -> M and its colinear section g.

    f(a (x) h (x) m) = mu(m0) . [gamma(alpha^{-1}(m1))(alpha^{-2}(h) S^{-1}(alpha^{-1}(a1))) beta(a0)]
    g(m) = 1_A (x) alpha^{-1}(m1) (x) m0.
    """
    if not gamma.total:
        raise ValueError("the generator epimorphism needs a total quantum integral")
    A, H = CA.algebra, CA.hopf
    H.require_bijective_antipode()
    a_inv, flip = H.algebra.alpha_inv, swap_map(H.space, H.space)
    idh, idm = LinearMap.identity(H.space), LinearMap.identity(M.space)
    # a (x) h -> beta(a0) (x) t, t = alpha^{-2}(h) S^{-1}(alpha^{-1}(a1))
    arg = H.algebra.mult @ (a_inv @ a_inv).tensor(H.antipode_inv @ a_inv)
    ah = product_after(A.alpha, arg @ flip, CA.coaction, idh,
                       (A.space, H.space, SCALAR_SPACE, H.space))
    # b (x) t (x) m1 -> gamma(alpha^{-1}(m1))(t) b
    gval = A.mult @ (gamma.gamma_hat @ a_inv.tensor(idh) @ flip).tensor(
        LinearMap.identity(A.space)) @ swap_map(A.space, flip.domain)
    f = M.action @ product_after(M.mu, gval, ah, M.coaction,
                                 (SCALAR_SPACE, ah.codomain, M.space, H.space))
    g = tensor_after(A.unit, swap_map(M.space, H.space)
                     @ tensor_after(idm, a_inv, M.coaction), idm)
    return f, g


def thm48_check(CA: ComoduleAlgebra,
                test_modules: Sequence[RelHopfModule] = ()) -> Report:
    """When a total quantum integral exists, every relative Hopf module M is
    a quotient of the induced module A (x) H (x) M via a split epimorphism
    with a colinear section; verified on the test modules (A if none).

    That A (x) H (x) M is a relative Hopf module is decided for every M at
    once, on A (x) H (x) (k, 2) and A (x) H (x) (k, 3) (tensor_module's
    docstring).  If either fails, or mu_M^{-1} is not mu_M's inverse, each
    test module gets the full check_rel_hopf, with its witness.  Each test
    module gets one A (x) H (x) M, acting on span(S) only (tensor_module_on)
    once that holds and M's and A's suites hold: f's identities are then
    reduced to it (morphism_identities), and only their fallback is whole."""
    rep = Report("generator epimorphism")
    gamma = total_quantum_hypothesis(
        rep, CA, "conclusion: split epimorphism onto each test module")
    if gamma is None:
        return rep
    A = CA.algebra
    scalars = [LinearMap(SCALAR_SPACE, SCALAR_SPACE, (((0, c),),))
               for c in (2, 3)]
    every_M = all(check_rel_hopf(thm48_module(CA, nu, nu.inverse())).ok
                  for nu in scalars)
    for idx, M in enumerate(test_modules or [regular_rel_hopf(CA)]):
        name = f"A (x) H (x) M is a relative Hopf module (module {idx})"
        holds = every_M and (M.mu @ M.mu_inv).is_identity()
        on = holds and check_hom_algebra(A).ok and check_hom_module(
            M.as_module()).ok and basis_inclusion(A.space, algebra_generators(A))
        AHM = (tensor_module_on(regular_induced(CA), M.mu, M.mu_inv, on) if on
               else thm48_module(CA, M.mu, M.mu_inv))
        if holds:
            rep.record(name, True)
        else:
            record_suite(rep, name, check_rel_hopf(AHM))
        f, g = generator_epi(CA, M, gamma)
        check_maps(rep, f"f is a relative-category morphism (module {idx})",
                   lambda: morphism_identities(
                       f, thm48_module(CA, M.mu, M.mu_inv) if on else AHM, M),
                   reduced=on and morphism_identities(f, AHM, M, on=on))
        check_maps(rep, f"the section g is colinear (module {idx})",
                   morphism_identities(g, M, AHM, "H mu"))
        check_maps(rep, f"f . g = id (module {idx})",
                   [(f @ g, LinearMap.identity(M.space))])
    return rep
