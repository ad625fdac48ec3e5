"""The benchmark's workloads and its verdict oracle.

A cell is one ``homhopf`` CLI verdict: its id is the argument list, joined
by spaces, run in the directory holding the workload's instance files.

The oracle is written by hand from the sources named in each fact's
``why``: the catalog's ``expected`` blocks, the theory of kC_n, basis
invariance, and the CLI's exit-2 contract for a coalgebra datum.  Nothing in
it is computed by the code under test.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from typing import Optional

# Every verdict has this wall-clock cap, on every commit.  The slowest cell
# that finishes in homhopf 0.1.0 is ``check kC12.json`` (2.6-4.7 s on a
# shared 2-vCPU VM, where a verdict can take twice as long as the same
# verdict just before it); the cap is three times its slow end, so it does
# not flip between finished and timed out.
# ``theorem --id 4.8 sweedler-H4.json`` runs for minutes and times out.
CAP_S = 15.0

_SWEEP_ENTRIES = ("kC2", "kC3", "kC3-twisted", "kG-C2-datum",
                  "matrix-datum-2", "trivial-k-over-H4", "trivial-k-over-kC2")
_SWEEP_VERBS = ("check {}", "integral {} --quantum --total", "galois {}",
                "theorem --id 4.3 {}", "theorem --id 5.6 {}",
                "theorem --id 5.7 {}", "theorem --id 5.8 {}")

WORKLOADS: dict[str, tuple[str, ...]] = {
    # Dimension <= 3: a median cell is mostly interpreter start, import and
    # parse; the emit cells run catalog.entry validation.  Holds the three
    # theorem 5.8 crash cells.
    "catalog-sweep": tuple(
        cell for name in _SWEEP_ENTRIES
        for cell in (f"catalog emit {name}",
                     *(v.format(name + ".json") for v in _SWEEP_VERBS))),
    # Axiom sweeps (structures, modules, verify) with almost no solving:
    # theorem 4.8 on catalog files, and check on kC12 and H4, each next to a
    # single-constant corruption that must stop at its first witness.
    "axiom-ladder": (
        "theorem --id 4.8 kC2.json",
        "theorem --id 4.8 kC3-A.json",
        "theorem --id 4.8 kC3-twisted-A.json",
        "theorem --id 4.8 kG-C2-datum.json",
        "theorem --id 4.8 matrix-datum-2.json",
        "theorem --id 4.8 sweedler-H4.json",
        "theorem --id 4.8 trivial-k-over-H4.json",
        "theorem --id 4.8 trivial-k-over-kC2.json",
        "check kC12.json",
        "check kC12-bad-mult.json",
        "check sweedler-H4.json",
        "check sweedler-H4-bad-GA.json",
    ),
    # Sparse integer constants of growing size: the integral solvers, linalg
    # elimination and the Galois layer, with no axiom sweep.
    "kcn-ladder": (
        "integral kC4.json --quantum --total",
        "integral kC5.json --quantum --total",
        "theorem --id 4.3 kC4.json",
        "integral kC8.json",
        "galois kC8.json",
    ),
    # The code paths of small kC_n / H4 cells, on dense non-integer
    # constants from a seeded change of basis.
    "rebased": (
        "check kC4-rebased.json",
        "check sweedler-H4-rebased.json",
        "integral kC4-rebased.json",
        "integral sweedler-H4-rebased.json",
        "integral kC3-rebased.json --quantum --total",
        "galois kC4-rebased.json",
        "galois sweedler-H4-rebased.json",
        "theorem --id 5.7 kC3-twisted-rebased.json",
    ),
}


@dataclass(frozen=True)
class Facts:
    """What theory says about one instance file."""

    why: str
    datum: bool = False              # a coalgebra datum: no antipode
    total_integral: Optional[bool] = None
    kernel_dim: Optional[int] = None
    tqi: Optional[bool] = None       # a total quantum integral exists
    coinvariant_dim: Optional[int] = None
    galois: Optional[str] = None
    galois_rank: Optional[int] = None
    over_itself: Optional[str] = None  # file of H coacting on itself
    corrupted: bool = False


def _kcn(n: int, extra: str = "") -> Facts:
    return Facts(
        f"kC{n} coacting on itself{extra}: a colinear phi with phi(1) = 1 "
        f"has phi(g) in k g, so kernel dim {n - 1}; kC{n} is semisimple and "
        f"cosemisimple over Q, so a total quantum integral exists; "
        f"coinvariants are k 1 and psi is bijective of rank {n * n}",
        total_integral=True, kernel_dim=n - 1, tqi=True, coinvariant_dim=1,
        galois="bijective", galois_rank=n * n, over_itself=f"kC{n}")


_H4 = Facts(
    "Sweedler's H4 coacting on itself (catalog expected block): total "
    "integral with kernel dim 3, a total quantum integral, coinvariants k 1, "
    "psi bijective of rank 16",
    total_integral=True, kernel_dim=3, tqi=True, coinvariant_dim=1,
    galois="bijective", galois_rank=16, over_itself="sweedler-H4")
_TRIVIAL_KC2 = Facts(
    "A = k with the trivial kC2 coaction (catalog expected block): phi(g) 1 "
    "= phi(g) g forces phi = delta_1, kernel dim 0; k (x)_k k = k maps to "
    "k (x) kC2 with rank 1, so psi is not surjective",
    total_integral=True, kernel_dim=0, tqi=True, coinvariant_dim=1,
    galois="neither", galois_rank=1, over_itself="kC2")
_TWISTED = Facts(
    "kC3 twisted by g -> g^2 (catalog expected block): kernel dim 1, a "
    "total quantum integral, coinvariants k 1, psi bijective of rank 9",
    total_integral=True, kernel_dim=1, tqi=True, coinvariant_dim=1,
    galois="bijective", galois_rank=9, over_itself="kC3-twisted")

FACTS: dict[str, Facts] = {
    "kC2": _kcn(2, " (catalog expected block)"),
    "kC3": _kcn(3, " (catalog expected block)"),
    "kC3-A": _kcn(3, ", module G(A) dropped"),
    "kC3-rebased": _kcn(3, ", in a seeded basis (verdicts are basis "
                           "invariant)"),
    "kC3-twisted": _TWISTED,
    "kC3-twisted-A": replace(
        _TWISTED, why=_TWISTED.why + ", module G(A) dropped"),
    "kC4": _kcn(4), "kC5": _kcn(5), "kC8": _kcn(8), "kC12": _kcn(12),
    "kC4-rebased": _kcn(4, ", in a seeded basis (verdicts are basis "
                           "invariant)"),
    "kC12-bad-mult": Facts(
        "kC12 with 1 added to one mult constant: a unit law or "
        "Delta(gh) = gh (x) gh breaks", corrupted=True),
    "sweedler-H4": _H4,
    "sweedler-H4-rebased": replace(
        _H4, why=_H4.why + ", in a seeded basis (verdicts are basis "
                           "invariant)"),
    "sweedler-H4-bad-GA": Facts(
        "H4 with 1 added to one action constant at m (x) 1_A of G(A): the "
        "unit law m.1 = mu(m) breaks", corrupted=True),
    "trivial-k-over-kC2": _TRIVIAL_KC2,
    "kG-C2-datum": replace(
        _TRIVIAL_KC2, why="the same structure as trivial-k-over-kC2 (its "
        "catalog expected block says a total integral exists)"),
    "trivial-k-over-H4": Facts(
        "A = k with the trivial H4 coaction (catalog expected block): no "
        "total integral and no total quantum integral; psi: k -> k (x) H4 "
        "has rank 1",
        total_integral=False, tqi=False, coinvariant_dim=1,
        galois="neither", galois_rank=1, over_itself="sweedler-H4"),
    "kC3-twisted-rebased": replace(
        _TWISTED, why=_TWISTED.why + ", in a seeded basis (verdicts are "
        "basis invariant)"),
    "matrix-datum-2": Facts(
        "the 2 x 2 comatrix coalgebra coacting trivially on k, a coalgebra "
        "datum with no antipode: colinearity forces phi(c_iu) = 0, so "
        "phi(1_H) = 0 and no total integral; psi: k -> k (x) C has rank 1",
        datum=True, total_integral=False, coinvariant_dim=1,
        galois="neither", galois_rank=1),
}


@dataclass(frozen=True)
class Outcome:
    """One acceptable result: exit code, a subset of the JSON report's
    certificates, and for exit 1 whether a failed check must carry a
    witness.  ``emit`` names the setup file stdout must equal."""

    exit: int
    certs: dict = field(default_factory=dict)
    witness: bool = False
    emit: Optional[str] = None


@dataclass(frozen=True)
class Expect:
    outcomes: tuple[Outcome, ...]
    why: str


_NO_ANTIPODE = "exit 2: the subcommand needs a bijective antipode, which a " \
               "coalgebra datum does not have"


def _certs(f: Facts, keys: tuple[str, ...]) -> dict:
    src = {"total_integral": f.total_integral,
           "total_integral_kernel_dim": f.kernel_dim,
           "total_quantum_integral": f.tqi, "exists": f.total_integral,
           "coinvariant_dim": f.coinvariant_dim, "galois": f.galois,
           "galois_rank": f.galois_rank}
    return {k: src[k] for k in keys if src[k] is not None}


def _thm57(f: Facts) -> Outcome:
    surj = f.galois in ("bijective", "surjective-only")
    certs = _certs(f, ("total_quantum_integral", "coinvariant_dim", "galois"))
    certs["equivalence"] = True if (f.tqi and surj) else None
    return Outcome(0, certs)


def _file(words: list[str]) -> str:
    return next(w for w in words if w.endswith(".json"))


def expect(cell: str) -> Expect:
    """The oracle entry of one cell; KeyError if its file has no facts."""
    words = cell.split()
    if words[:2] == ["catalog", "emit"]:
        return Expect((Outcome(0, emit=words[2] + ".json"),),
                      "emit writes the entry's canonical file, byte for byte "
                      "the one made at setup")
    stem = _file(words).removesuffix(".json")
    f = FACTS[stem]
    verb = words[0] if words[0] != "theorem" else "theorem " + words[2]
    if f.corrupted:
        return Expect((Outcome(1, witness=True),), f.why)
    if verb == "check":
        return Expect((Outcome(0),), "a valid instance passes every axiom; "
                      + f.why)
    if f.datum and (verb in ("theorem 4.8", "theorem 5.6", "theorem 5.7",
                             "theorem 5.8") or "--quantum" in words):
        return Expect((Outcome(2),), _NO_ANTIPODE)
    if verb == "integral":
        keys = ("total_integral", "total_integral_kernel_dim")
        if "--quantum" in words:
            keys += ("total_quantum_integral",)
        return Expect((Outcome(0, _certs(f, keys)),), f.why)
    if verb == "galois":
        return Expect((Outcome(0, _certs(f, ("coinvariant_dim", "galois",
                                              "galois_rank"))),), f.why)
    if verb == "theorem 4.3":
        return Expect((Outcome(0, _certs(f, ("exists",))),),
                      "theorem 4.3 holds, and decides existence as: " + f.why)
    if verb in ("theorem 4.8", "theorem 5.6"):
        return Expect((Outcome(0, _certs(f, ("total_quantum_integral",))),),
                      f"{verb} holds (vacuously without a total quantum "
                      f"integral); " + f.why)
    if verb == "theorem 5.7":
        return Expect((_thm57(f),), "theorem 5.7 holds; " + f.why)
    if verb == "theorem 5.8":
        own = FACTS[f.over_itself]
        outcomes = (_thm57(own),)
        why = "corollary 5.8 is theorem 5.7 for H coacting on itself; " \
              + own.why
        if f.over_itself != stem:
            outcomes += (Outcome(2),)
            why += "; the file's test modules belong to another coaction, " \
                   "so exit 2 (rejecting them) is also correct"
        return Expect(outcomes, why)
    raise KeyError(cell)


def input_files(workload: str) -> list[str]:
    """Files the workload's cells read or compare against, in first-use
    order."""
    out: list[str] = []
    for cell in WORKLOADS[workload]:
        words = cell.split()
        name = words[2] + ".json" if words[0] == "catalog" else _file(words)
        if name not in out:
            out.append(name)
    return out


def _report(stdout: bytes) -> Optional[dict]:
    """The JSON report after the ``---`` line, or None."""
    text = stdout.decode("utf-8", "replace")
    head, sep, body = text.partition("\n---\n")
    if not sep:
        return None
    try:
        doc = json.loads(body)
    except json.JSONDecodeError:
        return None
    return doc if isinstance(doc, dict) else None


def _mismatch(o: Outcome, rc: int, stdout: bytes,
              emitted: Optional[bytes]) -> Optional[str]:
    if rc != o.exit:
        return f"exit {rc}, expected {o.exit}"
    if o.emit is not None:
        return None if stdout == emitted else "emitted bytes differ"
    if o.exit == 2:
        return None
    rep = _report(stdout)
    if rep is None:
        return "no JSON report after ---"
    if rep.get("ok") is not (rc == 0):
        return f"report ok={rep.get('ok')!r} with exit {rc}"
    certs = rep.get("certificates", {})
    for key, want in o.certs.items():
        if certs.get(key, "<absent>") != want:
            return f"{key} = {certs.get(key, '<absent>')!r}, expected {want!r}"
    if o.witness and not any(r.get("status") == "fail" and "witness" in r
                             for r in rep.get("results", [])):
        return "no failed check with a witness"
    return None


def judge(exp: Expect, rc: int, timed_out: bool, stdout: bytes,
          stderr: bytes, emitted: Optional[bytes] = None) -> tuple[str, str]:
    """Classify one verdict as pass, timeout, crash, refused or wrong.

    A crash is a traceback, a signal or an exit code outside 0-2; exit 1
    with a witness is a verdict, not a crash.  Refused is exit 2 on an input
    the oracle says is valid.  Wrong is any other disagreement.
    """
    if timed_out:
        return "timeout", f"killed at the {CAP_S:g} s cap"
    if rc < 0 or rc > 2 or b"Traceback (most recent call last)" in stderr:
        last = stderr.decode("utf-8", "replace").strip().splitlines()
        return "crash", last[-1] if last else f"exit {rc}"
    reasons = [_mismatch(o, rc, stdout, emitted) for o in exp.outcomes]
    if None in reasons:
        return "pass", ""
    if rc == 2:
        return "refused", stderr.decode("utf-8", "replace").strip()
    return "wrong", reasons[0]
