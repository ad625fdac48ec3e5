"""Command-line interface.

Subcommands: check, integral, galois, theorem, catalog.  Each run prints a
prose report followed by a machine-readable JSON document (separated by a
"---" line) whose content is byte-deterministic for identical inputs.

Exit codes: 0 all checks pass, 1 a property check failed or an expected
result disagreed with the recomputed one, 2 input error (unparseable file,
missing block, unknown name).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from .catalog import entry, names
from .errors import HomHopfError, InstanceFormatError, UnknownEntry
from .galois import (balanced_tensor_AA, canonical_psi, coinvariants,
                     cor58_check, thm56_check, thm57_check)
from .instance_io import ParsedInstance, _matrix, emit_instance, load_instance
from .integrals import (find_quantum_integral, find_total_integral,
                        record_existence, theorem43_check, thm48_check)
from .report import Report

THEOREM_IDS = ("4.3", "4.8", "5.6", "5.7", "5.8")


def _compare_expected(rep: Report, expected: dict) -> None:
    """Fold the file's expected block into the report: any certificate the
    run recomputed must match the declared value."""
    for key in sorted(expected):
        if key in rep.certificates:
            got = rep.certificates[key]
            want = expected[key]
            rep.record(f"expected {key} = {want!r}", got == want,
                       detail=f"recomputed {got!r}")


def cmd_integral(inst: ParsedInstance, quantum: bool, total: bool) -> Report:
    rep = Report(f"integral feasibility for {inst.name or 'instance'}")
    CA = inst.comodule_algebra
    res = find_total_integral(CA)
    if record_existence(rep, "a total integral", "total_integral", res):
        rep.certificates["total_integral_kernel_dim"] = len(res.solution_family)
        rep.certificates["phi"] = _matrix(res.phi)
        rep.record("solution re-verifies", True,
                   detail=f"kernel dim {len(res.solution_family)}")
    else:
        rep.certificates["ranks"] = [res.system_rank, res.augmented_rank]
        rep.record("infeasibility certificate re-verifies", res.reverify(),
                   detail=f"ranks {res.system_rank}/{res.augmented_rank}")
    if quantum:
        qres = find_quantum_integral(CA, require_total=total)
        key = "total_quantum_integral" if total else "quantum_integral"
        if record_existence(rep, f"a {'total ' if total else ''}quantum "
                            "integral", key, qres):
            rep.certificates["gamma"] = _matrix(qres.gamma_hat)
        else:
            rep.certificates["quantum_ranks"] = [qres.system_rank,
                                                 qres.augmented_rank]
            rep.record("infeasibility certificate re-verifies", qres.reverify())
    _compare_expected(rep, inst.expected)
    return rep


def cmd_galois(inst: ParsedInstance) -> Report:
    rep = Report(f"Galois classification for {inst.name or 'instance'}")
    CA = inst.comodule_algebra
    B = coinvariants(CA)
    rep.certificates["coinvariant_dim"] = B.dim
    rep.record("coinvariants form a subalgebra", True, detail=f"dim {B.dim}")
    bt, aa_mod = balanced_tensor_AA(CA, B)
    rep.record("balanced tensor square built", True, detail=f"dim {bt.dim}")
    gal = canonical_psi(CA, bt)
    rep.certificates["galois"] = gal.classification
    rep.certificates["galois_rank"] = gal.rank
    rep.record("canonical map classified", True,
               detail=f"{gal.classification}, rank {gal.rank}/"
                      f"{gal.psi.codomain.dim}")
    _compare_expected(rep, inst.expected)
    return rep


def _require_regular_coaction(inst: ParsedInstance) -> None:
    """Corollary 5.8 tests the file's modules against H coacting on itself;
    refuse them when they live over another comodule algebra."""
    CA, H = inst.comodule_algebra, inst.hopf
    regular = (CA.algebra.mult.same_matrix(H.algebra.mult)
               and CA.algebra.alpha.same_matrix(H.algebra.alpha)
               and CA.algebra.unit == H.unit
               and CA.coaction.same_matrix(H.coalgebra.comult))
    if inst.modules and not regular:
        raise InstanceFormatError(
            "corollary 5.8 needs modules over H coacting on itself, but this "
            "module lives over the file's comodule algebra",
            f"modules.{min(inst.modules)}")


def cmd_theorem(inst: ParsedInstance, which: str) -> Report:
    CA = inst.comodule_algebra
    modules = [inst.modules[k] for k in sorted(inst.modules)]
    if which == "4.3":
        rep = theorem43_check(CA, modules)
    elif which == "4.8":
        rep = thm48_check(CA, modules)
    elif which == "5.6":
        rep = thm56_check(CA)
    elif which == "5.7":
        rep = thm57_check(CA, modules)
    else:
        _require_regular_coaction(inst)
        rep = cor58_check(inst.hopf, modules)
    _compare_expected(rep, inst.expected)
    return rep


def _write(text: str) -> None:
    """Write text to stdout.  A reader that closes the pipe early (head, a
    pager) ends the output, not the run."""
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except BrokenPipeError:
        # point stdout at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _emit_output(rep: Report, started_ns: int) -> int:
    ms = (time.monotonic_ns() - started_ns + 500_000) // 1_000_000
    _write(f"{rep.pretty()}\n"
           f"wall-time: {ms // 1000}.{ms % 1000:03d}s\n"
           "---\n"
           f"{json.dumps(rep.to_dict(), indent=2)}\n")
    return 0 if rep.ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="homhopf",
        description="exact checks, integral solvers, and theorem "
                    "verification for monoidal Hom-Hopf algebra instances")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run all structural axiom checks")
    p_check.add_argument("file")

    p_int = sub.add_parser("integral", help="decide integral existence")
    p_int.add_argument("file")
    p_int.add_argument("--quantum", action="store_true",
                       help="also decide quantum integrals")
    p_int.add_argument("--total", action="store_true",
                       help="with --quantum, require it to be total")

    p_gal = sub.add_parser("galois", help="classify the canonical Galois map")
    p_gal.add_argument("file")

    p_thm = sub.add_parser("theorem", help="verify a structure theorem")
    p_thm.add_argument("--id", required=True, choices=THEOREM_IDS,
                       dest="theorem_id")
    p_thm.add_argument("file")

    p_cat = sub.add_parser("catalog", help="list or emit built-in instances")
    p_cat.add_argument("action", choices=["list", "emit"])
    p_cat.add_argument("name", nargs="?")

    args = parser.parse_args(argv)
    started = time.monotonic_ns()

    try:
        if args.command == "catalog":
            if args.action == "list":
                _write("".join(name + "\n" for name in names()))
                return 0
            if not args.name:
                print("error: catalog emit needs an entry name",
                      file=sys.stderr)
                return 2
            _write(emit_instance(entry(args.name)))
            return 0

        if args.command == "integral" and args.total and not args.quantum:
            print("error: --total needs --quantum", file=sys.stderr)
            return 2
        inst = load_instance(args.file)
        # quantum integrals and theorems 4.8-5.8 use S^{-1}: refuse up front
        op = (f"theorem {args.theorem_id}" if args.command == "theorem"
              and args.theorem_id != "4.3" else "integral --quantum"
              if args.command == "integral" and args.quantum else None)
        if op and inst.hopf.antipode_inv is None:
            raise InstanceFormatError(f"{op} needs a bijective antipode",
                                      "hopf.antipode")
        if args.command == "check":
            rep = inst.validate()
        elif args.command == "integral":
            rep = cmd_integral(inst, args.quantum, args.total)
        elif args.command == "galois":
            rep = cmd_galois(inst)
        else:
            rep = cmd_theorem(inst, args.theorem_id)
        return _emit_output(rep, started)
    except (InstanceFormatError, UnknownEntry) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except HomHopfError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
