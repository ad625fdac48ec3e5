"""Command-line interface.

Subcommands: check, integral, galois, theorem (one THEOREMS row per --id),
catalog.  Each run prints a prose report and a machine-readable JSON document,
after a "---" line, whose content is byte-deterministic for identical inputs.

Exit codes: 0 all checks pass, 1 a property check failed or an expected
result disagreed with the recomputed one, 2 input error (a command line
outside USAGE, which _parse alone refuses; a bad file; a failed write).
Every byte leaves through _write, and run() exits after it without teardown.
"""

from __future__ import annotations

import errno
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
from .structures import HomHopfAlgebra

# theorem id -> (its driver on the file and its test modules, whether it needs
# S^{-1}); a lambda looks its driver up when called, so a patched one runs
THEOREMS = {
    "4.3": (lambda inst, ms: theorem43_check(inst.comodule_algebra, ms), False),
    "4.8": (lambda inst, ms: thm48_check(inst.comodule_algebra, ms), True),
    "5.6": (lambda inst, ms: thm56_check(inst.comodule_algebra), True),
    "5.7": (lambda inst, ms: thm57_check(inst.comodule_algebra, ms), True),
    "5.8": (lambda inst, ms: cor58_check(_regular_hopf(inst), ms), True),
}


def _compare_expected(rep: Report, expected: dict) -> None:
    """Fold the file's expected block into the report: any certificate the
    run recomputed must match the declared value as JSON text, so true is
    not 1 and 3.0 is not 3 (Python's == says they are), at any depth."""
    for key in sorted(expected.keys() & rep.certificates.keys()):
        got, want = rep.certificates[key], expected[key]
        rep.record(f"expected {key} = {want!r}",
                   json.dumps(got, sort_keys=True)
                   == json.dumps(want, sort_keys=True),
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
    return rep


def _regular_hopf(inst: ParsedInstance) -> HomHopfAlgebra:
    """The H of Corollary 5.8, which tests the file's modules over H coacting
    on itself; refuse them when they live over another comodule algebra."""
    CA, H = inst.comodule_algebra, inst.hopf
    regular = (CA.algebra.mult.same_matrix(H.algebra.mult)
               and CA.algebra.alpha.same_matrix(H.algebra.alpha)
               and CA.algebra.unit.same_matrix(H.algebra.unit)
               and CA.coaction.same_matrix(H.coalgebra.comult))
    if inst.modules and not regular:
        raise InstanceFormatError(
            "corollary 5.8 needs modules over H coacting on itself, but this "
            "module lives over the file's comodule algebra",
            f"modules.{min(inst.modules)}")
    return H


def _write(text: str, stream) -> None:
    """Write and flush text to stream.  A stream closed at start (None), a
    closed pipe or an unwritable descriptor ends that output, not the run;
    any other write error, such as a full disk, exits 2 with one line."""
    if stream is None:
        return
    try:
        if text:  # an unbuffered stream writes even "", and /dev/full fails it
            stream.write(text)
        stream.flush()
    except OSError as exc:
        # point the stream at devnull so the flush at exit cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
        if exc.errno not in (errno.EPIPE, errno.EBADF):
            name = "stdout" if stream is sys.stdout else "stderr"
            _write(f"homhopf: error: cannot write {name}: {exc}\n", sys.stderr)
            raise SystemExit(2)


def _emit_output(rep: Report, started_ns: int) -> int:
    ms = (time.monotonic_ns() - started_ns + 500_000) // 1_000_000
    _write(f"{rep.pretty()}\n"
           f"wall-time: {ms // 1000}.{ms % 1000:03d}s\n"
           "---\n"
           f"{json.dumps(rep.to_dict(), indent=2)}\n", sys.stdout)
    return 0 if rep.ok else 1


USAGE = f"""\
usage: homhopf check FILE
       homhopf integral FILE [--quantum [--total]]
       homhopf galois FILE
       homhopf theorem --id {{{','.join(THEOREMS)}}} FILE
       homhopf catalog list
       homhopf catalog emit NAME
       homhopf -h | --help
"""
# subcommand -> (its arguments, all required; its flags)
_GRAMMAR = {"check": (("FILE",), ()), "galois": (("FILE",), ()),
            "integral": (("FILE",), ("--quantum", "--total")),
            "theorem": (("FILE",), ("--id",)),
            "catalog": (("{list,emit}", "NAME"), ())}


def _parse(argv: list[str]) -> tuple[str, list[str], dict]:
    """(subcommand, arguments, flags) of a command line in USAGE, flags
    anywhere after the subcommand; ValueError names the word at fault."""
    # Not argparse: its import, its gettext lookups (which import locale) and
    # building its parsers took about 4.5 ms of the 53 ms of CPU of a small
    # verdict in a fresh process (Python 3.11.7), the largest start-up cost
    # the package could shed.
    if not argv or argv[0] not in _GRAMMAR:
        raise ValueError(f"unknown subcommand {argv[0]!r}" if argv
                         else "missing subcommand")
    (names, known), words = _GRAMMAR[argv[0]], iter(argv[1:])
    args, flags = [], {}
    for word in words:
        flag, eq, value = word.partition("=")
        if not word.startswith("-"):
            args.append(word)
        elif flag not in known or eq and flag != "--id":
            raise ValueError(f"unknown flag {word!r} for {argv[0]}")
        elif flag in flags:
            raise ValueError(f"repeated flag {flag!r}")
        else:
            flags[flag] = (value if eq else next(words, "")) \
                if flag == "--id" else True
    if argv[0] == "catalog" and args[:1] not in ([], ["list"], ["emit"]):
        raise ValueError(f"catalog needs list or emit, got {args[0]!r}")
    n = len(names) - (argv[0] == "catalog" and args[:1] == ["list"])
    if len(args) < n:
        raise ValueError(" ".join(argv[:1] + args)
                         + f" needs {names[len(args)]}")
    if len(args) > n:
        raise ValueError(f"unexpected argument {args[n]!r}")
    if argv[0] == "theorem" and flags.get("--id") not in THEOREMS:
        raise ValueError(f"theorem needs --id in {{{','.join(THEOREMS)}}}"
                         f", got {flags.get('--id', 'none')}")
    if "--total" in flags and "--quantum" not in flags:
        raise ValueError("--total needs --quantum")
    return argv[0], args, flags


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        _write(USAGE, sys.stdout)
        return 0
    try:
        command, args, flags = _parse(argv)
    except ValueError as exc:
        _write(f"{USAGE}homhopf: error: {exc}\n", sys.stderr)
        return 2
    started = time.monotonic_ns()

    try:
        if command == "catalog":
            _write("".join(name + "\n" for name in names()) if args == ["list"]
                   else emit_instance(entry(args[1])), sys.stdout)
            return 0

        quantum, theorem_id = "--quantum" in flags, flags.get("--id")
        inst = load_instance(args[0])
        driver, needs_s_inv = THEOREMS.get(theorem_id, (None, False))
        # quantum integrals and the theorems that need S^{-1}: refuse up front
        op = (f"theorem {theorem_id}" if needs_s_inv
              else "integral --quantum" if quantum else None)
        if op and inst.hopf.antipode_inv is None:
            raise InstanceFormatError(f"{op} needs a bijective antipode",
                                      "hopf.antipode")
        if command == "check":
            rep = inst.validate()
        elif command == "integral":
            rep = cmd_integral(inst, quantum, "--total" in flags)
        elif command == "galois":
            rep = cmd_galois(inst)
        else:
            rep = driver(inst, [inst.modules[k] for k in sorted(inst.modules)])
        _compare_expected(rep, inst.expected)
        return _emit_output(rep, started)
    except (HomHopfError, ValueError) as exc:
        _write(f"error: {exc}\n", sys.stderr)
        return 2 if isinstance(exc, (InstanceFormatError, UnknownEntry,
                                     ValueError)) else 1


def run() -> None:
    """Entry point: main(), then flush and os._exit without teardown."""
    code = main()
    for stream in (sys.stdout, sys.stderr):
        _write("", stream)
    os._exit(code)  # teardown took 6-12 ms a verdict (Python 3.11, 2 vCPUs)


if __name__ == "__main__":
    run()
