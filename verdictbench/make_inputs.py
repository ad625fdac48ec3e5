"""Build and write a workload's instance files.

    python verdictbench/make_inputs.py --seed N --out DIR FILE...

Run with the checkout's ``src`` on ``PYTHONPATH``: catalog files come from
``homhopf.catalog.entry`` (which validates the entry, ``prop31_check``
included) and ``emit_instance``; kC_n files from ``cyclic_group_hopf``.
Rebased and corrupted files are derived from those by ``gen``.  Prints one
JSON object mapping each file to its sha256.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import random
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import gen  # noqa: E402
from homhopf import catalog, instance_io  # noqa: E402
from homhopf.modules import regular_rel_hopf  # noqa: E402
from homhopf.structures import regular_comodule_algebra  # noqa: E402


@functools.cache
def catalog_text(name: str) -> str:
    return instance_io.emit_instance(catalog.entry(name))


@functools.cache
def kcn_text(n: int) -> str:
    """kC_n coacting on itself, with its regular relative Hopf module."""
    CA = regular_comodule_algebra(catalog.cyclic_group_hopf(n))
    inst = instance_io.ParsedInstance(
        f"kC{n}", "hopf", f"kC{n} coacting on itself by its comultiplication",
        CA, {"A": regular_rel_hopf(CA)}, {})
    return instance_io.emit_instance(inst)


def file_text(fname: str, seed: int) -> str:
    """The text of one named input.  Names: ``<catalog entry>.json``,
    ``kC<n>.json``, ``<entry>-A.json`` and ``<base>-rebased.json`` (module A
    only),
    ``kC<n>-bad-mult.json`` and ``sweedler-H4-bad-GA.json``."""
    stem = fname.removesuffix(".json")
    rng = random.Random(f"{seed}:{stem}")
    if stem in catalog.names():
        return catalog_text(stem)
    if stem.endswith("-rebased"):
        base = json.loads(file_text(stem.removesuffix("-rebased") + ".json",
                                    seed))
        return gen.dump(gen.rebase(gen.keep_modules(base, ("A",)), rng))
    if stem.endswith("-bad-mult"):
        base = json.loads(file_text(stem.removesuffix("-bad-mult") + ".json",
                                    seed))
        return gen.dump(gen.corrupt_hopf_mult(base, rng))
    if stem.endswith("-A"):
        base = json.loads(catalog_text(stem.removesuffix("-A")))
        return gen.dump(gen.keep_modules(base, ("A",)))
    if stem == "sweedler-H4-bad-GA":
        base = json.loads(catalog_text("sweedler-H4"))
        return gen.dump(gen.corrupt_unit_action(base, "G(A)", rng))
    if stem.startswith("kC") and stem[2:].isdigit():
        return kcn_text(int(stem[2:]))
    raise ValueError(f"no recipe for input {fname!r}")


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("files", nargs="+")
    args = ap.parse_args()
    os.makedirs(args.out, exist_ok=True)
    digests = {}
    for fname in args.files:
        data = file_text(fname, args.seed).encode()
        with open(os.path.join(args.out, fname), "wb") as fh:
            fh.write(data)
        digests[fname] = gen.sha256(data)
    print(json.dumps(digests, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
