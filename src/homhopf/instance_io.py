"""Serialization of instances to and from a JSON structure-constant format.

Every scalar is an exact rational written as a string ("p/q", or just "p"
for integers), so files are human-diffable and round-trip bit-exactly.
A scalar whose numerator or denominator would have more digits than int()
takes (sys.get_int_max_str_digits()) is refused before it is built.
A file carries a Hopf (or coalgebra-datum) block, an optional comodule
algebra block, an optional block of named relative modules, and an
optional block of expected results.
"""

from __future__ import annotations

import json
import os
import re
import sys
from typing import Optional

from .errors import InstanceFormatError
from .linalg import (SCALAR_SPACE, LinearMap, Scalar, Space, frac, space,
                     tensor_space)
from .modules import RelHopfModule, check_rel_hopf
from .records import field, record
from .report import Report
from .structures import (ComoduleAlgebra, HomAlgebra, HomCoalgebra,
                         HomHopfAlgebra, check_comodule_algebra,
                         check_hom_coalgebra, check_hom_hopf,
                         regular_comodule_algebra)

FORMAT_NAME = "homhopf-instance"
DEFAULT_MAX_DIM = 12


def max_dim() -> int:
    """Dimension cap for parsed instances, from HOMHOPF_MAX_DIM."""
    raw = os.environ.get("HOMHOPF_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        value = int(raw)
    except ValueError:
        raise InstanceFormatError(
            f"HOMHOPF_MAX_DIM must be an integer, got {raw!r}")
    if value < 1:
        raise InstanceFormatError("HOMHOPF_MAX_DIM must be positive")
    return value


@record(frozen=True)
class ParsedInstance:
    """An instance file, or a catalog entry, in memory."""

    name: str
    kind: str                        # "hopf" or "coalgebra-datum"
    description: str
    comodule_algebra: ComoduleAlgebra
    modules: dict[str, RelHopfModule] = field(default_factory=dict)
    expected: dict[str, object] = field(default_factory=dict)

    @property
    def hopf(self) -> HomHopfAlgebra:
        return self.comodule_algebra.hopf

    def validate(self) -> Report:
        """The structure suite: the Hopf algebra and comodule algebra axioms
        (the coalgebra's alone for a datum), then each module's, by name."""
        rep = Report(f"structural checks for {self.name or 'instance'}")
        if self.kind == "hopf":
            rep.extend(check_hom_hopf(self.hopf), "hopf: ")
            rep.extend(check_comodule_algebra(self.comodule_algebra),
                       "comodule algebra: ")
        else:
            rep.extend(check_hom_coalgebra(self.hopf.coalgebra), "coalgebra: ")
        for name, M in sorted(self.modules.items()):
            rep.extend(check_rel_hopf(M), f"module {name}: ")
        return rep


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------

def _matrix(f: LinearMap) -> list[list[str]]:
    return [[str(x) for x in row] for row in f.matrix]


def _lines(items: list[str], depth: int, brackets: str = "[]") -> str:
    """items, JSON texts laid out at depth + 1, as json.dumps(indent=2) lays
    out a list (brackets "{}": an object's members) at depth."""
    if not items:
        return brackets
    ind = "\n" + "  " * (depth + 1)
    return brackets[0] + ind + ("," + ind).join(items) + ind[:-2] + brackets[1]


def _block(sp: Space, depth: int, **maps) -> str:
    """A block of the file at depth: dimension, basis, then each named map
    in the order given, a unit k -> A as the flat list of its one column,
    written from its columns: "0" for a zero, str(c) for an entry c."""
    members = [f'"dim": {sp.dim}', '"basis": ' + _lines(
        [json.dumps(x) for x in sp.labels], depth + 1)]
    for key, f in maps.items():
        rows = [['"0"'] * f.domain.dim for _ in range(f.codomain.dim)]
        for j, col in enumerate(f.cols):
            for i, c in col:
                rows[i][j] = f'"{c}"'
        members.append(f'"{key}": ' + _lines(
            [row for row, in rows] if key == "unit"
            else [_lines(row, depth + 2) for row in rows], depth + 1))
    return _lines(members, depth, "{}")


def emit_instance(inst: ParsedInstance) -> str:
    """Serialize an instance, parsed or from the catalog, to the canonical
    file text, written from the columns: byte for byte json.dumps(doc,
    indent=2) of the document of dense string matrices, every other value
    through json.dumps.  Equal instances give byte-identical output."""
    H, CA = inst.hopf, inst.comodule_algebra
    A = CA.algebra
    head = json.dumps({"format": FORMAT_NAME, "field": "rational",
                       "name": inst.name, "kind": inst.kind,
                       "description": inst.description}, indent=2)
    tail = json.dumps({"expected": {k: inst.expected[k]
                                    for k in sorted(inst.expected)}}, indent=2)
    blocks = [
        '"hopf": ' + _block(H.space, 1, mult=H.algebra.mult,
                            unit=H.algebra.unit, comult=H.coalgebra.comult,
                            counit=H.coalgebra.counit, antipode=H.antipode,
                            alpha=H.algebra.alpha),
        '"comodule_algebra": ' + _block(A.space, 1, mult=A.mult, unit=A.unit,
                                        beta=A.alpha, coaction=CA.coaction),
        '"modules": ' + _lines([
            json.dumps(name) + ": " + _block(M.space, 2, mu=M.mu,
                                             action=M.action,
                                             coaction=M.coaction)
            for name, M in sorted(inst.modules.items())], 1, "{}")]
    # head ends "\n}" and tail starts "{\n": the doc's own braces
    return "".join([head[:-2], ",\n  ", ",\n  ".join(blocks), ",\n",
                    tail[2:], "\n"])


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def _get(doc: dict, key: str, types, where: str):
    if key not in doc:
        raise InstanceFormatError(f"missing key {key!r}", where)
    value = doc[key]
    # a JSON true or false is a bool, which Python counts as an int
    if not isinstance(value, types) or isinstance(value, bool):
        raise InstanceFormatError(
            f"key {key!r} has wrong type {type(value).__name__}", where)
    return value


def _parse_scalar(x) -> Scalar:
    """A JSON string or integer as an exact scalar; raises TypeError,
    ValueError or ZeroDivisionError, without a location."""
    if type(x) is int:
        return x
    if type(x) is not str:
        raise TypeError(f"scalar must be a string or integer, "
                        f"got {type(x).__name__}")
    try:
        return int(x)
    except ValueError:
        pass
    if m := _DECIMAL.fullmatch(x):
        # digits of the numerator and denominator Fraction builds, unreduced
        e, limit = int(m[3] or 0), getattr(sys, "get_int_max_str_digits", int)()
        if limit and max(len(m[1] + m[2]) + e, len(m[2]) - e + 1) > limit:
            raise ValueError(f"numerator or denominator over {limit} digits")
    return frac(x)


_SCALAR_ERRORS = (TypeError, ValueError, ZeroDivisionError)
# a decimal string as Fraction reads it; it builds 10**exponent in full
_DECIMAL = re.compile(r"\s*[-+]?([\d_]*)\.?([\d_]*)(?:[eE]([-+]?[\d_]+))?\s*")


def _bad_scalar(raw: list, where: str) -> InstanceFormatError:
    """The error for the first entry of raw that is not a scalar; the
    location where[j] is spelt out only here, not for every scalar."""
    for j, x in enumerate(raw):
        try:
            _parse_scalar(x)
        except TypeError as exc:
            return InstanceFormatError(str(exc), f"{where}[{j}]")
        except (ValueError, ZeroDivisionError) as exc:
            return InstanceFormatError(f"bad rational {x!r}: {exc}",
                                       f"{where}[{j}]")
    raise AssertionError(f"{where} has no bad scalar")


def _parse_unit(block: dict, sp: Space, where: str) -> LinearMap:
    """The block's unit, a flat list of sp.dim scalars, as a map k -> sp."""
    raw, where = _get(block, "unit", list, where), f"{where}.unit"
    if len(raw) != sp.dim:
        raise InstanceFormatError(
            f"expected a list of {sp.dim} scalars", where)
    try:
        return LinearMap.from_rows(SCALAR_SPACE, sp,
                                   [[_parse_scalar(x)] for x in raw])
    except _SCALAR_ERRORS:
        raise _bad_scalar(raw, where)


def _parse_matrix(block: dict, key: str, dom: Space, cod: Space,
                  where: str) -> LinearMap:
    raw, where = _get(block, key, list, where), f"{where}.{key}"
    if len(raw) != cod.dim:
        raise InstanceFormatError(
            f"expected {cod.dim} rows of {dom.dim} scalars", where)
    cols: list[list] = [[] for _ in range(dom.dim)]
    for i, row in enumerate(raw):
        if not isinstance(row, list) or len(row) != dom.dim:
            raise InstanceFormatError(
                f"expected a row of {dom.dim} scalars", f"{where} row {i}")
        try:
            for col, x in zip(cols, row):
                if x != "0" and (c := _parse_scalar(x)):
                    col.append((i, c))
        except _SCALAR_ERRORS:
            raise _bad_scalar(row, f"{where}[{i}]")
    return LinearMap(dom, cod, tuple(map(tuple, cols)))


def _parse_space(block: dict, where: str, cap: Optional[int]) -> Space:
    """A module's space (cap None) may be zero; an algebra's holds 1 != 0."""
    dim = _get(block, "dim", int, where)
    labels = _get(block, "basis", list, where)
    if dim < 0 or dim == 0 and cap is not None:
        raise InstanceFormatError("dimension must be " + (
            "positive" if cap is not None else "non-negative"), where)
    if cap is not None and dim > cap:
        raise InstanceFormatError(
            f"dimension {dim} exceeds the cap {cap} "
            "(raise HOMHOPF_MAX_DIM to override)", where)
    if len(labels) != dim or not all(isinstance(x, str) for x in labels):
        raise InstanceFormatError(
            f"basis must list {dim} label strings", where)
    if len(set(labels)) != dim:
        raise InstanceFormatError("basis labels must be pairwise distinct",
                                  where)
    # so that a tensor product's label splits into its factors one way only
    if len({x.count("⊗") for x in labels}) > 1:
        raise InstanceFormatError(
            "basis labels must all contain ⊗ the same number of times", where)
    return space(*labels)


def _invert(f: LinearMap, what: str, where: str) -> LinearMap:
    try:
        return f.inverse()
    except ValueError:
        raise InstanceFormatError(f"{what} is not invertible", where)


def _parse_hopf(block: dict, kind: str, cap: int) -> HomHopfAlgebra:
    where = "hopf"
    sp = _parse_space(block, where, cap)
    sp2 = tensor_space(sp, sp)
    mult = _parse_matrix(block, "mult", sp2, sp, where)
    unit = _parse_unit(block, sp, where)
    comult = _parse_matrix(block, "comult", sp, sp2, where)
    counit = _parse_matrix(block, "counit", sp, SCALAR_SPACE, where)
    antipode = _parse_matrix(block, "antipode", sp, sp, where)
    alpha = _parse_matrix(block, "alpha", sp, sp, where)
    alpha_inv = _invert(alpha, "alpha", f"{where}.alpha")
    algebra = HomAlgebra(sp, mult, unit, alpha, alpha_inv)
    coalgebra = HomCoalgebra(sp, comult, counit, alpha, alpha_inv)
    H = HomHopfAlgebra.build(algebra, coalgebra, antipode)
    if kind == "hopf" and H.antipode_inv is None:
        raise InstanceFormatError("antipode is not invertible",
                                  f"{where}.antipode")
    return H


def _parse_comodule_algebra(block: dict, H: HomHopfAlgebra,
                            cap: int) -> ComoduleAlgebra:
    where = "comodule_algebra"
    sp = _parse_space(block, where, cap)
    sp2 = tensor_space(sp, sp)
    mult = _parse_matrix(block, "mult", sp2, sp, where)
    unit = _parse_unit(block, sp, where)
    beta = _parse_matrix(block, "beta", sp, sp, where)
    A = H.algebra  # shared when the block spells it: one suite runs
    if (sp.labels, mult.scaled, unit.scaled, beta.scaled) != (
            A.space.labels, A.mult.scaled, A.unit.scaled, A.alpha.scaled):
        A = HomAlgebra(sp, mult, unit, beta,
                       _invert(beta, "beta", f"{where}.beta"))
    coaction = _parse_matrix(block, "coaction", A.space,
                             tensor_space(A.space, H.space), where)
    return ComoduleAlgebra(A, H, coaction)


def _parse_module(name: str, block: dict,
                  CA: ComoduleAlgebra) -> RelHopfModule:
    where = f"modules.{name}"
    # modules inherit validity from the capped base algebras; their own
    # dimension may be a tensor product exceeding the cap
    sp = _parse_space(block, where, None)
    mu = _parse_matrix(block, "mu", sp, sp, where)
    mu_inv = _invert(mu, "mu", f"{where}.mu")
    action = _parse_matrix(block, "action", tensor_space(sp, CA.space), sp,
                           where)
    coaction = _parse_matrix(block, "coaction", sp,
                             tensor_space(sp, CA.hopf.space), where)
    return RelHopfModule(sp, mu, mu_inv, action, coaction, CA)


def parse_instance(text: str) -> ParsedInstance:
    """Parse instance-file text; raise InstanceFormatError on any problem."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(
            f"not valid JSON: {exc.msg}", f"line {exc.lineno} col {exc.colno}")
    except ValueError:  # from int(), on a JSON integer of too many digits
        raise InstanceFormatError("not valid JSON: an integer has more than "
                                  f"{sys.get_int_max_str_digits()} digits")
    if not isinstance(doc, dict):
        raise InstanceFormatError("top level must be an object")
    if doc.get("format") != FORMAT_NAME:
        raise InstanceFormatError(f"format must be {FORMAT_NAME!r}")
    if doc.get("field") != "rational":
        raise InstanceFormatError("field must be 'rational'")
    kind = doc.get("kind", "hopf")
    if kind not in ("hopf", "coalgebra-datum"):
        raise InstanceFormatError(f"unknown kind {kind!r}", "kind")
    name = doc.get("name", "")
    description = doc.get("description", "")
    if not isinstance(name, str) or not isinstance(description, str):
        raise InstanceFormatError("name and description must be strings")
    cap = max_dim()

    H = _parse_hopf(_get(doc, "hopf", dict, "top level"), kind, cap)
    ca_block = doc.get("comodule_algebra")
    if ca_block is None:
        CA = regular_comodule_algebra(H)
    else:
        if not isinstance(ca_block, dict):
            raise InstanceFormatError("comodule_algebra must be an object",
                                      "comodule_algebra")
        CA = _parse_comodule_algebra(ca_block, H, cap)

    modules: dict[str, RelHopfModule] = {}
    raw_modules = doc.get("modules", {})
    if not isinstance(raw_modules, dict):
        raise InstanceFormatError("modules must be an object", "modules")
    for mod_name, block in raw_modules.items():
        if not isinstance(block, dict):
            raise InstanceFormatError("module block must be an object",
                                      f"modules.{mod_name}")
        modules[mod_name] = _parse_module(mod_name, block, CA)

    expected = doc.get("expected", {})
    if not isinstance(expected, dict):
        raise InstanceFormatError("expected must be an object", "expected")

    return ParsedInstance(name, kind, description, CA, modules, expected)


def load_instance(path: str) -> ParsedInstance:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read file: {exc.strerror}", path)
    except UnicodeDecodeError as exc:
        # read() decodes the whole file at once, so exc.start is its offset
        raise InstanceFormatError(
            f"not UTF-8: byte 0x{exc.object[exc.start]:02x} at offset "
            f"{exc.start}", path)
    return parse_instance(text)
