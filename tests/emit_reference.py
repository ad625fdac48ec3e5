"""A reference for instance_io.emit_instance that shares no code with its
column writer: the whole document built as dense lists of strings and
written by json.dumps(doc, indent=2)."""

import json

from homhopf.instance_io import FORMAT_NAME


def _strings(f):
    return [[str(x) for x in row] for row in f.matrix]


def _block(sp, **maps):
    return {"dim": sp.dim, "basis": list(sp.labels),
            **{key: [x for x, in _strings(f)] if key == "unit"
               else _strings(f) for key, f in maps.items()}}


def reference_emit(inst):
    H, CA = inst.hopf, inst.comodule_algebra
    A = CA.algebra
    doc = {
        "format": FORMAT_NAME,
        "field": "rational",
        "name": inst.name,
        "kind": inst.kind,
        "description": inst.description,
        "hopf": _block(H.space, mult=H.algebra.mult, unit=H.algebra.unit,
                       comult=H.comult, counit=H.counit,
                       antipode=H.antipode, alpha=H.algebra.alpha),
        "comodule_algebra": _block(A.space, mult=A.mult, unit=A.unit,
                                   beta=A.alpha, coaction=CA.coaction),
        "modules": {name: _block(M.space, mu=M.mu, action=M.action,
                                 coaction=M.coaction)
                    for name, M in sorted(inst.modules.items())},
        "expected": {k: inst.expected[k] for k in sorted(inst.expected)},
    }
    return json.dumps(doc, indent=2) + "\n"
