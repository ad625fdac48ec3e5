"""Source hygiene that no installed linter checks: every name a module
imports is used in that module, every import is at module level, every
module-level function, class and assignment in the package is named
somewhere in the package or its tests, arithmetic is exact, no code is
generated at run time, nothing relies on the interpreter teardown that
``cli.run`` skips, a CLI run loads none of dataclasses, inspect,
argparse, gettext and locale, no code names permute_factors, no
swap_map call is written as a leg of a tensor product, the CLI writes
and flushes its output only through cli._write, and no site decides a
reduced identity into a throwaway Report("") and records the pass itself."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "homhopf"
TESTS = Path(__file__).resolve().parent
# __init__.py imports names only to re-export them
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def _imported(tree: ast.AST) -> dict[str, int]:
    """Name bound by each import statement -> its line."""
    out = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                out[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                out[alias.asname or alias.name] = node.lineno
    return out


def _used(tree: ast.AST) -> set[str]:
    """Every name read in the module, including names inside quoted
    annotations; a name that is only assigned to is not read."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for ann in annotations:
            for sub in ast.walk(ann) if ann is not None else ():
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    used |= _used(ast.parse(sub.value, mode="eval"))
    return used


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = _used(tree)
    unused = {name: line for name, line in _imported(tree).items()
              if name not in used}
    assert not unused, f"{path.name} imports names it never uses: {unused}"


def test_the_scan_sees_an_unused_import():
    tree = ast.parse("from typing import Callable, Sequence\n"
                     "import os.path\n"
                     "def f(x: 'Sequence[int]'): return x\n")
    assert {n for n in _imported(tree) if n not in _used(tree)} == \
        {"Callable", "os"}


def _local_imports(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, module) for each import inside a function body; the package
    has no import cycle to break, so every import sits at module level."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for sub in ast.walk(node):
                if isinstance(sub, ast.ImportFrom):
                    out.add((sub.lineno, "." * sub.level + (sub.module or "")))
                elif isinstance(sub, ast.Import):
                    out.add((sub.lineno,
                             ", ".join(a.name for a in sub.names)))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_import_is_at_module_level(path):
    found = _local_imports(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} imports inside a function at {found}"


def test_the_scan_sees_a_function_local_import():
    tree = ast.parse("import os\n"
                     "def f():\n"
                     "    from .galois import cor58_check\n"
                     "    def g():\n"
                     "        import json, sys\n"
                     "class C:\n"
                     "    def m(self):\n"
                     "        from . import linalg\n")
    assert _local_imports(tree) == [(3, ".galois"), (5, "json, sys"),
                                    (8, ".")]


def _defined(tree: ast.Module) -> dict[str, int]:
    """Module-level function, class and assigned names -> their line,
    dunder names left out."""
    out = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            out[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            for target in targets:
                for sub in ast.walk(target):
                    if isinstance(sub, ast.Name):
                        out[sub.id] = node.lineno
    return {n: line for n, line in out.items() if not n.startswith("__")}


def _named(tree: ast.AST) -> set[str]:
    """Every name read, every attribute read and every name imported."""
    named = _used(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            named.update(alias.name for alias in node.names)
    return named


def _unnamed(sources: dict[str, str]) -> set[str]:
    """'module.name' for each definition in a module under src that no
    source (its own module included) names."""
    trees = {key: ast.parse(text) for key, text in sources.items()}
    named = set().union(*(_named(tree) for tree in trees.values()))
    return {f"{key}.{name}" for key, tree in trees.items()
            if key.startswith("src/")
            for name in _defined(tree) if name not in named}


def test_every_definition_is_named_somewhere():
    sources = {f"src/{p.stem}": p.read_text() for p in SRC.glob("*.py")}
    sources.update({f"tests/{p.stem}": p.read_text()
                    for p in TESTS.glob("*.py")})
    assert not _unnamed(sources)


def test_the_scan_sees_an_unused_definition():
    sources = {
        "src/a": "from fractions import Fraction\n"
                 "Scalar = Fraction\n"
                 "LIMIT: int = 3\n"
                 "def used(): return LIMIT\n"
                 "def unused(): return used()\n"
                 "class Kept: pass\n"
                 "class Dropped: pass\n",
        "tests/b": "from a import used\nimport a\nused(); a.Kept()\n",
    }
    assert _unnamed(sources) == {"src/a.Scalar", "src/a.unused",
                                 "src/a.Dropped"}


def _inexact(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each true division, float literal and use of the
    name float: arithmetic stays exact."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and \
                isinstance(node.op, ast.Div):
            out.append((node.lineno, "/"))
        elif isinstance(node, ast.Constant) and \
                isinstance(node.value, (float, complex)):
            out.append((node.lineno, repr(node.value)))
        elif isinstance(node, ast.Name) and node.id == "float":
            out.append((node.lineno, "float"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_float_and_no_true_division(path):
    found = _inexact(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} is not exact at {found}"


def test_the_scan_sees_a_division_and_a_float():
    tree = ast.parse("def f(a: float, b):\n"
                     "    a /= 2\n"
                     "    return a / b + 0.5 + a // b\n")
    assert _inexact(tree) == [(1, "float"), (2, "/"), (3, "/"), (3, "0.5")]


def _generated(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, name) for each call of exec, eval or compile."""
    return sorted((node.lineno, node.func.id) for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Name)
                  and node.func.id in ("exec", "eval", "compile"))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_code_generated_at_run_time(path):
    found = _generated(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} generates code at {found}"


def test_the_scan_sees_exec_eval_and_compile():
    tree = ast.parse("exec('x = 1')\n"
                     "y = eval(compile('1', '<s>', 'eval'))\n"
                     "re.compile('a')\n")
    assert _generated(tree) == [(1, "exec"), (2, "compile"), (2, "eval")]


# cli.run ends the process with os._exit: no atexit hook, no thread join,
# no temporary file removal and no finalizer runs after the report
_TEARDOWN_MODULES = {"atexit", "threading", "tempfile"}


def _skipped_cleanup(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each import of a module whose cleanup runs at
    interpreter exit and each definition of __del__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out.extend((node.lineno, a.name) for a in node.names
                       if a.name.split(".")[0] in _TEARDOWN_MODULES)
        elif isinstance(node, ast.ImportFrom) and node.level == 0 and \
                node.module.split(".")[0] in _TEARDOWN_MODULES:
            out.append((node.lineno, node.module))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and \
                node.name == "__del__":
            out.append((node.lineno, "__del__"))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_nothing_relies_on_interpreter_teardown(path):
    found = _skipped_cleanup(ast.parse(path.read_text(), filename=str(path)))
    assert not found, f"{path.name} relies on teardown at {found}"


def test_the_scan_sees_teardown_cleanup():
    tree = ast.parse("import atexit, json\n"
                     "from threading import Thread\n"
                     "import tempfile as tf\n"
                     "from .tempfile import x\n"
                     "class C:\n"
                     "    def __del__(self): pass\n")
    assert _skipped_cleanup(tree) == [(1, "atexit"), (2, "threading"),
                                      (3, "tempfile"), (6, "__del__")]


def _fresh_modules(prelude: str) -> set[str]:
    """sys.modules of a fresh interpreter (no site) after prelude,
    ``import homhopf.cli`` and ``homhopf catalog list``."""
    code = (f"{prelude}\nimport sys\nimport homhopf.cli\n"
            "homhopf.cli.main(['catalog', 'list'])\n"
            "print(' '.join(sys.modules), file=sys.stderr)")
    env = dict(os.environ, PYTHONPATH=str(SRC.parent))
    err = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                         capture_output=True, text=True, check=True,
                         timeout=60).stderr
    return set(err.split())


def test_cli_start_up_loads_neither_dataclasses_nor_inspect():
    loaded = _fresh_modules("")
    assert "homhopf.cli" in loaded
    assert not loaded & {"dataclasses", "inspect"}
    # the command line is read without argparse: its import and gettext
    # lookups (which import locale) cost a small verdict about 4.5 ms
    assert not loaded & {"argparse", "gettext", "locale"}


def test_the_start_up_probe_sees_dataclasses():
    assert "dataclasses" in _fresh_modules("import dataclasses")


# Every module decides each map identity it records through verify, so
# that a failure carries a witness; a pass argument computed from a map
# comparison or from another verdict would fail with a bare "fail".
_MORPHISM_PREDICATES = {"is_morphism", "is_colinear", "is_alinear",
                        "is_intertwining"}


def _verdict_read(node: ast.AST) -> str | None:
    """What node reads if it compares maps or reads another verdict."""
    if isinstance(node, ast.Attribute) and node.attr == "ok":
        return ".ok"
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and \
                node.func.attr in ("same_matrix", "is_identity"):
            return f".{node.func.attr}("
        if isinstance(node.func, ast.Name) and \
                node.func.id in _MORPHISM_PREDICATES:
            return node.func.id
    return None


def _unwitnessed_records(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each x.record(name, passed, ...) whose passed
    argument compares maps or reads another verdict, directly or through a
    name assigned in the same function.  Literal facts and rank comparisons
    pass."""
    out = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        assigned: dict[str, list[ast.AST]] = {}
        for node in ast.walk(fn):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        assigned.setdefault(target.id, []).append(node.value)
        for node in ast.walk(fn):
            if not (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "record"):
                continue
            passed = node.args[1:2] + [k.value for k in node.keywords
                                       if k.arg == "passed"]
            exprs = list(passed)
            for expr in passed:
                for sub in ast.walk(expr):
                    if isinstance(sub, ast.Name):
                        exprs.extend(assigned.get(sub.id, []))
            for expr in exprs:
                for sub in ast.walk(expr):
                    what = _verdict_read(sub)
                    if what is not None:
                        out.add((node.lineno, what))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_every_conclusion_goes_through_verify(path):
    found = _unwitnessed_records(ast.parse(path.read_text(),
                                           filename=str(path)))
    assert not found, f"{path.name} records a bare verdict at {found}"


def test_the_scan_sees_a_bare_verdict():
    tree = ast.parse(
        "def drive(rep, f, g, M, N, sub, xi):\n"
        "    rep.record('a', (f @ g).is_identity())\n"
        "    ok = f.same_matrix(g)\n"
        "    rep.record('b', ok and True)\n"
        "    rep.record('c', sub.ok)\n"
        "    rep.record(name='d', passed=is_morphism(f, M, N))\n"
        "    rep.record('e', True, detail=str(sub.ok))\n"
        "    rep.record('f', rank(xi) == xi.codomain.dim)\n"
        "    rep.certificates['g'] = sub.ok\n")
    assert _unwitnessed_records(tree) == [
        (2, ".is_identity("), (4, ".same_matrix("), (5, ".ok"),
        (6, "is_morphism")]


# Legs are reordered by two routes only: linalg.product_after builds the
# leg product (f (x) g) . (1 (x) flip (x) 1) . (x (x) y) without x (x) y or
# the flip, and swap_map is the plain flip.  The factor permutation
# permute_factors, which built both, is gone from linalg; the scan keeps the
# name from coming back, and keeps a middle-legs flip from being built by
# hand as a swap_map leg of a tensor product.  It sees a swap_map call only
# where it is written straight into .tensor or tensor_after, not a flip
# assigned to a variable first.
def _is_swap_map(node: ast.AST) -> bool:
    func = node.func if isinstance(node, ast.Call) else None
    return "swap_map" in (getattr(func, "id", None),
                          getattr(func, "attr", None))


def _leg_flips(tree: ast.AST) -> list[int]:
    """Lines that name permute_factors (a call, an attribute, an import or a
    definition), or that pass a swap_map call as a leg of .tensor or as an
    argument of tensor_after."""
    out = set()
    for node in ast.walk(tree):
        if "permute_factors" in (getattr(node, "id", None),
                                 getattr(node, "attr", None),
                                 getattr(node, "name", None)):
            out.add(node.lineno)
        func = node.func if isinstance(node, ast.Call) else None
        if getattr(func, "attr", None) == "tensor":
            legs = [func.value, *node.args]
        elif "tensor_after" in (getattr(func, "id", None),
                                getattr(func, "attr", None)):
            legs = list(node.args)
        else:
            continue
        legs += [k.value for k in node.keywords]
        out.update(leg.lineno for leg in legs if _is_swap_map(leg))
    return sorted(out)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_leg_products_go_through_product_after(path):
    found = _leg_flips(ast.parse(path.read_text(), filename=str(path)))
    assert not found, (f"{path.name} names permute_factors or tensors a "
                       f"swap_map leg at lines {found}; use product_after")


def test_the_scan_sees_a_middle_legs_flip():
    tree = ast.parse(
        "a = tensor_after(m, m, permute_factors(\n"
        "    d.tensor(d), (s, s, s, s), (0, 2, 1, 3)))\n"
        "b = la.permute_factors\n"
        "from .linalg import permute_factors\n"
        "def permute_factors(x):\n"
        "    return x\n"
        "c = f.tensor(swap_map(s, t)).tensor(g)\n"
        "e = la.swap_map(s, t).tensor(g)\n"
        "h = tensor_after(f, swap_map(s, t), x)\n"
        "i = la.tensor_after(f, g, x=swap_map(s, t))\n"
        # a flip composed with another map, or given a name, is not a leg
        "j = tensor_after(u, swap_map(s, t) @ x, v)\n"
        "k = f.tensor(g) @ swap_map(s, t)\n"
        "flip = swap_map(s, t)\n"
        "l = f.tensor(flip)\n")
    assert _leg_flips(tree) == [1, 3, 4, 5, 7, 8, 9, 10]


# Every byte the CLI prints leaves through cli._write, which skips a stream
# the process started without and ends the output, not the run, at a closed
# pipe or an unwritable descriptor; a print or a write of its own would
# bypass both.
def _writes_outside_write(tree: ast.AST) -> list[tuple[int, str]]:
    """(line, what) for each print call, sys.stdout.write or
    sys.stderr.write call and .flush() call outside a function _write."""
    inside = {id(sub) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and fn.name == "_write"
              for sub in ast.walk(fn)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in inside:
            continue
        func = node.func
        if isinstance(func, ast.Name) and func.id == "print":
            out.append((node.lineno, "print("))
        elif isinstance(func, ast.Attribute) and func.attr == "flush":
            out.append((node.lineno, ".flush()"))
        elif isinstance(func, ast.Attribute) and func.attr == "write" and \
                ast.unparse(func.value) in ("sys.stdout", "sys.stderr"):
            out.append((node.lineno, f"{ast.unparse(func)}("))
    return sorted(out)


def test_the_cli_writes_only_through_write():
    path = SRC / "cli.py"
    found = _writes_outside_write(ast.parse(path.read_text(),
                                            filename=str(path)))
    assert not found, f"cli.py writes outside _write at {found}"


def test_the_scan_sees_a_write_outside_write():
    tree = ast.parse("def _write(text, stream):\n"
                     "    stream.write(text)\n"
                     "    stream.flush()\n"
                     "def main():\n"
                     "    print('error', file=sys.stderr)\n"
                     "    sys.stderr.write('usage')\n"
                     "    sys.stdout.write('report')\n"
                     "    sys.stdout.flush()\n"
                     "    for stream in (sys.stdout, sys.stderr):\n"
                     "        stream.flush()\n"
                     "    _write('ok', sys.stdout)\n"
                     "    log.write('not a standard stream')\n")
    assert _writes_outside_write(tree) == [
        (5, "print("), (6, "sys.stderr.write("), (7, "sys.stdout.write("),
        (8, ".flush()"), (10, ".flush()")]


# An identity decided on a reduction (identities that imply it, such as
# Hom-associativity on A's generators) goes to check_maps(..., reduced=...),
# which owns the decision and its fallback.  A site that decides the
# reduction into a fresh Report("") and then records the pass by hand keeps
# its own copy of that policy.
def _is_fresh_report(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "Report" and len(node.args) == 1
            and isinstance(node.args[0], ast.Constant)
            and node.args[0].value == "")


def _records_a_pass(node: ast.AST) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "record" and len(node.args) > 1
            and isinstance(node.args[1], ast.Constant)
            and node.args[1].value is True)


def _reduce_then_record(tree: ast.AST) -> list[int]:
    """The line of each if whose test passes a fresh Report("") to a call
    and whose body records a pass, x.record(name, True, ...)."""
    return sorted(
        node.lineno for node in ast.walk(tree) if isinstance(node, ast.If)
        and any(isinstance(sub, ast.Call) and any(map(_is_fresh_report,
                                                      sub.args))
                for sub in ast.walk(node.test))
        and any(_records_a_pass(sub) for stmt in node.body
                for sub in ast.walk(stmt)))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")),
                         ids=lambda p: p.name)
def test_no_site_records_a_reduction_by_hand(path):
    found = _reduce_then_record(ast.parse(path.read_text(),
                                          filename=str(path)))
    assert not found, (f"{path.name} decides a reduction and records its "
                       f"pass by hand at lines {found}; pass it to "
                       f"check_maps as reduced")


def test_the_scan_sees_a_reduction_recorded_by_hand():
    tree = ast.parse(
        "def check(rep, name, A, part, on, f, M):\n"
        "    if rep.ok and assoc(Report(''), gens(A)):\n"
        "        rep.record(name, True)\n"
        "    else:\n"
        "        assoc(rep, range(A.dim))\n"
        "    if part and check_maps(Report(''), name,\n"
        "                           identities(f, part, M, on=on)):\n"
        "        rep.record(name, True)\n"
        "    if check_maps(Report(''), name, reduced):\n"
        "        rep.skip(name)\n"
        "    if check_maps(Report('A'), name, reduced):\n"
        "        rep.record(name, True)\n"
        "    if check_maps(scratch, name, reduced):\n"
        "        rep.record(name, True)\n"
        "    if ok(Report('')):\n"
        "        rep.record(name, False)\n"
        "    check_maps(rep, name, identities, reduced=reduced)\n")
    assert _reduce_then_record(tree) == [2, 6]
