"""The two layers: the core never imports the class-model layer at
module level, and the package resolves the layer's names on first use."""

import ast
import json
import os
import subprocess
import sys

import pytest

import graphmonoid as gm

PACKAGE_DIR = os.path.dirname(gm.__file__)
SRC_DIR = os.path.dirname(PACKAGE_DIR)
LAYER = ("knuth_bendix", "enumeration", "properties")
CORE = tuple(
    name[:-3]
    for name in sorted(os.listdir(PACKAGE_DIR))
    if name.endswith(".py") and name[:-3] not in LAYER
)

ABCD_TEXT = """\
vertex a
vertex b
vertex c
vertex d
edge a a
edge a a
edge b a
edge b c
edge c c
edge c c
edge c d
"""


def _fresh(script: str, tmp_path) -> dict:
    """Run ``script`` in a new ``python -S`` interpreter that sees only
    this checkout's package, and return the JSON it prints last."""
    prelude = f"import json, sys\nsys.path.insert(0, {SRC_DIR!r})\n"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", prelude + script],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_LOADED = (
    "sorted(m for m in sys.modules if m.split('.')[0] == 'graphmonoid')"
)


def test_core_queries_never_load_the_class_model_layer(tmp_path):
    (tmp_path / "abcd.graph").write_text(ABCD_TEXT)
    script = f"""
import contextlib, io
import graphmonoid as gm
import graphmonoid.cli

g = gm.parse_graph_text(open("abcd.graph").read())
e = lambda text: gm.parse_element(g, text)
verdicts = [
    type(gm.decide_eq(e("b"), e("a+c"))).__name__,
    type(gm.decide_eq(e("d"), e("c"))).__name__,
]
gm.lattice_report(g)
gm.composition_series(g)
gm.grothendieck_group(g)
codes = []
for argv in (["eq", "abcd.graph", "b", "a+c"], ["eq", "abcd.graph", "d", "c"],
             ["lattice", "abcd.graph"], ["series", "abcd.graph"],
             ["k0", "abcd.graph"]):
    for fmt in ("text", "json"):
        with contextlib.redirect_stdout(io.StringIO()):
            codes.append(graphmonoid.cli.main(argv + ["--format", fmt]))
before = {_LOADED}
gm.leq(e("d"), e("c"))
print(json.dumps({{"verdicts": verdicts, "codes": codes,
                  "before": before, "after": {_LOADED}}}))
"""
    out = _fresh(script, tmp_path)
    assert out["verdicts"] == ["Equal", "Distinct"]
    assert out["codes"] == [0, 0, 1, 1, 0, 0, 0, 0, 0, 0]
    layer = {f"graphmonoid.{m}" for m in LAYER}
    assert "graphmonoid.cli" in out["before"]
    assert not layer & set(out["before"])
    assert layer <= set(out["after"])


def _module_level_imports(tree):
    # every import statement outside a function or class body
    stack = list(tree.body)
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            stack.extend(ast.iter_child_nodes(node))


def _imported_modules(node) -> set[str]:
    if isinstance(node, ast.Import):
        return {alias.name for alias in node.names}
    if node.module is None:
        base = "graphmonoid"
    else:
        base = ("graphmonoid." if node.level else "") + node.module
    return {base} | {f"{base}.{alias.name}" for alias in node.names}


@pytest.mark.parametrize("module", CORE)
def test_core_module_has_no_module_level_layer_import(module):
    with open(os.path.join(PACKAGE_DIR, module + ".py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    layer = {f"graphmonoid.{m}" for m in LAYER}
    found = set()
    for node in _module_level_imports(tree):
        found |= _imported_modules(node) & layer
    assert not found, f"{module} imports {sorted(found)} at module level"


def _top_level_definitions() -> dict[str, list[str]]:
    """Each name bound at the top level of a package module (other than
    ``__init__``), with the modules that bind it."""
    owners: dict[str, list[str]] = {}
    for module in CORE + LAYER:
        if module == "__init__":
            continue
        with open(os.path.join(PACKAGE_DIR, module + ".py"), encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                targets = [node.name]
            elif isinstance(node, ast.Assign):
                targets = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                targets = [node.target.id]
            else:
                continue
            for name in targets:
                owners.setdefault(name, []).append(module)
    return owners


def test_every_public_name_resolves_lazily_to_its_definition(tmp_path):
    defined = _top_level_definitions()
    assert all(len(defined.get(name, ())) == 1 for name in gm.__all__)
    owners = {name: defined[name][0] for name in gm.__all__}
    script = f"""
import importlib
import graphmonoid as gm

owners = {owners!r}
unbound = sorted(n for n in gm.__all__ if n not in vars(gm))
listed = set(gm.__all__) <= set(dir(gm))
loaded_after_dir = {_LOADED}
ns = {{}}
exec("from graphmonoid import *", ns)
star_missing = sorted(n for n in gm.__all__ if n not in ns)
wrong = sorted(
    n for n in gm.__all__
    if getattr(gm, n) is not getattr(
        importlib.import_module("graphmonoid." + owners[n]), n
    )
    or ns.get(n) is not getattr(gm, n)
)
print(json.dumps({{"unbound": unbound, "listed": listed,
                  "loaded_after_dir": loaded_after_dir,
                  "star_missing": star_missing, "wrong": wrong}}))
"""
    out = _fresh(script, tmp_path)
    lazy = sorted(n for n, m in owners.items() if m in LAYER)
    assert out["unbound"] == lazy
    assert out["listed"]
    assert not {f"graphmonoid.{m}" for m in LAYER} & set(out["loaded_after_dir"])
    assert out["star_missing"] == []
    assert out["wrong"] == []


def test_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as err:
        gm.no_such_name
    assert str(err.value) == "module 'graphmonoid' has no attribute 'no_such_name'"
    assert not hasattr(gm, "no_such_name")
