"""Every module-level function and class in the package, public or
private, has a caller in the package: code that only tests use lives
under tests/.  Every name a module imports, it uses."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "altcox"

# kept without a caller: wiring it into `altcox verify` would change its
# check count, which the benchmark's session workload pins
EXEMPT = {"bourbaki_edge_homs"}


def _names(node):
    """Every name that a node's code refers to: plain names, attributes
    and imported names."""
    out = set()
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            out.add(n.id)
        elif isinstance(n, ast.Attribute):
            out.add(n.attr)
        elif isinstance(n, ast.alias):
            out.add(n.name)
    return out


def unused_definitions(sources):
    """Module-level functions and classes, private ones too, that no live
    code refers to.  Live code is every module-level statement that is not
    a function or class definition, the exempt definitions, and every
    definition some live code refers to (apart from its own body), to a
    fixed point; so a name used only by an unused definition is unused
    too."""
    defs, roots = {}, set()
    for text in sources:
        for node in ast.parse(text).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.setdefault(node.name, set()).update(_names(node))
            else:
                roots |= _names(node)
    live = EXEMPT & defs.keys()
    while True:
        referred = roots.union(*(defs[d] - {d} for d in live))
        grown = live | (referred & defs.keys())
        if grown == live:
            break
        live = grown
    return sorted(defs.keys() - live)


def unused_imports(text):
    """Names that a module's module-level imports bind (those nested in a
    module-level try or if too, but none of a __future__ import) and that
    the module never reads."""
    tree = ast.parse(text)
    bound = set()
    for top in tree.body:
        if isinstance(top, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            continue
        for n in ast.walk(top):
            if isinstance(n, (ast.Import, ast.ImportFrom)) \
                    and getattr(n, "module", None) != "__future__":
                bound |= {a.asname or a.name.partition(".")[0] for a in n.names}
    read = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return sorted(bound - read)


def test_every_public_definition_has_a_caller():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert unused_definitions(sources) == []


def test_unused_definitions_follow_the_callers():
    src = ("import x\n"
           "def used(): return helper()\n"
           "def helper(): pass\n"
           "def dead(): return dead_only() + dead()\n"
           "def dead_only(): pass\n"
           "class _Private: pass\n"
           "used()\n")
    assert unused_definitions([src]) == ["_Private", "dead", "dead_only"]


def test_every_import_is_used():
    for path in sorted(SRC.glob("*.py")):
        assert unused_imports(path.read_text()) == [], path.name


def test_the_engine_imports_no_oracle():
    """The engine's answers are what verify and the benchmark check
    against the oracle, so it never consults the oracle itself: a cover's
    proof comes from its caller (cli._certificate)."""
    imported = set()
    for n in ast.walk(ast.parse((SRC / "engine.py").read_text())):
        if isinstance(n, ast.ImportFrom):
            imported |= {(n.module or "").rpartition(".")[2]} | {a.name for a in n.names}
        elif isinstance(n, ast.Import):
            imported |= {a.name.rpartition(".")[2] for a in n.names}
    assert "oracle" not in imported


def test_unused_imports_follow_the_reads():
    src = ("from __future__ import annotations\n"
           "import os, os.path as osp\n"
           "import json.decoder\n"
           "from x import used, unused as alias\n"
           "try:\n"
           "    import fast\n"
           "except ImportError:\n"
           "    fast = None\n"
           "def f(a: used):\n"
           "    import local\n"
           "    return json.loads(a)\n")
    assert unused_imports(src) == ["alias", "fast", "os", "osp"]
