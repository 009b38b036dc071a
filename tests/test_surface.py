"""Every public function and class in the package has a caller in the
package: code that only tests use lives under tests/."""

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
    """Public module-level functions and classes that no live code refers
    to.  Live code is every module-level statement that is not a function
    or class definition, the exempt definitions, and every definition some
    live code refers to (apart from its own body), to a fixed point; so a
    name used only by an unused definition is unused too."""
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
    return sorted(d for d in defs.keys() - live if not d.startswith("_"))


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
    assert unused_definitions([src]) == ["dead", "dead_only"]
