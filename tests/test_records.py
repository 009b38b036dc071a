"""The record types: value semantics, immutability, and a start-up that
does not import dataclasses."""

import copy
import json
import os
import pickle
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import altcox
from altcox.coxeter import CoxeterMatrix, ConnectedExtension, standard_matrix
from altcox.engine import CosetTable
from altcox.oracle import CliffordElement, Permutation, WreathElement
from altcox.presentations import EdgeGeneratorMap, GroupHom
from altcox.words import MAX_LETTERS, MAX_WORD_LENGTH, InputError, Presentation, Word

A3 = ((1, 3, 2), (3, 1, 3), (2, 3, 1))


def _presentation():
    return Presentation(["a", "b"], (Word((1, 1)), Word((1, -2))), [("b", 2)])


# each builds a fresh record from equal (but not identical) field values
RECORDS = {
    "Word": lambda: Word((1, 2, -2, 3)),
    "Presentation": _presentation,
    "CoxeterMatrix": lambda: CoxeterMatrix(3, [list(r) for r in A3]),
    "ConnectedExtension": lambda: ConnectedExtension(standard_matrix("A", 3), ((0, 2),)),
    "CosetTable": lambda: CosetTable(_presentation(), array("i", [0, 0, 1, 1]),
                                     array("i", [0, 0, 0, 0])),
    "Permutation": lambda: Permutation([2, 3, 1]),
    "WreathElement": lambda: WreathElement([1, 2, 3], Permutation((2, 1, 3))),
    "CliffordElement": lambda: CliffordElement({0b01: 2, 0b10: -4}, -1),
    "EdgeGeneratorMap": lambda: EdgeGeneratorMap(((0, 1), (1, 2))),
    "GroupHom": lambda: GroupHom(_presentation(), _presentation(),
                                 (Word((1,)), Word((-2,)))),
}
UNHASHABLE = {"CosetTable"}  # its rows are arrays


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_semantics(name):
    a, b = RECORDS[name](), RECORDS[name]()
    assert a is not b and a == b and not a != b
    if name not in UNHASHABLE:
        assert hash(a) == hash(b)
    assert a != object()
    field = a._fields[0]
    with pytest.raises(AttributeError):
        setattr(a, field, getattr(b, field))
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.other = 1
    assert a == b and repr(a) == repr(b) and repr(a).startswith(f"{name}(")
    for c in (copy.copy(a), copy.deepcopy(a), pickle.loads(pickle.dumps(a))):
        assert c == a and type(c) is type(a)


@pytest.mark.parametrize("name, derived", [("Presentation", "_index"),
                                           ("Presentation", "_engine"),
                                           ("EdgeGeneratorMap", "_pos")])
def test_derived_maps_are_not_compared(name, derived):
    a, b = RECORDS[name](), RECORDS[name]()
    object.__setattr__(a, derived, {None: None})  # a map no record builds
    assert a == b and hash(a) == hash(b)
    assert derived not in a._fields and derived not in repr(a)


def test_fields_are_coerced():
    p = _presentation()
    assert p.generators == ("a", "b") and p.central == (("b", 2),)
    assert CoxeterMatrix(3, [list(r) for r in A3]).m == A3
    assert WreathElement([1, 2, 3], Permutation((2, 1, 3))).flags == (1, 0, 1)
    assert CliffordElement({0b01: 2, 0b10: -4, 0b11: 0}, -1).terms == ((1, 1), (2, -2))


def test_presentation_size_rule_on_a_lazy_iterable():
    read = []

    def relators():
        w = Word((1,) * MAX_WORD_LENGTH)
        for _ in range(10):
            read.append(w)
            yield w

    with pytest.raises(InputError, match=f"^more than {MAX_LETTERS} relator letters$"):
        Presentation(("a",), relators())
    assert len(read) == MAX_LETTERS // MAX_WORD_LENGTH + 1  # stopped at the bound


def test_startup_imports_no_dataclasses():
    # every command starts a fresh process; dataclasses and the inspect it
    # imports more than doubled the package's import time
    code = ("import sys, altcox.cli, altcox.engine; "
            "print(*sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(altcox.__file__).resolve().parents[1]))
    r = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                       text=True, timeout=60, check=True)
    assert r.stdout.split() == []


def _fresh_main(*argvs):
    """The exit code of cli.main on each argv in turn in a fresh interpreter,
    then which of argparse and the gettext it imports were loaded; and the
    interpreter's stdout and stderr."""
    code = ("import json, sys; from altcox.cli import main; "
            "codes = [main(argv) for argv in json.loads(sys.argv[1])]; "
            "print(*codes, *sorted({'argparse', 'gettext'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(Path(altcox.__file__).resolve().parents[1]),
               COLUMNS="80")
    r = subprocess.run([sys.executable, "-c", code, json.dumps(argvs)], env=env,
                       capture_output=True, text=True, timeout=60, check=True)
    *out, loaded = r.stdout.splitlines()
    return loaded.split(), out, r.stderr


def test_well_formed_commands_import_no_argparse(tmp_path):
    # a well-formed argv is read from the commands' own declaration; argparse
    # and its parser took 4 to 5 ms of every fresh process before it ran
    loaded, out, err = _fresh_main(
        ["present", "--family", "A", "--rank", "3"],
        ["enumerate", "--family", "A", "--rank", "3", "--subgroup-gens", "1",
         "--reps", str(tmp_path / "reps.txt")],
        ["order", "--family", "B", "--rank", "3", "--variant", "edge"],
        ["nf", "--family", "A", "--variant", "edge", "--rank", "3", "--word", "r1 r2"],
        ["verify", "--only", "artin"])
    assert (loaded, err) == (["0"] * 5, "")
    assert out[-5:] == ["index 12", "24", "r2^2 | r1^2", "PASS artin-braid",
                        "1/1 checks passed"]
    assert (tmp_path / "reps.txt").read_text().count("\n") == 12
    # --rank=3 is declined: argparse reads it, to the same namespace
    loaded, out, err = _fresh_main(["order", "--family", "A", "--rank=3"])
    assert (loaded[:2], out, err) == (["0", "argparse"], ["24"], "")
    # and prints its own usage and error
    loaded, out, err = _fresh_main(["order", "--family", "A", "--rank", "401"])
    assert (loaded[:2], out) == (["2", "argparse"], [])
    assert err.startswith("usage: altcox order [-h]")
    assert err.endswith("altcox order: error: argument --rank: rank 401 above 400\n")
