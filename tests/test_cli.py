import contextlib
import errno
import hashlib
import importlib.util
import io
import json
import os
import random
import resource
import stat
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from altcox import cli, chains, engine, oracle, presentations
from altcox.cli import main, EXIT_OK, EXIT_USAGE, EXIT_CAP, EXIT_VERIFY
from altcox.coxeter import MAX_RANK, CoxeterMatrix, standard_matrix
from altcox.words import (Presentation, Word, parse_word, render_word,
                          MAX_GENERATORS, MAX_LETTERS)
from altcox._tc_py import enumerate_core as py_core


INFINITE_MATRIX = CoxeterMatrix(2, ((1, 0), (0, 1)))
AFFINE_A2 = CoxeterMatrix(3, ((1, 3, 3), (3, 1, 3), (3, 3, 1)))


def _matrix_json(m):
    return json.dumps({"n": m.n, "m": [list(r) for r in m.m]})


def test_present_stdout(capsys):
    assert main(["present", "--family", "A", "--rank", "3"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == ["s0", "s1", "s2"]
    assert len(data["relators"]) == 6


def test_present_variant_catalog(capsys):
    assert main(["present", "--family", "B", "--rank", "3",
                 "--variant", "edge"]) == EXIT_OK
    data = json.loads(capsys.readouterr().out)
    assert data["generators"] == ["r1", "r2"]


def test_present_output_file(tmp_path):
    out = tmp_path / "p.json"
    assert main(["present", "--family", "A", "--rank", "2",
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["generators"] == ["s0", "s1"]
    # atomic write leaves no temp files behind
    assert [f for f in os.listdir(tmp_path) if f.startswith(".tmp-")] == []


def test_present_missing_input_is_usage_error(capsys):
    assert main(["present"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_present_malformed_matrix_file(tmp_path, capsys):
    bad = tmp_path / "m.json"
    bad.write_text("{not json")
    assert main(["present", "--matrix", str(bad)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag, text", [
    ("--matrix", '{"n": 3}'),
    ("--matrix", "[1, 2]"),
    ("--presentation", '{"generators": ["a"]}'),
    ("--presentation", '{"generators": ["a b"], "relators": []}'),
    ("--presentation", '{"generators": ["x\\"y"], "relators": ["x\\"y^2"]}'),
    ("--matrix", '{"n": 2, "m": [[1, 2], []]}'),
    # a central entry with no power relator, with a commutator missing, of
    # a bad shape
    ("--presentation", '{"generators": ["a", "z"], "relators": ["z a z^-1 a^-1"], '
                       '"central": [{"name": "z", "order": 2}]}'),
    ("--presentation", '{"generators": ["a", "b", "z"], "relators": ["z^2", '
                       '"z a z^-1 a^-1"], "central": [{"name": "z", "order": 2}]}'),
    ("--presentation", '{"generators": ["a"], "relators": [], "central": [{"name": "a"}]}'),
])
def test_malformed_json_input_is_usage_error(tmp_path, capsys, flag, text):
    f = tmp_path / "in.json"
    f.write_text(text)
    assert main(["present", flag, str(f)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--matrix", "--presentation"])
def test_json_integer_beyond_digit_limit_is_usage_error(tmp_path, capsys, flag):
    # json.loads raises a ValueError here that is not a JSONDecodeError
    f = tmp_path / "in.json"
    f.write_text('{"n": 1%s}' % ("0" * 5000))
    assert main(["present", flag, str(f)]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("argv, out", [
    (["--matrix", "RANK1", "--variant", "edge"], "1\n"),
    (["--matrix", "RANK1", "--variant", "bourbaki"], "1\n"),
    (["--matrix", "RANK1", "--variant", "tilde-plus-edge"], "2\n"),
    (["--presentation", "EMPTY"], "1\n"),
], ids=["edge", "bourbaki", "tilde-plus-edge", "presentation"])
def test_trivial_group_order(tmp_path, capsys, argv, out):
    # the rank-1 alternating group has no generators and order 1, and its
    # spinor cover order 2
    (tmp_path / "RANK1").write_text('{"n": 1, "m": [[1]]}')
    (tmp_path / "EMPTY").write_text('{"generators": [], "relators": []}')
    argv = [str(tmp_path / a) if a.isupper() else a for a in argv]
    assert main(["order"] + argv) == EXIT_OK
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("source", ["family", "matrix"])
def test_rank_above_bound_is_usage_error(tmp_path, capsys, source):
    # rejected before any presentation is built
    n = MAX_RANK + 1
    m = [[1 if i == j else 3 if abs(i - j) == 1 else 2 for j in range(n)]
         for i in range(n)]
    (tmp_path / "m.json").write_text(json.dumps({"n": n, "m": m}))
    argv = (["--family", "A", "--rank", str(n)] if source == "family"
            else ["--matrix", str(tmp_path / "m.json")])
    assert main(["present", "--variant", "edge"] + argv) == EXIT_USAGE
    assert str(n) in capsys.readouterr().err


def test_carmichael_has_no_matrix_form(tmp_path, capsys):
    f = tmp_path / "m.json"
    f.write_text('{"n": 2, "m": [[1, 3], [3, 1]]}')
    assert main(["present", "--variant", "carmichael", "--matrix", str(f)]) == EXIT_USAGE
    assert capsys.readouterr().err == ("error: variant 'carmichael' needs --family "
                                       "and --rank; it has no matrix form\n")


@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_family_without_rank_is_usage_error(capsys, variant):
    assert main(["present", "--family", "A", "--variant", variant]) == EXIT_USAGE
    assert "--rank" in capsys.readouterr().err


INPUT_FLAGS = (("--family", "A"), ("--rank", "3"), ("--matrix", "M"),
               ("--presentation", "P"))


def _input_accepted(variant, flags):
    """The CLI's input rule: every input flag given is read.  The covers take
    no input flag; --presentation takes no other and only the default
    variant; --matrix takes no --family or --rank.  Besides, vv is type A
    and takes --rank with or without --family, carmichael has no matrix
    form, and a family needs its rank."""
    v = variant or "coxeter"
    if v.endswith("-cover"):
        return not flags
    if v == "vv":
        return flags in ({"--rank"}, {"--family", "--rank"})
    if "--presentation" in flags:
        return flags == {"--presentation"} and v == "coxeter"
    if "--matrix" in flags:
        return flags == {"--matrix"} and v != "carmichael"
    return flags == {"--family", "--rank"}


INPUT_RUNS = [(v, tuple(f for k, f in enumerate(INPUT_FLAGS) if mask >> k & 1))
              for v in (None,) + cli._VARIANTS for mask in range(16)]


def test_input_rule_accepts_27_runs():
    assert len(INPUT_RUNS) == 224
    assert sum(_input_accepted(v, {f for f, _ in flags})
               for v, flags in INPUT_RUNS) == 27


@pytest.mark.parametrize("variant, flags", INPUT_RUNS,
                         ids=[f"{v}-{'+'.join(f[2:] for f, _ in flags) or 'none'}"
                              for v, flags in INPUT_RUNS])
def test_every_input_flag_is_read(tmp_path, capsys, variant, flags):
    """A run that would ignore an input flag it was given exits 2 with no
    output."""
    (tmp_path / "M").write_text(_matrix_json(standard_matrix("A", 3)))
    (tmp_path / "P").write_text(
        presentations.chain_presentation("A", "edge", 3).to_json())
    argv = ["present"] + ([] if variant is None else ["--variant", variant])
    for flag, value in flags:
        argv += [flag, str(tmp_path / value) if value in ("M", "P") else value]
    code = main(argv)
    out = capsys.readouterr().out
    if _input_accepted(variant, {f for f, _ in flags}):
        assert code == EXIT_OK and out
    else:
        assert (code, out) == (EXIT_USAGE, "")


# SHA-256 over the exit code and stdout of every `present` invocation below;
# a change to the bytes of any built-in presentation changes it.  The vv
# runs over families B and D exit 2 with no output: vv is type A only.  So
# do the a5-cover and a6-cover runs: the covers take no input flag.  Only
# the tilde-prime-plus-bourbaki runs of rank 3 and up changed when its
# braids (R_i^-1 R_j)^m took twist (m-1) mod 2
PRESENT_DIGEST = "2cbe79176195e6c86f56ef4174a15613a5cc4ebc92d52ede34ff12b873d2e51b"


def test_present_output_golden(capsys):
    h = hashlib.sha256()
    for v in cli._VARIANTS:
        for fam, ranks in (("A", range(1, 8)), ("B", range(2, 7)), ("D", range(3, 7))):
            for r in ranks:
                code = main(["present", "--family", fam, "--rank", str(r),
                             "--variant", v])
                h.update(f"{v} {fam}{r} exit={code}\n".encode())
                h.update(capsys.readouterr().out.encode())
    assert h.hexdigest() == PRESENT_DIGEST


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))


HUGE = 10 ** 20


def _full_matrix(n, label):
    return {"n": n, "m": [[1 if i == j else label for j in range(n)] for i in range(n)]}


@pytest.mark.parametrize("flags, data, err", [
    (["--matrix"], {"n": 2, "m": [[1, HUGE], [HUGE, 1]]},
     "word longer than 1000000 letters"),
    (["--matrix"], {"n": 2, "m": [[1, 10 ** 9], [10 ** 9, 1]]},
     "word longer than 1000000 letters"),
    (["--presentation"], {"generators": ["a", "z"], "relators": ["a^2"],
                          "central": [{"name": "z", "order": HUGE}]},
     "word longer than 1000000 letters"),
    (["--presentation"], {"generators": [f"g{i}" for i in range(MAX_GENERATORS + 1)],
                          "relators": []}, f"more than {MAX_GENERATORS} generators"),
    (["--variant", "edge", "--matrix"], _full_matrix(MAX_RANK, 3),
     f"more than {MAX_GENERATORS} generators"),
    (["--matrix"], _full_matrix(MAX_RANK, 499_999),
     f"more than {MAX_LETTERS} relator letters"),
    (["--variant", "bourbaki", "--matrix"], _full_matrix(MAX_RANK, 499_999),
     f"more than {MAX_LETTERS} relator letters"),
    (["--presentation"], {"generators": ["a"], "relators": ["a^999999"] * 400},
     f"more than {MAX_LETTERS} relator letters"),
], ids=["label-1e20", "label-1e9", "central-order-1e20", "generators",
        "complete-graph-edges", "labels-coxeter-letters", "labels-bourbaki-letters",
        "relators-letters"])
def test_oversized_input_is_usage_error(tmp_path, flags, data, err):
    # refused before the word or presentation is built, or as the relators
    # are built: a fresh interpreter held to 2 GB of address space exits 2
    # well within the timeout
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    r = subprocess.run([sys.executable, "-m", "altcox.cli", "present", *flags, str(path)],
                       capture_output=True, text=True, timeout=60,
                       preexec_fn=_limit_memory)
    assert (r.returncode, r.stderr) == (EXIT_USAGE, f"error: {err}\n")


@pytest.mark.parametrize("variant, code", [("coxeter", EXIT_OK), ("tilde", EXIT_USAGE),
                                           ("tilde-prime", EXIT_USAGE)])
def test_built_relator_longer_than_a_word_is_usage_error(tmp_path, capsys, variant, code):
    # (s0 s1)^500000 has exactly MAX_WORD_LENGTH letters, and each spinor
    # twist appends one more; present never writes a relator that
    # --presentation would refuse to read back
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "m": [[1, 500_000], [500_000, 1]]}))
    assert main(["present", "--variant", variant, "--matrix", str(path)]) == code
    out, err = capsys.readouterr()
    if code == EXIT_USAGE:
        assert (out, err) == ("", "error: word longer than 1000000 letters\n")
    else:
        assert [len(r.split()) for r in json.loads(out)["relators"]] == [1, 1_000_000, 1]


def test_power_longer_than_a_word_is_usage_error(tmp_path, capsys):
    # (s0 s1)^600000 is refused before its 1200000 letters are made
    path = tmp_path / "m.json"
    path.write_text(json.dumps({"n": 2, "m": [[1, 600_000], [600_000, 1]]}))
    assert main(["order", "--matrix", str(path), "--variant", "coxeter"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: word longer than 1000000 letters\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_enumerate_index_and_artifacts(tmp_path, monkeypatch, capsys):
    """The DOT and reps files share one rendering of the Schreier words."""
    table = tmp_path / "t.csv"
    dot = tmp_path / "g.dot"
    reps = tmp_path / "r.txt"
    renders = []
    texts = engine.schreier_texts
    monkeypatch.setattr(engine, "schreier_texts", lambda t: renders.append(t) or texts(t))
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup-gens", "2",
                 "--table", str(table), "--dot", str(dot),
                 "--reps", str(reps)]) == EXIT_OK
    assert capsys.readouterr().out == "index 4\n"
    assert len(renders) == 1
    lines = table.read_text().splitlines()
    assert lines[0] == "coset,s0,s1,s2"
    assert len(lines) == 5
    assert 'label="H"' in dot.read_text()
    assert reps.read_text() == "1\ns2\ns1 s2\ns0 s1 s2\n"


def test_inverse_square_relator_is_an_involution(tmp_path, capsys):
    """a^-2, like a^2, makes a an involution: the two presentations of A4
    write one table, and the DOT draws a's edges undirected and b's not."""
    outputs = {}
    for square in ("a^2", "a^-2"):
        p = tmp_path / "p.json"
        p.write_text(json.dumps({"generators": ["a", "b"],
                                 "relators": [square, "b^3", "a b a b a b"]}))
        table, dot = tmp_path / f"{square}.csv", tmp_path / f"{square}.dot"
        assert main(["enumerate", "--presentation", str(p),
                     "--table", str(table), "--dot", str(dot)]) == EXIT_OK
        assert capsys.readouterr().out == "index 12\n"
        outputs[square] = table.read_text(), dot.read_text()
    assert outputs["a^-2"] == outputs["a^2"]
    edges = [line.split(" [")[1] for line in outputs["a^-2"][1].splitlines()
             if " -> " in line]
    assert sorted(set(edges)) == ['label="a", dir=none];', 'label="b"];']
    assert edges.count('label="a", dir=none];') == 6 and len(edges) == 18


@pytest.mark.parametrize("generators, relators, subgroup, table, dot, reps", [
    ([], [], [], "coset,\n1\n", "", "1\n"),
    (["a"], [], ["a"], "coset,a\n1,1\n", "", "1\n"),
    (["a"], ["a^2"], [], "coset,a\n1,2\n2,1\n",
     '  2 [label="a"];\n  1 -> 2 [label="a", dir=none];\n', "1\na\n"),
    (["a"], ["a^-2"], [], "coset,a\n1,2\n2,1\n",
     '  2 [label="a"];\n  1 -> 2 [label="a", dir=none];\n', "1\na\n"),
    (["a"], ["a^3"], [], "coset,a\n1,2\n2,3\n3,1\n",
     '  2 [label="a"];\n  3 [label="a^2"];\n  1 -> 2 [label="a"];\n'
     '  2 -> 3 [label="a"];\n  3 -> 1 [label="a"];\n', "1\na\na^2\n"),
    (["a"], ["a^4"], ["a^2"], "coset,a\n1,2\n2,1\n",
     '  2 [label="a"];\n  1 -> 2 [label="a"];\n  2 -> 1 [label="a"];\n',
     "1\na\n"),
], ids=["rank0", "self-loop", "involution", "inverse-square", "a3", "a4-over-a2"])
def test_artifacts_of_rank_zero_and_one(generators, relators, subgroup, table,
                                        dot, reps, tmp_path, capsys):
    """--table, --dot and --reps of presentations with no generator or one,
    which no golden run reaches: a table without columns, a self-loop, an
    involution and a plain cycle."""
    p = tmp_path / "p.json"
    p.write_text(json.dumps({"generators": generators, "relators": relators}))
    files = [tmp_path / name for name in ("t.csv", "g.dot", "r.txt")]
    argv = ["enumerate", "--presentation", str(p)]
    argv += [arg for w in subgroup for arg in ("--subgroup", w)]
    assert main(argv + ["--table", str(files[0]), "--dot", str(files[1]),
                        "--reps", str(files[2])]) == EXIT_OK
    index = reps.count("\n")  # one representative per coset
    assert capsys.readouterr().out == f"index {index}\n"
    assert files[0].read_text() == table
    assert files[1].read_text() == ('digraph schreier {\n  1 [label="H"];\n'
                                    + dot + "}\n")
    assert files[2].read_text() == reps


@pytest.mark.parametrize("family, rank, variant, tables", [
    ("A", 5, "edge", [[(0,), (2,)]]),
    ("B", 4, "bourbaki", [[(0,), (2,)], [(0,)]]),
    ("D", 4, "carmichael", [[(0,), (2,)], [(0,)]]),
    ("B", 3, "coxeter", [[(0,), (2,)], [(0,)]])],
    ids=["A-5-edge", "B-4-bourbaki", "D-4-carmichael", "B-3-coxeter"])
def test_index_path_agrees_with_table(tmp_path, monkeypatch, capsys, family, rank,
                                      variant, tables):
    """order counts its pair's group without a table, then enumerates
    <g, h> and, when that one certifies nothing, <g>, each certified from
    the core's unstandardized table without asking for a standardized one,
    and never enumerates the trivial subgroup when one of them certifies;
    an enumerate that writes no artifact counts the cosets without a table;
    enumerate --table builds one; they print one index."""
    runs = []  # (column count, subgroup column words, table wanted) of each core call
    core = engine._core
    monkeypatch.setattr(engine, "_core",
                        lambda *a: runs.append((a[0], list(a[2]), a[4])) or core(*a))
    base = ["--family", family, "--rank", str(rank), "--variant", variant]
    table = ["--table", str(tmp_path / "t.csv")]
    assert main(["order"] + base) == EXIT_OK
    count, *made = runs
    ncols = made[0][0]
    assert count == (4, [], False) and ncols > 4
    assert made == [(ncols, words, False) for words in tables]
    for sub in ([], ["--subgroup-gens", "2"]):
        runs.clear()
        assert main(["enumerate"] + base + sub) == EXIT_OK
        assert [built for _, _, built in runs] == [False]
        assert main(["enumerate"] + base + sub + table) == EXIT_OK
        assert [built for _, _, built in runs] == [False, True]
    order, *indices = capsys.readouterr().out.splitlines()
    assert indices[0] == indices[1] == f"index {order}"
    assert indices[2] == indices[3] != indices[0]


def test_enumerate_subgroup_words(capsys):
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup", "s0", "--subgroup", "s2"]) == EXIT_OK
    assert capsys.readouterr().out == "index 6\n"


def test_enumerate_bad_subgroup_word(capsys):
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup", "nope"]) == EXIT_USAGE
    capsys.readouterr()


def test_enumerate_subgroup_gens_out_of_range(capsys):
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup-gens", "9"]) == EXIT_USAGE
    capsys.readouterr()


def test_enumerate_byte_determinism(tmp_path):
    outs = []
    for name in ("a", "b"):
        t = tmp_path / f"{name}.csv"
        d = tmp_path / f"{name}.dot"
        assert main(["enumerate", "--family", "D", "--rank", "4",
                     "--variant", "edge", "--subgroup-gens", "2",
                     "--table", str(t), "--dot", str(d),
                     "--output", str(tmp_path / f"{name}.txt")]) == EXIT_OK
        outs.append((t.read_bytes(), d.read_bytes(),
                     (tmp_path / f"{name}.txt").read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize("flag", ["--output", "--table"])
def test_write_error_names_requested_path(tmp_path, capsys, flag):
    """A failed write reports the path asked for, not the temp file beside
    it, so the message is the same on every run."""
    path = str(tmp_path / "missing" / "x")
    errs = []
    for _ in range(2):
        assert main(["enumerate", "--family", "A", "--rank", "3",
                     flag, path]) == EXIT_USAGE
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1] == f"error: [Errno 2] No such file or directory: {path!r}\n"


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600), (0o002, 0o664)])
def test_written_files_take_the_umask(tmp_path, capsys, umask, mode):
    """A file written through a temp file gets the mode open() would give
    it, 0o666 less the umask, not the temp file's 0o600."""
    out, table = tmp_path / "out.txt", tmp_path / "t.csv"
    old = os.umask(umask)
    try:
        assert main(["enumerate", "--family", "A", "--rank", "3", "--output", str(out),
                     "--table", str(table)]) == EXIT_OK
    finally:
        os.umask(old)
    assert [stat.S_IMODE(f.stat().st_mode) for f in (out, table)] == [mode, mode]


def test_umask_is_never_read(tmp_path, monkeypatch, capsys):
    """The kernel applies the umask as the temp file is made, so a write
    neither reads nor sets it, and a process whose os.umask fails still
    writes files of mode 0o666 less its umask."""
    set_umask = os.umask

    def refuse(mask):
        raise AssertionError("os.umask called")
    old = set_umask(0o027)
    try:
        monkeypatch.setattr(os, "umask", refuse)
        out = tmp_path / "out.txt"
        assert main(["present", "--family", "A", "--rank", "2",
                     "--output", str(out)]) == EXIT_OK
    finally:
        set_umask(old)
    assert stat.S_IMODE(out.stat().st_mode) == 0o640


def test_taken_temp_name_is_drawn_again(tmp_path, monkeypatch, capsys):
    """A temp name that already exists is left alone, and a new one drawn."""
    draws, urandom = iter([bytes(6), bytes([1] * 6)]), os.urandom
    monkeypatch.setattr(os, "urandom", lambda n: next(draws, None) or urandom(n))
    taken = tmp_path / f".tmp-altcox-{bytes(6).hex()}"
    taken.write_text("not ours")
    out = tmp_path / "out.txt"
    assert main(["present", "--family", "A", "--rank", "2",
                 "--output", str(out)]) == EXIT_OK
    assert json.loads(out.read_text())["generators"] == ["s0", "s1"]
    assert taken.read_text() == "not ours"
    assert sorted(f.name for f in tmp_path.iterdir()) == [taken.name, "out.txt"]


def test_failed_rename_leaves_no_temp_file(tmp_path, monkeypatch, capsys):
    def refuse(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV))
    monkeypatch.setattr(os, "replace", refuse)
    path = str(tmp_path / "x")
    assert main(["enumerate", "--family", "A", "--rank", "3", "--table", path]) == EXIT_USAGE
    err = f"error: [Errno {errno.EXDEV}] {os.strerror(errno.EXDEV)}: {path!r}\n"
    assert capsys.readouterr() == ("", err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("through_symlink", [False, True], ids=["fifo", "symlink"])
def test_non_regular_target_is_written_in_place(tmp_path, capsys, through_symlink):
    """A path that exists and is not a regular file, here a FIFO or a
    symlink to one, is opened and written, not replaced by a renamed temp
    file: the FIFO's reader gets the output, and the path keeps its kind."""
    argv = ["present", "--family", "A", "--rank", "3", "--variant", "edge"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr().out
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    path = fifo
    if through_symlink:
        path = tmp_path / "link"
        path.symlink_to(fifo)
    # a writer held open, so that the reader's open() returns and its read
    # ends only when this test closes it, whether or not main wrote
    held = os.open(fifo, os.O_RDWR)
    got, opened = [], threading.Event()

    def read():
        with open(fifo) as f:
            opened.set()
            got.append(f.read())
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert opened.wait(10)
        assert main(argv + ["--output", str(path)]) == EXIT_OK
    finally:
        os.close(held)
    reader.join(10)
    assert not reader.is_alive() and got == [want]
    assert stat.S_ISFIFO(os.stat(path).st_mode) and path.is_symlink() == through_symlink
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted({"fifo", path.name})


def test_anonymous_pipe_is_written_in_place(capsys):
    """/dev/fd/N of an anonymous pipe, as /dev/stdout is on a shell pipe,
    is written in place: its link names no path a rename could go over."""
    argv = ["present", "--family", "A", "--rank", "3", "--variant", "edge"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr().out
    r, w = os.pipe()
    got = []

    def read():
        with open(r) as f:
            got.append(f.read())
    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        assert main(argv + ["--output", f"/dev/fd/{w}"]) == EXIT_OK
    finally:
        os.close(w)
    reader.join(10)
    assert not reader.is_alive() and got == [want]
    assert capsys.readouterr() == ("", "")


@pytest.mark.parametrize("link_to",["target.txt", "new.txt"], ids=["file", "dangling"])
def test_symlink_to_a_regular_file_is_written_through(tmp_path, capsys, link_to):
    """A symlink to a regular file, or a dangling one, keeps its link: the
    temp file is renamed over the link's target, which gets the output, as
    open() would write it, and a dangling link creates its target."""
    argv = ["present", "--family", "A", "--rank", "3", "--variant", "edge"]
    assert main(argv) == EXIT_OK
    want = capsys.readouterr().out
    (tmp_path / "target.txt").write_text("old\n")
    link = tmp_path / "link"
    link.symlink_to(link_to)
    assert main(argv + ["--output", str(link)]) == EXIT_OK
    assert link.is_symlink() and os.readlink(link) == link_to
    assert (tmp_path / link_to).read_text() == want
    assert sorted(f.name for f in tmp_path.iterdir()) == sorted(
        {"link", "target.txt", link_to})


def test_symlink_loop_is_a_file_error(tmp_path, capsys):
    """A symlink loop is refused as open() refuses it, naming the path,
    and neither link is replaced."""
    a, b = tmp_path / "a", tmp_path / "b"
    a.symlink_to("b")
    b.symlink_to("a")
    assert main(["present", "--family", "A", "--rank", "2",
                 "--output", str(a)]) == EXIT_USAGE
    err = f"error: [Errno {errno.ELOOP}] {os.strerror(errno.ELOOP)}: {str(a)!r}\n"
    assert capsys.readouterr() == ("", err)
    assert a.is_symlink() and b.is_symlink()
    assert sorted(f.name for f in tmp_path.iterdir()) == ["a", "b"]


@pytest.mark.parametrize("flag", ["--output", "--table", "--dot", "--reps",
                                  "--presentation", "--matrix"])
def test_empty_path_is_file_error(tmp_path, monkeypatch, capsys, flag):
    """An empty path names no file: it is neither stdout nor "no file"."""
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    assert main(["enumerate", "--family", "A", "--rank", "3", flag, ""]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert (out, err) == ("", "error: [Errno 2] No such file or directory: ''\n")
    # no temp file was made beside the working directory either
    assert [f.name for f in tmp_path.iterdir()] == ["cwd"]


@pytest.mark.parametrize("argv", [
    ["--family", "B"], ["--family", "D"], ["--matrix", "M"], ["--presentation", "P"],
], ids=["B", "D", "matrix", "presentation"])
def test_vv_is_type_a_only(tmp_path, capsys, argv):
    """vv presents the type-A alternating group; it refuses another family
    or a matrix or presentation file instead of ignoring it."""
    (tmp_path / "M").write_text(_matrix_json(standard_matrix("B", 4)))
    (tmp_path / "P").write_text(
        presentations.chain_presentation("B", "edge", 4).to_json())
    argv = [str(tmp_path / a) if a in ("M", "P") else a for a in argv]
    assert main(["order", "--rank", "4", "--variant", "vv"] + argv) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: vv variant is type A")
    for family in ([], ["--family", "A"], ["--family", "a"]):
        assert main(["order", "--rank", "4", "--variant", "vv"] + family) == EXIT_OK
        assert capsys.readouterr().out == "60\n"


def test_order(capsys):
    assert main(["order", "--family", "A", "--rank", "4",
                 "--variant", "edge"]) == EXIT_OK
    assert capsys.readouterr().out == "60\n"


def test_order_cover(capsys):
    assert main(["order", "--variant", "a5-cover",
                 "--max-cosets", "500000"]) == EXIT_OK
    assert capsys.readouterr().out == "2160\n"


@pytest.mark.parametrize("argv, cap", [
    (["order", "--matrix", "INF"], 5000),
    # the rank-5 table over the first three generators
    (["nf", "--family", "D", "--rank", "5", "--variant", "edge", "--word", "r1"], 15),
    # the largest table behind a B5 nf, its top level's, defines 21 cosets
    (["nf", "--family", "B", "--rank", "5", "--variant", "edge", "--word", "r1"], 20),
    # the enumeration over <r1>, of infinite index
    (["order", "--matrix", "AFFINE", "--variant", "edge"], 20000),
    (["enumerate", "--matrix", "AFFINE", "--subgroup-gens", "1"], 5000),
], ids=["order", "nf-D5-level", "nf-B5-regular", "order-affine", "enumerate-affine"])
def test_order_cap_exceeded(tmp_path, capsys, argv, cap):
    files = {"INF": tmp_path / "inf.json", "AFFINE": tmp_path / "affine.json"}
    files["INF"].write_text(_matrix_json(INFINITE_MATRIX))
    files["AFFINE"].write_text(_matrix_json(AFFINE_A2))
    argv = [str(files[a]) if a in files else a for a in argv]
    assert main(argv + ["--max-cosets", str(cap)]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "cap exceeded" in err
    assert err == f"cap exceeded at {cap} cosets\n"


def test_order_cap_bounds_each_enumeration(tmp_path, monkeypatch, capsys):
    # the A5 edge order enumerates <r1, r2>, which defines 51 cosets; the
    # one over <r1> that it replaces defined 166, and a regular one 470
    argv = ["order", "--family", "A", "--rank", "5", "--variant", "edge"]
    assert main(argv + ["--max-cosets", "51"]) == EXIT_OK
    assert capsys.readouterr().out == "360\n"
    assert main(argv + ["--max-cosets", "50"]) == EXIT_CAP
    assert capsys.readouterr() == ("", "cap exceeded at 50 cosets\n")
    # a capped order of affine A2 counts <s0, s1> = S3, runs one
    # enumeration, over <s0, s1>, and goes on neither to <s0> nor to the
    # trivial subgroup
    runs = []
    core = engine._core
    monkeypatch.setattr(engine, "_core", lambda *a: runs.append((a[0], list(a[2]))) or core(*a))
    (tmp_path / "affine.json").write_text(_matrix_json(AFFINE_A2))
    assert main(["order", "--matrix", str(tmp_path / "affine.json"),
                 "--max-cosets", "20000"]) == EXIT_CAP
    assert runs == [(4, []), (6, [(0,), (2,)])]


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_order_at_a_cap_of_one(backend, request, monkeypatch, capsys):
    # a cap of 1 is in range: S5's pair counts stop at their first coset,
    # and so does the enumeration over <s0>, which order reports
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    assert main(["order", "--family", "A", "--rank", "4", "--max-cosets", "1"]) == EXIT_CAP
    assert capsys.readouterr() == ("", "cap exceeded at 1 cosets\n")
    p = presentations.coxeter_presentation(standard_matrix("A", 4))
    with pytest.raises(engine.CapExceeded):
        engine.order(p, cap=1)


def test_nf_cap_bounds_the_top_table_alone(capsys):
    # the D4 edge top table defines 8 cosets; its level-3 table, which nf
    # does not enumerate, would define 15
    argv = ["nf", "--family", "D", "--rank", "4", "--variant", "edge", "--word", "r1 r3"]
    assert main(argv + ["--max-cosets", "8"]) == EXIT_OK
    assert capsys.readouterr().out == "r3^2 | r1^2\n"
    assert main(argv + ["--max-cosets", "7"]) == EXIT_CAP
    assert capsys.readouterr().err == "cap exceeded at 7 cosets\n"


@pytest.mark.parametrize("argv", [
    ["order", "--family", "A", "--rank", "3"],
    ["enumerate", "--family", "A", "--rank", "3", "--subgroup-gens", "1"],
    ["nf", "--family", "A", "--variant", "edge", "--rank", "3", "--enumerate"],
])
def test_max_cosets_beyond_c_int_is_usage_error(capsys, argv):
    # rejected before either core allocates its table
    assert main(argv + ["--max-cosets", "3000000000"]) == EXIT_USAGE
    assert "cap must be between 1 and 2147483645" in capsys.readouterr().err


def test_out_of_memory_is_usage_error(monkeypatch, capsys):
    def no_memory(*args):
        raise MemoryError
    monkeypatch.setattr(engine, "_core", no_memory)
    assert main(["order", "--family", "A", "--rank", "3",
                 "--max-cosets", "1000"]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: not enough memory for --max-cosets 1000\n"
    # present and verify take no --max-cosets, so their message names none
    monkeypatch.setattr(Presentation, "to_json", no_memory)
    for argv in (["present", "--family", "A", "--rank", "3"],
                 ["verify", "--only", "orders-A4"]):
        assert main(argv) == EXIT_USAGE
        assert capsys.readouterr() == ("", "error: not enough memory\n")


def test_internal_error_is_not_a_usage_error(monkeypatch):
    def broken(*args):
        raise ValueError("internal")
    monkeypatch.setattr(engine, "_core", broken)
    with pytest.raises(ValueError, match="internal"):
        main(["order", "--family", "A", "--rank", "3"])


def test_nf_decompose(capsys):
    assert main(["nf", "--family", "A", "--variant", "carmichael",
                 "--rank", "3", "--word", "a1 a2"]) == EXIT_OK
    got = capsys.readouterr().out.strip()
    p = presentations.chain_presentation("A", "carmichael", 3)
    chain = chains.Chain(p, "A")
    d = chain.decompose(parse_word("a1 a2", p))
    assert got == " | ".join(render_word(f, p) for f in d)


def nf_golden_argvs():
    """249 `nf` invocations: six seeded random words on each of A2-A6,
    B2-B5, D3-D5 in every variant, and --enumerate up to rank 5."""
    rng = random.Random(20111)
    for fam, ranks in (("A", range(2, 7)), ("B", range(2, 6)), ("D", range(3, 6))):
        for n in ranks:
            for v in ("carmichael", "bourbaki", "edge"):
                base = ["nf", "--family", fam, "--variant", v, "--rank", str(n)]
                p = presentations.chain_presentation(fam, v, n)
                for _ in range(6):
                    letters = [rng.choice((1, -1)) * rng.randint(1, p.rank)
                               for _ in range(rng.randint(0, 12))]
                    yield base + ["--word", render_word(Word(tuple(letters)), p)]
                if n <= 5:
                    yield base + ["--enumerate"]


# SHA-256 over the exit code and stdout of every nf_golden_argvs() invocation
NF_DIGEST = "658280d71cae70bd14869338315dc0698a98c3f96df7de952e4cb365ea479310"


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_nf_output_golden(backend, request, monkeypatch, capsys):
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    h = hashlib.sha256()
    n = 0
    for argv in nf_golden_argvs():
        code = main(argv)
        h.update(f"{' '.join(argv)} exit={code}\n".encode())
        h.update(capsys.readouterr().out.encode())
        n += 1
    assert n == 249
    assert h.hexdigest() == NF_DIGEST


def enumerate_golden_argvs():
    """254 `enumerate` invocations: every prefix subgroup of A2-A6, B2-B5
    and D3-D5 in the three chain variants, Coxeter and tilde-plus-edge."""
    for fam, ranks in (("A", range(2, 7)), ("B", range(2, 6)), ("D", range(3, 6))):
        for n in ranks:
            for v in ("carmichael", "bourbaki", "edge", "coxeter", "tilde-plus-edge"):
                base = ["enumerate", "--family", fam, "--rank", str(n), "--variant", v]
                if v == "coxeter":
                    rank = n
                elif v == "tilde-plus-edge":
                    rank = presentations.spinor_plus_presentation(
                        standard_matrix(fam, n), "edge", "tilde").rank
                else:
                    rank = presentations.chain_presentation(fam, v, n).rank
                for k in range(rank + 1):
                    yield base + ["--subgroup-gens", str(k)]


# SHA-256 over the exit code, stdout and the --table, --dot and --reps file
# bytes of every enumerate_golden_argvs() invocation; taken before the
# representatives were rendered along the arrival tree
ENUMERATE_ARTIFACTS_DIGEST = "744c712c1b5ddc925f0a5fc528466b61095a21e2fb97d3095d680da8be015464"


@pytest.mark.parametrize("backend", ["python", "compiled"])
def test_enumerate_artifacts_golden(backend, request, monkeypatch, capsys, tmp_path):
    core = py_core if backend == "python" else request.getfixturevalue("c_core")
    monkeypatch.setattr(engine, "_core", core)
    files = [tmp_path / name for name in ("t.csv", "g.dot", "r.txt")]
    outputs = ["--table", str(files[0]), "--dot", str(files[1]), "--reps", str(files[2])]
    h = hashlib.sha256()
    n = 0
    for argv in enumerate_golden_argvs():
        code = main(argv + outputs)
        h.update(f"{' '.join(argv)} exit={code}\n".encode())
        h.update(capsys.readouterr().out.encode())
        for f in files:
            h.update(f.read_bytes())
        n += 1
    assert n == 254
    assert h.hexdigest() == ENUMERATE_ARTIFACTS_DIGEST


@pytest.mark.parametrize("family", ["A", "B", "D"])
def test_nf_builds_each_table_once(monkeypatch, capsys, family):
    """One presentation per chain and one enumeration, of the top table:
    the sift reads it, and every level's representatives are read off its
    orbits.  The same request again takes the chain from the memo, and
    builds and enumerates nothing."""
    calls = {"build": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(presentations, "chain_presentation",
                        counted("build", presentations.chain_presentation))
    monkeypatch.setattr(engine, "enumerate", counted("enumerate", engine.enumerate))
    argv = ["nf", "--family", family, "--variant", "edge", "--rank", "5",
            "--word", "r1 r2^-1 r3 r4"]
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count(" | ") == (2 if family == "D" else 3)
    assert calls == {"build": 1, "enumerate": 1}
    assert main(argv) == EXIT_OK
    assert capsys.readouterr().out == out
    assert calls == {"build": 1, "enumerate": 1}


@pytest.mark.parametrize("word", ["R1^999999999", "R1^-1000001", "R1^600000 R2^600000"])
def test_overlong_word_is_usage_error(capsys, word):
    # refused before the letters are built
    assert main(["nf", "--family", "A", "--variant", "bourbaki", "--rank", "4",
                 "--word", word]) == EXIT_USAGE
    assert capsys.readouterr().err == "error: word longer than 1000000 letters\n"


def test_nf_enumerate_lists_all_normal_forms(capsys):
    assert main(["nf", "--family", "A", "--variant", "carmichael",
                 "--rank", "3", "--enumerate"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 12
    assert len(set(lines)) == 12
    assert all(line.count(" | ") == 1 for line in lines)


@pytest.mark.parametrize("word", ["r1 junk^x", "r1", ""])
def test_nf_word_with_enumerate_is_usage_error(capsys, word):
    # every flag given is read: --enumerate would leave the word unread
    assert main(["nf", "--family", "A", "--variant", "edge", "--rank", "3",
                 "--enumerate", "--word", word]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: nf takes --word or --enumerate, "
                                       "not both\n")


def test_nf_needs_word_or_enumerate(capsys):
    base = ["nf", "--family", "A", "--variant", "edge", "--rank", "3"]
    assert main(base) == EXIT_USAGE
    capsys.readouterr()
    # the empty word is the identity, as "1" is
    assert main(base + ["--word", ""]) == EXIT_OK
    assert main(base + ["--word", "1"]) == EXIT_OK
    first, second = capsys.readouterr().out.splitlines()
    assert first == second == "1 | 1"


def test_verify_runs_the_whole_catalog(monkeypatch, capsys):
    """Every check of `altcox verify`, in order, passes, and none builds
    the Clifford images by which `order` counts a catalog cover, so the
    spinor checks count each cover on its own."""
    def not_built(*args):
        raise AssertionError("Clifford images built")

    monkeypatch.setattr(oracle, "clifford_images", not_built)
    names = [f"images-{g}-{v}"
             for g in ("A2", "A3", "A4", "A5", "B2", "B3", "B4", "D3", "D4")
             for v in ("coxeter", "carmichael", "bourbaki", "edge")]
    names += ["orders-A4", "orders-B3", "orders-D4", "spinor-A3", "spinor-B3",
              "spinor-D4", "vv-equivalence", "artin-braid", "spinor-iso-A3",
              "a5-cover-order"]
    assert main(["verify"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"PASS {n}" for n in names] + ["46/46 checks passed"]


def test_verify_builds_its_groups_through_the_catalog(monkeypatch, capsys):
    """Each check of `verify` that names a group builds it with
    cli._catalog_presentation, the builder behind the commands' memo, and
    gets the group that `present` serves under that name: images-* its
    one group, orders-* the three chain variants, spinor-* the cover,
    vv-equivalence both groups, spinor-iso-A3 the tilde and tilde-prime
    edge covers and a5-cover-order the cover.  A cold verify builds each
    group it names once, 42 in all, however many checks name it.  verify
    keeps every group it names in the memo, covers included, under the key
    that the commands give it, so a warm verify builds nothing; neither its
    output nor any order depends on what the memo holds."""
    calls, build = [], cli._catalog_presentation
    monkeypatch.setattr(cli, "_catalog_presentation",
                        lambda *a: calls.append(a) or build(*a))
    want = {"vv-equivalence": [("vv", "A", 4), ("edge", "A", 4)],
            "a5-cover-order": [("a5-cover", None, None)],
            "artin-braid": [],
            "spinor-iso-A3": [("tilde-plus-edge", "A", 3), ("tilde-prime-plus-edge", "A", 3)]}
    got = {}
    for name, thunk in cli._verify_checks():
        kind, group, *variant = name.split("-", 2)
        family, rank = group[0], int(group[1:]) if group[1:].isdigit() else None
        if kind == "images":
            want[name] = [(variant[0], family, rank)]
        elif kind == "orders":
            want[name] = [(v, family, rank) for v in ("carmichael", "bourbaki", "edge")]
        elif kind == "spinor" and not variant:
            want[name] = [("tilde-plus-edge", family, rank)]
        calls.clear()
        cli._memo.clear()  # each check on its own, as if no other had run
        assert thunk(), name
        got[name] = list(calls)
    cli._memo.clear()  # the thunks kept what they built, as main would
    assert got == want
    named = {a for names in want.values() for a in names}

    def flags(family, rank):
        return [] if family is None else ["--family", family, "--rank", str(rank)]

    for v, family, rank in named:
        assert main(["present", "--variant", v, *flags(family, rank)]) == EXIT_OK
        assert capsys.readouterr().out == build(v, family, rank).to_json() + "\n"

    def order(v, family, rank):
        assert main(["order", "--variant", v, *flags(family, rank)]) == EXIT_OK
        return capsys.readouterr().out

    kept = sorted(named)
    fresh = []
    for group in kept:
        cli._memo.clear()
        fresh.append(order(*group))
    cli._memo.clear()
    calls.clear()
    assert main(["verify"]) == EXIT_OK
    cold = capsys.readouterr().out
    assert calls == list(dict.fromkeys(a for names in got.values() for a in names))
    assert len(calls) == 42
    assert set(cli._memo) == named
    plain, matrix, edge = [], cli._matrix_presentation, presentations.edge_presentation
    monkeypatch.setattr(cli, "_matrix_presentation",
                        lambda v, m: plain.append((v, m)) or matrix(v, m))
    monkeypatch.setattr(presentations, "edge_presentation",
                        lambda *a: plain.append(a) or edge(*a))
    calls.clear()
    assert main(["verify"]) == EXIT_OK and capsys.readouterr().out == cold
    assert calls == []
    assert plain == []
    assert [order(*group) for group in kept] == fresh
    assert main(["verify"]) == EXIT_OK and capsys.readouterr().out == cold


def test_each_catalog_group_is_built_once(tmp_path, monkeypatch, capsys):
    """In one process, an enumerate over B5 edge, an nf over the same group
    and two verifies build each catalog group once: the chain is made over
    the group the enumerate kept, and the second verify builds nothing."""
    calls, build = [], cli._catalog_presentation
    monkeypatch.setattr(cli, "_catalog_presentation",
                        lambda *a: calls.append(a) or build(*a))
    builders = []
    for name in ("coxeter_presentation", "bourbaki_presentation", "edge_presentation",
                 "chain_presentation", "vv_presentation", "spinor_presentation",
                 "spinor_plus_presentation", "universal_extension"):
        monkeypatch.setattr(presentations, name,
                            lambda *a, name=name, fn=getattr(presentations, name):
                            builders.append((name, a)) or fn(*a))
    assert main(["enumerate", "--family", "B", "--rank", "5", "--variant", "edge",
                 "--subgroup-gens", "2", "--reps", str(tmp_path / "reps")]) == EXIT_OK
    tables, enumerate_ = [], engine.enumerate
    monkeypatch.setattr(engine, "enumerate",
                        lambda p, *a: tables.append(p) or enumerate_(p, *a))
    assert main(["nf", "--family", "B", "--variant", "edge", "--rank", "5",
                 "--word", "r1 r2^-1 r3 r4"]) == EXIT_OK
    assert calls == [("edge", "B", 5)]
    assert ("B", "edge", 5, engine.DEFAULT_CAP) in cli._memo
    group = cli._memo[("edge", "B", 5)][1]
    assert len(tables) == 1 and tables[0] is group and "columns" in group._engine
    assert main(["verify"]) == EXIT_OK
    assert len(calls) == len(set(calls)) == 43
    plain, matrix = [], cli._matrix_presentation
    monkeypatch.setattr(cli, "_matrix_presentation",
                        lambda v, m: plain.append((v, m)) or matrix(v, m))
    calls.clear()
    builders.clear()
    assert main(["verify"]) == EXIT_OK
    assert calls == builders == plain == []
    capsys.readouterr()


def test_the_certificate_proves_each_catalog_cover(tmp_path):
    """cli._certificate gives engine.order a proof for a catalog spinor
    cover, named by one of the six tilde variants with --family and
    --rank: its Clifford images send every relator to the identity and z
    elsewhere.  It gives None for every other variant, and for a tilde
    variant over a --matrix input."""
    (tmp_path / "M").write_text(_matrix_json(standard_matrix("A", 3)))
    for family, rank in (("A", 3), ("B", 3), ("D", 4)):
        for v in cli._VARIANTS:
            flags = ([] if v.endswith("-cover") else ["--rank", str(rank)] if v == "vv"
                     else ["--family", family, "--rank", str(rank)])
            args = cli._parse(["order", "--variant", v, *flags])
            p = cli._build_presentation(args)
            certificate = cli._certificate(args, p)
            if v.startswith("tilde"):
                assert certificate(), (family, rank, v)
            else:
                assert certificate is None, v
    for v in cli._VARIANTS[5:11]:
        args = cli._parse(["order", "--variant", v, "--matrix", str(tmp_path / "M")])
        assert cli._certificate(args, cli._build_presentation(args)) is None, v


def test_a_kept_chain_holds_only_its_tables(tmp_path, monkeypatch, capsys):
    """After the benchmark's chain mix at seed 1 the memo's weights sum to
    2,787.  Each chain weighs its Chain.weight, its top table's cells and
    its sift points, and holds no presentation or table: those weigh under
    their own keys alone."""
    for req in _benchmark_requests(monkeypatch, "chain", tmp_path):
        main(list(req.argv))
    capsys.readouterr()
    assert sum(weight for weight, _ in cli._memo.values()) == 2787
    kept = [(weight, value) for weight, value in cli._memo.values()
            if isinstance(value, chains.Chain)]
    assert kept
    for weight, chain in kept:
        assert weight == chain.weight()
        assert not any(isinstance(field, (Presentation, engine.CosetTable))
                       for field in vars(chain).values())


def test_verify_only_filter(capsys):
    assert main(["verify", "--only", "orders-A4"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS orders-A4" in out
    assert out.strip().endswith("1/1 checks passed")


def test_verify_no_matching_check(capsys):
    assert main(["verify", "--only", "no-such-check"]) == EXIT_USAGE
    capsys.readouterr()


def test_verify_reports_failure(monkeypatch, capsys):
    # sabotage one check and confirm the failure exit code
    monkeypatch.setattr(presentations, "universal_extension",
                        lambda name: presentations.chain_presentation("A", "edge", 3))
    assert main(["verify", "--only", "a5-cover"]) == EXIT_VERIFY
    assert "FAIL a5-cover-order" in capsys.readouterr().out


def _one_image(family, variant, rank, standard_images=oracle.standard_images):
    images = standard_images(family, variant, rank)
    return [images[0]] * len(images)  # x x^-1 x is not x^-1 x x^-1


def _not_called(*args):
    raise AssertionError("generated_order called")


def _cap_exceeded(*args):
    raise engine.CapExceeded("cap")


@pytest.mark.parametrize("name, obj, attr, sabotage", [
    ("images-A3-edge", oracle, "verify_hom", lambda p, images: False),
    ("artin-braid", oracle, "standard_images", _one_image),
    ("spinor-iso-A3", presentations.GroupHom, "verify", lambda self, *a: False),
    ("orders-A4", engine, "_core", _cap_exceeded),
    ("spinor-iso-A3", engine, "_core", _cap_exceeded),
], ids=["images", "artin-braid", "spinor-iso", "order-cap", "enumerate-cap"])
def test_verify_reports_each_failure(monkeypatch, capsys, name, obj, attr, sabotage):
    # a check fails as soon as one part of it does: the images are not
    # counted once they break a relator
    monkeypatch.setattr(obj, attr, sabotage)
    monkeypatch.setattr(oracle, "generated_order", _not_called)
    assert main(["verify", "--only", name]) == EXIT_VERIFY
    assert capsys.readouterr().out == f"FAIL {name}\n0/1 checks passed\n"


def test_verify_timings_go_to_stderr(capsys):
    """--timings writes one `<check> <ms>` line per check to stderr and
    leaves stdout as it is without the flag."""
    assert main(["verify", "--only", "spinor"]) == EXIT_OK
    plain = capsys.readouterr()
    assert main(["verify", "--only", "spinor", "--timings"]) == EXIT_OK
    timed = capsys.readouterr()
    assert timed.out == plain.out and plain.err == ""
    names = [line.split()[1] for line in plain.out.splitlines()[:-1]]
    assert names == ["spinor-A3", "spinor-B3", "spinor-D4", "spinor-iso-A3"]
    lines = [line.split(" ") for line in timed.err.splitlines()]
    assert [name for name, _ in lines] == names
    assert all(float(ms) >= 0 for _, ms in lines)


def test_parser_built_once(monkeypatch, capsys):
    # importing the module builds no parser and keeps nothing in the memo
    r = subprocess.run([sys.executable, "-c", "import altcox.cli as c; "
                        "print(c._parser.cache_info().currsize, len(c._memo))"],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "0 0\n")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):  # well formed: its reader reads it
            assert main(["order", "--family", "A", "--rank", "3"]) == EXIT_OK
        assert built == []
        for _ in range(3):  # --rank=3 is declined, so argparse reads it
            assert main(["order", "--family", "A", "--rank=3"]) == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().out == "24\n" * 6
    assert len(built) == 1


def test_memo_is_bounded_least_recently_used(monkeypatch, capsys):
    """With a budget that any two of three groups fit but not all three:
    the kept weight never exceeds it, the least recently used group goes
    first, a group heavier than the budget is served as from an empty memo
    and not kept, and a request that exits 2 or 3 keeps the groups it built
    but no chain, as a capped chain is never made."""
    keys = [("coxeter", "A", 2), ("coxeter", "A", 3), ("coxeter", "B", 3)]
    weights = [cli._weight(presentations.coxeter_presentation(standard_matrix(f, r)))
               for _, f, r in keys]
    monkeypatch.setattr(cli, "MEMO_BUDGET", sum(weights) - 1)

    def present(family, rank):
        assert main(["present", "--family", family, "--rank", str(rank)]) == EXIT_OK
        assert sum(weight for weight, _ in cli._memo.values()) <= cli.MEMO_BUDGET
        return capsys.readouterr().out

    first = [present("A", 2), present("A", 3)]
    assert list(cli._memo) == keys[:2]
    assert present("A", 2) == first[0]  # now the most recently used
    assert list(cli._memo) == [keys[1], keys[0]]
    present("B", 3)
    assert list(cli._memo) == [keys[0], keys[2]]
    assert present("A", 3) == first[1]
    assert list(cli._memo) == [keys[2], keys[1]]

    heavy = present("A", 6)  # 82 letters
    assert list(cli._memo) == [keys[2], keys[1]]
    cli._memo.clear()
    monkeypatch.setattr(cli, "MEMO_BUDGET", 1 << 16)
    assert present("A", 6) == heavy
    assert list(cli._memo) == [("coxeter", "A", 6)]

    kept = dict(cli._memo)
    for argv, code in [
            (["enumerate", "--family", "A", "--rank", "4", "--subgroup-gens", "9"], EXIT_USAGE),
            (["nf", "--family", "A", "--rank", "4", "--variant", "edge"], EXIT_USAGE),
            (["order", "--family", "A", "--rank", "4", "--max-cosets", "1"], EXIT_CAP),
            (["nf", "--family", "A", "--rank", "4", "--variant", "edge", "--word", "r1",
              "--max-cosets", "1"], EXIT_CAP)]:
        assert main(argv) == code
    # the capped nf raised while its chain was being made
    assert list(cli._memo) == [*kept, ("coxeter", "A", 4), ("edge", "A", 4)]
    assert {key: cli._memo[key] for key in kept} == kept
    capsys.readouterr()


def test_a_refused_command_keeps_what_it_built(monkeypatch, capsys):
    """An nf refused for its word keeps the group it built, and no chain:
    the word is read before the chain is made, so no table is enumerated.
    The next nf over that group builds no presentation."""
    cores, core = [], engine._core
    monkeypatch.setattr(engine, "_core", lambda *a: cores.append(a) or core(*a))
    built, chain_presentation = [], presentations.chain_presentation
    monkeypatch.setattr(presentations, "chain_presentation",
                        lambda *a: built.append(a) or chain_presentation(*a))
    argv = ["nf", "--family", "A", "--rank", "4", "--variant", "edge"]
    assert main(argv + ["--word", "r1 q^2"]) == EXIT_USAGE
    assert capsys.readouterr() == ("", "error: unknown generator 'q'\n")
    assert list(cli._memo) == [("edge", "A", 4)] and cores == []
    built.clear()
    assert main(argv + ["--word", "r1 r2"]) == EXIT_OK
    assert capsys.readouterr() == ("1 | r2^2 | r1^2\n", "")
    assert built == []


@pytest.mark.parametrize("family, rank, flags, error", [
    ("A", 4, ["--word", "r1", "--enumerate"], "nf takes --word or --enumerate, not both"),
    ("A", 4, [], "nf needs --word or --enumerate"),
    ("D", 2, [], "rank 2 below minimum for (D, edge)"),
    ("A", 4, ["--word", "r1 q2"], "unknown generator 'q2'"),
    ("A", 4, ["--word", "r1 q2", "--max-cosets", "1"], "unknown generator 'q2'"),
], ids=["both-flags", "neither-A4", "neither-D2", "bad-word", "bad-word-capped"])
def test_nf_refuses_before_it_enumerates(monkeypatch, capsys, family, rank, flags, error):
    """nf reads its flags, its group and its word before it makes a chain:
    each refusal exits 2 with its own message and runs no enumeration."""
    cores, core = [], engine._core
    monkeypatch.setattr(engine, "_core", lambda *a: cores.append(a) or core(*a))
    argv = ["nf", "--family", family, "--rank", str(rank), "--variant", "edge", *flags]
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == ("", f"error: {error}\n")
    assert cores == []


def test_presentation_file_is_kept_by_its_text(tmp_path, monkeypatch, capsys):
    """--presentation keeps what it parses under the file's text, which it
    reads on every call: a second order of a cover's file parses nothing
    and reuses the kept presentation, with the central quotient the first
    order proved, and both print what a fresh process prints; an edited
    file is parsed again."""
    path = tmp_path / "cover.json"
    argv = ["order", "--presentation", str(path)]
    parsed, from_json = [], Presentation.from_json
    monkeypatch.setattr(Presentation, "from_json",
                        staticmethod(lambda text: parsed.append(text) or from_json(text)))
    for family, rank in (("D", 5), ("D", 4)):
        assert main(["present", "--family", family, "--rank", str(rank),
                     "--variant", "tilde", "--output", str(path)]) == EXIT_OK
        fresh = subprocess.run([sys.executable, "-m", "altcox.cli", *argv],
                               capture_output=True, text=True)
        assert (fresh.returncode, fresh.stderr) == (EXIT_OK, "")
        parsed.clear()
        for _ in range(2):
            assert main(argv) == EXIT_OK
            assert capsys.readouterr() == (fresh.stdout, "")
        text = path.read_text()
        assert parsed == [text]
        weight, p = cli._memo[("--presentation", text)]
        assert "least" in p._engine and weight == cli._weight(p) + len(text) // 32


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _benchmark_requests(monkeypatch, mix, workdir):
    """The requests of one of the benchmark's mixes at seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # for its dataclass
    spec.loader.exec_module(workloads)
    return workloads.build(mix, 1, workdir)


@pytest.mark.parametrize("mix", ["regular", "chain", "session"])
def test_memo_changes_no_benchmark_output(tmp_path, monkeypatch, capsys, mix):
    """Every request of the benchmark's mixes at seed 1 gives the same exit
    code, stdout, stderr and files with the memo emptied before it, as in a
    fresh process, in a pass from an empty memo, and in a pass after that;
    in the last, a request builds a key only when that build raises."""
    requests = _benchmark_requests(monkeypatch, mix, tmp_path)
    built, memoized = [], cli._memoized

    def recorded(key, build):
        def record():
            value = build()
            built.append(key)
            return value
        return memoized(key, record)

    monkeypatch.setattr(cli, "_memoized", recorded)

    def run(req):
        for path in req.outputs:
            path.unlink(missing_ok=True)
        code = main(list(req.argv))
        return (code, *capsys.readouterr(),
                [p.read_bytes() if p.exists() else None for p in req.outputs])

    fresh = []
    for req in requests:
        cli._memo.clear()
        fresh.append(run(req))
    cli._memo.clear()
    assert [run(req) for req in requests] == fresh
    warm = []
    for req in requests:
        built.clear()
        warm.append(run(req))
        assert built == [], req.argv
    assert warm == fresh


# the SHA-256 of every core call the three benchmark mixes make at seed 1,
# run from an empty memo and then again in the same process
CORE_WORK_DIGEST = "731de95fe95140ea0b6f3d2d7fe2b5969bc74a939856595f616e5d8c5ba0a843"


def test_core_work_of_the_benchmark_mixes(tmp_path, monkeypatch, capsys):
    """The requests of the regular, chain and session mixes at seed 1, run
    in turn from an empty memo and then again, make the same core calls
    with the same results: each call's column count, subgroup words, cap,
    whether it builds the table, and the cosets it defined, or that it met
    its cap.  The calls, and so the digest, are the same on either core."""
    calls, core = [], engine._core

    def recording_core(ncols, relators, subwords, cap, table):
        subwords = [tuple(w) for w in subwords]
        try:
            result = core(ncols, relators, subwords, cap, table)
        except engine.CapExceeded:
            calls.append((ncols, subwords, cap, table, "cap exceeded"))
            raise
        calls.append((ncols, subwords, cap, table, result[1]))
        return result

    requests = [req for mix in ("regular", "chain", "session")
                for req in _benchmark_requests(monkeypatch, mix, tmp_path)]
    monkeypatch.setattr(engine, "_core", recording_core)
    for _ in range(2):
        for req in requests:
            main(list(req.argv))
    capsys.readouterr()
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == (368, CORE_WORK_DIGEST)


# argument lists read by a command's own parser and by the full parser:
# help, unknown and abbreviated commands, options before the command,
# abbreviated and attached options, "--", extras and missing values
DISPATCH_ARGVS = [
    [], ["-h"], ["--help"], ["frobnicate"], ["ord", "--family", "A", "--rank", "3"],
    ["-x", "order"], ["order", "-h"], ["nf", "--help"],
    ["order", "--family", "A", "--rank", "3"],
    ["order", "--family", "A", "--rank", "3", "--bogus"],
    ["order", "--family", "A", "--rank", "3", "extra"],
    ["order", "--fam", "A", "--ra", "3"],
    ["order", "--family=A", "--rank=3"],
    ["order", "--family", "A", "--rank", "401"],
    ["nf", "--family", "A", "--variant", "edge", "--rank", "3", "--word=-1"],
    ["nf", "--family", "A", "--variant", "edge", "--rank", "3", "--word", "-1"],
    ["nf", "--family", "A", "--variant", "edge", "--rank", "3", "--word=r1 r2"],
    ["nf", "--family", "A", "--variant", "edge", "--word", "r1"],
    ["--", "order", "--family", "A", "--rank", "3"],
    ["order", "--", "--family", "A", "--rank", "3"],
    ["order", "--family", "A", "--rank", "3", "--"],
    ["order", "--family", "A", "--rank"],
    ["enumerate", "--family", "B", "--rank", "3", "--subgroup", "s0", "--subgroup", "s1"],
    ["present", "--family", "D", "--rank", "4", "--variant", "edge"],
    ["verify", "--only", "artin"],
]


FULL = cli.build_parser()


def _full_parser(argv):
    return FULL.parse_args(argv)


@pytest.mark.parametrize("argv", DISPATCH_ARGVS, ids=repr)
def test_dispatch_matches_full_parser(monkeypatch, capsys, argv):
    """main reads each argv as the full parser does: the same exit code,
    stdout and stderr."""
    got = (main(argv),) + tuple(capsys.readouterr())
    monkeypatch.setattr(cli, "_parse", _full_parser)
    assert (main(argv),) + tuple(capsys.readouterr()) == got


COMMANDS = {name: options for name, (_, _, options) in cli._COMMANDS.items()}
# values that are empty, that begin with "-", or that a type or choices refuse
ODD = ["", "-1", "-", "--", "-h", "--rank", "x", "401"]


def _taken(kwargs):
    """Values that an option declared with kwargs takes."""
    if "choices" in kwargs:
        return list(kwargs["choices"])
    return ["2", "3", "6"] if "type" in kwargs else ["s1", "r1 r2^-1", "out.txt"]


@st.composite
def parser_argvs(draw):
    """A command, or another first token, then options of that command,
    half the time all of its required ones first, each written exactly and
    given a value it takes; then, two times in three, one change: an option
    abbreviated, written --flag=value, left without its value or given one
    more, a value of ODD, or "--", -h, an unknown option or a stray token
    put in."""
    name = draw(st.sampled_from(sorted(COMMANDS) * 2 + ["ord", "-h", "--"]))
    declared = COMMANDS.get(name, COMMANDS["nf"])
    chosen = ([o for o in declared if o[1].get("required")]
              if draw(st.booleans()) else [])
    chosen += draw(st.lists(st.sampled_from(declared), max_size=5))
    options = [[flag] + ([draw(st.sampled_from(_taken(kwargs)))]
                         if kwargs.get("action") != "store_true" else [])
               for flag, kwargs in chosen]
    change = draw(st.sampled_from([None] * 12 + ["abbreviated", "equals", "missing",
                                                "extra", "inserted"] * 4 + ["odd"] * 8))
    if options and change not in (None, "inserted"):
        option = draw(st.sampled_from(options))
        flag, odd = option[0], draw(st.sampled_from(ODD))
        if change == "abbreviated":
            option[0] = flag[:draw(st.integers(3, len(flag) - 1))]
        elif change == "equals":
            option[:] = [f"{flag}={option[1] if len(option) > 1 else odd}"]
        elif change == "missing":
            del option[1:]
        elif change == "extra":
            option.append(draw(st.sampled_from(ODD + ["s1"])))
        else:
            option[1:] = [odd]
    argv = [name] + [token for option in options for token in option]
    if change == "inserted":
        argv.insert(draw(st.integers(1, len(argv))),
                    draw(st.sampled_from(["--", "-h", "--bogus", "extra"])))
    return argv


def _outcome(parse, argv):
    """What parse makes of argv: the attributes of its namespace, or the exit
    code, stdout and stderr of argparse's exit."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(parse(argv))
        except SystemExit as e:
            return e.code, out.getvalue(), err.getvalue()


@settings(max_examples=1000, deadline=None)
@given(parser_argvs())
def test_parse_matches_argparse(argv):
    """cli._parse reads every argv to what argparse's full parser makes of
    it: a namespace of the same attributes, or the same exit code, stdout
    and stderr."""
    assert _outcome(cli._parse, argv) == _outcome(_full_parser, argv), argv


def test_valid_argv_is_parsed_once(monkeypatch, capsys):
    """A well-formed argv is read by its command's reader alone, to what the
    full parser returns; the full parser reads all of an argv that names no
    command or that the reader declines: help, "--", and every argv that
    fails to parse."""
    ap = cli._parser()
    calls, parse_args = [], ap.parse_args
    monkeypatch.setattr(ap, "parse_args", lambda argv: calls.append(argv) or parse_args(argv))
    read = []
    for argv in DISPATCH_ARGVS:
        main(argv)
        if calls == []:
            assert vars(cli._parse(argv)) == vars(_full_parser(argv)), argv
            read.append(argv)
        else:
            assert calls == [argv], argv
        calls.clear()
    # the table's valid argvs less those written with help, "--", an
    # abbreviated option or --flag=value
    assert read == [
        ["order", "--family", "A", "--rank", "3"],
        ["enumerate", "--family", "B", "--rank", "3", "--subgroup", "s0", "--subgroup", "s1"],
        ["present", "--family", "D", "--rank", "4", "--variant", "edge"],
        ["verify", "--only", "artin"]]
    for argv in (["ord"], ["order", "--family", "A", "--rank", "3", "x"]):
        assert main(argv) == EXIT_USAGE
        assert calls == [argv]
        calls.clear()
    capsys.readouterr()


@pytest.mark.parametrize("mix", ["regular", "chain", "session"])
def test_benchmark_argvs_are_read_without_argparse(tmp_path, monkeypatch, mix):
    """Every argv of the benchmark's mixes at seed 1 is read by its command's
    reader, to what the full parser returns, except the session's two that
    argparse refuses: a --family and a --max-cosets value of junk."""
    declined = []
    for req in _benchmark_requests(monkeypatch, mix, tmp_path):
        argv = list(req.argv)
        args = cli._reader(argv[0])(argv[1:])
        if args is None:
            declined.append(argv)
        else:
            assert vars(args) == vars(_full_parser(argv)), argv
    assert len(declined) == (2 if mix == "session" else 0)
    for argv, refusal in zip(declined, ["argument --family: invalid choice",
                                        "argument --max-cosets: invalid int value"]):
        err = io.StringIO()
        with pytest.raises(SystemExit) as e, contextlib.redirect_stderr(err):
            _full_parser(argv)
        assert e.value.code == EXIT_USAGE and refusal in err.getvalue(), argv


def test_parser_reuse_carries_no_state(capsys):
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup", "s0", "--subgroup", "s1"]) == EXIT_OK
    assert main(["enumerate", "--family", "A", "--rank", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "index 4\nindex 24\n"
    assert main(["order", "--family", "A", "--rank", "three"]) == EXIT_USAGE
    assert main(["order", "--family", "A", "--rank", "3"]) == EXIT_OK
    assert capsys.readouterr().out == "24\n"


def test_console_script():
    r = subprocess.run([sys.executable, "-m", "altcox.cli", "order",
                        "--family", "B", "--rank", "3", "--variant", "edge"],
                       capture_output=True, text=True)
    assert r.returncode == 0 and r.stdout == "24\n"
