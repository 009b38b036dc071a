import hashlib
import json
import os
import random
import resource
import subprocess
import sys

import pytest

from altcox import cli, chains, engine, presentations
from altcox.cli import main, EXIT_OK, EXIT_USAGE, EXIT_CAP, EXIT_VERIFY
from altcox.coxeter import MAX_RANK, CoxeterMatrix, standard_matrix
from altcox.words import Word, parse_word, render_word, MAX_GENERATORS
from altcox._tc_py import enumerate_core as py_core


INFINITE_MATRIX = CoxeterMatrix(2, ((1, 0), (0, 1)))


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


# SHA-256 over the exit code and stdout of every `present` invocation below;
# a change to the bytes of any built-in presentation changes it
PRESENT_DIGEST = "e0136d864e7c873e7346736c1fc4fd5b2199f43c6704cbd6b585077403fb558b"


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


@pytest.mark.parametrize("flag, data, err", [
    ("--matrix", {"n": 2, "m": [[1, HUGE], [HUGE, 1]]},
     "word longer than 1000000 letters"),
    ("--matrix", {"n": 2, "m": [[1, 10 ** 9], [10 ** 9, 1]]},
     "word longer than 1000000 letters"),
    ("--presentation", {"generators": ["a", "z"], "relators": ["a^2"],
                        "central": [{"name": "z", "order": HUGE}]},
     "word longer than 1000000 letters"),
    ("--presentation", {"generators": [f"g{i}" for i in range(MAX_GENERATORS + 1)],
                        "relators": []}, f"more than {MAX_GENERATORS} generators"),
], ids=["label-1e20", "label-1e9", "central-order-1e20", "generators"])
def test_oversized_input_is_usage_error(tmp_path, flag, data, err):
    # refused before the word or presentation is built: a fresh interpreter
    # held to 2 GB of address space exits 2 well within the timeout
    path = tmp_path / "in.json"
    path.write_text(json.dumps(data))
    r = subprocess.run([sys.executable, "-m", "altcox.cli", "present", flag, str(path)],
                       capture_output=True, text=True, timeout=60,
                       preexec_fn=_limit_memory)
    assert (r.returncode, r.stderr) == (EXIT_USAGE, f"error: {err}\n")


def test_unknown_subcommand_is_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
    capsys.readouterr()


def test_enumerate_index_and_artifacts(tmp_path, capsys):
    table = tmp_path / "t.csv"
    dot = tmp_path / "g.dot"
    reps = tmp_path / "r.txt"
    assert main(["enumerate", "--family", "A", "--rank", "3",
                 "--subgroup-gens", "2",
                 "--table", str(table), "--dot", str(dot),
                 "--reps", str(reps)]) == EXIT_OK
    assert capsys.readouterr().out == "index 4\n"
    lines = table.read_text().splitlines()
    assert lines[0] == "coset,s0,s1,s2"
    assert len(lines) == 5
    assert 'label="H"' in dot.read_text()
    assert reps.read_text() == "1\ns2\ns1 s2\ns0 s1 s2\n"


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
    # the rank-5 regular table behind the base level
    (["nf", "--family", "B", "--rank", "5", "--variant", "edge", "--word", "r1"], 1000),
], ids=["order", "nf-D5-level", "nf-B5-regular"])
def test_order_cap_exceeded(tmp_path, capsys, argv, cap):
    mfile = tmp_path / "inf.json"
    mfile.write_text(INFINITE_MATRIX.to_json())
    argv = [str(mfile) if a == "INF" else a for a in argv]
    assert main(argv + ["--max-cosets", str(cap)]) == EXIT_CAP
    err = capsys.readouterr().err
    assert "cap exceeded" in err
    assert err == f"cap exceeded at {cap} cosets\n"


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
    spec = chains.ChainSpec("A", "carmichael", 3)
    p = spec.presentation
    d = chains.Chain(spec).decompose(parse_word("a1 a2", p))
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


# SHA-256 over the exit code and stdout of every nf_golden_argvs() invocation;
# taken before the chain tables were shared across levels
NF_DIGEST = "04e752ac7b745272d5564c190eb10191cb3d0d56e45ab10e7aa5723798405783"


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


@pytest.mark.parametrize("family, builds, enumerations",
                         [("A", 2, 5), ("B", 4, 7), ("D", 3, 5)])
def test_nf_builds_each_table_once(monkeypatch, capsys, family, builds, enumerations):
    """One presentation per rank and one enumeration per (rank, level) table."""
    calls = {"build": 0, "enumerate": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper
    monkeypatch.setattr(chains, "chain_presentation",
                        counted("build", chains.chain_presentation))
    monkeypatch.setattr(engine, "enumerate", counted("enumerate", engine.enumerate))
    assert main(["nf", "--family", family, "--variant", "edge", "--rank", "5",
                 "--word", "r1 r2^-1 r3 r4"]) == EXIT_OK
    assert capsys.readouterr().out.count(" | ") == (2 if family == "D" else 3)
    assert calls == {"build": builds, "enumerate": enumerations}


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


def test_nf_needs_word_or_enumerate(capsys):
    base = ["nf", "--family", "A", "--variant", "edge", "--rank", "3"]
    assert main(base) == EXIT_USAGE
    capsys.readouterr()
    # the empty word is the identity, as "1" is
    assert main(base + ["--word", ""]) == EXIT_OK
    assert main(base + ["--word", "1"]) == EXIT_OK
    first, second = capsys.readouterr().out.splitlines()
    assert first == second == "1 | 1"


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


def test_parser_built_once(monkeypatch, capsys):
    # importing the module builds no parser
    r = subprocess.run([sys.executable, "-c", "import altcox.cli as c; "
                        "print(c._parser.cache_info().currsize)"],
                       capture_output=True, text=True)
    assert (r.returncode, r.stdout) == (0, "0\n")
    built = []
    build = cli.build_parser
    monkeypatch.setattr(cli, "build_parser", lambda: built.append(1) or build())
    cli._parser.cache_clear()
    try:
        for _ in range(3):
            assert main(["order", "--family", "A", "--rank", "3"]) == EXIT_OK
    finally:
        cli._parser.cache_clear()
    assert capsys.readouterr().out == "24\n" * 3
    assert len(built) == 1


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
