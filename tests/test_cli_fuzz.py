"""A derandomized fuzz harness over `altcox` argument lists and JSON inputs.

Every `cli.main` call ends in exit 0, 2 or 3, whether the command's own
reader or argparse reads its arguments; a usage error (2) writes
nothing to stdout and one `error:` line, or argparse's usage and error
lines, to stderr; a cap overrun (3) writes nothing to stdout; and the same
call made twice, the second time with what the first kept in the memo,
prints the same stdout and stderr.  An `order` that completes prints
the index that `enumerate` counts over the trivial subgroup.  Most values
drawn are valid, so that most calls get past the parser, and caps stay
small, so that the whole run takes a few seconds.
"""

import contextlib
import io
import json

from hypothesis import HealthCheck, given, settings, strategies as st

from altcox import cli

# "_" and the Arabic-Indic digit three are not exponent digits, though int()
# reads "1_0" and "\u0663"
JUNK = st.text("r12 ^-x!\t\n_\u0663", max_size=8)


def mostly(valid, *invalid):
    """valid nine times in ten, else one of the invalid values or strategies."""
    bad = st.one_of([x if isinstance(x, st.SearchStrategy) else st.just(x)
                     for x in invalid])
    return st.integers(0, 9).flatmap(lambda k: valid if k < 9 else bad)


FAMILIES = mostly(st.sampled_from("ABD"), "a", "E", "")
CAPS = mostly(st.integers(1, 2000).map(str), "0", "-5", "x", "3000000000")
CHAIN_VARIANTS = st.sampled_from(["carmichael", "bourbaki", "edge"])
EXPONENTS = st.sampled_from(["", "", "^2", "^-1", "^3", "^-2", "^1_0", "^\u0663"])


def words(prefix):
    """Text words over the generators prefix1..prefix4, or junk."""
    token = st.tuples(st.sampled_from([f"{prefix}{k}" for k in range(1, 5)] + ["1"]),
                      EXPONENTS).map("".join)
    return mostly(st.lists(token, max_size=10).map(" ".join), JUNK)


@st.composite
def matrices(draw):
    """Coxeter matrix JSON: a small matrix with labels {2..6, 0 for
    infinity}, or a wrong shape, or malformed text."""
    n = draw(st.integers(1, 4))
    m = [[1] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m[i][j] = m[j][i] = draw(st.sampled_from([2, 2, 3, 3, 4, 5, 6, 0]))
    bad = ['{"n": 2, "m": [[1, 3], [2, 1]]}', '{"n": 3}', "[]", '{"n": -1, "m": []}',
           '{"n": 2, "m": [[1, 3], [3, 1]', '{"n": 2, "m": [[1, "3"], [3, 1]]}']
    return draw(mostly(st.just(json.dumps({"n": n, "m": m})), *bad, JUNK))


@st.composite
def presentations(draw):
    """Presentation JSON over x, y and z, or a wrong shape, or malformed
    text.  With all three generators, a pure power and a relator in two of
    them, order tries a pair <g, h>."""
    gens = draw(st.lists(st.sampled_from(["x", "y", "z", "x", "y", "z", "1x", ""]),
                         min_size=1, max_size=3, unique=True))
    rels = draw(st.lists(st.sampled_from(["x^2", "y^3", "x y x^-1 y^-1", "(x y)^2",
                                          "x y", "w", "", "y x^4", "x^4", "z^3",
                                          "x z y^-1", "x z x z"]), max_size=4))
    text = json.dumps({"generators": gens, "relators": rels})
    return draw(mostly(st.just(text), '{"generators": ["x"]}', "{}", JUNK))


@st.composite
def input_flags(draw):
    """Input flags of present, order and enumerate: a family and rank, a
    matrix or presentation file, or any mix of them, with a variant."""
    source = draw(st.sampled_from(["family"] * 6 + ["matrix"] * 2
                                  + ["presentation", "mix"]))
    flags = []
    if source in ("family", "mix") or draw(st.integers(0, 9)) == 0:
        flags += ["--family", draw(FAMILIES), "--rank", draw(mostly(
            st.integers(2, 6).map(str), "-1", "0", "1", "x"))]
    if source in ("matrix", "mix"):
        flags += ["--matrix", ("matrix.json", draw(matrices()))]
    if source in ("presentation", "mix"):
        flags += ["--presentation", ("presentation.json", draw(presentations()))]
    if source != "presentation" or draw(st.integers(0, 5)) == 0:
        flags += ["--variant", draw(mostly(st.sampled_from(cli._VARIANTS), "nosuch"))]
    return flags


@st.composite
def plain_argvs(draw):
    """One argument list: mostly nf (ranks 2-40), else present, order,
    enumerate, verify or an unknown command."""
    command = draw(st.sampled_from(["nf"] * 4 + ["present", "order", "enumerate",
                                                 "enumerate", "verify", "bogus"]))
    argv = [command]
    if command == "nf":
        variant = draw(mostly(CHAIN_VARIANTS, "vv"))
        argv += ["--family", draw(FAMILIES), "--variant", variant, "--rank",
                 draw(mostly(st.integers(2, 40).map(str), "-2", "0", "1", "401", "x"))]
        mode = draw(mostly(st.sampled_from(["word", "word", "enumerate",
                                            "word+enumerate"]), "none"))
        if "word" in mode:
            prefix = {"carmichael": "a", "bourbaki": "R"}.get(variant, "r")
            argv += ["--word", draw(words(prefix))]
        if "enumerate" in mode:
            argv += ["--enumerate"]
        return argv + ["--max-cosets", draw(CAPS)]
    if command == "verify":
        checks = st.sampled_from(["orders-A4", "spinor-A3", "zz"])
        return argv + ["--only", draw(checks)]
    if command == "bogus":
        return argv
    argv += draw(input_flags())
    if command != "present":
        argv += ["--max-cosets", draw(CAPS)]
    if command == "enumerate":
        gens = mostly(st.integers(0, 3).map(str), "-1", "9")
        argv += draw(st.one_of(st.just([]), gens.map(lambda k: ["--subgroup-gens", k]),
                               words("s").map(lambda w: ["--subgroup", w])))
        for flag in draw(st.lists(st.sampled_from(["--table", "--dot", "--reps"]),
                                  max_size=2, unique=True)):
            argv += [flag, (flag[2:] + ".out", None)]
    return argv


@st.composite
def argvs(draw):
    """plain_argvs, one time in three with one option and its value
    reshaped: written --flag=value, the flag abbreviated or the value led
    by "-", which argparse reads in place of the command's own reader, or
    the option given again at the end, which that reader reads."""
    argv = draw(plain_argvs())
    # options followed by a value, not by a file or another option
    options = [i for i in range(1, len(argv) - 1)
               if all(isinstance(a, str) for a in argv[i:i + 2])
               and argv[i].startswith("--") and not argv[i + 1].startswith("--")]
    change = draw(st.sampled_from([None] * 8 + ["equals", "abbreviated", "repeated",
                                                "dash"]))
    if not options or change is None:
        return argv
    i = draw(st.sampled_from(options))
    flag, value = argv[i:i + 2]
    if change == "equals":
        argv[i:i + 2] = [f"{flag}={value}"]
    elif change == "abbreviated":
        argv[i] = flag[:draw(st.integers(3, len(flag) - 1))]
    elif change == "repeated":
        argv += [flag, value]
    else:
        argv[i + 1] = "-" + value
    return argv


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def _one_error(err):
    """One `error:` line, or argparse's usage lines ending in its error."""
    lines = err.splitlines()
    if lines and lines[0].startswith("usage: "):
        return lines[-1].startswith("altcox") and ": error: " in lines[-1]
    return len(lines) == 1 and lines[0].startswith("error: ")


def _concrete(argv, tmp_path_factory):
    """argv with each (file name, its JSON text or None) replaced by a path
    in a scratch directory, the text written there."""
    files = tmp_path_factory.getbasetemp() / "fuzz"
    files.mkdir(exist_ok=True)
    concrete = []
    for a in argv:
        if isinstance(a, tuple):
            if a[1] is not None:
                (files / a[0]).write_text(a[1])
            a = str(files / a[0])
        concrete.append(a)
    return concrete


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
def test_every_call_ends_in_a_documented_exit(tmp_path_factory, argv):
    concrete = _concrete(argv, tmp_path_factory)
    code, out, err = _run(concrete)
    assert code in (cli.EXIT_OK, cli.EXIT_USAGE, cli.EXIT_CAP), (concrete, code, err)
    if code == cli.EXIT_USAGE:
        assert out == "" and _one_error(err), (concrete, out, err)
    elif code == cli.EXIT_CAP:
        assert out == "" and err.startswith("cap exceeded at "), (concrete, err)
    # the second call finds in the memo whatever the first kept
    assert _run(concrete) == (code, out, err), concrete


@settings(max_examples=600, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(st.one_of(input_flags(), presentations().map(
    lambda text: ["--presentation", ("presentation.json", text)])), CAPS)
def test_order_is_the_index_of_the_trivial_subgroup(tmp_path_factory, flags, cap):
    """An order that completes, through a pair of generators, a cyclic
    subgroup or the trivial one, prints the index that enumerate counts
    over the trivial subgroup at the default cap, which the groups drawn
    here stay under.  Half the inputs are presentation files, whose pure
    powers x^2, x^4, y^3 and z^3 need not be their generators' orders."""
    flags = _concrete(flags, tmp_path_factory)
    code, out, _ = _run(["order"] + flags + ["--max-cosets", cap])
    if code == cli.EXIT_OK:
        assert _run(["enumerate"] + flags)[:2] == (cli.EXIT_OK, f"index {out}"), flags
