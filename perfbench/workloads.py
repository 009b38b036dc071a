"""Request mixes of the altcox benchmark, each request with an output check.

A request is one ``altcox`` command line.  Its check receives the exit code
and the captured stdout and stderr, reads any files the request wrote, and
returns None when the output is right or a one-line reason when it is not.
Checks use the permutation oracle (``altcox.oracle``) and the word parser,
never the enumerator, so a wrong table cannot vouch for itself.

A mix is the same multiset of requests on every seed; the seed only chooses
the random words, the malformed text and (in the runner) the order.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from altcox import oracle
from altcox.oracle import WreathElement
from altcox.words import Presentation, Word, parse_word

VARIANTS = ("carmichael", "bourbaki", "edge")
PREFIX = {"carmichael": "a", "bourbaki": "R", "edge": "r"}
# lowest rank each family's presentations accept, which is also the base
# level of its chain normal form
MIN_RANK = {"A": 2, "B": 2, "D": 3}
# every --variant value of the CLI
CLI_VARIANTS = ("coxeter", "carmichael", "bourbaki", "edge", "vv",
                "tilde", "tilde-prime",
                "tilde-plus-bourbaki", "tilde-plus-edge",
                "tilde-prime-plus-bourbaki", "tilde-prime-plus-edge",
                "a5-cover", "a6-cover")


@dataclass
class Request:
    argv: tuple[str, ...]
    check: Callable[[int, str, str], str | None]
    outputs: tuple[Path, ...] = ()  # files the request writes; removed before it runs


def _chain_alphabet(variant, rank):
    return Presentation(tuple(f"{PREFIX[variant]}{i}" for i in range(1, rank)), ())


def _key(e: WreathElement):
    return e.flags, e.perm.images


def _closure(gens, degree):
    """All elements of the subgroup generated by ``gens`` (BFS)."""
    identity = WreathElement.identity(degree)
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in gens:
                x = e * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return seen


def expected_order(family, rank, variant):
    """|G| from the closed form: the even subgroup, the full group (x2) for
    ``coxeter``, and twice that for the spinor double covers."""
    alt = oracle.alternating_order(family, rank)
    if variant == "coxeter":
        return 2 * alt
    if variant in ("tilde", "tilde-prime"):
        return 4 * alt
    if variant.startswith("tilde"):
        return 2 * alt
    return alt


def _fail_exit(rc, err):
    return f"exit {rc}: {err.strip().splitlines()[-1][:120] if err.strip() else ''}"


def check_order(want):
    def check(rc, out, err):
        if rc != 0:
            return _fail_exit(rc, err)
        if out != f"{want}\n":
            return f"order {out.strip()!r}, want {want}"
    return check


def check_exit(code, stderr=None):
    def check(rc, out, err):
        if rc != code:
            return f"exit {rc}, want {code}"
        if out:
            return "stdout not empty"
        if stderr is not None and err != stderr:
            return f"stderr {err.strip()!r}, want {stderr.strip()!r}"
    return check


def check_nf(family, variant, rank, word):
    p = _chain_alphabet(variant, rank)
    images = oracle.standard_images(family, variant, rank)
    target = oracle.eval_word(images, parse_word(word, p))
    levels = rank - MIN_RANK[family] + 1

    def check(rc, out, err):
        if rc != 0:
            return _fail_exit(rc, err)
        factors = out.rstrip("\n").split(" | ")
        if len(factors) != levels:
            return f"{len(factors)} factors, want {levels}"
        product = Word()
        for f in factors:
            product = product * parse_word(f, p)
        if oracle.eval_word(images, product) != target:
            return "product of the factors differs from the word"
    return check


def _coset_key(e, subgroup):
    return min(_key(e * h) for h in subgroup)


def check_cosets(family, variant, rank, k, reps):
    """``enumerate --subgroup-gens k --reps``: the index is |G|/|H| for the
    oracle's H = <first k images>, and the words lie in distinct cosets gH."""
    p = _chain_alphabet(variant, rank)
    images = oracle.standard_images(family, variant, rank)
    subgroup = _closure(images[:k], len(images[0].flags))
    index = oracle.alternating_order(family, rank) // len(subgroup)
    checked = set()

    def check(rc, out, err):
        if rc != 0:
            return _fail_exit(rc, err)
        if out != f"index {index}\n":
            return f"{out.strip()!r}, want index {index}"
        text = reps.read_text()
        lines = text.splitlines()
        if len(lines) != index:
            return f"{len(lines)} representatives, want {index}"
        if text in checked:
            return None
        keys = {_coset_key(oracle.eval_word(images, parse_word(l, p)), subgroup)
                for l in lines}
        if len(keys) != index:
            return f"representatives cover {len(keys)} cosets, want {index}"
        checked.add(text)
    return check


def check_artifacts(family, variant, rank, table, dot, reps):
    """``enumerate --table --dot --reps`` over the trivial subgroup: every
    table entry is the oracle product of the generator and the coset's
    representative, and the DOT file has one node per coset."""
    p = _chain_alphabet(variant, rank)
    images = oracle.standard_images(family, variant, rank)
    index = oracle.alternating_order(family, rank)
    checked = set()

    def check(rc, out, err):
        if rc != 0:
            return _fail_exit(rc, err)
        if out != f"index {index}\n":
            return f"{out.strip()!r}, want index {index}"
        texts = (table.read_text(), dot.read_text(), reps.read_text())
        if texts in checked:
            return None
        rows = texts[0].splitlines()
        words = texts[2].splitlines()
        if rows[0] != "coset," + ",".join(p.generators) or len(rows) != index + 1:
            return f"table has {len(rows) - 1} rows, want {index}"
        if len(words) != index:
            return f"{len(words)} representatives, want {index}"
        elems = [oracle.eval_word(images, parse_word(w, p)) for w in words]
        for c, row in enumerate(rows[1:]):
            cells = [int(x) for x in row.split(",")]
            if cells[0] != c + 1 or len(cells) != p.rank + 1:
                return f"malformed table row {c + 1}"
            for g, d in enumerate(cells[1:]):
                if not 1 <= d <= index or images[g] * elems[c] != elems[d - 1]:
                    return f"table entry ({c + 1}, {p.generators[g]}) is wrong"
        dot_lines = texts[1].splitlines()
        nodes = sum(1 for l in dot_lines if "[label=" in l and "->" not in l)
        if dot_lines[0] != "digraph schreier {" or dot_lines[-1] != "}" or nodes != index:
            return f"DOT file has {nodes} nodes, want {index}"
        checked.add(texts)
    return check


def check_present(family, variant, rank):
    """The JSON round-trips; catalog variants also satisfy the oracle images."""
    images = None
    if variant in ("coxeter",) + VARIANTS:
        images = oracle.standard_images(family, variant, rank)
    checked = set()

    def check(rc, out, err):
        if rc != 0:
            return _fail_exit(rc, err)
        if out in checked:
            return None
        p = Presentation.from_json(out)
        if p.to_json() + "\n" != out:
            return "presentation JSON does not round-trip"
        if images is not None and (p.rank != len(images)
                                   or not oracle.verify_hom(p, images)):
            return "a relator fails under the oracle images"
        checked.add(out)
    return check


def check_verify(rc, out, err):
    if rc != 0:
        return _fail_exit(rc, err)
    lines = out.splitlines()
    if lines[-1] != "46/46 checks passed" or any(l.startswith("FAIL") for l in lines):
        return f"verify said {lines[-1]!r}"


def regular(rng, workdir):
    """Regular (trivial-subgroup) ``order`` requests, index 10^3 to 2*10^4."""
    cases = [(f, r, v) for f, r in (("A", 6), ("A", 7), ("D", 6), ("B", 5))
             for v in VARIANTS]
    # both sign conventions of the spinor cover; the odd count of request
    # kinds puts the median inside one kind's cluster of times
    cases += [("A", 6, "coxeter"), ("A", 5, "tilde-plus-edge"),
              ("D", 5, "tilde-plus-edge"), ("D", 5, "tilde"), ("D", 5, "tilde-prime")]
    reqs = [Request(("order", "--family", f, "--rank", str(r), "--variant", v),
                    check_order(expected_order(f, r, v)))
            for f, r, v in cases]
    for group, rank in (("a5-cover", 5), ("a6-cover", 6)):
        # the universal central extension: kernel C2 x C3 over A_rank+
        reqs.append(Request(("order", "--variant", group, "--max-cosets", "500000"),
                            check_order(6 * oracle.alternating_order("A", rank))))
    return reqs


def _random_word(rng, variant, rank):
    names = [f"{PREFIX[variant]}{i}" for i in range(1, rank)]
    tokens = []
    for _ in range(rng.randint(10, 40)):
        k = rng.choice((-2, -1, 1, 1, 2, 3))
        name = rng.choice(names)
        tokens.append(name if k == 1 else f"{name}^{k}")
    return " ".join(tokens)


def chain(rng, workdir):
    """Chain normal forms of random words, and coset representatives of
    every parabolic subgroup, over A/B/D ranks 4-5 in all three variants."""
    reqs = []
    for family in "ABD":
        for rank in (4, 5):
            for variant in VARIANTS:
                base = ("--family", family, "--rank", str(rank), "--variant", variant)
                for _ in range(3):
                    word = _random_word(rng, variant, rank)
                    reqs.append(Request(("nf",) + base + ("--word", word),
                                        check_nf(family, variant, rank, word)))
                for k in range(rank):
                    reps = workdir / f"reps-{family}{rank}-{variant}-{k}.txt"
                    reqs.append(Request(
                        ("enumerate",) + base + ("--subgroup-gens", str(k), "--reps", str(reps)),
                        check_cosets(family, variant, rank, k, reps), (reps,)))
    return reqs


# affine A~2 and the infinite dihedral group (label 0 = infinity)
INFINITE = {"affine-A2": [[1, 3, 3], [3, 1, 3], [3, 3, 1]], "dihedral-inf": [[1, 0], [0, 1]]}


def _malformed(rng, workdir):
    """Requests that must exit 2; the seed picks the bad text."""
    junk = "".join(rng.choice("xyzqw") for _ in range(rng.randint(1, 4)))
    bad_json = workdir / "malformed.json"
    bad_json.write_text('{"n": 3, "m": [[1, 3' + junk)
    bad_entry = workdir / "bad-diagonal.json"
    bad_entry.write_text(json.dumps({"n": 2, "m": [[rng.randint(2, 5), 3], [3, 1]]}))
    cases = [
        ("order", "--family", junk.upper() + "Q", "--rank", "3"),
        ("nf", "--family", "A", "--rank", "4", "--variant", "edge", "--word", f"r1 {junk}^2"),
        ("nf", "--family", "B", "--rank", "4", "--variant", "bourbaki", "--word", f"R1^{junk}"),
        ("order", "--family", "A", "--rank", "4", "--variant", "edge", "--max-cosets", junk),
        ("present", "--family", "D", "--rank", "2", "--variant", rng.choice(VARIANTS)),
        ("order", "--matrix", str(bad_json), "--variant", "coxeter"),
        ("order", "--matrix", str(bad_entry), "--variant", "coxeter"),
        ("order", "--matrix", str(workdir / f"{junk}-missing.json"), "--variant", "edge"),
        ("enumerate", "--family", "B", "--rank", "4", "--variant", "edge",
         "--subgroup-gens", str(rng.randint(4, 9))),
    ]
    return [Request(argv, check_exit(2)) for argv in cases]


def session(rng, workdir):
    """A mixed user session: verify, present, enumerate with artifacts,
    large-cap orders of small groups, capped infinite groups, bad input."""
    reqs = [Request(("verify",), check_verify)]
    for variant in CLI_VARIANTS:
        if variant.endswith("-cover"):
            reqs.append(Request(("present", "--variant", variant),
                                check_present(None, variant, None)))
            continue
        families = "A" if variant == "vv" else "ABD"
        for family in families:
            for rank in range(MIN_RANK[family], 7):
                reqs.append(Request(
                    ("present", "--family", family, "--rank", str(rank), "--variant", variant),
                    check_present(family, variant, rank)))
    for family, rank in (("A", 6), ("D", 5)):
        paths = tuple(workdir / f"{family}{rank}.{ext}" for ext in ("csv", "dot", "txt"))
        reqs.append(Request(
            ("enumerate", "--family", family, "--rank", str(rank), "--variant", "edge",
             "--table", str(paths[0]), "--dot", str(paths[1]), "--reps", str(paths[2])),
            check_artifacts(family, "edge", rank, *paths), paths))
    for family, rank, variant in (("A", 2, "edge"), ("B", 2, "carmichael"),
                                  ("A", 3, "bourbaki"), ("D", 3, "edge")):
        reqs.append(Request(
            ("order", "--family", family, "--rank", str(rank), "--variant", variant,
             "--max-cosets", "2000000"),
            check_order(expected_order(family, rank, variant))))
    for name, variant in (("affine-A2", "coxeter"), ("affine-A2", "edge"),
                          ("dihedral-inf", "bourbaki")):
        m = INFINITE[name]
        path = workdir / f"{name}.json"
        path.write_text(json.dumps({"n": len(m), "m": m}))
        reqs.append(Request(
            ("order", "--matrix", str(path), "--variant", variant, "--max-cosets", "100000"),
            check_exit(3, "cap exceeded at 100000 cosets\n")))
    return reqs + _malformed(rng, workdir)


WORKLOADS = {"regular": regular, "chain": chain, "session": session}


def build(name, seed, workdir):
    return WORKLOADS[name](random.Random(seed), workdir)
