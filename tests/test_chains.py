import functools
import random
from collections import Counter

import pytest

from altcox import engine, oracle
from altcox.chains import Chain, ChainError
from altcox.cli import EXIT_OK, EXIT_USAGE, main
from altcox.presentations import CHAIN_BASE, chain_presentation, BuildError
from altcox.words import Presentation, Word, parse_word, render_word

from subgroups import chain_subgroup_words, schreier_words


def letters(rep_set):
    return [w.letters for w in rep_set]


def product(factors):
    return Word(tuple(x for f in factors for x in f))


@functools.lru_cache(maxsize=None)
def level_table(family, variant, i):
    """The level-i table: the rank-i chain presentation over its first i-2
    generators, or over none at the base.  Its Schreier words are the
    oracle for level i's representatives, which Chain reads off the top
    table instead."""
    sub = i - 2 if i > CHAIN_BASE[family] else 0
    return engine.enumerate(chain_presentation(family, variant, i),
                            tuple(map(Word.gen, range(sub))))


def displayed_reps(variant, i):
    """The paper's displayed E_i lists for the three type-A variants, at
    level i >= 3, in the generators' 1-based names."""
    g = lambda k, p=1: Word.gen(k - 1, p)
    if variant == "carmichael":
        # 1, a_{i-1}, a_{i-1}^2, a_{i-2} a_{i-1}^2, ..., a_1 a_{i-1}^2
        return [Word(), g(i - 1), g(i - 1, 2)] \
            + [g(k) * g(i - 1, 2) for k in range(i - 2, 0, -1)]
    if variant == "bourbaki":
        # 1, R_{i-1}, R_{i-2} R_{i-1}, ..., R_1...R_{i-1}, R_1^2 R_2...R_{i-1}
        run = lambda k: product(g(j) for j in range(k, i))
        return [Word()] + [run(k) for k in range(i - 1, 0, -1)] + [g(1) * run(1)]
    # edge: alternating-index runs r_k r_{k+2} ... ending at r_{i-1} or r_{i-1}^2
    run = lambda k, last: product(g(j) for j in range(k, i - 1, 2)) * g(i - 1, last)
    return [Word()] + [run(k, 1) for k in range(i - 1, 0, -2)] \
        + [g(i - 1, 2)] + [run(k, 2) for k in range(i - 2, 0, -2)]


@pytest.fixture
def indices(monkeypatch):
    """The index of each table engine.enumerate builds in the test."""
    out, enumerate_ = [], engine.enumerate

    def recording_enumerate(*args):
        t = enumerate_(*args)
        out.append(t.index)
        return t

    monkeypatch.setattr(engine, "enumerate", recording_enumerate)
    return out


def test_spec_validation():
    with pytest.raises(BuildError):
        Chain("E", "edge", 4)
    with pytest.raises(BuildError):
        Chain("D", "edge", 2)
    with pytest.raises(BuildError):
        Chain("A", "nosuch", 4)
    c = Chain("a", "edge", 4)
    assert c.family == "A" and c.base == 2
    assert list(c.levels()) == [4, 3, 2]



@pytest.mark.parametrize("family", ["A", "B", "D"])
@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_lower_ranks_restrict_the_top_presentation(family, variant):
    """The rank-30 presentation cut down to its first i-1 generators and
    the relators over them, in order, is the rank-i chain presentation, so
    a level table's Schreier words, the oracle for rep_set(i), are words
    in the same generators as the chain's."""
    top = chain_presentation(family, variant, 30)
    for i in range(CHAIN_BASE[family], 31):
        relators = [w for w in top.relators if max(map(abs, w.letters)) < i]
        assert Presentation(top.generators[:i - 1], relators) \
            == chain_presentation(family, variant, i), i


def test_each_presentation_encoded_once(monkeypatch):
    """A chain enumerates one table, over its one presentation: through a
    decompose, each relator is encoded once, and so are the word and the
    table's subgroup generators.  No representative is encoded, not even a
    factor picked, whose inverse's columns are read off its letters; a
    second decompose encodes its word alone, and a later index over the
    presentation encodes nothing."""
    encoded, presentations, subgroups = [], {}, []
    columns, enumerate_ = engine._columns, engine.enumerate

    def counting_columns(w):
        encoded.append(id(w))
        return columns(w)

    def recording_enumerate(p, sub, cap):
        presentations.setdefault(id(p), p)
        subgroups.extend(sub)  # kept alive, so that no id is reused
        return enumerate_(p, sub, cap)

    monkeypatch.setattr(engine, "_columns", counting_columns)
    monkeypatch.setattr(engine, "enumerate", recording_enumerate)
    c = Chain("B", "carmichael", 5)
    word = Word((1, 2, -3, 4, 4, 2, 1))
    c.decompose(word)
    assert list(presentations.values()) == [c.presentation] and len(subgroups) == 3
    assert Counter(encoded) == Counter([id(w) for w in c.presentation.relators]
                                       + [id(word)] + list(map(id, subgroups)))
    encoded.clear()
    assert sum(len(c.rep_set(i)) for i in c.levels()) == 10 + 8 + 6 + 4
    word = Word((-4, 3, 3))
    c.decompose(word)
    assert encoded == [id(word)]
    encoded.clear()
    assert engine.index(c.presentation) == 1920
    assert encoded == []


@pytest.mark.parametrize("family, n", [("A", 8), ("B", 7), ("D", 7),
                                       ("A", 30), ("B", 30), ("D", 30),
                                       ("A", 40), ("B", 40), ("D", 40)])
@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_nf_at_high_rank(indices, capsys, family, n, variant):
    """nf at the default cap, past A8, B7 and D7, where the rank-n group's
    regular table would exceed it: the one table behind it is the top one,
    of index n+1 (A) or 2n (B, D), and the factors multiply back to the
    word in the oracle's signed permutations."""
    p = chain_presentation(family, variant, n)
    rng = random.Random(n)
    w = Word(tuple(rng.choice((1, -1)) * rng.randint(1, p.rank) for _ in range(20)))
    assert main(["nf", "--family", family, "--variant", variant, "--rank", str(n),
                 "--word", render_word(w, p)]) == EXIT_OK
    factors = capsys.readouterr().out.rstrip("\n").split(" | ")
    assert len(factors) == n - CHAIN_BASE[family] + 1
    images = oracle.standard_images(family, variant, n)
    assert oracle.eval_word(images, product(parse_word(f, p) for f in factors)) \
        == oracle.eval_word(images, w)
    assert indices == [n + 1 if family == "A" else 2 * n]


@pytest.mark.parametrize("family", ["A", "B", "D"])
@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_rep_sets_are_level_table_schreier_words(family, variant):
    """Every orbit traversal numbers its level as the level table's
    standardization does: rep_set(i) is the level table's Schreier words,
    in order, at every level of the rank-30 chain."""
    c = Chain(family, variant, 30)
    for i in c.levels():
        assert c.rep_set(i) == schreier_words(level_table(family, variant, i))[1:], i


@pytest.mark.parametrize("family", ["A", "B", "D"])
@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_sift_cosets_separate_each_levels_reps(family, variant):
    """decompose relies, unchecked, on each level's sift cosets existing and
    its representatives sending them to distinct tuples, which make up the
    orbit the chain traverses; checked here with the level tables'
    Schreier words for every top rank up to 30."""
    for n in range(CHAIN_BASE[family], 31):
        c = Chain(family, variant, n)
        t = c._table()
        for i, (cosets, number, _) in zip(c.levels(), c._sift()):
            reps = schreier_words(level_table(family, variant, i))[1:]
            images = {tuple(t.trace(x, u) for x in cosets) for u in reps}
            assert cosets and len(images) == len(reps), (n, i)
            assert images == number.keys(), (n, i)


def test_rep_set_level_bounds():
    c = Chain("A", "edge", 4)
    with pytest.raises(ChainError):
        c.rep_set(1)
    with pytest.raises(ChainError):
        c.rep_set(5)


def test_a_carmichael_rep_words():
    c = Chain("A", "carmichael", 4)
    # 1, a3, a3^2, a2 a3^2, a1 a3^2
    assert letters(c.rep_set(4)) == [(), (3,), (3, 3), (2, 3, 3), (1, 3, 3)]
    assert letters(c.rep_set(3)) == [(), (2,), (2, 2), (1, 2, 2)]


def test_a_bourbaki_rep_words():
    c = Chain("A", "bourbaki", 4)
    # 1, R3, R2 R3, R1 R2 R3, R1^2 R2 R3
    assert letters(c.rep_set(4)) == [(), (3,), (2, 3), (1, 2, 3), (1, 1, 2, 3)]


def test_a_edge_rep_words_both_parities():
    c = Chain("A", "edge", 5)
    # even level, in the sift's order: 1, r3, r3^2, r1 r3, r2 r3^2
    assert letters(c.rep_set(4)) == [(), (3,), (3, 3), (1, 3), (2, 3, 3)]
    # odd level: 1, r4, r4^2, r2 r4, r3 r4^2, r1 r3 r4^2
    assert letters(c.rep_set(5)) == \
        [(), (4,), (4, 4), (2, 4), (3, 4, 4), (1, 3, 4, 4)]


@pytest.mark.parametrize("variant", ["carmichael", "bourbaki", "edge"])
def test_a_rep_sets_are_the_displayed_lists(variant):
    # at every A level above the base the sift gives the paper's displayed
    # E_i as a set; carmichael and bourbaki in the same order, edge not
    c = Chain("A", variant, 30)
    for i in range(3, 31):
        displayed = displayed_reps(variant, i)
        assert set(c.rep_set(i)) == set(displayed), i
        if variant != "edge":
            assert c.rep_set(i) == tuple(displayed), i


def test_rep_set_sizes():
    for fam, n, sizes in (("A", 5, {5: 6, 4: 5, 3: 4, 2: 3}),
                          ("B", 4, {4: 8, 3: 6, 2: 4}),
                          ("D", 5, {5: 10, 4: 8, 3: 12})):
        for variant in ("carmichael", "bourbaki", "edge"):
            c = Chain(fam, variant, n)
            for i, size in sizes.items():
                assert len(c.rep_set(i)) == size, (fam, variant, i)


def test_reps_hit_distinct_cosets():
    # each level's reps are a transversal of its table, and send its sift
    # cosets of the top table to distinct tuples
    for fam, variant, n in (("A", "edge", 5), ("B", "carmichael", 4),
                            ("D", "bourbaki", 4)):
        c = Chain(fam, variant, n)
        top = c._table()
        for i, (cosets, _, _) in zip(c.levels(), c._sift()):
            t, reps = level_table(fam, variant, i), c.rep_set(i)
            assert sorted(t.trace(1, u) for u in reps) == list(range(1, t.index + 1))
            assert len({tuple(top.trace(x, u) for x in cosets) for u in reps}) \
                == len(reps)


def test_base_blocks_are_whole_base_groups():
    assert len(Chain("A", "edge", 3).rep_set(2)) == 3
    assert len(Chain("B", "bourbaki", 3).rep_set(2)) == 4
    assert len(Chain("D", "carmichael", 4).rep_set(3)) == 12


def test_chain_subgroup_words_generic():
    assert [w.letters for w in chain_subgroup_words("A", "edge", 5)] == \
        [(1,), (2,), (3,)]
    p = chain_presentation("B", "bourbaki", 4)
    t = engine.enumerate(p, chain_subgroup_words("B", "bourbaki", 4))
    assert t.index == 8


def test_chain_subgroup_words_d_rank3():
    # at rank 3 the first n-2 generators give a C3 of index 4; the
    # spelled-out words generate the order-2 rank-2 group of index 6
    p = chain_presentation("D", "edge", 3)
    assert engine.enumerate(p, (Word.gen(0),)).index == 4
    for variant in ("carmichael", "bourbaki", "edge"):
        p = chain_presentation("D", variant, 3)
        ws = chain_subgroup_words("D", variant, 3)
        assert engine.enumerate(p, ws).index == 6


def test_decompose_roundtrip_exhaustive():
    c = Chain("A", "edge", 4)
    reg = engine.enumerate(c.presentation, ())
    assert reg.index == 60
    seen = set()
    for d in c.enumerate_elements():
        w = product(d)
        seen.add(reg.trace(1, w))
        again = c.decompose(w)
        assert again == d
    assert len(seen) == 60


def test_decompose_scrambled_words():
    for fam, variant, n in (("B", "edge", 3), ("D", "carmichael", 4),
                            ("A", "bourbaki", 4)):
        c = Chain(fam, variant, n)
        reg = engine.enumerate(c.presentation, ())
        words = [Word((1, 2, 1)), Word((2, 1, 2, 2)), Word((-1, 2, -2, 1, 1)),
                 Word(), Word.gen(0) ** 3]
        for w in words:
            d = c.decompose(w)
            assert len(d) == len(list(c.levels()))
            for i, u in zip(c.levels(), d):
                assert u in c.rep_set(i)
            assert engine.words_equal(reg, product(d), w)


def test_a_sift_cut_short_keeps_no_level(monkeypatch):
    """A sift that raises at its second level keeps none, so the next
    decompose sifts again and returns every factor."""
    c = Chain("B", "edge", 5)
    c._table()
    levels, subgroup_rank = [], Chain._subgroup_rank

    def failing(self, i):
        levels.append(i)
        if len(levels) == 2:
            raise MemoryError
        return subgroup_rank(self, i)

    monkeypatch.setattr(Chain, "_subgroup_rank", failing)
    with pytest.raises(MemoryError):
        c.decompose(Word((1, 2)))
    assert levels == [5, 4] and c._sifts == []
    w = Word((1, -2, 3, 4, 4))
    d = c.decompose(w)
    assert len(d) == len(c.levels()) == 4
    assert engine.words_equal(engine.enumerate(c.presentation, ()), product(d), w)


def test_enumerate_elements_counts():
    for fam, variant, n, order in (("A", "carmichael", 4, 60),
                                   ("B", "edge", 3, 24),
                                   ("D", "bourbaki", 4, 96),
                                   ("D", "edge", 3, 12)):
        assert len(Chain(fam, variant, n).enumerate_elements()) == order


def test_enumerate_elements_scale_cap(indices, capsys):
    # A8+ has 181,440 normal forms, past SCALE_CAP; the base block, read
    # off the 9-coset top table, is the only one counted before the refusal
    argv = ["nf", "--family", "A", "--rank", "8", "--variant", "edge", "--enumerate"]
    refused = ("", "error: 181440 normal forms exceed scale cap 100000\n")
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == refused
    assert indices == [9]
    # a refused request keeps nothing, so the same one enumerates again;
    # after an nf over the chain exits 0, it is refused from the memo
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == refused
    assert indices == [9, 9]
    assert main(argv[:-1] + ["--word", "r1 r7"]) == EXIT_OK
    assert indices == [9, 9, 9]
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert capsys.readouterr() == refused
    assert indices == [9, 9, 9]


def test_module_level_wrappers():
    assert len(Chain("A", "carmichael", 3).rep_set(3)) == 4
    c = Chain("A", "carmichael", 3)
    d = c.decompose(Word((1, 2)))
    reg = engine.enumerate(c.presentation, ())
    assert engine.words_equal(reg, product(d), Word((1, 2)))
