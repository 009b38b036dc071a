import itertools
import json
import random

import pytest
from hypothesis import given, strategies as st

from altcox.coxeter import INFINITY, CoxeterMatrix
from altcox.presentations import edge_presentation
from altcox.words import (Word, Presentation, parse_word, render_word,
                          commutator, InputError, WordSyntaxError, MAX_WORD_LENGTH,
                          MAX_GENERATORS, MAX_LETTERS)

P3 = Presentation(("a", "b", "c"), ())

letters = st.lists(st.integers(min_value=-3, max_value=3).filter(bool),
                   max_size=30)


def test_identity_cases():
    assert Word().letters == ()
    assert Word(Word().letters) == Word()
    assert Word().inverse() == Word()


def test_cancellation():
    assert Word((1, -1)).letters == ()
    assert Word((1, 2, -2, 1)).letters == (1, 1)


def test_gen_and_powers():
    assert Word.gen(0).letters == (1,)
    assert Word.gen(1, -2).letters == (-2, -2)
    assert (Word.gen(0) ** 3).letters == (1, 1, 1)
    assert (Word((1, 2)) ** -1).letters == (-2, -1)


@given(letters)
def test_free_reduce_idempotent(ls):
    w = Word(tuple(ls))
    assert Word(w.letters) == w
    assert len(w) <= len(ls)


@given(letters)
def test_invert_involution(ls):
    w = Word(tuple(ls))
    assert w.inverse().inverse() == w
    assert (w * w.inverse()) == Word()


@given(letters, letters)
def test_product_and_inverse_of_reduced_words(ls, ms):
    # __mul__ cancels only at the seam and inverse skips the reduction,
    # so both must agree with reducing the letters from scratch
    a, b = Word(tuple(ls)), Word(tuple(ms))
    assert a * b == Word(a.letters + b.letters)
    assert a.inverse() == Word(tuple(-x for x in reversed(a.letters)))
    assert (a * b).letters == Word(tuple(ls) + tuple(ms)).letters


@given(st.one_of(letters, st.tuples(letters, letters).map(
    lambda t: t[0] + t[1] + [-x for x in reversed(t[0])])),
    st.integers(min_value=-4, max_value=4))
def test_power_matches_reducing_the_repeated_letters(ls, k):
    # ** skips the reduction unless the word's ends can cancel; the second
    # strategy gives words such as a b a^-1, which are not cyclically reduced
    w = Word(tuple(ls))
    repeated = w.letters * k if k >= 0 else w.inverse().letters * -k
    assert w ** k == Word(repeated)


def test_edge_relators_are_reduced():
    # path_word and ** wrap their letters unreduced: a relator that could
    # cancel would differ from its own reduction.  Sparse matrices give the
    # squared paths and commutators, dense ones the cycles
    rng = random.Random(11)
    for _ in range(300):
        n, density = rng.randint(1, 7), rng.random()
        m = [[1 if i == j else 2 for j in range(n)] for i in range(n)]
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < density:
                    m[i][j] = m[j][i] = rng.choice([3, 4, 5, 6, INFINITY])
        for w in edge_presentation(CoxeterMatrix(n, m))[0].relators:
            assert w == Word(w.letters)


@given(letters)
def test_render_parse_roundtrip(ls):
    w = Word(tuple(ls))
    assert parse_word(render_word(w, P3), P3) == w


def test_parse_word_syntax():
    assert parse_word("a b^-1", P3).letters == (1, -2)
    assert parse_word("a^3", P3).letters == (1, 1, 1)
    assert parse_word("1", P3) == Word()
    with pytest.raises(WordSyntaxError):
        parse_word("bogus", P3)
    with pytest.raises(WordSyntaxError):
        parse_word("a^x", P3)
    # the length bound counts letters before free reduction
    assert len(parse_word(f"a^{MAX_WORD_LENGTH - 1} b^-1", P3).letters) == MAX_WORD_LENGTH
    with pytest.raises(WordSyntaxError):
        parse_word(f"a^{MAX_WORD_LENGTH} a^-1", P3)


def test_commutator():
    w = commutator(Word.gen(0), Word.gen(1))
    assert w.letters == (1, 2, -1, -2)


def test_presentation_validation():
    with pytest.raises(ValueError):
        Presentation(("a", "a"), ()).validate()
    with pytest.raises(ValueError):
        Presentation(("a",), (Word((2,)),)).validate()


def test_presentation_build_central():
    p = Presentation.build(("x", "z"), [Word.gen(0) ** 3],
                           central=(("z", 2),))
    rel = {w.letters for w in p.relators}
    assert (2, 2) in rel                      # z^2
    assert (2, 1, -2, -1) in rel              # [z, x]
    p.validate()


def test_size_rule_reads_relators_lazily():
    # generators are counted before any relator is read, and relators only
    # up to the letter bound, so even an endless iterable ends in an error
    w = Word.gen(0) ** MAX_WORD_LENGTH
    with pytest.raises(InputError, match=f"^more than {MAX_LETTERS} relator letters$"):
        Presentation(("a",), itertools.repeat(w))
    names = [f"g{i}" for i in range(MAX_GENERATORS + 1)]
    with pytest.raises(InputError, match=f"^more than {MAX_GENERATORS} generators$"):
        Presentation(names, itertools.repeat(w))
    with pytest.raises(InputError, match=f"^more than {MAX_LETTERS} relator letters$"):
        Presentation.build(("a", "z"), itertools.repeat(w), central=(("z", 2),))


def test_presentation_json_roundtrip():
    p = Presentation.build(("x", "z"), [Word.gen(0) ** 3, Word((1, 2, 1))],
                           central=(("z", 2),))
    q = Presentation.from_json(p.to_json())
    assert q == p
    data = json.loads(p.to_json())
    assert set(data) == {"generators", "relators", "central"}
    assert data["central"] == [{"name": "z", "order": 2}]
