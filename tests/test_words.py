import itertools
import json
import random
from unittest import mock

import pytest
from hypothesis import example, given, strategies as st

from altcox import words
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
    # an exponent is an optional sign and ASCII digits, though int() also
    # reads "1_0" as 10 and the Arabic-Indic digit three as 3
    assert parse_word("a^+2", P3).letters == (1, 1)
    for text in ("a^1_0", "a^\u0663"):
        with pytest.raises(WordSyntaxError, match="^malformed exponent in "):
            parse_word(text, P3)
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


# References for the differential tests below: the text layer written the
# plain way, with groupby, a Word per token and json.dumps of the whole
# document, and with the exponent grammar checked character by character

def reference_render(w, p):
    if not w:
        return "1"
    parts = []
    for x, run in itertools.groupby(w.letters):
        name, k = p.generators[abs(x) - 1], len(list(run))
        k = k if x > 0 else -k
        parts.append(name if k == 1 else f"{name}^{k}")
    return " ".join(parts)


def reference_parse(text, p):
    letters = []
    for token in text.split():
        if token == "1":
            continue
        name, sep, exp = token.partition("^")
        if sep:
            digits = exp[1:] if exp[:1] in ("+", "-") else exp
            try:
                if not digits or any(c not in "0123456789" for c in digits):
                    raise ValueError
                k = int(exp)
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in {token!r}") from None
        else:
            k = 1
        idx = p.gen_index(name)
        if len(letters) + abs(k) > words.MAX_WORD_LENGTH:
            raise WordSyntaxError(f"word longer than {words.MAX_WORD_LENGTH} letters")
        letters.extend(Word.gen(idx, k).letters)
    return Word(tuple(letters))


def reference_json(p):
    data = {
        "central": [{"name": n, "order": k} for n, k in p.central],
        "generators": list(p.generators),
        "relators": [reference_render(w, p) for w in p.relators],
    }
    return json.dumps(data, sort_keys=True, indent=2)


def outcome(f, *args):
    """f's value, or the type and message of what it raised."""
    try:
        return f(*args)
    except Exception as e:
        return type(e), str(e)


def runs_over(n):
    """Words over n generators, with runs of up to four equal letters."""
    return st.lists(st.tuples(st.integers(-n, n).filter(bool), st.integers(1, 4)),
                    max_size=8).map(lambda runs: Word(tuple(
                        x for x, k in runs for _ in range(k))))


# names that JSON must escape (a quote, a backslash, control and non-ASCII
# characters) as well as any other text
NAMES = st.text(st.one_of(st.sampled_from('a"\\\n\x00\u00e9\u2603'), st.characters()),
                min_size=1, max_size=4)


@st.composite
def raw_presentations(draw):
    """Presentations through the unvalidating constructor."""
    names = draw(st.lists(NAMES, unique=True, max_size=4))
    relators = draw(st.lists(runs_over(len(names)), max_size=4)) if names else []
    central = draw(st.lists(st.tuples(NAMES, st.integers()), max_size=3))
    return Presentation(names, relators, central)


@given(raw_presentations())
@example(Presentation((), ()))
@example(Presentation(("a",), ()))
@example(Presentation(('"', "\\"), (Word((1, 1, -2)),), (("\\", 2), ("\u00e9", -3))))
def test_to_json_is_json_dumps_with_indent(p):
    assert p.to_json() == reference_json(p)


@given(runs_over(3))
def test_render_word_matches_groupby(w):
    assert render_word(w, P3) == reference_render(w, P3)


# tokens over P3 and beyond it, with exponents that int() reads and the
# grammar refuses, and with exponents past the word length bound (lowered to
# 12 in the test below) up to some that no tuple can hold
TOKENS = st.tuples(
    st.sampled_from(["a", "b", "c", "d", "", "1", "a^"]),
    st.sampled_from(["", "", "^2", "^-1", "^+3", "^0", "^-0", "^007", "^12", "^-13",
                     "^", "^^2", "^x", "^--1", "^+-1", "^2^3", "^1_0", "^\u0663",
                     "^99999999999999999999", "^-123456789012345678901234"]),
).map("".join)


@given(st.one_of(st.lists(TOKENS, max_size=6).map(" ".join),
                 st.text("abcd1^+-_0\u0663 \t", max_size=12)))
def test_parse_word_matches_reference(text):
    with mock.patch.object(words, "MAX_WORD_LENGTH", 12):
        assert outcome(parse_word, text, P3) == outcome(reference_parse, text, P3)
