"""Free-group words over a named generator alphabet, and presentations.

A letter is a nonzero int: ``+(k+1)`` is generator ``k``, ``-(k+1)`` its
inverse.  Words are immutable; everything downstream (builders, the
enumerator, the oracle) works over these.

A word's text is whitespace-separated tokens ``name`` and ``name^k``, with
k an optional sign followed by ASCII digits (``parse_word``, ``render_word``).
``Presentation.to_json`` gives the bytes of ``json.dumps(data,
sort_keys=True, indent=2)``, laid out by hand for speed.
"""

from __future__ import annotations

import itertools
import json
import re


class InputError(ValueError):
    """Bad input; ``altcox.cli`` reports these as usage errors, not bugs."""


class WordSyntaxError(InputError):
    """Raised on malformed word text or unknown generator names."""


# generator names are identifiers, so that words round-trip through
# whitespace-separated text and names can be quoted in DOT labels
_NAME = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
# the exponent k of a token name^k
_EXPONENT = re.compile(r"[+-]?[0-9]+")

# longest word parse_word or ** builds: a short exponent expands to |k| letters
MAX_WORD_LENGTH = 1_000_000
# bounds on every Presentation, read or built.  The largest A/B/D variant at
# rank 400 has 638,396 letters (B carmichael); the 20x20 grid's edge
# presentation has 760 generators and 1,167,504 letters
MAX_GENERATORS = 10_000
MAX_LETTERS = 4_000_000


def _reduce_letters(letters):
    out = []
    for x in letters:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


class Record:
    """Base of the package's record types.  A subclass names its fields in
    ``__slots__``; ``__init__`` takes the public fields in slot order and
    sets them, and a subclass that checks, converts or derives a field
    writes its own, which sets them with object.__setattr__.  After that,
    assigning or deleting an attribute raises AttributeError.  Equality,
    hash, repr, copy and pickle read the public fields, so a derived field
    whose name starts with an underscore (an index map) is left out."""

    __slots__ = ()

    def __init_subclass__(cls):
        super().__init_subclass__()
        cls._fields = tuple(s for s in cls.__slots__ if not s.startswith("_"))

    def __init__(self, *values):
        for field, value in zip(self._fields, values, strict=True):
            object.__setattr__(self, field, value)

    def _values(self):
        return tuple([getattr(self, f) for f in self._fields])

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        fields = ", ".join(f"{f}={getattr(self, f)!r}" for f in self._fields)
        return f"{type(self).__name__}({fields})"

    def __reduce__(self):
        return type(self), self._values()


class Word(Record):
    """A freely reduced word; the empty word is the identity."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        object.__setattr__(self, "letters", _reduce_letters(letters))

    @classmethod
    def _reduced(cls, letters):
        """Wrap a tuple of letters known to be freely reduced."""
        w = object.__new__(cls)
        object.__setattr__(w, "letters", letters)
        return w

    @classmethod
    def gen(cls, index, power=1):
        """The word g^power for generator number ``index`` (0-based)."""
        letter = index + 1 if power >= 0 else -(index + 1)
        return cls._reduced((letter,) * abs(power))

    def __mul__(self, other):
        # both operands are reduced, so letters cancel only at the seam
        a, b = self.letters, other.letters
        k, n = 0, min(len(a), len(b))
        while k < n and a[-1 - k] == -b[k]:
            k += 1
        return Word._reduced(a[:len(a) - k] + b[k:])

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        a = self.letters
        if len(a) * k > MAX_WORD_LENGTH:
            raise InputError(f"word longer than {MAX_WORD_LENGTH} letters")
        if not a or a[-1] != -a[0]:  # a is reduced, and no seam can cancel
            return Word._reduced(a * k)
        return Word(a * k)

    def inverse(self):
        return Word._reduced(tuple(-x for x in reversed(self.letters)))

    def __len__(self):
        return len(self.letters)

    def __bool__(self):
        return bool(self.letters)

    def __iter__(self):
        return iter(self.letters)


def commutator(a: Word, b: Word) -> Word:
    return a * b * a.inverse() * b.inverse()


class Presentation(Record):
    """Generators, relators, and generators marked central.

    ``central`` entries are (name, finite order) pairs; the matching power
    and commutator relators are ordinary relators (use :meth:`build` to
    have them generated automatically).
    """

    # _engine: what the engine works out from the presentation, kept for
    # its later calls; only the engine reads or writes it
    __slots__ = ("generators", "relators", "central", "_index", "_engine")

    def __init__(self, generators, relators, central=()):
        # the size rule: generators before any relator is read, then each
        # relator's length and the running letter count as the relators
        # (any iterable) are read
        generators = tuple(generators)
        if len(generators) > MAX_GENERATORS:
            raise InputError(f"more than {MAX_GENERATORS} generators")
        kept, letters = [], 0
        for w in relators:
            if len(w.letters) > MAX_WORD_LENGTH:
                raise InputError(f"word longer than {MAX_WORD_LENGTH} letters")
            letters += len(w.letters)
            if letters > MAX_LETTERS:
                raise InputError(f"more than {MAX_LETTERS} relator letters")
            kept.append(w)
        object.__setattr__(self, "generators", generators)
        object.__setattr__(self, "relators", tuple(kept))
        object.__setattr__(self, "central", tuple(tuple(c) for c in central))
        object.__setattr__(self, "_index", {name: i for i, name in enumerate(generators)})
        object.__setattr__(self, "_engine", {})

    @classmethod
    def build(cls, generators, relators, central=()):
        """Construct, appending power/commutator relators for central gens;
        all relators are read lazily, under the size rule.  The builders
        pass names and letters of their own, so only from_json validates."""
        p0 = cls(generators, ())
        names = [name for name, _ in central]
        powers = (p0.gen(name) ** order for name, order in central)
        # [g, h] for each central g and each other h, skipping the h central
        # before g, whose [h, g] is already there
        commutators = (commutator(p0.gen(name), p0.gen(other))
                       for k, name in enumerate(names) for other in p0.generators
                       if other != name and other not in names[:k])
        return cls(p0.generators, itertools.chain(relators, powers, commutators),
                   central)

    @property
    def rank(self):
        return len(self.generators)

    def gen_index(self, name: str) -> int:
        try:
            return self._index[name]
        except KeyError:
            raise WordSyntaxError(f"unknown generator {name!r}") from None

    def gen(self, name: str) -> Word:
        return Word.gen(self.gen_index(name))

    def validate(self):
        n = len(self.generators)
        if len(set(self.generators)) != n:
            raise InputError("duplicate generator names")
        for name in self.generators:
            if not _NAME.fullmatch(name):
                raise InputError(f"generator name {name!r} is not an identifier")
        for w in self.relators:
            for x in w:
                if not 1 <= abs(x) <= n:
                    raise InputError(f"relator letter {x} out of range")
        relset = {w.letters for w in self.relators}
        for name, order in self.central:
            g = Word.gen(self.gen_index(name))
            if (g ** order).letters not in relset:
                raise InputError(f"missing power relator for central {name}")
            for other in self.generators:
                if other == name:
                    continue
                h = Word.gen(self.gen_index(other))
                if (commutator(g, h).letters not in relset
                        and commutator(h, g).letters not in relset):
                    raise InputError(f"missing commutator [{name},{other}]")

    def to_json(self) -> str:
        """``json.dumps`` of {"central": [{"name", "order"}...], "generators",
        "relators"} with ``sort_keys=True, indent=2``, laid out by hand for
        speed: ``indent`` selects json's pure-Python encoder, so only each
        name and relator goes through json's C string encoder."""
        central = (f'{{\n      "name": {_quote(n)},\n      "order": {json.dumps(k)}\n    }}'
                   for n, k in self.central)
        generators = map(_quote, self.generators)
        relators = (_quote(render_word(w, self)) for w in self.relators)
        return (f'{{\n  "central": {_json_list(central)},\n'
                f'  "generators": {_json_list(generators)},\n'
                f'  "relators": {_json_list(relators)}\n}}')

    @classmethod
    def from_json(cls, text: str) -> "Presentation":
        data = load_json(text)
        if not (isinstance(data, dict) and _strings(data.get("generators"))
                and _strings(data.get("relators"))):
            raise InputError('presentation JSON needs "generators" and "relators" '
                             'lists of strings')
        central = data.get("central", [])
        if not (isinstance(central, list) and all(
                isinstance(c, dict) and isinstance(c.get("name"), str)
                and type(c.get("order")) is int for c in central)):
            raise InputError('presentation JSON "central" must be a list of '
                             '{"name": string, "order": integer}')
        generators = tuple(data["generators"])
        p0 = cls(generators, ())
        relators = (parse_word(t, p0) for t in data["relators"])
        central = tuple((c["name"], c["order"]) for c in central)
        p = cls(generators, relators, central)
        p.validate()
        return p


def load_json(text):
    try:  # json.loads raises ValueError also for an int of over 4300 digits
        return json.loads(text)
    except ValueError as e:
        raise InputError(str(e)) from None


# the JSON text of a string, as json.dumps gives it
_quote = json.encoder.encode_basestring_ascii


def _json_list(items):
    """A list of JSON texts as the value of a top-level key, at indent=2."""
    body = ",\n    ".join(items)
    return f"[\n    {body}\n  ]" if body else "[]"


def _strings(x):
    return isinstance(x, list) and all(isinstance(s, str) for s in x)


def parse_word(text: str, p: Presentation) -> Word:
    """Parse whitespace-separated tokens ``name`` and ``name^k``, where k is
    an optional sign followed by ASCII digits.

    The token ``1`` denotes the identity.  A word of more than
    MAX_WORD_LENGTH letters raises WordSyntaxError before it is built.
    """
    letters = []
    for token in text.split():
        if token == "1":
            continue
        name, sep, exp = token.partition("^")
        if sep:
            try:  # int() alone would also read "1_0" and non-ASCII digits
                if not _EXPONENT.fullmatch(exp):
                    raise ValueError
                k = int(exp)  # raises past int's digit limit as well
            except ValueError:
                raise WordSyntaxError(f"malformed exponent in {token!r}") from None
        else:
            k = 1
        idx = p.gen_index(name)
        if len(letters) + abs(k) > MAX_WORD_LENGTH:
            raise WordSyntaxError(f"word longer than {MAX_WORD_LENGTH} letters")
        letters += (idx + 1 if k >= 0 else -idx - 1,) * abs(k)
    return Word(tuple(letters))


def render_word(w: Word, p: Presentation) -> str:
    """Inverse of parse_word on reduced words; runs re-compress to ^k."""
    letters = w.letters
    if not letters:
        return "1"
    names, parts = p.generators, []
    run, k = letters[0], 0
    for x in letters + (None,):  # the sentinel ends the last run
        if x == run:
            k += 1
        else:
            if run < 0:
                parts.append(f"{names[-run - 1]}^-{k}")
            elif k == 1:
                parts.append(names[run - 1])
            else:
                parts.append(f"{names[run - 1]}^{k}")
            run, k = x, 1
    return " ".join(parts)
