"""Subgroup words, quotients and Schreier words that the tests enumerate
over or read off tables; no command needs them."""

from altcox.presentations import chain_presentation
from altcox.words import Presentation, Word


def chain_subgroup_words(family: str, variant: str, n: int):
    """Words generating the rank-(n-1) subgroup inside the rank-n chain
    presentation.

    Generically the first n-2 generators.  At D rank 3 those generate a
    C3, not the order-2 rank-2 group, so the generator of the rank-2
    group is spelled out per variant instead.
    """
    family = family.upper()
    chain_presentation(family, variant, n)  # validates the triple
    if family == "D" and n == 3:
        g = lambda k, p=1: Word.gen(k - 1, p)
        if variant == "carmichael":
            return (g(1) * g(2, 2) * g(1),)
        if variant == "bourbaki":
            return (g(1),)
        return (g(1) * g(2, 2),)
    return tuple(Word.gen(k) for k in range(n - 2))


def quotient_by_generators(p: Presentation, names) -> Presentation:
    """Add relators killing the named generators."""
    extra = tuple(p.gen(name) for name in names)
    return Presentation(p.generators, p.relators + extra, p.central)


def schreier_words(t):
    """Representative words along the arrival tree of a CosetTable's
    standardizing traversal: coset c's word is its arrival generator times
    its parent's word.  Index 0 is unused.  A chain's level tables read
    this way are the oracle for Chain.rep_set."""
    letters = [(), ()]
    for parent, g in zip(t.arrival[4::2], t.arrival[5::2]):
        letters.append((g + 1,) + letters[parent])
    # arrival letters are all positive, so no product cancels
    return tuple(map(Word._reduced, letters))
