import pytest
from hypothesis import given, settings, strategies as st

from altcox import oracle
from altcox.oracle import Permutation, WreathElement, OracleError
from altcox.words import Presentation, Word
from altcox.presentations import (chain_presentation, coxeter_presentation,
                                  spinor_presentation)
from altcox.cli import _catalog_presentation
from altcox.coxeter import standard_matrix


def sign(p: Permutation) -> int:
    """The sign of p: -1 to the number of its even-length cycles."""
    seen = [False] * len(p.images)
    result = 1
    for i in range(len(p.images)):
        if seen[i]:
            continue
        j, length = i, 0
        while not seen[j]:
            seen[j] = True
            j = p.images[j] - 1
            length += 1
        if length % 2 == 0:
            result = -result
    return result


def epsilon(e) -> int:
    """Sign of the underlying permutation (of a Permutation or the
    permutation part of a WreathElement)."""
    if isinstance(e, WreathElement):
        return sign(e.perm)
    return sign(e)


def epsilon_c2n(e: WreathElement) -> int:
    return -1 if sum(e.flags) % 2 else 1


def epsilon_0(e: WreathElement) -> int:
    return sign(e.perm)


def subgroup_membership_characters(e: WreathElement, family: str) -> bool:
    """Defining character condition of B+ / ambient D / D+."""
    if family == "B+":
        return epsilon_c2n(e) * epsilon_0(e) == 1
    if family == "D":
        return epsilon_c2n(e) == 1
    if family == "D+":
        return epsilon_c2n(e) == 1 and epsilon_0(e) == 1
    raise OracleError(f"unknown family {family!r}")


def test_cycle_composition_convention():
    # right factor acts first: (1,2)(2,3) = (1,2,3)
    c12 = Permutation.cycle(3, 1, 2)
    c23 = Permutation.cycle(3, 2, 3)
    assert c12 * c23 == Permutation.cycle(3, 1, 2, 3)


def test_permutation_basics():
    p = Permutation.cycle(4, 1, 2, 3)
    assert sign(p) == 1
    assert sign(Permutation.cycle(4, 1, 2)) == -1
    assert (p * p.inverse()).is_identity()
    with pytest.raises(OracleError):
        Permutation((1, 1, 3))


perms = st.permutations(range(1, 5)).map(lambda x: Permutation(tuple(x)))
flags = st.lists(st.integers(0, 1), min_size=4, max_size=4).map(tuple)
wreaths = st.builds(WreathElement, flags, perms)


@given(wreaths, wreaths, wreaths)
def test_wreath_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(wreaths)
def test_wreath_inverse(e):
    assert (e * e.inverse()).is_identity()


@given(wreaths, wreaths)
def test_characters_multiplicative(a, b):
    for chi in (epsilon, epsilon_c2n, epsilon_0):
        assert chi(a * b) == chi(a) * chi(b)


def test_wreath_convention_pinned_by_b_carmichael():
    # a_1 image (gamma^(1), (1,2)) must have order 4, not 2
    a1 = oracle.standard_images("B", "carmichael", 3)[0]
    e = a1
    order = 1
    while not e.is_identity():
        e = e * a1
        order += 1
    assert order == 4


def test_membership_characters():
    n = 3
    ident = WreathElement.identity(n)
    assert all(subgroup_membership_characters(ident, f)
               for f in ("B+", "D", "D+"))
    e = WreathElement((1, 0, 0), Permutation.cycle(n, 1, 2))
    assert subgroup_membership_characters(e, "B+")
    assert not subgroup_membership_characters(e, "D")
    e2 = WreathElement.gamma(n, 1, 2)
    assert subgroup_membership_characters(e2, "D")
    assert subgroup_membership_characters(e2, "D+")


def test_eval_word():
    images = oracle.standard_images("A", "coxeter", 2)
    assert oracle.eval_word(images, Word()).is_identity()
    w = Word((1, 2))  # s0 s1, rightmost acts first
    assert oracle.eval_word(images, w).perm == Permutation.cycle(3, 1, 2, 3)
    with pytest.raises(OracleError):
        oracle.eval_word(images, Word((5,)))


def test_eval_carmichael_a2():
    # a_2 = s_2 a_1 s_2 = s_2 s_0 s_1 s_2 evaluates to (1,2,4)
    images = oracle.standard_images("A", "coxeter", 3)
    a2 = Word((3, 1, 2, 3))
    assert oracle.eval_word(images, a2).perm == Permutation.cycle(4, 1, 2, 4)


def test_verify_hom_rejects_bad_images():
    p = chain_presentation("A", "carmichael", 4)
    good = oracle.standard_images("A", "carmichael", 4)
    assert oracle.verify_hom(p, good)
    bad = [WreathElement.from_perm(Permutation.cycle(5, 1, 2))] + good[1:]
    assert not oracle.verify_hom(p, bad)


def test_generated_order():
    c3 = WreathElement.from_perm(Permutation.cycle(3, 1, 2, 3))
    assert oracle.generated_order([c3]) == 3
    assert oracle.generated_order([]) == 1
    b3 = oracle.standard_images("B", "bourbaki", 3)
    assert oracle.generated_order(b3) == 24
    with pytest.raises(OracleError):
        oracle.generated_order(b3, cap=10)


def reference_order(generators):
    """generated_order's BFS over the WreathElement products themselves."""
    identity = generators[0] * generators[0].inverse()
    seen = {identity}
    frontier = [identity]
    while frontier:
        new = []
        for e in frontier:
            for g in generators:
                x = e * g
                if x not in seen:
                    seen.add(x)
                    new.append(x)
        frontier = new
    return len(seen)


def test_generated_order_matches_wreath_bfs():
    for family, ranks in (("A", range(2, 6)), ("B", range(2, 5)), ("D", range(3, 6))):
        for n in ranks:
            for variant in ("coxeter", "carmichael", "bourbaki", "edge"):
                images = oracle.standard_images(family, variant, n)
                for k in range(1, len(images) + 1):
                    assert (oracle.generated_order(images[:k])
                            == reference_order(images[:k])), (family, n, variant, k)


@given(wreaths, wreaths)
def test_signed_encoding_is_faithful_homomorphism(a, b):
    pa, pb = oracle._points(a), oracle._points(b)
    assert oracle._points(a * b) == pb.translate(pa)
    assert (pa == pb) == (a == b)


def element_order(e):
    power, order = e, 1
    while not power.is_identity():
        power, order = power * e, order + 1
    return order


@st.composite
def images_and_relators(draw):
    """One to four signed permutations of one degree from 1 to 6, or now
    and then one of another degree, and up to five words in letters of
    both signs, some of a generator past the images: random words, most of
    which are not relators, and powers of them to their order under the
    images, which are."""
    n = draw(st.integers(1, 6))

    def element(degree):
        return WreathElement(draw(st.lists(st.integers(0, 1), min_size=degree,
                                           max_size=degree)),
                             Permutation(draw(st.permutations(range(1, degree + 1)))))

    images = [element(n) for _ in range(draw(st.integers(1, 4)))]
    if draw(st.integers(0, 9)) == 0:
        images[draw(st.integers(0, len(images) - 1))] = element(n + 1)
    reach = len(images) + draw(st.integers(0, 1))
    letter = st.integers(1, reach).flatmap(lambda g: st.sampled_from((g, -g)))
    words = []
    for _ in range(draw(st.integers(0, 5))):
        w = Word(draw(st.lists(letter, max_size=10)))
        if draw(st.booleans()) and max(map(abs, w), default=0) <= len(images):
            try:
                w = w ** element_order(oracle.eval_word(images, w))
            except OracleError:  # the degrees differ
                pass
        words.append(w)
    return images, words


def outcome(check):
    try:
        return check()
    except OracleError as e:
        return f"OracleError: {e}"


@settings(max_examples=300)
@given(images_and_relators())
def test_verify_hom_byte_path_matches_eval_word(case):
    """verify_hom's byte path answers as the relators evaluated by
    eval_word do, and raises the same error: for a letter with no image,
    and for images of different degrees."""
    images, words = case
    names = tuple(f"g{k}" for k in range(len(images) + 1))
    for relators in [*([w] for w in words), words]:
        p = Presentation(names, relators)
        want = outcome(lambda: all(oracle.eval_word(images, w).is_identity()
                                   for w in relators))
        for given_images in (images, tuple(images)):
            assert outcome(lambda: oracle.verify_hom(p, given_images)) == want


def test_byte_encoding_degrees():
    """Degree 128 is the largest the byte encoding holds: generated_order
    refuses a larger one, and verify_hom evaluates it through eval_word."""
    swap = {n: WreathElement.from_perm(Permutation.cycle(n, 1, n)) for n in (128, 129)}
    assert oracle.generated_order([swap[128]]) == 2
    with pytest.raises(OracleError, match="^degree 129 above 128"):
        oracle.generated_order([swap[129]])
    p = Presentation(("a",), [Word((1, 1)), Word((1,))])
    for n, g in swap.items():
        assert oracle.verify_hom(Presentation(("a",), [Word((1, 1))]), [g])
        assert not oracle.verify_hom(p, [g])


@st.composite
def wreath_pairs(draw):
    """Two WreathElements of one degree from 1 to 6, built by the checking
    constructors."""
    n = draw(st.integers(1, 6))
    def element():
        perm = Permutation(draw(st.permutations(range(1, n + 1))))
        return WreathElement(draw(st.lists(st.integers(0, 1), min_size=n,
                                           max_size=n)), perm)
    return element(), element()


@given(wreath_pairs())
def test_unchecked_products_match_checked_ones(pair):
    """Products skip the constructors' checks; they give the elements the
    constructors give for the same images and flags, equal and hashing
    alike, with tuples of ints, also at degree 1."""
    a, b = pair
    n = len(a.flags)
    perm = Permutation([a.perm.images[j - 1] for j in b.perm.images])
    moved = [0] * n
    for i, j in enumerate(a.perm.images):
        moved[j - 1] = b.flags[i]
    checked = WreathElement([f + m for f, m in zip(a.flags, moved)], perm)
    for product, want in ((a.perm * b.perm, perm), (a * b, checked)):
        assert product == want and hash(product) == hash(want)
        assert product.__class__ is want.__class__
    product = a * b
    for field in (product.flags, product.perm.images):
        assert type(field) is tuple and len(field) == n
        assert all(type(x) is int for x in field)
    with pytest.raises(OracleError):
        a.perm * Permutation.identity(n + 1)


def test_images_land_in_character_subgroups():
    for fam, cond in (("B", "B+"), ("D", "D+")):
        for variant in ("carmichael", "bourbaki", "edge"):
            for e in oracle.standard_images(fam, variant, 4):
                assert subgroup_membership_characters(e, cond)
    for e in oracle.standard_images("D", "coxeter", 4):
        assert subgroup_membership_characters(e, "D")


def test_coxeter_images_are_reflections():
    # total sign (flag parity times permutation sign) is -1 on generators
    for fam, n in (("A", 4), ("B", 3), ("D", 4)):
        for e in oracle.standard_images(fam, "coxeter", n):
            assert epsilon_c2n(e) * epsilon_0(e) == -1


def test_alternating_order():
    assert oracle.alternating_order("A", 3) == 12
    assert oracle.alternating_order("B", 3) == 24
    assert oracle.alternating_order("D", 4) == 96


@pytest.mark.parametrize("family, rank", [("A", 0), ("B", 0), ("D", 0), ("D", 1),
                                          ("A", -1)])
def test_ranks_below_the_least_raise(family, rank):
    with pytest.raises(OracleError):
        oracle.standard_images(family, "coxeter", rank)
    with pytest.raises(OracleError):
        oracle.alternating_order(family, rank)


def test_unknown_family_and_degree_mismatch_raise():
    with pytest.raises(OracleError, match="^unknown family 'E'$"):
        oracle.standard_images("E", "coxeter", 3)
    with pytest.raises(OracleError, match="^unknown family 'C'$"):
        oracle.alternating_order("C", 3)
    with pytest.raises(OracleError, match="flag vector length"):
        WreathElement((0, 1), Permutation.identity(3))


def test_least_ranks():
    """A1, B1 and D2: |W+| is 1, 1 and 2, and the images generate W."""
    for family, rank, order in (("A", 1, 1), ("B", 1, 1), ("D", 2, 2)):
        assert oracle.alternating_order(family, rank) == order
        images = oracle.standard_images(family, "coxeter", rank)
        assert len(images) == rank
        assert oracle.generated_order(images) == 2 * order
        assert oracle.generated_order([a * b for a in images
                                       for b in images]) == order


def test_generated_order_degrees():
    """Degree 0 generates the trivial group; mixed degrees are refused."""
    assert oracle.generated_order([WreathElement.identity(0)]) == 1
    with pytest.raises(OracleError):
        oracle.generated_order([WreathElement.identity(2), WreathElement.identity(3)])


COVERS = ("tilde", "tilde-prime", "tilde-plus-bourbaki", "tilde-plus-edge",
          "tilde-prime-plus-bourbaki", "tilde-prime-plus-edge")


def test_clifford_images_present_every_catalog_cover():
    """On the 90 catalog covers of A, B and D at ranks 3 to 7, and on those
    of A1, A2 and B2, every relator maps to a positive scalar and the
    central generator, last, to -1."""
    minus_one = oracle.CliffordElement({0: -1}, 1)
    groups = [(f, r) for f in "ABD" for r in range(3, 8)]
    for family, rank in groups + [("A", 1), ("A", 2), ("B", 2)]:
        for variant in COVERS:
            p = _catalog_presentation(variant, family, rank)
            images = oracle.clifford_images(family, variant, rank)
            assert len(images) == p.rank and oracle.verify_hom(p, images)
            assert images[-1].terms == minus_one.terms
            assert not images[-1].is_identity()


def clifford_closure(generators):
    """The elements of the group that CliffordElement generators generate,
    by breadth-first search from the identity, up to a positive scalar."""
    one = oracle.CliffordElement({0: 1}, generators[0].square)
    seen, todo = {one}, [one]
    for x in todo:  # grows as new elements are reached
        for g in generators:
            y = x * g
            if y not in seen:
                seen.add(y)
                todo.append(y)
    return seen


@pytest.mark.parametrize("family, rank", [("A", 3), ("A", 4), ("B", 3), ("D", 4)])
def test_clifford_images_generate_the_double_cover(family, rank):
    """The images of each cover's generators other than the central one
    generate a group of twice the order of the quotient by it, which
    contains -1: that quotient is W, of order 2 |W+|, for tilde and
    tilde-prime, and W+ for the plus styles.  So -1, the
    central generator's image, has no complement, and the images tell
    the spin cover from the quotient times C2.  D4 tilde's has 384
    elements, the most here."""
    half = oracle.alternating_order(family, rank)
    for variant in COVERS:
        images = oracle.clifford_images(family, variant, rank)
        group = clifford_closure(images[:-1])
        want = 4 * half if variant in ("tilde", "tilde-prime") else 2 * half
        assert len(group) == want, variant
        assert images[-1] in group, variant


def test_clifford_images_need_obtuse_roots():
    """With D's s_0 sent to e1 + e2, acute to s_2's root, the relators of
    D4 tilde with an odd count of ts0, the label-3 (ts0 ts2)^3, map to -1;
    the images' -e1 - e2 sends them to 1.  Products are exact: ts0 has
    norm 2, and x x^-1 is 1."""
    p = spinor_presentation(standard_matrix("D", 4), "tilde")
    images = oracle.clifford_images("D", "tilde", 4)
    assert images[0] == oracle.CliffordElement.vector([-1, -1, 0, 0], 1)
    acute = [oracle.CliffordElement.vector([1, 1, 0, 0], 1), *images[1:]]
    failing = [w for w in p.relators if not oracle.eval_word(acute, w).is_identity()]
    assert failing == [w for w in p.relators if sum(abs(x) == 1 for x in w) % 2]
    assert failing == [Word((1, 3) * 3)]
    for x in images:
        assert (x * x.inverse()).is_identity() and (x.inverse() * x).is_identity()


def test_clifford_images_refuse_other_variants():
    with pytest.raises(OracleError, match="no Clifford images"):
        oracle.clifford_images("A", "coxeter", 3)
