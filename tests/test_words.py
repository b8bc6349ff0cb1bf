import pytest
from hypothesis import given, strategies as st

from peiffer.actions import conjugation_action, semidirect, trivial_action
from peiffer.catalog import cyclic, symmetric_3
from free_words import (
    ConjGenerator,
    FreeWord,
    WordError,
    eval_flat_action,
    flat_decompose,
    format_word,
    in_cosmash,
    in_flat,
    in_ternary_cosmash,
    membership,
    parse_word,
    sigma_image,
)

S3 = symmetric_3()
Z2 = cyclic(2)
GROUPS = (S3, Z2)


def w(*letters):
    return FreeWord(GROUPS, letters)


def test_reduction_drops_identities():
    assert w((0, 0), (1, 0), (0, 0)).letters == ()


def test_reduction_merges_same_side():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    assert w((0, t), (0, t)).letters == ()
    c = next(x for x in S3.elements() if S3.element_order(x) == 3)
    assert w((0, c), (0, c)).letters == ((0, S3.table[c][c]),)


def test_reduction_cascades():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    # N-letter sandwiched by cancelling pair collapses everything
    assert w((0, t), (1, 1), (1, 1), (0, t)).letters == ()


letters_strategy = st.lists(
    st.tuples(st.integers(0, 1), st.integers(0, 5)), max_size=12
).map(lambda ls: [(s, x if s == 0 else x % 2) for s, x in ls])


@given(letters_strategy)
def test_reduced_words_alternate(ls):
    word = FreeWord(GROUPS, ls)
    for (s1, x1), (s2, x2) in zip(word.letters, word.letters[1:]):
        assert s1 != s2
    for s, x in word.letters:
        assert x != GROUPS[s].identity


@given(letters_strategy, letters_strategy)
def test_product_is_associative_enough(a, b):
    # (ab) built letterwise equals reducing the concatenation
    wa, wb = FreeWord(GROUPS, a), FreeWord(GROUPS, b)
    assert (wa * wb).letters == FreeWord(GROUPS, list(a) + list(b)).letters


@given(letters_strategy)
def test_inverse_cancels(ls):
    word = FreeWord(GROUPS, ls)
    assert (word * word.inverse()).letters == ()
    assert (word.inverse() * word).letters == ()


@given(letters_strategy)
def test_sigma_image_is_a_fold(ls):
    word = FreeWord(GROUPS, ls)
    folds = sigma_image(word)
    for side, G in enumerate(GROUPS):
        acc = G.identity
        for s, x in word.letters:
            if s == side:
                acc = G.table[acc][x]
        assert folds[side] == acc


def test_flat_and_cosmash_membership():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    conj = w((0, t), (1, 1), (0, t))  # fold to S3 is identity
    assert in_flat(conj, 0)
    assert not in_flat(conj, 1)
    assert not in_cosmash(conj)
    comm = w((0, t), (1, 1), (0, t), (1, 1))
    assert in_cosmash(comm)
    assert membership(comm, "cosmash")
    assert membership(conj, "flat-MN")
    assert not membership(conj, "flat-NM")


def test_ternary_cosmash():
    triple = (S3, Z2, cyclic(3))
    def tw(*ls):
        return FreeWord(triple, ls)
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    # pairwise commutators of single letters survive some restriction
    assert not in_ternary_cosmash(tw((0, t), (1, 1), (0, t), (1, 1)))
    # [[a,b],c]-style word dies under every pairwise restriction
    a, b, c = (0, t), (1, 1), (2, 1)
    ai, bi, ci = (0, t), (1, 1), (2, 2)
    comm_ab = [a, b, ai, bi]
    inv_ab = [b, a, bi, ai]
    word = tw(*(comm_ab + [c] + inv_ab + [ci]))
    assert in_ternary_cosmash(word)
    with pytest.raises(WordError):
        in_ternary_cosmash(w((0, t)))


@pytest.mark.parametrize(
    "letter", [(0, 1.9), (0, True), (0, "1"), (1.2, 1), (True, 1), ("1", 1)]
)
def test_free_word_refuses_non_integer_sides_and_elements(letter):
    # int() would read 1.9 as 1 and True as 1
    with pytest.raises(WordError, match="out of range"):
        w(letter)


def test_flat_decompose_reassembles():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    c = next(x for x in S3.elements() if S3.element_order(x) == 3)
    word = w((0, t), (1, 1), (0, c), (1, 1), (0, S3.inv(S3.mul(t, c))))
    gens = flat_decompose(word, acting_side=0, target_side=1)
    rebuilt = FreeWord(GROUPS, ())
    for g in gens:
        rebuilt = rebuilt * w((0, g.conjugator), (1, g.core), (0, S3.inv(g.conjugator)))
    assert rebuilt == word


def test_flat_decompose_prefixes():
    # a1 b1 a2 b2 a3 b3 with full fold trivial decomposes with conjugators
    # a1, a1 a2 and the cores b1, b2, b3
    Z6 = cyclic(6)
    gs = (Z6, Z2)
    word = FreeWord(gs, [(0, 1), (1, 1), (0, 2), (1, 1), (0, 3), (1, 1)])
    gens = flat_decompose(word)
    assert gens == [ConjGenerator(1, 1), ConjGenerator(3, 1), ConjGenerator(0, 1)]


def test_flat_decompose_rejects_nonflat():
    with pytest.raises(WordError):
        flat_decompose(w((0, 1), (1, 1)))


def test_eval_flat_action_invariant_under_reduction():
    # raw unreduced letters versus their reduction; side 0 acts, side 1 is
    # the target, with S3 acting on itself by conjugation
    act = conjugation_action(S3)
    raw = [(0, 2), (0, 0), (1, 2), (1, 1), (0, S3.inv(2)), (1, 0)]
    word = FreeWord((S3, S3), raw)
    for x in S3.elements():
        v1 = eval_flat_action(act, raw + [(1, x), ])
        v2 = eval_flat_action(act, word * FreeWord((S3, S3), [(1, x)]))
        assert v1 == v2


def test_eval_flat_action_matches_semidirect_conjugation():
    # evaluating a flat word equals multiplying its conjugates inside X x| A
    Z3 = cyclic(3)
    auts_inv = tuple((0, 2, 1)[x] for x in range(3))
    from peiffer.actions import Action

    psi = Action(Z2, Z3, (tuple(range(3)), auts_inv))
    sd = semidirect(psi)
    word = [(0, 1), (1, 2), (0, 1), (1, 1)]
    acc = eval_flat_action(psi, word, acting_side=0, target_side=1)
    g = sd.group.identity
    for s, x in word:
        g = sd.group.mul(g, sd.jA(x) if s == 0 else sd.jX(x))
    assert g == sd.jX(acc)


def test_eval_flat_action_rejects_open_prefix():
    psi = trivial_action(Z2, S3)
    with pytest.raises(WordError):
        eval_flat_action(psi, [(0, 1), (1, 2)])


def test_parse_and_format_round_trip():
    word = parse_word("M:2 N:1 M:4", GROUPS)
    assert format_word(word) == "M:2 N:1 M:4"
    assert parse_word("", GROUPS).letters == ()
    with pytest.raises(WordError):
        parse_word("Q:1", GROUPS)
    with pytest.raises(WordError):
        parse_word("M:9", GROUPS)


@given(letters_strategy)
def test_reduce_idempotent(ls):
    word = FreeWord(GROUPS, ls)
    assert FreeWord(GROUPS, word.letters).letters == word.letters


@given(letters_strategy, letters_strategy)
def test_sigma_multiplicative(a, b):
    wa, wb = FreeWord(GROUPS, a), FreeWord(GROUPS, b)
    va = sigma_image(wa)
    vb = sigma_image(wb)
    prod = sigma_image(wa * wb)
    assert prod == tuple(G.table[x][y] for G, x, y in zip(GROUPS, va, vb))


def test_eval_trivial_action_is_second_fold():
    psi = trivial_action(Z2, S3)
    # here Z2 acts (side 0) on S3 (side 1)
    word = [(0, 1), (1, 2), (0, 1), (1, 3)]
    got = eval_flat_action(psi, word, acting_side=0, target_side=1)
    assert got == S3.mul(2, 3)


def test_eval_commutator_is_action_core():
    psi = conjugation_action(S3)
    for a in S3.elements():
        for x in S3.elements():
            word = [(0, a), (1, x), (0, S3.inv(a)), (1, S3.inv(x))]
            got = eval_flat_action(psi, word)
            assert got == S3.mul(psi.table[a][x], S3.inv(x))
