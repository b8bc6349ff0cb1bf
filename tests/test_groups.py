import time
from fractions import Fraction
from itertools import permutations, product as iproduct

import pytest
from hypothesis import given, settings, strategies as st

from peiffer.groups import (
    FiniteGroup,
    GroupError,
    Hom,
    all_homs,
    automorphisms,
    aut_group,
    direct_product,
    identity_hom,
    is_isomorphic,
    is_normal,
    is_subgroup,
    normal_closure,
    quotient,
    subgroup_closure,
    validate_table,
    _built_group,
    _shown,
)
from peiffer.actions import Action, semidirect
from peiffer.catalog import catalog, cyclic, klein_four, symmetric_3
from peiffer.io import group_from_dict
from peiffer.product import peiffer_product

from constructions import compose, greedy_isomorphism, inverse, kernel, subgroup_group
from lie_data import reported
from test_row_kernels import relabel_group


def test_validate_accepts_cyclic():
    assert validate_table(cyclic(5).table).ok


def test_validate_rejects_nonsquare():
    d = validate_table(((0, 1), (1,)))
    assert not d.ok and d.reason == "table is not square"


def test_validate_rejects_no_inverse():
    # left-zero-ish table: 1 has no inverse
    d = validate_table(((0, 1), (1, 1)))
    assert not d.ok
    assert d.reason == "no inverse for element 1"
    assert d.witness == (1,)


def test_validate_rejects_nonassociative():
    # a quasigroup that is not a group: subtraction mod 3 has 0 as a right
    # identity only, so the identity check trips first
    table = tuple(tuple((i - j) % 3 for j in range(3)) for i in range(3))
    assert not validate_table(table).ok


def test_constructor_refuses_a_table_with_no_identity():
    # the constructor searches for the identity and inverses, and checks nothing else
    with pytest.raises(GroupError, match="^group axioms failed: no identity element"):
        FiniteGroup(((1, 1), (1, 1)))


@pytest.mark.parametrize("call, message", [
    (lambda: compose(identity_hom(cyclic(2)), identity_hom(cyclic(3))), "composition mismatch"),
    (lambda: inverse(Hom(cyclic(4), cyclic(2), (0, 1, 0, 1))), "not bijective"),
    (lambda: normal_closure(cyclic(3), [3]), "generator out of range"),
    (lambda: subgroup_group(symmetric_3(), {1}), "not a subgroup"),  # no identity
], ids=["compose", "inverse", "normal-closure", "subgroup-group"])
def test_group_guards_refuse_parts_that_do_not_fit(call, message):
    with pytest.raises(GroupError, match=f"^{message}$"):
        call()


def test_identity_not_forced_to_zero():
    # Z2 written with the identity at index 1
    G = FiniteGroup(((1, 0), (0, 1)))
    assert G.identity == 1
    assert G.inv(0) == 0


def test_element_orders_s3():
    S3 = symmetric_3()
    assert S3.order_multiset() == (1, 2, 2, 2, 3, 3)


def test_element_order_fails_fast_on_a_table_that_is_not_a_group():
    # 1 * 1 = 1 and 0 is the identity: the powers of 1 never reach it.  The trusting
    # constructor takes the table unchecked, as a faulty construction would build it
    G = _built_group(((0, 1, 2), (1, 1, 1), (2, 1, 0)), 0, (0, 1, 2))
    assert G.element_order(0) == 1 and G.element_order(2) == 2
    with pytest.raises(GroupError, match="^element 1 has no order within 3 steps: the table is not a group$"):
        G.element_order(1)


def test_hom_checks_multiplicativity():
    Z4 = cyclic(4)
    Z2 = cyclic(2)
    assert Hom(Z4, Z2, (0, 1, 0, 1)).check().ok  # reduction mod 2
    with pytest.raises(GroupError):
        Hom(Z4, Z2, (0, 1, 1, 0)).check().expect("homomorphism axioms")


@pytest.mark.parametrize("bad", [0.3, 1.9, True, "1"])
def test_hom_check_refuses_non_integer_values(bad):
    Z2 = cyclic(2)
    with pytest.raises(GroupError, match=rf"map value out of range, witness=\(1, {bad!r}\)"):
        Hom(Z2, Z2, [0, bad]).check().expect("homomorphism axioms")


def test_hom_check_bounds_an_echoed_value():
    Z2 = cyclic(2)
    deep, long = [[[[[[[[0]]]]]]]], "1" * 5000
    assert Hom(Z2, Z2, [0, deep]).check().witness == (1, "[[[[[[[...]]]]]]]")
    witness = Hom(Z2, Z2, [0, long]).check().witness
    assert witness[0] == 1 and len(witness[1]) < 50
    # an out-of-range int stays exact
    assert Hom(Z2, Z2, [0, 10**100]).check().witness == (1, 10**100)


def test_hom_check_tests_length_and_range_before_indexing():
    Z2, Z3 = cyclic(2), cyclic(3)
    assert Hom(Z3, Z2, (0, 1)).check().reason == (
        "map length does not match the domain order"
    )
    # value 5 would index past Z2's table in the identity test
    assert Hom(Z2, Z2, (5, 0)).check().witness == (0, 5)


def test_hom_without_check_keeps_its_map():
    Z2 = cyclic(2)
    t = (0, 1)
    assert Hom(Z2, Z2, t).mapping is t


def test_hom_compose_and_inverse():
    Z6 = cyclic(6)
    f = Hom(Z6, Z6, tuple((5 * x) % 6 for x in range(6)))  # negation
    assert compose(f, f) == identity_hom(Z6)
    assert inverse(f) == f


def test_subgroup_closure_generates():
    S3 = symmetric_3()
    for x in S3.elements():
        C = subgroup_closure(S3, [x])
        assert len(C) == S3.element_order(x)
        assert is_subgroup(S3, C)


def test_normal_closure_oracle():
    # oracle: the smallest normal subgroup containing g, found by
    # intersecting every normal subgroup enumerated by brute force
    S3 = symmetric_3()
    all_subsets = []
    elems = list(S3.elements())
    for x in elems:
        all_subsets.append(subgroup_closure(S3, [x]))
    for x in elems:
        for y in elems:
            all_subsets.append(subgroup_closure(S3, [x, y]))
    normals = {S for S in all_subsets if is_normal(S3, S)}
    for g in elems:
        expected = frozenset(range(S3.order))
        for S in normals:
            if g in S and len(S) < len(expected):
                expected = S
        assert normal_closure(S3, [g]) == expected


def test_quotient_minimal_reps_and_projection():
    S3 = symmetric_3()
    A3 = frozenset(x for x in S3.elements() if S3.element_order(x) in (1, 3))
    Q, proj = quotient(S3, A3)
    assert Q.order == 2
    assert kernel(proj) == A3
    assert set(proj.mapping) == set(Q.elements())
    # coset of the identity maps to the same index as the identity itself
    assert proj(S3.identity) == Q.identity


def test_quotient_rejects_non_normal():
    S3 = symmetric_3()
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    with pytest.raises(GroupError):
        quotient(S3, subgroup_closure(S3, [t]))


def test_quotient_of_normal_closure():
    for G in (cyclic(6), symmetric_3(), klein_four()):
        for g in G.elements():
            K = normal_closure(G, [g])
            _, proj = quotient(G, K)
            assert kernel(proj) == K


def test_subgroup_group_inclusion():
    S3 = symmetric_3()
    A3 = frozenset(x for x in S3.elements() if S3.element_order(x) in (1, 3))
    H, incl = subgroup_group(S3, A3)
    assert H.order == 3
    assert len(set(incl.mapping)) == H.order
    assert is_isomorphic(H, cyclic(3)) is not None


def test_direct_product_indexing():
    Z2, Z3 = cyclic(2), cyclic(3)
    P = direct_product(Z2, Z3)
    # (g, h) lives at g*3+h
    assert P.mul(1 * 3 + 2, 1 * 3 + 2) == 0 * 3 + 1
    assert is_isomorphic(P, cyclic(6)) is not None


def _brute_force_auts(G):
    out = []
    for perm in permutations(range(G.order)):
        if all(
            perm[G.table[a][b]] == G.table[perm[a]][perm[b]]
            for a in range(G.order)
            for b in range(G.order)
        ):
            out.append(perm)
    return sorted(out)


SMALL_GROUPS = [cyclic(2), cyclic(3), cyclic(4), klein_four(), symmetric_3()]


@pytest.mark.parametrize("G", SMALL_GROUPS + [relabel_group(G) for G in SMALL_GROUPS])
def test_automorphisms_against_brute_force(G):
    assert [a.mapping for a in automorphisms(G)] == _brute_force_auts(G)


def test_all_homs_against_brute_force():
    groups = catalog() + [relabel_group(G) for G in catalog()]
    pairs = 0
    for G in groups:
        for H in groups:
            if H.order ** G.order > 1300:
                continue
            pairs += 1
            brute = [
                phi for phi in iproduct(range(H.order), repeat=G.order)
                if all(phi[G.table[a][b]] == H.table[phi[a]][phi[b]]
                       for a in range(G.order) for b in range(G.order))
            ]
            assert sorted(h.mapping for h in all_homs(G, H)) == brute, (G, H)
    assert pairs == 112


def test_aut_group_is_a_group():
    for G in (klein_four(), symmetric_3(), cyclic(6)):
        A, auts = aut_group(G)
        assert validate_table(A.table).ok
        # closure under composition matches the table
        for i, a in enumerate(auts):
            for j, b in enumerate(auts):
                comp = tuple(a.mapping[v] for v in b.mapping)
                assert auts[A.table[i][j]].mapping == comp


def test_aut_group_is_built_once_per_group():
    G = relabel_group(symmetric_3())
    A, auts = aut_group(G)
    again = aut_group(G)
    assert again[0] is A and again[1] is auts
    # a tuple, so that no caller can change the list every later call returns
    assert isinstance(auts, tuple)


def test_aut_s3_is_s3():
    A, _ = aut_group(symmetric_3())
    assert is_isomorphic(A, symmetric_3()) is not None


def test_is_isomorphic_identity_on_same_table():
    S3 = symmetric_3()
    assert is_isomorphic(S3, S3) == identity_hom(S3)


def test_is_isomorphic_distinguishes_groups():
    assert is_isomorphic(cyclic(4), klein_four()) is None
    assert is_isomorphic(cyclic(6), symmetric_3()) is None
    assert is_isomorphic(cyclic(4), cyclic(6)) is None  # orders differ


def test_is_isomorphic_symmetric():
    Z6 = cyclic(6)
    P = direct_product(cyclic(2), cyclic(3))
    f = is_isomorphic(Z6, P)
    g = is_isomorphic(P, Z6)
    assert f is not None and g is not None
    assert f.check().ok and g.check().ok


def assert_search_agrees_with_the_greedy_oracle(G, H):
    """is_isomorphic finds a map exactly when the plain search does, and the
    map it finds is a bijective homomorphism."""
    phi = is_isomorphic(G, H)
    assert (phi is None) == (greedy_isomorphism(G, H) is None), (G, H)
    if phi is not None:
        assert phi.check().ok
        assert sorted(phi.mapping) == list(range(H.order))
    return phi


def test_isomorphism_search_agrees_with_the_oracle_on_the_family(family):
    for rec in family:
        swapped = peiffer_product(rec.mut.swapped())
        assert assert_search_agrees_with_the_greedy_oracle(rec.pp.product, swapped.product) is not None


def test_isomorphism_search_agrees_with_the_oracle_on_relabelled_groups():
    groups = catalog() + [relabel_group(G) for G in catalog()]
    found = 0
    for G in groups:
        for H in groups:
            if G.order == H.order:
                found += assert_search_agrees_with_the_greedy_oracle(G, H) is not None
    # each group with itself and its copy, both ways
    assert found == 4 * len(catalog())
    assert assert_search_agrees_with_the_greedy_oracle(symmetric_3(), cyclic(6)) is None


def test_isomorphism_search_tells_apart_groups_with_the_same_order_statistics():
    Z4 = cyclic(4)
    inversion = Action(Z4, Z4, [[(x * (-1) ** a) % 4 for x in range(4)] for a in range(4)])
    G, H = direct_product(Z4, Z4), semidirect(inversion).group
    assert G.order_multiset() == H.order_multiset()
    for pair in ((G, H), (H, G), (relabel_group(G), H)):
        assert assert_search_agrees_with_the_greedy_oracle(*pair) is None


def test_is_isomorphic_cap():
    big = cyclic(65)
    with pytest.raises(GroupError):
        is_isomorphic(big, big, cap=64)


def test_automorphisms_cap():
    with pytest.raises(GroupError, match="cap exceeded: order 65 > 64"):
        automorphisms(cyclic(65))


def test_automorphism_counts():
    assert len(automorphisms(cyclic(2))) == 1
    assert len(automorphisms(cyclic(3))) == 2
    assert len(automorphisms(klein_four())) == 6


def test_normal_closure_of_transposition_is_everything():
    S3 = symmetric_3()
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    assert normal_closure(S3, [t]) == frozenset(range(6))
    assert normal_closure(S3, [S3.identity]) == frozenset({S3.identity})


def test_checked_construction_refuses_non_integers():
    # the loader validates the raw table, so 0.0 is refused rather than read as 0
    with pytest.raises(GroupError, match="entry out of range"):
        group_from_dict({"table": [[0, 1], [1, 0.0]]})


def test_hom_search_refuses_past_budget():
    G = cyclic(2)
    for _ in range(5):
        G = direct_product(G, cyclic(2))
    assert G.order == 64  # within the order cap; 63^6 image tuples
    start = time.perf_counter()
    with pytest.raises(GroupError, match="search budget exceeded"):
        automorphisms(G)
    assert time.perf_counter() - start < 1


def test_isomorphism_search_refuses_past_budget():
    G = cyclic(2)
    for _ in range(5):
        G = direct_product(G, cyclic(2))
    start = time.perf_counter()
    with pytest.raises(GroupError, match="search budget exceeded"):
        is_isomorphic(G, relabel_group(G))
    assert time.perf_counter() - start < 1


# what a witness holds: ints, Fractions and the quoted strings of _bounded,
# in tuples of any length, the empty tuple and 1-tuples included; the strings
# have no parentheses, so reported() cannot mistake one for a Fraction
WITNESSES = st.recursive(
    st.integers(-10**6, 10**6) | st.fractions() | st.text(alphabet="ab[]. '\"\\", max_size=6),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=12,
)


@settings(max_examples=300, deadline=None)
@given(WITNESSES)
def test_a_witness_is_shown_as_its_repr_with_fractions_as_p_over_q(witness):
    assert _shown(witness) == reported(witness)


def test_a_witness_is_shown_as_a_report_writes_it():
    assert _shown(()) == "()" and _shown((Fraction(1, 2),)) == "(1/2,)"
    assert _shown((0, 1, (Fraction(0), Fraction(-2), Fraction(190, 483)))) == "(0, 1, (0, -2, 190/483))"
    assert _shown((0, 1, "[[[...]]]")) == "(0, 1, '[[[...]]]')"
