import re

import pytest

from peiffer.actions import Action, trivial_action
from peiffer.catalog import cyclic, klein_four, symmetric_3
from peiffer.compat import MutualActions
from peiffer.groups import (
    GroupError,
    Hom,
    direct_product,
    is_isomorphic,
    subgroup_closure,
)
from peiffer.lie import LieError, check_lie_xmod, lie_induced_actions, lie_peiffer
from peiffer.product import (
    induced_actions,
    peiffer_product,
    peiffer_relators,
    peiffer_xmods,
    strong_relation_check,
    universal_map,
)
from peiffer.xmod import CrossedModule, check_xmod, induced_mutual_actions

from constructions import compose, identity_xmod, inclusion_xmod, kernel, subgroup_group
from test_lie import ideal_fixture, scalar_pair

S3 = symmetric_3()
Z2 = cyclic(2)
Z3 = cyclic(3)


def trivial_mut(M, N):
    return MutualActions(trivial_action(N, M), trivial_action(M, N))


def s3_z2_incompatible():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    xi_nm = Action(Z2, S3, (tuple(range(6)), tuple(S3.conj(t, x) for x in range(6))))
    return MutualActions(xi_nm, trivial_action(S3, Z2))


def a3_fixture():
    A3 = [x for x in S3.elements() if S3.element_order(x) in (1, 3)]
    _, incl = subgroup_group(S3, A3)
    xm_m = inclusion_xmod(S3, incl)
    xm_n = identity_xmod(S3)
    return xm_m, xm_n, induced_mutual_actions(xm_m, xm_n)


def test_relators_trivial_actions_are_commutators():
    mut = trivial_mut(Z2, Z3)
    sd, rels = peiffer_relators(mut)
    S = sd.group
    expected = set()
    for m in range(2):
        for n in range(3):
            a, b = sd.jX(m), sd.jA(n)
            expected.add(S.mul(S.mul(a, b), S.mul(S.inv(a), S.inv(b))))
    assert set(rels) == expected
    assert len(rels) <= 6


def test_relator_identity_for_identity_letters():
    mut = trivial_mut(Z2, Z3)
    sd, rels = peiffer_relators(mut)
    assert sd.group.identity in rels  # m = e, n = e contributes it


def test_peiffer_trivial_z2_z3():
    pp = peiffer_product(trivial_mut(Z2, Z3))
    assert pp.product.order == 6
    assert is_isomorphic(pp.product, cyclic(6)) is not None
    assert pp.compatible


def test_peiffer_trivial_is_direct_product():
    for M, N in ((S3, Z2), (klein_four(), Z3)):
        pp = peiffer_product(trivial_mut(M, N))
        assert pp.product.order == M.order * N.order
        assert is_isomorphic(pp.product, direct_product(M, N)) is not None


def test_structure_maps():
    pp = peiffer_product(trivial_mut(S3, Z2))
    to_p = Hom(pp.semidirect.group, pp.product, pp.proj)
    assert set(to_p.mapping) == set(pp.product.elements())
    assert pp.lM == compose(to_p, pp.semidirect.jX)
    assert pp.lN == compose(to_p, pp.semidirect.jA)


def test_order_divides_semidirect_order(family):
    for rec in family:
        assert rec.pp.semidirect.group.order % rec.pp.product.order == 0


def test_constructions_pass_the_exhaustive_checks(family):
    # semidirect, peiffer_product, peiffer_xmods and universal_map do not
    # check what they build; the exhaustive checks of their results stay here
    # as the oracle
    for rec in family:
        pp, psi = rec.pp, rec.mut.xi_nm
        sd = pp.semidirect
        G, X, A = sd.group, psi.target, psi.acting
        assert all(sd.pi(sd.jA(a)) == a for a in A.elements())
        assert frozenset(sd.jX.mapping) == kernel(sd.pi)
        for a in A.elements():
            for x in X.elements():
                assert G.conj(sd.jA(a), sd.jX(x)) == sd.jX(psi(a, x))
        P = pp.product
        gens = set(pp.lM.mapping) | set(pp.lN.mapping)
        assert subgroup_closure(P, gens) == frozenset(P.elements())
        if not pp.compatible:
            continue
        xm_m, xm_n = peiffer_xmods(pp)
        assert check_xmod(xm_m).ok and check_xmod(xm_n).ok
        h = universal_map(pp, xm_m, xm_n)
        assert h.check().ok
        assert all(h(pp.lM(m)) == xm_m.boundary(m) for m in rec.mut.M.elements())
        assert all(h(pp.lN(n)) == xm_n.boundary(n) for n in rec.mut.N.elements())


def test_induced_actions_trivial_case():
    pp = peiffer_product(trivial_mut(S3, Z2))
    on_m, on_n = induced_actions(pp)
    # P is M x N; the action on M is conjugation through the M part
    for m in S3.elements():
        p = pp.lM(m)
        for x in S3.elements():
            assert on_m.table[p][x] == S3.conj(m, x)
    for n in Z2.elements():
        p = pp.lN(n)
        for x in S3.elements():
            assert on_m.table[p][x] == x


def test_incompatible_fixture_has_no_actions():
    pp = peiffer_product(s3_z2_incompatible())
    assert not pp.compatible
    assert pp.actions is None
    assert pp.disagreement is not None
    message = "induced action disagrees across a coset, witness=(2, 2, 4, 0, 1, 1, 5)"
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        induced_actions(pp)
    assert message.endswith(f"witness={pp.disagreement}")
    # the witness names a coset with two disagreeing preimages
    p, rep, other, side, x, v1, v2 = pp.disagreement
    assert pp.proj[rep] == p == pp.proj[other]
    assert v1 != v2


def test_mutual_conjugation_well_defined():
    G = S3
    from peiffer.actions import conjugation_action

    mut = MutualActions(conjugation_action(G), conjugation_action(G))
    pp = peiffer_product(mut)
    on_m, _ = induced_actions(pp)
    # every row is an inner automorphism of S3
    inner = {tuple(G.conj(g, x) for x in G.elements()) for g in G.elements()}
    for row in on_m.table:
        assert row in inner


def test_peiffer_xmods_pass_checker():
    pp = peiffer_product(trivial_mut(S3, Z2))
    xm_m, xm_n = peiffer_xmods(pp)
    assert check_xmod(xm_m).ok and check_xmod(xm_n).ok
    assert kernel(xm_m.boundary) == frozenset({S3.identity})


def test_peiffer_xmods_gated_on_compatibility():
    message = "induced action disagrees across a coset, witness=(2, 2, 4, 0, 1, 1, 5)"
    with pytest.raises(GroupError, match=f"^{re.escape(message)}$"):
        peiffer_xmods(peiffer_product(s3_z2_incompatible()))


# Both categories' products, each incompatible and compatible: (build, error, other error, check)
PRODUCTS = [
    pytest.param(lambda: peiffer_product(s3_z2_incompatible()), GroupError, LieError, None,
                 id="groups-s3-z2-incompatible"),
    pytest.param(lambda: peiffer_product(a3_fixture()[2]), GroupError, LieError, check_xmod,
                 id="groups-a3-in-s3"),
    pytest.param(lambda: lie_peiffer(scalar_pair()), LieError, GroupError, None, id="lie-scalar-pair"),
    pytest.param(lambda: lie_peiffer(lie_induced_actions(*ideal_fixture())), LieError, GroupError,
                 check_lie_xmod, id="lie-ideal"),
]


@pytest.mark.parametrize("build, error, other, check", PRODUCTS)
def test_both_products_serve_one_interface(build, error, other, check):
    # induced_actions and peiffer_xmods read the same fields of either product
    pp = build()
    assert (pp.actions is None) == (pp.disagreement is not None) == (check is None)
    if check is None:
        with pytest.raises(error) as err:
            peiffer_xmods(pp)
        message = str(err.value)
        assert not isinstance(err.value, other)
        assert message.startswith("induced action disagrees across a coset, witness=")
        assert "Fraction(" not in message
    else:
        xmods = peiffer_xmods(pp)
        assert [xm.boundary for xm in xmods] == [pp.lM, pp.lN]
        assert [xm.action for xm in xmods] == list(pp.actions)
        assert all(check(xm).ok for xm in xmods)


def test_strong_check_trivial_actions():
    assert strong_relation_check(peiffer_product(trivial_mut(S3, Z2))).ok


def test_strong_check_bound_three():
    _, _, mut = a3_fixture()
    assert strong_relation_check(peiffer_product(mut), bound=3).ok


def test_strong_check_refuses_a_negative_bound():
    pp = peiffer_product(trivial_mut(S3, Z2))
    with pytest.raises(GroupError, match="non-negative"):
        strong_relation_check(pp, bound=-1)
    assert strong_relation_check(pp, bound=0).ok


def test_a3_fixture_cross_checked_by_swap():
    _, _, mut = a3_fixture()
    pp = peiffer_product(mut)
    pp_sw = peiffer_product(mut.swapped())
    assert is_isomorphic(pp.product, pp_sw.product) is not None


def test_pushout_symmetry_even_when_incompatible():
    mut = s3_z2_incompatible()
    pp = peiffer_product(mut)
    pp_sw = peiffer_product(mut.swapped())
    assert is_isomorphic(pp.product, pp_sw.product) is not None


def test_universal_map_trivial_actions():
    M, N = S3, Z2
    L = direct_product(M, N)
    iM = Hom(M, L, tuple(m * N.order for m in M.elements()))
    iN = Hom(N, L, tuple(n for n in N.elements()))
    xm_m = inclusion_xmod(L, iM)
    xm_n = inclusion_xmod(L, iN)
    mut = induced_mutual_actions(xm_m, xm_n)
    assert mut == trivial_mut(M, N)
    pp = peiffer_product(mut)
    h = universal_map(pp, xm_m, xm_n)
    assert h.dom.order == h.cod.order == len(set(h.mapping))


def test_universal_map_a3_fixture():
    xm_m, xm_n, mut = a3_fixture()
    pp = peiffer_product(mut)
    h = universal_map(pp, xm_m, xm_n)
    assert h.check().ok
    assert set(h.mapping) == set(h.cod.elements())
    for m in range(mut.M.order):
        assert h(pp.lM(m)) == xm_m.boundary(m)
    for n in range(mut.N.order):
        assert h(pp.lN(n)) == xm_n.boundary(n)


def test_universal_map_uniqueness_by_generation():
    # any hom agreeing with h on lM and lN images agrees everywhere,
    # because those images generate P
    xm_m, xm_n, mut = a3_fixture()
    pp = peiffer_product(mut)
    h = universal_map(pp, xm_m, xm_n)
    from peiffer.groups import all_homs

    agreeing = [
        g
        for g in all_homs(pp.product, xm_m.A)
        if all(g(pp.lM(m)) == xm_m.boundary(m) for m in range(mut.M.order))
        and all(g(pp.lN(n)) == xm_n.boundary(n) for n in range(mut.N.order))
    ]
    assert agreeing == [h]


def test_universal_map_precondition():
    xm_m, xm_n, mut = a3_fixture()
    pp = peiffer_product(trivial_mut(xm_m.X, xm_n.X))
    with pytest.raises(GroupError):
        universal_map(pp, xm_m, xm_n)


def test_same_actions_different_bases_give_isomorphic_products():
    # two coterminal realizations of the same (trivial) mutual actions:
    # over the abelian group Z2 x Z2 and over the trivial group
    Z1 = cyclic(1)
    M = N = Z2
    L = klein_four()
    iM = Hom(M, L, (0, 2))
    iN = Hom(N, L, (0, 1))
    pair_a = (inclusion_xmod(L, iM), inclusion_xmod(L, iN))
    zero_m = Hom(M, Z1, (0, 0))
    zero_n = Hom(N, Z1, (0, 0))
    pair_b = (
        CrossedModule(zero_m, trivial_action(Z1, M)),
        CrossedModule(zero_n, trivial_action(Z1, N)),
    )
    mut_a = induced_mutual_actions(*pair_a)
    mut_b = induced_mutual_actions(*pair_b)
    assert mut_a == mut_b
    pa = peiffer_product(mut_a)
    pb = peiffer_product(mut_b)
    assert is_isomorphic(pa.product, pb.product) is not None
