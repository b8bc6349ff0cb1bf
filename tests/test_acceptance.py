"""Acceptance suite: ten exact, exhaustively quantified properties over the
catalog {Z2, Z3, Z4, Z2xZ2, Z6, S3}, all mutual-action pairs with
|M||N| <= 36, and every pair of crossed modules over a common catalog base
(criteria 1, 2 and 7).  Criteria 1 and 3 also run on a seeded sample of the
finite Lie family of lie_data.small_lie_family().  One pass/fail line is
printed per criterion."""

import random

import pytest

from peiffer.actions import Action, semidirect, trivial_action
from peiffer.catalog import catalog, cyclic, symmetric_3
from peiffer.compat import MutualActions, check_compatible
from peiffer.groups import GroupError, direct_product, is_isomorphic, subgroup_closure, all_homs
from peiffer.product import (
    induced_actions,
    peiffer_product,
    peiffer_xmods,
    strong_relation_check,
    universal_map,
)
from peiffer.xmod import CrossedModule, check_xmod, induced_mutual_actions
from peiffer import lie
from peiffer.io import mat

from constructions import Point, catalog_xmods, identity_xmod, inclusion_xmod, point_to_action, subgroup_group
from free_words import eval_flat_action
from lie_data import dense_b3, identity_lie_map, mats, small_lie_family, sparse_b3, trivial_lie_action


def report(num, name, ok):
    print(f"[criterion {num}] {name}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {num} ({name}) failed"


def a3_into_s3():
    S3 = symmetric_3()
    A3 = [x for x in S3.elements() if S3.element_order(x) in (1, 3)]
    _, incl = subgroup_group(S3, A3)
    return inclusion_xmod(S3, incl), identity_xmod(S3)


@pytest.fixture(scope="module")
def xmod_pairs():
    """Every ordered pair (X -> L, Y -> L) of catalog crossed modules over a
    common base, with the mutual actions it induces and their Peiffer product:
    6,184 pairs of 166 crossed modules."""
    by_base = {}
    for xm in catalog_xmods():
        by_base.setdefault(xm.A, []).append(xm)
    pairs = []
    for xms in by_base.values():
        for xm_m in xms:
            for xm_n in xms:
                mut = induced_mutual_actions(xm_m, xm_n)
                pairs.append((xm_m, xm_n, mut, peiffer_product(mut)))
    return pairs


@pytest.fixture(scope="module")
def lie_family_sample():
    """A seeded sample of the mutual pairs of small_lie_family(), up to 1,000 for each
    ordered pair of algebras, with each pair's compatibility and Peiffer product."""
    algebras, actions = small_lie_family()
    rng, sample = random.Random(0), []
    for M in algebras:
        for N in algebras:
            nm, mn = actions[N.name, M.name], actions[M.name, N.name]
            for k in rng.sample(range(len(nm) * len(mn)), min(1000, len(nm) * len(mn))):
                mut = MutualActions(nm[k // len(mn)], mn[k % len(mn)])
                sample.append((mut, lie.lie_compatible(mut).ok, lie.lie_peiffer(mut)))
    return sample


def s3_z2_incompatible():
    S3, Z2 = symmetric_3(), cyclic(2)
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    xi_nm = Action(Z2, S3, (tuple(range(6)), tuple(S3.conj(t, x) for x in range(6))))
    return MutualActions(xi_nm, trivial_action(S3, Z2))


def test_criterion_1_forward_round_trip(family, xmod_pairs):
    ok = True
    compatible = [(rec.mut, rec.pp) for rec in family if rec.verdict.compatible]
    for mut, pp in compatible + [(mut, pp) for _, _, mut, pp in xmod_pairs]:
        xm_m, xm_n = peiffer_xmods(pp)
        if not (check_xmod(xm_m).ok and check_xmod(xm_n).ok):
            ok = False
            break
        if induced_mutual_actions(xm_m, xm_n) != mut:
            ok = False
            break
    report(1, "forward round trip through the Peiffer crossed modules", ok)


def test_criterion_2_backward_direction(xmod_pairs):
    fixtures = [(identity_xmod(G), identity_xmod(G)) for G in catalog()]
    fixtures.append(a3_into_s3())
    Z6 = cyclic(6)
    Z3sub, incl = subgroup_group(Z6, subgroup_closure(Z6, [2]))
    fixtures.append((inclusion_xmod(Z6, incl), identity_xmod(Z6)))
    ok = all(
        check_compatible(induced_mutual_actions(xm_m, xm_n)).compatible
        for xm_m, xm_n in fixtures
    )
    ok = ok and all(check_compatible(mut).compatible for _, _, mut, _ in xmod_pairs)
    report(2, "coterminal crossed modules induce compatible actions", ok)


def test_criterion_3_definition_equivalence(family):
    ok = all(rec.verdict.compatible == (rec.pp.actions is not None) for rec in family)
    report(3, "compatibility iff induced actions well defined", ok)


def test_lie_family_counts(lie_family_sample):
    algebras, actions = small_lie_family()
    pairs = sum(len(actions[N.name, M.name]) * len(actions[M.name, N.name]) for M in algebras for N in algebras)
    assert pairs == 677221
    compatible = sum(ok for _, ok, _ in lie_family_sample)
    assert (len(lie_family_sample), compatible) == (4746, 288)


def test_lie_semidirect_keeps_the_least_denominator_without_a_gcd_pass(lie_family_sample):
    # lie_semidirect builds M x| N over lcm(M.D, N.D, rho.D) and divides by no
    # gcd: that D is least already, so the gcd pass would change nothing
    actions = [act for mut, _, _ in lie_family_sample for act in (mut.xi_nm, mut.xi_mn)]
    for seed in range(2):
        for basis in (sparse_b3(seed), dense_b3(seed)):
            actions.append(lie.LieAlgebra(6, mats(basis)).adjoint)
    built = [lie.lie_semidirect(rho) for rho in actions]
    assert all(lie._least(S.D, S.brackets) == (S.D, S.brackets) for S in built)
    assert max(S.D for S in built) > 1


def test_lie_criterion_1_forward_round_trip(lie_family_sample):
    def round_trip(mut, pp):
        xm_m, xm_n = peiffer_xmods(pp)
        xmods_ok = lie.check_lie_xmod(xm_m).ok and lie.check_lie_xmod(xm_n).ok
        return xmods_ok and lie.lie_induced_actions(xm_m, xm_n) == mut

    ok = all(round_trip(mut, pp) for mut, compatible, pp in lie_family_sample if compatible)
    report(1, "Lie family: forward round trip through the Peiffer crossed modules", ok)


def test_lie_criterion_3_definition_equivalence(lie_family_sample):
    ok = all(compatible == (pp.actions is not None) for _, compatible, pp in lie_family_sample)
    report(3, "Lie family: compatibility iff induced actions well defined", ok)


def test_criterion_4_pushout_symmetry(family):
    ok = all(rec.symmetric_ok for rec in family)
    report(4, "product through M|xN isomorphic to product through N|xM", ok)


def test_criterion_5_strong_relation(family):
    ok = True
    compatible = [rec for rec in family if rec.verdict.compatible]
    for rec in compatible:
        if not strong_relation_check(rec.pp, bound=2).ok:
            ok = False
            break
    if ok:
        largest = sorted(
            compatible, key=lambda r: (-r.pp.semidirect.group.order, r.m_name, r.n_name, r.index)
        )[:3]
        ok = all(strong_relation_check(rec.pp, bound=3).ok for rec in largest)
    report(5, "conjugation in P realizes the word action (bounds 2 and 3)", ok)


def test_criterion_6_trivial_action_law():
    ok = True
    groups = catalog()
    for M in groups:
        for N in groups:
            mut = MutualActions(trivial_action(N, M), trivial_action(M, N))
            pp = peiffer_product(mut)
            if pp.product.order != M.order * N.order:
                ok = False
                break
            if is_isomorphic(pp.product, direct_product(M, N)) is None:
                ok = False
                break
        if not ok:
            break
    report(6, "trivial actions give the direct product", ok)


def universal_map_is_unique_morphism(pp, xm_m, xm_n) -> bool:
    """h = universal_map(pp, xm_m, xm_n) is a hom and commutes with both
    boundaries; it is a morphism of both crossed modules, as P acts on M and
    on N as L does through h; and it is unique, as lM and lN generate P."""
    h = universal_map(pp, xm_m, xm_n)
    P = pp.product
    on_m, on_n = induced_actions(pp)
    return (
        h.check().ok
        and [h(v) for v in pp.lM.mapping] == list(xm_m.boundary.mapping)
        and [h(v) for v in pp.lN.mapping] == list(xm_n.boundary.mapping)
        and all(on_m.table[p] == xm_m.action.table[h(p)] for p in P.elements())
        and all(on_n.table[p] == xm_n.action.table[h(p)] for p in P.elements())
        and len(subgroup_closure(P, set(pp.lM.mapping) | set(pp.lN.mapping))) == P.order
    )


def test_criterion_7_universal_property(xmod_pairs):
    xm_m, xm_n = a3_into_s3()
    mut = induced_mutual_actions(xm_m, xm_n)
    pp = peiffer_product(mut)
    h = universal_map(pp, xm_m, xm_n)
    ok = h.check().ok
    ok = ok and all(h(pp.lM(m)) == xm_m.boundary(m) for m in range(mut.M.order))
    ok = ok and all(h(pp.lN(n)) == xm_n.boundary(n) for n in range(mut.N.order))
    # generation certificate: images of lM and lN generate P, so any map
    # agreeing on them is h; double-checked by full hom enumeration
    gens = set(pp.lM.mapping) | set(pp.lN.mapping)
    ok = ok and subgroup_closure(pp.product, gens) == frozenset(range(pp.product.order))
    agreeing = [
        g
        for g in all_homs(pp.product, xm_m.A)
        if all(g(pp.lM(m)) == xm_m.boundary(m) for m in range(mut.M.order))
        and all(g(pp.lN(n)) == xm_n.boundary(n) for n in range(mut.N.order))
    ]
    ok = ok and agreeing == [h]
    ok = ok and all(universal_map_is_unique_morphism(pp, xm_m, xm_n) for xm_m, xm_n, _, pp in xmod_pairs)
    report(7, "the universal map exists, commutes and is unique", ok)


def test_criterion_8_negative_control():
    mut = s3_z2_incompatible()
    v1 = check_compatible(mut)
    v2 = check_compatible(s3_z2_incompatible())
    ok = not v1.compatible and v1.witness == v2.witness and v1.witness is not None
    pp = peiffer_product(mut)
    try:
        induced_actions(pp)
        ok = False
    except GroupError as err:
        w = pp.disagreement
        ok = ok and w is not None and str(err) == f"induced action disagrees across a coset, witness={w}"
        # the witness really exhibits two preimages of one coset disagreeing
        p, rep, other, side, x, val1, val2 = w
        ok = ok and pp.proj[rep] == p == pp.proj[other]
        ok = ok and val1 != val2
    report(8, "incompatible fixture rejected with reproducible witnesses", ok)


def test_criterion_9_point_action_round_trip(family):
    ok = True
    actions = {rec.mut.xi_nm for rec in family} | {rec.mut.xi_mn for rec in family}
    for psi in actions:
        sd = semidirect(psi)
        back, incl = point_to_action(Point(sd.pi, sd.jA))
        relabel = {}
        jx_back = {sd.jX(x): x for x in range(psi.target.order)}
        for i in range(back.target.order):
            relabel[i] = jx_back[incl(i)]
        for a in range(psi.acting.order):
            for i in range(back.target.order):
                if relabel[back.table[a][i]] != psi.table[a][relabel[i]]:
                    ok = False
    if ok:
        # every flat word a1 x1 a2 x2 a3 x3 with a1 a2 a3 = e evaluates to
        # the same element as multiplying its letters in X x| A
        for psi in actions:
            A, X = psi.acting, psi.target
            sd = semidirect(psi)
            S = sd.group
            for a1 in A.elements():
                for a2 in A.elements():
                    a3 = A.inv(A.mul(a1, a2))
                    for x1 in X.elements():
                        for x2 in X.elements():
                            for x3 in X.elements():
                                word = ((0, a1), (1, x1), (0, a2), (1, x2), (0, a3), (1, x3))
                                v = eval_flat_action(psi, word)
                                g = S.identity
                                for side, y in word:
                                    g = S.mul(g, sd.jA(y) if side == 0 else sd.jX(y))
                                if g != sd.jX(v):
                                    ok = False
            if not ok:
                break
    report(9, "points and actions agree through the semidirect product", ok)


def test_criterion_10_lie_suite():
    # (a) compatibility certification
    L = lie.LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    I = lie.LieAlgebra(1, mats([[[0]]]))
    xm_ideal = CrossedModule(
        lie.LieMap(I, L, mat([[0], [1]])), lie.LieAction(L, I, mats([[[1]], [[0]]]))
    )
    xm_id = CrossedModule(identity_lie_map(L), L.adjoint)
    A2 = lie.LieAlgebra(2, mats([[[0, 0], [0, 0]], [[0, 0], [0, 0]]]))
    xm_ab = CrossedModule(identity_lie_map(A2), A2.adjoint)
    fixtures = [(xm_ideal, xm_id), (xm_id, xm_id), (xm_ab, xm_ab)]
    ok = all(
        lie.lie_compatible(lie.lie_induced_actions(a, b)).ok for a, b in fixtures
    )
    one = lie.LieAlgebra(1, mats([[[0]]]))
    scalar = MutualActions(
        lie.LieAction(one, one, mats([[[1]]])), lie.LieAction(one, one, mats([[[1]]]))
    )
    ok = ok and not lie.lie_compatible(scalar).ok

    # (b) zero actions give the direct sum
    if ok:
        zero = MutualActions(trivial_lie_action(L, I), trivial_lie_action(I, L))
        pp0 = lie.lie_peiffer(zero)
        ok = pp0.product.dim == I.dim + L.dim and lie.lie_peiffer_ideal(zero)[1] == ()

    # (c) compatible fixtures carry crossed modules and the universal map
    if ok:
        for xm_m, xm_n in fixtures:
            mut = lie.lie_induced_actions(xm_m, xm_n)
            pp = lie.lie_peiffer(mut)
            q_m, q_n = peiffer_xmods(pp)
            if not (lie.check_lie_xmod(q_m).ok and lie.check_lie_xmod(q_n).ok):
                ok = False
                break
            h = lie.lie_universal_map(pp, xm_m, xm_n)
            if not h.check().ok:
                ok = False
                break
    report(10, "Lie instantiation: compatibility, direct sum, crossed modules", ok)
