"""The row kernels of the group pipeline against element-wise references.

Each reference below is the element-at-a-time form of a check or
construction that now works on whole table rows.  The two must agree on
verdicts and on the lexicographically first witness, for valid inputs and
for corrupted ones.
"""
import random
import re
from itertools import permutations, product as iproduct

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import peiffer.actions
import peiffer.groups
import peiffer.product
import peiffer.xmod
from peiffer.actions import Action, check_action_table, enumerate_actions, semidirect, trivial_action
from peiffer.catalog import (
    cyclic,
    enumerate_family,
    enumerate_mutual_actions,
    klein_four,
    symmetric_3,
)
from peiffer.compat import (
    M_SIDE,
    N_SIDE,
    CompatVerdict,
    CompatWitness,
    MutualActions,
    check_compatible,
    coproduct_eval,
)
from peiffer.groups import (
    VALID,
    Diagnosis,
    FiniteGroup,
    Hom,
    GroupError,
    _axioms,
    _greedy_generators,
    all_homs,
    automorphisms,
    direct_product,
    is_normal,
    normal_closure,
    quotient,
)
from peiffer.product import (
    PeifferProduct,
    induced_actions,
    peiffer_product,
    peiffer_relators,
    peiffer_xmods,
    strong_relation_check,
    universal_map,
)
from peiffer.xmod import CrossedModule, check_xmod

from constructions import compose, kernel, two_generator_groups

fixture_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


# ---------------------------------------------------------------- references


def ref_axioms(table, check):
    """Identity by search over every element, inverses by search per row."""
    n = len(table)
    if n == 0:
        return Diagnosis(False, "empty table", ())
    if check:
        for i, row in enumerate(table):
            if len(row) != n:
                return Diagnosis(False, "table is not square", (i,))
            for j, v in enumerate(row):
                if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                    return Diagnosis(False, "entry out of range", (i, j, v))
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return Diagnosis(False, "no identity element", ())
    inverses = []
    for x in range(n):
        invs = [y for y in range(n) if table[x][y] == identity and table[y][x] == identity]
        if not invs:
            return Diagnosis(False, f"no inverse for element {x}", (x,))
        if len(invs) > 1:
            return Diagnosis(False, f"inverse of element {x} not unique", (x,))
        inverses.append(invs[0])
    if check:
        for a in range(n):
            for b in range(n):
                for c in range(n):
                    if table[table[a][b]][c] != table[a][table[b][c]]:
                        return Diagnosis(False, "associativity fails", (a, b, c))
    return identity, tuple(inverses)


def ref_check_action_table(acting, target, table):
    """Every axiom on every element: unit, composition, automorphism rows."""
    if len(table) != acting.order or any(len(row) != target.order for row in table):
        return Diagnosis(False, "table dimensions do not match the groups", ())
    for row in table:
        for v in row:
            if not 0 <= v < target.order:
                return Diagnosis(False, "entry out of range", (v,))
    e = acting.identity
    for x in range(target.order):
        if table[e][x] != x:
            return Diagnosis(False, "unit axiom fails", (x,))
    for a in range(acting.order):
        for b in range(acting.order):
            ab = acting.table[a][b]
            for x in range(target.order):
                if table[ab][x] != table[a][table[b][x]]:
                    return Diagnosis(False, "composition axiom fails", (a, b, x))
    for a in range(acting.order):
        row = table[a]
        if len(set(row)) != target.order:
            return Diagnosis(False, "row is not a bijection", (a,))
        for x in range(target.order):
            for y in range(target.order):
                if row[target.table[x][y]] != target.table[row[x]][row[y]]:
                    return Diagnosis(False, "row is not an automorphism", (a, x, y))
    return VALID


def ref_check_compatible(mut):
    for equation, pair in ((1, mut), (2, mut.swapped())):
        A, B = pair.M, pair.N
        for a in A.elements():
            for b in B.elements():
                ab = pair.xi_mn.table[a][b]
                word = ((M_SIDE, a), (N_SIDE, b), (M_SIDE, A.inv(a)))
                for x in A.elements():
                    lhs = pair.xi_nm.table[ab][x]
                    rhs = coproduct_eval(pair, word, M_SIDE, x)
                    if lhs != rhs:
                        m, n = (a, b) if equation == 1 else (b, a)
                        return CompatVerdict(False, CompatWitness(equation, m, n, x, lhs, rhs))
    return CompatVerdict(True)


def ref_induced_tables(mut, proj, order):
    """The first disagreement across a coset, or the induced action tables.

    proj sends each index m |N| + n of M x| N to its coset, of order many.
    """
    groups = (mut.M, mut.N)
    nn = mut.N.order
    tabs = [[[None] * G.order for _ in range(order)] for G in groups]
    rep_of = [None] * order
    for s, p in enumerate(proj):
        m, n = divmod(s, nn)
        word = ((M_SIDE, m), (N_SIDE, n))
        if rep_of[p] is None:
            rep_of[p] = s
        for side, G in enumerate(groups):
            row = tabs[side][p]
            for x in G.elements():
                v = coproduct_eval(mut, word, side, x)
                if row[x] is None:
                    row[x] = v
                elif row[x] != v:
                    return (p, rep_of[p], s, side, x, row[x], v)
    return tuple(tuple(tuple(row) for row in tab) for tab in tabs)


def ref_strong_relation_check(pp, bound=2):
    induced_actions(pp)
    mut = pp.source
    M, N, P = mut.M, mut.N, pp.product
    letters = [(M_SIDE, m) for m in M.elements() if m != M.identity]
    letters += [(N_SIDE, n) for n in N.elements() if n != N.identity]
    ells = (pp.lM, pp.lN)
    for length in range(bound + 1):
        for word in iproduct(letters, repeat=length):
            q = P.identity
            for s, g in word:
                q = P.mul(q, ells[s](g))
            for side in (M_SIDE, N_SIDE):
                ell = ells[side]
                for x in (M, N)[side].elements():
                    lhs = ell(coproduct_eval(mut, word, side, x))
                    rhs = P.conj(q, ell(x))
                    if lhs != rhs:
                        return Diagnosis(
                            False,
                            "conjugation does not match the word action",
                            (word, side, x, lhs, rhs),
                        )
    return VALID


def ref_check_xmod(xm):
    X, A = xm.X, xm.A
    d, psi = xm.boundary, xm.action
    for a in A.elements():
        for x in X.elements():
            if d(psi.table[a][x]) != A.conj(a, d(x)):
                return Diagnosis(False, "boundary is not equivariant", (a, x))
    for x in X.elements():
        for x2 in X.elements():
            if psi.table[d(x)][x2] != X.conj(x, x2):
                return Diagnosis(False, "Peiffer identity fails", (x, x2))
    return VALID


def ref_hom_check(f):
    """Length, range and the identity, then f(a b) = f(a) f(b) for every a and b."""
    mp = f.mapping
    if len(mp) != f.dom.order:
        return Diagnosis(False, "map length does not match the domain order", (len(mp),))
    for x, v in enumerate(mp):
        if not 0 <= v < f.cod.order:
            return Diagnosis(False, "map value out of range", (x, v))
    if mp[f.dom.identity] != f.cod.identity:
        return Diagnosis(False, "identity not preserved", (f.dom.identity,))
    for a in f.dom.elements():
        for b in f.dom.elements():
            if mp[f.dom.mul(a, b)] != f.cod.mul(mp[a], mp[b]):
                return Diagnosis(False, "not multiplicative", (a, b))
    return VALID


def ref_semidirect_table(psi):
    X, A = psi.target, psi.acting
    na = A.order
    n = X.order * na
    table = [[0] * n for _ in range(n)]
    for x in range(X.order):
        for a in range(na):
            row = table[x * na + a]
            for x2 in range(X.order):
                xx = X.table[x][psi.table[a][x2]]
                for a2 in range(na):
                    row[x2 * na + a2] = xx * na + A.table[a][a2]
    return tuple(tuple(row) for row in table)


def ref_relators(sd, mut):
    S, jM, jN = sd.group, sd.jX, sd.jA
    return tuple(sorted({
        S.mul(S.mul(jM(m), jN(n)), S.mul(S.inv(jM(m)), S.inv(jN(mut.xi_mn.table[m][n]))))
        for m in mut.M.elements()
        for n in mut.N.elements()
    }))


def ref_peiffer_product(mut):
    """The Peiffer product the literal way: build all of M x| N, close the
    relators under conjugation by every element of it, and partition it.

    Returns P, the projection, lM, lN, and the induced tables or the first
    disagreement.
    """
    sd = semidirect(mut.xi_nm)
    K = normal_closure(sd.group, ref_relators(sd, mut))
    P, proj = quotient(sd.group, K)
    induced = ref_induced_tables(mut, proj.mapping, P.order)
    return P, proj, compose(proj, sd.jX), compose(proj, sd.jA), induced


def assert_product_matches_reference(mut):
    pp = peiffer_product(mut)
    P, proj, lM, lN, induced = ref_peiffer_product(mut)
    got = pp.product
    assert (got.table, got.identity, got.inverses) == (P.table, P.identity, P.inverses)
    assert pp.proj == proj.mapping
    assert (pp.lM.mapping, pp.lN.mapping) == (lM.mapping, lN.mapping)
    if pp.compatible:
        assert tuple(act.table for act in pp.actions) == induced
    else:
        assert pp.disagreement == induced
    return pp


def relabel_group(G):
    """G with every index moved up by one (mod |G|): the identity leaves 0."""
    n = G.order
    table = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            table[(a + 1) % n][(b + 1) % n] = (G.table[a][b] + 1) % n
    return FiniteGroup(table)


def relabel_action(act, groups):
    """An action moved along with its groups; groups maps each old group to its copy."""
    A, X = act.acting, act.target
    na, nx = A.order, X.order
    table = [[0] * nx for _ in range(na)]
    for a in range(na):
        for x in range(nx):
            table[(a + 1) % na][(x + 1) % nx] = (act.table[a][x] + 1) % nx
    return Action(groups[A], groups[X], table)


def relabel_pair(mut, groups):
    return MutualActions(relabel_action(mut.xi_nm, groups), relabel_action(mut.xi_mn, groups))


def symmetric_4():
    perms = sorted(permutations(range(4)))
    index = {p: i for i, p in enumerate(perms)}
    return FiniteGroup([[index[tuple(p[q[k]] for k in range(4))] for q in perms] for p in perms])


# ------------------------------------------------------ the session family


def test_family_products_match_the_materialised_quotient(family):
    # every pair in both orientations, on groups whose identity is at index 1
    groups = {}
    for rec in family:
        for G in (rec.mut.M, rec.mut.N):
            groups.setdefault(G, relabel_group(G))
    moved = 0
    for rec in family:
        mut = relabel_pair(rec.mut, groups)
        for pair in (mut, mut.swapped()):
            pp = assert_product_matches_reference(pair)
            moved += pp.product.identity != 0
    assert moved > 0


def test_products_with_a_trivial_group_match_the_materialised_quotient():
    # a side of order 1 hands itemgetter a single index
    Z1 = cyclic(1)
    for G in (Z1, cyclic(2), relabel_group(cyclic(3)), relabel_group(symmetric_3())):
        for mut in enumerate_mutual_actions(Z1, G):
            for pair in (mut, mut.swapped()):
                pp = assert_product_matches_reference(pair)
                assert pp.product.order == G.order


def test_products_of_s3_and_z2_cubed_match_the_materialised_quotient():
    # Aut(Z2^3) has order 168, so the pairs are many and varied: here K
    # often needs several relators to generate it, which no catalog pair does
    Z2 = cyclic(2)
    Z2_cubed = direct_product(direct_product(Z2, Z2), Z2)
    for mut in enumerate_mutual_actions(symmetric_3(), Z2_cubed)[::7]:
        for pair in (mut, mut.swapped()):
            assert_product_matches_reference(pair)


def test_trivial_actions_of_s4_and_z20_match_the_materialised_quotient():
    # no relator is nontrivial, so P is all 480 elements of M x| N
    S4, Z20 = relabel_group(symmetric_4()), relabel_group(cyclic(20))
    mut = MutualActions(trivial_action(Z20, S4), trivial_action(S4, Z20))
    for pair in (mut, mut.swapped()):
        assert assert_product_matches_reference(pair).product.order == 480


def swap_pair(k):
    """Z2 swapping the two Z2 factors of M = Z2 x Z2 x Z_k, and M acting trivially on Z2.

    The relators m swap(m)^-1 = (a + b, a + b, 0) make K of order 2.
    """
    Z2 = cyclic(2)
    M = direct_product(direct_product(Z2, Z2), cyclic(k))
    # (a, b, c) is the index (2a + b) k + c
    swap = [(2 * (i % 2) + i // 2) * k + c for i in range(4) for c in range(k)]
    return MutualActions(Action(Z2, M, [range(M.order), swap]), trivial_action(M, Z2))


def test_products_with_a_kernel_of_order_two_match_the_materialised_quotient():
    # a proper quotient whose table is read at half the indices of M x| N
    mut = swap_pair(15)
    for pair in (mut, mut.swapped()):
        assert len(peiffer.product._relator_subgroup(pair)) == 2
        assert assert_product_matches_reference(pair).product.order == 60


def test_peiffer_product_builds_no_semidirect_product(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the Peiffer product built M x| N or partitioned it")

    for module in (peiffer.actions, peiffer.product):
        monkeypatch.setattr(module, "semidirect", refuse)
    for module in (peiffer.groups, peiffer.product):
        monkeypatch.setattr(module, "quotient", refuse)
    monkeypatch.setattr(peiffer.groups, "normal_closure", refuse)
    S3, Z2 = symmetric_3(), cyclic(2)
    built = [peiffer_product(pair) for mut in enumerate_mutual_actions(S3, Z2)
             for pair in (mut, mut.swapped())]
    assert {pp.compatible for pp in built} == {True, False}
    monkeypatch.undo()
    for pp in built:
        # M x| N is still there on demand, and proj is its projection
        assert pp.semidirect.group.order == len(pp.proj) == 12
        assert Hom(pp.semidirect.group, pp.product, pp.proj).check().ok




def test_family_compat_and_disagreement_match_references(family):
    incompatible = 0
    for rec in family:
        assert rec.verdict == ref_check_compatible(rec.mut)
        want = ref_induced_tables(rec.mut, rec.pp.proj, rec.pp.product.order)
        if rec.pp.compatible:
            assert tuple(act.table for act in rec.pp.actions) == want
        else:
            incompatible += 1
            assert rec.pp.disagreement == want
            assert rec.verdict.witness is not None
    assert incompatible == 431


def test_family_checks_match_references(family):
    for rec in family:
        mut, pp = rec.mut, rec.pp
        for psi in (mut.xi_nm, mut.xi_mn):
            assert semidirect(psi).group.table == ref_semidirect_table(psi)
            assert check_action_table(psi.acting, psi.target, psi.table).ok
        assert peiffer_relators(mut)[1] == ref_relators(pp.semidirect, mut)
        if not pp.compatible:
            continue
        for act in pp.actions:
            assert ref_check_action_table(act.acting, act.target, act.table).ok
            assert check_action_table(act.acting, act.target, act.table).ok
        for xm in peiffer_xmods(pp):
            assert check_xmod(xm) == ref_check_xmod(xm) == VALID
        for bound in (2, 3):
            got = strong_relation_check(pp, bound)
            assert got == ref_strong_relation_check(pp, bound) == VALID


def test_family_constructions_hand_over_what_the_checks_find(family):
    # semidirect and quotient hand their identity and inverses to the group
    # they build, and peiffer_product passes its normal closure to quotient
    # unchecked; the search and the normality test stay here as the oracle
    for rec in family:
        mut, pp = rec.mut, rec.pp
        S = pp.semidirect.group
        groups = [semidirect(psi).group for psi in (mut.xi_nm, mut.xi_mn)] + [pp.product]
        for G in groups:
            assert _axioms(G.table, check=False) == (G.identity, G.inverses)
        K = normal_closure(S, peiffer_relators(mut)[1])
        assert is_normal(S, K)
        assert K == kernel(Hom(S, pp.product, pp.proj))


# --------------------------------------------------------- corrupted inputs


@pytest.fixture(scope="session")
def induced(family):
    """Induced actions of the compatible pairs, which have the largest acting groups."""
    return [act for rec in family if rec.pp.compatible for act in rec.pp.actions]


@fixture_settings
@given(st.data())
def test_action_check_matches_full_scan_on_swapped_entries(induced, data):
    act = data.draw(st.sampled_from(induced))
    n = act.target.order
    table = [list(row) for row in act.table]
    a = data.draw(st.integers(0, act.acting.order - 1))
    i, j = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, n - 1))
    table[a][i], table[a][j] = table[a][j], table[a][i]
    assert check_action_table(act.acting, act.target, table) == ref_check_action_table(
        act.acting, act.target, table
    )


def _relabelled_s3():
    """S3 with its identity at index 3, so the search does not stop at 0."""
    S3 = symmetric_3()
    sigma = (3, 0, 1, 2, 4, 5)
    table = [[0] * 6 for _ in range(6)]
    for a in range(6):
        for b in range(6):
            table[sigma[a]][sigma[b]] = sigma[S3.table[a][b]]
    return table


SMALL_TABLES = [cyclic(4).table, klein_four().table, _relabelled_s3()]


def test_axioms_match_search_on_every_single_cell_change():
    reasons = set()
    for table in SMALL_TABLES:
        n = len(table)
        for a, b, v in iproduct(range(n), range(n), range(n)):
            bad = [list(row) for row in table]
            bad[a][b] = v
            for check in (False, True):
                want = ref_axioms(bad, check)
                assert _axioms(bad, check) == want
                if isinstance(want, Diagnosis):
                    reasons.add(re.sub(r"\d+", "x", want.reason))
    # every failure is reached
    assert reasons == {
        "no identity element",
        "no inverse for element x",
        "inverse of element x not unique",
        "associativity fails",
    }


def test_constructions_hand_over_structure_with_the_identity_elsewhere():
    # every catalog group, and every product built from them, has its
    # identity at index 0; here neither factor does
    S3, Z2 = FiniteGroup(_relabelled_s3()), FiniteGroup([[1, 0], [0, 1]])
    moved = 0
    for mut in enumerate_mutual_actions(S3, Z2):
        for pair in (mut, mut.swapped()):
            pp = peiffer_product(pair)
            for G in (pp.semidirect.group, pp.product):
                assert _axioms(G.table, check=False) == (G.identity, G.inverses)
            moved += pp.product.identity != 0
    assert moved > 0


@fixture_settings
@given(st.data())
def test_axioms_match_search_on_a_changed_cell(family, data):
    G = data.draw(st.sampled_from([rec.pp.product for rec in family[::7]]))
    n = G.order
    bad = [list(row) for row in G.table]
    a, b, v = (data.draw(st.integers(0, n - 1)) for _ in range(3))
    bad[a][b] = v
    check = data.draw(st.booleans())
    assert _axioms(bad, check) == ref_axioms(bad, check)


def check_strong_with_a_doctored_map(family, data, side):
    """The one-letter check against the reference at bounds 0-3, with one
    value of lM or lN changed, so that the map is not the product's own."""
    pp = data.draw(st.sampled_from([rec.pp for rec in family if rec.pp.compatible]))
    P = pp.product
    ells = [pp.lM, pp.lN]
    mapping = list(ells[side].mapping)
    g = data.draw(st.integers(0, len(mapping) - 1))
    mapping[g] = data.draw(st.integers(0, P.order - 1))
    ells[side] = Hom(ells[side].dom, P, mapping)
    doctored = PeifferProduct(P, pp.proj, *ells, pp.source, pp.actions, pp.disagreement)
    bound = data.draw(st.integers(0, 3))
    assert strong_relation_check(doctored, bound) == ref_strong_relation_check(doctored, bound)


@fixture_settings
@given(st.data())
def test_strong_check_matches_reference_with_a_doctored_lM(family, data):
    check_strong_with_a_doctored_map(family, data, M_SIDE)


@fixture_settings
@given(st.data())
def test_strong_check_matches_reference_with_a_doctored_lN(family, data):
    check_strong_with_a_doctored_map(family, data, N_SIDE)


def test_symmetry_check_honours_the_cap():
    # the products here have order 81 > the isomorphism search's default cap of 64
    family = enumerate_family(groups=[cyclic(9)], max_pair_order=81, cap=100)
    assert len(family) == 9
    assert all(rec.symmetric_ok for rec in family)


@fixture_settings
@given(st.data())
def test_xmod_check_matches_reference_with_a_doctored_boundary(family, data):
    pp = data.draw(st.sampled_from([rec.pp for rec in family if rec.pp.compatible]))
    xm = data.draw(st.sampled_from(peiffer_xmods(pp)))
    d = list(xm.boundary.mapping)
    x = data.draw(st.integers(0, len(d) - 1))
    d[x] = data.draw(st.integers(0, xm.A.order - 1))
    doctored = CrossedModule(Hom(xm.X, xm.A, d), xm.action)
    assert check_xmod(doctored) == ref_check_xmod(doctored)


def test_xmod_check_refuses_a_boundary_that_misses_the_identity_on_the_trivial_group():
    # X = 1 has no generators, so only d(e) = e keeps the generator pass
    # from passing a boundary that is not a hom: here d(e) is a
    # transposition of S3, which is not equivariant for the trivial action
    S3, one = symmetric_3(), cyclic(1)
    t = next(a for a in S3.elements() if S3.element_order(a) == 2)
    xm = CrossedModule(Hom(one, S3, [t]), trivial_action(S3, one))
    assert check_xmod(xm) == ref_check_xmod(xm)
    assert check_xmod(xm).reason == "boundary is not equivariant"


def test_action_check_needs_automorphism_rows():
    # left multiplication satisfies unit and composition, but its rows are
    # not automorphisms
    G = symmetric_3()
    table = G.table
    got = check_action_table(G, G, table)
    assert got == ref_check_action_table(G, G, table)
    assert got.reason == "row is not an automorphism"


def test_action_check_needs_every_generator():
    # Z2 x Z2 on Z5: the first greedy generator acts trivially and the
    # other by doubling, which has order 4, so only the second generator
    # breaks the composition axiom
    V, Z5 = klein_four(), cyclic(5)
    ident, double = tuple(range(5)), tuple(2 * x % 5 for x in range(5))
    table = (ident, ident, double, double)
    got = check_action_table(V, Z5, table)
    assert got == ref_check_action_table(V, Z5, table)
    assert got == Diagnosis(False, "composition axiom fails", (2, 2, 1))


# ----------------------------------- groups that need two or three generators
#
# Most catalog groups are cyclic, where a generator pass has one generator to
# check.  Here V4, S3, Z2 x Z4, D4, Q8 and Z2^3 meet each other: a pass that
# skips a generator misses the failures that only that generator shows.


class TwoGenerators:
    """Every action among the groups of two_generator_groups() with |A||X| <= 64,
    and a seeded sample of their mutual pairs, up to 60 for each ordered pair
    of groups; compatible holds the sample's compatible pairs, by the oracle."""

    def __init__(self):
        self.groups = two_generator_groups()
        self.actions = {
            (a, x): enumerate_actions(A, X)
            for a, A in self.groups.items()
            for x, X in self.groups.items()
            if A.order * X.order <= 64
        }
        rng, self.pairs = random.Random(0), []
        for m, n in self.actions:
            nm, mn = self.actions[n, m], self.actions[m, n]
            for k in rng.sample(range(len(nm) * len(mn)), min(60, len(nm) * len(mn))):
                self.pairs.append(MutualActions(nm[k // len(mn)], mn[k % len(mn)]))
        self.compatible = [mut for mut in self.pairs if ref_check_compatible(mut).compatible]

    def name(self, G):
        return next(k for k, H in self.groups.items() if H is G)


@pytest.fixture(scope="module")
def two_generators():
    return TwoGenerators()


def test_the_two_generator_sample_is_varied(two_generators):
    assert {len(_greedy_generators(G)) for G in two_generators.groups.values()} == {2, 3}
    assert len(two_generators.pairs) == 2160
    assert 200 < len(two_generators.compatible) < len(two_generators.pairs)


@fixture_settings
@given(st.data())
def test_two_generator_pairs_match_references(two_generators, data):
    mut = data.draw(st.sampled_from(two_generators.pairs))
    assert check_compatible(mut) == ref_check_compatible(mut)
    pp = peiffer_product(mut)
    want = ref_induced_tables(mut, pp.proj, pp.product.order)
    assert (tuple(act.table for act in pp.actions) if pp.compatible else pp.disagreement) == want


@fixture_settings
@given(st.data())
def test_two_generator_products_pass_their_checks(two_generators, data):
    mut = data.draw(st.sampled_from(two_generators.compatible))
    pp = peiffer_product(mut)
    for xm in peiffer_xmods(pp):
        assert check_xmod(xm) == ref_check_xmod(xm) == VALID
    assert strong_relation_check(pp, 2) == ref_strong_relation_check(pp, 2) == VALID
    h = universal_map(pp, *peiffer_xmods(pp))
    assert h.mapping == tuple(range(pp.product.order))


@fixture_settings
@given(st.data())
def test_two_generator_strong_check_with_another_hom(two_generators, data):
    # lM or lN after an automorphism of its domain, or the trivial map: a hom
    # that is not the product's own, so the generator pass decides
    pp = peiffer_product(data.draw(st.sampled_from(two_generators.compatible)))
    side = data.draw(st.sampled_from([M_SIDE, N_SIDE]))
    ells = [pp.lM, pp.lN]
    G = ells[side].dom
    alpha = data.draw(st.sampled_from([a.mapping for a in automorphisms(G)] + [(G.identity,) * G.order]))
    ells[side] = Hom(G, pp.product, [ells[side].mapping[v] for v in alpha])
    doctored = PeifferProduct(pp.product, pp.proj, *ells, pp.source, pp.actions, pp.disagreement)
    bound = data.draw(st.integers(1, 2))
    assert strong_relation_check(doctored, bound) == ref_strong_relation_check(doctored, bound)


@fixture_settings
@given(st.data())
def test_two_generator_universal_map_refuses_other_actions(two_generators, data):
    # the crossed modules of one compatible pair against the product of a pair
    # that shares one of its actions: the map exists exactly when the actions
    # they induce are that pair's
    mut = data.draw(st.sampled_from(two_generators.compatible))
    xm_m, xm_n = peiffer_xmods(peiffer_product(mut))
    m, n = two_generators.name(mut.M), two_generators.name(mut.N)
    if data.draw(st.booleans()):
        other = MutualActions(mut.xi_nm, data.draw(st.sampled_from(two_generators.actions[m, n])))
    else:
        other = MutualActions(data.draw(st.sampled_from(two_generators.actions[n, m])), mut.xi_mn)
    pp = peiffer_product(other)
    if peiffer.xmod.induced_mutual_actions(xm_m, xm_n) == other:
        assert universal_map(pp, xm_m, xm_n).mapping == tuple(range(pp.product.order))
    else:
        with pytest.raises(GroupError, match="do not induce the given actions"):
            universal_map(pp, xm_m, xm_n)


@fixture_settings
@given(st.data())
def test_two_generator_xmod_candidates_match_reference(two_generators, data):
    # every hom X -> A with every action of A on X: most are not crossed
    # modules, and their first failure is at any generator
    x, a = data.draw(st.sampled_from(sorted(k for k in two_generators.actions if k[0] != k[1])))
    X, A = two_generators.groups[x], two_generators.groups[a]
    d = data.draw(st.sampled_from(all_homs(X, A)))
    psi = data.draw(st.sampled_from(two_generators.actions[a, x]))
    xm = CrossedModule(d, psi)
    assert check_xmod(xm) == ref_check_xmod(xm)


def multiplicative_on_one_generator(G, H, phi, j, row, y):
    """phi changed on one right coset <g> r, g the j-th greedy generator of G,
    to g^k r -> phi(g)^k y: it still sends g x to phi(g) phi'(x) for every x."""
    g = _greedy_generators(G)[j]
    mp = list(phi)
    x, v = row, y
    for _ in range(G.element_order(g)):
        mp[x] = v
        x, v = G.mul(g, x), H.mul(phi[g], v)
    return mp


@fixture_settings
@given(st.data())
def test_hom_check_matches_full_scan_on_maps_multiplicative_for_one_generator(two_generators, data):
    names = st.sampled_from(sorted(two_generators.groups))
    G, H = (two_generators.groups[data.draw(names)] for _ in range(2))
    phi = data.draw(st.sampled_from(all_homs(G, H))).mapping
    j = data.draw(st.integers(0, len(_greedy_generators(G)) - 1))
    row = data.draw(st.integers(0, G.order - 1).filter(lambda r: r != G.identity))
    mp = multiplicative_on_one_generator(G, H, phi, j, row, data.draw(st.integers(0, H.order - 1)))
    f = Hom(G, H, mp)
    assert f.check() == ref_hom_check(f)


# a loop of order 6: a Latin square with identity 0 and two-sided inverses,
# not associative, whose element 1 reaches every element by right products
LOOP_6 = [
    [0, 1, 2, 3, 4, 5],
    [1, 4, 3, 5, 2, 0],
    [2, 5, 0, 4, 3, 1],
    [3, 2, 1, 0, 5, 4],
    [4, 3, 5, 1, 0, 2],
    [5, 0, 4, 2, 1, 3],
]


def test_associativity_check_needs_every_generator():
    # in L x Z3 the first greedy generator is (e, 1), which associates with
    # everything, and only the second fails; in Z3 x L it is the other way round
    L, Z3 = FiniteGroup(LOOP_6), cyclic(3)
    for G, passing in ((direct_product(L, Z3), 0), (direct_product(Z3, L), 1)):
        gens = _greedy_generators(G)
        assert len(gens) == 2
        T = G.table
        assert all(T[T[x][gens[passing]]][y] == T[x][T[gens[passing]][y]] for x in range(18) for y in range(18))
        got = _axioms(T, check=True)
        assert got == ref_axioms(T, True)
        assert got.reason == "associativity fails"


def test_row_tables_are_built_once_per_action(family):
    # every pair with the same action of N on M reads the same M-side rows
    for rec in family[:40]:
        for psi, side_rows in ((rec.mut.xi_nm, peiffer.product._m_side_rows),
                               (rec.mut.xi_mn, peiffer.product._n_side_rows)):
            assert side_rows(psi) is side_rows(psi)
            assert side_rows(psi) is vars(psi)[f"_{side_rows.__name__}"]
