import pytest

from peiffer import actions
from peiffer.actions import (
    Action,
    check_action_table,
    conjugation_action,
    enumerate_actions,
    pullback_action,
    semidirect,
    trivial_action,
)
from peiffer.catalog import cyclic, klein_four, symmetric_3
from peiffer.groups import GroupError, Hom, direct_product, is_isomorphic

from constructions import Point, compose, point_to_action, subgroup_group

S3 = symmetric_3()
Z2 = cyclic(2)
Z3 = cyclic(3)


def inversion_action():
    return Action(Z2, Z3, (tuple(range(3)), (0, 2, 1)))


def test_check_action_table_accepts_conjugation():
    assert check_action_table(S3, S3, conjugation_action(S3).table).ok


def test_check_action_table_fails_loudly_if_the_generator_pass_fails_a_valid_table(monkeypatch):
    # the full scan runs only when _generators_act fails, and it fails only
    # when some axiom does, so a scan that finds none is a broken invariant
    monkeypatch.setattr(actions, "_generators_act", lambda *args: False)
    with pytest.raises(AssertionError, match="satisfies every action axiom"):
        check_action_table(S3, S3, conjugation_action(S3).table)
    assert not check_action_table(Z2, Z3, [[0, 1, 2], [0, 1, 1]]).ok


@pytest.mark.parametrize("row", [[0.3, 1.9], [0, 1.9], [0, True], [0, "1"]])
def test_action_check_refuses_non_integer_entries(row):
    # int() would turn each row into (0, 1) and accept the table
    with pytest.raises(GroupError, match="action axioms failed: entry out of range"):
        check_action_table(Z2, Z2, [[0, 1], row]).expect("action axioms")


def test_action_check_reports_an_out_of_range_entry_by_position_in_a_bounded_form():
    assert check_action_table(Z2, Z2, [[0, 1], [5, 0]]).witness == (1, 0, 5)
    deep = [0]
    for _ in range(900):
        deep = [deep]
    assert check_action_table(Z2, Z2, [[0, 1], [deep, 0]]).witness == (1, 0, "[[[[[[[...]]]]]]]")


def test_action_without_check_keeps_its_rows():
    rows = ((0, 1, 2), (0, 2, 1))
    act = Action(Z2, Z3, rows)
    assert all(a is b for a, b in zip(act.table, rows))


def test_conjugation_action_is_built_once_per_group():
    G = symmetric_3()
    assert conjugation_action(G) is conjugation_action(G)
    # an equal group is another object, with its own copy
    assert conjugation_action(symmetric_3()) == conjugation_action(G)
    assert conjugation_action(symmetric_3()) is not conjugation_action(G)


def test_check_action_table_rejects_bad_unit():
    d = check_action_table(Z2, Z3, ((0, 2, 1), (0, 2, 1)))
    assert not d.ok and d.reason == "unit axiom fails"


def test_check_action_table_rejects_bad_composition():
    # every row is an automorphism of Z3, but the generator of Z4 acts by
    # inversion while its square also inverts, so psi(1+1, x) != psi(1, psi(1, x))
    Z4 = cyclic(4)
    table = ((0, 1, 2), (0, 2, 1), (0, 2, 1), (0, 1, 2))
    d = check_action_table(Z4, Z3, table)
    assert not d.ok and d.reason == "composition axiom fails"


def test_check_action_table_rejects_non_automorphism_row():
    # the nontrivial shift x -> x+1 is a bijection but not multiplicative
    table = (tuple(range(3)), (1, 2, 0))
    d = check_action_table(Z2, Z3, table)
    assert not d.ok


def test_trivial_and_pullback():
    psi = inversion_action()
    quo = Hom(cyclic(4), Z2, (0, 1, 0, 1))
    pulled = pullback_action(quo, psi)
    assert pulled.acting.order == 4
    assert pulled.table[1] == psi.table[1]
    assert pulled.table[2] == psi.table[0]
    assert check_action_table(pulled.acting, pulled.target, pulled.table).ok


def test_pullback_functorial():
    psi = conjugation_action(S3)
    A3 = [x for x in S3.elements() if S3.element_order(x) in (1, 3)]
    H, incl = subgroup_group(S3, A3)
    ident = Hom(S3, S3, range(6))
    via_both = pullback_action(incl, pullback_action(ident, psi))
    direct = pullback_action(compose(ident, incl), psi)
    assert via_both == direct


def test_semidirect_trivial_is_direct_product():
    psi = trivial_action(Z2, S3)
    sd = semidirect(psi)
    assert sd.group.order == 12
    assert is_isomorphic(sd.group, direct_product(S3, Z2)) is not None


def test_semidirect_conjugation_on_z3():
    sd = semidirect(inversion_action())
    assert sd.group.order == 6
    assert is_isomorphic(sd.group, S3) is not None


def test_semidirect_conjugation_action_gives_product():
    # acting on itself by conjugation still yields a group isomorphic to GxG
    sd = semidirect(conjugation_action(S3))
    assert is_isomorphic(sd.group, direct_product(S3, S3)) is not None


def test_semidirect_indexing_convention():
    psi = inversion_action()
    sd = semidirect(psi)
    na = Z2.order
    # (x,a)(x',a') = (x + psi(a,x'), a+a') at index x*|A|+a
    for x in range(3):
        for a in range(2):
            for x2 in range(3):
                for a2 in range(2):
                    got = sd.group.mul(x * na + a, x2 * na + a2)
                    want = Z3.table[x][psi.table[a][x2]] * na + Z2.table[a][a2]
                    assert got == want


def test_semidirect_cap():
    with pytest.raises(GroupError):
        semidirect(trivial_action(Z2, S3), cap=11)


def test_point_validates():
    sd = semidirect(inversion_action())
    pt = Point(sd.pi, sd.jA)
    assert pt.p(pt.s(1)) == 1
    with pytest.raises(GroupError):
        Point(sd.jX, sd.pi)  # mismatched domains
    with pytest.raises(GroupError, match="^point: p o s is not the identity$"):
        Point(sd.pi, Hom(Z2, sd.group, (sd.group.identity,) * 2))


def test_point_to_action_round_trip():
    for psi in (
        trivial_action(Z2, S3),
        inversion_action(),
        conjugation_action(S3),
        conjugation_action(klein_four()),
    ):
        sd = semidirect(psi)
        back, incl = point_to_action(Point(sd.pi, sd.jA))
        # kernel coordinates: incl composed with jX's inverse is x -> x
        order = {incl(i): i for i in range(back.target.order)}
        relabel = [order[sd.jX(x)] for x in range(psi.target.order)]
        for a in range(psi.acting.order):
            for x in range(psi.target.order):
                assert back.table[a][relabel[x]] == relabel[psi.table[a][x]]


def test_point_to_action_refuses_a_p_that_is_no_hom():
    # "kernel" {e, (12)}, which is not normal, and a section through a 3-cycle
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    c = next(x for x in S3.elements() if S3.element_order(x) == 3)
    p = Hom(S3, Z2, [0 if x in (S3.identity, t) else 1 for x in S3.elements()])
    s = Hom(Z2, S3, (S3.identity, c))
    with pytest.raises(GroupError, match="conjugate leaves the subgroup"):
        point_to_action(Point(p, s))


def test_enumerate_actions_counts():
    # Aut(Z3) = Z2, so Z2 can act trivially or by inversion
    acts = enumerate_actions(Z2, Z3)
    assert len(acts) == 2
    assert trivial_action(Z2, Z3) in acts
    assert inversion_action() in acts
    # Z3 on Z2: Aut(Z2) trivial
    assert len(enumerate_actions(Z3, Z2)) == 1
    for act in enumerate_actions(S3, S3):
        assert check_action_table(S3, S3, act.table).ok


def test_pullback_along_identity():
    psi = conjugation_action(S3)
    assert pullback_action(Hom(S3, S3, range(6)), psi) == psi


def test_semidirect_of_round_tripped_action_is_isomorphic():
    for psi in (trivial_action(Z2, S3), inversion_action(), conjugation_action(Z3)):
        sd = semidirect(psi)
        back, _ = point_to_action(Point(sd.pi, sd.jA))
        sd2 = semidirect(back)
        assert is_isomorphic(sd.group, sd2.group) is not None
