import pytest

from peiffer.actions import conjugation_action, pullback_action, trivial_action
from peiffer.catalog import cyclic, klein_four, symmetric_3
from peiffer.compat import check_compatible
from peiffer.groups import GroupError, Hom, identity_hom
from peiffer.lie import LieAlgebra, LieError, pullback_lie_action
from peiffer.xmod import CrossedModule, check_xmod, induced_mutual_actions

from constructions import identity_xmod, inclusion_xmod, subgroup_group
from lie_data import identity_lie_map, mats, upper_triangular

S3 = symmetric_3()


def a3_into_s3():
    A3 = [x for x in S3.elements() if S3.element_order(x) in (1, 3)]
    _, incl = subgroup_group(S3, A3)
    return inclusion_xmod(S3, incl)


def test_identity_xmod_valid():
    for G in (cyclic(4), klein_four(), S3):
        assert check_xmod(identity_xmod(G)).ok


def test_inclusion_xmod_valid():
    assert check_xmod(a3_into_s3()).ok


def test_inclusion_xmod_rejects_non_normal():
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    _, incl = subgroup_group(S3, frozenset({S3.identity, t}))
    with pytest.raises(GroupError):
        inclusion_xmod(S3, incl)


def test_inclusion_xmod_rejects_a_map_that_is_not_injective():
    with pytest.raises(GroupError, match="^expected an injective map into G$"):
        inclusion_xmod(S3, Hom(cyclic(2), S3, (S3.identity,) * 2))


def test_zero_map_fails_peiffer():
    Z1 = cyclic(1)
    zero = Hom(S3, Z1, (0,) * 6)
    xm = CrossedModule(zero, trivial_action(Z1, S3))
    d = check_xmod(xm)
    assert not d.ok
    assert d.reason == "Peiffer identity fails"
    x, x2 = d.witness
    assert S3.conj(x, x2) != x2


def test_witness_order_is_lexicographic():
    Z1 = cyclic(1)
    zero = Hom(S3, Z1, (0,) * 6)
    d = check_xmod(CrossedModule(zero, trivial_action(Z1, S3)))
    # first (x, x') in lex order with x x' x^-1 != x'
    expected = next(
        (x, y)
        for x in S3.elements()
        for y in S3.elements()
        if S3.conj(x, y) != y
    )
    assert d.witness == expected


def test_induced_mutual_actions_formula():
    xm_m = a3_into_s3()
    xm_n = identity_xmod(S3)
    mut = induced_mutual_actions(xm_m, xm_n)
    A3 = xm_m.X
    incl = xm_m.boundary
    # N = S3 acts on A3 by conjugation inside S3
    for n in S3.elements():
        for i in range(A3.order):
            assert incl(mut.xi_nm.table[n][i]) == S3.conj(n, incl(i))
    # M = A3 acts on S3 by conjugation via the inclusion
    for i in range(A3.order):
        for x in S3.elements():
            assert mut.xi_mn.table[i][x] == S3.conj(incl(i), x)


def test_induced_mutual_actions_requires_common_base():
    with pytest.raises(GroupError):
        induced_mutual_actions(identity_xmod(S3), identity_xmod(cyclic(2)))


def test_trivial_base_gives_trivial_actions():
    Z1 = cyclic(1)
    xm = CrossedModule(Hom(Z1, Z1, (0,)), trivial_action(Z1, Z1))
    mut = induced_mutual_actions(xm, xm)
    assert mut.xi_nm.table == ((0,),)


def test_induced_actions_are_compatible():
    fixtures = [
        (identity_xmod(S3), identity_xmod(S3)),
        (a3_into_s3(), identity_xmod(S3)),
        (identity_xmod(klein_four()), identity_xmod(klein_four())),
    ]
    for xm_m, xm_n in fixtures:
        assert check_compatible(induced_mutual_actions(xm_m, xm_n)).compatible


@pytest.mark.parametrize("identity, adjoint, pullback, X, A, error", [
    (identity_hom, conjugation_action, pullback_action, S3, cyclic(2), GroupError),
    (identity_lie_map, lambda A: A.adjoint, pullback_lie_action, LieAlgebra(3, mats(upper_triangular(2))),
     LieAlgebra(1, mats(upper_triangular(1))), LieError),
], ids=["groups", "lie"])
def test_a_boundary_and_an_action_that_do_not_match_raise_the_error_of_their_category(
        identity, adjoint, pullback, X, A, error):
    with pytest.raises(error, match="^crossed module: boundary and action do not match$") as exc:
        CrossedModule(identity(X), adjoint(A))
    assert exc.type is error
    # nor can the action be pulled back along that map
    with pytest.raises(error, match="^pullback: codomain does not match the acting ") as exc:
        pullback(identity(X), adjoint(A))
    assert exc.type is error
    assert isinstance(repr(CrossedModule(identity(X), adjoint(X))), str)

