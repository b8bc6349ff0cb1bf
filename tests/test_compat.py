import pytest

from peiffer.actions import Action, conjugation_action, trivial_action
from peiffer.catalog import cyclic, symmetric_3
from peiffer.compat import (
    M_SIDE,
    N_SIDE,
    MutualActions,
    check_compatible,
    coproduct_eval,
)
from peiffer.groups import GroupError
from peiffer.lie import LieAlgebra, LieError

from lie_data import mats, trivial_lie_action, upper_triangular

S3 = symmetric_3()
Z2 = cyclic(2)


def trivial_mut(M, N):
    return MutualActions(trivial_action(N, M), trivial_action(M, N))


def conj_mut(G):
    return MutualActions(conjugation_action(G), conjugation_action(G))


def s3_z2_incompatible():
    """Z2 acts on S3 by conjugation with a transposition, S3 trivially on Z2."""
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    xi_nm = Action(Z2, S3, (tuple(range(6)), tuple(S3.conj(t, x) for x in range(6))))
    return MutualActions(xi_nm, trivial_action(S3, Z2))


def test_mutual_actions_reject_mismatch():
    with pytest.raises(GroupError):
        MutualActions(trivial_action(Z2, S3), trivial_action(Z2, S3))


def test_coproduct_eval_empty_word():
    mut = conj_mut(S3)
    for x in S3.elements():
        assert coproduct_eval(mut, (), M_SIDE, x) == x


def test_coproduct_eval_single_letters():
    mut = s3_z2_incompatible()
    for n in Z2.elements():
        for x in S3.elements():
            assert coproduct_eval(mut, ((N_SIDE, n),), M_SIDE, x) == mut.xi_nm.table[n][x]
    for m in S3.elements():
        for x in S3.elements():
            assert coproduct_eval(mut, ((M_SIDE, m),), M_SIDE, x) == S3.conj(m, x)
    for m in S3.elements():
        for x in Z2.elements():
            assert coproduct_eval(mut, ((M_SIDE, m),), N_SIDE, x) == mut.xi_mn.table[m][x]


def test_coproduct_eval_trivial_sandwich():
    mut = trivial_mut(S3, Z2)
    for m in S3.elements():
        word = ((M_SIDE, m), (N_SIDE, 1), (M_SIDE, S3.inv(m)))
        for x in S3.elements():
            assert coproduct_eval(mut, word, M_SIDE, x) == x


def test_coproduct_eval_reduction_invariant(family):
    # inserting identity letters or merging neighbours cannot change values
    mut = conj_mut(S3)
    word = ((M_SIDE, 2), (M_SIDE, 3), (N_SIDE, 1), (M_SIDE, 0))
    merged = ((M_SIDE, S3.mul(2, 3)), (N_SIDE, 1))
    padded = ((M_SIDE, 2), (N_SIDE, S3.identity), (M_SIDE, 3), (N_SIDE, 1), (M_SIDE, 0))
    for x in S3.elements():
        base = coproduct_eval(mut, word, M_SIDE, x)
        assert coproduct_eval(mut, merged, M_SIDE, x) == base
        assert coproduct_eval(mut, padded, M_SIDE, x) == base


def test_unconditional_equations_hold_for_all_fixtures(family):
    # the sandwich through the target's own side always equals conjugation
    # by the acted element, even for incompatible pairs
    for rec in family:
        mut = rec.mut
        M, N = mut.M, mut.N
        for n in N.elements():
            for m in M.elements():
                nm = mut.xi_nm.table[n][m]
                word = ((N_SIDE, n), (M_SIDE, m), (N_SIDE, N.inv(n)))
                for m2 in M.elements():
                    assert coproduct_eval(mut, word, M_SIDE, m2) == M.conj(nm, m2)


def test_trivial_actions_compatible():
    assert check_compatible(trivial_mut(S3, Z2)).compatible
    assert check_compatible(trivial_mut(cyclic(4), cyclic(6))).compatible


def test_mutual_conjugation_compatible():
    assert check_compatible(conj_mut(S3)).compatible


def test_s3_z2_fixture_incompatible():
    verdict = check_compatible(s3_z2_incompatible())
    assert not verdict.compatible
    w = verdict.witness
    assert w is not None and w.lhs != w.rhs
    # re-evaluating the witness reproduces the disagreement
    mut = s3_z2_incompatible()
    if w.equation == 1:
        mn = mut.xi_mn.table[w.m][w.n]
        word = ((M_SIDE, w.m), (N_SIDE, w.n), (M_SIDE, S3.inv(w.m)))
        assert mut.xi_nm.table[mn][w.other] == w.lhs
        assert coproduct_eval(mut, word, M_SIDE, w.other) == w.rhs


def test_witness_is_deterministic():
    w1 = check_compatible(s3_z2_incompatible()).witness
    w2 = check_compatible(s3_z2_incompatible()).witness
    assert w1 == w2


def test_check_compatible_symmetric_under_swap(family):
    for rec in family:
        assert rec.verdict.compatible == check_compatible(rec.mut.swapped()).compatible


@pytest.mark.parametrize("trivial, N, M, error, noun", [
    (trivial_action, Z2, S3, GroupError, "groups"),
    (trivial_lie_action, LieAlgebra(1, mats(upper_triangular(1))),
     LieAlgebra(3, mats(upper_triangular(2))), LieError, "algebras"),
], ids=["groups", "lie"])
def test_mutual_actions_that_do_not_match_up_raise_the_error_of_their_category(trivial, N, M, error, noun):
    # N acts on M twice, so neither action is the other's partner
    with pytest.raises(error, match=f"^mutual actions: {noun} do not match up$") as exc:
        MutualActions(trivial(N, M), trivial(N, M))
    assert exc.type is error
    assert isinstance(repr(MutualActions(trivial(N, M), trivial(M, N))), str)


@pytest.mark.parametrize("trivial, N, M", [
    (trivial_action, Z2, S3),
    (trivial_lie_action, LieAlgebra(1, mats(upper_triangular(1))), LieAlgebra(3, mats(upper_triangular(2)))),
], ids=["groups", "lie"])
def test_equal_mutual_actions_hash_equal(trivial, N, M):
    # two pairs built apart: equal, but no action object is shared
    a, b = (MutualActions(trivial(N, M), trivial(M, N)) for _ in range(2))
    assert a == b and a.xi_nm is not b.xi_nm
    assert hash(a) == hash(b) and len({a, b}) == 1
