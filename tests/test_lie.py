import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

import peiffer.lie
from peiffer.compat import MutualActions
from peiffer.groups import VALID, Diagnosis
from peiffer.lie import (
    _bracket,
    _combination,
    _lin,
    _mat_vec,
    _mul,
    _witness,
    LieAction,
    LieAlgebra,
    LieError,
    LieMap,
    check_lie_action,
    check_lie_xmod,
    lie_compatible,
    lie_induced_actions,
    lie_peiffer,
    lie_peiffer_ideal,
    lie_semidirect,
    lie_universal_map,
    validate_lie,
)
from peiffer import io as pio
from peiffer.io import lie_action_from_dict, lie_from_dict, lie_xmod_from_dict, mat, vec
from peiffer.product import induced_actions, peiffer_xmods
from peiffer.xmod import CrossedModule

import fraction_kernels as fk
import int_kernels
from fraction_kernels import ZERO, combination, mat_vec, rref, vadd, vscale, vsub, zero_vec
from int_kernels import disagreement, mat_add, mat_commutator, mat_mul, mat_sub
import lie_data
from lie_data import (
    basis_vec,
    identity_lie_map,
    identity_mat,
    mats,
    semidirect_and_proj,
    semidirect_maps,
    trivial_lie_action,
    zero_mat,
)


def fracs(*values):
    return tuple(Fraction(v) for v in values)


def abelian(n):
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    return LieAlgebra(n, mats(zero))


def solvable2():
    """[e0, e1] = e1."""
    return LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))


def sl2():
    """Basis h, e, f with [h,e]=2e, [h,f]=-2f, [e,f]=h."""
    return LieAlgebra(
        3,
        mats([
            [[0, 0, 0], [0, 2, 0], [0, 0, -2]],
            [[0, -2, 0], [0, 0, 0], [1, 0, 0]],
            [[0, 0, 2], [-1, 0, 0], [0, 0, 0]],
        ]),
    )


def ideal_fixture():
    """The ideal <e1> of the solvable algebra, as a crossed-module pair."""
    L = solvable2()
    I = abelian(1)
    incl = LieMap(I, L, mat([[0], [1]]))
    actI = LieAction(L, I, mats([[[1]], [[0]]]))
    xm_m = CrossedModule(incl, actI)
    xm_n = CrossedModule(identity_lie_map(L), L.adjoint)
    return xm_m, xm_n


def test_validate_accepts_fixtures():
    for L in (abelian(3), solvable2(), sl2()):
        assert validate_lie(L).ok


def test_validate_rejects_antisymmetry():
    bad = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, 1], [0, 0]]]))
    d = validate_lie(bad)
    assert not d.ok and d.reason == "antisymmetry fails"
    assert d.witness == (0, 1, fracs(0, 2))


def test_validate_rejects_jacobi():
    # [e0,e1]=e2, [e1,e2]=e0, [e0,e2]=e0 breaks Jacobi
    bad = LieAlgebra(
        3,
        mats([
            [[0, 0, 0], [0, 0, 1], [1, 0, 0]],
            [[0, 0, -1], [0, 0, 0], [1, 0, 0]],
            [[-1, 0, 0], [-1, 0, 0], [0, 0, 0]],
        ]),
    )
    d = validate_lie(bad)
    assert not d.ok and d.reason == "Jacobi fails"
    assert d.witness == (0, 1, 2, fracs(0, 0, 1))


def reduce_mod(basis_rows, pivots, v):
    """Reduce v against an rref basis, one row at a time; zero result means v is in the span."""
    for row, c in zip(basis_rows, pivots):
        if v[c] != 0:
            v = vsub(v, vscale(v[c], row))
    return v


def in_span(basis_rows, pivots, v) -> bool:
    return all(x == 0 for x in reduce_mod(basis_rows, pivots, v))


def test_rref_and_span():
    rows, pivots, D = peiffer.lie.rref([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    assert len(rows) == 2 and pivots == (0, 1) and D == 1
    assert all(type(x) is int for row in rows for x in row)
    rows = fk.over(D, rows)
    assert in_span(rows, pivots, vec([1, 3, 4]))
    assert not in_span(rows, pivots, vec([0, 0, 1]))
    # a pivot of 2 puts the rows over 2: (1, 0, 0) and (0, 1, 3/2)
    assert peiffer.lie.rref([[1, 2, 3], [0, 2, 3]]) == (((2, 0, 0), (0, 2, 3)), (0, 1), 2)


def test_bracket_bilinearity():
    L = sl2()
    u = vec([1, 2, 3])
    v = vec(["1/2", -1, 0])
    w = vec([0, "2/3", 5])
    lhs = fk.bracket(L, vadd(u, vscale(Fraction(3), v)), w)
    rhs = vadd(fk.bracket(L, u, w), vscale(Fraction(3), fk.bracket(L, v, w)))
    assert lhs == rhs


rat = st.integers(-3, 3).map(Fraction)


@given(st.tuples(rat, rat, rat), st.tuples(rat, rat, rat))
def test_ad_matrix_matches_bracket(u, v):
    L = sl2()
    want = zero_vec(3)
    for i in range(3):
        for j in range(3):
            want = vadd(want, vscale(u[i] * v[j], fk.brackets(L)[i][j]))
    assert mat_vec(fk.of(L.adjoint, u), v) == want


def test_check_lie_action_adjoint():
    for L in (solvable2(), sl2()):
        assert check_lie_action(L.adjoint).ok


def test_check_lie_action_rejects_non_derivation():
    L = solvable2()
    # identity matrix is not a derivation of a nonabelian algebra
    act = LieAction(abelian(1), L, mats([[[1, 0], [0, 1]]]))
    d = check_lie_action(act)
    assert not d.ok and d.reason == "rho(a) is not a derivation"
    assert d.witness == (0, 0, 1)


def test_check_lie_action_rejects_non_hom():
    L = sl2()
    # send h to rho(e)-like matrix so the rep property breaks
    ad = fk.rho(L.adjoint)
    act = LieAction(L, L, (ad[1], ad[1], ad[2]))
    d = check_lie_action(act)
    assert not d.ok and d.reason == "rho is not a Lie homomorphism"
    assert d.witness == (0, 1)


def test_lie_map_check_witness():
    L = solvable2()
    d = LieMap(L, L, mat([[0, 0], [0, "1/2"]])).check()
    assert not d.ok and d.reason == "bracket not preserved"
    # f[e0, e1] = e1/2 but [f e0, f e1] = 0
    assert d.witness == (0, 1, fracs(0, "1/2"))


def test_lie_xmod_fixtures():
    xm_m, xm_n = ideal_fixture()
    assert check_lie_xmod(xm_m).ok
    assert check_lie_xmod(xm_n).ok


def test_zero_boundary_nonabelian_fails_peiffer():
    L = solvable2()
    xm = CrossedModule(
        LieMap(L, abelian(1), mat([[0, 0]])),
        trivial_lie_action(abelian(1), L),
    )
    d = check_lie_xmod(xm)
    assert not d.ok and d.reason == "Peiffer identity fails"
    assert d.witness == (0, 1, fracs(0, -1))


def test_boundary_not_equivariant_witness():
    # the inclusion <e1> -> solvable2 under the trivial action
    L = solvable2()
    xm = CrossedModule(LieMap(abelian(1), L, mat([[0], [1]])), trivial_lie_action(L, abelian(1)))
    d = check_lie_xmod(xm)
    assert not d.ok and d.reason == "boundary is not equivariant"
    assert d.witness == (0, 0, fracs(0, -1))


def test_lie_semidirect_zero_action_is_direct_sum():
    M, N = solvable2(), abelian(1)
    S = lie_semidirect(trivial_lie_action(N, M))
    assert S.dim == 3
    assert fk.bracket(S, basis_vec(3, 0), basis_vec(3, 2)) == (0, 0, 0)
    assert fk.bracket(S, basis_vec(3, 0), basis_vec(3, 1)) == (0, 1, 0)


def test_lie_semidirect_adjoint_on_ideal():
    L = solvable2()
    I = abelian(1)
    rho = LieAction(L, I, mats([[[1]], [[0]]]))
    S, j_m, j_n, _ = semidirect_maps(rho)
    assert S.dim == 3
    assert validate_lie(S).ok
    # [(m,0),(0,n)] = (-rho(n) m, 0)
    m = basis_vec(1, 0)
    for j in range(2):
        n = basis_vec(2, j)
        got = fk.bracket(S, fk.apply(j_m, m), fk.apply(j_n, n))
        want = tuple(vscale(Fraction(-1), fk.act_on(rho, n, m))) + (Fraction(0),) * 2
        assert got == want


def test_lie_compatible_zero_actions():
    M, N = solvable2(), sl2()
    mut = MutualActions(trivial_lie_action(N, M), trivial_lie_action(M, N))
    assert lie_compatible(mut).ok


def test_lie_compatible_from_coterminal_xmods():
    mut = lie_induced_actions(*ideal_fixture())
    assert lie_compatible(mut).ok


def scalar_pair():
    A = abelian(1)
    ident = mats([[[1]]])
    return MutualActions(LieAction(A, A, ident), LieAction(A, A, ident))


def test_scalar_pair_incompatible():
    d = lie_compatible(scalar_pair())
    assert not d.ok
    # C1 on the 1-dim pair reads m n m' = 0
    assert d.reason == "first equation fails"
    assert d.witness == (0, 0, 0, fracs(1))


def test_second_equation_witness():
    # N acts trivially, so C1 holds; M acts on N by ad(e1), and C2 fails
    L = solvable2()
    mut = MutualActions(
        trivial_lie_action(L, abelian(1)), LieAction(abelian(1), L, (fk.of(L.adjoint, basis_vec(2, 1)),))
    )
    d = lie_compatible(mut)
    assert not d.ok and d.reason == "second equation fails"
    assert d.witness == (0, 0, 0, fracs(0, 1))


def test_lie_induced_actions_identity_xmods_are_adjoint():
    L = sl2()
    xm = CrossedModule(identity_lie_map(L), L.adjoint)
    mut = lie_induced_actions(xm, xm)
    assert mut.xi_nm == L.adjoint
    assert mut.xi_mn == L.adjoint


def test_lie_induced_actions_zero_base():
    Z = abelian(0)
    A = abelian(2)
    xm = CrossedModule(
        LieMap(A, Z, ()), trivial_lie_action(Z, A)
    )
    mut = lie_induced_actions(xm, xm)
    assert mut.xi_nm.rho == (((Fraction(0), Fraction(0)), (Fraction(0), Fraction(0))),) * 2


def test_lie_peiffer_zero_actions_direct_sum():
    M, N = solvable2(), sl2()
    mut = MutualActions(trivial_lie_action(N, M), trivial_lie_action(M, N))
    assert lie_peiffer(mut).product.dim == 5
    assert lie_peiffer_ideal(mut)[1] == ()


def test_lie_peiffer_scalar_pair_quotient():
    pp = lie_peiffer(scalar_pair())
    # the ideal closure swallows everything: generators (n m, m n) = (1, 1)
    assert pp.product.dim == 0


def test_lie_peiffer_compatible_fixture():
    xm_m, xm_n = ideal_fixture()
    mut = lie_induced_actions(xm_m, xm_n)
    pp = lie_peiffer(mut)
    assert pp.product.dim <= 3
    xms = peiffer_xmods(pp)
    assert check_lie_xmod(xms[0]).ok and check_lie_xmod(xms[1]).ok
    h = lie_universal_map(pp, xm_m, xm_n)
    assert h.check().ok
    # triangles
    for j in range(mut.M.dim):
        e = basis_vec(mut.M.dim, j)
        assert fk.apply(h, fk.apply(pp.lM, e)) == fk.apply(xm_m.boundary, e)
    for j in range(mut.N.dim):
        e = basis_vec(mut.N.dim, j)
        assert fk.apply(h, fk.apply(pp.lN, e)) == fk.apply(xm_n.boundary, e)


def test_lie_peiffer_actions_reject_ill_defined():
    # cook a pair where an ideal generator does not act as zero
    mut = scalar_pair()
    pp = lie_peiffer(mut)
    # the ideal is all of M + N; its first row (1, 0) acts as zero on M, by
    # ad(e_0), and on N as rho_MN(e_0) = 1
    assert pp.actions is None and pp.disagreement == (1, fracs(1, 0))
    message = "induced action disagrees across a coset, witness=(1, (1, 0))"
    with pytest.raises(LieError, match=f"^{re.escape(message)}$"):
        induced_actions(pp)


def test_lie_universal_map_zero_actions_identity():
    M, N = solvable2(), abelian(1)
    mut = MutualActions(trivial_lie_action(N, M), trivial_lie_action(M, N))
    pp = lie_peiffer(mut)
    L, j_m, j_n, _ = semidirect_maps(trivial_lie_action(N, M))
    xm_m = CrossedModule(j_m, pullback_m(L, M))
    xm_n = CrossedModule(j_n, pullback_n(L, N))
    h = lie_universal_map(pp, xm_m, xm_n)
    # h is a bijection of 3-dim algebras
    rows, pivots, _ = peiffer.lie.rref(h.matrix)
    assert len(rows) == 3


def pullback_m(L, M):
    # L = M (+) N with zero action: L acts on M through ad composed with
    # the projection onto M
    dm = M.dim
    rho = []
    for a in range(L.dim):
        if a < dm:
            rho.append(fk.of(M.adjoint, basis_vec(dm, a)))
        else:
            rho.append(tuple((Fraction(0),) * dm for _ in range(dm)))
    return LieAction(L, M, tuple(rho))


def pullback_n(L, N):
    dn = N.dim
    dm = L.dim - dn
    rho = []
    for a in range(L.dim):
        if a >= dm:
            rho.append(fk.of(N.adjoint, basis_vec(dn, a - dm)))
        else:
            rho.append(tuple((Fraction(0),) * dn for _ in range(dn)))
    return LieAction(L, N, tuple(rho))


def test_dim_bound(family=None):
    fixtures = [
        lie_induced_actions(*ideal_fixture()),
        scalar_pair(),
        MutualActions(
            trivial_lie_action(sl2(), abelian(2)), trivial_lie_action(abelian(2), sl2())
        ),
    ]
    for mut in fixtures:
        pp = lie_peiffer(mut)
        assert pp.product.dim <= mut.M.dim + mut.N.dim
        if all(
            all(x == 0 for row in m for x in row)
            for m in mut.xi_nm.rho + mut.xi_mn.rho
        ):
            assert pp.product.dim == mut.M.dim + mut.N.dim


def b3():
    """Upper-triangular 3 x 3 matrices on E_ij, i <= j: [E_ij, E_kl] = d_jk E_il - d_li E_kj."""
    basis = [(i, j) for i in range(3) for j in range(i, 3)]
    brackets = []
    for i, j in basis:
        row = []
        for k, l in basis:
            v = [0] * 6
            if j == k:
                v[basis.index((i, l))] += 1
            if l == i:
                v[basis.index((k, j))] -= 1
            row.append(v)
        brackets.append(row)
    return LieAlgebra(6, mats(brackets))


def identity_xmod(L):
    return CrossedModule(identity_lie_map(L), L.adjoint)


def test_constructions_pass_the_exhaustive_checks():
    # lie_semidirect, lie_peiffer, its actions and crossed modules and the
    # universal map do not check what they build, and lie_induced_actions
    # does not check its inputs; the exhaustive checks stay here as the oracle
    B3 = b3()
    cases = [ideal_fixture()] + [(identity_xmod(L),) * 2 for L in (solvable2(), sl2(), abelian(2), B3)]
    for xms in cases:
        assert all(check_lie_xmod(xm).ok for xm in xms)
    cases = [(lie_induced_actions(*xms), xms) for xms in cases]
    M, N = solvable2(), sl2()
    cases.append((MutualActions(trivial_lie_action(N, M), trivial_lie_action(M, N)), None))
    for mut, xms in cases:
        assert lie_compatible(mut).ok
        pp = lie_peiffer(mut)
        if mut.M == B3:
            assert pp.product.dim == 9
        S, proj = semidirect_and_proj(pp)
        assert validate_lie(S).ok and validate_lie(pp.product).ok
        for f in semidirect_maps(mut.xi_nm)[1:] + (proj,):
            assert f.check().ok
        for act in induced_actions(pp):
            assert check_lie_action(act).ok
        for xm in peiffer_xmods(pp):
            assert check_lie_xmod(xm).ok
        xm_m, xm_n = xms or peiffer_xmods(pp)
        h = lie_universal_map(pp, xm_m, xm_n)
        assert h.check().ok
        dm, dn = mut.M.dim, mut.N.dim
        for j in range(dm):
            e = basis_vec(dm, j)
            assert fk.apply(h, fk.apply(pp.lM, e)) == fk.apply(xm_m.boundary, e)
        for j in range(dn):
            e = basis_vec(dn, j)
            assert fk.apply(h, fk.apply(pp.lN, e)) == fk.apply(xm_n.boundary, e)
        for row in lie_peiffer_ideal(mut)[1]:  # integers over the ideal's D: zero at every scale
            assert not any(vadd(fk.apply(xm_m.boundary, row[:dm]), fk.apply(xm_n.boundary, row[dm:])))


def from_columns(dom, cod, columns):
    return LieMap(dom, cod, tuple(tuple(columns[j][i] for j in range(dom.dim)) for i in range(cod.dim)))


def ref_semidirect(mut):
    """M x| N from brackets of basis vectors, on Fractions."""
    M, N, rho = mut.M, mut.N, mut.xi_nm
    dm, dn = M.dim, N.dim
    dim = dm + dn

    def halves(i):
        e = basis_vec(dim, i)
        return e[:dm], e[dm:]

    brackets = []
    for i in range(dim):
        m1, n1 = halves(i)
        row = []
        for j in range(dim):
            m2, n2 = halves(j)
            mpart = vadd(fk.bracket(M, m1, m2), vsub(fk.act_on(rho, n1, m2), fk.act_on(rho, n2, m1)))
            row.append(mpart + fk.bracket(N, n1, n2))
        brackets.append(tuple(row))
    return LieAlgebra(dim, tuple(brackets))


def ref_ideal(mut, S):
    """The Peiffer ideal's rref rows and pivots, on Fractions, and the rows its closure added.

    The closure as it ran on every pair: bracket each ideal row with every
    basis vector of M x| N, and add what the span does not reach.
    """
    dm, dn = mut.M.dim, mut.N.dim
    gens = [fk.act_on(mut.xi_nm, basis_vec(dn, j), basis_vec(dm, i))
            + fk.act_on(mut.xi_mn, basis_vec(dm, i), basis_vec(dn, j)) for i in range(dm) for j in range(dn)]
    rows, pivots = rref(gens)
    added, work = [], list(rows)
    while work:
        v = work.pop()
        for b in range(S.dim):
            w = reduce_mod(rows, pivots, fk.bracket(S, basis_vec(S.dim, b), v))
            if any(w):
                rows, pivots = rref(list(rows) + [w])
                work.append(w)
                added.append(w)
    return rows, pivots, added


def ref_lie_peiffer(mut, xms=None):
    """The Peiffer product the long way, on Fractions: the oracle for the coordinate path.

    Builds M x| N from brackets of basis vectors with its inclusions, a lift
    P -> S, l_m and l_n as proj composed with the inclusions, the actions at
    lifted basis vectors and the universal map through h_S on S.  Returns
    the fields the coordinate path must match; a LieError from the actions
    is returned as its message.
    """
    M, N = mut.M, mut.N
    dm, dn = M.dim, N.dim
    dim = dm + dn
    S = ref_semidirect(mut)
    j_m = from_columns(M, S, [basis_vec(dim, i) for i in range(dm)])
    j_n = from_columns(N, S, [basis_vec(dim, dm + j) for j in range(dn)])
    rows, pivots, _ = ref_ideal(mut, S)
    free = [c for c in range(dim) if c not in pivots]

    def project(v):
        red = reduce_mod(rows, pivots, v)
        return tuple(red[c] for c in free)

    P = LieAlgebra(
        len(free),
        tuple(tuple(project(fk.bracket(S, basis_vec(dim, a), basis_vec(dim, b))) for b in free) for a in free),
    )
    proj = from_columns(S, P, [project(basis_vec(dim, c)) for c in range(dim)])
    lift = from_columns(P, S, [basis_vec(dim, c) for c in free])
    fields = {
        "semidirect": fk.brackets(S),
        "brackets": fk.brackets(P),
        "l_m": mat_mul(fk.matrix(proj), fk.matrix(j_m)),
        "l_n": mat_mul(fk.matrix(proj), fk.matrix(j_n)),
        "proj": fk.matrix(proj),
        "ideal_rows": rows,
        "ideal_pivots": pivots,
    }

    def act_on_m(v):
        return mat_add(fk.of(M.adjoint, v[:dm]), fk.of(mut.xi_nm, v[dm:]))

    def act_on_n(v):
        return mat_add(fk.of(N.adjoint, v[dm:]), fk.of(mut.xi_mn, v[:dm]))

    for row in rows:
        for side, act in enumerate((act_on_m, act_on_n)):
            if any(x for r in act(row) for x in r):
                # the witness (side, row) as a report writes it, rationals p/q
                shown = ", ".join(map(str, row)) + ("," if len(row) == 1 else "")
                fields["error"] = f"induced action disagrees across a coset, witness=({side}, ({shown}))"
                return fields
    lifted = [fk.apply(lift, basis_vec(P.dim, c)) for c in range(P.dim)]
    fields["rho_on_m"] = tuple(act_on_m(v) for v in lifted)
    fields["rho_on_n"] = tuple(act_on_n(v) for v in lifted)
    if xms is None:
        xms = (
            CrossedModule(LieMap(M, P, fields["l_m"]), LieAction(P, M, fields["rho_on_m"])),
            CrossedModule(LieMap(N, P, fields["l_n"]), LieAction(P, N, fields["rho_on_n"])),
        )
    mu, nu = (xm.boundary for xm in xms)
    L = mu.cod
    h_cols = [fk.apply(mu, basis_vec(dm, j)) for j in range(dm)] + [fk.apply(nu, basis_vec(dn, j)) for j in range(dn)]
    h_s = from_columns(S, L, h_cols)
    fields["universal"] = fk.matrix(from_columns(P, L, [fk.apply(h_s, v) for v in lifted]))
    return fields


def coordinate_fields(mut, xms=None):
    """The same fields from lie_peiffer and the functions that take its product, read as Fractions."""
    pp = lie_peiffer(mut)
    _, rows, pivots, D, _ = lie_peiffer_ideal(mut)
    fields = {
        "semidirect": fk.brackets(lie_semidirect(mut.xi_nm)),
        "brackets": fk.brackets(pp.product),
        "l_m": fk.matrix(pp.lM),
        "l_n": fk.matrix(pp.lN),
        "proj": fk.matrix(semidirect_and_proj(pp)[1]),
        "ideal_rows": fk.over(D, rows),
        "ideal_pivots": pivots,
    }
    try:
        on_m, on_n = induced_actions(pp)
    except LieError as exc:
        fields["error"] = str(exc)
        return fields
    fields["rho_on_m"], fields["rho_on_n"] = fk.rho(on_m), fk.rho(on_n)
    fields["universal"] = fk.matrix(lie_universal_map(pp, *(xms or peiffer_xmods(pp))))
    return fields


def zero_base_xmods():
    """Two crossed modules abelian(2) -> 0: the universal map is 0 x 4."""
    Z, A = abelian(0), abelian(2)
    xm = CrossedModule(LieMap(A, Z, ()), trivial_lie_action(Z, A))
    return xm, xm


def second_equation_pair():
    """abelian(2) acts on abelian(1) by (0, 1) and back by e_0 -> [[0, 1], [0, 0]]: (C1) holds, (C2) fails."""
    M, N = abelian(1), abelian(2)
    return MutualActions(LieAction(N, M, mats([[[0]], [[1]]])), LieAction(M, N, mats([[[0, 1], [0, 0]]])))


def identity_case(L):
    xms = (identity_xmod(L),) * 2
    return lie_induced_actions(*xms), xms


ORACLE_CASES = {
    "ideal": lambda: (lie_induced_actions(*ideal_fixture()), ideal_fixture()),
    "identity-solvable2": lambda: identity_case(solvable2()),
    "identity-sl2": lambda: identity_case(sl2()),
    "identity-abelian2": lambda: identity_case(abelian(2)),
    "identity-b3": lambda: identity_case(b3()),
    "zero-actions": lambda: (
        MutualActions(trivial_lie_action(sl2(), solvable2()), trivial_lie_action(solvable2(), sl2())),
        None,
    ),
    "scalar-incompatible": lambda: (scalar_pair(), None),
    "second-equation-fails": lambda: (second_equation_pair(), None),
    "zero-base": lambda: (lie_induced_actions(*zero_base_xmods()), zero_base_xmods()),
}
INCOMPATIBLE_CASES = {"scalar-incompatible", "second-equation-fails"}


@pytest.mark.parametrize("case", sorted(ORACLE_CASES))
def test_coordinate_path_matches_semidirect_oracle(case):
    mut, xms = ORACLE_CASES[case]()
    want = ref_lie_peiffer(mut, xms)
    got = coordinate_fields(mut, xms)
    assert got.keys() == want.keys()
    for key in want:
        assert got[key] == want[key], key
    # the incompatible pairs fail in both paths, with the same message
    assert ("error" in got) == (case in INCOMPATIBLE_CASES)
    if case == "zero-base":
        assert got["universal"] == () and len(got["brackets"]) == 4


def test_lie_peiffer_builds_the_semidirect_sum_once(monkeypatch):
    # the pipeline and the lie-semidirect verb share one construction of M x| N
    built = []

    def counted(rho):
        built.append(rho)
        return lie_semidirect(rho)

    monkeypatch.setattr(peiffer.lie, "lie_semidirect", counted)
    xm_m, xm_n = ideal_fixture()
    mut = lie_induced_actions(xm_m, xm_n)
    pp = lie_peiffer(mut)
    peiffer_xmods(pp)
    lie_universal_map(pp, xm_m, xm_n)
    assert built == [mut.xi_nm]
    monkeypatch.undo()
    S, proj = semidirect_and_proj(pp)
    assert validate_lie(S).ok and proj.check().ok


def test_lie_checks_raise_lie_error():
    # the Lie side shares groups.Diagnosis but keeps its own exception
    own_partner = [{"i": 0, "j": 1, "coeffs": [0, 1]}, {"i": 1, "j": 0, "coeffs": [0, 1]}]
    message = "Lie axioms failed: antisymmetry fails, witness=(0, 1, (0, 2))"
    with pytest.raises(LieError, match=f"^{re.escape(message)}$"):
        lie_from_dict({"dim": 2, "brackets": own_partner})
    with pytest.raises(LieError, match=f"^{re.escape(message)}$"):
        LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, 1], [0, 0]]]), check=True)
    with pytest.raises(LieError, match="^structure constants have the wrong shape$"):
        LieAlgebra(2, mats([[[0, 0], [0, 1]]]))
    L = solvable2()
    with pytest.raises(LieError, match="Lie homomorphism failed"):
        LieMap(L, L, mat([[0, 0], [0, 2]])).check().expect("Lie homomorphism", LieError)
    with pytest.raises(LieError, match="Lie action axioms failed"):
        lie_action_from_dict({"rho": [[[1, 0], [0, 1]], [[0, 0], [0, 0]]]}, acting=L, target=L)


# The dense kernels as they were before zero-skipping, kept as an oracle for
# the sparse ones: dropping a zero product or a zero term changes no exact sum.


def dense_vadd(u, v):
    return tuple(a + b for a, b in zip(u, v))


def dense_vsub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def dense_vscale(c, u):
    return tuple(c * a for a in u)


def dense_mat_vec(A, v):
    return tuple(sum((a * x for a, x in zip(row, v)), ZERO) for row in A)


def dense_mat_mul(A, B):
    cols = len(B[0]) if B else 0
    return tuple(
        tuple(sum((A[i][k] * B[k][j] for k in range(len(B))), ZERO) for j in range(cols))
        for i in range(len(A))
    )


def dense_bracket(L, u, v):
    out = zero_vec(L.dim)
    for i, a in enumerate(u):
        if a == 0:
            continue
        for j, b in enumerate(v):
            if b == 0:
                continue
            out = dense_vadd(out, dense_vscale(a * b, fk.brackets(L)[i][j]))
    return out


def dense_of(act, u):
    n = act.target.dim
    out = tuple(zero_vec(n) for _ in range(n))
    for a, c in enumerate(u):
        if c != 0:
            out = tuple(
                dense_vadd(r, s) for r, s in zip(out, (dense_vscale(c, row) for row in fk.rho(act)[a]))
            )
    return out


nonzero = st.builds(Fraction, st.integers(-5, 5).filter(bool), st.integers(1, 6))
zero = st.just(Fraction(0))
# dense, about half zeros, or about 90% zeros
entries = st.sampled_from([nonzero, st.one_of(zero, nonzero), st.one_of(*[zero] * 9, nonzero)])


@st.composite
def fraction_rows(draw, rows, cols):
    """A rows x cols tuple of Fractions."""
    entry = draw(entries)
    row = st.lists(entry, min_size=cols, max_size=cols).map(tuple)
    return draw(st.lists(row, min_size=rows, max_size=rows).map(tuple))


def all_fractions(value):
    if isinstance(value, tuple):
        return all(all_fractions(x) for x in value)
    return type(value) is Fraction


size = st.integers(0, 4)


@given(size, size, size, st.data())
def test_sparse_kernels_match_dense_oracle(r, k, c, data):
    A = data.draw(fraction_rows(r, k))
    B = data.draw(fraction_rows(k, c))
    u, v = data.draw(fraction_rows(2, k))
    ((s,),) = data.draw(fraction_rows(1, 1))
    brackets = tuple(data.draw(fraction_rows(k, k)) for _ in range(k))
    L = LieAlgebra(k, brackets)
    rho = tuple(data.draw(fraction_rows(k, k)) for _ in range(r))
    act = LieAction(abelian(r), abelian(k), rho)
    (w,) = data.draw(fraction_rows(1, r))
    pairs = [
        (mat_vec(A, u), dense_mat_vec(A, u)),
        (mat_mul(A, B), dense_mat_mul(A, B)),
        (vadd(u, v), dense_vadd(u, v)),
        (vsub(u, v), dense_vsub(u, v)),
        (vscale(s, u), dense_vscale(s, u)),
        (fk.bracket(L, u, v), dense_bracket(L, u, v)),
        (fk.of(act, w), dense_of(act, w)),
    ]
    for got, want in pairs:
        assert got == want
        assert all_fractions(got)
    # the package's integer kernels over the denominators of their operands
    A_map, u_map, w_map = map_of(A, r, k), map_of((u,), 1, k), map_of((w,), 1, r)
    got = _mat_vec(A_map.matrix, u_map.matrix[0])
    assert fk.over(A_map.D * u_map.D, got) == dense_mat_vec(A, u)
    got = _lin(act.rho, w_map.matrix[0], k)
    assert fk.over(act.D * w_map.D, got) == dense_of(act, w)


@given(size, size, size, st.data())
def test_kernels_on_integer_numerators_match_the_fraction_kernels(r, k, c, data):
    # the checks run the same kernels on the integer forms: ints in, ints out,
    # and the product of two forms over scales a and b is the product over a b
    A, B = data.draw(fraction_rows(r, k)), data.draw(fraction_rows(k, c))
    u = data.draw(fraction_rows(1, r))[0]
    rho = tuple(data.draw(fraction_rows(k, k)) for _ in range(r))
    act = LieAction(abelian(r), abelian(k), rho)
    a, A_int = map_of(A, r, k).D, map_of(A, r, k).matrix
    b, B_int = map_of(B, k, c).D, map_of(B, k, c).matrix
    (s, rho_int), u_map = (act.D, act.rho), map_of((u,), 1, r)
    t, u_int = u_map.D, u_map.matrix[0]
    cases = [(mat_mul(A_int, B_int), a * b, mat_mul(A, B)), (_lin(rho_int, u_int, k), s * t, fk.of(act, u))]
    if r:  # with no terms a combination has no operand to take its zero from
        cases.append((combination(rho_int, u_int, k), s * t, fk.of(act, u)))
    for got, scale, want in cases:
        assert all(type(x) is int for row in got for x in row)
        assert tuple(tuple(Fraction(x, scale) for x in row) for row in got) == want


def test_action_of_basis_vector_is_the_stored_matrix():
    act = sl2().adjoint
    for a in range(3):
        assert _lin(act.rho, [int(b == a) for b in range(3)], 3) is act.rho[a]


def full_validate_lie(L):
    """validate_lie with Jacobi over every ordered triple, the oracle for the sorted loop."""
    n, B = L.dim, fk.brackets(L)
    for i in range(n):
        for j in range(n):
            resid = vadd(B[i][j], B[j][i])
            if any(x != 0 for x in resid):
                return Diagnosis(False, "antisymmetry fails", (i, j, resid))
    for i in range(n):
        for j in range(n):
            for k in range(n):
                resid = vadd(
                    vadd(
                        fk.bracket(L, basis_vec(n, i), B[j][k]),
                        fk.bracket(L, basis_vec(n, j), B[k][i]),
                    ),
                    fk.bracket(L, basis_vec(n, k), B[i][j]),
                )
                if any(x != 0 for x in resid):
                    return Diagnosis(False, "Jacobi fails", (i, j, k, resid))
    return VALID


@given(st.integers(0, 5), st.data())
def test_sorted_jacobi_matches_full_oracle(n, data):
    # random antisymmetric constants: Lie up to dim 2, mostly not Lie above
    upper = {(i, j): data.draw(fraction_rows(1, n))[0] for i in range(n) for j in range(i + 1, n)}
    brackets = tuple(
        tuple(upper[i, j] if i < j else vscale(-1, upper[j, i]) if i > j else zero_vec(n) for j in range(n))
        for i in range(n)
    )
    L = LieAlgebra(n, brackets)
    assert validate_lie(L) == full_validate_lie(L)


# The checks before they became matrix identities, loop by loop over basis
# pairs and triples, kept as oracles.  Their brackets are dense_bracket, so
# they share no code with the adjoint representation the checks now read.


def ref_map_check(f):
    """LieMap.check over every basis pair (i, j)."""
    n = f.dom.dim
    for i in range(n):
        fi = fk.apply(f, basis_vec(n, i))
        for j in range(n):
            resid = vsub(fk.apply(f, fk.brackets(f.dom)[i][j]), dense_bracket(f.cod, fi, fk.apply(f, basis_vec(n, j))))
            if any(x != 0 for x in resid):
                return Diagnosis(False, "bracket not preserved", (i, j, resid))
    return VALID


def ref_check_lie_action(act):
    """check_lie_action over every pair (a, b) and every triple (a, i, j)."""
    A, X, rho = act.acting, act.target, fk.rho(act)
    for a in range(A.dim):
        for b in range(A.dim):
            commutator = mat_sub(mat_mul(rho[a], rho[b]), mat_mul(rho[b], rho[a]))
            resid = mat_sub(fk.of(act, fk.brackets(A)[a][b]), commutator)
            if any(x != 0 for row in resid for x in row):
                return Diagnosis(False, "rho is not a Lie homomorphism", (a, b))
    for a in range(A.dim):
        R = rho[a]
        for i in range(X.dim):
            ei = basis_vec(X.dim, i)
            for j in range(X.dim):
                ej = basis_vec(X.dim, j)
                resid = vsub(
                    mat_vec(R, fk.brackets(X)[i][j]),
                    vadd(dense_bracket(X, mat_vec(R, ei), ej), dense_bracket(X, ei, mat_vec(R, ej))),
                )
                if any(x != 0 for x in resid):
                    return Diagnosis(False, "rho(a) is not a derivation", (a, i, j))
    return VALID


def ref_check_lie_xmod(xm):
    """check_lie_xmod over every pair (a, i), then every pair (i, j)."""
    X, A = xm.X, xm.A
    d, rho = xm.boundary, xm.action
    diag = ref_map_check(d)
    if not diag.ok:
        return diag
    for a in range(A.dim):
        for i in range(X.dim):
            di = fk.apply(d, basis_vec(X.dim, i))
            resid = vsub(fk.apply(d, mat_vec(fk.rho(rho)[a], basis_vec(X.dim, i))), dense_bracket(A, basis_vec(A.dim, a), di))
            if any(x != 0 for x in resid):
                return Diagnosis(False, "boundary is not equivariant", (a, i, resid))
    for i in range(X.dim):
        R = fk.of(rho, fk.apply(d, basis_vec(X.dim, i)))
        for j in range(X.dim):
            resid = vsub(mat_vec(R, basis_vec(X.dim, j)), fk.brackets(X)[i][j])
            if any(x != 0 for x in resid):
                return Diagnosis(False, "Peiffer identity fails", (i, j, resid))
    return VALID


def ref_lie_compatible(mut):
    """lie_compatible over every basis triple (i, j, k), (C1) then (C2)."""
    for reason, pair in (("first equation fails", mut), ("second equation fails", mut.swapped())):
        M, N = pair.M, pair.N
        nm, mn = pair.xi_nm, pair.xi_mn
        for i in range(M.dim):
            m = basis_vec(M.dim, i)
            for j in range(N.dim):
                n = basis_vec(N.dim, j)
                act = fk.of(nm, fk.act_on(mn, m, n))
                for k in range(M.dim):
                    m2 = basis_vec(M.dim, k)
                    rhs = vsub(dense_bracket(M, m, fk.act_on(nm, n, m2)), fk.act_on(nm, n, dense_bracket(M, m, m2)))
                    resid = vsub(mat_vec(act, m2), rhs)
                    if any(x != 0 for x in resid):
                        return Diagnosis(False, reason, (i, j, k, resid))
    return VALID


ALGEBRAS = (abelian(2), solvable2(), sl2(), b3())
algebras = st.sampled_from(ALGEBRAS)
small = st.sampled_from([Fraction(v) for v in (0, 1, -1, 2, "1/2", "-1/3")])
oracle_settings = settings(deadline=None, max_examples=200)


@st.composite
def nudged(draw, mats):
    """mats, a tuple of matrices, with one to three entries redrawn.

    The matrices start valid, so the checks fail at varied witnesses, and
    now and then pass when a redrawn entry keeps its value.
    """
    out = [[list(row) for row in m] for m in mats]
    cells = [(k, i, j) for k, m in enumerate(out) for i, row in enumerate(m) for j in range(len(row))]
    for k, i, j in draw(st.lists(st.sampled_from(cells), min_size=1, max_size=3)) if cells else ():
        out[k][i][j] = draw(small)
    return tuple(tuple(map(tuple, m)) for m in out)


def zero_action(acting, target):
    return (zero_mat(target.dim, target.dim),) * acting.dim


def same_diagnosis(got, want):
    """Equal Diagnosis values, with any residual a tuple of Fractions as the loops give."""
    assert got == want
    if not got.ok and isinstance(got.witness[-1], tuple):
        assert all_fractions(got.witness[-1])


@oracle_settings
@given(algebras, algebras, st.data())
def test_map_check_matches_loop_oracle(dom, cod, data):
    # the identity and the zero map are homs
    base = identity_mat(dom.dim) if dom == cod else zero_mat(cod.dim, dom.dim)
    (matrix,) = data.draw(nudged((base,)))
    f = LieMap(dom, cod, matrix)
    same_diagnosis(f.check(), ref_map_check(f))


@oracle_settings
@given(algebras, algebras, st.data())
def test_action_check_matches_loop_oracle(A, X, data):
    base = fk.rho(A.adjoint) if A == X else zero_action(A, X)
    act = LieAction(A, X, data.draw(nudged(base)))
    same_diagnosis(check_lie_action(act), ref_check_lie_action(act))


@oracle_settings
@given(algebras, st.data())
def test_xmod_check_matches_loop_oracle(A, data):
    # the identity crossed module, or the zero one: valid from an abelian X,
    # and failing the Peiffer identity from any other
    X = data.draw(st.sampled_from((A,) + ALGEBRAS))
    if X == A:
        d, rho = identity_mat(X.dim), fk.rho(X.adjoint)
    else:
        d, rho = zero_mat(A.dim, X.dim), zero_action(A, X)
    d, *rho = data.draw(nudged((d,) + rho))
    xm = CrossedModule(LieMap(X, A, d), LieAction(A, X, tuple(rho)))
    same_diagnosis(check_lie_xmod(xm), ref_check_lie_xmod(xm))


def test_peiffer_witness_in_the_first_column():
    # solvable2 -> abelian(1) by e0 -> 1, e1 -> 0, acted on through ad(e0): a
    # crossed module but for rho(d e1) = 0, whose column 0 misses [e1, e0] = -e1
    L = solvable2()
    ad_e0 = fk.of(L.adjoint, basis_vec(2, 0))
    xm = CrossedModule(LieMap(L, abelian(1), mat([[1, 0]])), LieAction(abelian(1), L, (ad_e0,)))
    want = Diagnosis(False, "Peiffer identity fails", (1, 0, fracs(0, 1)))
    assert check_lie_xmod(xm) == want == ref_check_lie_xmod(xm)


@oracle_settings
@given(algebras, algebras, st.data())
def test_compatibility_matches_loop_oracle(M, N, data):
    # the adjoint pair and zero actions are compatible
    nm, mn = (fk.rho(M.adjoint),) * 2 if M == N else (zero_action(N, M), zero_action(M, N))
    mats = data.draw(nudged(nm + mn))
    mut = MutualActions(LieAction(N, M, mats[: N.dim]), LieAction(M, N, mats[N.dim :]))
    same_diagnosis(lie_compatible(mut), ref_lie_compatible(mut))


# The packed kernels and checks against the integer ones they replaced
# (int_kernels).  Entries are drawn at their matrix's height, 0 or plus or
# minus E over a denominator, so that products reach the lane bounds the
# checks state: one bit narrower than _IntegerForms.packed makes a lane, and
# the witness of a failing identity aliases.

dims = st.integers(0, 4)


@st.composite
def at_height(draw, rows, cols):
    """A rows x cols tuple of Fractions x / D, each x in {-E, 0, E} for one drawn E and D."""
    E, D = draw(st.integers(1, 2**40)), draw(st.integers(1, 60))
    signs = st.sampled_from((-1, 1, 1, 0))
    return tuple(tuple(Fraction(draw(signs) * E, D) for _ in range(cols)) for _ in range(rows))


def negated(A):
    return tuple(tuple(-x for x in row) for row in A)


def map_of(matrix, rows, cols):
    return LieMap(abelian(cols), abelian(rows), matrix)


@given(dims, st.integers(1, 4), dims, st.data())
def test_packed_product_matches_integer_kernels(r, k, c, data):
    # A B / (a b) against C / c, with C drawn at its height or as -A B, whose
    # difference reaches twice the bound on every lane where the signs align;
    # k is at least 1, as mat_mul of an r x 0 by a 0 x c matrix has no columns
    A, B = map_of(data.draw(at_height(r, k)), r, k), map_of(data.draw(at_height(k, c)), k, c)
    C = mat_mul(fk.matrix(A), fk.matrix(B))
    C = map_of(data.draw(st.sampled_from((negated(C), C)) | at_height(r, c)), r, c)
    (a, A_int), (b, B_int), (s, C_int) = (A.D, A.matrix), (B.D, B.matrix), (C.D, C.matrix)
    L = lcm(a * b, s)
    bound = max(k * A.forms.height * B.forms.height * L // (a * b), C.forms.height * L // s)
    p, q, t = A.forms.packed(bound), B.forms.packed(bound), C.forms.packed(bound)
    got = _witness(_mul(p, 0, q, 0) * (L // (a * b)), t.whole[0] * (L // s), t, L)
    assert got == disagreement(mat_mul(A_int, B_int), C_int, 0, a * b, s)


@given(dims, dims, st.data())
def test_packed_bracket_and_combination_match_integer_kernels(k, d, data):
    # [A, B] / (a b) against the combination sum_t u_t rho_t / (s t), then
    # against its own negative
    A, B = map_of(data.draw(at_height(k, k)), k, k), map_of(data.draw(at_height(k, k)), k, k)
    rho = tuple(data.draw(at_height(k, k)) for _ in range(d))
    act = LieAction(abelian(d), abelian(k), rho)
    u = map_of(data.draw(at_height(1, d)), 1, d)
    (a, A_int), (b, B_int) = (A.D, A.matrix), (B.D, B.matrix)
    (s, rho_int), (t, u_int) = (act.D, act.rho), (u.D, u.matrix)
    L = lcm(a * b, s * t)
    f, g = L // (a * b), L // (s * t)
    bound = max(2 * k * A.forms.height * B.forms.height * f, d * act.forms.height * u.forms.height * g)
    p, q, m = A.forms.packed(bound), B.forms.packed(bound), act.forms.packed(bound)
    bracket, comb = _bracket(p, 0, q, 0) * f, _combination(m.whole, u_int[0]) * g
    if d:  # with no terms combination has no operand to take its zero from
        want = disagreement(mat_commutator(A_int, B_int), combination(rho_int, u_int[0], k), 0, a * b, s * t)
        assert _witness(bracket, comb, p, L) == want
    bound = 2 * k * A.forms.height * B.forms.height
    p, q = A.forms.packed(bound), B.forms.packed(bound)
    commutator = mat_commutator(A_int, B_int)
    want = disagreement(commutator, negated(commutator), 0, a * b, a * b)
    assert _witness(_bracket(p, 0, q, 0), -_bracket(p, 0, q, 0), p, a * b) == want


entry = st.sampled_from([Fraction(v) for v in (0, 0, 0, 1, -1, 2, "1/2", "-1/3", "5/7", "-9/4")])


@st.composite
def antisymmetric(draw, n):
    """Structure constants of dim n with [e_j, e_i] = -[e_i, e_j]: Lie or, mostly, not."""
    row = st.lists(entry, min_size=n, max_size=n).map(tuple) | at_height(1, n).map(lambda m: m[0])
    upper = {(i, j): draw(row) for i in range(n) for j in range(i + 1, n)}
    return LieAlgebra(n, tuple(
        tuple(upper[i, j] if i < j else vscale(-1, upper[j, i]) if i > j else zero_vec(n) for j in range(n))
        for i in range(n)
    ))


any_algebra = algebras | dims.flatmap(antisymmetric)


def matrices(rows, cols):
    return st.lists(st.lists(entry, min_size=cols, max_size=cols).map(tuple), min_size=rows,
                    max_size=rows).map(tuple) | at_height(rows, cols)


@st.composite
def action_on(draw, A, X):
    """An action of A on X: the adjoint when A is X, the zero action, or drawn, then nudged."""
    base = fk.rho(A.adjoint) if A == X else zero_action(A, X)
    return LieAction(A, X, draw(nudged(base) | st.tuples(*[matrices(X.dim, X.dim)] * A.dim)))


@oracle_settings
@given(any_algebra)
def test_packed_validate_lie_matches_integer_kernels(L):
    same_diagnosis(validate_lie(L), int_kernels.validate_lie(L))


@oracle_settings
@given(any_algebra, any_algebra, st.data())
def test_packed_map_check_matches_integer_kernels(dom, cod, data):
    # square and not, with the identity, zero and drawn matrices nudged
    base = identity_mat(dom.dim) if dom == cod else zero_mat(cod.dim, dom.dim)
    (matrix,) = data.draw(nudged((base,)) | matrices(cod.dim, dom.dim).map(lambda m: (m,)))
    f = LieMap(dom, cod, matrix)
    same_diagnosis(f.check(), int_kernels.map_check(f))


@oracle_settings
@given(any_algebra, any_algebra, st.data())
def test_packed_action_check_matches_integer_kernels(A, X, data):
    act = data.draw(action_on(A, X))
    same_diagnosis(check_lie_action(act), int_kernels.check_lie_action(act))


@oracle_settings
@given(any_algebra, any_algebra, st.data())
def test_packed_compatibility_matches_integer_kernels(M, N, data):
    mut = MutualActions(data.draw(action_on(N, M)), data.draw(action_on(M, N)))
    same_diagnosis(lie_compatible(mut), int_kernels.lie_compatible(mut))


@oracle_settings
@given(any_algebra, any_algebra, st.data())
def test_packed_xmod_check_matches_integer_kernels(A, X, data):
    d = identity_mat(X.dim) if X == A else zero_mat(A.dim, X.dim)
    (d,) = data.draw(nudged((d,)) | matrices(A.dim, X.dim).map(lambda m: (m,)))
    xm = CrossedModule(LieMap(X, A, d), data.draw(action_on(A, X)))
    same_diagnosis(check_lie_xmod(xm), int_kernels.check_lie_xmod(xm))


def test_an_adjoint_is_packed_once_for_the_checks_of_an_adjoint_pair():
    # the checks that lie-check-compat runs on b3 share one pack of each action
    L = b3()
    act = LieAction(L, L, fk.rho(L.adjoint))
    assert validate_lie(L).ok and check_lie_action(act).ok
    assert lie_compatible(MutualActions(act, act)).ok
    assert len(L.adjoint.forms.packs) == 1 and len(act.forms.packs) == 1
    # the crossed-module check multiplies by the action of A on X and sums its
    # matrices, with X and A of different dims: one pack serves both
    xm = ideal_fixture()[0]
    assert check_lie_xmod(xm).ok and len(xm.action.forms.packs) == 1
    # a map check reads its domain's adjoint as a right factor only, unpacked
    xm = ideal_fixture()[0]
    assert xm.boundary.check().ok and len(xm.X.adjoint.forms.packs) == 0
    # the nonzeros do not depend on the lane width: packs of every width share them
    wide, narrow = act.forms.packed(1 << 40), act.forms.packed(1)
    assert wide.w != narrow.w and wide.nonzeros is narrow.nonzeros


def closure_adds(mut):
    """The rows that the closure of the Fraction oracle adds to the span of the generators."""
    return ref_ideal(mut, ref_semidirect(mut))[2]


def adjoint_pair(brackets):
    L = LieAlgebra(len(brackets), mats(brackets))
    return MutualActions(L.adjoint, L.adjoint)


FIXTURE_PAIRS = {f"{name}-{seed}": (name, seed) for name in ("sparse_b3", "dense_b3") for seed in range(3)}


@pytest.mark.parametrize("case", sorted(FIXTURE_PAIRS) + sorted(ORACLE_CASES))
def test_the_closure_adds_no_row_for_a_compatible_pair(case):
    # the fixtures of lie_data (the benchmark's adjoint pairs) and the oracle
    # cases here; the incompatible cases need the closure
    if case in FIXTURE_PAIRS:
        name, seed = FIXTURE_PAIRS[case]
        mut = adjoint_pair(getattr(lie_data, name)(seed))
    else:
        mut = ORACLE_CASES[case]()[0]
    compatible = lie_compatible(mut).ok
    assert compatible == (case not in INCOMPATIBLE_CASES)
    assert bool(closure_adds(mut)) != compatible
    assert (lie_peiffer(mut).disagreement is None) == compatible


@st.composite
def xmod_over(draw, L):
    """A crossed module over L: the identity, or the adjoint or a trivial module with zero boundary."""
    kind = draw(st.sampled_from(("identity", "adjoint module", "trivial module")))
    if kind == "identity":
        return CrossedModule(identity_lie_map(L), L.adjoint)
    V = abelian(L.dim if kind == "adjoint module" else draw(st.integers(0, 2)))
    rho = fk.rho(L.adjoint) if kind == "adjoint module" else zero_action(L, V)
    return CrossedModule(LieMap(V, L, zero_mat(L.dim, V.dim)), LieAction(L, V, rho))


@st.composite
def transported(draw):
    """One of ALGEBRAS on a drawn basis diag(c) U, U unitriangular: rational constants."""
    L = draw(algebras)
    n = L.dim
    P = [[draw(st.integers(-2, 2)) if i < j else int(i == j) for j in range(n)] for i in range(n)]
    P = [[draw(st.sampled_from((1, 2, -3))) * x for x in row] for row in P]
    return LieAlgebra(n, mats(lie_data.transport(fk.brackets(L), P)))


@oracle_settings
@given(transported(), st.data())
def test_the_closure_adds_no_row_for_pairs_induced_by_crossed_modules(L, data):
    # two crossed modules over one base induce a compatible pair
    mut = lie_induced_actions(*data.draw(st.tuples(xmod_over(L), xmod_over(L)) | st.just(ideal_fixture())))
    assert lie_compatible(mut).ok
    assert closure_adds(mut) == []
    assert lie_peiffer(mut).disagreement is None


# The fraction-free rref against the Fraction one, and the least denominator
# that every way of building an object keeps.


@st.composite
def rational_rows(draw):
    """Rows of Fractions as fraction_rows draws them, with zero, repeated, negated and dependent rows put in."""
    rows = list(draw(fraction_rows(draw(st.integers(0, 5)), cols := draw(st.integers(0, 5)))))
    for kind in draw(st.lists(st.sampled_from(("zero", "repeated", "negated", "dependent")), max_size=4)):
        at = draw(st.integers(0, len(rows)))
        if kind == "zero" or not rows:
            rows.insert(at, zero_vec(cols))
            continue
        u, v = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
        c = draw(st.sampled_from((Fraction(2), Fraction(-1, 3), Fraction(5, 2))))
        rows.insert(at, {"repeated": u, "negated": vscale(Fraction(-1), u), "dependent": vadd(vscale(c, u), v)}[kind])
    return rows


@oracle_settings
@given(rational_rows(), st.data())
def test_fraction_free_rref_matches_the_fraction_oracle(rows, data):
    # each row goes in as integers at a scale of its own, its least common
    # denominator times a drawn factor; negative factors give negative pivots
    ints = []
    for row in rows:
        k = lcm(*(x.denominator for x in row)) * data.draw(st.sampled_from((1, -1, 2, -3)))
        ints.append(tuple(int(x * k) for x in row))
    got, pivots, D = peiffer.lie.rref(ints)
    want, want_pivots = rref(rows)
    assert all(type(x) is int for row in got for x in row)
    assert fk.over(D, got) == want and pivots == want_pivots
    assert D == lcm(*(x.denominator for row in want for x in row))  # the least D


def test_each_way_of_building_an_object_gives_one_value():
    # from Fractions in tuples or lists, from ints, from a loaded "p/q" file and
    # from a copy over 2 D, each object compares and hashes as one value
    def same(*objects):
        assert all(x == objects[0] and hash(x) == hash(objects[0]) for x in objects), objects

    def doubled(mats):
        return tuple(tuple(tuple(2 * x for x in row) for row in m) for m in mats)

    as_lists = [[[0, 0], [0, 1]], [[0, -1], [0, 0]]]
    L = solvable2()
    same(L, LieAlgebra(2, as_lists), LieAlgebra(2, [[list(map(Fraction, v)) for v in row] for row in as_lists]),
         lie_from_dict(pio.lie_to_dict(L)), LieAlgebra._built(2 * L.D, doubled(L.brackets)))
    half = LieAlgebra(2, mats([[[0, 0], [0, "1/2"]], [[0, "-1/2"], [0, 0]]]))
    assert half.D == 2 and half.brackets[0][1] == (0, 1)
    same(half, lie_from_dict(pio.lie_to_dict(half)), LieAlgebra._built(2 * half.D, doubled(half.brackets)))
    for A in (L, half):
        act = A.adjoint
        same(act, LieAction(A, A, fk.rho(act)), LieAction(A, A, [list(map(list, m)) for m in fk.rho(act)]),
             lie_action_from_dict(pio.lie_action_to_dict(act)), LieAction._built(A, A, 2 * act.D, doubled(act.rho)))
    same(L.adjoint, LieAction(L, L, (((0, 0), (0, 1)), ((0, 0), (-1, 0)))))
    f = LieMap(L, half, mat([["1/2", 0], [0, 1]]))
    assert f.D == 2 and f.matrix == ((1, 0), (0, 2))
    same(f, LieMap(L, half, [[Fraction(1, 2), 0], [0, 1]]), LieMap(L, half, pio.mat([["1/2", "0"], ["0", "1"]])),
         LieMap._built(L, half, 4, ((2, 0), (0, 4))))
    xm = identity_xmod(L)
    same(xm.boundary, LieMap(L, L, ((1, 0), (0, 1))), lie_xmod_from_dict(pio.lie_xmod_to_dict(xm)).boundary)


@pytest.mark.parametrize("seed", range(2))
def test_the_pipeline_keeps_the_least_denominator(seed):
    # on the dense b3 adjoint pair, whose P is over a D above 1, every object the
    # constructions build keeps the least D: it equals itself rebuilt from its rationals
    L = LieAlgebra(6, mats(lie_data.dense_b3(seed)))
    pp = lie_peiffer(MutualActions(L.adjoint, L.adjoint))
    xm = identity_xmod(L)
    built = {"S": lie_semidirect(L.adjoint), "P": pp.product, "lM": pp.lM, "lN": pp.lN,
             "on_M": pp.actions[0], "on_N": pp.actions[1], "universal": lie_universal_map(pp, xm, xm),
             "pullback": lie_induced_actions(*peiffer_xmods(pp)).xi_nm}
    assert pp.product.D > 1 and L.D > 1
    for name, x in built.items():
        if isinstance(x, LieAlgebra):
            rebuilt = LieAlgebra(x.dim, fk.brackets(x))
        elif isinstance(x, LieAction):
            rebuilt = LieAction(x.acting, x.target, fk.rho(x))
        else:
            rebuilt = LieMap(x.dom, x.cod, fk.matrix(x))
        assert rebuilt == x and hash(rebuilt) == hash(x) and rebuilt.D == x.D, name
