"""The integer matrix kernels and checks before packing, kept as oracles.

A helper module, not collected by pytest.  Each check here is the body that
peiffer.lie ran before its matrices were packed into ints: the same matrix
identities on tuples of ints over the same common denominators, compared
column by column.  The packed checks must give the same Diagnosis on every
input.  mat_mul, mat_add and mat_sub also serve the Fraction oracles of
test_lie, as they take their zero from their operands.
"""
from fractions import Fraction

from peiffer.groups import VALID, Diagnosis
from peiffer.lie import ZERO, column, combination, vadd, vsub


def mat_mul(A, B) -> tuple:
    cols = len(B[0]) if B else 0
    zero = B[0][0] * 0 if cols else ZERO
    out = []
    for row in A:
        acc = [zero] * cols
        for k, a in enumerate(row):
            if a:
                for j, b in enumerate(B[k]):
                    if b:
                        acc[j] = acc[j] + a * b if acc[j] else a * b
        out.append(tuple(acc))
    return tuple(out)


def mat_add(A, B) -> tuple:
    return tuple(vadd(r, s) for r, s in zip(A, B))


def mat_sub(A, B) -> tuple:
    return tuple(vsub(r, s) for r, s in zip(A, B))


def mat_commutator(A, B) -> tuple:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def disagreement(A, B, first, a, b):
    """The first column j >= first where A/a and B/b differ, with column j of A/a - B/b.

    A and B are integer matrices over the scales a and b, compared as A b = B a;
    None when they agree on every such column.
    """
    if a != b:
        A, B, a = tuple(tuple(x * b for x in r) for r in A), tuple(tuple(x * a for x in r) for r in B), a * b
    cols = [j for r, s in zip(A, B) if r != s for j in range(first, len(r)) if r[j] != s[j]]
    if not cols:
        return None
    j = min(cols)
    return j, tuple(Fraction(r[j] - s[j], a) for r, s in zip(A, B))


def validate_lie(L) -> Diagnosis:
    n, (D, ad) = L.dim, L.adjoint.forms.scaled
    for i in range(n):
        for j in range(n):
            resid = vadd(column(ad[i], j), column(ad[j], i))
            if any(resid):
                return Diagnosis(False, "antisymmetry fails", (i, j, tuple(Fraction(x, D) for x in resid)))
    for i in range(n):
        for j in range(i + 1, n):
            rhs = combination(ad, column(ad[i], j), n)
            bad = disagreement(mat_commutator(ad[i], ad[j]), rhs, j + 1, D * D, D * D)
            if bad:
                return Diagnosis(False, "Jacobi fails", (i, j) + bad)
    return VALID


def map_check(f) -> Diagnosis:
    if len(f.matrix) != f.cod.dim or any(len(r) != f.dom.dim for r in f.matrix):
        return Diagnosis(False, "matrix shape does not match the algebras", ())
    (s, (F,)), (a, ad), (c, cod_ad) = f.forms.scaled, f.dom.adjoint.forms.scaled, f.cod.adjoint.forms.scaled
    for i, ad_i in enumerate(ad):
        rhs = mat_mul(combination(cod_ad, column(F, i), f.cod.dim), F)
        bad = disagreement(mat_mul(F, ad_i), rhs, i + 1, s * a, s * s * c)
        if bad:
            return Diagnosis(False, "bracket not preserved", (i,) + bad)
    return VALID


def check_lie_action(act) -> Diagnosis:
    A, n = act.acting, act.target.dim
    if len(act.rho) != A.dim or any(len(m) != n or any(len(r) != n for r in m) for m in act.rho):
        return Diagnosis(False, "action matrices have the wrong shape", ())
    (r, rho), (s, acting_ad), (x, ad) = act.forms.scaled, A.adjoint.forms.scaled, act.target.adjoint.forms.scaled
    for a in range(A.dim):
        for b in range(a + 1, A.dim):
            lhs = combination(rho, column(acting_ad[a], b), n)
            if disagreement(lhs, mat_commutator(rho[a], rho[b]), 0, s * r, r * r):
                return Diagnosis(False, "rho is not a Lie homomorphism", (a, b))
    for a, R in enumerate(rho):
        for i, ad_i in enumerate(ad):
            rhs = mat_add(combination(ad, column(R, i), n), mat_mul(ad_i, R))
            bad = disagreement(mat_mul(R, ad_i), rhs, i + 1, r * x, r * x)
            if bad:
                return Diagnosis(False, "rho(a) is not a derivation", (a, i, bad[0]))
    return VALID


def lie_compatible(mut) -> Diagnosis:
    for reason, pair in (("first equation fails", mut), ("second equation fails", mut.swapped())):
        (p, nm), (q, mn), (a, ad) = pair.xi_nm.forms.scaled, pair.xi_mn.forms.scaled, pair.M.adjoint.forms.scaled
        for i, ad_i in enumerate(ad):
            for j, R in enumerate(nm):
                lhs = combination(nm, column(mn[i], j), pair.M.dim)
                bad = disagreement(lhs, mat_commutator(ad_i, R), 0, q * p, a * p)
                if bad:
                    return Diagnosis(False, reason, (i, j) + bad)
    return VALID


def check_lie_xmod(xm) -> Diagnosis:
    diag = map_check(xm.boundary)
    if not diag.ok:
        return diag
    (e, (d,)), (r, rho) = xm.boundary.forms.scaled, xm.action.forms.scaled
    (a, A_ad), (x, X_ad) = xm.A.adjoint.forms.scaled, xm.X.adjoint.forms.scaled
    for k, ad_k in enumerate(A_ad):
        bad = disagreement(mat_mul(d, rho[k]), mat_mul(ad_k, d), 0, e * r, a * e)
        if bad:
            return Diagnosis(False, "boundary is not equivariant", (k,) + bad)
    for i, ad_i in enumerate(X_ad):
        bad = disagreement(combination(rho, column(d, i), xm.X.dim), ad_i, 0, e * r, x)
        if bad:
            return Diagnosis(False, "Peiffer identity fails", (i,) + bad)
    return VALID
