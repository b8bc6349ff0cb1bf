"""Finite-dimensional Lie algebras over the rationals, with exact arithmetic.

Mutual actions by derivations and crossed modules are the groups' own
compat.MutualActions and xmod.CrossedModule; this module adds the two
compatibility equations, the semidirect sum, and the Peiffer quotient with
its crossed-module structures and universal map.  All data are tuples of
Fractions, kept as given; peiffer.io turns the rationals of a file into them.
The checks compute exactly on integer numerators over one common denominator
per action or map, and only a witness goes back to Fractions.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm

from .compat import MutualActions
from .groups import VALID, Diagnosis
from .xmod import CrossedModule


class LieError(ValueError):
    pass


ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


# The kernels below skip every product with a zero factor and every sum with
# a zero term: no exact value changes, and Lie data are mostly zeros.  mat_mul,
# combination and the sums take their zero from their operands, Fraction or int.

def vadd(u, v):
    return tuple(a + b if a and b else a or b for a, b in zip(u, v))


def vsub(u, v):
    return tuple((a - b if a else -b) if b else a for a, b in zip(u, v))


def vscale(c, u):
    if not c:
        return zero_vec(len(u))
    return tuple(c * a if a else a for a in u)


def zero_mat(rows: int, cols: int) -> tuple:
    return tuple(zero_vec(cols) for _ in range(rows))


def identity_mat(n: int) -> tuple:
    return tuple(
        tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n)
    )


def mat_vec(A, v) -> tuple:
    terms = [(k, x) for k, x in enumerate(v) if x]
    out = [ZERO] * len(A)
    for i, row in enumerate(A):
        for k, x in terms:
            a = row[k]
            if a:
                out[i] = out[i] + a * x if out[i] else a * x
    return tuple(out)


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


def combination(mats, coeffs, n: int) -> tuple:
    """sum_k coeffs[k] mats[k] over n x n matrices; mats[k] itself when coeffs is basis vector k."""
    terms = [(m, c) for m, c in zip(mats, coeffs) if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    out = [[coeffs[0] * 0 if coeffs else ZERO] * n for _ in range(n)]
    for m, c in terms:
        for acc, row in zip(out, m):
            for j, x in enumerate(row):
                if x:
                    acc[j] = acc[j] + c * x if acc[j] else c * x
    return tuple(map(tuple, out))


def mat_add(A, B) -> tuple:
    return tuple(vadd(r, s) for r, s in zip(A, B))


def mat_sub(A, B) -> tuple:
    return tuple(vsub(r, s) for r, s in zip(A, B))


def mat_commutator(A, B) -> tuple:
    return mat_sub(mat_mul(A, B), mat_mul(B, A))


def column(A, j) -> tuple:
    return tuple(row[j] for row in A)


def _scaled(mats) -> tuple:
    """(D, mats with every entry times D as an int), D the entries' least common denominator."""
    D = lcm(*(x.denominator for m in mats for row in m for x in row))
    return D, tuple(tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in m) for m in mats)


def _disagreement(A, B, first, a, b):
    """The first column j >= first where A/a and B/b differ, with column j of A/a - B/b.

    A and B are integer matrices over the scales a and b, compared as A b = B a;
    None when they agree on every such column.  Every Lie check below is one
    such matrix identity, and the column found, in Fractions, is its witness.
    """
    if a != b:
        A, B, a = tuple(tuple(x * b for x in r) for r in A), tuple(tuple(x * a for x in r) for r in B), a * b
    cols = [j for r, s in zip(A, B) if r != s for j in range(first, len(r)) if r[j] != s[j]]
    if not cols:
        return None
    j = min(cols)
    return j, tuple(Fraction(r[j] - s[j], a) for r, s in zip(A, B))


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def rref(rows):
    """Reduced row echelon form; returns (rows without zero rows, pivot cols)."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    ncols = len(rows[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(rows)) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [inv * v if v else v for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                rows[i] = list(vsub(rows[i], vscale(rows[i][c], rows[r])))
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return tuple(tuple(row) for row in rows[:r]), tuple(pivots)


def reduce_mod(basis_rows, pivots, v):
    """Reduce v against an rref basis; zero result means v is in the span."""
    for row, c in zip(basis_rows, pivots):
        if v[c] != 0:
            v = vsub(v, vscale(v[c], row))
    return v


class LieAlgebra:
    """Structure constants on a chosen basis: brackets[i][j] = [e_i, e_j].

    brackets is kept as given: tuples of Fractions at every level, as
    peiffer.io builds them.  Like every constructor it trusts its input, and
    peiffer.io checks what it loads; check=True runs validate_lie, and the
    flag stays only because perfbench/test_perfbench.py passes it.
    """

    # the error and the noun of the guards compat and xmod share with groups
    error = LieError
    noun = "algebra"

    def __init__(self, dim: int, brackets, name: str | None = None, check: bool = False):
        self.dim = dim
        self.brackets = brackets
        self.name = name
        if len(self.brackets) != self.dim or any(
            len(row) != self.dim or any(len(v) != self.dim for v in row)
            for row in self.brackets
        ):
            raise LieError("structure constants have the wrong shape")
        if check:
            validate_lie(self).expect("Lie axioms", LieError)

    @cached_property
    def adjoint(self) -> "LieAction":
        """The adjoint action: rho[i] is ad(e_i), whose column j is [e_i, e_j]."""
        n = self.dim
        rho = tuple(tuple(column(row, r) for r in range(n)) for row in self.brackets)
        return LieAction(self, self, rho)

    def bracket(self, u, v) -> tuple:
        return self.adjoint(u, v)

    def ad(self, u) -> tuple:
        """The matrix of [u, -] on the basis (columns are images)."""
        return self.adjoint.of(u)

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.brackets == other.brackets

    def __hash__(self):
        return hash(self.brackets)

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"LieAlgebra(dim={self.dim}{tag})"


def validate_lie(L: LieAlgebra) -> Diagnosis:
    """Antisymmetry, then Jacobi as [ad e_i, ad e_j] = ad([e_i, e_j]).

    Column k of the difference is the Jacobiator of (e_i, e_j, e_k).  Once
    antisymmetry holds it is alternating, so it vanishes when two indices
    agree and the first failing triple in lexicographic order is sorted:
    pairs i < j and columns k > j suffice.
    """
    n, (D, ad) = L.dim, L.adjoint.scaled
    for i in range(n):
        for j in range(n):
            resid = vadd(column(ad[i], j), column(ad[j], i))
            if any(resid):
                return Diagnosis(False, "antisymmetry fails", (i, j, tuple(Fraction(x, D) for x in resid)))
    for i in range(n):
        for j in range(i + 1, n):
            # both sides are over D^2: [e_i, e_j] is column j of ad[i] over D
            rhs = combination(ad, column(ad[i], j), n)
            bad = _disagreement(mat_commutator(ad[i], ad[j]), rhs, j + 1, D * D, D * D)
            if bad:
                return Diagnosis(False, "Jacobi fails", (i, j) + bad)
    return VALID


class LieMap:
    """A linear map between Lie algebras; matrix rows = cod.dim, cols = dom.dim."""

    def __init__(self, dom: LieAlgebra, cod: LieAlgebra, matrix):
        self.dom = dom
        self.cod = cod
        self.matrix = matrix
        if len(self.matrix) != cod.dim or any(len(r) != dom.dim for r in self.matrix):
            raise LieError("matrix shape does not match the algebras")

    def __call__(self, v) -> tuple:
        return mat_vec(self.matrix, v)

    @cached_property
    def scaled(self) -> tuple:
        """(D, (the matrix times D as ints,)), D the least common denominator."""
        return _scaled((self.matrix,))

    def check(self) -> Diagnosis:
        """f ad(e_i) = ad(f e_i) f, whose column j is f[e_i, e_j] - [f e_i, f e_j].

        That residual is antisymmetric in (i, j) and zero at i = j, so the
        first failing pair in lexicographic order has i < j: columns j > i
        suffice.
        """
        (s, (F,)), (a, ad), (c, cod_ad) = self.scaled, self.dom.adjoint.scaled, self.cod.adjoint.scaled
        for i, ad_i in enumerate(ad):
            rhs = mat_mul(combination(cod_ad, column(F, i), self.cod.dim), F)
            bad = _disagreement(mat_mul(F, ad_i), rhs, i + 1, s * a, s * s * c)
            if bad:
                return Diagnosis(False, "bracket not preserved", (i,) + bad)
        return VALID

    def __repr__(self):
        return f"LieMap({self.dom.dim} -> {self.cod.dim})"


def identity_lie_map(L: LieAlgebra) -> LieMap:
    return LieMap(L, L, identity_mat(L.dim))


class LieAction:
    """An action by derivations: rho[a] is the matrix of basis element a."""

    def __init__(self, acting: LieAlgebra, target: LieAlgebra, rho):
        self.acting = acting
        self.target = target
        self.rho = rho
        if len(self.rho) != acting.dim or any(
            len(m) != target.dim or any(len(r) != target.dim for r in m)
            for m in self.rho
        ):
            raise LieError("action matrices have the wrong shape")

    @cached_property
    def scaled(self) -> tuple:
        """(D, rho times D as ints), D the least common denominator."""
        return _scaled(self.rho)

    def of(self, u) -> tuple:
        """The matrix acting for a general element u of the acting algebra."""
        return combination(self.rho, u, self.target.dim)

    def __call__(self, u, x) -> tuple:
        return mat_vec(self.of(u), x)

    def __eq__(self, other):
        return (
            isinstance(other, LieAction)
            and self.acting == other.acting
            and self.target == other.target
            and self.rho == other.rho
        )

    def __hash__(self):
        return hash((self.acting, self.target, self.rho))

    def __repr__(self):
        return f"LieAction({self.acting.dim} on {self.target.dim})"


def check_lie_action(act: LieAction) -> Diagnosis:
    """rho must be a Lie homomorphism into derivations of the target.

    Two matrix identities: rho([e_a, e_b]) = [rho_a, rho_b], and
    rho_a ad(e_i) = ad(rho_a e_i) + ad(e_i) rho_a, whose column j is the
    derivation rule at (e_i, e_j).  Each difference is antisymmetric in its
    two indices and zero when they agree, so the first failing pair in
    lexicographic order is increasing: pairs a < b and columns j > i suffice.
    """
    A, n = act.acting, act.target.dim
    (r, rho), (s, acting_ad), (x, ad) = act.scaled, A.adjoint.scaled, act.target.adjoint.scaled
    for a in range(A.dim):
        for b in range(a + 1, A.dim):
            lhs = combination(rho, column(acting_ad[a], b), n)
            if _disagreement(lhs, mat_commutator(rho[a], rho[b]), 0, s * r, r * r):
                return Diagnosis(False, "rho is not a Lie homomorphism", (a, b))
    for a, R in enumerate(rho):
        for i, ad_i in enumerate(ad):
            # all three terms are over r x
            rhs = mat_add(combination(ad, column(R, i), n), mat_mul(ad_i, R))
            bad = _disagreement(mat_mul(R, ad_i), rhs, i + 1, r * x, r * x)
            if bad:
                return Diagnosis(False, "rho(a) is not a derivation", (a, i, bad[0]))
    return VALID


def trivial_lie_action(acting: LieAlgebra, target: LieAlgebra) -> LieAction:
    return LieAction(acting, target, (zero_mat(target.dim, target.dim),) * acting.dim)


def adjoint_action(L: LieAlgebra) -> LieAction:
    return L.adjoint


def pullback_lie_action(f: LieMap, act: LieAction) -> LieAction:
    if f.cod != act.acting:
        raise LieError("pullback: codomain does not match the acting algebra")
    rho = tuple(act.of(column(f.matrix, a)) for a in range(f.dom.dim))
    return LieAction(f.dom, act.target, rho)


def lie_compatible(mut: MutualActions) -> Diagnosis:
    """The two compatibility equations on basis triples.

    (C1): rho_NM(rho_MN(m) n) m' = [m, rho_NM(n) m'] - rho_NM(n) [m, m']
    (C2): rho_MN(rho_NM(n) m) n' = [n, rho_MN(m) n'] - rho_MN(m) [n, n']

    At m = e_i and n = e_j, (C1) is the matrix identity
    rho_NM(rho_MN(e_i) e_j) = [ad e_i, rho_NM(e_j)], whose column k is m' = e_k.
    """
    # (C2) is (C1) for the swapped pair, with the same witness layout
    for reason, pair in (("first equation fails", mut), ("second equation fails", mut.swapped())):
        (p, nm), (q, mn), (a, ad) = pair.xi_nm.scaled, pair.xi_mn.scaled, pair.M.adjoint.scaled
        for i, ad_i in enumerate(ad):
            for j, R in enumerate(nm):
                lhs = combination(nm, column(mn[i], j), pair.M.dim)
                bad = _disagreement(lhs, mat_commutator(ad_i, R), 0, q * p, a * p)
                if bad:
                    return Diagnosis(False, reason, (i, j) + bad)
    return VALID


def check_lie_xmod(xm: CrossedModule) -> Diagnosis:
    """The boundary d is a hom, d rho_a = ad(e_a) d, and rho(d e_i) = ad(e_i).

    Column i of the second identity is the equivariance witness and column j
    of the third the Peiffer one.
    """
    diag = xm.boundary.check()
    if not diag.ok:
        return diag
    (e, (d,)), (r, rho) = xm.boundary.scaled, xm.action.scaled
    (a, A_ad), (x, X_ad) = xm.A.adjoint.scaled, xm.X.adjoint.scaled
    for k, ad_k in enumerate(A_ad):
        bad = _disagreement(mat_mul(d, rho[k]), mat_mul(ad_k, d), 0, e * r, a * e)
        if bad:
            return Diagnosis(False, "boundary is not equivariant", (k,) + bad)
    for i, ad_i in enumerate(X_ad):
        bad = _disagreement(combination(rho, column(d, i), xm.X.dim), ad_i, 0, e * r, x)
        if bad:
            return Diagnosis(False, "Peiffer identity fails", (i,) + bad)
    return VALID


def lie_induced_actions(xm_m: CrossedModule, xm_n: CrossedModule) -> MutualActions:
    """Pullback actions of two crossed modules, trusted as loaded or built."""
    if xm_m.A != xm_n.A:
        raise LieError("crossed modules have different base algebras")
    xi_nm = pullback_lie_action(xm_n.boundary, xm_m.action)
    xi_mn = pullback_lie_action(xm_m.boundary, xm_n.action)
    return MutualActions(xi_nm, xi_mn)


class LieSemidirect:
    """M + N with bracket twisted by the action of N on M; basis is M's then N's."""

    def __init__(self, algebra, j_m, j_n, pi):
        self.algebra = algebra
        self.j_m = j_m
        self.j_n = j_n
        self.pi = pi


def _semidirect_brackets(rho: LieAction) -> tuple:
    """The structure constants of M x| N on M's basis then N's, block by block.

    [m_i, m_j] = [m_i, m_j]_M, [n_a, m_j] = rho(n_a) m_j = -[m_j, n_a] and
    [n_a, n_b] = [n_a, n_b]_N; rho(n_a) m_j is column j of rho.rho[a].
    """
    M, N = rho.target, rho.acting
    dm, dn = M.dim, N.dim
    zm, zn = zero_vec(dm), zero_vec(dn)
    acts = [[column(R, j) for j in range(dm)] for R in rho.rho]
    rows = [
        tuple(M.brackets[i][j] + zn for j in range(dm))
        + tuple(tuple(-x for x in acts[b][i]) + zn for b in range(dn))
        for i in range(dm)
    ]
    rows += [
        tuple(acts[a][j] + zn for j in range(dm))
        + tuple(zm + N.brackets[a][b] for b in range(dn))
        for a in range(dn)
    ]
    return tuple(rows)


def lie_semidirect(rho: LieAction) -> LieSemidirect:
    """[(m,n),(m',n')] = ([m,m'] + rho(n) m' - rho(n') m, [n,n'])."""
    M, N = rho.target, rho.acting
    dm = M.dim
    # Jacobi holds because M and N do and rho is a Lie hom into Der(M)
    S = LieAlgebra(dm + N.dim, _semidirect_brackets(rho))
    ident = identity_mat(S.dim)
    j_m = LieMap(M, S, tuple(row[:dm] for row in ident))
    j_n = LieMap(N, S, tuple(row[dm:] for row in ident))
    pi = LieMap(S, N, ident[dm:])
    return LieSemidirect(S, j_m, j_n, pi)


def _lie_map_from_columns(dom, cod, columns) -> LieMap:
    return LieMap(dom, cod, tuple(column(columns, i) for i in range(cod.dim)))


class LiePeifferProduct:
    """The quotient of M x| N by the Peiffer ideal, on the coordinates of M + N.

    The coordinates are M's basis then N's.  reps are the coordinates off the
    ideal's pivots, whose basis vectors represent P's basis; columns[c] is
    the image in P of basis vector c, so l_m and l_n are its first M.dim and
    last N.dim columns.
    """

    def __init__(self, algebra, reps, columns, l_m, l_n, source, ideal_rows, ideal_pivots):
        self.algebra = algebra
        self.reps = reps
        self.columns = columns
        self.l_m = l_m
        self.l_n = l_n
        self.source = source
        self.ideal_rows = ideal_rows
        self.ideal_pivots = ideal_pivots

    @cached_property
    def semidirect(self) -> LieSemidirect:
        """M x| N itself, built only when asked for."""
        return lie_semidirect(self.source.xi_nm)

    @cached_property
    def proj(self) -> LieMap:
        return _lie_map_from_columns(self.semidirect.algebra, self.algebra, self.columns)

    def __repr__(self):
        return f"LiePeifferProduct(dim={self.algebra.dim})"


def lie_peiffer_ideal(mut: MutualActions):
    """The ideal of M x| N generated by the Peiffer elements.

    Generators (rho_NM(n) m, rho_MN(m) n) over basis pairs, closed under
    bracketing with all basis vectors; returns M x| N as an algebra on the
    coordinates of M + N, and the ideal's rref basis and pivots.
    """
    dm, dn = mut.M.dim, mut.N.dim
    S = LieAlgebra(dm + dn, _semidirect_brackets(mut.xi_nm))
    gens = [
        column(mut.xi_nm.rho[j], i) + column(mut.xi_mn.rho[i], j)
        for i in range(dm)
        for j in range(dn)
    ]
    rows, pivots = rref(gens)
    work = list(rows)
    while work:
        v = work.pop()
        for ad_b in S.adjoint.rho:
            w = reduce_mod(rows, pivots, mat_vec(ad_b, v))
            if any(w):
                rows, pivots = rref(list(rows) + [w])
                work.append(w)
    return S, rows, pivots


def lie_peiffer(mut: MutualActions) -> LiePeifferProduct:
    S, rows, pivots = lie_peiffer_ideal(mut)
    reps = tuple(c for c in range(S.dim) if c not in pivots)

    def project(v):
        red = reduce_mod(rows, pivots, v)
        return tuple(red[c] for c in reps)

    # the closure in lie_peiffer_ideal is an ideal, so P is a quotient algebra
    brackets = tuple(tuple(project(S.brackets[a][b]) for b in reps) for a in reps)
    P = LieAlgebra(len(reps), brackets)
    columns = tuple(project(basis_vec(S.dim, c)) for c in range(S.dim))
    dm = mut.M.dim
    l_m = _lie_map_from_columns(mut.M, P, columns[:dm])
    l_n = _lie_map_from_columns(mut.N, P, columns[dm:])
    return LiePeifferProduct(P, reps, columns, l_m, l_n, mut, rows, pivots)


def lie_peiffer_actions(pp: LiePeifferProduct) -> tuple[LieAction, LieAction]:
    """The actions of the quotient on M and on N, checked well defined.

    On M a representative (m, n) acts as ad(m) + rho_NM(n); on N as
    ad(n) + rho_MN(m).  Well-definedness means every ideal basis vector
    acts as zero, which is checked exactly.
    """
    mut = pp.source
    # basis vector k of M + N acts on M as on_m[k] and on N as on_n[k]
    on_m, on_n = mut.M.adjoint.rho + mut.xi_nm.rho, mut.xi_mn.rho + mut.N.adjoint.rho
    sides = ((on_m, mut.M, "M"), (on_n, mut.N, "N"))
    for row in pp.ideal_rows:
        for mats, X, tag in sides:
            if any(x != 0 for r in combination(mats, row, X.dim) for x in r):
                raise LieError(f"induced action on {tag} is not well defined, witness={row}")
    # once the ideal acts as zero both are Lie homs into derivations
    return tuple(LieAction(pp.algebra, X, tuple(mats[k] for k in pp.reps)) for mats, X, _ in sides)


def lie_peiffer_xmods(pp: LiePeifferProduct) -> tuple[CrossedModule, CrossedModule]:
    on_m, on_n = lie_peiffer_actions(pp)
    xm_m = CrossedModule(pp.l_m, on_m)
    xm_n = CrossedModule(pp.l_n, on_n)
    return xm_m, xm_n


def lie_universal_map(pp: LiePeifferProduct, xm_m: CrossedModule, xm_n: CrossedModule) -> LieMap:
    """The unique map P -> L through which both structure maps factor."""
    mut = pp.source
    if xm_m.X != mut.M or xm_n.X != mut.N:
        raise LieError("crossed modules are not over M and N")
    if lie_induced_actions(xm_m, xm_n) != mut:
        raise LieError("crossed modules do not induce the given actions")
    L = xm_m.A
    mu, nu = xm_m.boundary.matrix, xm_n.boundary.matrix
    dm = mut.M.dim
    # (m, n) -> mu(m) + nu(n) kills the ideal, as mu and nu are equivariant,
    # so P's basis vector goes where its representative does
    rows = tuple(
        tuple(mu[i][k] if k < dm else nu[i][k - dm] for k in pp.reps) for i in range(L.dim)
    )
    return LieMap(pp.algebra, L, rows)
