"""Finite-dimensional Lie algebras over the rationals, with exact arithmetic.

Mutual actions by derivations and crossed modules are the groups' own
compat.MutualActions and xmod.CrossedModule; this module adds the two
compatibility equations, the semidirect sum, and the Peiffer quotient with
its induced actions and universal map.  The quotient has the interface of
product.PeifferProduct, so product.peiffer_xmods gives its crossed-module
structures as it does the groups'.  Each algebra, action and map keeps its
rationals as integers over D, their least common denominator, which a
construction hands to what it builds (_built, like groups._built_group).
peiffer.io reads and writes rationals; here a Fraction is only a witness.

The checks pack each matrix column-major at its own row count, w bits a lane
(_Packed): a product sums multiples of its left factor's packed columns.  Each
check is a matrix identity of packed ints, with w two bits more than a bound it
states on every lane of both sides, so they are equal exactly when the matrices
are.  Only a failing identity is unpacked: the lowest set bit of the difference
lies in its first nonzero column, whose lanes over the denominator are the witness.
"""
from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import gcd, lcm

from .compat import MutualActions
from .groups import VALID, Diagnosis
from .xmod import CrossedModule


class LieError(ValueError):
    pass


def _scaled(mats) -> tuple:
    """(D, mats times D as ints) for matrices of rationals, D the least common denominator of their entries."""
    D = lcm(*(x.denominator for m in mats for row in m for x in row))
    return D, tuple(tuple(tuple(x.numerator * (D // x.denominator) for x in row) for row in m) for m in mats)


def _least(D: int, mats) -> tuple:
    """(D, mats) for integer matrices over D, divided by their gcd: D least, so == is equality of rationals."""
    g = gcd(D, *(x for m in mats for row in m for x in row)) if D > 1 else 1
    return (D // g, tuple(tuple(tuple(x // g for x in row) for row in m) for m in mats)) if g > 1 else (D, mats)


def column(A, j) -> tuple:
    return tuple(row[j] for row in A)


def _times(k: int, v) -> tuple:
    return v if k == 1 else tuple(k * x for x in v)


def _mat_vec(A, v) -> tuple:
    """A v for an integer matrix and vector, over the nonzeros of v."""
    terms = [(k, x) for k, x in enumerate(v) if x]
    return tuple(sum(row[k] * x for k, x in terms) for row in A)


def _lin(mats, coeffs, n: int) -> tuple:
    """sum_k coeffs[k] mats[k] over n x n integer matrices, for nonzero coeffs; mats[k] for basis vector k."""
    terms = [(m, c) for m, c in zip(mats, coeffs) if c]
    if len(terms) == 1 and terms[0][1] == 1:
        return terms[0][0]
    return tuple(tuple(sum(c * m[i][j] for m, c in terms) for j in range(n)) for i in range(n))


class _Packed:
    """The integer matrices of forms, r rows each, packed column-major w bits a signed lane: X
    packs as the sum of X[i][j] << w (j r + i).  cols[m][k] is column k of matrix m as an r-lane
    int and whole[m] the matrix; nonzeros are the forms' own, shared by its packs of every width."""

    def __init__(self, forms: _IntegerForms, w: int):
        self.w, self.r, self.nonzeros = w, len(forms.mats[0]) if forms.mats else 0, forms.nonzeros
        self.cols = [[0] * len(m[0]) if m else [] for m in forms.mats]
        for cols, nonzeros in zip(self.cols, self.nonzeros):
            for k, j, b in nonzeros:
                cols[j] += b << w * k
        self.whole = tuple(sum(c << w * self.r * k for k, c in enumerate(cols)) for cols in self.cols)


def _mul(p: _Packed, a: int, q: _Packed | _IntegerForms, b: int) -> int:
    """A B packed, for A matrix a of p and B matrix b of q, a pack or its forms (only q.nonzeros is
    read): column j is the sum of x (column k of A) over the nonzeros x of B at (k, j) (Kronecker
    substitution, von zur Gathen and Gerhard, 8.4).  0 when A has no rows, as it keeps no columns."""
    cols, s, out, col, at = p.cols[a], p.w * p.r, 0, 0, 0
    for k, j, x in q.nonzeros[b] if cols else ():
        if j != at:
            out, col, at = out + (col << s * at), 0, j
        col += x * cols[k]
    return out + (col << s * at)


def _bracket(p: _Packed, a: int, q: _Packed, b: int) -> int:
    """A B - B A packed, for A matrix a of p and B matrix b of q."""
    return _mul(p, a, q, b) - _mul(q, b, p, a)


def _combination(whole, coeffs) -> int:
    return sum(c * W for c, W in zip(coeffs, whole) if c)


def _witness(lhs: int, rhs: int, p: _Packed, D: int):
    """None when packed lhs and rhs are equal; else the first column j where they
    differ, found by the lowest set bit of lhs - rhs, and column j of (lhs - rhs) / D."""
    diff, col, half = lhs - rhs, [], 1 << (p.w - 1)
    if not diff:
        return None
    j = ((diff & -diff).bit_length() - 1) // (p.w * p.r)
    diff >>= p.w * p.r * j
    for _ in range(p.r):
        col.append(((diff + half) & (2 * half - 1)) - half)
        diff = (diff - col[-1]) >> p.w
    return j, tuple(Fraction(x, D) for x in col)


class _IntegerForms:
    """Integer matrices mats over D, with what the checks derive from them, each built once and kept here."""

    def __init__(self, D: int, mats):
        self.D, self.mats, self.packs = D, mats, {}

    @cached_property
    def height(self) -> int:
        return max((abs(x) for m in self.mats for row in m for x in row), default=0)

    @cached_property
    def nonzeros(self):
        """For each matrix, its entries b at (k, j) as (k, j, b), column by column."""
        return tuple(tuple((k, j, b) for j, c in enumerate(zip(*m)) for k, b in enumerate(c) if b)
                     for m in self.mats)

    def packed(self, bound: int) -> _Packed:
        """mats packed for an identity with no lane above bound: w = bound.bit_length() + 2
        bits a lane, so 2 bound < 2^(w - 1).  Built once for each w."""
        w = bound.bit_length() + 2
        if w not in self.packs:
            self.packs[w] = _Packed(self, w)
        return self.packs[w]


def _primitive(row) -> tuple:
    g = gcd(*row)
    return tuple(x // g for x in row) if g > 1 else tuple(row)


def rref(rows):
    """Reduced row echelon form of integer rows given at any scale: (nonzero rows over D, pivot cols, D).

    Fraction-free (Bareiss, Math. Comp. 1968): row -= (x / p) R is p row - x R, then divided by its gcd.
    Each primitive row over its pivot p has least denominator |p|, so D, the lcm of the pivots, is least.
    """
    rows = [_primitive(r) for r in rows if any(r)]
    pivots = []
    for c in range(len(rows[0]) if rows else 0):
        r = len(pivots)
        k = next((i for i in range(r, len(rows)) if rows[i][c]), None)
        if k is None:
            continue
        rows[r], rows[k] = rows[k], rows[r]
        R = rows[r]
        for i, row in enumerate(rows):
            if row[c] and i != r:
                rows[i] = _primitive([R[c] * a - row[c] * b for a, b in zip(row, R)])
        pivots.append(c)
        if len(pivots) == len(rows):
            break
    D = lcm(*(row[c] for row, c in zip(rows, pivots)))
    return tuple(_times(D // row[c], row) for row, c in zip(rows, pivots)), tuple(pivots), D


class LieAlgebra:
    """Structure constants on a chosen basis: brackets[i][j] = [e_i, e_j], of rationals kept over D.

    Like every constructor it trusts its input, and peiffer.io checks what it
    loads; check=True runs validate_lie, and the flag stays only because
    perfbench/test_perfbench.py passes it.
    """

    # the error and the noun of the guards compat and xmod share with groups
    error = LieError
    noun = "algebra"

    def __init__(self, dim: int, brackets, name: str | None = None, check: bool = False):
        if len(brackets) != dim or any(len(row) != dim or any(len(v) != dim for v in row) for row in brackets):
            raise LieError("structure constants have the wrong shape")
        self.dim, self.name = dim, name
        self.D, self.brackets = _scaled(brackets)
        if check:
            validate_lie(self).expect("Lie axioms", LieError)

    @classmethod
    def _built(cls, D: int, brackets) -> LieAlgebra:
        L = cls.__new__(cls)
        L.dim, L.name, (L.D, L.brackets) = len(brackets), None, _least(D, brackets)
        return L

    @cached_property
    def _adjoint_forms(self) -> _IntegerForms:
        return _IntegerForms(self.D, tuple(tuple(zip(*row)) for row in self.brackets))  # ad(e_i): brackets[i]^T

    @property
    def adjoint(self) -> "LieAction":
        """The adjoint action: rho[i] is ad(e_i), whose column j is [e_i, e_j].

        A new LieAction on each access, around the forms kept here: with no
        reference cycle, refcounting frees a dropped algebra at once."""
        forms, act = self._adjoint_forms, LieAction.__new__(LieAction)
        act.acting = act.target = self
        act.D, act.rho, act.forms = forms.D, forms.mats, forms
        return act

    def __eq__(self, other):
        return isinstance(other, LieAlgebra) and self.D == other.D and self.brackets == other.brackets

    def __hash__(self):
        return hash((self.D, self.brackets))

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"LieAlgebra(dim={self.dim}{tag})"


def validate_lie(L: LieAlgebra) -> Diagnosis:
    """Antisymmetry, then Jacobi as [ad e_i, ad e_j] = ad([e_i, e_j]).

    Column k of the difference is the Jacobiator of (e_i, e_j, e_k).  Once
    antisymmetry holds it is alternating, so the first failing triple in
    lexicographic order is sorted: pairs i < j suffice, and their columns
    k <= j vanish once the pairs before pass.  Both sides are over D^2, with
    no lane above 2 n E^2 for E the height of ad.
    """
    n, B = L.dim, L.brackets
    for i in range(n):
        for j in range(i, n):  # the residual of (j, i) is that of (i, j)
            resid = tuple(a + b for a, b in zip(B[i][j], B[j][i]))
            if any(resid):
                return Diagnosis(False, "antisymmetry fails", (i, j, tuple(Fraction(x, L.D) for x in resid)))
    forms = L.adjoint.forms
    D, ad, E = forms.D, forms.mats, forms.height
    p = forms.packed(2 * n * E * E)
    for i in range(n):
        for j in range(i + 1, n):
            # [e_i, e_j] is column j of ad[i] over D
            bad = _witness(_bracket(p, i, p, j), _combination(p.whole, column(ad[i], j)), p, D * D)
            if bad:
                return Diagnosis(False, "Jacobi fails", (i, j) + bad)
    return VALID


class LieMap:
    """A linear map of Lie algebras: matrix, cod.dim rows by dom.dim columns of rationals, kept over D."""

    def __init__(self, dom: LieAlgebra, cod: LieAlgebra, matrix):
        self.dom, self.cod, (self.D, (self.matrix,)) = dom, cod, _scaled((matrix,))

    @classmethod
    def _built(cls, dom: LieAlgebra, cod: LieAlgebra, D: int, matrix) -> LieMap:
        f = cls.__new__(cls)
        f.dom, f.cod, (f.D, (f.matrix,)) = dom, cod, _least(D, (matrix,))
        return f

    forms = cached_property(lambda self: _IntegerForms(self.D, (self.matrix,)))

    def check(self) -> Diagnosis:
        """f ad(e_i) = ad(f e_i) f, whose column j is f[e_i, e_j] - [f e_i, f e_j].

        That residual is antisymmetric in (i, j) and zero at i = j, so its
        columns j <= i vanish once the pairs before pass.  A matrix of the wrong
        shape fails first.  The sides, over s a and s^2 c, go to L = lcm(s a, s^2 c)
        with no lane above n Ef Ea L / (s a) or m^2 Ef^2 Ec L / (s^2 c), for Ef,
        Ea and Ec the heights of f and of ad.
        """
        if len(self.matrix) != self.cod.dim or any(len(r) != self.dom.dim for r in self.matrix):
            return Diagnosis(False, "matrix shape does not match the algebras", ())
        f, dom, cod, m, n = self.forms, self.dom.adjoint.forms, self.cod.adjoint.forms, self.cod.dim, self.dom.dim
        s, F, a, c = f.D, self.matrix, dom.D, cod.D
        L = lcm(s * a, s * s * c)
        b = max(n * f.height * dom.height * L // (s * a), m * m * f.height ** 2 * cod.height * L // (s * s * c))
        p, ad = f.packed(b), cod.packed(b)
        ad_F = [_mul(ad, k, p, 0) for k in range(m)]  # ad(e_k) F
        for i in range(n):
            lhs = _mul(p, 0, dom, i) * (L // (s * a))  # F ad(e_i): the right factor is read, not packed
            bad = _witness(lhs, _combination(ad_F, column(F, i)) * (L // (s * s * c)), p, L)
            if bad:
                return Diagnosis(False, "bracket not preserved", (i,) + bad)
        return VALID

    def __eq__(self, other):
        return isinstance(other, LieMap) and (self.dom, self.cod, self.D, self.matrix) == (
            other.dom, other.cod, other.D, other.matrix)

    def __hash__(self):
        return hash((self.dom, self.cod, self.D, self.matrix))

    def __repr__(self):
        return f"LieMap({self.dom.dim} -> {self.cod.dim})"


class LieAction:
    """An action by derivations: rho[a] is the matrix of basis element a, of rationals kept over D."""

    def __init__(self, acting: LieAlgebra, target: LieAlgebra, rho):
        self.acting, self.target, (self.D, self.rho) = acting, target, _scaled(rho)

    @classmethod
    def _built(cls, acting: LieAlgebra, target: LieAlgebra, D: int, rho) -> LieAction:
        act = cls.__new__(cls)
        act.acting, act.target, (act.D, act.rho) = acting, target, _least(D, rho)
        return act

    forms = cached_property(lambda self: _IntegerForms(self.D, self.rho))

    def __eq__(self, other):
        return isinstance(other, LieAction) and (self.acting, self.target, self.D, self.rho) == (
            other.acting, other.target, other.D, other.rho)

    def __hash__(self):
        return hash((self.acting, self.target, self.D, self.rho))

    def __repr__(self):
        return f"LieAction({self.acting.dim} on {self.target.dim})"


def check_lie_action(act: LieAction) -> Diagnosis:
    """rho must be a Lie homomorphism into derivations of the target.

    Two matrix identities: rho([e_a, e_b]) = [rho_a, rho_b], and
    rho_a ad(e_i) = ad(rho_a e_i) + ad(e_i) rho_a, whose column j is the
    derivation rule at (e_i, e_j).  Each difference is antisymmetric in its
    two indices and zero when they agree, so pairs a < b suffice, and columns
    j <= i vanish once the pairs before pass.  Matrices of the wrong shape fail
    first.  The sides, over s r and r r, go to L r for L = lcm(s, r), and over
    r x, with no lane above A.dim Es Er L / s, 2 n Er^2 L / r or 2 n Er Ex, for
    Er, Es and Ex the heights of rho and ad.
    """
    A, n = act.acting, act.target.dim
    if len(act.rho) != A.dim or any(len(m) != n or any(len(r) != n for r in m) for m in act.rho):
        return Diagnosis(False, "action matrices have the wrong shape", ())
    forms, acting, target = act.forms, A.adjoint.forms, act.target.adjoint.forms
    r, s, x, acting_ad = forms.D, acting.D, target.D, acting.mats
    Er, Es, Ex, L = forms.height, acting.height, target.height, lcm(s, r)
    bound = max(A.dim * Es * Er * L // s, 2 * n * Er * Er * L // r, 2 * n * Er * Ex)
    p, q = forms.packed(bound), target.packed(bound)
    for a in range(A.dim):
        for b in range(a + 1, A.dim):
            if _combination(p.whole, column(acting_ad[a], b)) * (L // s) != _bracket(p, a, p, b) * (L // r):
                return Diagnosis(False, "rho is not a Lie homomorphism", (a, b))
    for a, R in enumerate(act.rho):
        for i in range(n):
            rhs = _combination(q.whole, column(R, i)) + _mul(q, i, p, a)
            bad = _witness(_mul(p, a, q, i), rhs, p, r * x)
            if bad:
                return Diagnosis(False, "rho(a) is not a derivation", (a, i, bad[0]))
    return VALID


def pullback_lie_action(f: LieMap, act: LieAction) -> LieAction:
    if f.cod != act.acting:
        raise LieError("pullback: codomain does not match the acting algebra")
    rho = tuple(_lin(act.rho, column(f.matrix, a), act.target.dim) for a in range(f.dom.dim))
    return LieAction._built(f.dom, act.target, f.D * act.D, rho)


def lie_compatible(mut: MutualActions) -> Diagnosis:
    """The two compatibility equations on basis triples.

    (C1): rho_NM(rho_MN(m) n) m' = [m, rho_NM(n) m'] - rho_NM(n) [m, m']
    (C2): rho_MN(rho_NM(n) m) n' = [n, rho_MN(m) n'] - rho_MN(m) [n, n']

    At m = e_i and n = e_j, (C1) is the matrix identity
    rho_NM(rho_MN(e_i) e_j) = [ad e_i, rho_NM(e_j)], whose column k is m' = e_k.
    Its sides, over q p and a p, go to L p for L = lcm(q, a), with no lane
    above N.dim Eq Ep L / q or 2 M.dim Ea Ep L / a, Ep, Eq and Ea the heights.
    """
    # (C2) is (C1) for the swapped pair, with the same witness layout
    for reason, pair in (("first equation fails", mut), ("second equation fails", mut.swapped())):
        f_nm, f_mn, f_ad = pair.xi_nm.forms, pair.xi_mn.forms, pair.M.adjoint.forms
        p, q, a, mn = f_nm.D, f_mn.D, f_ad.D, f_mn.mats
        m, L = pair.M.dim, lcm(q, a)
        bound = max(pair.N.dim * f_mn.height * f_nm.height * L // q, 2 * m * f_ad.height * f_nm.height * L // a)
        nm, ad = f_nm.packed(bound), f_ad.packed(bound)
        for i in range(m):
            for j in range(pair.N.dim):
                lhs = _combination(nm.whole, column(mn[i], j)) * (L // q)
                bad = _witness(lhs, _bracket(ad, i, nm, j) * (L // a), nm, L * p)
                if bad:
                    return Diagnosis(False, reason, (i, j) + bad)
    return VALID


def check_lie_xmod(xm: CrossedModule) -> Diagnosis:
    """The boundary d is a hom, d rho_a = ad(e_a) d, and rho(d e_i) = ad(e_i).

    Column i of the second identity is the equivariance witness and column j
    of the third the Peiffer one.  Their sides, over e r and a e, go to e L for
    L = lcm(r, a), and over e r and x to K = lcm(e r, x), with no lane above
    X.dim Ee Er L / r, A.dim Ea Ee L / a, A.dim Ee Er K / (e r) or Ex K / x.
    """
    diag = xm.boundary.check()
    if not diag.ok:
        return diag
    fd, fr, fa, fx = xm.boundary.forms, xm.action.forms, xm.A.adjoint.forms, xm.X.adjoint.forms
    e, r, a, x, d = fd.D, fr.D, fa.D, fx.D, xm.boundary.matrix
    L, K, Ee, Er, k, n = lcm(r, a), lcm(e * r, x), fd.height, fr.height, xm.A.dim, xm.X.dim
    b = max(n * Ee * Er * L // r, k * fa.height * Ee * L // a, k * Ee * Er * K // (e * r), fx.height * K // x)
    pd, pr, pa, px = fd.packed(b), fr.packed(b), fa.packed(b), fx.packed(b)
    for j in range(k):
        lhs = _mul(pd, 0, pr, j) * (L // r)
        bad = _witness(lhs, _mul(pa, j, pd, 0) * (L // a), pd, e * L)
        if bad:
            return Diagnosis(False, "boundary is not equivariant", (j,) + bad)
    for i in range(n):
        lhs = _combination(pr.whole, column(d, i)) * (K // (e * r))
        bad = _witness(lhs, px.whole[i] * (K // x), px, K)
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


def lie_semidirect(rho: LieAction) -> LieAlgebra:
    """M x| N on M's basis then N's: [(m,n),(m',n')] = ([m,m'] + rho(n) m' - rho(n') m, [n,n']).

    Block by block, [m_i, m_j] = [m_i, m_j]_M, [n_a, m_j] = rho(n_a) m_j = -[m_j, n_a]
    and [n_a, n_b] = [n_a, n_b]_N; rho(n_a) m_j is column j of rho.rho[a].  All over lcm(M.D, N.D, rho.D).
    """
    M, N = rho.target, rho.acting
    D = lcm(M.D, N.D, rho.D)
    dm, dn, m, n, r = M.dim, N.dim, D // M.D, D // N.D, D // rho.D
    zm, zn = (0,) * dm, (0,) * dn
    acts = [[_times(r, column(R, j)) for j in range(dm)] for R in rho.rho]
    rows = [
        tuple(_times(m, M.brackets[i][j]) + zn for j in range(dm))
        + tuple(tuple(-x for x in acts[b][i]) + zn for b in range(dn))
        for i in range(dm)
    ]
    rows += [
        tuple(acts[a][j] + zn for j in range(dm))
        + tuple(zm + _times(n, N.brackets[a][b]) for b in range(dn))
        for a in range(dn)
    ]
    # Jacobi holds because M and N do and rho is a Lie hom into Der(M)
    return LieAlgebra._built(D, tuple(rows))


class LiePeifferProduct:
    """The quotient of M x| N by the Peiffer ideal, on the coordinates of M + N.

    product, lM, lN, source, actions and disagreement are the interface of
    product.PeifferProduct; the witness is (side, row), the first ideal row
    that does not act as zero on that side, in rationals.  The coordinates are
    M's basis then N's, and reps are those off the ideal's pivots, whose basis
    vectors represent P's basis.
    """

    def __init__(self, product, lM, lN, source, actions, disagreement, reps):
        self.product = product
        self.lM = lM
        self.lN = lN
        self.source = source
        self.actions = actions
        self.disagreement = disagreement
        self.reps = reps

    def __repr__(self):
        return f"LiePeifferProduct(dim={self.product.dim})"


def _sides(mut: MutualActions) -> tuple:
    """(D, mats, X) for M (side 0) and N (side 1): basis vector k of M + N acts on X as mats[k] / D,
    as (m, n) acts on M by ad(m) + rho_NM(n) and on N by rho_MN(m) + ad(n)."""
    out = []
    for a, b, X in ((mut.M.adjoint, mut.xi_nm, mut.M), (mut.xi_mn, mut.N.adjoint, mut.N)):
        D = lcm(a.D, b.D)
        out.append((D, tuple(tuple(_times(D // act.D, row) for row in m) for act in (a, b) for m in act.rho), X))
    return out


def _disagreement(mut: MutualActions, rows, D: int):
    """The first (side, row / D) of rows that does not act as zero on M (side 0) or N (side 1), or None."""
    sides = _sides(mut)
    return next(((side, tuple(Fraction(x, D) for x in row)) for row in rows
                 for side, (_, mats, X) in enumerate(sides) if any(map(any, _lin(mats, row, X.dim)))), None)


def lie_peiffer_ideal(mut: MutualActions):
    """M x| N on the coordinates of M + N, and its Peiffer ideal's rref rows over D, pivots, D and _disagreement.

    The generators are r(m, n) = (n.m, m.n) over basis pairs, for n.m = rho_NM(n) m
    and m.n = rho_MN(m) n.  As the actions are by derivations, r(m, n) acts as zero on
    M exactly when (C1) of lie_compatible holds at (m, n), and on N when (C2) does:
    the (C1) residual at (i, j) is, column by column, the action of r(e_i, e_j) on M,
    rho_NM(m.n) m' + [n.m, m'] once n.[m, m'] is expanded.  In M x| N, where
    [(a, b), (c, d)] = ([a, c] + b.c - d.a, [b, d]), [m', r(m, n)] is minus
    (r(m, n) acting on m', 0), and, as rho_NM is a hom, [n', r(m, n)] is
    r(m, [n', n]) + r(n'.m, n) - (0, r(m, n') acting on n).  So for a compatible
    pair, whose generators all act as zero, their span is the ideal.  Otherwise the
    rows are closed under brackets with the basis until their span stops growing.
    """
    dm, dn, nm, mn = mut.M.dim, mut.N.dim, mut.xi_nm, mut.xi_mn
    S, D = lie_semidirect(nm), lcm(nm.D, mn.D)
    a, b = D // nm.D, D // mn.D
    gens = [_times(a, column(nm.rho[j], i)) + _times(b, column(mn.rho[i], j)) for i in range(dm) for j in range(dn)]
    rows, pivots, D = rref(gens)
    if lie_compatible(mut).ok:
        return S, rows, pivots, D, None
    ad = S.adjoint.rho
    while True:
        grown = rref(rows + tuple(_mat_vec(ad_b, v) for v in rows for ad_b in ad))  # each row at any scale
        if len(grown[0]) == len(rows):  # the same span, and the rref of a span is unique
            return S, rows, pivots, D, _disagreement(mut, rows, D)
        rows, pivots, D = grown


def lie_peiffer(mut: MutualActions) -> LiePeifferProduct:
    S, rows, pivots, D, disagreement = lie_peiffer_ideal(mut)
    reps = tuple(c for c in range(S.dim) if c not in pivots)
    # an rref row over D is D times its pivot's basis vector plus entries at reps
    # only, so modulo the ideal D times that basis vector is minus the rest of its row
    row_of = dict(zip(pivots, rows))
    C = tuple(tuple(-row_of[c][r] if c in row_of else D if c == r else 0 for c in range(S.dim)) for r in reps)
    # S's table is alternating, so only [a, b] for a < b is projected, over D S.D
    dp = len(reps)
    table = [[(0,) * dp] * dp for _ in range(dp)]
    for a in range(dp):
        for b in range(a + 1, dp):
            table[a][b] = _mat_vec(C, S.brackets[reps[a]][reps[b]])
            table[b][a] = tuple(-x for x in table[a][b])
    # lie_peiffer_ideal returns an ideal, so P is a quotient algebra
    P = LieAlgebra._built(D * S.D, tuple(map(tuple, table)))
    dm = mut.M.dim
    lM = LieMap._built(mut.M, P, D, tuple(row[:dm] for row in C))
    lN = LieMap._built(mut.N, P, D, tuple(row[dm:] for row in C))
    # once every ideal row acts as zero, checked exactly, both actions are
    # well defined and by derivations
    actions = None if disagreement else tuple(
        LieAction._built(P, X, Dx, tuple(mats[k] for k in reps)) for Dx, mats, X in _sides(mut))
    return LiePeifferProduct(P, lM, lN, mut, actions, disagreement, reps)


def lie_universal_map(pp: LiePeifferProduct, xm_m: CrossedModule, xm_n: CrossedModule) -> LieMap:
    """The unique map P -> L through which both structure maps factor."""
    mut = pp.source
    if xm_m.X != mut.M or xm_n.X != mut.N:
        raise LieError("crossed modules are not over M and N")
    if lie_induced_actions(xm_m, xm_n) != mut:
        raise LieError("crossed modules do not induce the given actions")
    L, mu, nu = xm_m.A, xm_m.boundary, xm_n.boundary
    D = lcm(mu.D, nu.D)
    a, b, dm = D // mu.D, D // nu.D, mut.M.dim
    # (m, n) -> mu(m) + nu(n) kills the ideal, as mu and nu are equivariant,
    # so P's basis vector goes where its representative does
    rows = tuple(
        tuple(mu.matrix[i][k] * a if k < dm else nu.matrix[i][k - dm] * b for k in pp.reps) for i in range(L.dim)
    )
    return LieMap._built(pp.product, L, D, rows)
