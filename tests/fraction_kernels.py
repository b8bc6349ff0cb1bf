"""The Fraction kernels that peiffer.lie computed with before it kept integers
over a common denominator, kept as oracles.

A helper module, not collected by pytest.  The Lie objects keep integer
matrices over their least common denominator D; brackets, rho and matrix read
them back as tuples of Fractions.  of, act_on and apply are what
LieAction.of, LieAction.__call__ and LieMap.__call__ were, and rref is the
Fraction rref, the oracle of the fraction-free one.  The reads are cached
by value, as the loop oracles read them for each basis vector.  The kernels skip every
product with a zero factor and every sum with a zero term, as they did in the
package.
"""
from fractions import Fraction
from functools import lru_cache

ZERO = Fraction(0)
ONE = Fraction(1)


def zero_vec(n: int) -> tuple:
    return (ZERO,) * n


def vadd(u, v):
    return tuple(a + b if a and b else a or b for a, b in zip(u, v))


def vsub(u, v):
    return tuple((a - b if a else -b) if b else a for a, b in zip(u, v))


def vscale(c, u):
    if not c:
        return zero_vec(len(u))
    return tuple(c * a if a else a for a in u)


def mat_vec(A, v) -> tuple:
    terms = [(k, x) for k, x in enumerate(v) if x]
    out = [ZERO] * len(A)
    for i, row in enumerate(A):
        for k, x in terms:
            a = row[k]
            if a:
                out[i] = out[i] + a * x if out[i] else a * x
    return tuple(out)


def combination(mats, coeffs, n: int) -> tuple:
    """sum_k coeffs[k] mats[k] over n x n matrices, taking its zero from coeffs; mats[k] itself when
    coeffs is basis vector k."""
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


def rref(rows):
    """Reduced row echelon form over Fractions; returns (rows without zero rows, pivot cols)."""
    rows = [list(r) for r in rows]
    if not rows:
        return (), ()
    pivots = []
    r = 0
    for c in range(len(rows[0])):
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


def over(D: int, data):
    """Integers over D, nested in tuples to any depth, as the Fractions they stand for."""
    if isinstance(data, int):
        return Fraction(data, D)
    return tuple(over(D, x) for x in data)


@lru_cache(maxsize=64)
def brackets(L) -> tuple:
    return over(L.D, L.brackets)


@lru_cache(maxsize=64)
def rho(act) -> tuple:
    return over(act.D, act.rho)


@lru_cache(maxsize=64)
def matrix(f) -> tuple:
    return over(f.D, f.matrix)


def of(act, u) -> tuple:
    """The matrix acting for a general element u of the acting algebra."""
    return combination(rho(act), u, act.target.dim)


def act_on(act, u, x) -> tuple:
    return mat_vec(of(act, u), x)


def apply(f, v) -> tuple:
    return mat_vec(matrix(f), v)


def bracket(L, u, v) -> tuple:
    return act_on(L.adjoint, u, v)
