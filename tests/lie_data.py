"""Lie test data as the constructors take it: tuples of Fractions at every level.

A helper module, not collected by pytest.  Only peiffer.io parses rationals,
so fixtures go through io.mat; the constructors keep them as integers over
their least common denominator (fraction_kernels reads them back).  Basis
vectors, the zero and identity matrices, the identity map, the trivial action,
the inclusions and projection of M x| N, and the projection of a Peiffer
product as a LieMap live here too: no verb or pipeline stage needs them.

small_lie_family() is the finite Lie family of the acceptance suite: a1, a2
and r2, with every action among them whose matrix entries lie in {-1, 0, 1}.

It also writes b_n, the upper-triangular n x n matrices, on other bases: a
signed permutation of the standard one (sparse, integer constants), and a
dense integer change of basis followed by one (constants with denominators
up to 69).  These are the inputs of the lie_b3 and lie_dense benchmark
workloads, drawn the same way from the same seeds.  dense_b5 is b5 on the
dense change of basis alone, the pair whose reports tier-1 pins.
"""
import random
import re
from fractions import Fraction
from functools import cache
from itertools import product

from fraction_kernels import ONE, ZERO, over, zero_vec
from peiffer.io import mat
from peiffer.lie import LieAction, LieAlgebra, LieMap, check_lie_action, lie_semidirect

# the change of basis the lie_dense workload draws from random.Random("lie_dense:basis")
DENSE_BASIS = (
    (1, -1, 1, 0, -1, 1),
    (-2, -2, 1, 2, 1, -2),
    (2, 0, -2, 0, 1, 2),
    (0, 0, -1, -1, -2, 1),
    (-2, 0, -1, 2, -2, -1),
    (-2, -1, 0, -2, 0, -2),
)


def reported(witness) -> str:
    """repr(witness) with each Fraction(p, q) in it written as p/q, or p when q is 1."""
    return re.sub(r"Fraction\((-?\d+), (\d+)\)", lambda m: str(Fraction(int(m[1]), int(m[2]))), repr(witness))


def mats(values):
    """A list of matrices of rationals as a tuple of tuples of tuples of Fractions."""
    return tuple(map(mat, values))


def basis_vec(n: int, i: int) -> tuple:
    return tuple(ONE if j == i else ZERO for j in range(n))


def identity_mat(n: int) -> tuple:
    return tuple(basis_vec(n, i) for i in range(n))


def zero_mat(rows: int, cols: int) -> tuple:
    return tuple(zero_vec(cols) for _ in range(rows))


def identity_lie_map(L) -> LieMap:
    return LieMap(L, L, identity_mat(L.dim))


def trivial_lie_action(acting, target) -> LieAction:
    return LieAction(acting, target, (zero_mat(target.dim, target.dim),) * acting.dim)


def semidirect_maps(rho):
    """M x| N of rho, the inclusions of M and of N, and the projection onto N."""
    S, dm = lie_semidirect(rho), rho.target.dim
    ident = identity_mat(S.dim)
    j_m = LieMap(rho.target, S, tuple(row[:dm] for row in ident))
    j_n = LieMap(rho.acting, S, tuple(row[dm:] for row in ident))
    return S, j_m, j_n, LieMap(S, rho.acting, ident[dm:])


def semidirect_and_proj(pp):
    """M x| N of a Lie Peiffer product, and the projection onto P, whose columns are those of lM then lN."""
    S, (lM, lN) = lie_semidirect(pp.source.xi_nm), (over(f.D, f.matrix) for f in (pp.lM, pp.lN))
    return S, LieMap(S, pp.product, tuple(m + n for m, n in zip(lM, lN)))


@cache
def small_lie_family():
    """The algebras a1, a2 and r2 ([e0, e1] = e1), and for each ordered pair (A, X) of their names
    every action of A on X with matrix entries in {-1, 0, 1} that passes check_lie_action.

    Each matrix of an action is a derivation of X, the condition on a1 acting by that
    matrix, so the actions are drawn from the derivations alone: 1,091 actions.
    """
    a1, a2 = LieAlgebra(1, mats([[[0]]]), "a1"), LieAlgebra(2, mats([[[0, 0], [0, 0]]] * 2), "a2")
    r2 = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]), "r2")
    algebras = (a1, a2, r2)
    entries = tuple(map(Fraction, (-1, 0, 1)))
    actions = {}
    for X in algebras:
        n = X.dim
        square = [tuple(e[i:i + n] for i in range(0, n * n, n)) for e in product(entries, repeat=n * n)]
        derivations = [D for D in square if check_lie_action(LieAction(a1, X, (D,))).ok]
        for A in algebras:
            candidates = (LieAction(A, X, rho) for rho in product(derivations, repeat=A.dim))
            actions[A.name, X.name] = tuple(act for act in candidates if check_lie_action(act).ok)
    return algebras, actions


def upper_triangular(n):
    """b_n on the basis E_ij, i <= j: brackets[a][b] = [x_a, x_b] as lists of ints."""
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(basis)}
    out = [[[0] * len(basis) for _ in basis] for _ in basis]
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            if j == k:
                out[a][b][pos[i, l]] += 1
            if l == i:
                out[a][b][pos[k, j]] -= 1
    return out


def inverse(P):
    """The inverse of a square matrix, by Gauss-Jordan over Fractions, or None when it is singular."""
    n = len(P)
    rows = [[Fraction(x) for x in P[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next((r for r in range(c, n) if rows[r][c]), None)
        if p is None:
            return None
        rows[c], rows[p] = rows[p], rows[c]
        rows[c] = [x / rows[c][c] for x in rows[c]]
        for r in range(n):
            if r != c and rows[r][c]:
                rows[r] = [x - rows[r][c] * y for x, y in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def transport(brackets, P):
    """The structure constants on the basis f_a = sum_i P[i][a] e_i, as lists of Fractions."""
    n = len(P)
    Q = inverse(P)
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            old = [sum((P[i][a] * P[j][b] * brackets[i][j][k] for i in range(n) for j in range(n)), Fraction(0))
                   for k in range(n)]
            out[a][b] = [sum((Q[k][i] * old[i] for i in range(n)), Fraction(0)) for k in range(n)]
    return out


def signed_permutation(n, rng):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[a] == i else 0 for a in range(n)] for i in range(n)]


def sparse_b3(seed):
    """b3 on the signed-permutation basis of the lie_b3 workload at seed."""
    return transport(upper_triangular(3), signed_permutation(6, random.Random(f"lie_b3:{seed}")))


@cache
def _dense_base():
    return transport(upper_triangular(3), DENSE_BASIS)


def dense_b3(seed):
    """b3 on the dense rational basis of the lie_dense workload at seed."""
    return transport(_dense_base(), signed_permutation(6, random.Random(f"lie_dense:{seed}")))


def dense_change_of_basis(n, rng):
    """The first invertible n x n matrix of entries in [-2, 2] that rng draws, row by row."""
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if inverse(P) is not None:
            return P


def dense_b5():
    """b5 (dim 15) on the change of basis drawn from random.Random("lie_dense:basis")."""
    return transport(upper_triangular(5), dense_change_of_basis(15, random.Random("lie_dense:basis")))
