"""Lie test data as the constructors keep it: tuples of Fractions at every level.

A helper module, not collected by pytest.  The constructors convert nothing
and only peiffer.io parses rationals, so fixtures go through io.mat.

It also writes b_n, the upper-triangular n x n matrices, on other bases: a
signed permutation of the standard one (sparse, integer constants), and a
dense integer change of basis followed by one (constants with denominators
up to 69).  These are the inputs of the lie_b3 and lie_dense benchmark
workloads, drawn the same way from the same seeds.
"""
import random
from fractions import Fraction
from functools import cache

from peiffer.io import mat

# the change of basis the lie_dense workload draws from random.Random("lie_dense:basis")
DENSE_BASIS = (
    (1, -1, 1, 0, -1, 1),
    (-2, -2, 1, 2, 1, -2),
    (2, 0, -2, 0, 1, 2),
    (0, 0, -1, -1, -2, 1),
    (-2, 0, -1, 2, -2, -1),
    (-2, -1, 0, -2, 0, -2),
)


def mats(values):
    """A list of matrices of rationals as a tuple of tuples of tuples of Fractions."""
    return tuple(map(mat, values))


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
    """The inverse of an invertible square matrix, by Gauss-Jordan over Fractions."""
    n = len(P)
    rows = [[Fraction(x) for x in P[i]] + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        p = next(r for r in range(c, n) if rows[r][c])
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
