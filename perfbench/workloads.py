"""Seeded inputs, operations and output checks for the four workloads.

The package sees only what the generators hand it: relabelled group tables,
and Lie structure constants written on a transported basis.  Every check
tests a fact that holds for every seed, so a failed check is a defect, not
an unlucky input.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import random
import time
from fractions import Fraction
from itertools import permutations

FAMILY_PAIRS = 610
FAMILY_COMPATIBLE = 179
S4_Z20_ORDER = 480
B3_QUOTIENT_DIM = 9  # of the Peiffer product of the adjoint pair on b3


# ---------------------------------------------------------------- generators


def rng_for(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def identity_of(table) -> int:
    n = len(table)
    return next(e for e in range(n) if all(table[e][x] == x for x in range(n)))


def relabel_table(table, rng: random.Random):
    """The same group on shuffled element indices, identity off index 0.

    sigma sends an old index to its new one, and the new table satisfies
    new[sigma a][sigma b] = sigma(old[a][b]).
    """
    n = len(table)
    sigma = list(range(n))
    rng.shuffle(sigma)
    e = identity_of(table)
    if n > 1 and sigma[e] == 0:
        other = rng.randrange(n - 1)
        other += other >= e
        sigma[e], sigma[other] = sigma[other], sigma[e]
    new = [[0] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            new[sigma[a]][sigma[b]] = sigma[table[a][b]]
    return new


def cyclic_table(n: int):
    return [[(i + j) % n for j in range(n)] for i in range(n)]


def symmetric_table(k: int):
    perms = sorted(permutations(range(k)))
    index = {p: i for i, p in enumerate(perms)}
    return [[index[tuple(p[q[i]] for i in range(k))] for q in perms] for p in perms]


def upper_triangular_brackets(n: int):
    """b_n: upper-triangular n x n matrices on the basis E_ij, i <= j.

    Returns brackets[a][b] = [x_a, x_b] as integer coordinate lists.
    """
    basis = [(i, j) for i in range(n) for j in range(i, n)]
    pos = {p: k for k, p in enumerate(basis)}
    dim = len(basis)
    out = [[[0] * dim for _ in range(dim)] for _ in range(dim)]
    for a, (i, j) in enumerate(basis):
        for b, (k, l) in enumerate(basis):
            v = out[a][b]
            if j == k:
                v[pos[(i, l)]] += 1
            if l == i:
                v[pos[(k, j)]] -= 1
    return out


def invert(P):
    """Exact inverse of a square matrix of Fractions, or None if singular."""
    n = len(P)
    rows = [list(map(Fraction, P[i])) + [Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    for c in range(n):
        piv = next((r for r in range(c, n) if rows[r][c] != 0), None)
        if piv is None:
            return None
        rows[c], rows[piv] = rows[piv], rows[c]
        inv = 1 / rows[c][c]
        rows[c] = [inv * v for v in rows[c]]
        for r in range(n):
            if r != c and rows[r][c] != 0:
                f = rows[r][c]
                rows[r] = [v - f * w for v, w in zip(rows[r], rows[c])]
    return [row[n:] for row in rows]


def transport(brackets, P):
    """Structure constants on the new basis f_a = sum_i P[i][a] e_i."""
    n = len(P)
    Pinv = invert(P)
    if Pinv is None:
        raise ValueError("change of basis is singular")
    cols = [[Fraction(P[i][a]) for i in range(n)] for a in range(n)]
    out = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            old = [Fraction(0)] * n
            for i, x in enumerate(cols[a]):
                if x == 0:
                    continue
                for j, y in enumerate(cols[b]):
                    if y == 0:
                        continue
                    for k, c in enumerate(brackets[i][j]):
                        if c:
                            old[k] += x * y * c
            out[a][b] = [sum((Pinv[k][i] * old[i] for i in range(n)), Fraction(0)) for k in range(n)]
    return out


def signed_permutation(n: int, rng: random.Random):
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[a] == i else 0 for a in range(n)] for i in range(n)]


def dense_change_of_basis(n: int, rng: random.Random):
    while True:
        P = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
        if invert(P) is not None:
            return P


def lie_properties(brackets) -> dict:
    flat = [c for row in brackets for v in row for c in v]
    nonzero = sum(1 for c in flat if c != 0)
    return {
        "dim": len(brackets),
        "nonzero": nonzero,
        "constants": len(flat),
        "nnz_share": nonzero / len(flat),
        "max_denominator": max(Fraction(c).denominator for c in flat),
    }


# ------------------------------------------------------------- JSON formats


def _frac(c) -> str:
    return str(Fraction(c))


def lie_dict(brackets, name):
    n = len(brackets)
    entries = [
        {"i": i, "j": j, "coeffs": [_frac(c) for c in brackets[i][j]]}
        for i in range(n)
        for j in range(i + 1, n)
        if any(brackets[i][j])
    ]
    return {"dim": n, "brackets": entries, "name": name}


def adjoint_rho(brackets):
    """rho[a][i][j]: coordinate i of [x_a, x_j]."""
    n = len(brackets)
    return [[[_frac(brackets[a][j][i]) for j in range(n)] for i in range(n)] for a in range(n)]


def write_json(path, data):
    with open(path, "w") as fh:
        json.dump(data, fh)


# ----------------------------------------------------------------- workloads


class Op:
    """One timed operation: a mutual-action pair or one CLI verb call."""

    __slots__ = ("label", "seconds", "error")

    def __init__(self, label, seconds, error=None):
        self.label = label
        self.seconds = seconds
        self.error = error


class Family:
    """Every mutual-action pair over six relabelled catalog groups."""

    name = "family"
    max_pair_order = 36

    def __init__(self, pk, seed: int, workdir: str):
        self.pk = pk
        rng = rng_for(self.name, seed)
        self.groups = [
            pk.groups.FiniteGroup(relabel_table(G.table, rng), name=G.name)
            for G in pk.catalog_module.catalog()
        ]
        self.properties = {"orders": [G.order for G in self.groups]}

    def run_pass(self):
        pk = self.pk
        ops, pairs, compatible = [], 0, 0
        for M in self.groups:
            for N in self.groups:
                if M.order * N.order > self.max_pair_order:
                    continue
                for mut in pk.catalog_module.enumerate_mutual_actions(M, N):
                    label = f"{M.name}<>{N.name}#{pairs}"
                    t0 = time.perf_counter()
                    try:
                        is_compatible, error = self.operation(mut)
                    except Exception as exc:  # one failed pair must not end the pass
                        is_compatible, error = False, f"{type(exc).__name__}: {exc}"
                    ops.append(Op(label, time.perf_counter() - t0, error))
                    compatible += is_compatible
                    pairs += 1
        problems = []
        if pairs != FAMILY_PAIRS:
            problems.append(f"{pairs} pairs, expected {FAMILY_PAIRS}")
        if compatible != FAMILY_COMPATIBLE:
            problems.append(f"{compatible} compatible pairs, expected {FAMILY_COMPATIBLE}")
        return ops, problems

    def operation(self, mut):
        """Run one pair's operations; returns (compatible, failure or None)."""
        pk = self.pk
        verdict = pk.compat.check_compatible(mut)
        pp = pk.product.peiffer_product(mut)
        pp_sw = pk.product.peiffer_product(mut.swapped())
        iso = pk.groups.is_isomorphic(pp.product, pp_sw.product)
        ok = verdict.compatible
        if ok != pp.compatible:
            return ok, "compatibility verdict disagrees with the induced actions"
        if iso is None:
            return ok, "swapped product is not isomorphic"
        if not ok:
            return ok, None
        xm_m, xm_n = pk.product.peiffer_xmods(pp)
        if not (pk.xmod.check_xmod(xm_m).ok and pk.xmod.check_xmod(xm_n).ok):
            return ok, "Peiffer crossed module fails its axioms"
        if not pk.product.strong_relation_check(pp, bound=2).ok:
            return ok, "strong relation check fails"
        h = pk.product.universal_map(pp, xm_m, xm_n)
        if h.mapping != tuple(range(pp.product.order)):
            return ok, "universal map through its own crossed modules is not the identity"
        return ok, None


class CliSession:
    """CLI verbs called in-process through cli.main, stdout captured."""

    def __init__(self, pk, seed: int, workdir: str):
        self.pk = pk
        self.workdir = workdir
        self.write_inputs(rng_for(self.name, seed))

    def path(self, name):
        return os.path.join(self.workdir, name)

    def operation(self, argv):
        out = io.StringIO()
        t0 = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = self.pk.cli.main(argv)
        return time.perf_counter() - t0, code, out.getvalue()

    def run_pass(self):
        ops = []
        for label, argv, check in self.verbs():
            try:
                seconds, code, text = self.operation(argv)
            except Exception as exc:  # an escaped exception is a failed call
                ops.append(Op(label, 0.0, f"{type(exc).__name__}: {exc}"))
                continue
            error = None
            if code != 0:
                error = f"exit code {code}: {text[:200]}"
            else:
                try:
                    error = check(json.loads(text))
                except (ValueError, KeyError, TypeError) as exc:
                    error = f"unreadable report: {type(exc).__name__}: {exc}"
            ops.append(Op(label, seconds, error))
        return ops, []


class S4Z20(CliSession):
    """The peiffer verb on S4 and Z20 with trivial actions both ways.

    |M x| N| = 480.  S4 with Z60 (1440) is the ROADMAP's instance, but one
    pass of it takes 14-22 s and holds 315 MB, so a run holds one pass; at
    480 a pass takes about 1.3 s.
    """

    name = "s4_z20"

    def write_inputs(self, rng):
        m = relabel_table(symmetric_table(4), rng)
        n = relabel_table(cyclic_table(20), rng)
        write_json(self.path("m.json"), {"order": len(m), "table": m, "name": "S4"})
        write_json(self.path("n.json"), {"order": len(n), "table": n, "name": "Z20"})
        write_json(self.path("xi_nm.json"), {"table": [list(range(len(m)))] * len(n)})
        write_json(self.path("xi_mn.json"), {"table": [list(range(len(n)))] * len(m)})
        self.properties = {"orders": [len(m), len(n)], "semidirect_order": len(m) * len(n)}

    def verbs(self):
        files = [self.path(f) for f in ("m.json", "n.json", "xi_nm.json", "xi_mn.json")]
        yield "peiffer", ["peiffer", *files], self.check

    @staticmethod
    def check(report):
        if report["order"] != S4_Z20_ORDER:
            return f"order {report['order']}, expected {S4_Z20_ORDER}"
        if report["compatible"] is not True:
            return "trivial actions reported incompatible"
        for key, size in (("lM", 24), ("lN", 20)):
            if len(set(report[key])) != size:
                return f"{key} is not injective"
        return None


class LieSession(CliSession):
    """lie-check-compat, lie-peiffer-xmods and lie-universal-map on an
    adjoint pair, the universal map through the identity crossed module."""

    def write_inputs(self, rng):
        brackets = self.brackets(rng)
        self.properties = lie_properties(brackets)
        n = len(brackets)
        L = lie_dict(brackets, self.algebra_name)
        rho = adjoint_rho(brackets)
        ident = [[_frac(int(i == j)) for j in range(n)] for i in range(n)]
        write_json(self.path("L.json"), L)
        write_json(self.path("ad.json"), {"rho": rho})
        write_json(self.path("xm.json"), {"boundary": ident, "action": {"rho": rho}, "dom": L, "cod": L})

    def verbs(self):
        pair = [self.path(f) for f in ("L.json", "L.json", "ad.json", "ad.json")]
        xm = [self.path("xm.json")] * 2
        dim = B3_QUOTIENT_DIM
        n = self.properties["dim"]

        def compat(report):
            return None if report["compatible"] is True else "adjoint pair reported incompatible"

        def xmods(report):
            got = report["on_M"]["cod"]["dim"], report["on_N"]["cod"]["dim"]
            return None if got == (dim, dim) else f"quotient dimensions {got}, expected {dim}"

        def universal(report):
            shape = len(report["matrix"]), len(report["matrix"][0])
            return None if shape == (n, dim) else f"universal map shape {shape}, expected {(n, dim)}"

        yield "lie-check-compat", ["lie-check-compat", *pair], compat
        yield "lie-peiffer-xmods", ["lie-peiffer-xmods", *pair], xmods
        yield "lie-universal-map", ["lie-universal-map", *pair, *xm], universal


class LieB3(LieSession):
    """b3 (dim 6) on a seeded signed permutation of its basis: sparse.

    b4 (dim 10) is the ROADMAP's instance, but one session of it takes
    32-39 s; b3 takes about 4 s and is the same algebra as lie_dense.
    """

    name = "lie_b3"
    algebra_name = "b3"

    @staticmethod
    def brackets(rng):
        base = upper_triangular_brackets(3)
        return transport(base, signed_permutation(len(base), rng))


class LieDense(LieSession):
    """b3 (dim 6) on a dense rational basis: one fixed integer change of
    basis, then a seeded signed permutation.

    The dense matrix is drawn once, not per seed, so that every seed does
    the same exact arithmetic: with a fresh matrix per seed the largest
    denominator ranged from 6 to 252 over ten seeds.
    """

    name = "lie_dense"
    algebra_name = "b3"

    @staticmethod
    def brackets(rng):
        dense = dense_change_of_basis(6, random.Random("lie_dense:basis"))
        base = transport(upper_triangular_brackets(3), dense)
        return transport(base, signed_permutation(len(base), rng))


# BENCHMARK.json gates family and lie_b3; the other two run by name only.
WORKLOADS = {w.name: w for w in (Family, S4Z20, LieB3, LieDense)}
