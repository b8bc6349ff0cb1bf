"""Group actions as full tables, the canonical constructions, semidirect
products and the enumeration of actions."""
from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .groups import (
    Diagnosis,
    FiniteGroup,
    GroupError,
    Hom,
    VALID,
    _bounded,
    _built_group,
    _greedy_generators,
    _is_index,
    _per_group,
    all_homs,
    aut_group,
)

DEFAULT_SEMIDIRECT_CAP = 4096


def _generators_act(acting: FiniteGroup, target: FiniteGroup, table) -> bool:
    """Composition for greedy generators g and every a, and each generator row
    a homomorphism.  With the unit axiom this implies all the axioms: every
    row is then a composite of generator rows, and row(a) o row(a^-1) is the
    identity."""
    rows = [list(row) for row in table]
    tt = target.table
    for g in _greedy_generators(acting):
        rg = rows[g]
        if any(rows[ga] != [rg[v] for v in ra] for ga, ra in zip(acting.table[g], rows)):
            return False
        # row x of the target table, then row g(x): g(x y) = g(x) g(y) for all y
        pairs = zip(tt, [tt[v] for v in rg])
        if any([rg[v] for v in tx] != [ty[w] for w in rg] for tx, ty in pairs):
            return False
    return True


def check_action_table(acting: FiniteGroup, target: FiniteGroup, table) -> Diagnosis:
    """Group-action axioms: unit, composition, each row an automorphism.

    After the unit axiom the axioms are checked on generators; the full scan
    runs only when that fails, so the witness is the lexicographically first.
    """
    if len(table) != acting.order or any(len(row) != target.order for row in table):
        return Diagnosis(False, "table dimensions do not match the groups", ())
    for a, row in enumerate(table):
        for x, v in enumerate(row):
            if not _is_index(v, target.order):
                return Diagnosis(False, "entry out of range", (a, x, _bounded(v)))
    e = acting.identity
    for x in range(target.order):
        if table[e][x] != x:
            return Diagnosis(False, "unit axiom fails", (x,))
    if _generators_act(acting, target, table):
        return VALID
    for a in range(acting.order):
        for b in range(acting.order):
            ab = acting.table[a][b]
            for x in range(target.order):
                if table[ab][x] != table[a][table[b][x]]:
                    return Diagnosis(False, "composition axiom fails", (a, b, x))
    # unit and composition make row(a) o row(a^-1) the identity: every row is a bijection
    for a in range(acting.order):
        row = table[a]
        for x in range(target.order):
            for y in range(target.order):
                if row[target.table[x][y]] != target.table[row[x]][row[y]]:
                    return Diagnosis(False, "row is not an automorphism", (a, x, y))
    raise AssertionError("_generators_act failed on a table that satisfies every action axiom")


class Action:
    """A full action table psi: A x X -> X, kept as given and trusted."""

    def __init__(self, acting: FiniteGroup, target: FiniteGroup, table):
        self.acting = acting
        self.target = target
        self.table = tuple(map(tuple, table))

    def __call__(self, a: int, x: int) -> int:
        return self.table[a][x]

    def __eq__(self, other):
        return (
            isinstance(other, Action)
            and self.acting == other.acting
            and self.target == other.target
            and self.table == other.table
        )

    def __hash__(self):
        return hash((self.acting.table, self.target.table, self.table))

    def __repr__(self):
        return f"Action(|A|={self.acting.order}, |X|={self.target.order})"


def trivial_action(acting: FiniteGroup, target: FiniteGroup) -> Action:
    row = tuple(range(target.order))
    return Action(acting, target, tuple(row for _ in range(acting.order)))


@_per_group
def conjugation_action(G: FiniteGroup) -> Action:
    T, inv = G.table, G.inverses
    table = tuple(tuple([T[y][inv[a]] for y in T[a]]) for a in range(G.order))
    return Action(G, G, table)


def pullback_action(f: Hom, psi: Action) -> Action:
    """psi'(a, x) = psi(f(a), x)."""
    if f.cod != psi.acting:
        raise GroupError("pullback: codomain does not match the acting group")
    table = tuple(psi.table[f(a)] for a in range(f.dom.order))
    return Action(f.dom, psi.target, table)


class SemidirectData:
    """The semidirect product X x| A with its kernel, section and projection."""

    def __init__(self, group, jX, jA, pi):
        self.group = group
        self.jX = jX
        self.jA = jA
        self.pi = pi


def semidirect_order(psi: Action, cap: int) -> int:
    """|X| |A|, the order of X x| A; raises when it exceeds cap."""
    n = psi.target.order * psi.acting.order
    if n > cap:
        raise GroupError(f"cap exceeded: semidirect order {n} > {cap}")
    return n


def _pick(indices):
    """itemgetter(*indices) that returns a tuple for a single index too."""
    if len(indices) == 1:
        (i,) = indices
        return lambda seq: (seq[i],)
    return itemgetter(*indices)


def semidirect_quotient(psi: Action, K) -> tuple[FiniteGroup, tuple]:
    """(X x| A)/K from the product formula, without the table of X x| A.

    The element (x, a) is the index x |A| + a, and K is a normal subgroup
    given as pairs (x, a), identity first.  Cosets s K are taken in index
    order, so each representative is the least index of its coset.  Returns
    the quotient and the projection as a tuple over the indices.
    """
    X, A = psi.target, psi.acting
    TX, TA, on_x = X.table, A.table, psi.table
    na = A.order
    proj, reps = [-1] * (X.order * na), []
    for s in range(len(proj)):
        if proj[s] < 0:
            x, a = divmod(s, na)
            tx, pa, ta = TX[x], on_x[a], TA[a]
            for k1, k2 in K:
                proj[tx[pa[k1]] * na + ta[k2]] = len(reps)
            reps.append(s)
    proj = tuple(proj)
    pairs = [divmod(s, na) for s in reps]
    if len(reps) < len(proj):
        # entry (i, j) is the coset of rep_i rep_j = (x psi(a, y), a b)
        table = []
        for x, a in pairs:
            tx, pa, ta = TX[x], on_x[a], TA[a]
            table.append(tuple([proj[tx[pa[y]] * na + ta[b]] for y, b in pairs]))
    else:
        # K is trivial and every index its own coset.  Row (x, a) of X x| A is
        # |X| blocks of |A| columns: the block of x psi(a, y) for each y in
        # order, its columns b reordered by b -> a b.
        blocks = [proj[c * na:(c + 1) * na] for c in range(X.order)]
        shifted = {}
        table = []
        for x, a in pairs:
            if a not in shifted:
                on_block = _pick(TA[a])
                shifted[a] = [on_block(block) for block in blocks]
            sh, tx = shifted[a], TX[x]
            table.append(tuple(chain.from_iterable([sh[tx[v]] for v in on_x[a]])))
    # (x, a)^-1 = (psi(a^-1, x^-1), a^-1)
    ix, ia = X.inverses, A.inverses
    inverses = tuple(proj[on_x[ia[a]][ix[x]] * na + ia[a]] for x, a in pairs)
    return _built_group(tuple(table), proj[X.identity * na + A.identity], inverses), proj


def semidirect(psi: Action, cap: int = DEFAULT_SEMIDIRECT_CAP) -> SemidirectData:
    """Pairs (x, a) with (x, a)(x', a') = (x psi(a, x'), a a'), row-major."""
    X, A = psi.target, psi.acting
    na = A.order
    n = semidirect_order(psi, cap)
    G, _ = semidirect_quotient(psi, [(X.identity, A.identity)])
    jX = Hom(X, G, tuple(x * na + A.identity for x in range(X.order)))
    jA = Hom(A, G, tuple(X.identity * na + a for a in range(na)))
    pi = Hom(G, A, tuple(s % na for s in range(n)))
    return SemidirectData(G, jX, jA, pi)


def enumerate_actions(acting: FiniteGroup, target: FiniteGroup) -> list[Action]:
    """All actions of `acting` on `target`, as homs into Aut(target)."""
    autG, auts = aut_group(target)
    out = []
    for h in all_homs(acting, autG):
        table = tuple(auts[h(a)].mapping for a in range(acting.order))
        out.append(Action(acting, target, table))
    return out
