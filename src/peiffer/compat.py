"""Mutual actions of two groups on each other and the compatibility test.

Side 0 is M, side 1 is N throughout the free-product conventions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .actions import conjugation_action
from .groups import FiniteGroup, _first_difference, _greedy_generators

M_SIDE = 0
N_SIDE = 1


class MutualActions:
    """A pair of actions, N on M (xi_nm) and M on N (xi_mn), of groups or of Lie algebras."""

    def __init__(self, xi_nm, xi_mn):
        self.M, self.N = xi_nm.target, xi_mn.target
        if xi_nm.acting != self.N or xi_mn.acting != self.M:
            raise self.M.error(f"mutual actions: {self.M.noun}s do not match up")
        self.xi_nm = xi_nm
        self.xi_mn = xi_mn

    def swapped(self) -> "MutualActions":
        return MutualActions(self.xi_mn, self.xi_nm)

    def __eq__(self, other):
        return (
            isinstance(other, MutualActions)
            and self.xi_nm == other.xi_nm
            and self.xi_mn == other.xi_mn
        )

    def __hash__(self):
        return hash((self.xi_nm, self.xi_mn))

    def __repr__(self):
        return f"MutualActions(M={self.M!r}, N={self.N!r})"


def coproduct_eval(mut: MutualActions, letters, side: int, x: int) -> int:
    """Act with a free-product word on x, an element of the group at `side`.

    Letters apply right to left: a same-side letter conjugates, a cross-side
    letter acts through its mutual-action table.
    """
    G, cross = (mut.M, mut.xi_nm) if side == M_SIDE else (mut.N, mut.xi_mn)
    for s, g in reversed(tuple(letters)):
        if s == side:
            x = G.conj(g, x)
        else:
            x = cross.table[g][x]
    return x


@dataclass(frozen=True)
class CompatWitness:
    equation: int
    m: int
    n: int
    other: int
    lhs: int
    rhs: int


@dataclass(frozen=True)
class CompatVerdict:
    compatible: bool
    witness: CompatWitness | None = None


def _first_failure(A, B, on_a, on_b, elements):
    """The first (a, b, x, lhs, rhs) over elements(A) and elements(B) at which
    equation 1 fails for A and B, on_a the action of B on A and on_b that of
    A on B.

    Rows are compared whole: the row of the word (a, b, a^-1) is
    conj(a) o on_a[b] o conj(a^-1).
    """
    conj = conjugation_action(A).table
    for a in elements(A):
        ca, cinv, a_on_b = conj[a], conj[A.inverses[a]], on_b[a]
        for b in elements(B):
            xb = on_a[b]
            lhs, rhs = on_a[a_on_b[b]], tuple([ca[xb[v]] for v in cinv])
            if lhs != rhs:
                x = _first_difference(lhs, rhs)
                return a, b, x, lhs[x], rhs[x]
    return None


def check_compatible(mut: MutualActions) -> CompatVerdict:
    """Both compatibility equations, each decided on pairs of generators.

    Equation 1: ( (m n) acting on m' ) = ( m n m^-1 acting on m' ), where
    (m n) means n acted on by m; symmetrically for equation 2.

    Precondition: both tables are actions (the loaders check them, and
    enumerate_actions and the constructions give actions).  Then for fixed m
    the maps n -> xi_nm((m n)) and n -> c_m xi_nm(n) c_m^-1 are both homs
    N -> Aut(M), so they agree once they agree on generators of N; and the m
    for which they agree are closed under products, as (m m' n) = (m (m' n)).
    So greedy generators of M and of N decide each equation.  An equation
    that fails on them is scanned in full for its lexicographically first
    witness, equation 1 before equation 2.
    """
    # equation 2 is equation 1 for the swapped pair; its witness names m, n
    # of the original pair
    equations = (
        (1, mut.M, mut.N, mut.xi_nm.table, mut.xi_mn.table),
        (2, mut.N, mut.M, mut.xi_mn.table, mut.xi_nm.table),
    )
    for equation, *sides in equations:
        if _first_failure(*sides, _greedy_generators) is not None:
            a, b, x, lhs, rhs = _first_failure(*sides, FiniteGroup.elements)
            m, n = (a, b) if equation == 1 else (b, a)
            return CompatVerdict(False, CompatWitness(equation, m, n, x, lhs, rhs))
    return CompatVerdict(True)
