"""Mutual actions of two groups on each other and the compatibility test.

Side 0 is M, side 1 is N throughout the free-product conventions.
"""
from __future__ import annotations

from dataclasses import dataclass

from .actions import conjugation_action
from .groups import _first_difference

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


def check_compatible(mut: MutualActions) -> CompatVerdict:
    """Exhaustive check of both compatibility equations.

    Equation 1: ( (m n) acting on m' ) = ( m n m^-1 acting on m' ), where
    (m n) means n acted on by m; symmetrically for equation 2.
    """
    # equation 2 is equation 1 for the swapped pair; its witness names m, n
    # of the original pair.  Rows are compared whole: the row of the word
    # (a, b, a^-1) is conj(a) o xi_nm[b] o conj(a^-1).
    for equation, pair in ((1, mut), (2, mut.swapped())):
        A = pair.M
        conj = conjugation_action(A).table
        on_a = [list(row) for row in pair.xi_nm.table]
        for a, a_on_b in enumerate(pair.xi_mn.table):
            ca, cinv = conj[a], conj[A.inverses[a]]
            for b, ab in enumerate(a_on_b):
                xb = on_a[b]
                lhs, rhs = on_a[ab], [ca[xb[v]] for v in cinv]
                if lhs != rhs:
                    x = _first_difference(lhs, rhs)
                    m, n = (a, b) if equation == 1 else (b, a)
                    return CompatVerdict(False, CompatWitness(equation, m, n, x, lhs[x], rhs[x]))
    return CompatVerdict(True)
