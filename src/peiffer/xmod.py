"""Crossed modules of finite groups and the actions they induce."""
from __future__ import annotations

from .actions import conjugation_action, pullback_action
from .compat import MutualActions
from .groups import Diagnosis, GroupError, VALID, _first_difference


class CrossedModule:
    """A boundary map X -> A equivariant for an action of A on X, of groups or of Lie algebras."""

    def __init__(self, boundary, action):
        if boundary.dom != action.target or boundary.cod != action.acting:
            raise boundary.dom.error("crossed module: boundary and action do not match")
        self.boundary = boundary
        self.action = action
        self.X = boundary.dom
        self.A = boundary.cod

    def __repr__(self):
        return f"CrossedModule(X={self.X!r}, A={self.A!r})"


def check_xmod(xm: CrossedModule) -> Diagnosis:
    """Equivariance of the boundary, then the Peiffer identity."""
    d, psi = xm.boundary.mapping, xm.action.table
    T, inv = xm.A.table, xm.A.inverses
    for a, row in enumerate(psi):
        ta, ia = T[a], inv[a]
        lhs, rhs = [d[v] for v in row], [T[ta[v]][ia] for v in d]
        if lhs != rhs:
            return Diagnosis(False, "boundary is not equivariant", (a, _first_difference(lhs, rhs)))
    for x, cx in enumerate(conjugation_action(xm.X).table):
        row = psi[d[x]]
        if row != cx:
            return Diagnosis(False, "Peiffer identity fails", (x, _first_difference(row, cx)))
    return VALID


def induced_mutual_actions(xm_m: CrossedModule, xm_n: CrossedModule) -> MutualActions:
    """Two crossed modules over a common base act on each other by pullback.

    Both must be crossed modules: the loaders check that, and the crossed
    modules of a Peiffer product are ones by theorem.
    """
    if xm_m.A != xm_n.A:
        raise GroupError("crossed modules have different base groups")
    xi_nm = pullback_action(xm_n.boundary, xm_m.action)
    xi_mn = pullback_action(xm_m.boundary, xm_n.action)
    return MutualActions(xi_nm, xi_mn)
