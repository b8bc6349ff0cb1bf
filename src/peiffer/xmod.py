"""Crossed modules of finite groups and the actions they induce."""
from __future__ import annotations

from itertools import chain

from .actions import conjugation_action, pullback_action
from .compat import MutualActions
from .groups import (
    Diagnosis,
    FiniteGroup,
    GroupError,
    VALID,
    _first_difference,
    _greedy_generators,
    _multiplicative_on_generators,
)


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
    """Equivariance of the boundary, then the Peiffer identity.

    Precondition: the action is an action (the loaders check it, and the
    crossed modules of a Peiffer product have one by theorem).  The boundary
    d is not assumed to be a hom: that is tested first, on generators of X.
    When it holds, generators decide both axioms.  For one a, x -> d(a x)
    and x -> a d(x) a^-1 are homs X -> A, so generators x suffice; and the a
    for which they agree are closed under products, since psi is an action,
    so generators of A suffice.  psi o d and conjugation are both homs
    X -> Aut(X), so generators of X suffice for the Peiffer identity.  The
    full scans run only when a pass fails, so the witness is the
    lexicographically first.
    """
    X, A = xm.X, xm.A
    d, psi = xm.boundary.mapping, xm.action.table
    T, inv = A.table, A.inverses
    conj_x = conjugation_action(X).table

    def equivariance_fails(a, points):
        """The first x of points(X) at which d(a x) and a d(x) a^-1 differ."""
        ta, ia, pa, xs = T[a], inv[a], psi[a], points(X)
        lhs, rhs = [d[pa[x]] for x in xs], [T[ta[d[x]]][ia] for x in xs]
        if lhs != rhs:
            return Diagnosis(False, "boundary is not equivariant", (a, xs[_first_difference(lhs, rhs)]))
        return None

    def peiffer_fails(x):
        row, cx = psi[d[x]], conj_x[x]
        if row != cx:
            return Diagnosis(False, "Peiffer identity fails", (x, _first_difference(row, cx)))
        return None

    if (
        _multiplicative_on_generators(X, A, d)
        and not any(equivariance_fails(a, _greedy_generators) for a in _greedy_generators(A))
        and not any(map(peiffer_fails, _greedy_generators(X)))
    ):
        return VALID
    equivariance = (equivariance_fails(a, FiniteGroup.elements) for a in A.elements())
    failures = chain(equivariance, map(peiffer_fails, X.elements()))
    return next(filter(None, failures), VALID)


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
