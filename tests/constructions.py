"""Group constructions that only the tests use, as fixtures and oracles.

A test helper, not collected by pytest: homomorphism algebra (composition,
kernel, inverse), the plain isomorphism search, subgroups as groups in their
own right, points (split epimorphisms) and the action each one gives, the
identity and inclusion crossed modules, and every crossed module over the
catalog.  No verb or pipeline stage needs them.
"""
from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from peiffer.actions import Action, conjugation_action, enumerate_actions
from peiffer.catalog import catalog
from peiffer.groups import (
    FiniteGroup,
    GroupError,
    Hom,
    _greedy_generators,
    _map_from_images,
    all_homs,
    identity_hom,
    is_normal,
    is_subgroup,
)
from peiffer.xmod import CrossedModule, check_xmod


def compose(f: Hom, g: Hom) -> Hom:
    """f o g."""
    if g.cod != f.dom:
        raise GroupError("composition mismatch")
    return Hom(g.dom, f.cod, tuple(f.mapping[v] for v in g.mapping))


def kernel(f: Hom) -> frozenset:
    e = f.cod.identity
    return frozenset(x for x, v in enumerate(f.mapping) if v == e)


def inverse(f: Hom) -> Hom:
    if f.dom.order != f.cod.order or len(set(f.mapping)) != f.dom.order:
        raise GroupError("not bijective")
    inv = [0] * f.cod.order
    for x, y in enumerate(f.mapping):
        inv[y] = x
    return Hom(f.cod, f.dom, inv)


def greedy_isomorphism(G: FiniteGroup, H: FiniteGroup):
    """The first isomorphism G -> H as a map, or None, with no pruning and no budget.

    Every tuple of images of the greedy generators of G, each image of its
    generator's order, is extended to a map and kept if it is a bijection.
    """
    if G.order != H.order:
        return None
    gens = _greedy_generators(G)
    candidates = [[h for h in H.elements() if H.element_order(h) == G.element_order(g)] for g in gens]
    for images in iproduct(*candidates):
        phi = _map_from_images(G, H, gens, images)
        if phi is not None and len(set(phi)) == G.order:
            return phi
    return None


def subgroup_group(G: FiniteGroup, S) -> tuple[FiniteGroup, Hom]:
    """A subgroup as a group in its own right, with the inclusion."""
    S = frozenset(S)
    if not is_subgroup(G, S):
        raise GroupError("not a subgroup")
    elems = sorted(S)
    index = {x: i for i, x in enumerate(elems)}
    table = [[index[G.table[a][b]] for b in elems] for a in elems]
    H = FiniteGroup(table)
    return H, Hom(H, G, tuple(elems))


@dataclass(frozen=True)
class Point:
    """A split epimorphism p with a chosen splitting s."""

    p: Hom
    s: Hom

    def __post_init__(self):
        if self.p.dom != self.s.cod or self.p.cod != self.s.dom:
            raise GroupError("point: p and s do not match up")
        for b in range(self.p.cod.order):
            if self.p(self.s(b)) != b:
                raise GroupError("point: p o s is not the identity")


def conjugation_rows(incl: Hom, elements) -> tuple:
    """Conjugation by each of elements on the subgroup incl(K) of G, in K's indices."""
    G, back = incl.cod, {v: i for i, v in enumerate(incl.mapping)}
    try:
        return tuple(tuple([back[G.conj(g, v)] for v in incl.mapping]) for g in elements)
    except KeyError:
        raise GroupError("conjugate leaves the subgroup") from None


def point_to_action(pt: Point) -> tuple[Action, Hom]:
    """The action of the base on the kernel, plus the kernel inclusion."""
    p, s = pt.p, pt.s
    K, incl = subgroup_group(p.dom, kernel(p))
    return Action(p.cod, K, conjugation_rows(incl, s.mapping)), incl


def identity_xmod(G: FiniteGroup) -> CrossedModule:
    return CrossedModule(identity_hom(G), conjugation_action(G))


def inclusion_xmod(G: FiniteGroup, incl: Hom) -> CrossedModule:
    """A normal subgroup included into G, with G acting by conjugation."""
    if incl.cod != G or len(set(incl.mapping)) != incl.dom.order:
        raise GroupError("expected an injective map into G")
    if not is_normal(G, incl.mapping):
        raise GroupError("image is not a normal subgroup")
    return CrossedModule(incl, Action(G, incl.dom, conjugation_rows(incl, range(G.order))))


def catalog_xmods() -> list[CrossedModule]:
    """Every crossed module d: X -> A with X and A in the catalog.

    d runs over all_homs(X, A) and the action of A on X over
    enumerate_actions(A, X); the pairs that pass check_xmod are kept.
    """
    groups = catalog()
    found = []
    for X in groups:
        for A in groups:
            actions = enumerate_actions(A, X)
            for d in all_homs(X, A):
                found.extend(xm for xm in (CrossedModule(d, psi) for psi in actions) if check_xmod(xm).ok)
    return found
