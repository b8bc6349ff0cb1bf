"""Finite groups given by multiplication tables, plus the standard toolbox.

Elements are dense 0-based indices into the table.  The identity may sit at
any index; imported tables are used as-is, without re-indexing.
"""
from __future__ import annotations

import reprlib
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import wraps
from itertools import product as iproduct
from math import prod


class GroupError(ValueError):
    """A table, map or subset violates a required axiom or precondition."""


@dataclass(frozen=True)
class Diagnosis:
    """Outcome of an axiom check: ok, or the first failure with a witness."""

    ok: bool
    reason: str | None = None
    witness: tuple | None = None

    def expect(self, what: str = "check", error=GroupError) -> None:
        if not self.ok:
            tail = "" if self.witness is None else f", witness={_shown(self.witness)}"
            raise error(f"{what} failed: {self.reason}{tail}")


VALID = Diagnosis(True)


def _is_index(v, n: int) -> bool:
    """v is an int in range(n); floats, strings and bools are not."""
    return isinstance(v, int) and not isinstance(v, bool) and 0 <= v < n


def _bounded(v):
    """v for a witness: itself if it is an int or reprlib shows it whole, else reprlib's short form."""
    short = reprlib.repr(v)
    return v if isinstance(v, int) or "..." not in short else short


def _shown(w) -> str:
    """repr(w) of a witness, with each Fraction in it written p/q (or n) as in a report."""
    if isinstance(w, Fraction):
        return str(w)
    if isinstance(w, tuple):
        inner = ", ".join(map(_shown, w))
        return f"({inner},)" if len(w) == 1 else f"({inner})"
    return repr(w)


def _first_difference(u, v) -> int:
    """The first index at which two rows of equal length differ."""
    return next(i for i, (a, b) in enumerate(zip(u, v)) if a != b)


def _axioms(table, check: bool = False):
    """The identity and the inverses of a table, or the first failed axiom.

    With check the raw table is validated in full: shape, entry types and
    ranges, and associativity (O(n^3)).  The identity and inverse search is
    the same pass either way.
    """
    n = len(table)
    if n == 0:
        return Diagnosis(False, "empty table", ())
    if check:
        for i, row in enumerate(table):
            if len(row) != n:
                return Diagnosis(False, "table is not square", (i,))
            for j, v in enumerate(row):
                if not _is_index(v, n):
                    return Diagnosis(False, "entry out of range", (i, j, _bounded(v)))
    identity = None
    for e in range(n):
        if all(table[e][x] == x and table[x][e] == x for x in range(n)):
            identity = e
            break
    if identity is None:
        return Diagnosis(False, "no identity element", ())
    inverses = []
    for x, row in enumerate(table):
        invs = [y for y in range(n) if row[y] == identity and table[y][x] == identity]
        if not invs:
            return Diagnosis(False, f"no inverse for element {x}", (x,))
        if len(invs) > 1:
            return Diagnosis(False, f"inverse of element {x} not unique", (x,))
        inverses.append(invs[0])
    if check:
        for a in range(n):
            ra = table[a]
            for b in range(n):
                ab = ra[b]
                rb = table[b]
                for c in range(n):
                    if table[ab][c] != ra[rb[c]]:
                        return Diagnosis(False, "associativity fails", (a, b, c))
    return identity, tuple(inverses)


def validate_table(table) -> Diagnosis:
    """Full group-axiom check of a raw multiplication table (O(n^3))."""
    found = _axioms(table, check=True)
    return found if isinstance(found, Diagnosis) else VALID


class FiniteGroup:
    """A finite group as an order x order multiplication table, trusted as given.

    Only the identity and the inverses are searched for; validate_table and
    the loaders check a table in full.
    """

    # the error and the noun of the guards compat and xmod share with Lie algebras
    error = GroupError
    noun = "group"

    def __init__(self, table, name: str | None = None):
        found = _axioms(table)
        if isinstance(found, Diagnosis):
            found.expect("group axioms")
        self.identity, self.inverses = found
        self.table = tuple(map(tuple, table))
        self.order = len(self.table)
        self.name = name

    def mul(self, a: int, b: int) -> int:
        return self.table[a][b]

    def inv(self, a: int) -> int:
        return self.inverses[a]

    def conj(self, g: int, x: int) -> int:
        """g x g^-1."""
        return self.table[self.table[g][x]][self.inverses[g]]

    def elements(self):
        return range(self.order)

    def element_order(self, x: int) -> int:
        y = x
        for k in range(1, self.order + 1):
            if y == self.identity:
                break
            y = self.table[y][x]
        else:  # a group's elements have orders up to |G|; a table that is not one can cycle forever
            raise GroupError(f"element {x} has no order within {self.order} steps: the table is not a group")
        return k

    def order_multiset(self) -> tuple:
        return tuple(sorted(_element_orders(self)))

    def __eq__(self, other):
        return isinstance(other, FiniteGroup) and self.table == other.table

    def __hash__(self):
        return hash(self.table)

    def __repr__(self):
        tag = f", name={self.name!r}" if self.name else ""
        return f"FiniteGroup(order={self.order}{tag})"


def _built_group(table: tuple, identity: int, inverses: tuple, name=None) -> FiniteGroup:
    """A group from a construction that already knows its identity and inverses.

    table is a tuple of int tuples, used as-is: nothing is searched or converted.
    """
    G = object.__new__(FiniteGroup)
    G.table, G.identity, G.inverses = table, identity, inverses
    G.order = len(table)
    G.name = name
    return G


class Hom:
    """A group homomorphism recorded as an element-wise map, kept as given and trusted."""

    def __init__(self, dom: FiniteGroup, cod: FiniteGroup, mapping):
        self.dom = dom
        self.cod = cod
        self.mapping = tuple(mapping)

    def check(self) -> Diagnosis:
        dt, ct, mp = self.dom.table, self.cod.table, self.mapping
        if len(mp) != self.dom.order:
            return Diagnosis(False, "map length does not match the domain order", (len(mp),))
        for x, v in enumerate(mp):
            if not _is_index(v, self.cod.order):
                return Diagnosis(False, "map value out of range", (x, _bounded(v)))
        if mp[self.dom.identity] != self.cod.identity:
            return Diagnosis(False, "identity not preserved", (self.dom.identity,))
        for a in range(self.dom.order):
            for b in range(self.dom.order):
                if mp[dt[a][b]] != ct[mp[a]][mp[b]]:
                    return Diagnosis(False, "not multiplicative", (a, b))
        return VALID

    def __call__(self, x: int) -> int:
        return self.mapping[x]

    def __eq__(self, other):
        return (
            isinstance(other, Hom)
            and self.dom == other.dom
            and self.cod == other.cod
            and self.mapping == other.mapping
        )

    def __hash__(self):
        return hash((self.dom.table, self.cod.table, self.mapping))

    def __repr__(self):
        return f"Hom({self.dom!r} -> {self.cod!r}, {self.mapping})"


def identity_hom(G: FiniteGroup) -> Hom:
    return Hom(G, G, range(G.order))


def subgroup_closure(G: FiniteGroup, gens) -> frozenset:
    """The subgroup generated by gens, reached by right multiplication alone:
    in a finite group every inverse is a positive power."""
    seen = {G.identity}
    frontier = [G.identity]
    while frontier:
        x = frontier.pop()
        row = G.table[x]
        for g in gens:
            y = row[g]
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return frozenset(seen)


def is_subgroup(G: FiniteGroup, S) -> bool:
    S = frozenset(S)
    if G.identity not in S:
        return False
    T, inv = G.table, G.inverses
    return all(T[a][b] in S for a in S for b in S) and all(inv[a] in S for a in S)


def is_normal(G: FiniteGroup, S) -> bool:
    S = frozenset(S)
    if not is_subgroup(G, S):
        return False
    T, inv = G.table, G.inverses
    return all(T[T[g][s]][inv[g]] in S for g in range(G.order) for s in S)


def normal_closure(G: FiniteGroup, gens) -> frozenset:
    """Smallest normal subgroup of G containing gens."""
    for g in gens:
        if not 0 <= g < G.order:
            raise GroupError("generator out of range")
    T, inv = G.table, G.inverses
    conjugates = {T[T[g][x]][inv[g]] for x in gens for g in range(G.order)}
    return subgroup_closure(G, conjugates)


def quotient(G: FiniteGroup, N) -> tuple[FiniteGroup, Hom]:
    """G/N with minimal-index coset representatives and the projection."""
    N = frozenset(N)
    if not is_normal(G, N):
        raise GroupError("subgroup is not normal")
    T = G.table
    proj = [-1] * G.order
    reps = []
    for x in range(G.order):
        if proj[x] < 0:
            # x is the minimal element of its coset: smaller ones are already placed
            row = T[x]
            for n in N:
                proj[row[n]] = len(reps)
            reps.append(x)
    table = tuple(tuple([proj[T[a][b]] for b in reps]) for a in reps)
    # the coset of e is the identity, and r^-1 N is the inverse of r N
    inverses = tuple(proj[G.inverses[r]] for r in reps)
    name = f"{G.name}/N" if G.name else None
    Q = _built_group(table, proj[G.identity], inverses, name=name)
    return Q, Hom(G, Q, proj)


def direct_product(G: FiniteGroup, H: FiniteGroup) -> FiniteGroup:
    """Componentwise product on pairs (g, h), indexed row-major g*|H|+h."""
    nh = H.order
    n = G.order * nh
    table = [[0] * n for _ in range(n)]
    for g1 in range(G.order):
        for h1 in range(nh):
            a = g1 * nh + h1
            row = table[a]
            for g2 in range(G.order):
                gg = G.table[g1][g2]
                for h2 in range(nh):
                    row[g2 * nh + h2] = gg * nh + H.table[h1][h2]
    name = f"{G.name}x{H.name}" if G.name and H.name else None
    return FiniteGroup(table, name=name)


def _per_group(derive):
    """Compute derive(G) once per group object and keep it on the group.

    A group is immutable once built, so anything derived from its table is
    too; the value lives exactly as long as the group does.
    """
    key = f"_{derive.__name__}"

    @wraps(derive)
    def once(G: FiniteGroup):
        cache = G.__dict__
        if key not in cache:
            cache[key] = derive(G)
        return cache[key]

    return once


@_per_group
def _element_orders(G: FiniteGroup) -> tuple[int, ...]:
    return tuple(map(G.element_order, range(G.order)))


def _closure_generators(G: FiniteGroup, ranked) -> tuple[int, ...]:
    """Each element of ranked, in order, that the ones before it do not generate."""
    gens: list[int] = []
    closure = frozenset({G.identity})
    for x in ranked:
        if x not in closure:
            gens.append(x)
            closure = subgroup_closure(G, gens)
            if len(closure) == G.order:
                break
    return tuple(gens)


@_per_group
def _greedy_generators(G: FiniteGroup) -> tuple[int, ...]:
    return _closure_generators(G, range(G.order))


@_per_group
def _iso_generators(G: FiniteGroup) -> tuple[int, ...]:
    """Generators drawn first from the orders that fewest elements have, then
    from the highest orders: each has few candidate images in a group with
    G's order statistics."""
    orders = _element_orders(G)
    count = Counter(orders)
    ranked = sorted(range(G.order), key=lambda x: (count[orders[x]], -orders[x], x))
    return _closure_generators(G, ranked)


def _map_from_images(G, H, gens, images):
    """The homomorphism G -> H sending gens to images, or None if there is none.

    One pass from the identity over every edge x -> xg, g in gens: the first
    edge to reach an element fixes its image and every later edge must agree,
    which, as gens generate G, is multiplicativity.
    """
    phi = [-1] * G.order
    phi[G.identity] = H.identity
    reached = [G.identity]
    for x in reached:  # grows as the pass goes, in discovery order
        row = G.table[x]
        hrow = H.table[phi[x]]
        for g, h in zip(gens, images):
            y, v = row[g], hrow[h]
            if phi[y] < 0:
                phi[y] = v
                reached.append(y)
            elif phi[y] != v:
                return None
    return tuple(phi)


SEARCH_BUDGET = 10**6  # image tuples per search; Aut(Z2^4) takes 50,625


def _budgeted(candidates) -> None:
    """Refuse a search over more image tuples than SEARCH_BUDGET, before it starts."""
    size = prod(map(len, candidates))
    if size > SEARCH_BUDGET:
        raise GroupError(f"search budget exceeded: {size} image tuples > {SEARCH_BUDGET}")


def _hom_search(G: FiniteGroup, H: FiniteGroup):
    """Maps G -> H fixed by images of greedy generators of G, in search order.

    A generator's image has an order dividing the generator's.  The number
    of image tuples is bounded before the search starts.
    """
    gens = _greedy_generators(G)
    og, oh = _element_orders(G), _element_orders(H)
    candidates = [[h for h in range(H.order) if og[g] % oh[h] == 0] for g in gens]
    _budgeted(candidates)
    for images in iproduct(*candidates):
        phi = _map_from_images(G, H, gens, images)
        if phi is not None:
            yield phi


def _image_tuples(H: FiniteGroup, candidates, wanted, images: list):
    """Each completion of images, depth first, yielded as the one list it grows.

    The next image comes from its candidates, is not an image already taken,
    and for each earlier image h_j, h_j h has the order given in wanted.
    """
    j = len(images)
    if j == len(candidates):
        yield images
        return
    oh, TH = _element_orders(H), H.table
    for h in candidates[j]:
        if h not in images and all(oh[TH[hi][h]] == o for hi, o in zip(images, wanted[j])):
            images.append(h)
            yield from _image_tuples(H, candidates, wanted, images)
            images.pop()


def _iso_search(G: FiniteGroup, H: FiniteGroup):
    """The isomorphisms G -> H, for groups of equal order statistics.

    Depth first over images of _iso_generators(G): the image of a generator
    g has g's order, and for each earlier generator g_j with image h_j,
    g_j g and h_j h have the same order.  Each complete tuple is extended to
    a map and kept if it is a bijection.  The number of image tuples before
    pruning is bounded before the search starts.
    """
    gens = _iso_generators(G)
    og, oh = _element_orders(G), _element_orders(H)
    candidates = [[h for h in range(H.order) if oh[h] == og[g]] for g in gens]
    _budgeted(candidates)
    wanted = [[og[G.table[gi][g]] for gi in gens[:j]] for j, g in enumerate(gens)]
    for images in _image_tuples(H, candidates, wanted, []):
        phi = _map_from_images(G, H, gens, images)
        if phi is not None and len(set(phi)) == G.order:
            yield phi


def all_homs(G: FiniteGroup, H: FiniteGroup) -> list[Hom]:
    """Every homomorphism G -> H, by generator-image search."""
    return [Hom(G, H, phi) for phi in _hom_search(G, H)]


DEFAULT_SEARCH_CAP = 64


def automorphisms(G: FiniteGroup) -> list[Hom]:
    """All automorphisms of G, sorted by their map for a stable indexing."""
    if G.order > DEFAULT_SEARCH_CAP:
        raise GroupError(f"cap exceeded: order {G.order} > {DEFAULT_SEARCH_CAP}")
    return [Hom(G, G, phi) for phi in sorted(_iso_search(G, G))]


@_per_group
def aut_group(G: FiniteGroup) -> tuple[FiniteGroup, tuple[Hom, ...]]:
    """Aut(G) as a FiniteGroup over the sorted automorphisms, built once per group."""
    auts = tuple(automorphisms(G))
    index = {a.mapping: i for i, a in enumerate(auts)}
    table = [
        [index[tuple(a.mapping[v] for v in b.mapping)] for b in auts] for a in auts
    ]
    name = f"Aut({G.name})" if G.name else None
    return FiniteGroup(table, name=name), auts


def is_isomorphic(G: FiniteGroup, H: FiniteGroup, cap: int = DEFAULT_SEARCH_CAP):
    """An isomorphism G -> H if one exists, otherwise None."""
    if G.order != H.order:
        return None
    if G.order > cap:
        raise GroupError(f"cap exceeded: order {G.order} > {cap}")
    if G.table == H.table:
        return identity_hom(G)
    if G.order_multiset() != H.order_multiset():
        return None
    phi = next(_iso_search(G, H), None)
    return None if phi is None else Hom(G, H, phi)
