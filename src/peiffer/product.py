"""The Peiffer product of two groups acting on each other.

The product P is the quotient of the semidirect product M x| N along the
action of N on M by the normal closure of the relators
j_M(m) j_N(n) j_M(m)^-1 j_N(m n)^-1 (with m n meaning n acted on by m).  The
table of M x| N is never built: the element (m, n) is the index m |N| + n,
and (x, a)(y, b) = (x psi(a, y), a b) with psi the action of N on M.
induced_actions and peiffer_xmods also take lie.lie_peiffer's product.
"""
from __future__ import annotations

from functools import cached_property
from operator import eq

from .actions import (
    Action,
    DEFAULT_SEMIDIRECT_CAP,
    SemidirectData,
    conjugation_action,
    semidirect,
    semidirect_order,
    semidirect_quotient,
)
from .compat import MutualActions, coproduct_eval
from .groups import (
    Diagnosis,
    FiniteGroup,
    GroupError,
    Hom,
    VALID,
    _first_difference,
    _greedy_generators,
    _multiplicative_on_generators,
    _per_group,
    _pick,
    _shown,
    quotient,  # noqa: F401 -- unused; perfbench's wrapper self-test asserts this binding
)
from .xmod import CrossedModule


class PeifferProduct:
    """The quotient group with its structure maps and induced actions.

    The interface it shares with lie.LiePeifferProduct, and that
    induced_actions and peiffer_xmods read: product is P, lM and lN the
    structure maps from M and N, and source the MutualActions pair.  actions
    is the tuple (on_M, on_N) of the actions of P on M and on N when they are
    well defined (equivalently, when the source pair is compatible);
    otherwise it is None and disagreement holds the first witness.  Here proj
    sends each index m |N| + n of M x| N to its coset in P.
    """

    def __init__(self, product, proj, lM, lN, source, actions, disagreement):
        self.product = product
        self.proj = proj
        self.lM = lM
        self.lN = lN
        self.source = source
        self.actions = actions
        self.disagreement = disagreement

    @cached_property
    def semidirect(self) -> SemidirectData:
        """M x| N itself, built only when asked for."""
        return semidirect(self.source.xi_nm, cap=len(self.proj))

    @property
    def compatible(self) -> bool:
        return self.actions is not None

    def __repr__(self):
        return f"PeifferProduct(order={self.product.order}, compatible={self.compatible})"


def _relators(mut: MutualActions) -> set[int]:
    """The relator of each (m, n) as an index, in closed form:

    r(m, n) = (m psi(n, m^-1), n xi(m, n)^-1), with xi(m, n) for n acted on by m.
    """
    M, N = mut.M, mut.N
    TM, TN, psi = M.table, N.table, mut.xi_nm.table
    im, in_ = M.inverses, N.inverses
    nn = N.order
    return {
        TM[m][psi[n][im[m]]] * nn + TN[n][in_[mn]]
        for m, m_on_n in enumerate(mut.xi_mn.table)
        for n, mn in enumerate(m_on_n)
    }


def peiffer_relators(mut: MutualActions):
    """The semidirect product along xi_nm and the sorted relator set."""
    return semidirect(mut.xi_nm), tuple(sorted(_relators(mut)))


def _relator_subgroup(mut: MutualActions) -> list[tuple[int, int]]:
    """K, the subgroup of M x| N that the relators generate, as pairs (m, n).

    Each relator not yet in K extends it by Dimino's coset step, so the
    identity comes first.  K is already normal, hence the normal closure.
    In M x| N, r(m, n) = m n m^-1 xi(m, n)^-1, and the action axioms of M
    on N alone give

        m' r(m, n) m'^-1 = r(m' m, n) r(m', xi(m, n))^-1
        xi(m, n1) r(m, n2) xi(m, n1)^-1 = r(m, n1)^-1 r(m, n1 n2),

    where xi(m, n1) takes every value in N as n1 does.  So conjugation by
    every element of M and of N, which generate M x| N, keeps K.
    """
    M, N = mut.M, mut.N
    TM, TN, psi = M.table, N.table, mut.xi_nm.table
    nn = N.order

    def mul(s, t):
        (x, a), (y, b) = divmod(s, nn), divmod(t, nn)
        return TM[x][psi[a][y]] * nn + TN[a][b]

    elems = [M.identity * nn + N.identity]
    members, gens = set(elems), []
    for r in sorted(_relators(mut)):
        if r in members:
            continue
        # K so far, then each new right coset K t whole, led by t
        H = elems[:]
        gens.append(r)
        leaders = [r]
        for t in leaders:  # grows while it is read
            if t not in members:
                coset = [mul(h, t) for h in H]
                elems.extend(coset)
                members.update(coset)
                leaders.extend(mul(t, g) for g in gens)
    return [divmod(k, nn) for k in elems]


@_per_group
def _m_side_rows(psi: Action) -> tuple:
    """conj(x) o psi(a) at the index x |A| + a, for every x in X and a in A.

    For psi = xi_nm these are the rows of the action on M of each (m, n) of
    M x| N, at its index m |N| + n: conjugation in M x| N on j_M(M).  Built
    once per action and kept on it, as every pair that has psi as its action
    of N on M reads the same rows.
    """
    picks = [_pick(row) for row in psi.table]
    return tuple([pick(cx) for cx in conjugation_action(psi.target).table for pick in picks])


@_per_group
def _n_side_rows(psi: Action) -> tuple:
    """psi(a) o conj(x) at the index a |X| + x, for every a in A and x in X.

    For psi = xi_mn these are the rows on N of each (m, n) of M x| N, at its
    index m |N| + n.  Built once per action and kept on it.
    """
    picks = [_pick(cx) for cx in conjugation_action(psi.target).table]
    return tuple([pick(row) for row in psi.table for pick in picks])


def _coset_representatives(proj, order: int) -> list[int]:
    """The least index of each coset: read backwards, its last entry in proj."""
    least = dict(zip(reversed(proj), reversed(range(len(proj)))))
    return list(map(least.__getitem__, range(order)))


def _constant_on_cosets(rows, at_reps, proj) -> bool:
    """Whether each index's row is its coset representative's row, at_reps[p] for the coset p."""
    return all(map(eq, rows, map(at_reps.__getitem__, proj)))


def _first_disagreement(proj, reps, on_m, on_n):
    """The first index whose row on M, then on N, differs from its coset representative's."""
    for s, p in enumerate(proj):
        r = reps[p]
        for side, rows in enumerate((on_m, on_n)):
            want, got = rows[r], rows[s]
            if got != want:
                x = _first_difference(want, got)
                return (p, r, s, side, x, want[x], got[x])
    return None


def peiffer_product(mut: MutualActions, cap: int = DEFAULT_SEMIDIRECT_CAP) -> PeifferProduct:
    """M x| N along xi_nm modulo the relators, with its structure maps and
    the actions it induces on M and on N.

    Precondition: both tables of mut are actions (the loaders check them,
    and enumerate_actions and the constructions give actions).
    """
    semidirect_order(mut.xi_nm, cap)
    M, N = mut.M, mut.N
    nn = N.order
    P, proj = semidirect_quotient(mut.xi_nm, _relator_subgroup(mut))
    lM = Hom(M, P, proj[N.identity::nn])
    lN = Hom(N, P, proj[M.identity * nn:(M.identity + 1) * nn])

    # induced actions on M and on N, one row per side from each (m, n) of S:
    # conj(m) o xi_nm[n] and xi_mn[m] o conj(n), read from the tables of the
    # two actions.  Every index's rows must be its coset representative's.
    #
    # With no disagreement both tables are actions of P.  The M-side rows are
    # conjugation in S on the normal subgroup j_M(M).  The N-side rows form a
    # hom S -> Aut(N) exactly when compatibility equation 2 holds, and it does
    # when the rows of j_M(m) j_N(n) j_M(m)^-1 and j_N(mn), which lie in one
    # coset, agree.
    on_m, on_n = _m_side_rows(mut.xi_nm), _n_side_rows(mut.xi_mn)
    reps = _coset_representatives(proj, P.order)
    rows_m, rows_n = [on_m[r] for r in reps], [on_n[r] for r in reps]
    actions = disagreement = None
    if _constant_on_cosets(on_m, rows_m, proj) and _constant_on_cosets(on_n, rows_n, proj):
        actions = (Action(P, M, rows_m), Action(P, N, rows_n))
    else:
        disagreement = _first_disagreement(proj, reps, on_m, on_n)
    return PeifferProduct(P, proj, lM, lN, mut, actions, disagreement)


def induced_actions(pp):
    """The actions of P on M and on N, of groups or of Lie algebras; raises when not well defined."""
    if pp.actions is None:
        raise pp.source.M.error(f"induced action disagrees across a coset, witness={_shown(pp.disagreement)}")
    return pp.actions


def peiffer_xmods(pp) -> tuple[CrossedModule, CrossedModule]:
    """lM and lN as crossed modules over the Peiffer product, of groups or of Lie algebras."""
    on_m, on_n = induced_actions(pp)
    return CrossedModule(pp.lM, on_m), CrossedModule(pp.lN, on_n)


def strong_relation_check(pp: PeifferProduct, bound: int = 2) -> Diagnosis:
    """Conjugation in P matches the word action for all words up to length bound.

    Words range over non-identity letters of both sides; each is compared
    letterwise against conjugation by its image.  Both sides of a word are
    composites of its letters' rows, so if every letter passes, every word
    does (induction on length): the first failure is always a single letter,
    and every bound >= 1 gives the same verdict and witness.  The empty word
    always passes.

    The generator letters, at generators x of each side, decide it when lM
    and lN are homs, which is tested first, on generators.  For one letter
    c both sides, x -> l(c x) and x -> l(c) l(x) l(c)^-1, are then homs on
    each side, as c acts by an automorphism, so they agree once they agree
    on generators.  The letters c of M that pass are closed under products:
    the row of c c' is the row of c after the row of c' (conjugation and
    xi_mn are actions), and lM(c c') = lM(c) lM(c'), so
    l(c c' x) = lM(c) lM(c') l(x) lM(c')^-1 lM(c)^-1; likewise on N.  A map
    that is not a hom gets no generator pass.  Every letter is scanned at
    every x only when the pass fails, for the first witness.
    """
    if bound < 0:
        raise GroupError(f"strong word bound must be non-negative, got {bound}")
    induced_actions(pp)
    if bound == 0:
        return VALID
    mut = pp.source
    groups = (mut.M, mut.N)
    ells = (pp.lM.mapping, pp.lN.mapping)
    P = pp.product
    T, inv = P.table, P.inverses

    def fails(c, points):
        """The first failure of the letter c at the points(G) of each side."""
        q = ells[c[0]][c[1]]
        tq, q_inv = T[q], inv[q]
        for side, G in enumerate(groups):
            ell, xs = ells[side], points(G)
            # ell o (the letter's row, from the element-wise reference), and
            # conjugation by q on ell
            lhs = [ell[coproduct_eval(mut, (c,), side, x)] for x in xs]
            rhs = [T[tq[ell[x]]][q_inv] for x in xs]
            if lhs != rhs:
                k = _first_difference(lhs, rhs)
                return Diagnosis(
                    False,
                    "conjugation does not match the word action",
                    ((c,), side, xs[k], lhs[k], rhs[k]),
                )
        return None

    generators = [(side, g) for side, G in enumerate(groups) for g in _greedy_generators(G)]
    homs = all(_multiplicative_on_generators(G, P, ell) for G, ell in zip(groups, ells))
    if homs and not any(fails(c, _greedy_generators) for c in generators):
        return VALID
    letters = [(side, g) for side, G in enumerate(groups) for g in G.elements() if g != G.identity]
    return next(filter(None, (fails(c, FiniteGroup.elements) for c in letters)), VALID)


def universal_map(pp: PeifferProduct, xm_m: CrossedModule, xm_n: CrossedModule) -> Hom:
    """The unique map P -> L through which both structure maps factor.

    Precondition: the crossed modules live over a common base L and the
    mutual actions they induce equal the source pair of pp.  Their actions
    must be actions and their boundaries homs (the loaders check both, and
    crossed modules built here are ones by theorem).  The pulled-back
    actions are then actions, as are the pair's, so they are compared on
    generators.
    """
    mut = pp.source
    if xm_m.X != mut.M or xm_n.X != mut.N:
        raise GroupError("crossed modules are not over M and N")
    if xm_m.A != xm_n.A:
        raise GroupError("crossed modules have different base groups")
    mu, nu = xm_m.boundary.mapping, xm_n.boundary.mapping
    # the action of n on M is that of nu(n) through xm_m, and of m on N that of mu(m) through xm_n
    pulled = ((xm_m.action.table, nu, mut.xi_nm.table, mut.N), (xm_n.action.table, mu, mut.xi_mn.table, mut.M))
    if any(psi[d[g]] != xi[g] for psi, d, xi, G in pulled for g in _greedy_generators(G)):
        raise GroupError("crossed modules do not induce the given actions")
    TL = xm_m.A.table
    nn = mut.N.order
    # mu(m) nu(n) is constant on cosets: mu and nu are equivariant, so relators
    # map to 1; it is read at each coset's representative
    reps = _coset_representatives(pp.proj, pp.product.order)
    h = [TL[mu[m]][nu[n]] for m, n in (divmod(s, nn) for s in reps)]
    return Hom(pp.product, xm_m.A, h)
