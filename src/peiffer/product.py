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

from .actions import (
    Action,
    DEFAULT_SEMIDIRECT_CAP,
    SemidirectData,
    _pick,
    conjugation_action,
    semidirect,
    semidirect_order,
    semidirect_quotient,
)
from .compat import M_SIDE, N_SIDE, MutualActions, coproduct_eval
from .groups import (
    Diagnosis,
    GroupError,
    Hom,
    VALID,
    _first_difference,
    _shown,
    quotient,  # noqa: F401 -- unused; perfbench's wrapper self-test asserts this binding
)
from .xmod import CrossedModule, induced_mutual_actions


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


def peiffer_product(mut: MutualActions, cap: int = DEFAULT_SEMIDIRECT_CAP) -> PeifferProduct:
    semidirect_order(mut.xi_nm, cap)
    M, N = mut.M, mut.N
    nn = N.order
    P, proj = semidirect_quotient(mut.xi_nm, _relator_subgroup(mut))
    lM = Hom(M, P, proj[N.identity::nn])
    lN = Hom(N, P, proj[M.identity * nn:(M.identity + 1) * nn])

    conj_m, xi_mn = conjugation_action(M).table, mut.xi_mn.table
    # induced actions on M and on N, one row per side from each (m, n) of S:
    # conj(m) o xi_nm[n] and xi_mn[m] o conj(n).  Every representative of a
    # coset must give the rows of the first one.
    per_n = [(_pick(a), _pick(b)) for a, b in zip(mut.xi_nm.table, conjugation_action(N).table)]
    reps, rows = [None] * P.order, [None] * P.order

    def first_disagreement():
        s = 0
        for cm, xm in zip(conj_m, xi_mn):
            for xi_n, conj_n in per_n:
                p = proj[s]
                got = (xi_n(cm), conj_n(xm))
                if rows[p] is None:
                    reps[p], rows[p] = s, got
                elif rows[p] != got:
                    side = M_SIDE if rows[p][M_SIDE] != got[M_SIDE] else N_SIDE
                    want = rows[p][side]
                    x = _first_difference(want, got[side])
                    return (p, reps[p], s, side, x, want[x], got[side][x])
                s += 1
        return None

    # With no disagreement both tables are actions of P.  The M-side rows are
    # conjugation in S on the normal subgroup j_M(M).  The N-side rows form a
    # hom S -> Aut(N) exactly when compatibility equation 2 holds, and it does
    # when the rows of j_M(m) j_N(n) j_M(m)^-1 and j_N(mn), which lie in one
    # coset, agree.
    disagreement = first_disagreement()
    actions = None
    if disagreement is None:
        actions = tuple(
            Action(P, G, [got[side] for got in rows])
            for side, G in enumerate((M, N))
        )
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
    """
    if bound < 0:
        raise GroupError(f"strong word bound must be non-negative, got {bound}")
    induced_actions(pp)
    if bound == 0:
        return VALID
    mut = pp.source
    M, N = mut.M, mut.N
    letters = [(M_SIDE, m) for m in M.elements() if m != M.identity]
    letters += [(N_SIDE, n) for n in N.elements() if n != N.identity]
    ells = (pp.lM.mapping, pp.lN.mapping)
    T, inv = pp.product.table, pp.product.inverses
    for c in letters:
        q = ells[c[0]][c[1]]
        tq, q_inv = T[q], inv[q]
        for side, G in enumerate((M, N)):
            ell = ells[side]
            # ell o (the letter's row, from the element-wise reference)
            lhs = [ell[coproduct_eval(mut, (c,), side, x)] for x in G.elements()]
            # conjugation by q on ell's image only
            rhs = [T[tq[v]][q_inv] for v in ell]
            if lhs != rhs:
                x = _first_difference(lhs, rhs)
                return Diagnosis(
                    False,
                    "conjugation does not match the word action",
                    ((c,), side, x, lhs[x], rhs[x]),
                )
    return VALID


def universal_map(pp: PeifferProduct, xm_m: CrossedModule, xm_n: CrossedModule) -> Hom:
    """The unique map P -> L through which both structure maps factor.

    Precondition: the crossed modules live over a common base L and the
    mutual actions they induce equal the source pair of pp.
    """
    mut = pp.source
    if xm_m.X != mut.M or xm_n.X != mut.N:
        raise GroupError("crossed modules are not over M and N")
    if induced_mutual_actions(xm_m, xm_n) != mut:
        raise GroupError("crossed modules do not induce the given actions")
    L = xm_m.A
    mu, nu = xm_m.boundary, xm_n.boundary
    nn = mut.N.order
    # mu(m) nu(n) is constant on cosets: mu and nu are equivariant, so relators map to 1
    h = [None] * pp.product.order
    for s, p in enumerate(pp.proj):
        m, n = divmod(s, nn)
        h[p] = L.mul(mu(m), nu(n))
    return Hom(pp.product, L, h)
