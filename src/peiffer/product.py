"""The Peiffer product of two groups acting on each other.

Built as a finite quotient: take the semidirect product M x| N along the
action of N on M, then kill the relators j_M(m) j_N(n) j_M(m)^-1 j_N(m n)^-1
(with m n meaning n acted on by m) by their normal closure.
"""
from __future__ import annotations

from .actions import Action, DEFAULT_SEMIDIRECT_CAP, conjugation_action, semidirect
from .compat import M_SIDE, N_SIDE, MutualActions, coproduct_eval
from .groups import (
    Diagnosis,
    GroupError,
    Hom,
    VALID,
    _first_difference,
    normal_closure,
    quotient,
)
from .xmod import CrossedModule


class NotWellDefined(GroupError):
    """An induced operation disagrees on two representatives of a coset."""

    def __init__(self, message, witness):
        super().__init__(f"{message}, witness={witness}")
        self.witness = witness


class PeifferProduct:
    """The quotient group with its structure maps and induced actions.

    actions is a MutualActions pair when the induced actions are well
    defined (equivalently, when the source pair is compatible); otherwise
    it is None and disagreement holds the first witness.
    """

    def __init__(self, product, sd, from_semidirect, lM, lN, source, actions, disagreement):
        self.product = product
        self.semidirect = sd
        self.from_semidirect = from_semidirect
        self.lM = lM
        self.lN = lN
        self.source = source
        self.actions = actions
        self.disagreement = disagreement

    @property
    def compatible(self) -> bool:
        return self.actions is not None

    def __repr__(self):
        return f"PeifferProduct(order={self.product.order}, compatible={self.compatible})"


def peiffer_relators(mut: MutualActions, cap: int = DEFAULT_SEMIDIRECT_CAP):
    """The semidirect product along xi_nm and the sorted relator set."""
    sd = semidirect(mut.xi_nm, cap=cap)
    T, inv = sd.group.table, sd.group.inverses
    jM, jN = sd.jX.mapping, sd.jA.mapping
    rels = {
        T[T[jM[m]][jN[n]]][T[inv[jM[m]]][inv[jN[mn]]]]
        for m, m_on_n in enumerate(mut.xi_mn.table)
        for n, mn in enumerate(m_on_n)
    }
    return sd, tuple(sorted(rels))


def peiffer_product(mut: MutualActions, cap: int = DEFAULT_SEMIDIRECT_CAP) -> PeifferProduct:
    sd, rels = peiffer_relators(mut, cap=cap)
    S = sd.group
    K = normal_closure(S, rels)
    P, proj = quotient(S, K, check=False)  # a normal closure is normal
    lM = proj.compose(sd.jX)
    lN = proj.compose(sd.jA)

    nn = mut.N.order
    conj_m, conj_n = conjugation_action(mut.M).table, conjugation_action(mut.N).table
    xi_nm, xi_mn = mut.xi_nm.table, mut.xi_mn.table
    # induced actions on M and on N, one row per side from each (m, n) of S:
    # conj(m) o xi_nm[n] and xi_mn[m] o conj(n).  Every representative of a
    # coset must give the rows of the first one.
    reps, rows = [None] * P.order, [None] * P.order

    def first_disagreement():
        for s, p in enumerate(proj.mapping):
            m, n = divmod(s, nn)
            cm, xm = conj_m[m], xi_mn[m]
            got = ([cm[v] for v in xi_nm[n]], [xm[v] for v in conj_n[n]])
            if rows[p] is None:
                reps[p], rows[p] = s, got
            elif rows[p] != got:
                side = M_SIDE if rows[p][M_SIDE] != got[M_SIDE] else N_SIDE
                want = rows[p][side]
                x = _first_difference(want, got[side])
                return (p, reps[p], s, side, x, want[x], got[side][x])
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
            Action(P, G, [got[side] for got in rows], check=False)
            for side, G in enumerate((mut.M, mut.N))
        )
    return PeifferProduct(P, sd, proj, lM, lN, mut, actions, disagreement)


def induced_actions(pp: PeifferProduct):
    """The actions of P on M and on N; raises when they are not well defined."""
    if pp.actions is None:
        raise NotWellDefined("induced action disagrees across a coset", pp.disagreement)
    return pp.actions


def peiffer_xmods(pp: PeifferProduct) -> tuple[CrossedModule, CrossedModule]:
    """lM and lN as crossed modules over the Peiffer product."""
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
    conj_p = conjugation_action(pp.product).table
    for c in letters:
        cq = conj_p[ells[c[0]][c[1]]]
        for side, G in enumerate((M, N)):
            ell = ells[side]
            # ell o (the letter's row, from the element-wise reference)
            lhs = [ell[coproduct_eval(mut, (c,), side, x)] for x in G.elements()]
            rhs = [cq[v] for v in ell]
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
    from .xmod import induced_mutual_actions

    mut = pp.source
    if xm_m.X != mut.M or xm_n.X != mut.N:
        raise GroupError("crossed modules are not over M and N")
    if induced_mutual_actions(xm_m, xm_n) != mut:
        raise GroupError("crossed modules do not induce the given actions")
    L = xm_m.A
    mu, nu = xm_m.boundary, xm_n.boundary
    S = pp.semidirect.group
    proj = pp.from_semidirect
    nn = mut.N.order
    # mu(m) nu(n) is constant on cosets: mu and nu are equivariant, so relators map to 1
    h = [None] * pp.product.order
    for s in range(S.order):
        m, n = divmod(s, nn)
        h[proj(s)] = L.mul(mu(m), nu(n))
    return Hom(pp.product, L, h, check=False)
