"""Small named groups and the enumeration of mutual-action pairs."""
from __future__ import annotations

from dataclasses import dataclass
from itertools import permutations

from .actions import DEFAULT_SEMIDIRECT_CAP, enumerate_actions
from .compat import CompatVerdict, MutualActions, check_compatible
from .groups import FiniteGroup, GroupError, direct_product, is_isomorphic
from .product import PeifferProduct, peiffer_product


def cyclic(n: int) -> FiniteGroup:
    table = [[(i + j) % n for j in range(n)] for i in range(n)]
    return FiniteGroup(table, name=f"Z{n}")


def klein_four() -> FiniteGroup:
    return direct_product(cyclic(2), cyclic(2))


def symmetric_3() -> FiniteGroup:
    """S3 on permutations of (0, 1, 2) in lexicographic order."""
    perms = sorted(permutations(range(3)))
    index = {p: i for i, p in enumerate(perms)}
    table = [
        [index[tuple(p[q[k]] for k in range(3))] for q in perms] for p in perms
    ]
    return FiniteGroup(table, name="S3")


def catalog() -> list[FiniteGroup]:
    return [cyclic(2), cyclic(3), cyclic(4), klein_four(), cyclic(6), symmetric_3()]


def enumerate_mutual_actions(M: FiniteGroup, N: FiniteGroup) -> list[MutualActions]:
    """Every pair (action of N on M, action of M on N)."""
    on_m = enumerate_actions(N, M)
    on_n = enumerate_actions(M, N)
    return [MutualActions(a, b) for a in on_m for b in on_n]


@dataclass
class FamilyRecord:
    m_name: str
    n_name: str
    index: int
    mut: MutualActions
    verdict: CompatVerdict
    pp: PeifferProduct
    symmetric_ok: bool


def enumerate_family(
    groups=None, max_pair_order: int = 36, cap: int = DEFAULT_SEMIDIRECT_CAP
) -> list[FamilyRecord]:
    """All mutual-action pairs over the catalog, with products and verdicts.

    Pushout symmetry compares the product of each pair against the product
    of the swapped pair up to isomorphism; cap bounds the order of both the
    semidirect products and that isomorphism search.
    """
    if groups is None:
        groups = catalog()
    out = []
    for gi, M in enumerate(groups):
        for gj, N in enumerate(groups):
            if M.order * N.order > max_pair_order:
                continue
            for idx, mut in enumerate(enumerate_mutual_actions(M, N)):
                verdict = check_compatible(mut)
                pp = peiffer_product(mut, cap=cap)
                pp_sw = peiffer_product(mut.swapped(), cap=cap)
                sym = is_isomorphic(pp.product, pp_sw.product, cap=cap) is not None
                out.append(
                    FamilyRecord(
                        M.name or f"G{gi}",
                        N.name or f"G{gj}",
                        idx,
                        mut,
                        verdict,
                        pp,
                        sym,
                    )
                )
    return out


def census(max_pair_order: int, cap: int) -> list[dict]:
    """Plain rows summarising the enumerated family, for serialization."""
    if max_pair_order < 0:  # it would enumerate nothing and report an empty census
        raise GroupError(f"max order must be non-negative, got {max_pair_order}")
    rows = []
    for rec in enumerate_family(max_pair_order=max_pair_order, cap=cap):
        rows.append(
            {
                "M": rec.m_name,
                "N": rec.n_name,
                "pair_index": rec.index,
                "compatible": rec.verdict.compatible,
                "product_order": rec.pp.product.order,
                "semidirect_order": rec.mut.M.order * rec.mut.N.order,
                "induced_actions_defined": rec.pp.actions is not None,
                "pushout_symmetric": rec.symmetric_ok,
            }
        )
    return rows
