"""Pinned digests of every verdict, witness and built table over the family.

The group pipeline skips work whose result a theorem already gives: it hands
the identity and inverses of a semidirect product or quotient to the group it
builds, trusts the normality of a normal closure and the induced actions of a
compatible pair, and checks the strong relation on single letters.  None of
these may change a result.  The digests below were taken before those
shortcuts, over all 610 catalog pairs in both orientations, so every verdict
and every witness must still be the lexicographically first one.

To see the digests of the current tree:

    PYTHONPATH=src python tests/test_same_results.py
"""
import hashlib

from peiffer.compat import check_compatible
from peiffer.product import peiffer_product, peiffer_xmods, strong_relation_check, universal_map

PINNED = {
    "compat": "7baf244eed4f58dc",
    "product": "65665d78cfe1bad0",
    "semidirect": "4361666060ae14d1",
    "disagreement": "8dd5dc20795f8d13",
    "strong": "34691751e7070a8c",
    "induced": "d9cc870825c83f5e",
    "universal": "04e555b20296186e",
}
STRONG_BOUNDS = (0, 1, 2, 3)


def _digest(items) -> str:
    h = hashlib.sha256()
    for item in items:
        h.update(repr(item).encode())
        h.update(b"\n")
    return h.hexdigest()[:16]


def family_digests(family) -> dict:
    """One digest per kind of result, over each pair and its swap."""
    parts = {key: [] for key in PINNED}
    for rec in family:
        swapped = rec.mut.swapped()
        for mut, pp in ((rec.mut, rec.pp), (swapped, peiffer_product(swapped))):
            S, P = pp.semidirect.group, pp.product
            parts["compat"].append(check_compatible(mut))
            parts["product"].append((
                P.table, P.identity, P.inverses,
                pp.lM.mapping, pp.lN.mapping, pp.from_semidirect.mapping,
            ))
            parts["semidirect"].append((S.table, S.identity, S.inverses))
            parts["disagreement"].append(pp.disagreement)
            if not pp.compatible:
                continue
            parts["strong"].append(tuple(strong_relation_check(pp, b) for b in STRONG_BOUNDS))
            parts["induced"].append(tuple(act.table for act in pp.actions))
            parts["universal"].append(universal_map(pp, *peiffer_xmods(pp)).mapping)
    return {key: _digest(items) for key, items in parts.items()}


def test_family_results_match_the_pinned_digests(family):
    assert len(family) == 610
    assert family_digests(family) == PINNED


if __name__ == "__main__":
    from peiffer.catalog import enumerate_family

    for key, value in family_digests(enumerate_family()).items():
        print(f"    {key!r}: {value!r},")
