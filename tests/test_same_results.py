"""Pinned digests of every verdict, witness and built table over the family,
and of every Lie verb's output on b3, b4 and broken copies of them.

The group pipeline skips work whose result a theorem already gives: it hands
the identity and inverses of a semidirect product or quotient to the group it
builds, trusts the normality of a normal closure and the induced actions of a
compatible pair, and checks the strong relation on single letters.  None of
these may change a result.  The digests below were taken before those
shortcuts, over all 610 catalog pairs in both orientations, so every verdict
and every witness must still be the lexicographically first one.

The Lie digests pin the exit code and stdout of the nine lie-* verbs.  They
were taken while every Lie check still computed on Fractions, before the
checks moved to integer numerators over a common denominator.  Some were
re-recorded since, each for a change of report alone:

- "jacobi", when lie-validate took the report shape of validate: its
  lie-validate entry gives the reason and witness as separate keys, the
  residual in "p/q" strings;
- "jacobi", "compat-first", "compat-second", "xmod-hom", "xmod-equivariance"
  and "xmod-peiffer", when the error of a failed check that a loader raises
  began to write each rational of its witness as "p/q" (or "p"), as the
  reports do, where it wrote Fraction(p, q).  The compat cases also
  reach lie-peiffer-xmods, whose error became that of the groups:
  "induced action disagrees across a coset, witness=(side, row)".

To see the digests of the current tree:

    PYTHONPATH=src python tests/test_same_results.py
"""
import hashlib
import json
import re
from contextlib import redirect_stdout
from fractions import Fraction
from io import StringIO

import pytest

from lie_data import dense_b3, sparse_b3, upper_triangular
from peiffer.cli import main
from peiffer.compat import check_compatible
from peiffer.groups import Hom
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
                pp.lM.mapping, pp.lN.mapping, Hom(S, P, pp.proj).mapping,
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


# The Lie section.  Each case is a set of input files; a case that breaks one
# file runs only the verbs that read it.

PINNED_LIE = {
    "b3-sparse-0": "a52954716320ec62",
    "b3-dense-0": "4d2300379df3a8af",
    "b3-dense-1": "762f70c08856b1de",
    "b3-dense-2": "a6939c4a7f2ea1b6",
    "b3-dense-3": "242ef9413e67d7db",
    "b4": "e6776f328a98418c",
    "jacobi": "890265b34d19dff7",
    "action": "abb438b44cb9cc02",
    "compat-first": "f861db79f135fa91",
    "compat-second": "240757a20efffdfb",
    "xmod-hom": "e3f9f48ab995a7c4",
    "xmod-equivariance": "fc78e3210a096b5b",
    "xmod-peiffer": "88c4316ab0e12451",
}
LIE_VERBS = (
    ("lie-validate", ("L",)),
    ("lie-check-action", ("act",)),
    ("lie-check-compat", ("L", "L", "nm", "mn")),
    ("lie-semidirect", ("act",)),
    ("lie-peiffer", ("L", "L", "nm", "mn")),
    ("lie-xmod-check", ("xm",)),
    ("lie-induce-actions", ("xm", "xm")),
    ("lie-peiffer-xmods", ("L", "L", "nm", "mn")),
    ("lie-universal-map", ("L", "L", "nm", "mn", "xm", "xm")),
)
# the reason each broken case must report, from the verb that checks it
BROKEN = {
    "jacobi": ("lie-validate", "Jacobi fails"),
    "action": ("lie-check-action", "rho is not a Lie homomorphism"),
    "compat-first": ("lie-check-compat", "first equation fails"),
    "compat-second": ("lie-check-compat", "second equation fails"),
    "xmod-hom": ("lie-xmod-check", "bracket not preserved"),
    "xmod-equivariance": ("lie-xmod-check", "boundary is not equivariant"),
    "xmod-peiffer": ("lie-xmod-check", "Peiffer identity fails"),
}


def _rational(x) -> str:
    return str(Fraction(x))


def lie_files(brackets, rho=None, boundary=None, xm_rho=None, nm=None, mn=None) -> dict:
    """The input files of the adjoint pair on brackets, with any file replaced.

    rho is the action of lie-check-action and lie-semidirect; nm and mn the
    pair's actions; boundary and xm_rho the crossed module's.  Each defaults
    to the adjoint action or the identity map.
    """
    n = len(brackets)
    L = {
        "dim": n,
        "brackets": [
            {"i": i, "j": j, "coeffs": [_rational(c) for c in brackets[i][j]]}
            for i in range(n) for j in range(i + 1, n) if any(brackets[i][j])
        ],
    }
    ad = [[[brackets[a][j][i] for j in range(n)] for i in range(n)] for a in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]

    def matrices(ms):
        return [[[_rational(x) for x in row] for row in m] for m in (ad if ms is None else ms)]

    return {
        "L": L,
        "act": {"acting": L, "target": L, "rho": matrices(rho)},
        "nm": {"rho": matrices(nm)},
        "mn": {"rho": matrices(mn)},
        "xm": {
            "boundary": [[_rational(x) for x in row] for row in (boundary or ident)],
            "action": {"rho": matrices(xm_rho)},
            "dom": L,
            "cod": L,
        },
    }


def _nudged(ms, k, i, j, by):
    out = [[list(row) for row in m] for m in ms]
    out[k][i][j] += by
    return out


def lie_cases() -> dict:
    """Case name -> (files, the names of the files the case changes, or None for all)."""
    cases = {"b3-sparse-0": (lie_files(sparse_b3(0)), None)}
    for seed in range(4):
        cases[f"b3-dense-{seed}"] = (lie_files(dense_b3(seed)), None)
    cases["b4"] = (lie_files(upper_triangular(4)), None)
    B = dense_b3(0)  # the base of every broken case
    n = len(B)
    ad = [[[B[a][j][i] for j in range(n)] for i in range(n)] for a in range(n)]
    zero = [[[0] * n for _ in range(n)] for _ in range(n)]
    ident = [[int(i == j) for j in range(n)] for i in range(n)]
    jacobi = [[list(v) for v in row] for row in B]
    jacobi[0][1][2] += Fraction(1, 7)
    jacobi[1][0][2] -= Fraction(1, 7)
    cases["jacobi"] = (lie_files(jacobi), None)
    cases["action"] = (lie_files(B, rho=_nudged(ad, 0, 0, 1, Fraction(1, 5))), {"act"})
    cases["compat-first"] = (lie_files(B, mn=zero), {"nm", "mn"})
    cases["compat-second"] = (lie_files(B, nm=zero), {"nm", "mn"})
    cases["xmod-hom"] = (lie_files(B, boundary=_nudged([ident], 0, 1, 2, Fraction(1, 3))[0]), {"xm"})
    cases["xmod-equivariance"] = (lie_files(B, xm_rho=zero), {"xm"})
    cases["xmod-peiffer"] = (lie_files(B, boundary=[[0] * n for _ in range(n)]), {"xm"})
    return cases


def run_lie_case(files, changed, workdir) -> dict:
    """verb -> (exit code, stdout) for each verb that reads a changed file."""
    paths = {}
    for name, data in files.items():
        paths[name] = str(workdir / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(data, fh)
    out = {}
    for verb, args in LIE_VERBS:
        if changed is None or changed & set(args):
            buf = StringIO()
            with redirect_stdout(buf):
                code = main([verb, *(paths[a] for a in args)])
            out[verb] = (code, buf.getvalue())
    return out


def lie_outputs_in(workdir) -> dict:
    return {name: run_lie_case(files, changed, workdir) for name, (files, changed) in lie_cases().items()}


def lie_digests(outputs) -> dict:
    return {name: _digest(sorted(out.items())) for name, out in outputs.items()}


@pytest.fixture(scope="module")
def lie_outputs(tmp_path_factory):
    return lie_outputs_in(tmp_path_factory.mktemp("lie"))


def test_lie_outputs_match_the_pinned_digests(lie_outputs):
    assert lie_digests(lie_outputs) == PINNED_LIE


@pytest.mark.parametrize("case", sorted(BROKEN))
def test_broken_lie_case_fails_where_it_is_broken(lie_outputs, case):
    # each witness residual is a rational with a denominator above 1
    verb, reason = BROKEN[case]
    code, text = lie_outputs[case][verb]
    report = json.loads(text)
    assert reason in report["reason"] and code in (1, 2)
    if case != "action":
        denominators = re.findall(r"Fraction\(-?[0-9]+, ([0-9]+)\)", text) + re.findall(r'"-?[0-9]+/([0-9]+)"', text)
        assert any(int(d) > 1 for d in denominators)


if __name__ == "__main__":
    import tempfile
    from pathlib import Path

    from peiffer.catalog import enumerate_family

    for key, value in family_digests(enumerate_family()).items():
        print(f"    {key!r}: {value!r},")
    with tempfile.TemporaryDirectory() as tmp:
        for key, value in lie_digests(lie_outputs_in(Path(tmp))).items():
            print(f"    {key!r}: {value!r},")
