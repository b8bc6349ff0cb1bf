"""Batch command-line front door: load JSON inputs, run one operation,
print a deterministic JSON report.  Each verb takes --out and only the
other options it reads: the third element of its VERBS entry.

Exit codes: 0 success (or property true), 1 property false (report carries
the witness), 2 invalid input, cap exceeded, or failed precondition.
"""
from __future__ import annotations

import argparse
import sys
from functools import cache

from . import io as pio
from .actions import DEFAULT_SEMIDIRECT_CAP, semidirect
from .catalog import census
from .compat import MutualActions, check_compatible
from .groups import GroupError
from .lie import (
    LieError,
    lie_compatible,
    lie_peiffer,
    lie_induced_actions,
    lie_semidirect,
    lie_universal_map,
)
from .product import (
    peiffer_product,
    peiffer_xmods,
    strong_relation_check,
    universal_map,
)
from .xmod import induced_mutual_actions


def _verdict(key, diag, fail_code=1):
    """The report {key: ok} with the reason and any witness of a failure, and its exit code."""
    report = {key: diag.ok}
    if not diag.ok:
        report["reason"] = diag.reason
        if diag.witness is not None:
            report["witness"] = diag.witness
    return report, 0 if diag.ok else fail_code


def _check(arg, parse, fail_code=1):
    """A check verb on the file arg: the Diagnosis of its parse step, as a verdict."""
    def run(args):
        return _verdict("valid", parse(pio.load_json(getattr(args, arg)))[1], fail_code)
    return (arg,), run


def _pair(args, names, load, load_action) -> MutualActions:
    """The mutual actions that args names; a path named twice is loaded once."""
    m, n, nm, mn = (getattr(args, name) for name in names)
    M = load(pio.load_json(m))
    N = M if n == m else load(pio.load_json(n))
    act_nm = load_action(pio.load_json(nm), acting=N, target=M)
    if mn == nm and M is N:
        return MutualActions(act_nm, act_nm)
    return MutualActions(act_nm, load_action(pio.load_json(mn), acting=M, target=N))


def _group_pair(args) -> MutualActions:
    return _pair(args, GROUP_PAIR, pio.group_from_dict, pio.action_from_dict)


def _lie_pair(args) -> MutualActions:
    return _pair(args, LIE_PAIR, pio.lie_from_dict, pio.lie_action_from_dict)


def _xmod_pair(args, load):
    xm_m = load(pio.load_json(args.xm_m))
    return xm_m, (xm_m if args.xm_n == args.xm_m else load(pio.load_json(args.xm_n)))


def _product(args):
    return peiffer_product(_group_pair(args), cap=args.semidirect_cap)


def _on_sides(xmods, to_dict) -> dict:
    return {"on_M": to_dict(xmods[0]), "on_N": to_dict(xmods[1])}


def _check_compat(args):
    verdict = check_compatible(_group_pair(args))
    report = {"compatible": verdict.compatible}
    if verdict.witness is not None:
        report["witness"] = verdict.witness
    return report, 0 if verdict.compatible else 1


def _semidirect(args):
    sd = semidirect(pio.action_from_dict(pio.load_json(args.action)), cap=args.semidirect_cap)
    report = {
        "group": pio.group_to_dict(sd.group),
        "jX": sd.jX.mapping,
        "jA": sd.jA.mapping,
        "pi": sd.pi.mapping,
    }
    return report, 0


def _universal_map(args):
    pp = _product(args)
    h = universal_map(pp, *_xmod_pair(args, pio.xmod_from_dict))
    return {"order": pp.product.order, "mapping": h.mapping}, 0


def _induce_actions(args):
    mut = induced_mutual_actions(*_xmod_pair(args, pio.xmod_from_dict))
    return {"xi_nm": {"table": mut.xi_nm.table}, "xi_mn": {"table": mut.xi_mn.table}}, 0


def _lie_semidirect(args):
    S = lie_semidirect(pio.lie_action_from_dict(pio.load_json(args.action)))
    return {"algebra": pio.lie_to_dict(S)}, 0


def _lie_peiffer(args):
    pp = lie_peiffer(_lie_pair(args))
    return {"algebra": pio.lie_to_dict(pp.product), "l_m": pp.lM.matrix, "l_n": pp.lN.matrix}, 0


def _lie_induce_actions(args):
    mut = lie_induced_actions(*_xmod_pair(args, pio.lie_xmod_from_dict))
    return {"rho_nm": {"rho": mut.xi_nm.rho}, "rho_mn": {"rho": mut.xi_mn.rho}}, 0


def _lie_universal_map(args):
    pp = lie_peiffer(_lie_pair(args))
    h = lie_universal_map(pp, *_xmod_pair(args, pio.lie_xmod_from_dict))
    return {"matrix": h.matrix}, 0


GROUP_PAIR = ("m", "n", "xi_nm", "xi_mn")
LIE_PAIR = ("m", "n", "rho_nm", "rho_mn")
XMOD_PAIR = ("xm_m", "xm_n")

CAP = {"--semidirect-cap": {"type": int, "default": DEFAULT_SEMIDIRECT_CAP}}
WORD_BOUND = {"--strong-word-bound": {"type": int, "default": 2, "help": "longest word compared, "
              "at least 0; every bound >= 1 gives the same verdict and witness (default 2)"}}

# verb -> (positional arguments, run[, options]); run(args) returns (report, exit code)
# and options maps each flag besides --out that run reads to its add_argument keywords
VERBS = {
    "validate": _check("group", pio.parse_group, fail_code=2),
    "check-action": _check("action", pio.parse_action),
    "check-compat": (GROUP_PAIR, _check_compat),
    "semidirect": (("action",), _semidirect, CAP),
    "peiffer": (GROUP_PAIR, lambda args: (pio.peiffer_to_dict(_product(args)), 0), CAP),
    "strong-check": (GROUP_PAIR, lambda args: _verdict(
        "ok", strong_relation_check(_product(args), bound=args.strong_word_bound)), CAP | WORD_BOUND),
    "peiffer-xmods": (GROUP_PAIR, lambda args: (
        _on_sides(peiffer_xmods(_product(args)), pio.xmod_to_dict), 0), CAP),
    "universal-map": (GROUP_PAIR + XMOD_PAIR, _universal_map, CAP),
    "xmod-check": _check("xmod", pio.parse_xmod),
    "induce-actions": (XMOD_PAIR, _induce_actions),
    "enumerate": ((), lambda args: ({"rows": census(args.max_order, args.semidirect_cap)}, 0),
                  CAP | {"--max-order": {"type": int, "default": 12}}),
    "lie-validate": _check("algebra", pio.parse_lie, fail_code=2),
    "lie-check-action": _check("action", pio.parse_lie_action),
    "lie-check-compat": (LIE_PAIR, lambda args: _verdict(
        "compatible", lie_compatible(_lie_pair(args)))),
    "lie-semidirect": (("action",), _lie_semidirect),
    "lie-peiffer": (LIE_PAIR, _lie_peiffer),
    "lie-xmod-check": _check("xmod", pio.parse_lie_xmod),
    "lie-induce-actions": (XMOD_PAIR, _lie_induce_actions),
    "lie-peiffer-xmods": (LIE_PAIR, lambda args: (
        _on_sides(peiffer_xmods(lie_peiffer(_lie_pair(args))), pio.lie_xmod_to_dict), 0)),
    "lie-universal-map": (LIE_PAIR + XMOD_PAIR, _lie_universal_map),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of the process, built on the first main call; callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="peiffer",
        description="Compatible actions, Peiffer products and crossed modules",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    for verb, (positional, _, *options) in VERBS.items():
        p = sub.add_parser(verb)
        p.add_argument("--out", default=None, help="also write the report to this path")
        for arg in positional:
            p.add_argument(arg)
        for flag, kwargs in dict(*options).items():  # options is [] or [the verb's table]
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = VERBS[args.verb][1](args)
        print(pio.dump_json(report, args.out))
        return code
    except (GroupError, LieError) as exc:
        error = str(exc)
    except (OSError, KeyError, RecursionError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        error = f"{type(exc).__name__}: {exc}"
    print(pio.dump_json({"error": error}))
    return 2


if __name__ == "__main__":
    sys.exit(main())
