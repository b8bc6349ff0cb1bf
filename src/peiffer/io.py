"""JSON serialization for groups, actions, crossed modules and Lie data.

Groups are fully validated on load.  Rationals travel as "p/q" strings so
nothing is lost to floating point.
"""
from __future__ import annotations

import json

from .actions import Action, check_action_table
from .groups import FiniteGroup, GroupError, Hom
from .lie import ZERO, LieAction, LieAlgebra, LieCrossedModule, LieError, LieMap, vec
from .product import PeifferProduct
from .xmod import CrossedModule

MAX_LIE_DIM = 16  # bound on a loaded dim; b5 has dim 15, the benchmark's b3 dim 6


def int_entries(values, what: str, error=GroupError) -> tuple:
    """values as a tuple, refusing every entry that is not an int.

    int() would turn 1.7 into 1 and true into 1; both are refused, as are
    strings.
    """
    values = tuple(values)
    for v in values:
        if not isinstance(v, int) or isinstance(v, bool):
            raise error(f"{what}: {v!r} is not an integer")
    return values


def _nested(v, depth: int) -> bool:
    return isinstance(v, (list, tuple)) and (depth == 1 or all(_nested(x, depth - 1) for x in v))


def nested_lists(value, depth: int, field: str):
    """value, refused with a LieError that names field unless it is lists nested depth deep.

    The rational parser checks the entries at the bottom.
    """
    if not _nested(value, depth):
        raise LieError(f"{field} must be " + " of ".join(["a list"] + ["lists"] * (depth - 1)))
    return value


def order_mismatch(d: dict, table) -> bool:
    """d declares an order other than the int len(table); 2.0 and true are refused."""
    if "order" not in d:
        return False
    order = d["order"]
    return not isinstance(order, int) or isinstance(order, bool) or order != len(table)


def _given_or_inline(d: dict, key: str, given, load, noun: str, error):
    """The caller's `given`, or load(d[key]) when the caller gives nothing.

    Both categories load an action's acting and target this way.  An inline
    d[key] that disagrees with the supplied one is refused.
    """
    if given is None:
        if key not in d:
            raise error(f"no {key} {noun} given")
        return load(d[key])
    if key in d and load(d[key]) != given:
        raise error(f"inline {key} {noun} disagrees with the supplied one")
    return given


def group_to_dict(G: FiniteGroup) -> dict:
    d = {"order": G.order, "table": [list(row) for row in G.table]}
    if G.name:
        d["name"] = G.name
    return d


def group_from_dict(d: dict) -> FiniteGroup:
    if not isinstance(d, dict) or "table" not in d:
        raise GroupError("group data must be an object with a table")
    table = d["table"]
    if order_mismatch(d, table):
        raise GroupError("declared order does not match the table")
    return FiniteGroup(tuple(tuple(row) for row in table), name=d.get("name"), check=True)


def action_to_dict(a: Action) -> dict:
    return {
        "acting": group_to_dict(a.acting),
        "target": group_to_dict(a.target),
        "table": [list(row) for row in a.table],
    }


def action_from_dict(d: dict, acting: FiniteGroup | None = None,
                     target: FiniteGroup | None = None) -> Action:
    """Load an action; groups may come inline or be supplied by the caller."""
    if not isinstance(d, dict) or "table" not in d:
        raise GroupError("action data must be an object with a table")
    acting = _given_or_inline(d, "acting", acting, group_from_dict, "group", GroupError)
    target = _given_or_inline(d, "target", target, group_from_dict, "group", GroupError)
    table = tuple(int_entries(row, "action table") for row in d["table"])
    check_action_table(acting, target, table).expect("action axioms")
    return Action(acting, target, table, check=False)


def xmod_to_dict(xm: CrossedModule) -> dict:
    return {
        "boundary": list(xm.boundary.mapping),
        "action": {"table": [list(row) for row in xm.action.table]},
        "dom": group_to_dict(xm.X),
        "cod": group_to_dict(xm.A),
    }


def xmod_from_dict(d: dict) -> CrossedModule:
    if not isinstance(d, dict) or not {"boundary", "action", "dom", "cod"} <= set(d):
        raise GroupError("crossed module data needs boundary, action, dom, cod")
    dom = group_from_dict(d["dom"])
    cod = group_from_dict(d["cod"])
    boundary = Hom(dom, cod, int_entries(d["boundary"], "boundary"), check=True)
    action = action_from_dict(d["action"], acting=cod, target=dom)
    return CrossedModule(boundary, action, check=True)


def peiffer_to_dict(pp: PeifferProduct) -> dict:
    d = {
        "order": pp.product.order,
        "table": [list(row) for row in pp.product.table],
        "lM": list(pp.lM.mapping),
        "lN": list(pp.lN.mapping),
        "compatible": pp.compatible,
    }
    if pp.actions is not None:
        on_m, on_n = pp.actions
        d["actions"] = {
            "on_M": [list(row) for row in on_m.table],
            "on_N": [list(row) for row in on_n.table],
        }
    return d


def lie_to_dict(L: LieAlgebra) -> dict:
    entries = []
    for i in range(L.dim):
        for j in range(i + 1, L.dim):
            coeffs = L.brackets[i][j]
            if any(c != 0 for c in coeffs):
                entries.append({"i": i, "j": j, "coeffs": [str(c) for c in coeffs]})
    d = {"dim": L.dim, "brackets": entries}
    if L.name:
        d["name"] = L.name
    return d


def lie_from_dict(d: dict) -> LieAlgebra:
    if not isinstance(d, dict) or "dim" not in d:
        raise LieError("Lie data must be an object with a dim")
    (n,) = int_entries((d["dim"],), "dim", LieError)
    if n > MAX_LIE_DIM:
        raise LieError(f"dim {n} is above the limit of {MAX_LIE_DIM}")
    given = {}
    for entry in nested_lists(d.get("brackets", []), 1, "brackets"):
        if not isinstance(entry, dict) or not {"i", "j", "coeffs"} <= entry.keys():
            raise LieError("each brackets entry must be an object with i, j and coeffs")
        i, j = int_entries((entry["i"], entry["j"]), "bracket index", LieError)
        coeffs = vec(nested_lists(entry["coeffs"], 1, "coeffs"))
        if len(coeffs) != n or not (0 <= i < n and 0 <= j < n):
            raise LieError("bracket entry out of range")
        if (i, j) in given:
            raise LieError(f"bracket entry ({i}, {j}) is given twice")
        given[i, j] = coeffs
    brackets = [[(ZERO,) * n] * n for _ in range(n)]
    for (i, j), coeffs in given.items():
        brackets[i][j] = coeffs
        # fill the antisymmetric partner unless the file lists it itself; a
        # listed partner that is not the negative fails antisymmetry below
        if (j, i) not in given:
            brackets[j][i] = tuple(-c for c in coeffs)
    return LieAlgebra(n, brackets, name=d.get("name"))


def lie_action_to_dict(a: LieAction) -> dict:
    return {
        "acting": lie_to_dict(a.acting),
        "target": lie_to_dict(a.target),
        "rho": [[[str(x) for x in row] for row in m] for m in a.rho],
    }


def lie_action_from_dict(d: dict, acting: LieAlgebra | None = None,
                         target: LieAlgebra | None = None) -> LieAction:
    if not isinstance(d, dict) or "rho" not in d:
        raise LieError("Lie action data must be an object with rho")
    acting = _given_or_inline(d, "acting", acting, lie_from_dict, "algebra", LieError)
    target = _given_or_inline(d, "target", target, lie_from_dict, "algebra", LieError)
    return LieAction(acting, target, nested_lists(d["rho"], 3, "rho"))


def lie_xmod_to_dict(xm: LieCrossedModule) -> dict:
    return {
        "boundary": [[str(x) for x in row] for row in xm.boundary.matrix],
        "action": {"rho": [[[str(x) for x in row] for row in m] for m in xm.action.rho]},
        "dom": lie_to_dict(xm.X),
        "cod": lie_to_dict(xm.A),
    }


def lie_xmod_from_dict(d: dict) -> LieCrossedModule:
    if not isinstance(d, dict) or not {"boundary", "action", "dom", "cod"} <= set(d):
        raise LieError("Lie crossed module data needs boundary, action, dom, cod")
    dom = lie_from_dict(d["dom"])
    cod = lie_from_dict(d["cod"])
    # the crossed-module check starts with the hom check of the boundary
    boundary = LieMap(dom, cod, nested_lists(d["boundary"], 2, "boundary"), check=False)
    action = lie_action_from_dict(d["action"], acting=cod, target=dom)
    return LieCrossedModule(boundary, action, check=True)


def load_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def dump_json(data, path: str | None = None) -> str:
    text = json.dumps(data, indent=2, sort_keys=True)
    if path is not None:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    return text
