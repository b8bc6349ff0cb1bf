"""JSON serialization for groups, actions, crossed modules and Lie data.

Every input is checked here, on load; the constructors trust their input.
Each input kind (a group or a Lie algebra, and an action or a crossed module
of either) has one parse step, parse_*, that refuses a malformed shape, loads
the parts and returns the object with the Diagnosis of its axioms: the
loader raises a failed one, the check verb reports it.  Rationals travel as
"p/q" strings so nothing is lost to floating point; this module alone reads
and writes them.
"""
from __future__ import annotations

import contextlib
import json
import re
import reprlib
import sys
from dataclasses import asdict, is_dataclass
from fractions import Fraction
from functools import lru_cache
from json.encoder import encode_basestring_ascii

from .actions import Action, check_action_table
from .groups import VALID, Diagnosis, FiniteGroup, GroupError, Hom, _axioms, _built_group
from .lie import ZERO, LieAction, LieAlgebra, LieError, LieMap, check_lie_action, check_lie_xmod, validate_lie
from .product import PeifferProduct
from .xmod import CrossedModule, check_xmod

MAX_LIE_DIM = 16  # bound on a loaded dim; b5 has dim 15, the benchmark's b3 dim 6
# "p" or "p/q" in decimal digits with an optional sign.  Fraction() would also
# take "1e200000" (a 200,001-digit integer), "0.5", "1_0" and " 1 "; the digit
# bound is CPython's default limit on int() of a string.
_RATIONAL = re.compile(r"([+-]?[0-9]{1,4300})(?:/([0-9]{1,4300}))?")


# A string _short_rational memoises is at most this long, so neither part
# has more digits than the lowest limit sys.set_int_max_str_digits accepts:
# no setting of that limit changes what a memoised string parses to.
_MEMO_CHARS = sys.int_info.str_digits_check_threshold


def _rational(v) -> Fraction:
    """v as a Fraction, built from the digits the grammar has matched; every zero is ZERO."""
    p = q = 0
    if isinstance(v, int) and not isinstance(v, bool):
        p, q = v, 1
    elif isinstance(v, str) and (m := _RATIONAL.fullmatch(v)):
        with contextlib.suppress(ValueError):  # past a lowered int() digit limit
            p, q = int(m[1]), int(m[2] or 1)
    if not q:  # "1/0", "0/0" and everything refused above
        raise LieError(f"not an exact rational: {reprlib.repr(v)}")
    return Fraction(p, q) if p else ZERO


# a file repeats a few strings, such as "0" and "1", many times; lru_cache
# keeps no exception, so a refused string is refused each time it is read
_short_rational = lru_cache(maxsize=4096)(_rational)


def _frac(v) -> Fraction:
    if type(v) is str and len(v) <= _MEMO_CHARS:  # only strings: True == 1 would share 1's key
        return _short_rational(v)
    return v if isinstance(v, Fraction) else _rational(v)


def vec(values) -> tuple:
    return tuple(map(_frac, values))


def mat(rows) -> tuple:
    return tuple(vec(r) for r in rows)


def int_entries(values, what: str, error=GroupError) -> tuple:
    """values as a tuple, refusing every entry that is not an int.

    int() would turn 1.7 into 1 and true into 1; both are refused, as are
    strings.
    """
    values = tuple(values)
    for k, v in enumerate(values):
        if not isinstance(v, int) or isinstance(v, bool):
            raise error(f"{what}: {reprlib.repr(v)} at index {k} is not an integer")
    return values


def _nested(v, depth: int) -> bool:
    return isinstance(v, (list, tuple)) and (depth == 1 or all(_nested(x, depth - 1) for x in v))


def nested_lists(value, depth: int, field: str, error=LieError):
    """value, refused with an error that names field unless it is lists nested depth deep.

    The entries at the bottom are checked by the caller.
    """
    if not _nested(value, depth):
        raise error(f"{field} must be " + " of ".join(["a list"] + ["lists"] * (depth - 1)))
    return value


def _checked(found: tuple, what: str, error=GroupError):
    """The object of a parse step's (object, Diagnosis), raising when the Diagnosis fails."""
    obj, diag = found
    diag.expect(what, error)
    return obj


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


def _name(d: dict, error):
    """d's name: a string, or None when d has none; any other JSON value is refused."""
    name = d.get("name")
    if name is not None and not isinstance(name, str):
        raise error("name must be a string or null")
    return name


def group_to_dict(G: FiniteGroup) -> dict:
    d = {"order": G.order, "table": [list(row) for row in G.table]}
    if G.name:
        d["name"] = G.name
    return d


def parse_group(d) -> tuple[FiniteGroup | None, Diagnosis]:
    """The group d describes, or None when its table fails, and the Diagnosis of the table.

    The one validating pass also finds the identity and the inverses, so a
    loaded table is searched once.
    """
    if not isinstance(d, dict) or "table" not in d:
        raise GroupError("group data must be an object with a table")
    table = tuple(map(tuple, nested_lists(d["table"], 2, "table", GroupError)))
    found = _axioms(table, check=True)
    if isinstance(found, Diagnosis):
        return None, found
    # a declared order must be the int len(table); 2.0 and true are refused
    order = d.get("order", len(table))
    if not isinstance(order, int) or isinstance(order, bool) or order != len(table):
        return None, Diagnosis(False, "declared order does not match the table")
    return _built_group(table, *found, name=_name(d, GroupError)), VALID


def group_from_dict(d) -> FiniteGroup:
    return _checked(parse_group(d), "group axioms")


def action_to_dict(a: Action) -> dict:
    return {
        "acting": group_to_dict(a.acting),
        "target": group_to_dict(a.target),
        "table": [list(row) for row in a.table],
    }


def parse_action(d, acting: FiniteGroup | None = None,
                 target: FiniteGroup | None = None) -> tuple[Action, Diagnosis]:
    """The action d describes, and its Diagnosis; groups may come inline or from the caller."""
    if not isinstance(d, dict) or "table" not in d:
        raise GroupError("action data must be an object with a table")
    acting = _given_or_inline(d, "acting", acting, group_from_dict, "group", GroupError)
    target = _given_or_inline(d, "target", target, group_from_dict, "group", GroupError)
    rows = nested_lists(d["table"], 2, "table", GroupError)
    table = tuple(int_entries(row, f"action table row {i}") for i, row in enumerate(rows))
    return Action(acting, target, table), check_action_table(acting, target, table)


def action_from_dict(d, acting: FiniteGroup | None = None,
                     target: FiniteGroup | None = None) -> Action:
    return _checked(parse_action(d, acting, target), "action axioms")


def xmod_to_dict(xm: CrossedModule) -> dict:
    return {
        "boundary": list(xm.boundary.mapping),
        "action": {"table": [list(row) for row in xm.action.table]},
        "dom": group_to_dict(xm.X),
        "cod": group_to_dict(xm.A),
    }


def parse_xmod(d) -> tuple[CrossedModule, Diagnosis]:
    """The crossed module d describes, with its action checked, and its Diagnosis.

    A failed hom check of the boundary is the Diagnosis, as in check_lie_xmod.
    """
    if not isinstance(d, dict) or not {"boundary", "action", "dom", "cod"} <= set(d):
        raise GroupError("crossed module data needs boundary, action, dom, cod")
    dom = group_from_dict(d["dom"])
    cod = dom if d["cod"] == d["dom"] else group_from_dict(d["cod"])
    mapping = nested_lists(d["boundary"], 1, "boundary", GroupError)
    boundary = Hom(dom, cod, int_entries(mapping, "boundary"))
    xm = CrossedModule(boundary, action_from_dict(d["action"], acting=cod, target=dom))
    hom = boundary.check()
    return xm, check_xmod(xm) if hom.ok else hom


def xmod_from_dict(d) -> CrossedModule:
    return _checked(parse_xmod(d), "crossed module axioms")


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
            if any(coeffs):
                entries.append({"i": i, "j": j, "coeffs": [str(c) for c in coeffs]})
    d = {"dim": L.dim, "brackets": entries}
    if L.name:
        d["name"] = L.name
    return d


def parse_lie(d) -> tuple[LieAlgebra, Diagnosis]:
    """The Lie algebra d describes, and the Diagnosis of its axioms."""
    if not isinstance(d, dict) or "dim" not in d:
        raise LieError("Lie data must be an object with a dim")
    (n,) = int_entries((d["dim"],), "dim", LieError)
    if n < 0:
        raise LieError(f"dim {n} is negative")
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
            brackets[j][i] = tuple(-c if c else c for c in coeffs)
    L = LieAlgebra(n, tuple(map(tuple, brackets)), name=_name(d, LieError))
    return L, validate_lie(L)


def lie_from_dict(d) -> LieAlgebra:
    return _checked(parse_lie(d), "Lie axioms", LieError)


def lie_action_to_dict(a: LieAction) -> dict:
    return {
        "acting": lie_to_dict(a.acting),
        "target": lie_to_dict(a.target),
        "rho": [[[str(x) for x in row] for row in m] for m in a.rho],
    }


def parse_lie_action(d, acting: LieAlgebra | None = None,
                     target: LieAlgebra | None = None) -> tuple[LieAction, Diagnosis]:
    """The Lie action d describes, and its Diagnosis; algebras may come inline or from the caller."""
    if not isinstance(d, dict) or "rho" not in d:
        raise LieError("Lie action data must be an object with rho")
    acting = _given_or_inline(d, "acting", acting, lie_from_dict, "algebra", LieError)
    target = _given_or_inline(d, "target", target, lie_from_dict, "algebra", LieError)
    act = LieAction(acting, target, tuple(map(mat, nested_lists(d["rho"], 3, "rho"))))
    return act, check_lie_action(act)


def lie_action_from_dict(d, acting: LieAlgebra | None = None,
                         target: LieAlgebra | None = None) -> LieAction:
    return _checked(parse_lie_action(d, acting, target), "Lie action axioms", LieError)


def lie_xmod_to_dict(xm: CrossedModule) -> dict:
    return {
        "boundary": [[str(x) for x in row] for row in xm.boundary.matrix],
        "action": {"rho": [[[str(x) for x in row] for row in m] for m in xm.action.rho]},
        "dom": lie_to_dict(xm.X),
        "cod": lie_to_dict(xm.A),
    }


def parse_lie_xmod(d) -> tuple[CrossedModule, Diagnosis]:
    """The Lie crossed module d describes, with its action checked, and its Diagnosis.

    The crossed-module check starts with the hom check of the boundary.
    """
    if not isinstance(d, dict) or not {"boundary", "action", "dom", "cod"} <= set(d):
        raise LieError("Lie crossed module data needs boundary, action, dom, cod")
    dom = lie_from_dict(d["dom"])
    cod = dom if d["cod"] == d["dom"] else lie_from_dict(d["cod"])
    boundary = LieMap(dom, cod, mat(nested_lists(d["boundary"], 2, "boundary")))
    xm = CrossedModule(boundary, lie_action_from_dict(d["action"], acting=cod, target=dom))
    return xm, check_lie_xmod(xm)


def lie_xmod_from_dict(d) -> CrossedModule:
    return _checked(parse_lie_xmod(d), "Lie crossed module axioms", LieError)


def load_json(path: str):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _encode(v):
    """The JSON form of a value json cannot write: a Fraction as "p/q", a dataclass as its fields."""
    if isinstance(v, Fraction):
        return str(v)
    if is_dataclass(v) and not isinstance(v, type):
        return asdict(v)
    raise TypeError(f"Object of type {type(v).__name__} is not JSON serializable")


def _write(v, out: list, indent: str) -> None:
    """Append json.dumps(v, indent=2, sort_keys=True, default=_encode) to out, in pieces.

    indent is that of v's own line.  A plain int, string or Fraction goes
    through the C-backed call json makes for it, and a list of one of these
    kinds through one join of those calls; json.dumps with indent=2 would
    send every value through json's Python encoder.  A dict key that is not
    a string raises TypeError.
    """
    leaf = _LEAF.get(type(v))
    if leaf is not None:
        out.append(leaf(v))
    elif isinstance(v, (list, tuple, dict)) and not v:
        out.append("{}" if isinstance(v, dict) else "[]")
    elif isinstance(v, dict):
        inner = indent + "  "
        sep = "{\n" + inner
        for key, x in sorted(v.items()):
            out += (sep, encode_basestring_ascii(key), ": ")
            _write(x, out, inner)
            sep = ",\n" + inner
        out += ("\n", indent, "}")
    elif isinstance(v, (list, tuple)):
        inner = indent + "  "
        kinds = set(map(type, v))
        leaf = _LEAF.get(kinds.pop()) if len(kinds) == 1 else None
        if leaf is not None:
            out += ("[\n", inner, (",\n" + inner).join(map(leaf, v)), "\n", indent, "]")
            return
        sep = "[\n" + inner
        for x in v:
            out.append(sep)
            _write(x, out, inner)
            sep = ",\n" + inner
        out += ("\n", indent, "]")
    elif isinstance(v, (str, int, float)) or v is None:
        out.append(json.dumps(v))
    else:
        _write(_encode(v), out, indent)


# bool is not int here: type(True) is bool
_LEAF = {int: int.__repr__, str: encode_basestring_ascii, Fraction: lambda q: encode_basestring_ascii(_encode(q))}


def dump_json(data, path: str | None = None) -> str:
    out = []
    _write(data, out, "")
    text = "".join(out)
    if path is not None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    return text
