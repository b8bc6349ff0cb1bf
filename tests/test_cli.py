import hashlib
import json
import os
import re
import subprocess
import sys
import tempfile
import time
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest

from peiffer import io as pio
from peiffer.actions import (
    DEFAULT_SEMIDIRECT_CAP, Action, check_action_table, conjugation_action, trivial_action,
)
from peiffer.catalog import cyclic, symmetric_3
from peiffer.cli import VERBS, build_parser, main
from peiffer.groups import Hom
from peiffer.io import MAX_LIE_DIM
from peiffer.lie import (
    LieAction, LieAlgebra, LieMap, check_lie_action, check_lie_xmod,
)
from peiffer.xmod import CrossedModule, check_xmod

from constructions import identity_xmod, inclusion_xmod, subgroup_group
from lie_data import identity_lie_map, mats, trivial_lie_action

S3 = symmetric_3()
Z2 = cyclic(2)
Z3 = cyclic(3)


def write(tmp_path, name, data):
    path = tmp_path / name
    path.write_text(json.dumps(data))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out)


@pytest.fixture
def trivial_pair(tmp_path):
    return (
        write(tmp_path, "m.json", pio.group_to_dict(S3)),
        write(tmp_path, "n.json", pio.group_to_dict(Z2)),
        write(tmp_path, "xi_nm.json", pio.action_to_dict(trivial_action(Z2, S3))),
        write(tmp_path, "xi_mn.json", pio.action_to_dict(trivial_action(S3, Z2))),
    )


@pytest.fixture
def incompatible_pair(tmp_path):
    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    xi_nm = Action(Z2, S3, (tuple(range(6)), tuple(S3.conj(t, x) for x in range(6))))
    return (
        write(tmp_path, "m.json", pio.group_to_dict(S3)),
        write(tmp_path, "n.json", pio.group_to_dict(Z2)),
        write(tmp_path, "xi_nm.json", pio.action_to_dict(xi_nm)),
        write(tmp_path, "xi_mn.json", pio.action_to_dict(trivial_action(S3, Z2))),
    )


def test_validate_good_group(tmp_path, capsys):
    path = write(tmp_path, "g.json", pio.group_to_dict(S3))
    code, report = run(capsys, "validate", path)
    assert code == 0 and report == {"valid": True}


def test_validate_broken_group(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"order": 2, "table": [[0, 1], [1, 1]]})
    code, report = run(capsys, "validate", path)
    assert code == 2
    assert report["valid"] is False
    assert report["reason"] == "no inverse for element 1"
    assert report["witness"] == [1]


@pytest.mark.parametrize("d", [{"order": True, "table": [[0]]}, {"order": 2.0, "table": [[0, 1], [1, 0]]}])
def test_validate_refuses_non_integer_order(tmp_path, capsys, d):
    code, report = run(capsys, "validate", write(tmp_path, "g.json", d))
    assert code == 2
    assert report == {"valid": False, "reason": "declared order does not match the table"}


def test_validate_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    code, report = run(capsys, "validate", str(path))
    assert code == 2 and "error" in report


def test_check_action(tmp_path, capsys):
    good = write(tmp_path, "a.json", pio.action_to_dict(conjugation_action(S3)))
    code, report = run(capsys, "check-action", good)
    assert code == 0 and report["valid"] is True
    bad_dict = pio.action_to_dict(conjugation_action(S3))
    bad_dict["table"][0] = list(range(1, 6)) + [0]
    bad = write(tmp_path, "b.json", bad_dict)
    code, report = run(capsys, "check-action", bad)
    assert code == 1 and report["valid"] is False and "witness" in report


def test_check_compat_trivial(trivial_pair, capsys):
    code, report = run(capsys, "check-compat", *trivial_pair)
    assert code == 0 and report == {"compatible": True}


def test_check_compat_incompatible(incompatible_pair, capsys):
    code, report = run(capsys, "check-compat", *incompatible_pair)
    assert code == 1
    assert report["compatible"] is False
    assert report["witness"]["lhs"] != report["witness"]["rhs"]


def test_semidirect_reloads(tmp_path, capsys):
    path = write(tmp_path, "a.json", pio.action_to_dict(trivial_action(Z2, Z3)))
    code, report = run(capsys, "semidirect", path)
    assert code == 0
    # emitted table re-validates on reload
    G = pio.group_from_dict(report["group"])
    assert G.order == 6


def test_semidirect_cap(tmp_path, capsys):
    path = write(tmp_path, "a.json", pio.action_to_dict(trivial_action(Z2, S3)))
    code, report = run(capsys, "semidirect", path, "--semidirect-cap", "4")
    assert code == 2 and "cap exceeded" in report["error"]


def test_peiffer_compatible(trivial_pair, capsys):
    code, report = run(capsys, "peiffer", *trivial_pair)
    assert code == 0
    assert report["compatible"] is True
    assert report["order"] == 12
    assert pio.group_from_dict({"table": report["table"]}).order == 12


def test_peiffer_incompatible_still_constructs(incompatible_pair, capsys):
    code, report = run(capsys, "peiffer", *incompatible_pair)
    assert code == 0
    assert report["compatible"] is False
    assert "actions" not in report
    assert report["order"] >= 1


def test_strong_check(trivial_pair, capsys):
    code, report = run(capsys, "strong-check", *trivial_pair)
    assert code == 0 and report["ok"] is True
    code, _ = run(capsys, "strong-check", *trivial_pair, "--strong-word-bound", "3")
    assert code == 0


def test_strong_check_incompatible_is_precondition_error(incompatible_pair, capsys):
    code, report = run(capsys, "strong-check", *incompatible_pair)
    assert code == 2 and "error" in report


def test_strong_check_negative_bound_is_input_error(trivial_pair, capsys):
    # a negative bound checks no word at all, so it must not report ok
    code, report = run(capsys, "strong-check", *trivial_pair, "--strong-word-bound", "-3")
    assert code == 2
    assert report == {"error": "strong word bound must be non-negative, got -3"}


def test_peiffer_xmods(trivial_pair, capsys):
    code, report = run(capsys, "peiffer-xmods", *trivial_pair)
    assert code == 0
    xm = pio.xmod_from_dict(report["on_M"])
    assert check_xmod(xm).ok


def test_xmod_check(tmp_path, capsys):
    good = write(tmp_path, "xm.json", pio.xmod_to_dict(identity_xmod(S3)))
    code, report = run(capsys, "xmod-check", good)
    assert code == 0 and report["valid"] is True
    bad_data = pio.xmod_to_dict(identity_xmod(S3))
    bad_data["action"] = {"table": [list(range(6))] * 6}  # trivial action
    bad = write(tmp_path, "xm_bad.json", bad_data)
    code, report = run(capsys, "xmod-check", bad)
    assert code == 1 and report["valid"] is False


def test_xmod_check_refuses_a_disagreeing_inline_acting_group(tmp_path, capsys):
    data = pio.xmod_to_dict(identity_xmod(S3))
    data["action"]["acting"] = pio.group_to_dict(cyclic(6))
    code, report = run(capsys, "xmod-check", write(tmp_path, "xm.json", data))
    assert code == 2 and report == {"error": "inline acting group disagrees with the supplied one"}


def test_induce_actions_and_universal_map(tmp_path, capsys):
    A3 = [x for x in S3.elements() if S3.element_order(x) in (1, 3)]
    _, incl = subgroup_group(S3, A3)
    xm_m = inclusion_xmod(S3, incl)
    xm_n = identity_xmod(S3)
    fm = write(tmp_path, "xm_m.json", pio.xmod_to_dict(xm_m))
    fn = write(tmp_path, "xm_n.json", pio.xmod_to_dict(xm_n))
    code, report = run(capsys, "induce-actions", fm, fn)
    assert code == 0
    m = write(tmp_path, "m.json", pio.group_to_dict(xm_m.X))
    n = write(tmp_path, "n.json", pio.group_to_dict(S3))
    xi_nm = write(tmp_path, "xi_nm.json", {"table": report["xi_nm"]["table"]})
    xi_mn = write(tmp_path, "xi_mn.json", {"table": report["xi_mn"]["table"]})
    code, report = run(capsys, "universal-map", m, n, xi_nm, xi_mn, fm, fn)
    assert code == 0
    assert sorted(set(report["mapping"])) == list(range(6))


def test_enumerate_small(capsys):
    code, report = run(capsys, "enumerate", "--max-order", "4")
    assert code == 0
    rows = report["rows"]
    assert rows[0]["M"] == "Z2" and rows[0]["N"] == "Z2"
    assert rows[0]["compatible"] and rows[0]["product_order"] == 4


def test_enumerate_negative_max_order_is_input_error(capsys):
    # no pair has a negative order, so the census would be empty and exit 0
    code, report = run(capsys, "enumerate", "--max-order", "-3")
    assert code == 2
    assert report == {"error": "max order must be non-negative, got -3"}


def test_enumerate_deterministic(capsys):
    _, r1 = run(capsys, "enumerate", "--max-order", "6")
    _, r2 = run(capsys, "enumerate", "--max-order", "6")
    assert r1 == r2


def test_enumerate_census_stdout_is_pinned(capsys):
    # every pushout_symmetric cell runs the isomorphism search, so this pins
    # the hom search's maps and their order over all 610 pairs of the catalog
    assert main(["enumerate", "--max-order", "36"]) == 0
    out = capsys.readouterr().out
    rows = json.loads(out)["rows"]
    assert len(rows) == 610 and sum(r["compatible"] for r in rows) == 179
    assert all(r["pushout_symmetric"] for r in rows)
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "f8e1c17c92b348c4a762e3fa4cb896a7694f6673af87981b9f35156f035b131b"
    )


def test_out_flag_writes_file(tmp_path, trivial_pair, capsys):
    out = tmp_path / "report.json"
    code, report = run(capsys, "check-compat", *trivial_pair, "--out", str(out))
    assert code == 0
    assert json.loads(out.read_text()) == report


@pytest.mark.parametrize("bad", [1.7, True])
def test_check_action_refuses_non_integer_entries(tmp_path, capsys, bad):
    z2 = pio.group_to_dict(Z2)
    path = write(tmp_path, "a.json", {"acting": z2, "target": z2, "table": [[0, bad], [0, 1]]})
    code, report = run(capsys, "check-action", path)
    assert code == 2 and "is not an integer" in report["error"]


def test_xmod_check_refuses_non_integer_boundary(tmp_path, capsys):
    data = pio.xmod_to_dict(identity_xmod(Z2))
    data["boundary"] = [0, 1.2]
    code, report = run(capsys, "xmod-check", write(tmp_path, "xm.json", data))
    assert code == 2 and "is not an integer" in report["error"]


LOADER_ERRORS = {
    "check-action": "action data must be an object with a table",
    "xmod-check": "crossed module data needs boundary, action, dom, cod",
    "lie-check-action": "Lie action data must be an object with rho",
    "lie-xmod-check": "Lie crossed module data needs boundary, action, dom, cod",
}


@pytest.mark.parametrize("verb, data, expected", [
    *[pytest.param(verb, data, error, id=f"{verb}-{kind}")
      for verb, error in LOADER_ERRORS.items() for kind, data in (("list", []), ("empty", {}))],
    pytest.param("check-action", {"target": pio.group_to_dict(Z2), "table": [[0, 1], [0, 1]]},
                 "no acting group given", id="check-action-no-acting"),
    pytest.param("lie-check-action", {"target": {"dim": 1}, "rho": [[["0"]]]},
                 "no acting algebra given", id="lie-check-action-no-acting"),
])
def test_check_verbs_report_the_loaders_errors(tmp_path, capsys, verb, data, expected):
    code, report = run(capsys, verb, write(tmp_path, "in.json", data))
    assert code == 2 and report == {"error": expected}


@pytest.mark.parametrize("table", [5, [5]])
@pytest.mark.parametrize("verb, spoil", [
    pytest.param("validate", lambda table: {"table": table}, id="validate"),
    pytest.param("semidirect", lambda table: {**pio.action_to_dict(trivial_action(Z2, Z3)), "table": table},
                 id="semidirect-action-table"),
    pytest.param("semidirect", lambda table: {**pio.action_to_dict(trivial_action(Z2, Z3)), "acting": {"table": table}},
                 id="semidirect-inline-group"),
    pytest.param("check-compat", lambda table: {"table": table}, id="check-compat-group"),
])
def test_group_side_names_a_malformed_table(tmp_path, capsys, trivial_pair, table, verb, spoil):
    bad = write(tmp_path, "bad.json", spoil(table))
    code, report = run(capsys, verb, bad, *trivial_pair[1:] if verb == "check-compat" else ())
    assert code == 2 and report == {"error": "table must be a list of lists"}


def test_xmod_check_names_a_malformed_boundary(tmp_path, capsys):
    data = {**pio.xmod_to_dict(identity_xmod(Z2)), "boundary": 5}
    code, report = run(capsys, "xmod-check", write(tmp_path, "xm.json", data))
    assert code == 2 and report == {"error": "boundary must be a list"}


def test_lie_validate_refuses_a_negative_dim(tmp_path, capsys):
    code, report = run(capsys, "lie-validate", write(tmp_path, "L.json", {"dim": -1}))
    assert code == 2 and report == {"error": "dim -1 is negative"}


def test_unknown_verb_rejected(capsys):
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


# Lie twins


def solvable_files(tmp_path):
    L = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    I = LieAlgebra(1, mats([[[0]]]))
    incl = LieMap(I, L, pio.mat([[0], [1]]))
    actI = LieAction(L, I, mats([[[1]], [[0]]]))
    xm_m = CrossedModule(incl, actI)
    xm_n = CrossedModule(identity_lie_map(L), L.adjoint)
    return L, I, xm_m, xm_n


def test_lie_validate(tmp_path, capsys):
    L, _, _, _ = solvable_files(tmp_path)
    path = write(tmp_path, "L.json", pio.lie_to_dict(L))
    code, report = run(capsys, "lie-validate", path)
    assert code == 0 and report == {"valid": True}
    bad = write(tmp_path, "bad.json", {"dim": 2, "brackets": [
        {"i": 0, "j": 1, "coeffs": ["0", "1"]},
        {"i": 1, "j": 0, "coeffs": ["0", "1"]},
    ]})
    code, report = run(capsys, "lie-validate", bad)
    assert code == 2 and report["valid"] is False


def test_lie_validate_refuses_large_dim_at_once(tmp_path, capsys):
    path = write(tmp_path, "big.json", {"dim": 10**6, "brackets": []})
    start = time.perf_counter()
    code, report = run(capsys, "lie-validate", path)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and report == {"error": f"dim 1000000 is above the limit of {MAX_LIE_DIM}"}


def test_lie_check_action_refuses_boolean_entries(tmp_path, capsys):
    L, _, _, _ = solvable_files(tmp_path)
    data = pio.lie_action_to_dict(L.adjoint)
    data["rho"][0][1][1] = True
    code, report = run(capsys, "lie-check-action", write(tmp_path, "a.json", data))
    assert code == 2 and "not an exact rational" in report["error"]


def test_lie_loaders_refuse_a_zero_denominator(tmp_path, capsys):
    # Fraction("1/0") raises ZeroDivisionError; the loaders report it as a LieError, exit 2
    bad = write(tmp_path, "L.json", {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1/0"]}]})
    code, report = run(capsys, "lie-validate", bad)
    assert code == 2 and report == {"error": "not an exact rational: '1/0'"}
    L, _, _, _ = solvable_files(tmp_path)
    data = pio.lie_action_to_dict(L.adjoint)
    data["rho"][0][1][1] = "1/0"
    code, report = run(capsys, "lie-check-action", write(tmp_path, "a.json", data))
    assert code == 2 and report == {"error": "not an exact rational: '1/0'"}


def lie_input(tmp_path, verb):
    L, _, _, xm = solvable_files(tmp_path)
    if verb == "lie-validate":
        return pio.lie_to_dict(L)
    if verb in ("lie-check-action", "lie-semidirect"):
        return pio.lie_action_to_dict(L.adjoint)
    return pio.lie_xmod_to_dict(xm)


def set_at(keys, value):
    """A function that sets data[k1]...[kn] = value."""
    def spoil(data):
        for k in keys[:-1]:
            data = data[k]
        data[keys[-1]] = value
    return spoil


@pytest.mark.parametrize("verb, spoil, expected", [
    pytest.param("lie-validate", set_at(["brackets"], None),
                 {"error": "brackets must be a list"}, id="brackets-null"),
    pytest.param("lie-validate", set_at(["brackets", 0], [0, 1, ["0", "1"]]),
                 {"error": "each brackets entry must be an object with i, j and coeffs"},
                 id="bracket-entry-list"),
    pytest.param("lie-validate", set_at(["brackets", 0, "coeffs"], None),
                 {"error": "coeffs must be a list"}, id="coeffs-null"),
    pytest.param("lie-check-action", set_at(["rho"], None),
                 {"error": "rho must be a list of lists of lists"}, id="check-action-rho-null"),
    pytest.param("lie-check-action", set_at(["rho", 0, 1], "01"),
                 {"error": "rho must be a list of lists of lists"}, id="check-action-rho-row-string"),
    pytest.param("lie-semidirect", set_at(["rho"], None),
                 {"error": "rho must be a list of lists of lists"}, id="semidirect-rho-null"),
    pytest.param("lie-xmod-check", set_at(["boundary"], None),
                 {"error": "boundary must be a list of lists"}, id="xmod-check-boundary-null"),
    pytest.param("lie-xmod-check", set_at(["action", "rho"], [1, 0]),
                 {"error": "rho must be a list of lists of lists"}, id="xmod-check-rho-flat"),
    pytest.param("lie-induce-actions", set_at(["boundary"], ["1", "0"]),
                 {"error": "boundary must be a list of lists"}, id="induce-boundary-flat"),
])
def test_lie_loaders_name_a_malformed_field(tmp_path, capsys, verb, spoil, expected):
    data = lie_input(tmp_path, verb)
    spoil(data)
    path = write(tmp_path, "in.json", data)
    code, report = run(capsys, verb, *[path] * (2 if verb == "lie-induce-actions" else 1))
    assert code == 2 and report == expected


@pytest.mark.parametrize("text", ["1e200000", "0.5", "1_0", " 1"])
def test_lie_validate_refuses_a_rational_that_is_not_p_or_p_over_q(tmp_path, capsys, text):
    path = write(tmp_path, "L.json", {"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", text]}]})
    code, report = run(capsys, "lie-validate", path)
    assert code == 2 and report == {"error": f"not an exact rational: {text!r}"}


def test_main_builds_the_parser_once(tmp_path, capsys):
    build_parser.cache_clear()
    group = write(tmp_path, "g.json", pio.group_to_dict(S3))
    algebra = write(tmp_path, "L.json", pio.lie_to_dict(solvable_files(tmp_path)[0]))
    assert run(capsys, "validate", group)[0] == 0
    assert run(capsys, "lie-validate", algebra)[0] == 0
    assert build_parser.cache_info().misses == 1


def test_lie_check_action(tmp_path, capsys):
    L, _, _, _ = solvable_files(tmp_path)
    good = write(tmp_path, "a.json", pio.lie_action_to_dict(L.adjoint))
    code, report = run(capsys, "lie-check-action", good)
    assert code == 0 and report["valid"] is True
    bad_data = pio.lie_action_to_dict(L.adjoint)
    bad_data["rho"][0] = [["1", "0"], ["0", "1"]]
    bad = write(tmp_path, "b.json", bad_data)
    code, report = run(capsys, "lie-check-action", bad)
    assert code == 1 and report["valid"] is False


def lie_mutual_files(tmp_path):
    from peiffer.lie import lie_induced_actions

    L, I, xm_m, xm_n = solvable_files(tmp_path)
    mut = lie_induced_actions(xm_m, xm_n)
    return (
        write(tmp_path, "lm.json", pio.lie_to_dict(I)),
        write(tmp_path, "ln.json", pio.lie_to_dict(L)),
        write(tmp_path, "rho_nm.json", pio.lie_action_to_dict(mut.xi_nm)),
        write(tmp_path, "rho_mn.json", pio.lie_action_to_dict(mut.xi_mn)),
        xm_m,
        xm_n,
    )


def test_lie_check_compat(tmp_path, capsys):
    m, n, rnm, rmn, _, _ = lie_mutual_files(tmp_path)
    code, report = run(capsys, "lie-check-compat", m, n, rnm, rmn)
    assert code == 0 and report["compatible"] is True


def test_lie_check_compat_scalar_pair(tmp_path, capsys):
    one = write(tmp_path, "one.json", {"dim": 1, "brackets": []})
    ident = write(tmp_path, "id.json", {"rho": [[["1"]]]})
    code, report = run(capsys, "lie-check-compat", one, one, ident, ident)
    assert code == 1 and report["compatible"] is False


def test_lie_semidirect(tmp_path, capsys):
    L, I, _, _ = solvable_files(tmp_path)
    act = LieAction(L, I, mats([[[1]], [[0]]]))
    path = write(tmp_path, "a.json", pio.lie_action_to_dict(act))
    code, report = run(capsys, "lie-semidirect", path)
    assert code == 0 and report["algebra"]["dim"] == 3


def test_lie_peiffer_and_xmods(tmp_path, capsys):
    m, n, rnm, rmn, _, _ = lie_mutual_files(tmp_path)
    code, report = run(capsys, "lie-peiffer", m, n, rnm, rmn)
    assert code == 0
    assert report["algebra"]["dim"] <= 3
    code, report = run(capsys, "lie-peiffer-xmods", m, n, rnm, rmn)
    assert code == 0
    assert check_lie_xmod(pio.lie_xmod_from_dict(report["on_M"])).ok


def test_lie_xmod_check_refuses_a_disagreeing_inline_acting_algebra(tmp_path, capsys):
    _, _, _, xm = solvable_files(tmp_path)
    data = pio.lie_xmod_to_dict(xm)
    data["action"]["acting"] = pio.lie_to_dict(LieAlgebra(2, mats([[[0, 0]] * 2] * 2)))
    code, report = run(capsys, "lie-xmod-check", write(tmp_path, "xm.json", data))
    assert code == 2 and report == {"error": "inline acting algebra disagrees with the supplied one"}


def test_lie_xmod_check(tmp_path, capsys):
    _, _, xm_m, _ = solvable_files(tmp_path)
    path = write(tmp_path, "xm.json", pio.lie_xmod_to_dict(xm_m))
    code, report = run(capsys, "lie-xmod-check", path)
    assert code == 0 and report["valid"] is True


def test_lie_induce_and_universal(tmp_path, capsys):
    m, n, rnm, rmn, xm_m, xm_n = lie_mutual_files(tmp_path)
    fm = write(tmp_path, "xm_m.json", pio.lie_xmod_to_dict(xm_m))
    fn = write(tmp_path, "xm_n.json", pio.lie_xmod_to_dict(xm_n))
    code, report = run(capsys, "lie-induce-actions", fm, fn)
    assert code == 0 and "rho_nm" in report
    code, report = run(capsys, "lie-universal-map", m, n, rnm, rmn, fm, fn)
    assert code == 0 and "matrix" in report


def count_calls(monkeypatch, owner, names):
    """Wrap each owner.<name>; the returned dict counts the calls to it."""
    calls = dict.fromkeys(names, 0)

    def counted(name, check):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return check(*args, **kwargs)
        return wrapper

    for name in names:
        monkeypatch.setattr(owner, name, counted(name, getattr(owner, name)))
    return calls


def test_constructors_run_no_check(monkeypatch):
    import peiffer.actions as actions
    import peiffer.lie as lie
    import peiffer.xmod as xmod

    L = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    counts = [
        count_calls(monkeypatch, Hom, ["check"]),
        count_calls(monkeypatch, actions, ["check_action_table"]),
        count_calls(monkeypatch, xmod, ["check_xmod"]),
        count_calls(monkeypatch, lie.LieMap, ["check"]),
        count_calls(monkeypatch, lie, ["check_lie_action", "check_lie_xmod", "validate_lie"]),
    ]
    not_a_hom = Hom(Z2, Z3, (0, 1))
    not_an_action = Action(Z2, Z3, ((0, 1, 2), (0, 0, 0)))
    CrossedModule(Hom(Z3, Z2, (0, 1, 1)), not_an_action)
    not_antisymmetric = mats([[[0, 0], [0, 1]], [[0, 1], [0, 0]]])
    matrix = pio.mat([[0, 0], [0, 2]])
    rho = mats([[[1, 0], [0, 1]], [[0, 0], [0, 0]]])
    not_lie = LieAlgebra(2, not_antisymmetric)
    doubled = LieMap(L, L, matrix)
    not_derivations = LieAction(L, L, rho)
    CrossedModule(doubled, not_derivations)
    assert [set(calls.values()) for calls in counts] == [{0}] * len(counts)
    # the Lie constructors keep the very data they are given
    assert not_lie.brackets is not_antisymmetric and doubled.matrix is matrix and not_derivations.rho is rho
    # the data is invalid: each check, run by hand, refuses it
    assert not not_a_hom.check().ok and not check_action_table(Z2, Z3, not_an_action.table).ok
    assert not lie.validate_lie(not_lie).ok
    assert not doubled.check().ok and not check_lie_action(not_derivations).ok


def test_lie_universal_map_checks_each_crossed_module_once(tmp_path, capsys, monkeypatch):
    import peiffer.lie as lie

    m, n, rnm, rmn, xm_m, xm_n = lie_mutual_files(tmp_path)
    fm = write(tmp_path, "xm_m.json", pio.lie_xmod_to_dict(xm_m))
    fn = write(tmp_path, "xm_n.json", pio.lie_xmod_to_dict(xm_n))
    xmods = count_calls(monkeypatch, pio, ["check_lie_xmod"])
    maps = count_calls(monkeypatch, lie.LieMap, ["check"])
    code, report = run(capsys, "lie-universal-map", m, n, rnm, rmn, fm, fn)
    assert code == 0 and "matrix" in report
    # once per loaded crossed module, whose check starts with its boundary
    assert xmods == {"check_lie_xmod": 2} and maps == {"check": 2}


def test_lie_universal_map_loads_a_path_named_twice_once(tmp_path, capsys, monkeypatch):
    L, _, _, xm = solvable_files(tmp_path)
    pair = [write(tmp_path, "L.json", pio.lie_to_dict(L))] * 2
    pair += [write(tmp_path, "ad.json", {"rho": pio.lie_action_to_dict(L.adjoint)["rho"]})] * 2
    xms = [write(tmp_path, "xm.json", pio.lie_xmod_to_dict(xm))] * 2
    checks = count_calls(monkeypatch, pio, ["validate_lie", "check_lie_action", "check_lie_xmod"])
    code, report = run(capsys, "lie-universal-map", *pair, *xms)
    assert code == 0 and len(report["matrix"]) == 2
    # L.json and xm.json, whose equal dom and cod load once; ad.json and the action of xm.json
    assert checks == {"validate_lie": 2, "check_lie_action": 2, "check_lie_xmod": 1}


def test_universal_map_loads_a_path_named_twice_once(tmp_path, capsys, monkeypatch):
    pair = [write(tmp_path, "s3.json", pio.group_to_dict(S3))] * 2
    pair += [write(tmp_path, "conj.json", {"table": conjugation_action(S3).table})] * 2
    xms = [write(tmp_path, "xm.json", pio.xmod_to_dict(identity_xmod(S3)))] * 2
    calls = count_calls(monkeypatch, pio, ["group_from_dict", "action_from_dict"])
    code, report = run(capsys, "universal-map", *pair, *xms)
    assert code == 0 and report["order"] == 12
    # s3.json and xm.json, whose equal dom and cod load once; conj.json and the action of xm.json
    assert calls == {"group_from_dict": 2, "action_from_dict": 2}


def test_xmod_loaders_load_equal_inline_dom_and_cod_once(tmp_path, monkeypatch):
    zero = CrossedModule(Hom(Z3, Z2, (0, 0, 0)), trivial_action(Z2, Z3))
    _, _, ideal, identity = solvable_files(tmp_path)
    calls = count_calls(monkeypatch, pio, ["group_from_dict", "lie_from_dict"])
    loads = []
    for parse, to_dict, xm in [(pio.parse_xmod, pio.xmod_to_dict, identity_xmod(S3)),
                               (pio.parse_xmod, pio.xmod_to_dict, zero),
                               (pio.parse_lie_xmod, pio.lie_xmod_to_dict, identity),
                               (pio.parse_lie_xmod, pio.lie_xmod_to_dict, ideal)]:
        before = sum(calls.values())
        assert parse(to_dict(xm))[1].ok
        loads.append(sum(calls.values()) - before)
    assert loads == [1, 2, 1, 2]


def test_lie_xmod_loader_refuses_a_boundary_that_is_no_hom(tmp_path, capsys):
    L, _, _, _ = solvable_files(tmp_path)
    doubled = LieMap(L, L, pio.mat([[0, 0], [0, 2]]))
    assert not doubled.check().ok
    bad = write(tmp_path, "xm.json", pio.lie_xmod_to_dict(CrossedModule(doubled, L.adjoint)))
    code, report = run(capsys, "lie-induce-actions", bad, bad)
    assert code == 2
    assert "Lie crossed module axioms failed: bracket not preserved" in report["error"]


def test_reports_sorted_and_stable(trivial_pair, capsys):
    _, r1 = run(capsys, "peiffer", *trivial_pair)
    _, r2 = run(capsys, "peiffer", *trivial_pair)
    assert r1 == r2
    assert list(r1) == sorted(r1)


# Golden transcript: the exact stdout and exit code of every verb, kept in
# cli_golden.json beside this file.  Re-record with `python tests/test_cli.py`
# (with the package importable) only when a report is meant to change.

GOLDEN = Path(__file__).with_name("cli_golden.json")


def golden_inputs(directory) -> dict:
    """Write every input of the transcript; returns file name -> path."""
    from peiffer.lie import lie_induced_actions
    from peiffer.xmod import induced_mutual_actions

    t = next(x for x in S3.elements() if S3.element_order(x) == 2)
    reflect = Action(Z2, S3, (tuple(range(6)), tuple(S3.conj(t, x) for x in range(6))))
    conj_bad = pio.action_to_dict(conjugation_action(S3))
    conj_bad["table"][0] = list(range(1, 6)) + [0]
    no_table = pio.action_to_dict(conjugation_action(S3))
    del no_table["table"]
    id_xm_bad = pio.xmod_to_dict(identity_xmod(S3))
    id_xm_bad["action"] = {"table": [list(range(6))] * 6}
    A3, incl = subgroup_group(S3, [x for x in S3.elements() if S3.element_order(x) in (1, 3)])
    a3_xm = inclusion_xmod(S3, incl)
    induced = induced_mutual_actions(a3_xm, identity_xmod(S3))

    L, I, lie_xm_m, lie_xm_n = solvable_files(None)
    lie_mut = lie_induced_actions(lie_xm_m, lie_xm_n)
    ad_bad = pio.lie_action_to_dict(L.adjoint)
    ad_bad["rho"][0] = [["1", "0"], ["0", "1"]]
    lie_xm_bad = CrossedModule(identity_lie_map(L), trivial_lie_action(L, L))

    data = {
        "s3": pio.group_to_dict(S3),
        "z2": pio.group_to_dict(Z2),
        "a3": pio.group_to_dict(A3),
        "no_inverse": {"order": 2, "table": [[0, 1], [1, 1]]},
        "order_mismatch": {"order": 3, "table": [[0, 1], [1, 0]]},
        "not_an_object": [1, 2],
        "conj": pio.action_to_dict(conjugation_action(S3)),
        "conj_bad": conj_bad,
        "no_table": no_table,
        "triv_nm": pio.action_to_dict(trivial_action(Z2, S3)),
        "triv_mn": pio.action_to_dict(trivial_action(S3, Z2)),
        "reflect_nm": pio.action_to_dict(reflect),
        "z2_on_z3": pio.action_to_dict(trivial_action(Z2, Z3)),
        "id_xm": pio.xmod_to_dict(identity_xmod(S3)),
        "id_xm_bad": id_xm_bad,
        "a3_xm": pio.xmod_to_dict(a3_xm),
        "ind_nm": {"table": [list(r) for r in induced.xi_nm.table]},
        "ind_mn": {"table": [list(r) for r in induced.xi_mn.table]},
        "L": pio.lie_to_dict(L),
        "I": pio.lie_to_dict(I),
        "own_partner": {"dim": 2, "brackets": [
            {"i": 0, "j": 1, "coeffs": ["0", "1"]},
            {"i": 1, "j": 0, "coeffs": ["0", "1"]},
        ]},
        "one": {"dim": 1, "brackets": []},
        "id1": {"rho": [[["1"]]]},
        "ad": pio.lie_action_to_dict(L.adjoint),
        "ad_bad": ad_bad,
        "L_on_I": pio.lie_action_to_dict(LieAction(L, I, mats([[[1]], [[0]]]))),
        "rho_nm": pio.lie_action_to_dict(lie_mut.xi_nm),
        "rho_mn": pio.lie_action_to_dict(lie_mut.xi_mn),
        "lie_xm_m": pio.lie_xmod_to_dict(lie_xm_m),
        "lie_xm_n": pio.lie_xmod_to_dict(lie_xm_n),
        "lie_xm_bad": pio.lie_xmod_to_dict(lie_xm_bad),
    }
    paths = {name: write(directory, f"{name}.json", d) for name, d in data.items()}
    malformed = directory / "malformed.json"
    malformed.write_text("{not json")
    paths["malformed"] = str(malformed)
    paths["report"] = str(directory / "report.json")
    return paths


TRIVIAL = ("s3", "z2", "triv_nm", "triv_mn")
REFLECT = ("s3", "z2", "reflect_nm", "triv_mn")
LIE_PAIR = ("I", "L", "rho_nm", "rho_mn")
SCALAR = ("one", "one", "id1", "id1")

# strong-check has no exit-1 case: it needs well-defined induced actions,
# which hold exactly for compatible pairs, and for those the strong
# relation is a theorem (acceptance criterion 5).
GOLDEN_CASES = {
    "validate": ("validate", "s3"),
    "validate-no-inverse": ("validate", "no_inverse"),
    "validate-order-mismatch": ("validate", "order_mismatch"),
    "validate-not-an-object": ("validate", "not_an_object"),
    "validate-malformed-json": ("validate", "malformed"),
    "check-action": ("check-action", "conj"),
    "check-action-fails": ("check-action", "conj_bad"),
    "check-action-missing-table": ("check-action", "no_table"),
    "check-compat": ("check-compat", *TRIVIAL),
    "check-compat-fails": ("check-compat", *REFLECT),
    "check-compat-out": ("check-compat", *REFLECT, "--out", "report"),
    "semidirect": ("semidirect", "z2_on_z3"),
    "semidirect-cap": ("semidirect", "triv_nm", "--semidirect-cap", "4"),
    "peiffer": ("peiffer", *TRIVIAL),
    "peiffer-incompatible": ("peiffer", *REFLECT),
    "strong-check": ("strong-check", *TRIVIAL, "--strong-word-bound", "1"),
    "strong-check-incompatible": ("strong-check", *REFLECT),
    "peiffer-xmods": ("peiffer-xmods", *TRIVIAL),
    "peiffer-xmods-incompatible": ("peiffer-xmods", *REFLECT),
    "universal-map": ("universal-map", "a3", "s3", "ind_nm", "ind_mn", "a3_xm", "id_xm"),
    "universal-map-wrong-groups": ("universal-map", *TRIVIAL, "a3_xm", "id_xm"),
    "xmod-check": ("xmod-check", "id_xm"),
    "xmod-check-fails": ("xmod-check", "id_xm_bad"),
    "induce-actions": ("induce-actions", "a3_xm", "id_xm"),
    "enumerate": ("enumerate", "--max-order", "4"),
    "lie-validate": ("lie-validate", "L"),
    "lie-validate-own-partner": ("lie-validate", "own_partner"),
    "lie-check-action": ("lie-check-action", "ad"),
    "lie-check-action-fails": ("lie-check-action", "ad_bad"),
    "lie-check-compat": ("lie-check-compat", *LIE_PAIR),
    "lie-check-compat-fails": ("lie-check-compat", *SCALAR),
    "lie-semidirect": ("lie-semidirect", "L_on_I"),
    "lie-peiffer": ("lie-peiffer", *LIE_PAIR),
    "lie-xmod-check": ("lie-xmod-check", "lie_xm_m"),
    "lie-xmod-check-fails": ("lie-xmod-check", "lie_xm_bad"),
    "lie-induce-actions": ("lie-induce-actions", "lie_xm_m", "lie_xm_n"),
    "lie-peiffer-xmods": ("lie-peiffer-xmods", *LIE_PAIR),
    "lie-peiffer-xmods-ill-defined": ("lie-peiffer-xmods", *SCALAR),
    "lie-universal-map": ("lie-universal-map", *LIE_PAIR, "lie_xm_m", "lie_xm_n"),
}


def run_case(paths, argv):
    """Exit code and exact stdout of one verb call; file names become paths."""
    out = StringIO()
    with redirect_stdout(out):
        code = main([paths.get(token, token) for token in argv])
    return code, out.getvalue()


@pytest.fixture(scope="module")
def golden_paths(tmp_path_factory):
    return golden_inputs(tmp_path_factory.mktemp("golden"))


@pytest.mark.parametrize("case", sorted(GOLDEN_CASES))
def test_golden_transcript(golden_paths, case):
    expected = json.loads(GOLDEN.read_text())[case]
    code, stdout = run_case(golden_paths, GOLDEN_CASES[case])
    assert (code, stdout) == (expected["code"], expected["stdout"])
    if "--out" in GOLDEN_CASES[case]:
        assert Path(golden_paths["report"]).read_text() == stdout


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_every_verb_refuses_a_malformed_file_with_a_clear_error(golden_paths, tmp_path, verb):
    # each positional file in turn becomes [], 5 or {} while the others stay valid
    argv = GOLDEN_CASES[verb]
    assert run_case(golden_paths, argv)[0] == 0
    for i in range(1, 1 + len(VERBS[verb][0])):
        for name, data in {"list": [], "int": 5, "object": {}}.items():
            spoiled = [*argv[:i], write(tmp_path, f"{name}.json", data), *argv[i + 1:]]
            code, stdout = run_case(golden_paths, spoiled)
            report = json.loads(stdout)
            message = report.get("error", report.get("reason"))
            assert code == 2 and isinstance(message, str), (spoiled, stdout)
            assert not re.match(r"(TypeError|KeyError|AttributeError):", message), (spoiled, message)


def test_deep_nesting_exits_2_without_a_traceback(tmp_path):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000 + "]" * 100_000)
    for verb in ("validate", "lie-validate"):
        code, stdout = run_case({}, [verb, str(deep)])
        assert code == 2 and json.loads(stdout)["error"].startswith("RecursionError: ")
    # a table entry nested 900 deep: the witness shows it in a bounded form
    # (test_a_deep_entry_is_reported_by_position_in_a_bounded_form)
    nested = tmp_path / "nested.json"
    nested.write_text('{"table": [[' + "[" * 900 + "]" * 900 + "]]}")
    code, stdout = run_case({}, ["validate", str(nested)])
    assert code == 2
    assert stdout.startswith(('{\n  "error": "RecursionError: ', '{\n  "reason": "entry out of range",'))


@pytest.mark.parametrize("verb, data", [
    ("validate", {"table": [[0, "DEEP"], [1, 0]]}),
    ("check-action", {"acting": {"table": [[0]]}, "target": {"table": [[0]]}, "table": [["DEEP"]]}),
    ("xmod-check", {"boundary": ["DEEP"], "action": {"table": [[0]]}, "dom": {"table": [[0]]},
                    "cod": {"table": [[0]]}}),
])
def test_a_deep_entry_is_reported_by_position_in_a_bounded_form(tmp_path, verb, data):
    # a 1.8 kB file with one entry nested 900 deep: the report names where it
    # is and shows it by reprlib, not in full
    path = tmp_path / "nested.json"
    path.write_text(json.dumps(data).replace('"DEEP"', "[" * 900 + "]" * 900))
    code, stdout = run_case({}, [verb, str(path)])
    assert code == 2 and len(stdout.encode()) < 1024
    assert "[[[[[[[...]]]]]]]" in stdout and "RecursionError" not in stdout
    if verb == "validate":
        assert json.loads(stdout)["witness"] == [0, 1, "[[[[[[[...]]]]]]]"]
    else:
        assert "at index 0 is not an integer" in stdout


_L, _, _LIE_XM_M, _ = solvable_files(None)
_ONE = LieAlgebra(1, mats([[[0]]]))
_EMPTY = {"dim": 0, "brackets": []}
_S3_DEEP_NAME = {**pio.group_to_dict(S3), "name": json.loads("[" * 900 + "]" * 900)}


# A file is a name from golden_inputs or the data to write.
@pytest.mark.parametrize("verb, files, code, expected", [
    pytest.param("validate", [{"table": []}], 2, "empty table", id="validate-empty-table"),
    pytest.param("check-action", [{**pio.action_to_dict(trivial_action(Z2, Z3)), "table": [[0, 1, 2]]}],
                 1, "table dimensions do not match the groups", id="check-action-too-few-rows"),
    pytest.param("xmod-check", [{**pio.xmod_to_dict(identity_xmod(Z2)), "boundary": [1, 0]}], 1,
                 "identity not preserved", id="xmod-check-boundary-no-hom"),
    pytest.param("lie-validate", [{"dim": 2, "brackets": [{"i": 0, "j": 2, "coeffs": ["0", "1"]}]}], 2,
                 "bracket entry out of range", id="lie-validate-j-is-dim"),
    pytest.param("lie-validate", [{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": ["0", "1", "0"]}]}], 2,
                 "bracket entry out of range", id="lie-validate-coeffs-too-long"),
    pytest.param("lie-check-action", [{**pio.lie_action_to_dict(_L.adjoint), "rho": [[["0"]]]}], 1,
                 "action matrices have the wrong shape", id="lie-check-action-rho-shape"),
    pytest.param("lie-xmod-check", [{**pio.lie_xmod_to_dict(_LIE_XM_M), "boundary": [["1"]]}], 1,
                 "matrix shape does not match the algebras", id="lie-xmod-check-boundary-shape"),
    pytest.param("lie-induce-actions", ["lie_xm_m", pio.lie_xmod_to_dict(
        CrossedModule(identity_lie_map(_ONE), _ONE.adjoint))], 2,
        "crossed modules have different base algebras", id="lie-induce-actions-different-bases"),
    pytest.param("lie-universal-map", [*LIE_PAIR, "lie_xm_n", "lie_xm_m"], 2,
                 "crossed modules are not over M and N", id="lie-universal-map-wrong-algebras"),
    # a name is echoed into reports, so one nested 900 deep would be too
    pytest.param("validate", [_S3_DEEP_NAME], 2, "name must be a string or null", id="validate-deep-name"),
    pytest.param("peiffer-xmods", [_S3_DEEP_NAME, "z2", "triv_nm", "triv_mn"], 2,
                 "name must be a string or null", id="peiffer-xmods-deep-name"),
    pytest.param("lie-validate", [{**_EMPTY, "name": _S3_DEEP_NAME["name"]}], 2,
                 "name must be a string or null", id="lie-validate-deep-name"),
    pytest.param("lie-peiffer", [_EMPTY, _EMPTY, {"rho": []}, {"rho": []}], 0,
                 {"algebra": _EMPTY, "l_m": [], "l_n": []}, id="lie-peiffer-dim-0"),
    pytest.param("lie-peiffer", [_EMPTY, {"dim": 1, "brackets": []}, {"rho": [[]]}, {"rho": []}], 0,
                 {"algebra": {"brackets": [], "dim": 1}, "l_m": [[]], "l_n": [["1"]]}, id="lie-peiffer-empty-m"),
])
def test_error_paths_that_inputs_reach(golden_paths, tmp_path, verb, files, code, expected):
    argv = [verb] + [f if isinstance(f, str) else write(tmp_path, f"{k}.json", f) for k, f in enumerate(files)]
    got, stdout = run_case(golden_paths, argv)
    report = json.loads(stdout)
    assert got == code
    assert (report if code == 0 else report.get("error", report.get("reason"))) == expected


_Z2_ON_Z3 = pio.action_to_dict(trivial_action(Z2, Z3))
_AD = pio.lie_action_to_dict(_L.adjoint)
_Z2_XM = pio.xmod_to_dict(identity_xmod(Z2))
_LIE_XM = pio.lie_xmod_to_dict(_LIE_XM_M)
_DOUBLED = pio.lie_xmod_to_dict(CrossedModule(LieMap(_L, _L, pio.mat([[0, 0], [0, 2]])), _L.adjoint))


# Each pair of twin check verbs: for the group verb and then its lie-* twin, a
# file with a malformed field, one that fails an axiom (for the crossed
# modules, a boundary that is not a homomorphism) and one with a part of the
# wrong size.  The validate pair has none of the last: parse_lie always
# builds structure constants of the right shape.
@pytest.mark.parametrize("verbs, fail_code, malformed, failing, wrong_size", [
    pytest.param(("validate", "lie-validate"), 2, [{"table": 5}, {"dim": 2, "brackets": None}],
                 ["no_inverse", "own_partner"], [], id="validate"),
    pytest.param(("check-action", "lie-check-action"), 1, [{**_Z2_ON_Z3, "table": 5}, {**_AD, "rho": None}],
                 ["conj_bad", "ad_bad"], [{**_Z2_ON_Z3, "table": [[0, 1, 2]]}, {**_AD, "rho": [[["0"]]]}],
                 id="check-action"),
    pytest.param(("xmod-check", "lie-xmod-check"), 1, [{**_Z2_XM, "boundary": 5}, {**_LIE_XM, "boundary": None}],
                 [{**_Z2_XM, "boundary": [1, 0]}, _DOUBLED],
                 [{**_Z2_XM, "boundary": [0]}, {**_LIE_XM, "boundary": [["1"]]}], id="xmod-check"),
])
def test_twin_check_verbs_report_alike(golden_paths, tmp_path, verbs, fail_code, malformed, failing, wrong_size):
    for k, (verb, bad_field, bad_axiom) in enumerate(zip(verbs, malformed, failing)):
        code, stdout = run_case(golden_paths, [verb, write(tmp_path, f"field{k}.json", bad_field)])
        assert code == 2 and list(json.loads(stdout)) == ["error"], (verb, stdout)
        if not isinstance(bad_axiom, str):
            bad_axiom = write(tmp_path, f"axiom{k}.json", bad_axiom)
        code, stdout = run_case(golden_paths, [verb, bad_axiom])
        report = json.loads(stdout)
        assert code == fail_code and list(report) == ["reason", "valid", "witness"], (verb, stdout)
        assert report["valid"] is False and "Fraction(" not in stdout
    for k, (verb, bad_size) in enumerate(zip(verbs, wrong_size)):
        code, stdout = run_case(golden_paths, [verb, write(tmp_path, f"size{k}.json", bad_size)])
        report = json.loads(stdout)
        assert code == 1 and list(report) == ["reason", "valid", "witness"], (verb, stdout)
        assert report["valid"] is False


# every verb takes --out; these are the other options each verb reads, with
# the value the golden case passes or else the default: 28 (verb, option) pairs
OPTION_VALUES = {
    "--semidirect-cap": str(DEFAULT_SEMIDIRECT_CAP), "--strong-word-bound": "1", "--max-order": "4",
}
READS = {
    "semidirect": {"--semidirect-cap"},
    "peiffer": {"--semidirect-cap"},
    "strong-check": {"--semidirect-cap", "--strong-word-bound"},
    "peiffer-xmods": {"--semidirect-cap"},
    "universal-map": {"--semidirect-cap"},
    "enumerate": {"--semidirect-cap", "--max-order"},
}


@pytest.mark.parametrize("verb", sorted(VERBS))
def test_each_verb_takes_only_the_options_it_reads(golden_paths, tmp_path, verb):
    # an option the verb reads leaves the golden report as it is; any other
    # one is refused as a usage error, like an unknown verb
    expected = json.loads(GOLDEN.read_text())[verb]
    takes = READS.get(verb, set()) | {"--out"}
    for option, value in {**OPTION_VALUES, "--out": str(tmp_path / "out.json")}.items():
        argv = [*GOLDEN_CASES[verb], option, value]
        if option in takes:
            assert run_case(golden_paths, argv) == (expected["code"], expected["stdout"]), argv
        else:
            with pytest.raises(SystemExit) as err:
                run_case(golden_paths, argv)
            assert err.value.code == 2, argv
    assert (tmp_path / "out.json").read_text() == expected["stdout"]
    out = StringIO()
    with redirect_stdout(out), pytest.raises(SystemExit) as err:
        main([verb, "--help"])
    assert err.value.code == 0
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", out.getvalue())) == takes | {"--help"}


def test_a_utf8_file_loads_under_an_ascii_locale(tmp_path):
    # JSON between systems is UTF-8 (RFC 8259, section 8.1), whatever the locale's encoding
    path = tmp_path / "z1.json"
    path.write_text('{"name": "Z\u2081", "order": 1, "table": [[0]]}', encoding="utf-8")
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "LC_ALL": "C", "PYTHONCOERCECLOCALE": "0",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-X", "utf8=0", "-m", "peiffer.cli", "validate", str(path)],
                          env=env, capture_output=True, timeout=60)
    assert (proc.returncode, json.loads(proc.stdout)) == (0, {"valid": True}), proc.stdout


def test_golden_transcript_covers_every_verb():
    assert len({argv[0] for argv in GOLDEN_CASES.values()}) == 20
    assert set(json.loads(GOLDEN.read_text())) == set(GOLDEN_CASES)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        paths = golden_inputs(Path(tmp))
        record = {}
        for case, argv in sorted(GOLDEN_CASES.items()):
            code, stdout = run_case(paths, argv)
            record[case] = {"argv": list(argv), "code": code, "stdout": stdout}
    GOLDEN.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
