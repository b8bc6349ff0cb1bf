import json
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from peiffer import io as pio
from peiffer.actions import conjugation_action
from peiffer.catalog import cyclic, symmetric_3
from peiffer.compat import CompatWitness
from peiffer.groups import Diagnosis, GroupError
from peiffer.io import MAX_LIE_DIM
from peiffer.lie import ZERO, LieAlgebra, LieError, validate_lie
from peiffer.xmod import CrossedModule

from constructions import identity_xmod
from lie_data import identity_lie_map, mats, reported


def test_group_round_trip():
    for G in (cyclic(6), symmetric_3()):
        back = pio.group_from_dict(pio.group_to_dict(G))
        assert back.table == G.table and back.name == G.name


def test_group_load_validates():
    with pytest.raises(GroupError):
        pio.group_from_dict({"order": 2, "table": [[0, 1], [1, 1]]})
    with pytest.raises(GroupError):
        pio.group_from_dict({"order": 3, "table": [[0, 1], [1, 0]]})


@pytest.mark.parametrize("d", [{"order": True, "table": [[0]]}, {"order": 2.0, "table": [[0, 1], [1, 0]]}])
def test_group_load_refuses_non_integer_order(d):
    # true == 1 and 2.0 == 2, so a plain comparison would let both through
    with pytest.raises(GroupError, match="declared order does not match the table"):
        pio.group_from_dict(d)


@pytest.mark.parametrize("name", [json.loads("[" * 900 + "]" * 900), 7, True, {"s": "S3"}],
                         ids=["deep", "int", "bool", "object"])
@pytest.mark.parametrize("load, d, error", [
    (pio.group_from_dict, {"table": [[0, 1], [1, 0]]}, GroupError),
    (pio.lie_from_dict, {"dim": 1, "brackets": []}, LieError),
], ids=["group", "lie"])
def test_loaders_refuse_a_name_that_is_not_a_string(load, d, error, name):
    # a name is echoed into reports, so a nested one would be too
    with pytest.raises(error, match="^name must be a string or null$"):
        load({**d, "name": name})
    assert load({**d, "name": None}).name is None and load({**d, "name": "Z"}).name == "Z"


def test_action_round_trip():
    psi = conjugation_action(symmetric_3())
    back = pio.action_from_dict(pio.action_to_dict(psi))
    assert back == psi


def test_action_inline_group_consistency():
    psi = conjugation_action(symmetric_3())
    d = pio.action_to_dict(psi)
    with pytest.raises(GroupError):
        pio.action_from_dict(d, acting=cyclic(2))


def test_xmod_round_trip():
    xm = identity_xmod(symmetric_3())
    back = pio.xmod_from_dict(pio.xmod_to_dict(xm))
    assert back.boundary.mapping == xm.boundary.mapping
    assert back.action.table == xm.action.table


def test_lie_round_trip_preserves_rationals():
    L = LieAlgebra(
        2,
        mats([
            [[0, 0], [0, Fraction(2, 3)]],
            [[0, Fraction(-2, 3)], [0, 0]],
        ]),
        name="r2",
    )
    d = pio.lie_to_dict(L)
    assert d["brackets"][0]["coeffs"] == ["0", "2/3"] and d["name"] == "r2"
    back = pio.lie_from_dict(d)
    assert back.brackets == L.brackets and back.name == "r2"


def lie_data(*entries):
    return {"dim": 2, "brackets": [{"i": i, "j": j, "coeffs": c} for i, j, c in entries]}


def test_lie_load_fills_antisymmetric_partner():
    d = lie_data((0, 1, ["0", "1"]))
    L = pio.lie_from_dict(d)
    assert L.brackets[1][0] == (Fraction(0), Fraction(-1))
    # a file may list the partner itself
    assert pio.lie_from_dict(lie_data((0, 1, ["0", "1"]), (1, 0, ["0", "-1"]))) == L


def test_lie_load_validates():
    # a listed partner that is not the negative fails antisymmetry
    for partner in (["0", "1"], ["0", "2"]):
        with pytest.raises(LieError, match="antisymmetry fails"):
            pio.lie_from_dict(lie_data((0, 1, ["0", "1"]), (1, 0, partner)))


# the entries of a drawn file, as JSON values and as the Fractions they stand for
ENTRY = {0: ZERO, 1: Fraction(1), -1: Fraction(-1), "1/2": Fraction(1, 2), "-1/2": Fraction(-1, 2)}
NEGATIVE = {0: 0, 1: -1, -1: 1, "1/2": "-1/2"}


@settings(max_examples=200, deadline=None)
@given(st.integers(0, 3), st.data())
def test_parse_lie_diagnoses_the_algebra_as_validate_lie_does(n, data):
    # each pair i < j is listed or not; a listed one's partner is left to the
    # loader, listed as its negative, or listed with any entries
    coeffs = st.lists(st.sampled_from(list(NEGATIVE)), min_size=n, max_size=n)
    entries = []
    for i in range(n):
        for j in range(i + 1, n):
            if data.draw(st.booleans()):
                c = data.draw(coeffs)
                entries.append((i, j, c))
                partner = data.draw(st.sampled_from(["filled", "negative", "any"]))
                if partner == "negative":
                    entries.append((j, i, [NEGATIVE[x] for x in c]))
                elif partner == "any":
                    entries.append((j, i, data.draw(coeffs)))
    entries = data.draw(st.permutations(entries))
    listed = {(i, j) for i, j, _ in entries}
    brackets = [[(ZERO,) * n] * n for _ in range(n)]
    for i, j, c in entries:
        brackets[i][j] = tuple(ENTRY[x] for x in c)
        if (j, i) not in listed:
            brackets[j][i] = tuple(-ENTRY[x] for x in c)
    L = LieAlgebra(n, tuple(map(tuple, brackets)))  # well shaped, so it never raises
    d = {"dim": n, "brackets": [{"i": i, "j": j, "coeffs": c} for i, j, c in entries]}
    parsed, diag = pio.parse_lie(d)
    assert parsed == L and diag == validate_lie(L)
    if diag.ok:
        assert pio.lie_from_dict(d) == L
    else:
        message = f"Lie axioms failed: {diag.reason}, witness={reported(diag.witness)}"
        with pytest.raises(LieError, match=f"^{re.escape(message)}$"):
            pio.lie_from_dict(d)


def test_lie_load_refuses_repeated_entry():
    with pytest.raises(LieError, match="given twice"):
        pio.lie_from_dict(lie_data((0, 1, ["0", "1"]), (0, 1, ["0", "2"])))


@pytest.mark.parametrize(
    "field, value", [("dim", 2.9), ("dim", True), ("i", True), ("j", 1.5), ("i", "0")]
)
def test_lie_load_refuses_non_integer_index(field, value):
    d = lie_data((0, 1, ["0", "1"]))
    if field == "dim":
        d["dim"] = value
    else:
        d["brackets"][0][field] = value
    with pytest.raises(LieError, match="is not an integer"):
        pio.lie_from_dict(d)


def test_lie_load_refuses_boolean_coefficients():
    with pytest.raises(LieError, match="not an exact rational: True"):
        pio.lie_from_dict(lie_data((0, 1, [True, False])))


def test_lie_action_load_refuses_boolean_entries():
    L = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    d = pio.lie_action_to_dict(L.adjoint)
    d["rho"][0][1][1] = True  # was "1"
    with pytest.raises(LieError, match="not an exact rational: True"):
        pio.lie_action_from_dict(d)


def test_lie_xmod_load_refuses_boolean_boundary():
    L = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    d = pio.lie_xmod_to_dict(CrossedModule(identity_lie_map(L), L.adjoint))
    d["boundary"][0][0] = True  # was "1"
    with pytest.raises(LieError, match="not an exact rational: True"):
        pio.lie_xmod_from_dict(d)


@pytest.mark.parametrize("text, value", [
    ("3", Fraction(3)), ("-3/4", Fraction(-3, 4)), ("+2/6", Fraction(1, 3)), ("007", Fraction(7)),
    pytest.param("9" * 4300 + "/7", Fraction(int("9" * 4300), 7), id="4300-digits"),
])
def test_lie_load_reads_p_and_p_over_q(text, value):
    assert pio.lie_from_dict(lie_data((0, 1, ["0", text]))).brackets[0][1] == (Fraction(0), value)


def test_lie_load_reads_every_zero_as_one_shared_fraction():
    d = {"dim": 6, "brackets": [{"i": 0, "j": 1, "coeffs": [0, "0", "-0", "+0/7", "000/1", "1/2"]}]}
    for _ in range(2):  # the second load reads each string from the memo
        brackets = pio.lie_from_dict(d).brackets
        assert all(c is ZERO for c in brackets[0][1][:5]) and brackets[0][1][5] == Fraction(1, 2)


@pytest.mark.parametrize("text", ["1/0", "1e5"])
def test_a_refused_string_is_refused_at_every_appearance(text):
    assert pio.vec(["1/2", "0"]) == (Fraction(1, 2), ZERO)
    d = lie_data((0, 1, [text, text]), (1, 0, [text, "0"]))
    for _ in range(3):
        with pytest.raises(LieError, match=f"^not an exact rational: '{re.escape(text)}'$"):
            pio.lie_from_dict(d)
        with pytest.raises(LieError, match="not an exact rational"):
            pio.vec(["0", text])


def test_a_json_true_is_refused_after_one_has_been_read():
    # True == 1 and hash(True) == hash(1): a memo keyed on values alone would hand back 1
    assert pio.vec([1, "1", 1]) == (Fraction(1),) * 3
    with pytest.raises(LieError, match="^not an exact rational: True$"):
        pio.lie_from_dict(json.loads('{"dim": 2, "brackets": [{"i": 0, "j": 1, "coeffs": [1, true]}]}'))


@pytest.mark.parametrize("text", [
    "1e200000", "1E2", "0.5", "1.", "1_0", " 1", "1 ", "1/2.0", "3/-4", "1/ 2", "nan", "inf", "", "/", "\u0661",
    "1/0", "0/0", "-0/00",
])
def test_lie_load_refuses_every_other_rational_string(text):
    with pytest.raises(LieError, match="not an exact rational"):
        pio.lie_from_dict(lie_data((0, 1, ["0", text])))


@pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000], ids=["numerator", "denominator"])
def test_lie_load_refuses_a_long_digit_string_as_a_lie_error(text):
    # past 4,300 digits int() of a string raises its own ValueError
    with pytest.raises(LieError, match=r"not an exact rational: '1.*\.\.\..*1'$"):
        pio.lie_from_dict(lie_data((0, 1, ["0", text])))


def test_lie_load_bounds_digits_with_the_int_limit_lifted():
    d = lie_data((0, 1, ["0", "1" * 4301]))
    with pytest.raises(LieError, match="not an exact rational"):  # first read under the default limit
        pio.lie_from_dict(d)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        with pytest.raises(LieError, match="not an exact rational"):
            pio.lie_from_dict(d)
    finally:
        sys.set_int_max_str_digits(limit)


def test_lie_load_reparses_a_long_string_under_a_lowered_int_limit():
    # 640 digits: memoised, and parsed under any limit; 641: read once, then
    # refused once the limit is lowered to 640, its lowest
    short, long = "1" * 640, "1" * 641
    d = lie_data((0, 1, [short, long]))
    assert pio.lie_from_dict(d).brackets[0][1] == (Fraction(int(short)), Fraction(int(long)))
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        with pytest.raises(LieError, match="not an exact rational"):
            pio.lie_from_dict(d)
        assert pio.vec([short]) == (Fraction(int(short)),)
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("value, depth, message", [
    (None, 1, "coeffs must be a list"),
    ({"0": 1}, 1, "coeffs must be a list"),
    ([[0], 0], 2, "coeffs must be a list of lists"),
    ([[[0]], [0]], 3, "coeffs must be a list of lists of lists"),
])
def test_nested_lists_names_the_field(value, depth, message):
    with pytest.raises(LieError, match=f"^{message}$"):
        pio.nested_lists(value, depth, "coeffs")


def test_lie_load_bounds_dim():
    assert pio.lie_from_dict({"dim": MAX_LIE_DIM}).dim == MAX_LIE_DIM
    for n in (MAX_LIE_DIM + 1, 10**9):
        with pytest.raises(LieError, match=f"dim {n} is above the limit of {MAX_LIE_DIM}"):
            pio.lie_from_dict({"dim": n})


@pytest.mark.parametrize("bad", [1.7, True])
def test_action_load_refuses_non_integer_entries(bad):
    Z2 = pio.group_to_dict(cyclic(2))
    d = {"acting": Z2, "target": Z2, "table": [[0, bad], [0, 1]]}
    with pytest.raises(GroupError, match="is not an integer"):
        pio.action_from_dict(d)


def test_xmod_load_refuses_non_integer_boundary():
    d = pio.xmod_to_dict(identity_xmod(cyclic(2)))
    d["boundary"] = [0, 1.2]
    with pytest.raises(GroupError, match="is not an integer"):
        pio.xmod_from_dict(d)


def test_lie_action_round_trip():
    L = LieAlgebra(2, mats([[[0, 0], [0, 1]], [[0, -1], [0, 0]]]))
    act = L.adjoint
    back = pio.lie_action_from_dict(pio.lie_action_to_dict(act))
    assert back == act


def test_dump_json_writes_rationals_and_witnesses_and_refuses_the_rest():
    witness = CompatWitness(equation=1, m=2, n=3, other=4, lhs=5, rhs=6)
    text = pio.dump_json({"q": Fraction(-3, 4), "w": witness})
    assert json.loads(text) == {"q": "-3/4", "w": {
        "equation": 1, "m": 2, "n": 3, "other": 4, "lhs": 5, "rhs": 6}}
    for v in ({"s": {1}}, [0, 1, {2}], {"a": [[0], [frozenset()]]}):
        with pytest.raises(TypeError, match="set"):
            pio.dump_json(v)


def _oracle(v) -> str:
    return json.dumps(v, indent=2, sort_keys=True, default=pio._encode)


_TEXT = st.text() | st.sampled_from(['"', "\\", "\n", "\x00\x1f", "\u00e9", "\u2082", "\U0001f600", 'a"b\\c'])
_LEAVES = (
    st.none() | st.booleans() | st.integers() | st.integers(-10**80, 10**80)
    | st.floats(allow_nan=False, allow_infinity=False) | _TEXT | st.fractions()
    | st.builds(CompatWitness, *[st.integers()] * 6)
    | st.builds(Diagnosis, st.booleans(), st.none() | _TEXT,
                st.none() | st.tuples(st.integers(), st.fractions(), _TEXT))
)
_JSON = st.recursive(_LEAVES, lambda inner: (
    st.lists(inner) | st.lists(inner).map(tuple) | st.dictionaries(_TEXT, inner)
    | st.lists(st.integers()) | st.lists(_TEXT) | st.lists(st.fractions())
), max_leaves=30)


@settings(max_examples=300, deadline=None)
@given(_JSON)
@example([1, True, "a", None])
@example({"b": [[0, 1], [1, 0]], "a": [["0", "1/2"]], "": [], "c": {}, "d": ()})
def test_dump_json_writes_what_json_dumps_writes(v):
    assert pio.dump_json(v) == _oracle(v)


@pytest.mark.parametrize("v", [{1: 2}, {True: 0}, {None: [1]}, {1.5: "x"}, {1: 0, "a": 1}, {(0, 1): 2}])
def test_dump_json_writes_a_non_string_key_as_json_dumps_does_or_refuses_it(v):
    # no report has one
    try:
        text = pio.dump_json(v)
    except TypeError:
        return
    assert text == _oracle(v)


def test_dump_json_deterministic(tmp_path):
    data = {"b": 1, "a": [2, 3]}
    t1 = pio.dump_json(data)
    t2 = pio.dump_json(data, str(tmp_path / "x.json"))
    assert t1 == t2
    assert (tmp_path / "x.json").read_text() == t1 + "\n"
