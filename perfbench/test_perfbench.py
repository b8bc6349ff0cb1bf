"""Self-test of the benchmark, kept out of the package's own test suite.

    python3 -m pytest -q perfbench/test_perfbench.py

It runs one pass of every workload on two seeds, about 30 s on a 2-core
x86 VM.
"""
from __future__ import annotations

import json
import os
import sys
import tempfile
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402

SEEDS = (0, 1)


@pytest.fixture(scope="module")
def pk():
    return run.load_package()


@pytest.mark.parametrize("seed", SEEDS)
def test_relabelled_groups_are_groups_with_identity_moved(pk, seed):
    rng = wl.rng_for("selftest", seed)
    tables = [G.table for G in pk.catalog_module.catalog()]
    tables += [wl.symmetric_table(4), wl.cyclic_table(20)]
    for table in tables:
        new = wl.relabel_table(table, rng)
        assert pk.groups.validate_table(tuple(map(tuple, new))).ok
        assert wl.identity_of(new) != 0
        assert sorted(pk.groups.FiniteGroup(new).order_multiset()) == sorted(
            pk.groups.FiniteGroup(table).order_multiset())


@pytest.mark.parametrize("seed", SEEDS)
def test_transported_lie_algebras_are_valid(pk, seed):
    b3 = wl.LieDense.brackets(wl.rng_for("lie_dense", seed))
    L = pk.lie.LieAlgebra(6, b3, check=False)
    assert pk.lie.validate_lie(L).ok
    props = wl.lie_properties(b3)
    assert props["nnz_share"] > 0.5 and props["max_denominator"] > 1

    sparse = wl.LieB3.brackets(wl.rng_for("lie_b3", seed))
    assert pk.lie.validate_lie(pk.lie.LieAlgebra(6, sparse, check=False)).ok
    props = wl.lie_properties(sparse)
    assert (props["constants"], props["max_denominator"]) == (216, 1)
    assert props["nnz_share"] < 0.1


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_invariants_hold(name, seed):
    with tempfile.TemporaryDirectory() as workdir:
        workload = run.set_up(name, seed, workdir)
        ops, problems = workload.run_pass()
    assert problems == []
    assert [(op.label, op.error) for op in ops if op.error] == []
    assert len(ops) == {"family": wl.FAMILY_PAIRS, "s4_z20": 1}.get(name, 3)


def test_set_up_samples_leave_the_live_modules_imported(monkeypatch):
    with tempfile.TemporaryDirectory() as workdir:
        monkeypatch.setattr(run, "SETUP_DIR", os.path.join(workdir, "setup"))
        workload = run.set_up("lie_b3", 0, os.path.join(workdir, "run"))
        assert run.sample_set_up(types.SimpleNamespace(workload="lie_b3", seed=0)) > 0
        assert sys.modules["peiffer.lie"] is workload.pk.lie
        assert sys.modules["peiffer"] is workload.pk.package
        ops, problems = workload.run_pass()
    assert problems == [] and [op.error for op in ops] == [None] * 3


def test_checks_reject_wrong_reports():
    good = {"order": 480, "compatible": True, "lM": list(range(24)), "lN": list(range(20))}
    assert wl.S4Z20.check(good) is None
    assert wl.S4Z20.check({**good, "order": 240}) is not None
    assert wl.S4Z20.check({**good, "lN": [0] * 20}) is not None


def test_self_time_on_nested_spans():
    t = tracing.Tracer()
    # name, start, end, parent, op
    t.spans = [
        ["a", 0.0, 10.0, -1, 1],
        ["b", 1.0, 4.0, 0, 1],
        ["a", 5.0, 9.0, 0, 1],
        ["c", 6.0, 7.5, 2, 1],
        ["b", 11.0, 12.0, -1, 2],
    ]
    assert tracing.self_times(t.spans) == [3.0, 3.0, 2.5, 1.5, 1.0]
    assert tracing.outermost(t.spans) == [True, True, False, True, True]
    t.counts["compat.eval_calls"] = 7
    spans = {"a": "cli.main", "b": "io.load", "c": "groups.quotient"}
    for s in t.spans:
        s[0] = spans[s[0]]
    m = tracing.layer_metrics(t)
    assert m["cli.main_s"] == 10.0  # the nested "a" is not counted twice
    assert m["cli.report_s"] == 3.0 + 2.5
    assert m["io.load_s"] == 4.0
    assert m["groups.quotient_s"] == 1.5
    assert m["compat.eval_calls"] == 7


def _bindings():
    seen = {}
    for module in tracing.package_modules():
        for name, value in vars(module).items():
            seen[(module.__name__, name)] = value
            if isinstance(value, type) and value.__module__ == module.__name__:
                for attr, member in vars(value).items():
                    seen[(module.__name__, name, attr)] = member
    return seen


def test_wrappers_reach_every_binding_and_restore_it():
    with tempfile.TemporaryDirectory() as workdir:
        workload = run.set_up("family", 0, workdir)
    pk = workload.pk
    before = _bindings()
    original_quotient = pk.groups.quotient
    tracer = tracing.Tracer()
    with tracing.installed(tracer, workload):
        assert pk.product.quotient.__wrapped__ is original_quotient
        assert pk.io.check_action_table is pk.actions.check_action_table
        assert pk.package.is_isomorphic is pk.groups.is_isomorphic
        assert pk.package.is_isomorphic.__wrapped__ is not None
        assert pk.groups.FiniteGroup.__init__.__wrapped__ is not None
        M, N = workload.groups[:2]
        mut = pk.catalog_module.enumerate_mutual_actions(M, N)[0]
        workload.operation(mut)
        assert tracer.ops == 1 and {s[4] for s in tracer.spans} == {0, 1}
        assert tracer.counts["compat.eval_calls"] > 0
    after = _bindings()
    assert after.keys() == before.keys()
    assert [k for k in before if after[k] is not before[k]] == []
    assert "operation" not in vars(workload)


def test_benchmark_json_matches_the_code():
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {w["name"] for w in spec["workloads"]} <= set(wl.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == [
        (name, unit) for name, unit, _, _ in tracing.PER_LAYER]
    assert {m["name"] for m in spec["end_to_end"]} == set(run.END_TO_END)
