"""Outside-in spans around the public functions of the peiffer modules.

The package has no tracing of its own yet, so the benchmark wraps functions
from outside.  Two facts shape the wrapping:

* modules bind names at import time (``from .groups import quotient`` in
  product, ``from .actions import check_action_table`` in io), so a wrapper
  replaces every module attribute that is the original function, and
  methods are replaced on their class;
* ``peiffer.catalog`` is the ``catalog()`` function that ``__init__``
  re-exports, not the module, so modules are found in ``sys.modules``.

Spans are kept in memory; a span's self time is its duration minus the part
covered by its children.  Inclusive times count only the outermost span of a
name, so recursion or nested loaders are not counted twice.
"""
from __future__ import annotations

import contextlib
import json
import sys
import time
from collections import Counter

# (span name, module, attribute); "Class.method" patches the class.
SPANS = [
    ("cli.main", "cli", "main"),
    *[("io.load", "io", f) for f in (
        "load_json", "group_from_dict", "action_from_dict", "xmod_from_dict",
        "lie_from_dict", "lie_action_from_dict", "lie_xmod_from_dict")],
    *[("io.dump", "io", f) for f in (
        "dump_json", "group_to_dict", "action_to_dict", "xmod_to_dict", "peiffer_to_dict",
        "lie_to_dict", "lie_action_to_dict", "lie_xmod_to_dict")],
    ("groups.validate", "groups", "validate_table"),
    ("groups.construct", "groups", "FiniteGroup.__init__"),
    ("groups.normal_closure", "groups", "normal_closure"),
    ("groups.quotient", "groups", "quotient"),
    ("groups.iso", "groups", "is_isomorphic"),
    ("groups.aut", "groups", "aut_group"),
    ("groups.aut", "groups", "automorphisms"),
    ("groups.homs", "groups", "all_homs"),
    ("groups.hom_check", "groups", "Hom.check"),
    ("actions.semidirect", "actions", "semidirect"),
    ("actions.check", "actions", "check_action_table"),
    ("actions.enumerate", "actions", "enumerate_actions"),
    ("compat.check", "compat", "check_compatible"),
    ("product.build", "product", "peiffer_product"),
    ("product.relators", "product", "peiffer_relators"),
    ("product.strong", "product", "strong_relation_check"),
    ("product.universal", "product", "universal_map"),
    ("xmod.check", "xmod", "check_xmod"),
    ("xmod.induce", "xmod", "induced_mutual_actions"),
    ("catalog.enumerate", "catalog", "enumerate_mutual_actions"),
    ("lie.validate", "lie", "validate_lie"),
    ("lie.action_check", "lie", "check_lie_action"),
    ("lie.xmod_check", "lie", "check_lie_xmod"),
    ("lie.map_check", "lie", "LieMap.check"),
    ("lie.compat", "lie", "lie_compatible"),
    ("lie.semidirect", "lie", "lie_semidirect"),
    ("lie.ideal", "lie", "lie_peiffer_ideal"),
    ("lie.peiffer", "lie", "lie_peiffer"),
    ("lie.induced", "lie", "lie_induced_actions"),
    ("lie.universal", "lie", "lie_universal_map"),
]

# Called too often for a span (|M x| N| (|M| + |N|) times per product, 121k
# for S4 with Z60): count only.
COUNTED = [
    ("compat.eval_calls", "compat", "coproduct_eval"),
    ("lie.rref_calls", "lie", "rref"),
]


def _cells(args, result):
    acting, target = args[0], args[1]
    a, x = acting.order, target.order
    return {"actions.check_cells": a * a * x + a * x * x}


# Sizes read off a wrapped call's arguments or result.
SIZES = {
    "dump_json": lambda args, result: {"io.report_bytes": len(result)},
    "check_action_table": _cells,
    "semidirect": lambda args, result: {"actions.semidirect_elems": result.group.order},
    "peiffer_relators": lambda args, result: {"product.relators": len(result[1])},
    "peiffer_product": lambda args, result: {
        "product.semidirect_order": result.semidirect.group.order,
        "product.order": result.product.order,
    },
    "lie_peiffer_ideal": lambda args, result: {"lie.ideal_dim": len(result[1])},
}

# (metric, unit, kind, source): kind is "incl" or "self" time of a span
# name, "calls" of a span name, "count" of a counter, or "run" for values
# the run itself supplies.
PER_LAYER = [
    ("cli.main_s", "s", "incl", "cli.main"),
    ("cli.report_s", "s", "self", "cli.main"),
    ("io.load_s", "s", "incl", "io.load"),
    ("io.dump_s", "s", "incl", "io.dump"),
    ("io.report_bytes", "bytes", "count", "io.report_bytes"),
    ("groups.validate_s", "s", "incl", "groups.validate"),
    ("groups.construct_s", "s", "incl", "groups.construct"),
    ("groups.construct_calls", "count", "calls", "groups.construct"),
    ("groups.normal_closure_s", "s", "incl", "groups.normal_closure"),
    ("groups.quotient_s", "s", "incl", "groups.quotient"),
    ("groups.iso_s", "s", "incl", "groups.iso"),
    ("groups.iso_calls", "count", "calls", "groups.iso"),
    ("groups.aut_s", "s", "incl", "groups.aut"),
    ("groups.homs_s", "s", "incl", "groups.homs"),
    ("groups.hom_check_s", "s", "incl", "groups.hom_check"),
    ("actions.semidirect_s", "s", "incl", "actions.semidirect"),
    ("actions.semidirect_elems", "count", "count", "actions.semidirect_elems"),
    ("actions.check_s", "s", "incl", "actions.check"),
    ("actions.check_calls", "count", "calls", "actions.check"),
    ("actions.check_cells", "count", "count", "actions.check_cells"),
    ("actions.enumerate_s", "s", "incl", "actions.enumerate"),
    ("compat.check_s", "s", "incl", "compat.check"),
    ("compat.check_calls", "count", "calls", "compat.check"),
    ("compat.eval_calls", "count", "count", "compat.eval_calls"),
    ("product.build_s", "s", "incl", "product.build"),
    ("product.build_self_s", "s", "self", "product.build"),
    ("product.relators", "count", "count", "product.relators"),
    ("product.semidirect_order", "count", "count", "product.semidirect_order"),
    ("product.order", "count", "count", "product.order"),
    ("product.strong_s", "s", "incl", "product.strong"),
    ("product.universal_s", "s", "incl", "product.universal"),
    ("xmod.check_s", "s", "incl", "xmod.check"),
    ("xmod.check_calls", "count", "calls", "xmod.check"),
    ("xmod.induce_s", "s", "incl", "xmod.induce"),
    ("catalog.enumerate_s", "s", "incl", "catalog.enumerate"),
    ("lie.validate_s", "s", "incl", "lie.validate"),
    ("lie.validate_calls", "count", "calls", "lie.validate"),
    ("lie.action_check_s", "s", "incl", "lie.action_check"),
    ("lie.action_check_calls", "count", "calls", "lie.action_check"),
    ("lie.xmod_check_s", "s", "incl", "lie.xmod_check"),
    ("lie.map_check_s", "s", "incl", "lie.map_check"),
    ("lie.compat_s", "s", "incl", "lie.compat"),
    ("lie.semidirect_s", "s", "incl", "lie.semidirect"),
    ("lie.ideal_s", "s", "self", "lie.ideal"),
    ("lie.peiffer_s", "s", "incl", "lie.peiffer"),
    ("lie.induced_s", "s", "incl", "lie.induced"),
    ("lie.universal_s", "s", "incl", "lie.universal"),
    ("lie.rref_calls", "count", "count", "lie.rref_calls"),
    ("lie.ideal_dim", "count", "count", "lie.ideal_dim"),
    ("lie.input_nnz_share", "ratio", "run", None),
    ("trace.wall_s", "s", "run", None),
    ("trace.overhead_s", "s", "run", None),
]


class Tracer:
    """Spans [name, start, end, parent index, operation id] and counters."""

    def __init__(self):
        self.reset()

    def reset(self):
        self.spans = []
        self.stack = []
        self.counts = Counter()
        self.ops = 0  # operations started so far
        self.op = 0  # the running operation, 0 between operations

    def open(self, name) -> int:
        idx = len(self.spans)
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self.op])
        self.stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self.stack.pop()

    def write(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"], "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the time covered by its direct children.

    In one thread the children of a span run one after another inside it,
    so the time they cover is the sum of their durations.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            out[parent] -= end - start
    return out


def outermost(spans):
    """Whether each span has no ancestor of the same name."""
    flags = []
    for name, _, _, parent, _ in spans:
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][3]
        flags.append(p < 0)
    return flags


def layer_metrics(tracer) -> dict:
    """Every per-layer metric except the "run" ones, from one tracer."""
    spans = tracer.spans
    selfs = self_times(spans)
    outer = outermost(spans)
    incl, own, calls = Counter(), Counter(), Counter()
    for i, (name, start, end, _, _) in enumerate(spans):
        calls[name] += 1
        own[name] += selfs[i]
        if outer[i]:
            incl[name] += end - start
    table = {"incl": incl, "self": own, "calls": calls, "count": tracer.counts}
    return {metric: table[kind][source] for metric, _, kind, source in PER_LAYER if kind != "run"}


def _span_wrapper(fn, tracer, name, sizes):
    def wrapper(*args, **kwargs):
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if sizes is not None:
            tracer.counts.update(sizes(args, result))
        return result

    wrapper.__wrapped__ = fn
    return wrapper


def _count_wrapper(fn, counts, key):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)

    wrapper.__wrapped__ = fn
    return wrapper


def package_modules():
    return [m for name, m in sys.modules.items() if name == "peiffer" or name.startswith("peiffer.")]


def install(tracer, workload):
    """Wrap every listed function where it is bound; returns the undo list.

    The workload's ``operation`` method is wrapped too, so that spans carry
    the index of the operation (pair or verb call) that caused them.
    """
    undo = []
    modules = package_modules()

    def patch(owner, attr, new):
        undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, new)

    def wrap_everywhere(home, attr, make):
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(home, cls_name)
            patch(cls, meth, make(vars(cls)[meth]))
            return
        original = getattr(home, attr)
        new = make(original)
        for module in modules:
            for name, value in list(vars(module).items()):
                if value is original:
                    patch(module, name, new)

    for span, mod, attr in SPANS:
        home = sys.modules[f"peiffer.{mod}"]
        wrap_everywhere(home, attr, lambda fn, span=span, attr=attr: _span_wrapper(
            fn, tracer, span, SIZES.get(attr)))
    for key, mod, attr in COUNTED:
        home = sys.modules[f"peiffer.{mod}"]
        wrap_everywhere(home, attr, lambda fn, key=key: _count_wrapper(fn, tracer.counts, key))

    operation = workload.operation

    def traced_operation(*args, **kwargs):
        tracer.ops += 1
        tracer.op = tracer.ops
        try:
            return operation(*args, **kwargs)
        finally:
            tracer.op = 0

    workload.operation = traced_operation
    undo.append((workload, "operation", None))
    return undo


def remove(undo):
    """Put back every binding that install() replaced, newest first."""
    for owner, attr, original in reversed(undo):
        if original is None:
            delattr(owner, attr)
        else:
            setattr(owner, attr, original)


@contextlib.contextmanager
def installed(tracer, workload):
    undo = install(tracer, workload)
    try:
        yield
    finally:
        remove(undo)
