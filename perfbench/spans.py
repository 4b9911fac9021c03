"""Spans around the program's layer functions, installed from outside.

`Tracer.install` replaces every module binding of each public function
of the layers (and a few class methods) with a timing wrapper, including
the names other modules imported (`filters.event_of`, `cli.parse_universe`,
`lawcheck.SUITES[...]`).  Each call records a span: name, start, end and
parent.  The spans of one operation stay in memory until it ends; `fold`
then turns them into per-function calls and self time (duration minus
the child spans) between operations, outside the timed region.
Folding per operation keeps memory flat: one enumerate at |T| = 16
alone makes about 200 000 spans.
"""

from __future__ import annotations

import importlib
import inspect
import sys
import weakref
from array import array
from time import perf_counter

LAYERS = ("core", "sds", "events", "filters", "logic", "gambles", "lawcheck")

# (module, class, attribute) -> span name, for methods that are layer entry points.
METHODS = {
    ("core", "Universe", "closure"): "core.closure",
    ("core", "Universe", "enumerate_coherent_sdts"): "core.enumerate",
    ("core", "Universe", "is_coherent_sdt"): "core.is_coherent_sdt",
    ("core", "Universe", "is_consistent_sdt"): "core.is_consistent_sdt",
    ("core", "Universe", "sdt_closure_via_intersection"): "core.sdt_closure_via_intersection",
    ("logic", "LogicUniverse", "__init__"): "logic.LogicUniverse.init",
    ("logic", "LogicUniverse", "closure_wffs"): "logic.LogicUniverse.closure_wffs",
    ("gambles", "CredalSet", "feasible_point"): "gambles.CredalSet.feasible_point",
    ("filters", "LatticeFilter", "__post_init__"): "filters.LatticeFilter.validate",
    ("filters", "FilterBase", "__post_init__"): "filters.FilterBase.validate",
}
# Closure-operator factories: the function they return is the span core.operator.
OPERATOR_FACTORIES = (("core", "RuleSet"), ("core", "Table"), ("core", "Backend"))
SUITE_PREFIX = "run_"


def span_name(layer: str, func: str) -> str:
    if layer == "lawcheck" and func.startswith(SUITE_PREFIX) and func.endswith("_suite"):
        return f"lawcheck.{func[len(SUITE_PREFIX):-len('_suite')]}"
    return f"{layer}.{func}"


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.layer_of: list[str] = []
        # Spans of the current operation.
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        # Totals over folded operations.
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.counts = {"core.enumerate.C_total": 0, "sds.selection_maps.yielded": 0,
                       "sds.members_out": 0, "logic.wffs_built": 0,
                       "gambles.solve_lp.infeasible": 0, "lawcheck.cases": 0}
        self.refusals = {layer: 0 for layer in LAYERS}
        self.root_s = 0.0  # total duration of the outermost spans
        self.logic_instances: list[weakref.ref] = []
        self._restore: list[tuple[object, str, object]] = []
        self._capacity_error = None

    # -- wrappers -------------------------------------------------------

    def _id(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(name.split(".", 1)[0])
        return self.ids[name]

    def wrap(self, name: str, fn, after=None):
        """A wrapper recording one span per call; `after(result, args)` counts work."""
        nid = self._id(name)
        layer = self.layer_of[nid]
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, layer_of, refusals = self.stack, self.layer_of, self.refusals
        capacity_error = self._capacity_error
        clock = perf_counter

        def traced(*args, **kwargs):
            i = len(names)
            parent = stack[-1]
            names.append(nid)
            parents.append(parent)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except capacity_error:
                # A refusal is counted where it leaves its layer.
                if parent < 0 or layer_of[names[parent]] != layer:
                    refusals[layer] += 1
                raise
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                result = after(result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _count(self, key, measure):
        counts = self.counts

        def after(result, _args):
            counts[key] += measure(result)
            return result
        return after

    def _counting_iterator(self, result, _args):
        counts = self.counts

        def counted():
            for item in result:
                counts["sds.selection_maps.yielded"] += 1
                yield item
        return counted()

    def _register_logic(self, result, args):
        self.logic_instances.append(weakref.ref(args[0]))
        return result

    # -- install / uninstall -------------------------------------------

    def install(self):
        core = importlib.import_module("desire_kernel.core")
        cli = importlib.import_module("desire_kernel.cli")
        self._capacity_error = core.CapacityError
        counters = {
            "core.enumerate": self._count("core.enumerate.C_total", len),
            "sds.selection_maps": self._counting_iterator,
            "sds.sds_closure": self._count("sds.members_out", len),
            "sds.conjunctive_closure": self._count("sds.members_out", len),
            "logic.generate_wffs": self._count("logic.wffs_built", len),
            "logic.LogicUniverse.init": self._register_logic,
            "gambles.solve_lp": self._count("gambles.solve_lp.infeasible", lambda r: r[0] == "infeasible"),
            "lawcheck.run_suites": self._count("lawcheck.cases", lambda rs: sum(r.cases for r in rs)),
        }
        replace: dict[int, object] = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"desire_kernel.{layer}")
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    name = span_name(layer, attr)
                    replace[id(fn)] = self.wrap(name, fn, counters.get(name))
        logic = importlib.import_module("desire_kernel.logic")
        replace[id(logic._generate_wffs)] = self.wrap(
            "logic.generate_wffs", logic._generate_wffs, counters["logic.generate_wffs"])
        replace[id(cli.main)] = self.wrap("cli.main", cli.main)
        # Every module binding of a wrapped function, and dict values such
        # as lawcheck.SUITES that hold one.
        for modname, mod in list(sys.modules.items()):
            if modname != "desire_kernel" and not modname.startswith("desire_kernel."):
                continue
            for attr, value in list(vars(mod).items()):
                if id(value) in replace and inspect.isfunction(value):
                    self._set(mod, attr, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in replace:
                            self._set_item(value, key, replace[id(item)])
        for (modname, clsname, attr), name in METHODS.items():
            cls = getattr(importlib.import_module(f"desire_kernel.{modname}"), clsname)
            original = cls.__dict__[attr]
            self._set(cls, attr, self.wrap(name, original, counters.get(name)))
        for modname, clsname in OPERATOR_FACTORIES:
            cls = getattr(importlib.import_module(f"desire_kernel.{modname}"), clsname)
            self._set(cls, "operator", self._operator_factory(cls.__dict__["operator"]))

    def _operator_factory(self, factory):
        def operator(spec, universe):
            return self.wrap("core.operator", factory(spec, universe))
        return operator

    def _set(self, owner, attr, value):
        """Rebind a module or class attribute, remembering the original."""
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _set_item(self, mapping, key, value):
        self._restore.append((mapping, key, mapping[key]))
        mapping[key] = value

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore.clear()

    # -- aggregation ----------------------------------------------------

    def fold(self):
        """Add the finished operation's spans to the totals and drop them."""
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        n = len(names)
        child = [0.0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
            else:
                self.root_s += ends[i] - starts[i]
        calls, self_s, label = self.calls, self.self_s, self.names
        for i in range(n):
            key = label[names[i]]
            calls[key] = calls.get(key, 0) + 1
            self_s[key] = self_s.get(key, 0.0) + (ends[i] - starts[i] - child[i])
        for arr in (names, parents, starts, ends):
            del arr[:]

    def layer_self(self, layer: str) -> float:
        return sum(v for k, v in self.self_s.items() if k.split(".", 1)[0] == layer)

    def instances_alive(self) -> int:
        return sum(ref() is not None for ref in self.logic_instances)
