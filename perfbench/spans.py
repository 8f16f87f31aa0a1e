"""Span tracer that wraps the public functions of each thomform layer.

The tracer works from outside the library: it replaces functions and
methods by timing wrappers, and rebinds every name under which a
``thomform`` module imported them (``from .km import km_form_at_e`` in
``checks`` and ``theta``, dispatch dicts such as ``_SIGNATURE_CHECKS``), so
no call escapes through a stale binding. Dunder methods are patched on the
class, where the interpreter looks them up.

Spans live in memory as flat arrays (name, parent span, start, end) and are
turned into per-layer metrics, and optionally written to disk, after the
traced region ends. A span's self time is its duration minus the durations
of its direct child spans, so the self times of all spans under the root add
up to the root's duration.
"""

from __future__ import annotations

import inspect
import sys
import time
import types
from array import array

# Traced layers, in stack order. ``cli`` is left out: it only dispatches to
# ``checks`` and the form printers.
LAYERS = ("scalars", "superforms", "liealg", "km", "mq", "checks", "theta")

# Module-level aliases of methods (``wedge(a, b)`` is ``a.wedge(b)``): the
# method is traced, so tracing the alias too would count each call twice.
ALIASES = {
    "scalars": {"polygauss_mul", "polygauss_derive", "polygauss_eval"},
    "superforms": {"wedge", "berezin", "contract", "exp_even"},
}

# Methods of these classes are named without the class, as in
# ``superforms.wedge`` for ``SuperForm.wedge``.
BARE_CLASSES = {"SuperForm"}

# Counted but not timed: called often enough that a span would cost more
# than the work it measures.
COUNT_ONLY = {"superforms.merge_sorted"}

# Functions whose distinct first arguments are recorded, to report how
# many times each form is built per signature.
DISTINCT_ARG = {"km.km_form_at_e", "liealg.curvature_at_e"}

DUNDERS = {
    "__init__": "init",
    "__add__": "add",
    "__sub__": "sub",
    "__neg__": "neg",
    "__mul__": "mul",
    "__rmul__": "mul",
    "__pow__": "pow",
    "__eq__": "eq",
    "__hash__": "hash",
    "__float__": "float",
}

ROOT = "bench.body"


def _defined_in(fn, module) -> bool:
    return getattr(getattr(fn, "__code__", None), "co_filename", None) == module.__file__


def _targets(module, layer):
    """(owner, attribute, function, span name, is_static) for every public
    function of a layer module, methods included."""
    out = []
    for attr, obj in vars(module).items():
        if attr.startswith("_") or attr in ALIASES.get(layer, ()):
            continue
        if inspect.isfunction(obj) and _defined_in(obj, module):
            out.append((module, attr, obj, f"{layer}.{attr}", False))
        elif inspect.isclass(obj) and obj.__module__ == module.__name__:
            prefix = "" if obj.__name__ in BARE_CLASSES else f"{obj.__name__}."
            for mattr, member in vars(obj).items():
                static = isinstance(member, staticmethod)
                fn = member.__func__ if static else member
                if not (inspect.isfunction(fn) and _defined_in(fn, module)):
                    continue
                if mattr.startswith("_") and mattr not in DUNDERS:
                    continue
                short = DUNDERS.get(mattr, mattr)
                out.append((obj, mattr, fn, f"{layer}.{prefix}{short}", static))
    return out


class Tracer:
    """Installs timing wrappers on the thomform package and records spans."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counters: dict[str, int] = {}
        self.distinct: dict[str, set] = {name: set() for name in DISTINCT_ARG}
        self._restore: list = []

    def _nid(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    # -- wrappers ------------------------------------------------------
    def _timed(self, fn, name):
        nid = self._nid(name)
        names, parents = self.span_name, self.span_parent
        starts, ends, stack = self.span_start, self.span_end, self._stack
        clock = time.perf_counter
        seen = self.distinct.get(name)

        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if seen is not None:
                seen.add(args[0])
            return result

        return traced

    def _counted(self, fn, name):
        counters = self.counters
        key = f"{name}.calls"

        def counted(*args, **kwargs):
            counters[key] = counters.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _results(self, fn, key, measure):
        """Adds ``measure(result)`` to a counter on every call."""
        counters = self.counters

        def measured(*args, **kwargs):
            result = fn(*args, **kwargs)
            counters[key] = counters.get(key, 0) + measure(result)
            return result

        return measured

    # -- install / remove ----------------------------------------------
    def _set(self, owner, attr, value):
        if isinstance(owner, dict):
            self._restore.append((owner, attr, owner[attr]))
            owner[attr] = value
        else:
            self._restore.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, value)

    def install(self):
        """Wrap every public function of every traced layer and rebind all
        references to it held by thomform modules."""
        modules = {
            name: mod for name, mod in list(sys.modules.items())
            if name == "thomform" or name.startswith("thomform.")
        }
        replaced: dict[int, object] = {}
        for layer in LAYERS:
            module = modules[f"thomform.{layer}"]
            for owner, attr, fn, name, static in _targets(module, layer):
                if id(fn) not in replaced:
                    if name in COUNT_ONLY:
                        wrapper = self._counted(fn, name)
                    else:
                        wrapper = self._timed(fn, name)
                    if name == "theta.enumerate_vectors":
                        wrapper = self._results(wrapper, "theta.vectors", len)
                    replaced[id(fn)] = wrapper
                wrapper = replaced[id(fn)]
                self._set(owner, attr, staticmethod(wrapper) if static else wrapper)
        # Rebind names bound at import time, and function values of
        # module-level dispatch dicts.
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and id(value) in replaced:
                    self._set(mod, attr, replaced[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and id(item) in replaced:
                            self._set(value, key, replaced[id(item)])
        theta = modules["thomform.theta"]
        self._set(theta, "itertools", self._counting_itertools(theta.itertools))

    def _counting_itertools(self, real):
        """Stand-in for ``itertools`` inside ``thomform.theta`` whose
        ``product`` counts the points the box scan draws from it."""
        counters = self.counters

        def product(*iterables, **kwargs):
            for item in real.product(*iterables, **kwargs):
                counters["theta.box_points"] = counters.get("theta.box_points", 0) + 1
                yield item

        proxy = types.ModuleType(real.__name__)
        proxy.__dict__.update(vars(real))
        proxy.product = product
        return proxy

    def uninstall(self):
        while self._restore:
            owner, attr, value = self._restore.pop()
            if isinstance(owner, dict):
                owner[attr] = value
            else:
                setattr(owner, attr, value)

    def root(self, fn):
        """``fn`` wrapped as the root span, to which every other span is
        a descendant."""
        return self._timed(fn, ROOT)

    # -- results ---------------------------------------------------------
    def summary(self) -> dict:
        """Per span name: calls, inclusive seconds and self seconds; plus
        the counters and the number of distinct first arguments."""
        import numpy as np

        nid = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        own = dur - child
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_s = np.bincount(nid, weights=own, minlength=k)
        spans = {
            name: {"calls": int(calls[i]), "total_s": float(total[i]), "self_s": float(self_s[i])}
            for i, name in enumerate(self.names)
        }
        return {
            "spans": spans,
            "counters": dict(self.counters),
            "distinct": {name: len(args) for name, args in self.distinct.items()},
        }

    def write(self, path):
        """Write every span (name, parent, start, end) as a compressed npz."""
        import numpy as np

        np.savez_compressed(
            path,
            names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.int32),
            parent=np.frombuffer(self.span_parent, dtype=np.int32),
            start=np.frombuffer(self.span_start),
            end=np.frombuffer(self.span_end),
        )
