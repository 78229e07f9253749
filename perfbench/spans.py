"""Spans around latticelab's public functions, recorded from outside.

`install` wraps each function in LAYERS by rebinding its name in every
latticelab module that holds it (methods are rebound on their class), so
calls between modules are seen as well as the benchmark's own.  Each call
records a span (name, start, end, parent) in memory while the tracer is
active; `summary` turns the spans into calls and self time per name.
Inner helpers that run millions of times (`is_increasing`,
`label_vector`, `_check_chain_set`, ...) are deliberately not wrapped.
"""

import functools
import importlib
import json
import sys
import time
from array import array

# (module, attribute, span name).  "Class.method" rebinds on the class.
LAYERS = (
    ("poset", "canonical_relabeling", "poset.canonical_relabeling"),
    ("poset", "FinitePoset.relabel", "poset.relabel"),
    ("poset", "poset_from_covers", "poset.poset_from_covers"),
    ("lattice", "try_lattice", "lattice.try_lattice"),
    ("lattice", "Lattice.relabel", "lattice.relabel"),
    ("atlas", "enumerate_lattices", "atlas.enumerate_lattices"),
    ("properties", "is_join_semidistributive", "properties.is_join_semidistributive"),
    ("properties", "is_meet_semidistributive", "properties.is_meet_semidistributive"),
    ("properties", "is_distributive", "properties.is_distributive"),
    ("properties", "left_modular_chain", "properties.left_modular_chain"),
    ("shellability", "el_search", "shellability.el_search"),
    ("shellability", "is_el_labeling", "shellability.is_el_labeling"),
    ("shellability", "lm_labeling", "shellability.lm_labeling"),
    ("irreducibles", "length", "irreducibles.length"),
    ("irreducibles", "join_irreducibles", "irreducibles.join_irreducibles"),
    ("irreducibles", "meet_irreducibles", "irreducibles.meet_irreducibles"),
    ("classify", "classify", "classify.classify"),
    ("io", "parse_covers", "io.parse_covers"),
    ("cli", "main", "cli.main"),
)


class Tracer:
    def __init__(self):
        self.active = False
        self.names = []
        self.base = []  # name id -> the wrapped function's span name
        self._name_ids = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack = [-1]
        # Per-name results observed on calls not nested in the same name.
        self.observed = {}

    def _name_id(self, name, base=None):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.base.append(base or name)
        return self._name_ids[name]

    def wrap(self, name, fn, split=None, observe=None):
        """Traced version of fn.

        split(args) gives a suffix that files a call under its own name
        (e.g. one per lattice size); observe(result) is called with the
        result of each call not nested in another call of the same name.
        """
        clock = time.perf_counter
        base_id = self._name_id(name)
        depth = [0]

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if split is None:
                nid = base_id
            else:
                nid = self._name_id(f"{name}.{split(args)}", name)
            index = len(self.start)
            self.span_name.append(nid)
            self.parent.append(self._stack[-1])
            self.end.append(0.0)
            self._stack.append(index)
            depth[0] += 1
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = clock()
                self._stack.pop()
                depth[0] -= 1
            if observe is not None and depth[0] == 0:
                self.observed.setdefault(name, []).append(observe(result))
            return result

        return traced

    def summary(self):
        """{name: {"calls", "self_s", "total_s"}} over the recorded spans.

        Self time is a span's duration minus that of its direct children;
        calls and total time count only spans whose parent has another
        name, so recursion is not counted twice.  Split names are also
        summed under the wrapped function's name.
        """
        n = len(self.start)
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += self.end[i] - self.start[i]
        out = {}
        for i in range(n):
            nid = self.span_name[i]
            duration = self.end[i] - self.start[i]
            p = self.parent[i]
            outer = p < 0 or self.span_name[p] != nid
            for name in {self.names[nid], self.base[nid]}:
                row = out.setdefault(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
                row["self_s"] += duration - child[i]
                if outer:
                    row["calls"] += 1
                    row["total_s"] += duration
        return out

    def write(self, path):
        "Spans as TSV rows (name id, start, end, parent row) after a JSON header."
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"names": self.names}) + "\n")
            for row in zip(self.span_name, self.start, self.end, self.parent):
                fh.write("%d\t%.9f\t%.9f\t%d\n" % row)


def _rebind(original, wrapped):
    for modname, module in list(sys.modules.items()):
        if modname == "latticelab" or modname.startswith("latticelab."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)


def install(tracer, special=None):
    """Wrap every function in LAYERS; `special` maps a span name to the
    keyword arguments (split, observe) of its wrapper."""
    special = special or {}
    importlib.import_module("latticelab.cli")
    for modname, attr, name in LAYERS:
        module = importlib.import_module(f"latticelab.{modname}")
        owner_name, _, fn_name = attr.rpartition(".")
        owner = getattr(module, owner_name) if owner_name else module
        original = getattr(owner, fn_name)
        wrapped = tracer.wrap(name, original, **special.get(name, {}))
        if owner_name:
            setattr(owner, fn_name, wrapped)
        else:
            _rebind(original, wrapped)


def count_calls(tracer, module_name, attr, name, observe=None):
    "Wrap one module's binding only, e.g. the canonicalize calls made from atlas."
    module = importlib.import_module(f"latticelab.{module_name}")
    setattr(module, attr, tracer.wrap(name, getattr(module, attr), observe=observe))
