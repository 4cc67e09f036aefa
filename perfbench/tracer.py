"""In-process tracer for one benchmark worker.

The tracer wraps functions of the ``finform`` package from the outside: it
replaces every binding of a wrapped function in the package's module
namespaces (and the predicates held by ``Formation`` instances), so nothing
under ``src/`` changes. Each wrapped call is timed on a frame stack:

- a call's self time is its duration minus the durations of the wrapped
  calls made directly inside it, so the self times of all frames under a
  root frame add up to the root frame's duration;
- ``total_s`` counts a function's outermost calls only, so recursion is not
  counted twice;
- a *span* call also appends (name, start, end, parent span) to flat
  in-memory arrays that are written out once, when the run ends;
- a *counter* call is timed the same way but records no span, for the
  functions called hundreds of thousands of times;
- a *tally* only counts calls (object constructions).

``repeat_frac`` counts calls whose arguments were already seen in the run,
keyed by content (a hash of each group's Cayley table), so an equal group
rebuilt as a new object counts as a repeat: the share a cache could save.
"""

from __future__ import annotations

import hashlib
import inspect
import json
import time
import weakref
from array import array

SPAN_MODULES = ("lattice", "formations", "subnormal", "morphisms", "construct", "files")
COUNTER_MODULES = ("groups",)

# Functions whose repeat rate is reported, with the arguments that make the key.
REPEAT_ARGS = {
    "lattice.normal_subgroups": 1,
    "lattice.all_subgroups": 1,
    "groups.normal_closure": 2,
    "groups.quotient": 2,
    "groups.centralizer_of_section": 3,
    "groups.Subgroup.as_group": 1,
    "formations.section_product": 3,
    "formations.Formation.contains": 2,
}

SIZES = {
    "lattice.normal_subgroups": len,
    "lattice.all_subgroups": len,
    "construct.semidirect_section": lambda g: g.order,
}

FOUND = ("subnormal.is_k_f_subnormal", "subnormal.is_f_subnormal", "subnormal.is_sigma_subnormal")


class Stat:
    __slots__ = ("calls", "self_s", "total_s", "depth", "repeats", "seen",
                 "size_sum", "found", "budget_exceeded")

    def __init__(self):
        self.calls = 0
        self.self_s = 0.0
        self.total_s = 0.0
        self.depth = 0
        self.repeats = 0
        self.seen = set()
        self.size_sum = 0
        self.found = 0
        self.budget_exceeded = 0


class Tracer:
    def __init__(self):
        self.stats: dict[str, Stat] = {}
        self.stack: list[list] = []  # frames: [child_time, span_index]
        self.names: list[str] = []
        self.name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._group_keys = weakref.WeakKeyDictionary()
        self._budget_errors: tuple[type, ...] = ()

    # -- keys ----------------------------------------------------------------

    def _key(self, value):
        table = getattr(value, "table", None)
        if table is not None and hasattr(value, "_cache"):  # a Group
            key = self._group_keys.get(value)
            if key is None:
                key = hashlib.blake2b(table.tobytes(), digest_size=16).digest()
                self._group_keys[value] = key
            return key
        if hasattr(value, "parent") and hasattr(value, "members"):  # a Subgroup
            return (self._key(value.parent), value.members)
        if hasattr(value, "predicate"):  # a Formation
            return value.name
        if isinstance(value, (list, tuple, set, frozenset)) or hasattr(value, "tolist"):
            return frozenset(int(x) for x in value)
        return None

    # -- frames ----------------------------------------------------------------

    def _stat(self, name: str) -> Stat:
        return self.stats.setdefault(name, Stat())

    def _span_id(self, name: str) -> int:
        nid = self.name_ids.get(name)
        if nid is None:
            nid = self.name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, spans: bool):
        """``fn`` timed on the frame stack, recording a span per call if ``spans``."""
        st = self._stat(name)
        nid = self._span_id(name) if spans else -1
        n_key = REPEAT_ARGS.get(name, 0)
        size = SIZES.get(name)
        found = name in FOUND
        stack = self.stack
        clock = time.perf_counter
        key_of = self._key
        span_name, span_parent = self.span_name, self.span_parent
        span_start, span_end = self.span_start, self.span_end
        budget_errors = self._budget_errors

        def traced(*args, **kwargs):
            st.calls += 1
            if n_key:
                key = tuple(key_of(a) for a in args[:n_key])
                if key in st.seen:
                    st.repeats += 1
                else:
                    st.seen.add(key)
            parent_span = stack[-1][1] if stack else -1
            if spans:
                span = len(span_start)
                span_name.append(nid)
                span_parent.append(parent_span)
                span_start.append(0.0)
                span_end.append(0.0)
            else:
                span = parent_span
            frame = [0.0, span]
            stack.append(frame)
            st.depth += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except budget_errors:
                st.budget_exceeded += 1
                raise
            finally:
                t1 = clock()
                dur = t1 - t0
                stack.pop()
                st.depth -= 1
                st.self_s += dur - frame[0]
                if st.depth == 0:
                    st.total_s += dur
                if stack:
                    stack[-1][0] += dur
                if spans:
                    span_start[span] = t0
                    span_end[span] = t1
            if size is not None:
                st.size_sum += size(result)
            if found and result is not None:
                st.found += 1
            return result

        traced.__wrapped__ = fn
        return traced

    def tally(self, name: str, init):
        """Count calls of ``init`` without timing them."""
        st = self._stat(name)

        def counted(*args, **kwargs):
            st.calls += 1
            return init(*args, **kwargs)

        counted.__wrapped__ = init
        return counted

    # -- installation ----------------------------------------------------------

    def install(self, package) -> None:
        """Wrap the package's public functions and rebind every reference."""
        modules = {
            name: getattr(package, name)
            for name in ("groups", "lattice", "formations", "subnormal",
                         "morphisms", "construct", "files", "verify", "cli")
        }
        errors = package.errors
        self._budget_errors = (errors.LatticeBudgetExceeded, errors.SearchBudgetExceeded)
        replaced: dict[int, object] = {}
        for short in SPAN_MODULES + COUNTER_MODULES:
            mod = modules[short]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                replaced[id(obj)] = self.wrap(f"{short}.{attr}", obj,
                                              spans=short in SPAN_MODULES)
        groups, formations = modules["groups"], modules["formations"]
        groups.Subgroup.as_group = self.wrap(
            "groups.Subgroup.as_group", groups.Subgroup.as_group, spans=False)
        formations.Formation.contains = self.wrap(
            "formations.Formation.contains", formations.Formation.contains, spans=True)
        groups.Group.__init__ = self.tally("groups.Group", groups.Group.__init__)
        groups.Subgroup.__init__ = self.tally("groups.Subgroup", groups.Subgroup.__init__)
        for mod in list(modules.values()) + [package]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])
                elif isinstance(obj, formations.Formation) and id(obj.predicate) in replaced:
                    object.__setattr__(obj, "predicate", replaced[id(obj.predicate)])

    # -- output ----------------------------------------------------------------

    def self_by_name(self) -> dict[str, float]:
        return {name: st.self_s for name, st in self.stats.items()}

    def write_spans(self, path) -> int:
        """Write the spans as JSON lines of [name id, start, end, parent span]."""
        n = len(self.span_start)
        with open(path, "w") as out:
            out.write(json.dumps({"names": self.names}) + "\n")
            for i in range(n):
                out.write(json.dumps([self.span_name[i], self.span_start[i],
                                      self.span_end[i], self.span_parent[i]]) + "\n")
        return n
