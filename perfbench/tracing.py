"""Spans around the calls that reach each chipfire layer.

The traced run wraps public functions by name in every ``chipfire``
module that holds them (so ``chipfire.rank.bullet_model`` and
``chipfire.cli.bullet_model`` are wrapped as well as the definition in
``chipfire.graph``).  A generator function is wrapped only where it is
imported, not in its own module, whose recursive calls would otherwise
each get a span; its span is the time spent producing items.  Nothing
inside ``src/`` changes.  Spans stay in
memory as parallel arrays and are written out when the run ends.
"""

from __future__ import annotations

import inspect
import sys
import time
import tracemalloc
from array import array
from contextlib import contextmanager

# span name -> (defining module, attribute); the layer is the part before the dot
TARGETS = {
    "graph.build": ("chipfire.graph", "WeightedMultigraph.__init__"),
    "graph.bullet": ("chipfire.graph", "bullet_model"),
    "graph.bridges": ("chipfire.graph", "bridges"),
    "graph.chain_of_2ec": ("chipfire.graph", "is_chain_of_2ec"),
    "divisors.equivalent": ("chipfire.divisors", "equivalent"),
    "divisors.class_of": ("chipfire.divisors", "class_of"),
    "reduction.reduce_to": ("chipfire.reduction", "reduce_to"),
    "reduction.effectivize": ("chipfire.reduction", "effectivize"),
    "enumeration.compositions": ("chipfire.enumeration", "compositions"),
    "enumeration.count": ("chipfire.enumeration", "count_compositions"),
    "rank.rank": ("chipfire.rank", "rank"),
    "rank.riemann_roch_check": ("chipfire.rank", "riemann_roch_check"),
    "rank.clifford_check": ("chipfire.rank", "clifford_check"),
    "reps.semibalanced": ("chipfire.reps", "semibalanced_representative"),
    "reps.uniform": ("chipfire.reps", "uniform_representative"),
    "reps.clifford": ("chipfire.reps", "clifford_representative"),
    "reps.verify": ("chipfire.reps", "verify_certificate"),
    "cli.main": ("chipfire.cli", "main"),
    "cli.parse_graph": ("chipfire.cli", "parse_graph"),
}

# spans recorded by the benchmark itself rather than by a wrapper
OWN_SPANS = ("rank.rank_oracle",)


class Tracer:
    """Records (name, start, end, parent, op id) for every wrapped call."""

    def __init__(self, memory: bool):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op_id = array("i")
        self._stack: list[int] = []
        self.op = -1
        self.paused = False
        self.memory = memory
        self.mem_peak: dict[str, int] = {}
        self.missing: dict[str, str] = {}
        self.observed: dict[str, list] = {}
        self._hooks: dict[int, tuple] = {}
        self._restore: list = []

    def _id(self, name: str) -> int:
        i = self._ids.get(name)
        if i is None:
            i = self._ids[name] = len(self.names)
            self.names.append(name)
        return i

    def _enter(self, name_id: int) -> int:
        idx = len(self.name)
        top = not self._stack
        if top and self.memory:
            tracemalloc.reset_peak()
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op_id.append(self.op)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _exit(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()
        if not self._stack and self.memory:
            # peak of everything traced while the call ran, caches it keeps included
            layer = self.names[self.name[idx]].split(".")[0]
            peak = tracemalloc.get_traced_memory()[1]
            if peak > self.mem_peak.get(layer, 0):
                self.mem_peak[layer] = peak

    @contextmanager
    def span(self, name: str):
        idx = self._enter(self._id(name))
        try:
            yield
        finally:
            self._exit(idx)

    def observe(self, name: str, summarize) -> None:
        """Keep summarize(result) of every traced call of the named span; the
        summary must hold plain data, so no chipfire object outlives its op."""
        self.observed[name] = []
        self._hooks[self._id(name)] = (summarize, self.observed[name])

    def _wrap(self, fn, name: str):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            idx = tracer._enter(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._exit(idx)
            hook = tracer._hooks.get(name_id)
            if hook is not None:
                hook[1].append(hook[0](result))
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _wrap_generator(self, fn, name: str):
        name_id = self._id(name)
        tracer = self

        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            return items if tracer.paused else tracer._timed(name_id, items)

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _timed(self, name_id: int, items):
        """Pass items through; when the consumer finishes or drops them,
        record one span that starts at the first item and lasts the summed
        time spent producing items, so the consumer's work in between stays
        the consumer's.  It is never an outermost span in practice, so it
        takes no memory peak of its own."""
        parent = self._stack[-1] if self._stack else -1
        op = self.op
        first = None
        busy = 0.0
        try:
            while True:
                t0 = time.perf_counter()
                if first is None:
                    first = t0
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    busy += time.perf_counter() - t0
                yield item
        finally:
            if first is not None:
                self.name.append(name_id)
                self.parent.append(parent)
                self.op_id.append(op)
                self.start.append(first)
                self.end.append(first + busy)

    def install(self) -> None:
        """Wrap every target that exists; record the reason for any that does not."""
        for name in OWN_SPANS:
            self._id(name)
        for name, (modname, attr) in TARGETS.items():
            self._id(name)
            module = sys.modules.get(modname)
            if module is None:
                continue  # a module this workload never imports is not exercised
            owner_name, _, leaf = attr.rpartition(".")
            owner = getattr(module, owner_name, None) if owner_name else module
            original = getattr(owner, leaf, None) if owner is not None else None
            if original is None:
                self.missing[name] = f"{modname}.{attr} not found"
                continue
            generator = inspect.isgeneratorfunction(original)
            wrapped = (self._wrap_generator if generator else self._wrap)(original, name)
            if owner_name:
                setattr(owner, leaf, wrapped)
                self._restore.append((owner, leaf, original))
                continue
            for modkey, mod in list(sys.modules.items()):
                if modkey != "chipfire" and not modkey.startswith("chipfire."):
                    continue
                if generator and modkey == modname:
                    continue
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._restore.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore.clear()

    # -- summaries -----------------------------------------------------------

    def spans_named(self, name: str):
        i = self._ids.get(name)
        if i is None:
            return []
        return [k for k in range(len(self.name)) if self.name[k] == i]

    def busy_ms(self, *names: str, timed_only: bool = False) -> float | None:
        """Summed duration of the named spans, not counting a span nested in
        another span of the same set."""
        if all(n in self.missing for n in names):
            return None
        ids = {self._ids[n] for n in names if n in self._ids}
        total = 0.0
        for k in range(len(self.name)):
            if self.name[k] not in ids or (timed_only and self.op_id[k] < 0):
                continue
            p = self.parent[k]
            nested = False
            while p >= 0:
                if self.name[p] in ids:
                    nested = True
                    break
                p = self.parent[p]
            if not nested:
                total += self.end[k] - self.start[k]
        return total * 1e3

    def count(self, name: str, timed_only: bool = True) -> int | None:
        if name in self.missing:
            return None
        return sum(1 for k in self.spans_named(name) if not timed_only or self.op_id[k] >= 0)

    def self_ms(self) -> dict[str, float]:
        """Per layer: span durations minus the time their child spans cover."""
        child = [0.0] * len(self.name)
        for k in range(len(self.name)):
            p = self.parent[k]
            if p >= 0:
                child[p] += self.end[k] - self.start[k]
        out: dict[str, float] = {}
        for k in range(len(self.name)):
            if self.op_id[k] == -2:
                continue
            layer = self.names[self.name[k]].split(".")[0]
            out[layer] = out.get(layer, 0.0) + (self.end[k] - self.start[k] - child[k]) * 1e3
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("index\top\tname\tstart_s\tend_s\tparent\n")
            t0 = self.start[0] if len(self.start) else 0.0
            for k in range(len(self.name)):
                fh.write(
                    f"{k}\t{self.op_id[k]}\t{self.names[self.name[k]]}\t"
                    f"{self.start[k] - t0:.6f}\t{self.end[k] - t0:.6f}\t{self.parent[k]}\n"
                )
