"""Span tracing for the benchmark's traced runs.

A traced run rebinds the public functions of finrel's modules to wrappers
that record one span per call: a name, a start, an end and the span that
was open when the call began.  The spans of one operation are kept
column-wise in memory, reduced to per-name counts and self times, and then
cleared, so a long run does not grow without bound.

A span's self time is its duration minus the part of that interval its
child spans cover.  Over a well-nested tree the self times of all spans add
up to the durations of the root spans, which is how a traced run checks
itself.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import threading
import time
from array import array
from collections import Counter, defaultdict
from typing import Callable, Iterator, Optional, Sequence

NO_PARENT = -1

LAYERS = ("core", "census", "witness", "mahavier", "io", "cli")

# Public functions left unwrapped, with the reason.
UNTRACED = {
    # a generator stepped once per set bit inside every inner loop; a span
    # per step would swamp the trace and measure the tracer instead
    "core.iter_bits",
}

# Preconditions the witness module checks on entry.  Their spans are opaque:
# calls made inside them record no spans, so the whole check counts as
# witness time.
PRECONDITIONS = frozenset({"is_full", "is_idempotent", "is_trivial"})
PRECONDITION_SPAN = "witness.precondition"


class Tracer:
    """Records spans opened on the thread that created it.

    Wrapped calls made on other threads, or inside an opaque span, pass
    straight through.  ``records`` collects, per span name, whatever the
    wrapper's ``record`` hook extracts from a call's arguments and result.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("q")
        self.starts = array("d")
        self.ends = array("d")
        self.records: dict[str, list] = defaultdict(list)
        self.misnested = 0
        self._stack: list[int] = []
        self._opaque = 0
        self._owner = threading.get_ident()

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int) -> int:
        idx = len(self.starts)
        self.name_ids.append(name_id)
        self.parents.append(self._stack[-1] if self._stack else NO_PARENT)
        self.ends.append(0.0)
        self._stack.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = self.clock()
        if self._stack and self._stack[-1] == idx:
            self._stack.pop()
        else:  # a generator span closed out of order
            self._stack.remove(idx)
            self.misnested += 1

    def clear(self) -> None:
        for col in (self.name_ids, self.parents, self.starts, self.ends):
            del col[:]
        self.records.clear()
        self.misnested = 0

    def wrap(self, name: str, fn: Callable, *, opaque: bool = False,
             record: Optional[Callable] = None) -> Callable:
        """A stand-in for ``fn`` that records a span named ``name`` per call.

        A generator function's span runs from its first step to its end, so
        it also covers what the consumer does between items.
        """
        name_id = self.name_id(name)
        owner = self._owner
        get_ident = threading.get_ident

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                if self._opaque or get_ident() != owner:
                    return (yield from fn(*args, **kwargs))
                idx = self.open(name_id)
                try:
                    return (yield from fn(*args, **kwargs))
                finally:
                    self.close(idx)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._opaque or get_ident() != owner:
                return fn(*args, **kwargs)
            idx = self.open(name_id)
            self._opaque += opaque
            try:
                result = fn(*args, **kwargs)
            finally:
                self._opaque -= opaque
                self.close(idx)
            if record is not None:
                self.records[name].append(record(args, result))
            return result
        return wrapper


def self_times(starts: Sequence[float], ends: Sequence[float],
               parents: Sequence[int]) -> array:
    """Each span's duration minus the union of its children's intervals.

    Spans are listed in start order and a child's interval is clipped to its
    parent's, so overlapping or stray children cannot make the parent's self
    time negative; they show instead as a mismatch between the summed self
    times and the root durations.
    """
    n = len(starts)
    covered = array("d", bytes(8 * n))
    reach = array("d", starts)
    for i in range(n):
        p = parents[i]
        if p == NO_PARENT:
            continue
        lo = starts[i] if starts[i] > reach[p] else reach[p]
        hi = ends[i] if ends[i] < ends[p] else ends[p]
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return array("d", (ends[i] - starts[i] - covered[i] for i in range(n)))


class TraceTotals:
    """Per-name call counts, self and inclusive times, summed over operations.

    ``child_s[name]`` is the inclusive time of the direct children of spans
    called ``name``; ``root_s`` the summed duration of root spans.
    """

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.incl_s: defaultdict = defaultdict(float)
        self.child_s: defaultdict = defaultdict(float)
        self.records: defaultdict = defaultdict(list)
        self.root_s = 0.0
        self.spans = 0
        self.misnested = 0

    def add(self, tracer: Tracer) -> None:
        """Fold in the spans the tracer holds now; the caller then clears it."""
        names, ids, parents = tracer.names, tracer.name_ids, tracer.parents
        starts, ends = tracer.starts, tracer.ends
        own = self_times(starts, ends, parents)
        for i in range(len(starts)):
            name = names[ids[i]]
            dur = ends[i] - starts[i]
            self.calls[name] += 1
            self.self_s[name] += own[i]
            self.incl_s[name] += dur
            p = parents[i]
            if p == NO_PARENT:
                self.root_s += dur
            else:
                self.child_s[names[ids[p]]] += dur
        self.spans += len(starts)
        self.misnested += tracer.misnested
        for name, values in tracer.records.items():
            self.records[name].extend(values)

    def layer_self_s(self) -> dict[str, float]:
        """Self time summed per layer, the part of a span name before the dot."""
        out: defaultdict = defaultdict(float)
        for name, value in self.self_s.items():
            out[name.partition(".")[0]] += value
        return dict(out)

    def consistent(self, rel_tol: float = 1e-6) -> bool:
        """True when the layer self times add up to the root spans."""
        total = sum(self.self_s.values())
        return self.misnested == 0 and abs(total - self.root_s) <= rel_tol * max(self.root_s, 1e-9)


def plan_rebinding(tracer: Tracer, records: dict[str, Callable]) -> list[tuple[object, str, Callable]]:
    """Wrappers for every public function of finrel's modules, per binding.

    A function is rebound wherever a module of the package binds it, since
    modules import each other's functions by name.  The witness module's
    bindings of the precondition predicates get opaque spans of their own.
    ``Relation.__post_init__`` stands for constructing a relation.
    """
    package = importlib.import_module("finrel")
    modules = {layer: importlib.import_module(f"finrel.{layer}") for layer in LAYERS}
    span_of: dict[Callable, str] = {}
    for layer, mod in modules.items():
        for attr, obj in vars(mod).items():
            name = f"{layer}.{attr}"
            if (attr.startswith("_") or name in UNTRACED or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__):
                continue
            span_of[obj] = name

    plan = []
    for mod in (package, *modules.values()):
        for attr, obj in vars(mod).items():
            if not inspect.isfunction(obj) or obj not in span_of:
                continue
            if mod is modules["witness"] and attr in PRECONDITIONS:
                plan.append((mod, attr, tracer.wrap(PRECONDITION_SPAN, obj, opaque=True)))
            else:
                name = span_of[obj]
                plan.append((mod, attr, tracer.wrap(name, obj, record=records.get(name))))
    relation = modules["core"].Relation
    plan.append((relation, "__post_init__",
                 tracer.wrap("core.relation_init", relation.__post_init__)))
    return plan


@contextlib.contextmanager
def rebound(plan: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Install the wrappers of ``plan`` and restore the originals afterwards."""
    saved = []
    try:
        for owner, attr, wrapper in plan:
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
