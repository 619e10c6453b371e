"""Span recorder that times the public functions of ``l1gp`` from outside.

Each hook replaces one module or class attribute with a wrapper that
records a span: the hook name, start, end and the index of the enclosing
span. Spans live in flat typed arrays while the program runs and are
written out only at the end. The layer of a span is the part of its name
before the first dot, which is the ``l1gp`` module the function lives in.

The wrappers call the original function with the original arguments and
return its result unchanged, so a traced run computes exactly what an
untraced one does.
"""

from __future__ import annotations

import functools
import time
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Hook:
    """One attribute to wrap: ``owner.attr`` is recorded as span ``name``.

    ``note(args, result)``, when given, is called after each successful
    call and its value is kept with the span index in ``Tracer.notes``.
    """

    name: str
    owner: Any
    attr: str
    note: Optional[Callable[[tuple, Any], Any]] = None


class Tracer:
    """In-memory span store; spans are appended in start order."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.notes: dict[str, list] = {}
        self._stack = [-1]

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
            self.notes[name] = []
        return self.names.index(name)

    def wrap(self, name: str, fn: Callable, note=None) -> Callable:
        nid = self._intern(name)
        clock, stack = self.clock, self._stack
        name_ids, parents, starts, ends = self.name_id, self.parent, self.start, self.end
        notes = self.notes[name]

        def traced(*args, **kwargs):
            i = len(starts)
            name_ids.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if note is not None:
                notes.append((i, note(args, result)))
            return result

        return functools.update_wrapper(traced, fn)

    @contextmanager
    def installed(self, hooks: list[Hook]):
        """Wrap every hook for the duration of the block, then restore."""
        saved = []
        try:
            for h in hooks:
                orig = vars(h.owner)[h.attr]
                if not callable(orig) or isinstance(orig, (staticmethod, classmethod)):
                    raise TypeError(f"{h.name}: only plain functions can be hooked")
                setattr(h.owner, h.attr, self.wrap(h.name, orig, h.note))
                saved.append((h.owner, h.attr, orig))
            yield self
        finally:
            for owner, attr, orig in reversed(saved):
                setattr(owner, attr, orig)

    def __len__(self) -> int:
        return len(self.start)

    def arrays(self):
        """(name_id, parent, start, end) as numpy arrays."""
        return (
            np.frombuffer(self.name_id, dtype=np.int32).copy(),
            np.frombuffer(self.parent, dtype=np.int32).copy(),
            np.frombuffer(self.start, dtype=np.float64).copy(),
            np.frombuffer(self.end, dtype=np.float64).copy(),
        )

    def save(self, path: str) -> None:
        """Write every span to an ``.npz`` file: names, name_id, parent, start, end."""
        name_id, parent, start, end = self.arrays()
        np.savez(path, names=np.array(self.names), name_id=name_id,
                 parent=parent, start=start, end=end)


class SpanTable:
    """Durations and self times of recorded spans, grouped by name.

    A span's self time is its duration minus the summed durations of the
    spans whose parent it is. Spans never overlap their siblings (one
    thread, one stack), so the children's total is the part of the
    interval they cover.
    """

    def __init__(self, tracer: Tracer):
        self.names = list(tracer.names)
        self.name_id, self.parent, start, end = tracer.arrays()
        self.dur = end - start
        has_parent = self.parent >= 0
        child = np.bincount(
            self.parent[has_parent], weights=self.dur[has_parent], minlength=len(self.dur)
        )
        self.self_time = self.dur - child

    def ids(self, name: str) -> int:
        return self.names.index(name) if name in self.names else -1

    def mask(self, name: str):
        return self.name_id == self.ids(name)

    def calls(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_s(self, name: str) -> float:
        return float(self.self_time[self.mask(name)].sum())

    def total_s(self, name: str) -> float:
        return float(self.dur[self.mask(name)].sum())

    def durations(self, name: str):
        return self.dur[self.mask(name)]

    def _in_layer(self, layer: str):
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return np.isin(self.name_id, ids)

    def layer_self_s(self, layer: str) -> float:
        return float(self.self_time[self._in_layer(layer)].sum())

    def layer_total_s(self, layer: str) -> float:
        """Wall time inside the layer, callees included: the summed duration
        of the layer's spans that have no ancestor in the same layer."""
        inside = self._in_layer(layer)
        outermost = inside.copy()
        anc = self.parent.copy()
        while True:
            live = np.flatnonzero(outermost & (anc >= 0))
            if not len(live):
                break
            outermost[live] = ~inside[anc[live]]
            anc[live] = self.parent[anc[live]]
        return float(self.dur[outermost].sum())

    def parent_is(self, name: str, parent_name: str):
        """Mask of ``name`` spans whose direct parent is a ``parent_name`` span."""
        m = self.mask(name)
        out = m.copy()
        out[m] = (self.parent[m] >= 0) & (
            self.name_id[self.parent[m]] == self.ids(parent_name)
        )
        return out
