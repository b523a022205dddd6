"""In-memory span recorder for the traced benchmark run.

While installed, the recorder replaces every public function of the layer
modules (``linalg``, ``states``, ``correlations``, ``dynamics``, ``oracle``,
``cli``) with a wrapper that records one span per call: name, start, end,
parent span and the harness item id.  Library code calls across layers
through module attributes (``linalg.tensor(...)``, ``states.random_state(...)``),
so those calls are seen.

Blind spot: a name bound by ``from .x import y`` is a separate reference that
the wrapper cannot replace.  ``DensityMatrix(...)`` inside ``dynamics`` and
``oracle`` and ``bloch_decompose`` inside ``correlations`` are such names, and
classes and methods are not wrapped at all, so their time lands in the self
time of the calling span.

Spans nest on one thread only: the traced run executes its items serially.
"""

from __future__ import annotations

import functools
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("linalg", "states", "correlations", "dynamics", "oracle", "cli")


class Recorder:
    """Collects spans in flat arrays; index i of every array is span i."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.start = array("d")
        self.end = array("d")
        self.item_id = -1
        self._stack: list[int] = []
        self._originals: list[tuple[object, str, object]] = []

    def __len__(self) -> int:
        return len(self.start)

    def _name(self, label: str) -> int:
        if label not in self._ids:
            self._ids[label] = len(self.names)
            self.names.append(label)
        return self._ids[label]

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.item.append(self.item_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, label: str):
        idx = self._open(self._name(label))
        try:
            yield
        finally:
            self._close(idx)

    def _wrap(self, fn, label: str):
        nid = self._name(label)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)

        return traced

    def install(self, modules: dict[str, object]) -> None:
        """Wrap the public functions defined in each ``{layer: module}``."""
        for layer, module in modules.items():
            for attr, fn in vars(module).copy().items():
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(fn)
                    or fn.__module__ != module.__name__
                ):
                    continue
                self._originals.append((module, attr, fn))
                setattr(module, attr, self._wrap(fn, f"{layer}.{attr}"))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._originals):
            setattr(module, attr, fn)
        self._originals.clear()

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.array(self.name_id),
            parent=np.array(self.parent),
            item=np.array(self.item),
            start=np.array(self.start),
            end=np.array(self.end),
        )

    def summary(self, lo: int, hi: int) -> "SpanSummary":
        """Aggregate spans ``lo..hi-1``, which must form whole trees."""
        # copies: a numpy view would pin the arrays against further appends
        nid = np.array(self.name_id[lo:hi])
        parent = np.array(self.parent[lo:hi]) - lo
        dur = np.array(self.end[lo:hi]) - np.array(self.start[lo:hi])
        has_parent = parent >= 0
        covered = np.zeros(dur.size)
        np.add.at(covered, parent[has_parent], dur[has_parent])
        k = len(self.names)
        calls = np.bincount(nid, minlength=k)
        total = np.bincount(nid, weights=dur, minlength=k)
        self_time = np.bincount(nid, weights=dur - covered, minlength=k)
        # linalg spans below each span name, counted once per ancestor span
        linalg_ids = [i for i, n in enumerate(self.names) if n.startswith("linalg.")]
        cursor = parent[np.isin(nid, linalg_ids)]
        linalg_below = np.zeros(k)
        while (cursor := cursor[cursor >= 0]).size:
            np.add.at(linalg_below, nid[cursor], 1.0)
            cursor = parent[cursor]
        return SpanSummary(self.names, calls, total, self_time, linalg_below)


class SpanSummary:
    """Per-name call counts, inclusive and self times over a span range."""

    def __init__(self, names, calls, total, self_time, linalg_below) -> None:
        self.names = list(names)
        self._index = {n: i for i, n in enumerate(names)}
        self._calls, self._total = calls, total
        self._self, self._linalg_below = self_time, linalg_below

    def _sum(self, arr, names) -> float:
        return float(sum(arr[self._index[n]] for n in names if n in self._index))

    def calls(self, *names: str) -> int:
        return int(self._sum(self._calls, names))

    def self_s(self, *names: str) -> float:
        return self._sum(self._self, names)

    def per_call_s(self, *names: str) -> float:
        """Inclusive time per call, 0 when none of the functions was called."""
        n = self.calls(*names)
        return self._sum(self._total, names) / n if n else 0.0

    def linalg_calls_per_call(self, name: str) -> float:
        """Mean number of linalg calls below one call of ``name``."""
        n = self.calls(name)
        return self._sum(self._linalg_below, (name,)) / n if n else 0.0

    def layer_self_s(self, layer: str) -> float:
        return self.self_s(*(n for n in self.names if n.startswith(layer + ".")))
