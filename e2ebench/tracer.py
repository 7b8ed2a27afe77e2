"""Span tracing from outside the program, for the traced runs only.

:class:`Tracer` replaces public functions of the program's layers with
wrappers that record one span per call (name, start, end, parent) in
flat in-memory arrays, and optionally a count per call (batches returned,
bytes written). The spans are written out when the run ends. A layer's
self time is its spans' time minus the time their child spans cover,
so the per-layer times add up instead of nesting.

A target that no longer exists (renamed or removed by a later change) is
listed as absent and its metrics read 0; it never stops the run.
"""

from __future__ import annotations

import ctypes
import gc
import gzip
import importlib
import json
import os
import threading
import time
from array import array
from contextlib import contextmanager
from typing import Callable, Dict, List, Optional, Sequence, Tuple

PAGE = os.sysconf("SC_PAGE_SIZE") if hasattr(os, "sysconf") else 4096


def rss_bytes() -> int:
    """Resident set size of this process, from /proc/self/statm."""
    with open("/proc/self/statm", "rb") as handle:
        return int(handle.read().split()[1]) * PAGE


def written_bytes() -> int:
    """Bytes this process has passed to write(2) so far (/proc/self/io)."""
    with open("/proc/self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    raise OSError("no wchar line in /proc/self/io")


def _release_free_memory() -> None:
    """Collect garbage and hand freed heap back to the OS (glibc only).

    Without this, memory freed by an earlier round stays resident and is
    reused, and a span's RSS growth reads near zero.
    """
    gc.collect()
    try:
        ctypes.CDLL("libc.so.6").malloc_trim(0)
    except (OSError, AttributeError):
        pass


class RssPeak:
    """Samples RSS on a thread while a span runs; peak above the start.

    Freed memory is released before the span starts, outside its time.
    """

    def __init__(self, interval_s: float = 0.005) -> None:
        self.interval_s = interval_s

    def enter(self):
        _release_free_memory()
        base = rss_bytes()
        state = {"peak": base, "stop": threading.Event()}

        def sample() -> None:
            while not state["stop"].wait(self.interval_s):
                state["peak"] = max(state["peak"], rss_bytes())

        thread = threading.Thread(target=sample, name="e2ebench-rss", daemon=True)
        thread.start()
        return base, state, thread

    def exit(self, token, result) -> float:
        base, state, thread = token
        state["stop"].set()
        thread.join()
        state["peak"] = max(state["peak"], rss_bytes())
        return (state["peak"] - base) / 1e6


class WriteBytes:
    """Bytes written during a span, in MB."""

    def enter(self):
        return written_bytes()

    def exit(self, token, result) -> float:
        return (written_bytes() - token) / 1e6


class ResultLen:
    """Length of what the wrapped call returned (0 if it has none)."""

    def enter(self):
        return None

    def exit(self, token, result) -> float:
        try:
            return float(len(result))
        except TypeError:
            return 0.0


class Target:
    """One function to wrap: ``module``, dotted ``attr``, span ``name``.

    *measures* maps a metric name to a probe (``enter``/``exit``) whose
    ``exit`` value is summed into that metric over every call.
    """

    def __init__(self, module: str, attr: str, name: str, measures: Optional[Dict[str, object]] = None) -> None:
        self.module = module
        self.attr = attr
        self.name = name
        self.measures = measures or {}


class Tracer:
    def __init__(self) -> None:
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start_ns = array("q")
        self.end_ns = array("q")
        self.totals: Dict[str, float] = {}
        self.absent: List[str] = []
        self._stack: List[int] = []
        self._installed: List[Tuple[object, str, object]] = []

    # -- spans ---------------------------------------------------------------

    def _nid(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def begin(self, name: str) -> int:
        sid = len(self.start_ns)
        self.name_id.append(self._nid(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end_ns.append(0)
        self._stack.append(sid)
        self.start_ns.append(time.perf_counter_ns())
        return sid

    def end(self, sid: int) -> None:
        self.end_ns[sid] = time.perf_counter_ns()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        """A span around a block of the benchmark's own code."""
        sid = self.begin(name)
        try:
            yield
        finally:
            self.end(sid)

    # -- wrapping ------------------------------------------------------------

    def _wrapper(self, fn: Callable, target: Target) -> Callable:
        tracer = self
        name = target.name
        measures = list(target.measures.items())
        for metric, _ in measures:
            self.totals.setdefault(metric, 0.0)

        def traced(*args, **kwargs):
            tokens = [probe.enter() for _, probe in measures]
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            for (metric, probe), token in zip(measures, tokens):
                tracer.totals[metric] += probe.exit(token, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def install(self, targets: Sequence[Target]) -> None:
        """Wrap every target; :meth:`uninstall` puts the originals back."""
        self.absent = []
        for target in targets:
            try:
                owner = importlib.import_module(target.module)
                path = target.attr.split(".")
                for part in path[:-1]:
                    owner = getattr(owner, part)
                leaf = path[-1]
                raw = vars(owner)[leaf] if isinstance(owner, type) else getattr(owner, leaf)
            except (ImportError, AttributeError, KeyError):
                self.absent.append(f"{target.module}:{target.attr}")
                for metric in target.measures:
                    self.totals.setdefault(metric, 0.0)
                self._nid(target.name)
                continue
            self._nid(target.name)
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrapper(raw.__func__, target))
            elif isinstance(raw, staticmethod):
                wrapped = staticmethod(self._wrapper(raw.__func__, target))
            else:
                wrapped = self._wrapper(raw, target)
            self._installed.append((owner, leaf, raw))
            setattr(owner, leaf, wrapped)

    def uninstall(self) -> None:
        for owner, leaf, raw in reversed(self._installed):
            setattr(owner, leaf, raw)
        self._installed.clear()

    # -- results -------------------------------------------------------------

    def _under(self, root_name: Optional[str]) -> List[bool]:
        """Which spans descend from a span called *root_name* (all if None)."""
        n = len(self.start_ns)
        if root_name is None:
            return [True] * n
        root = self._name_ids.get(root_name)
        inside = [False] * n
        for sid in range(n):
            parent = self.parent[sid]
            # Parents are recorded before their children, so one pass
            # in span order settles every ancestor first.
            inside[sid] = parent >= 0 and (inside[parent] or self.name_id[parent] == root)
        return inside

    def self_times(self, root_name: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """Per span name: calls, total seconds and self seconds.

        With *root_name*, only spans under spans of that name count.
        """
        n = len(self.start_ns)
        inside = self._under(root_name)
        child = [0] * n
        for sid in range(n):
            parent = self.parent[sid]
            if parent >= 0:
                child[parent] += self.end_ns[sid] - self.start_ns[sid]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        for sid in range(n):
            if not inside[sid]:
                continue
            duration = self.end_ns[sid] - self.start_ns[sid]
            entry = out[self.names[self.name_id[sid]]]
            entry["calls"] += 1
            entry["total_s"] += duration / 1e9
            entry["self_s"] += (duration - child[sid]) / 1e9
        return out

    def total_within(self, root_name: str, names: Sequence[str]) -> float:
        """Seconds spent in spans called *names* under spans *root_name*."""
        wanted = {self._name_ids[name] for name in names if name in self._name_ids}
        inside = self._under(root_name)
        return sum(
            self.end_ns[sid] - self.start_ns[sid]
            for sid in range(len(self.start_ns))
            if inside[sid] and self.name_id[sid] in wanted
        ) / 1e9

    def dump(self, path: str) -> None:
        """Write every span, gzip-compressed columnar JSON."""
        base = self.start_ns[0] if len(self.start_ns) else 0
        doc = {
            "names": self.names,
            "absent": self.absent,
            "name": list(self.name_id),
            "parent": list(self.parent),
            "start_us": [(t - base) // 1000 for t in self.start_ns],
            "end_us": [(t - base) // 1000 for t in self.end_ns],
        }
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=3) as handle:
            json.dump(doc, handle, separators=(",", ":"))


__all__ = [
    "ResultLen",
    "RssPeak",
    "Target",
    "Tracer",
    "WriteBytes",
    "rss_bytes",
    "written_bytes",
]
