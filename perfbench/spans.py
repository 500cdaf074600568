"""In-memory span recorder for the traced benchmark run.

Spans are recorded only from the benchmark's side: :class:`Tracer`
replaces public functions and methods of the program with wrappers that
time each call, and puts the originals back on :meth:`Tracer.uninstall`.
Nothing under ``src/`` changes.

A span is one row of eight integers in a flat ``array('q')``:

``sid, parent, name, start_ns, end_ns, self_ns, op, thread``

- ``sid`` is a sequence number, unique within the run;
- ``parent`` is the enclosing span on the same thread (``-1`` at the
  top);
- ``self_ns`` is the span's duration minus the time its child spans
  cover, computed while recording;
- ``op`` is shared by the spans of one operation: a span wrapped with
  ``new_op=True`` (a transaction's ``execute_task``, a replayed
  transaction, a service run) starts an operation on its thread, and
  every later span on that thread belongs to it until the next one.

Leaf spans that fire many times per transaction (``Chain.call``, the
journal, ERC20 moves) are wrapped with ``aggregate=True``: they take part
in their parents' self time like any span, but are kept as per-name
``[calls, total_ns, self_ns]`` sums instead of rows, which keeps a
traced scan's memory to tens of megabytes.

Start and end come from ``time.perf_counter_ns``. Every workload runs
the program in the benchmark's own process (threads at most), so all
spans share one recorder.
"""

from __future__ import annotations

import itertools
import pickle
import threading
import time
from array import array
from functools import wraps
from pathlib import Path

STRIDE = 8

_now = time.perf_counter_ns


class Tracer:
    """Records spans of the wrapped functions, in memory, per process."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        #: every thread's aggregate table, for folding at the end.
        self._thread_sums: list[dict] = []
        self._seq = itertools.count(1)
        self.buffer = array("q")
        self.counters: dict[str, int] = {}
        #: folded aggregate spans: name id -> [calls, total_ns, self_ns].
        self.sums: dict[int, list[int]] = {}

    # -- recording -------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def count(self, name: str, n: int = 1) -> None:
        with self._lock:
            self.counters[name] = self.counters.get(name, 0) + n

    def _frames(self):
        local = self._local
        try:
            return local.stack
        except AttributeError:
            local.stack = []
            local.op = 0
            local.tid = threading.get_ident() & 0x7FFFFFFF
            local.sums = {}
            with self._lock:
                self._thread_sums.append(local.sums)
            return local.stack

    def call(self, nid: int, new_op: bool, fn, args=(), kwargs=None, aggregate=False):
        """Run ``fn(*args, **kwargs)`` inside one span."""
        stack = self._frames()
        local = self._local
        sid = next(self._seq)
        if new_op:
            local.op = sid
        parent = stack[-1] if stack else None
        frame = [sid, 0]
        stack.append(frame)
        start = _now()
        try:
            return fn(*args, **(kwargs or {}))
        finally:
            end = _now()
            stack.pop()
            duration = end - start
            if parent is not None:
                parent[1] += duration
            if aggregate:
                sums = local.sums.get(nid)
                if sums is None:
                    sums = local.sums[nid] = [0, 0, 0]
                sums[0] += 1
                sums[1] += duration
                sums[2] += duration - frame[1]
            else:
                self.buffer.extend((
                    sid,
                    parent[0] if parent is not None else -1,
                    nid,
                    start,
                    end,
                    duration - frame[1],
                    local.op,
                    local.tid,
                ))

    # -- wrapping --------------------------------------------------------

    def wrap(self, fn, name: str, *, new_op: bool = False, aggregate: bool = False,
             after=None, error_count: str | None = None):
        """A traced stand-in for ``fn``; ``after(result, args)`` counts
        outcomes, ``error_count`` names the counter a raised exception
        bumps."""
        nid = self.name_id(name)
        tracer = self

        @wraps(fn)
        def traced(*args, **kwargs):
            try:
                result = tracer.call(nid, new_op, fn, args, kwargs, aggregate)
            except Exception:
                if error_count is not None:
                    tracer.count(error_count)
                raise
            if after is not None:
                after(result, args)
            return result

        return traced

    def wrap_generator(self, genfn, name: str):
        """Trace a generator function: one span per resumption, so the
        time its consumer spends between items is not counted."""
        nid = self.name_id(name)
        tracer = self

        @wraps(genfn)
        def traced(*args, **kwargs):
            gen = genfn(*args, **kwargs)
            while True:
                try:
                    item = tracer.call(nid, False, next, (gen,))
                except StopIteration:
                    return
                yield item

        return traced

    def patch(self, owner, attr: str, replacement) -> None:
        """Set ``owner.attr`` (a module or class) and remember the original."""
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def patch_function(self, modules, attr: str, name: str, **options) -> None:
        """Wrap one function once and install the wrapper in every module
        that imported it by name."""
        original = getattr(modules[0], attr)
        traced = self.wrap(original, name, **options)
        for module in modules:
            self.patch(module, attr, traced)

    def patch_method(self, cls, attr: str, name: str, **options) -> None:
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(self.wrap(raw.__func__, name, **options)))
        elif isinstance(raw, classmethod):
            self.patch(cls, attr, classmethod(self.wrap(raw.__func__, name, **options)))
        else:
            self.patch(cls, attr, self.wrap(raw, name, **options))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- collection ------------------------------------------------------

    def collect(self) -> None:
        """Move every thread's aggregate sums into ``self.sums``."""
        with self._lock:
            for table in self._thread_sums:
                for nid, (calls, total, own) in table.items():
                    sums = self.sums.setdefault(nid, [0, 0, 0])
                    sums[0] += calls
                    sums[1] += total
                    sums[2] += own
                table.clear()

    # -- output ----------------------------------------------------------

    def rows(self):
        buf = self.buffer
        for base in range(0, len(buf), STRIDE):
            yield buf[base:base + STRIDE]

    def dump(self, path: Path) -> None:
        """Write every span and counter; the spans as raw int64 rows."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump(
                {
                    "fields": ["sid", "parent", "name", "start_ns", "end_ns",
                               "self_ns", "op", "thread"],
                    "names": self.names,
                    "counters": self.counters,
                    "aggregated": {self.names[nid]: sums for nid, sums in self.sums.items()},
                    "spans": self.buffer.tobytes(),
                },
                handle,
            )
