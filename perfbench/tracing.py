"""Span recording for the traced run, from outside the program.

The benchmark never edits ``src/repro``. In a traced run it replaces
selected public methods on their classes with wrappers that record one
span per call: name, start, end and parent span. Spans are kept in
memory in compact typed arrays and written out when the run ends.

Self time is a span's duration minus the time its child spans cover.
It is accumulated online per span name, so the per-layer report does
not need to re-read the stored spans. The wrapper's own cost around
each child call would otherwise land in the parent's self time, so it
is measured once on an empty method (the empty-harness time) and
subtracted per child, the way idle power is subtracted before energy
is attributed to a block.
"""

from __future__ import annotations

import json
import threading
import time
from array import array
from pathlib import Path

_clock = time.perf_counter


class SpanRecorder:
    """Records nested spans; one instance per traced run."""

    def __init__(self, threaded: bool = False):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        #: name -> [calls, total seconds, self seconds]
        self.totals: dict[str, list] = {}
        self._local = threading.local()
        self._lock = threading.Lock() if threaded else None
        self._patches: list[tuple[type, str, object]] = []
        #: span id -> wrapper cost charged to the parent per call
        self._overhead: list[float] = []
        self.harness_s = {"plain": 0.0, "probe": 0.0}

    # ------------------------------------------------------------- recording
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _intern(self, name: str) -> int:
        sid = self._ids.get(name)
        if sid is None:
            sid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.totals[name] = [0, 0.0, 0.0]
            self._overhead.append(0.0)
        return sid

    def _open(self, sid: int) -> list:
        """Reserve the span's slot; its parent is the enclosing open span."""
        stack = self._stack()
        lock = self._lock
        if lock is not None:
            lock.acquire()
        try:
            index = len(self.start)
            self.name_id.append(sid)
            self.parent.append(stack[-1][0] if stack else -1)
            self.start.append(0.0)
            self.end.append(0.0)
        finally:
            if lock is not None:
                lock.release()
        frame = [index, 0.0]  # [span index, seconds covered by children]
        stack.append(frame)
        return frame

    def _close(self, frame: list, name: str, t0: float, t1: float) -> None:
        stack = self._stack()
        stack.pop()
        duration = t1 - t0
        if stack:
            stack[-1][1] += duration + self._overhead[self.name_id[frame[0]]]
        index = frame[0]
        self.start[index] = t0
        self.end[index] = t1
        agg = self.totals[name]
        if self._lock is not None:
            with self._lock:
                agg[0] += 1
                agg[1] += duration
                agg[2] += duration - frame[1]
        else:
            agg[0] += 1
            agg[1] += duration
            agg[2] += duration - frame[1]

    def span(self, name: str):
        """Context manager recording one span around a block."""
        return _Span(self, name)

    # ---------------------------------------------------------- instrumenting
    def wrap(self, cls: type, attr: str, name: str, probe=None) -> None:
        """Record a span for every call of ``cls.attr``.

        ``probe(args, before)`` runs outside the timed interval: it is
        called with ``before=None`` ahead of the call and with its own
        first return value after it, so a layer's work counters (issued
        instructions, busy routers) are read where the work happens.
        """
        original = cls.__dict__[attr]
        sid = self._intern(name)
        open_ = self._open
        close = self._close

        if probe is None:
            def traced(*args, **kwargs):
                frame = open_(sid)
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(frame, name, t0, _clock())
        else:
            def traced(*args, **kwargs):
                before = probe(args, None)
                frame = open_(sid)
                t0 = _clock()
                try:
                    return original(*args, **kwargs)
                finally:
                    close(frame, name, t0, _clock())
                    probe(args, before)

        traced.__wrapped__ = original
        self._overhead[sid] = self.harness_s["probe" if probe else "plain"]
        self._patches.append((cls, attr, original))
        setattr(cls, attr, traced)

    def calibrate(self, calls: int = 50_000) -> None:
        """Measure the wrapper's cost per call on an empty method."""
        class _Empty:
            def call(self):
                return None

        def noop_probe(args, before):
            return None

        def per_call(obj) -> float:
            samples = []
            for _ in range(5):
                start = _clock()
                for _ in range(calls):
                    obj.call()
                samples.append((_clock() - start) / calls)
            return sorted(samples)[2]

        bare = per_call(_Empty())
        for kind, probe in (("plain", None), ("probe", noop_probe)):
            scratch = SpanRecorder()
            scratch.wrap(_Empty, "call", "empty", probe=probe)
            self.harness_s[kind] = max(0.0, per_call(_Empty()) - bare)
            scratch.unwrap_all()

    def unwrap_all(self) -> None:
        for cls, attr, original in reversed(self._patches):
            setattr(cls, attr, original)
        self._patches.clear()

    # -------------------------------------------------------------- reporting
    @property
    def span_count(self) -> int:
        return len(self.start)

    def self_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[2]

    def total_s(self, name: str) -> float:
        return self.totals.get(name, (0, 0.0, 0.0))[1]

    def calls(self, name: str) -> int:
        return self.totals.get(name, (0, 0.0, 0.0))[0]

    def write(self, path: Path) -> None:
        """Write every span: a JSON header line, then the four arrays
        (name id u16, parent index i32, start f64, end f64)."""
        header = {
            "names": self.names,
            "count": self.span_count,
            "fields": ["name:u16", "parent:i32", "start:f64", "end:f64"],
            "totals": {
                name: {"calls": c, "total_s": t, "self_s": s}
                for name, (c, t, s) in self.totals.items()
            },
        }
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode("utf-8"))
            for arr in (self.name_id, self.parent, self.start, self.end):
                arr.tofile(fh)
        tmp.replace(path)


class _Span:
    __slots__ = ("rec", "name", "sid", "t0", "frame")

    def __init__(self, rec: SpanRecorder, name: str):
        self.rec = rec
        self.name = name
        self.sid = rec._intern(name)

    def __enter__(self):
        self.frame = self.rec._open(self.sid)
        self.t0 = _clock()
        return self

    def __exit__(self, *exc):
        self.rec._close(self.frame, self.name, self.t0, _clock())
        return False
