"""Spans recorded from outside the program, and the per-layer time account.

The traced run replaces public functions and methods of ``repro`` (and the
numpy/scipy kernels ``repro`` calls) with thin wrappers.  Each wrapped
call records one span: a name, a start, an end and its parent span.
Wrappers may also attach counts to the span (instructions evolved, cache
hit or miss, computed flops).  ``repro`` itself is never edited.

The wrappers are installed before the campaign pool forks, so pool
workers inherit them.  A worker keeps its spans in memory and appends
them as one JSON line to ``spans-<pid>.jsonl`` whenever its outermost
span closes, i.e. once per campaign point.  The main process keeps its
spans in memory; :func:`load_worker_spans` reads the worker files back
when the run ends.

A span's *layer* is the first dot-separated part of its name.
:func:`layer_account` splits the main process's wall time across layers
by self time.  While the main process waits on the pool (``exec.wait``),
each instant is split evenly between the layers the busy workers are in
at that instant; an instant with no busy worker span is executor time
(dispatch, pickling, pipes, idle workers).
"""

from __future__ import annotations

import functools
import json
import os
import time
from collections import defaultdict
from pathlib import Path

LAYERS = ("exec", "sqed", "qaoa", "reservoir", "compile", "core", "kernel")

#: Main-process span whose self time is spent waiting on pool workers.
WAIT = "exec.wait"


class Tracer:
    """Span recorder for one process tree.

    Args:
        out_dir: directory that pool workers append their spans to.
    """

    def __init__(self, out_dir: str | Path) -> None:
        self.out_dir = Path(out_dir)
        self.main_pid = os.getpid()
        self._pid = self.main_pid
        #: Finished and open spans: ``[name, start, end, parent, counts]``;
        #: ``parent`` indexes this list (-1 for a root).
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording -------------------------------------------------------
    def _open(self, name: str) -> list:
        pid = os.getpid()
        if pid != self._pid:
            # A forked worker inherits the parent's buffer: start empty.
            self._pid = pid
            self.spans = []
            self._stack = []
        parent = self._stack[-1] if self._stack else -1
        record = [name, time.perf_counter(), None, parent, None]
        self._stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list, counts: dict | None) -> None:
        record[2] = time.perf_counter()
        if counts:
            record[4] = {**(record[4] or {}), **counts}
        self._stack.pop()
        if not self._stack and self._pid != self.main_pid:
            self._flush()

    def _flush(self) -> None:
        line = json.dumps({"pid": self._pid, "spans": self.spans}) + "\n"
        with open(self.out_dir / f"spans-{self._pid}.jsonl", "a") as handle:
            handle.write(line)
        self.spans = []

    def add_count(self, key: str, amount: float = 1) -> None:
        """Add to a count on the innermost open span (no span: dropped)."""
        if self._stack and os.getpid() == self._pid:
            record = self.spans[self._stack[-1]]
            counts = record[4] if record[4] is not None else {}
            counts[key] = counts.get(key, 0) + amount
            record[4] = counts

    # -- wrapping --------------------------------------------------------
    def wrap(self, owner, attr: str, name: str, counts=None) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``counts(args, kwargs, result)`` may return a dict of counts that
        is attached to the span.
        """
        original = _raw(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            record = self._open(name)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self._close(
                    record, counts(args, kwargs, result) if counts else None
                )

        self._patch(owner, attr, original, wrapper)

    def wrap_generator(self, owner, attr: str, name: str) -> None:
        """Wrap a generator method: one span per ``next()``."""
        original = _raw(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            iterator = original(*args, **kwargs)
            while True:
                record = self._open(name)
                try:
                    item = next(iterator)
                except StopIteration:
                    return
                finally:
                    self._close(record, None)
                yield item

        self._patch(owner, attr, original, wrapper)

    def count_calls(self, owner, attr: str, key: str) -> None:
        """Count calls on the enclosing span without recording a span."""
        original = _raw(owner, attr)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            self.add_count(key)
            return original(*args, **kwargs)

        self._patch(owner, attr, original, wrapper)

    def _patch(self, owner, attr, original, wrapper) -> None:
        setattr(owner, attr, wrapper)
        self._patches.append((owner, attr, original))

    def uninstall(self) -> None:
        """Restore every wrapped attribute."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()


def _raw(owner, attr: str):
    """The attribute as stored (plain function for class methods)."""
    if isinstance(owner, type):
        return owner.__dict__[attr]
    return getattr(owner, attr)


# ----------------------------------------------------------------------
# reading spans back
# ----------------------------------------------------------------------
class Span:
    __slots__ = ("name", "start", "end", "parent", "counts", "pid")

    def __init__(self, name, start, end, parent, counts, pid):
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.counts = counts or {}
        self.pid = pid

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]


def _chunk_spans(raw: list, pid: int) -> list[Span]:
    """Spans of one buffer, parents resolved to objects; open spans dropped."""
    out: list[Span | None] = []
    for name, start, end, parent, counts in raw:
        if end is None:
            out.append(None)
            continue
        parent_span = out[parent] if parent >= 0 else None
        out.append(Span(name, start, end, parent_span, counts, pid))
    return [span for span in out if span is not None]


def main_spans(tracer: Tracer) -> list[Span]:
    return _chunk_spans(tracer.spans, tracer.main_pid)


def load_worker_spans(out_dir: str | Path) -> list[Span]:
    """Every span the pool workers flushed under ``out_dir``."""
    spans: list[Span] = []
    for path in sorted(Path(out_dir).glob("spans-*.jsonl")):
        for line in path.read_text().splitlines():
            try:
                chunk = json.loads(line)
            except json.JSONDecodeError:
                continue  # a worker killed mid-write leaves a torn line
            spans.extend(_chunk_spans(chunk["spans"], chunk["pid"]))
    return spans


def self_segments(spans: list[Span]) -> list[tuple[float, float, Span]]:
    """``(start, end, span)`` pieces where ``span`` is the innermost span."""
    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[id(span.parent)].append(span)
    out = []
    for span in spans:
        cursor = span.start
        for child in sorted(children.get(id(span), ()), key=lambda s: s.start):
            if child.start > cursor:
                out.append((cursor, child.start, span))
            cursor = max(cursor, child.end)
        if span.end > cursor:
            out.append((cursor, span.end, span))
    return out


def layer_account(
    main: list[Span], workers: list[Span], start: float, end: float
) -> dict[str, float]:
    """Seconds of the main-process window ``[start, end]`` per layer.

    Main-process self time goes to the span's layer, except ``exec.wait``
    self time, which is split between the layers busy pool workers are
    in (see the module docstring).  ``uncovered`` is the part of the
    window outside every recorded span.
    """
    account = dict.fromkeys(LAYERS, 0.0)
    waits: list[tuple[float, float]] = []
    for seg_start, seg_end, span in self_segments(main):
        lo, hi = max(seg_start, start), min(seg_end, end)
        if hi <= lo:
            continue
        if span.name == WAIT:
            waits.append((lo, hi))
        else:
            account[span.layer] += hi - lo
    # One sweep over wait windows and worker self segments.
    events: list[tuple[float, int, object]] = []
    for lo, hi in waits:
        events.append((lo, 1, None))
        events.append((hi, -1, None))
    if waits:
        w_lo, w_hi = min(w[0] for w in waits), max(w[1] for w in waits)
        for seg_start, seg_end, span in self_segments(workers):
            if seg_end > w_lo and seg_start < w_hi:
                events.append((seg_start, 2, (span.pid, span.layer)))
                events.append((seg_end, -2, (span.pid, span.layer)))
    events.sort(key=lambda e: (e[0], e[1]))
    in_wait = 0
    busy: dict[int, str] = {}
    previous = None
    for t, kind, payload in events:
        if previous is not None and in_wait > 0 and t > previous:
            dt = t - previous
            if busy:
                share = dt / len(busy)
                for layer in busy.values():
                    account[layer] += share
            else:
                account["exec"] += dt
        previous = t
        if kind == 1:
            in_wait += 1
        elif kind == -1:
            in_wait -= 1
        elif kind == 2:
            busy[payload[0]] = payload[1]
        elif busy.get(payload[0]) == payload[1]:
            del busy[payload[0]]
    covered = sum(account.values())
    account["uncovered"] = max(0.0, (end - start) - covered)
    return account


def outermost(spans: list[Span], name: str) -> list[Span]:
    """Spans called ``name`` with no ancestor of the same name."""
    out = []
    for span in spans:
        if span.name != name:
            continue
        parent = span.parent
        while parent is not None and parent.name != name:
            parent = parent.parent
        if parent is None:
            out.append(span)
    return out
