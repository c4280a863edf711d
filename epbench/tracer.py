"""In-memory spans around calls into the program, and their arithmetic.

The benchmark records spans from its own files: :meth:`Tracer.wrap`
replaces a function or method of the program with a wrapper that records
one span per call.  A span is a row ``(name, start, end, parent, tag, a,
b)``: ``perf_counter_ns`` start and end, the index of the enclosing span
on the same thread (``-1`` at top level), a request or round id
(``-1`` when the span inherits its parent's), and two numbers the
wrapper's ``after`` hook extracts from the call (keys probed, records
committed, ...).  The enclosing span is tracked in a ``ContextVar``, so
asyncio tasks interleaving on one thread each keep their own nesting.

Rows stay in memory, one list per thread, until :meth:`Tracer.dump`
writes them out at exit.  Self time is a span's duration minus the
durations of its direct children (:func:`self_times`).
"""

from __future__ import annotations

import contextvars
import inspect
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

Row = Tuple[int, int, int, int, int, int, int]
Window = Tuple[int, int]

NAME, START, END, PARENT, TAG, A, B = range(7)


class Tracer:
    """Records spans around wrapped callables; see the module docstring."""

    def __init__(self) -> None:
        self._names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self._threads: Dict[int, List[Optional[Row]]] = {}
        self._lock = threading.Lock()
        self._local = threading.local()
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "epbench_span", default=None
        )
        self._patched: List[Tuple[Any, str, Any]] = []
        #: Timestamped samples recorded by hooks: name -> [(t_ns, value)].
        self.samples: Dict[str, List[Tuple[int, float]]] = {}
        #: Callables run at dump time, each returning notes to record.
        self.note_sources: List[Callable[[], Dict[str, Any]]] = []

    def _rows(self) -> List[Optional[Row]]:
        rows = getattr(self._local, "rows", None)
        if rows is None:
            rows = self._local.rows = []
            with self._lock:
                self._threads[threading.get_ident()] = rows
        return rows

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def sample(self, name: str, t_ns: int, value: float) -> None:
        self.samples.setdefault(name, []).append((t_ns, value))

    def wrap(
        self,
        owner: Any,
        attr: str,
        name: str,
        before: Optional[Callable[[tuple, dict], Any]] = None,
        after: Optional[Callable[[tuple, dict, Any, Any], Tuple[int, int, int]]] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``before(args, kwargs)`` runs ahead of the call and its result is
        handed to ``after(args, kwargs, result, state)``, which returns the
        span's ``(tag, a, b)``.  Coroutine functions get an async wrapper.
        """
        original = getattr(owner, attr)
        name_id = self.name_id(name)
        current = self._current
        rows_of = self._rows
        clock = time.perf_counter_ns

        def open_span() -> Tuple[List[Optional[Row]], int, int, Any]:
            rows = rows_of()
            enclosing = current.get()
            parent = (
                enclosing[1]
                if enclosing is not None and enclosing[0] is rows
                else -1
            )
            index = len(rows)
            rows.append(None)
            return rows, index, parent, current.set((rows, index))

        def close_span(rows, index, parent, token, start, args, kwargs, result, state, ok):
            end = clock()
            current.reset(token)
            tag, a, b = (
                after(args, kwargs, result, state)
                if ok and after is not None
                else (-1, 0, 0)
            )
            rows[index] = (name_id, start, end, parent, tag, a, b)

        if inspect.iscoroutinefunction(original):

            async def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before is not None else None
                rows, index, parent, token = open_span()
                start = clock()
                try:
                    result = await original(*args, **kwargs)
                except BaseException:
                    close_span(rows, index, parent, token, start, args, kwargs, None, state, False)
                    raise
                close_span(rows, index, parent, token, start, args, kwargs, result, state, True)
                return result

        else:

            def wrapper(*args, **kwargs):
                state = before(args, kwargs) if before is not None else None
                rows, index, parent, token = open_span()
                start = clock()
                try:
                    result = original(*args, **kwargs)
                except BaseException:
                    close_span(rows, index, parent, token, start, args, kwargs, None, state, False)
                    raise
                close_span(rows, index, parent, token, start, args, kwargs, result, state, True)
                return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._patched.append((owner, attr, original))

    def unwrap_all(self) -> None:
        """Restore every wrapped callable (tests use this)."""
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)

    def dump(self) -> Dict[str, Any]:
        """Everything recorded, as a JSON-ready document."""
        notes: Dict[str, Any] = {}
        for source in self.note_sources:
            notes.update(source())
        main = threading.main_thread().ident
        with self._lock:
            threads = sorted(
                self._threads.items(), key=lambda item: item[0] != main
            )
            return {
                "names": list(self._names),
                # Main thread first; open spans (None) never reach a dump
                # made after the traced work has returned.
                "threads": [
                    {"main": ident == main, "rows": [r for r in rows if r is not None]}
                    for ident, rows in threads
                ],
                "samples": {k: list(v) for k, v in self.samples.items()},
                "notes": notes,
            }


def self_times(rows: Sequence[Sequence[int]]) -> List[int]:
    """Per-span self time: duration minus the durations of direct children.

    ``rows`` are one thread's spans with ``PARENT`` indexing into the same
    list.  Children of one parent on one thread never overlap (a call
    returns before its caller's next call starts), so summing their
    durations gives the time they cover.
    """
    child_ns = [0] * len(rows)
    for row in rows:
        parent = row[PARENT]
        if parent >= 0:
            child_ns[parent] += row[END] - row[START]
    return [row[END] - row[START] - child_ns[i] for i, row in enumerate(rows)]


def in_windows(t_ns: int, windows: Sequence[Window]) -> bool:
    return any(start <= t_ns <= end for start, end in windows)


def covered_ns(rows: Sequence[Sequence[int]], windows: Sequence[Window]) -> int:
    """Time inside ``windows`` covered by the union of top-level spans."""
    intervals = sorted(
        (row[START], row[END]) for row in rows if row[PARENT] < 0
    )
    total = 0
    for w_start, w_end in windows:
        reach = w_start
        for start, end in intervals:
            start, end = max(start, reach), min(end, w_end)
            if end > start:
                total += end - start
                reach = end
    return total


class Aggregate:
    """Per-name totals over spans that start inside the timed windows."""

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {}
        self.self_ns: Dict[str, int] = {}
        self.a: Dict[str, int] = {}
        self.b: Dict[str, int] = {}
        self.a_values: Dict[str, Dict[int, int]] = {}
        self.samples: Dict[str, List[float]] = {}
        self.covered_ns = 0
        self.window_ns = 0
        self.notes: List[Dict[str, Any]] = []

    def add(
        self,
        document: Dict[str, Any],
        windows: Sequence[Window],
        count_a_values: Sequence[str] = (),
    ) -> None:
        """Fold one process's dump, restricted to ``windows``, into the totals."""
        names = document["names"]
        for thread in document["threads"]:
            rows = thread["rows"]
            selfs = self_times(rows)
            for row, self_ns in zip(rows, selfs):
                if not in_windows(row[START], windows):
                    continue
                name = names[row[NAME]]
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_ns[name] = self.self_ns.get(name, 0) + self_ns
                self.a[name] = self.a.get(name, 0) + row[A]
                self.b[name] = self.b.get(name, 0) + row[B]
                if name in count_a_values:
                    counts = self.a_values.setdefault(name, {})
                    counts[row[A]] = counts.get(row[A], 0) + 1
            if thread["main"]:
                self.covered_ns += covered_ns(rows, windows)
        self.window_ns += sum(end - start for start, end in windows)
        for name, samples in document["samples"].items():
            self.samples.setdefault(name, []).extend(
                value for t_ns, value in samples if in_windows(t_ns, windows)
            )
        self.notes.append(document["notes"])

    def count(self, *names: str) -> int:
        return sum(self.calls.get(name, 0) for name in names)

    def busy_ms(self, *names: str) -> float:
        return sum(self.self_ns.get(name, 0) for name in names) / 1e6

    def total_a(self, *names: str) -> int:
        return sum(self.a.get(name, 0) for name in names)

    def total_b(self, *names: str) -> int:
        return sum(self.b.get(name, 0) for name in names)
