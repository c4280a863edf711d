"""Span recording and self-time arithmetic."""

import asyncio
import threading

from tracer import END, NAME, PARENT, START, Aggregate, Tracer, covered_ns, self_times


def row(name, start, end, parent):
    return (name, start, end, parent, -1, 0, 0)


def test_self_time_subtracts_direct_children_only():
    rows = [
        row(0, 0, 100, -1),  # root: 100 long
        row(1, 10, 40, 0),  # child: 30 long
        row(2, 15, 25, 1),  # grandchild: 10 long
        row(1, 50, 70, 0),  # child: 20 long
        row(0, 200, 210, -1),  # second root, no children
    ]
    assert self_times(rows) == [50, 20, 10, 20, 10]


def test_coverage_is_the_union_of_top_level_spans_inside_windows():
    rows = [
        row(0, 0, 30, -1),
        row(0, 20, 50, -1),  # overlaps the first
        row(1, 25, 45, 1),  # nested: never counted on its own
        row(0, 80, 120, -1),  # straddles the window's end
    ]
    assert covered_ns(rows, [(10, 100)]) == (50 - 10) + (100 - 80)
    assert covered_ns(rows, [(10, 100), (110, 130)]) == 60 + 10


class Toy:
    def outer(self, n):
        return self.inner(n) + 1

    def inner(self, n):
        return n * 2

    async def pause(self):
        await asyncio.sleep(0.001)
        return self.inner(1)


def test_wrapped_calls_nest_and_return_their_results():
    tracer = Tracer()
    tracer.wrap(Toy, "outer", "outer", after=lambda a, k, out, s: (7, out, 0))
    tracer.wrap(Toy, "inner", "inner")
    try:
        assert Toy().outer(3) == 7
    finally:
        tracer.unwrap_all()
    assert Toy.outer.__name__ == "outer"
    document = tracer.dump()
    rows = document["threads"][0]["rows"]
    names = document["names"]
    assert [names[r[NAME]] for r in rows] == ["outer", "inner"]
    assert rows[1][PARENT] == 0 and rows[0][PARENT] == -1
    assert tuple(rows[0][4:6]) == (7, 7)  # (tag, a) from the after hook
    assert rows[0][START] <= rows[1][START] <= rows[1][END] <= rows[0][END]


def test_interleaved_tasks_keep_their_own_parents():
    tracer = Tracer()
    tracer.wrap(Toy, "pause", "pause")
    tracer.wrap(Toy, "inner", "inner")

    async def both():
        toy = Toy()
        return await asyncio.gather(toy.pause(), toy.pause())

    try:
        assert asyncio.run(both()) == [2, 2]
    finally:
        tracer.unwrap_all()
    document = tracer.dump()
    rows = document["threads"][0]["rows"]
    names = document["names"]
    pauses = [i for i, r in enumerate(rows) if names[r[NAME]] == "pause"]
    inners = [r for r in rows if names[r[NAME]] == "inner"]
    assert sorted(r[PARENT] for r in inners) == sorted(pauses)


def test_threads_record_separately():
    tracer = Tracer()
    tracer.wrap(Toy, "inner", "inner")
    try:
        worker = threading.Thread(target=Toy().inner, args=(1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        Toy().outer(1)
    finally:
        tracer.unwrap_all()
    threads = tracer.dump()["threads"]
    assert threads[0]["main"] and not threads[1]["main"]
    assert all(r[PARENT] == -1 for t in threads for r in t["rows"])


def test_aggregate_keeps_spans_starting_inside_the_windows():
    document = {
        "names": ["a", "b"],
        "threads": [
            {"main": True, "rows": [row(0, 0, 100, -1), row(1, 20, 60, 0), row(0, 500, 600, -1)]}
        ],
        "samples": {"wait": [(10, 1.0), (550, 2.0)]},
        "notes": {},
    }
    agg = Aggregate()
    agg.add(document, [(0, 200)])
    assert agg.calls == {"a": 1, "b": 1}
    assert agg.busy_ms("a") == 60 / 1e6
    assert agg.busy_ms("b") == 40 / 1e6
    assert agg.samples["wait"] == [1.0]
    assert agg.covered_ns == 100 and agg.window_ns == 200
