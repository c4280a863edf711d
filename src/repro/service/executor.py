"""Batched shard executors: the gateway's scaled-out decision plane.

The PR-8 gateway decided one event at a time — one parse, one journal
``fsync``, one engine round trip, one store probe per event.  This module
replaces that with a batch-native executor, in two deployment shapes
behind one async façade (:class:`ExecutorPool`):

* ``workers == 1`` (the default): one :class:`BatchDecisionExecutor`
  runs inline in the event loop — same thread model as PR 8, but each
  admission batch costs **one** group-commit ``fsync`` (see
  :mod:`~repro.service.commit`) and **one** engine pass with one
  :meth:`~repro.audit.store.VerdictStoreBase.probe_many` for the whole
  cross-tenant batch.

* ``workers > 1``: tenants partition by a stable hash across N forked
  executor processes.  Each executor owns its journal directory
  (``exec-NN/`` under the gateway's journal dir, with its own group-commit
  log) and its own connections into the shared SQLite-WAL verdict store
  (multi-process-safe by PR 6's design).  The asyncio front end keeps
  framing and admission, ships batches over socketpair pipes as JSON
  lines, and — when an executor dies (a real ``kill -9``, or the
  ``executor-crash`` chaos site) — sheds that batch with a retry hint,
  restarts the process, and lets it replay its journals before serving.
  Because a tenant's entire decision state lives in exactly one executor
  (the hash is stable across restarts), replay-recovery is per-executor
  and never needs cross-process coordination.

The partition must be stable across *boots* too: a journal directory
written by an N-executor gateway can only be recovered by an N-executor
gateway (a tenant's records must replay into the process that will serve
it).  :func:`pin_layout` writes ``executors.json`` into the journal
directory on first boot and refuses a mismatched worker count afterwards.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import multiprocessing
import os
import pathlib
import signal
import socket
import zlib
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

from ..exceptions import QueryError
from ..runtime import faults
from .commit import CommitError
from .journal import JournalRecord
from .protocol import DecisionRequest, error_response, shed_response
from .shard import ShardManager
from .stats import merge_snapshots

__all__ = [
    "BatchDecisionExecutor",
    "ExecutorCrashed",
    "ExecutorPool",
    "executor_index",
    "pin_layout",
]

#: Retry hint handed to clients whose batch died with its executor; by the
#: time they retry, the replacement has usually finished replaying.
_EXECUTOR_RESTART_RETRY_MS = 25.0

_LAYOUT_FILENAME = "executors.json"


class ExecutorCrashed(ConnectionError):
    """An executor process died mid-conversation (EOF/broken pipe)."""


def executor_index(tenant: str, workers: int) -> int:
    """The executor owning ``tenant``: a stable consistent hash.

    CRC32 of the tenant id modulo the worker count — deterministic across
    processes, platforms, and Python hash randomisation, so a restarted
    gateway replays every tenant's journal into the executor that will
    serve its next request.
    """
    if workers <= 1:
        return 0
    return zlib.crc32(tenant.encode("utf-8")) % workers


def pin_layout(journal_dir: pathlib.Path, workers: int) -> None:
    """Pin (or verify) the journal directory's executor count.

    The tenant → executor hash partition decides which ``exec-NN/``
    directory a tenant's records land in; rebooting the same directory
    with a different worker count would strand a tenant's history in an
    executor that no longer serves it.  First boot writes the layout;
    later boots must match it.
    """
    journal_dir = pathlib.Path(journal_dir)
    path = journal_dir / _LAYOUT_FILENAME
    if path.exists():
        try:
            pinned = json.loads(path.read_text())["workers"]
        except (ValueError, KeyError) as exc:
            raise RuntimeError(
                f"unreadable executor layout at {path}: {exc}"
            ) from exc
        if int(pinned) != int(workers):
            raise RuntimeError(
                f"journal directory {journal_dir} was written by a "
                f"{pinned}-executor gateway; refusing to boot with "
                f"--workers {workers} (tenant partitions would not line up)"
            )
        return
    journal_dir.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"workers": int(workers)}))


class _BatchState:
    """One admission batch between :meth:`BatchDecisionExecutor.prepare`
    and :meth:`BatchDecisionExecutor.complete`.

    Exists so the group-commit ``fsync`` — the only blocking I/O in the
    round — can run off the event loop (:class:`ExecutorPool` ships
    :meth:`~BatchDecisionExecutor.commit_round` to a dedicated thread)
    while client traffic keeps flowing.  ``commit_round`` touches nothing
    but the commit log and this state object, so the split is trivially
    thread-safe: stats, breakers, and engine folds all stay on the loop in
    ``prepare``/``complete``.
    """

    __slots__ = ("responses", "work", "records", "commit_error")

    def __init__(
        self,
        responses: List[Optional[Dict[str, Any]]],
        work: List[Tuple[Any, ...]],
        records: List[Tuple[str, JournalRecord]],
    ) -> None:
        self.responses = responses
        self.work = work
        self.records = records
        self.commit_error: Optional[CommitError] = None


class BatchDecisionExecutor:
    """Decides one admission batch: group-commit, then one engine pass.

    Single-threaded apart from the commit ``fsync`` — it runs inline in
    the gateway's event loop (``workers == 1``) or as the body of a forked
    executor process.  The per-batch discipline, in order:

    1. **parse/compile** each request (both memoised on the manager);
       malformed queries answer typed errors and feed the tenant's
       breaker, exactly like the PR-8 per-event path;
    2. **journal** every parseable record in ONE group-commit round — one
       ``write``, one ``fsync``, all tenants.  A crashed round (torn
       write, failed fsync) withholds *every* verdict in it: typed errors
       back to the clients, breaker failures for the affected tenants,
       and the log heals by truncation before its next append;
    3. **decide** the unpinned requests through
       :meth:`~repro.audit.engine.BatchAuditEngine.decide_many` — the
       batch deduplicates by verdict key and pays one store probe total;
       pinned tenants (open breaker) keep the deterministic exact
       single-decision path, verdict-identical by the breaker contract;
    4. **fold** every event into its user's composition state in
       admission order via :meth:`~repro.service.shard.TenantShard.
       finish`, which builds the response and feeds stats/breakers.

    A shared (deduplicated) decision runs under the *largest* remaining
    deadline among its requesters — budgets only ever degrade verdicts
    toward UNKNOWN, so the generous choice is the sound one; per-request
    budgets still bound each request's own cumulative fold.
    """

    def __init__(self, manager: ShardManager, flush_every: int = 256) -> None:
        self.manager = manager
        self.stats = manager.gateway_stats
        self.flush_every = int(flush_every)
        self._decided_since_flush = 0

    def decide_batch(
        self, items: Sequence[Tuple[DecisionRequest, Optional[float]]]
    ) -> List[Dict[str, Any]]:
        """Decide ``[(request, remaining_budget_seconds), ...]`` in order."""
        state = self.prepare(items)
        self.commit_round(state)
        return self.complete(state)

    def prepare(
        self, items: Sequence[Tuple[DecisionRequest, Optional[float]]]
    ) -> _BatchState:
        """Parse, compile, and frame the round's journal records."""
        responses: List[Optional[Dict[str, Any]]] = [None] * len(items)
        work = []  # (index, request, shard, query, disclosed, pinned, remaining)
        for index, (request, remaining) in enumerate(items):
            shard = self.manager.shard(request.tenant)
            if shard.crashed:
                shard.recover()
            try:
                query = self.manager.parse_query(request.query_text)
                disclosed = self.manager.engine.compile_query(query)
            except (QueryError, KeyError) as exc:
                shard.breaker.record_failure()
                shard.stats.breaker_state = shard.breaker.state.value
                responses[index] = error_response(
                    request.request_id, f"bad query: {exc}"
                )
                continue
            pinned = not shard.breaker.allow()
            work.append((index, request, shard, query, disclosed, pinned, remaining))
        records = [
            (
                request.tenant,
                JournalRecord(
                    user=request.user,
                    time=request.time,
                    query_text=request.query_text,
                    note=request.note,
                ),
            )
            for _, request, _, _, _, _, _ in work
        ]
        return _BatchState(responses, work, records)

    def commit_round(self, state: _BatchState) -> None:
        """Journal the round: one ``write``, one ``fsync``, all tenants.

        Pure commit-log I/O — no stats, no shard state — so the pool may
        run it in its commit thread while the event loop keeps serving.
        """
        if not state.work:
            return
        try:
            self.manager.commit_log.append_round(state.records)
        except CommitError as exc:
            state.commit_error = exc

    def complete(self, state: _BatchState) -> List[Dict[str, Any]]:
        """Decide and fold the committed round; build the responses."""
        responses = state.responses
        work = state.work
        if not work:
            return responses
        if state.commit_error is not None:
            # None of the round's records are durable, so none of its
            # verdicts may be issued: typed errors, clients retry, and the
            # log truncates back to the last durable round on next append.
            self.stats.commit_crashes += 1
            for _, request, shard, _, _, _, _ in work:
                shard.breaker.record_failure()
                shard.stats.breaker_state = shard.breaker.state.value
            for index, request, _, _, _, _, _ in work:
                responses[index] = error_response(
                    request.request_id, str(state.commit_error)
                )
            return responses
        self.stats.observe_commit(len(state.records))
        unpinned = [entry for entry in work if not entry[5]]
        outcomes: Dict[int, Any] = {}
        if unpinned:
            engine = self.manager.engine
            # A deduplicated decision serves every requester: give it the
            # batch's largest remaining deadline (None = unbounded wins).
            budgets = [entry[6] for entry in unpinned]
            engine.decision_budget = (
                None if any(b is None for b in budgets) else max(budgets)
            )
            try:
                decided = engine.decide_many([entry[4] for entry in unpinned])
            finally:
                engine.decision_budget = self.manager.decision_budget
            outcomes = {
                entry[0]: outcome for entry, outcome in zip(unpinned, decided)
            }
        for index, request, shard, query, disclosed, pinned, remaining in work:
            shard.stats.journal_appends += 1
            try:
                responses[index] = shard.finish(
                    request,
                    query,
                    pinned,
                    budget_seconds=remaining,
                    disclosed=disclosed,
                    outcome=outcomes.get(index),
                )
            except Exception as exc:  # a shard bug must not kill the batch
                responses[index] = error_response(
                    request.request_id, f"internal: {exc}"
                )
        self._decided_since_flush += len(work)
        if self._decided_since_flush >= self.flush_every:
            self._decided_since_flush = 0
            self.manager.flush_all()
        return responses


# -- multi-process plumbing ------------------------------------------------------


@dataclass
class _ExecutorConfig:
    """Everything a forked executor child needs to build its own manager."""

    index: int
    journal_dir: pathlib.Path
    flush_every: int


def _child_main(sock: socket.socket, manager: ShardManager, config: _ExecutorConfig) -> None:
    """An executor process: recover, then serve JSON-line batch requests.

    Runs in a forked child.  ``manager`` is the *parent's* manager, used
    purely as a configuration template — the child builds its own over its
    private journal subdirectory and reopens its own store connections
    (SQLite connections must not cross ``fork``).  The parent coordinates
    shutdown over the pipe, so termination signals are ignored here.
    """
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    store = manager.store
    if store is not None:
        store.close()  # drop any connection state copied across the fork
    own = ShardManager(
        manager.universe,
        manager.policy,
        journal_dir=config.journal_dir,
        store=store,
        decision_budget=manager.decision_budget,
    )
    own.gateway_stats.workers = 1
    own.recover_all()
    # Replay is the child's warmup: everything alive now is long-lived
    # executor state, so freeze it out of future gen-2 collections.
    gc.freeze()
    executor = BatchDecisionExecutor(own, flush_every=config.flush_every)
    stream = sock.makefile("rwb")

    def reply(document: Dict[str, Any]) -> None:
        stream.write(json.dumps(document, separators=(",", ":")).encode("utf-8"))
        stream.write(b"\n")
        stream.flush()

    try:
        for line in stream:
            if not line.strip():
                continue
            message = json.loads(line.decode("utf-8"))
            op = message.get("op")
            if op == "batch":
                if faults.fire(faults.EXECUTOR_CRASH):
                    os._exit(86)  # a hard crash, as unceremonious as kill -9
                items = [
                    (
                        DecisionRequest(
                            tenant=item["tenant"],
                            user=item["user"],
                            time=item.get("time", 0),
                            query_text=item["query"],
                            note=item.get("note", ""),
                            deadline_ms=item.get("deadline_ms"),
                            request_id=item.get("id"),
                        ),
                        item.get("remaining"),
                    )
                    for item in message["items"]
                ]
                reply({"ok": True, "results": executor.decide_batch(items)})
            elif op == "snapshot":
                reply({"ok": True, "stats": own.snapshot()})
            elif op == "drain":
                flushed = own.flush_all(draining=True)
                reply({"ok": True, "flushed": flushed, "stats": own.snapshot()})
                break
            else:
                reply({"ok": False, "error": f"unknown executor op {op!r}"})
    except (BrokenPipeError, ConnectionResetError):
        pass  # the parent went away; journals already hold the truth
    finally:
        own.close()
        with contextlib.suppress(Exception):
            stream.close()
        with contextlib.suppress(Exception):
            sock.close()


class _ExecutorProcess:
    """The parent-side handle of one forked executor."""

    def __init__(
        self, index: int, manager: ShardManager, flush_every: int
    ) -> None:
        self.index = index
        self.manager = manager
        self.config = _ExecutorConfig(
            index=index,
            journal_dir=manager.journal_dir / f"exec-{index:02d}",
            flush_every=flush_every,
        )
        self.process: Optional[multiprocessing.Process] = None
        self._reader: Optional[asyncio.StreamReader] = None
        self._writer: Optional[asyncio.StreamWriter] = None
        self._lock = asyncio.Lock()

    async def spawn(self) -> None:
        parent_sock, child_sock = socket.socketpair()
        context = multiprocessing.get_context("fork")
        self.process = context.Process(
            target=_child_main,
            args=(child_sock, self.manager, self.config),
            daemon=True,
        )
        self.process.start()
        child_sock.close()
        self._reader, self._writer = await asyncio.open_connection(
            sock=parent_sock
        )

    async def request(self, message: Dict[str, Any]) -> Dict[str, Any]:
        """One serialized request/reply exchange; raises ExecutorCrashed."""
        async with self._lock:
            if self._writer is None:
                raise ExecutorCrashed(f"executor {self.index} is not running")
            try:
                self._writer.write(
                    json.dumps(message, separators=(",", ":")).encode("utf-8")
                    + b"\n"
                )
                await self._writer.drain()
                line = await self._reader.readline()
            except (ConnectionError, OSError) as exc:
                raise ExecutorCrashed(
                    f"executor {self.index} died mid-request: {exc}"
                ) from exc
            if not line:
                raise ExecutorCrashed(
                    f"executor {self.index} closed its pipe (crashed?)"
                )
            return json.loads(line.decode("utf-8"))

    def kill(self) -> None:
        """SIGKILL the child — the chaos site's (and tests') crash lever."""
        if self.process is not None and self.process.is_alive():
            self.process.kill()

    async def restart(self) -> None:
        await self.close(join=True)
        await self.spawn()

    async def close(self, join: bool) -> None:
        if self._writer is not None:
            with contextlib.suppress(Exception):
                self._writer.close()
                await self._writer.wait_closed()
        self._reader = self._writer = None
        if self.process is not None and join:
            self.process.join(timeout=5.0)
            if self.process.is_alive():
                self.process.kill()
                self.process.join(timeout=5.0)


class ExecutorPool:
    """The gateway's decision plane: inline executor or N forked ones.

    One interface either way: :meth:`decide_batch` takes the admission
    batch ``[(request, remaining_seconds), ...]`` and returns
    position-aligned responses.  With ``workers > 1`` the batch is
    partitioned by :func:`executor_index` and the per-executor
    sub-batches are dispatched concurrently; a sub-batch whose executor
    crashed comes back as explicit ``executor-restart`` sheds (clients
    retry into the replayed replacement).
    """

    def __init__(
        self,
        manager: ShardManager,
        workers: int = 1,
        flush_every: int = 256,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be positive")
        self.manager = manager
        self.workers = int(workers)
        self.stats = manager.gateway_stats
        self.stats.workers = self.workers
        self.flush_every = int(flush_every)
        self._inline: Optional[BatchDecisionExecutor] = (
            BatchDecisionExecutor(manager, flush_every=flush_every)
            if self.workers == 1
            else None
        )
        self._processes: List[_ExecutorProcess] = []
        #: One dedicated thread for the group-commit ``fsync`` (inline mode
        #: only).  Rounds are dispatched serially by the decision loop, so
        #: a single thread preserves append order; running the fsync off
        #: the loop lets client I/O (and the next batch's admission)
        #: overlap the ~0.5 ms of disk wait instead of stalling behind it.
        #: Off by default: on a single-core host the thread handoff costs
        #: more than the overlap recovers (measured ~0.7 ms per round
        #: against ~0.55 ms of fsync), so the offload only engages when
        #: there is a second CPU for the loop to keep running on.
        self._commit_offload = (os.cpu_count() or 1) > 1
        self._commit_pool: Optional[ThreadPoolExecutor] = None

    @property
    def multiprocess(self) -> bool:
        return self.workers > 1

    def executor_pids(self) -> List[int]:
        """PIDs of the live executor processes (empty in inline mode)."""
        return [
            process.process.pid
            for process in self._processes
            if process.process is not None and process.process.pid is not None
        ]

    async def start(self) -> None:
        """Recover journals and (in multi-process mode) spawn executors."""
        if not self.multiprocess:
            self.manager.recover_all()
            return
        pin_layout(self.manager.journal_dir, self.workers)
        self._processes = [
            _ExecutorProcess(index, self.manager, self.flush_every)
            for index in range(self.workers)
        ]
        for process in self._processes:
            await process.spawn()

    async def decide_batch(
        self, items: Sequence[Tuple[DecisionRequest, Optional[float]]]
    ) -> List[Dict[str, Any]]:
        if not self.multiprocess:
            if self._commit_offload:
                executor = self._inline
                state = executor.prepare(items)
                if state.work:
                    if self._commit_pool is None:
                        self._commit_pool = ThreadPoolExecutor(
                            max_workers=1, thread_name_prefix="group-commit"
                        )
                    await asyncio.get_running_loop().run_in_executor(
                        self._commit_pool, executor.commit_round, state
                    )
                return executor.complete(state)
            return self._inline.decide_batch(items)
        responses: List[Optional[Dict[str, Any]]] = [None] * len(items)
        partitions: Dict[int, List[int]] = {}
        for position, (request, _) in enumerate(items):
            partitions.setdefault(
                executor_index(request.tenant, self.workers), []
            ).append(position)

        async def dispatch(index: int, positions: List[int]) -> None:
            process = self._processes[index]
            # The executor-crash chaos site is probed (and counted) here in
            # the parent so its schedule is deterministic across restarts —
            # the "crash" itself is a genuine SIGKILL of the child.
            if faults.fire(faults.EXECUTOR_CRASH):
                process.kill()
            payload = {
                "op": "batch",
                "items": [
                    {
                        "tenant": items[p][0].tenant,
                        "user": items[p][0].user,
                        "time": items[p][0].time,
                        "query": items[p][0].query_text,
                        "note": items[p][0].note,
                        "id": items[p][0].request_id,
                        "remaining": items[p][1],
                    }
                    for p in positions
                ],
            }
            try:
                reply = await process.request(payload)
                results = reply["results"]
            except ExecutorCrashed:
                self.stats.executor_restarts += 1
                for p in positions:
                    request = items[p][0]
                    self.stats.tenant(request.tenant).record_shed(
                        "executor-restart"
                    )
                    responses[p] = shed_response(
                        request.request_id,
                        "executor-restart",
                        _EXECUTOR_RESTART_RETRY_MS,
                    )
                await process.restart()  # replays its journals before serving
                return
            for p, result in zip(positions, results):
                responses[p] = result

        await asyncio.gather(
            *(dispatch(index, posns) for index, posns in partitions.items())
        )
        return responses

    async def snapshot(self) -> Dict[str, Any]:
        """A merged gateway snapshot (front end + every executor)."""
        base = self.manager.snapshot()
        if not self.multiprocess:
            return base
        children = []
        for process in self._processes:
            try:
                reply = await process.request({"op": "snapshot"})
                children.append(reply["stats"])
            except ExecutorCrashed:
                continue  # its stats died with it; journals keep the truth
        return merge_snapshots(base, children)

    async def drain(self) -> Tuple[bool, Dict[str, Any]]:
        """Flush every executor; returns (flushed, merged snapshot)."""
        if not self.multiprocess:
            self._close_commit_pool()
            flushed = self.manager.flush_all(draining=True)
            return flushed, self.manager.snapshot()
        flushed = True
        children = []
        for process in self._processes:
            reply = None
            for attempt in (0, 1):
                try:
                    reply = await process.request({"op": "drain"})
                    break
                except ExecutorCrashed:
                    if attempt:
                        break
                    # An executor found dead at drain still owns journaled
                    # events; respawn it (replaying its slice) so the
                    # drain can flush them instead of reporting dirty.
                    self.stats.executor_restarts += 1
                    await process.restart()
            if reply is None:
                flushed = False
            else:
                flushed = flushed and bool(reply.get("flushed"))
                children.append(reply.get("stats", {}))
            await process.close(join=True)
        return flushed, merge_snapshots(self.manager.snapshot(), children)

    def _close_commit_pool(self) -> None:
        if self._commit_pool is not None:
            self._commit_pool.shutdown(wait=True)
            self._commit_pool = None

    async def close(self) -> None:
        self._close_commit_pool()
        for process in self._processes:
            await process.close(join=True)
        self._processes = []
