"""Closed-loop load generator for ``gateway-zipf``, in its own process.

Run by ``run.py`` as ``python3 epbench/loadgen.py --seed S --events E
--warm-events W --out FILE``.  It generates the seeded E21 trace of
``E`` events, prints ``READY``, reads ``GO <port>`` from stdin, and
drives the gateway through :data:`CONNECTIONS` connections, each a
closed loop that keeps :data:`IN_FLIGHT` requests outstanding: a fixed
number of waiting callers, not paced arrivals.  Tenants are dealt to
connections in order of first appearance, so each tenant's events stay
in trace order.

Two phases of fixed work run back to back on the same connections:

* **cold** — the whole trace.  The first :data:`WARMUP` responses are an
  untimed warm-up; the timed phase starts at the next response.
* **warm** — the trace's first ``W`` events again, for fresh tenants
  (``w-`` prefixed names, so fresh composition state), served from the
  verdicts the cold phase left in the gateway's shared cache and store;
  timed from its first request.

Latency is measured here, from the request's bytes being written to its
response line being read.  Sheds are counted and retried; errors and
dropped connections are counted.  Every answered event's per-event and
cumulative status goes to ``--out`` for the verdict gate.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import selectors
import socket
import sys
import time
from typing import Any, Dict, List, Tuple

from common import write_json

CONNECTIONS = 2
IN_FLIGHT = 16
WARMUP = 1000
#: A select that sees nothing for this long means the gateway hung.
STALL_SECONDS = 30.0


def deal_lanes(trace) -> List[list]:
    """Trace events per connection; a tenant's events all go to one."""
    lanes: List[list] = [[] for _ in range(CONNECTIONS)]
    lane_of: Dict[str, int] = {}
    for event in trace:
        lane = lane_of.setdefault(event.tenant, len(lane_of) % CONNECTIONS)
        lanes[lane].append(event)
    return lanes


def encode(events, prefix: str) -> List[Tuple[bytes, int]]:
    """Each event's request line up to its id, and the event's time."""
    encoded = []
    for event in events:
        body = json.dumps(
            {
                "op": "decide",
                "tenant": prefix + event.tenant,
                "user": prefix + event.user,
                "time": event.time,
                "query": event.query_text,
            },
            separators=(",", ":"),
        )
        encoded.append((body[:-1].encode("utf-8") + b',"id":', event.time))
    return encoded


class Lane:
    """One connection's closed loop."""

    def __init__(self, sock: socket.socket, requests: List[Tuple[bytes, int]]) -> None:
        self.sock = sock
        self.requests = requests
        self.next = 0
        self.retry: List[int] = []
        self.buffer = b""
        self.outstanding: Dict[int, Tuple[int, int]] = {}
        self.open = True


def run_phase(
    socks: List[socket.socket],
    lane_requests: List[List[Tuple[bytes, int]]],
    warmup: int,
) -> Dict[str, Any]:
    """Send every lane's requests through its closed loop; time all but
    the first ``warmup`` responses."""
    clock = time.perf_counter_ns
    selector = selectors.DefaultSelector()
    lanes = []
    for sock, requests in zip(socks, lane_requests):
        lane = Lane(sock, requests)
        lanes.append(lane)
        selector.register(sock, selectors.EVENT_READ, lane)
    counts = {"sent": 0, "sheds": 0, "errors": 0, "dropped": 0}
    answered: List[Tuple[int, str, str]] = []
    latencies: List[int] = []
    next_id = 0
    t0 = None if warmup else clock()
    cpu0 = None if warmup else time.process_time()
    last_done = t0

    def fill(lane: Lane) -> None:
        nonlocal next_id
        lines = []
        ids = []
        while len(lane.outstanding) + len(ids) < IN_FLIGHT:
            if lane.retry:
                index = lane.retry.pop()
            elif lane.next < len(lane.requests):
                index = lane.next
                lane.next += 1
            else:
                break
            next_id += 1
            lines.append(lane.requests[index][0] + b"%d}\n" % next_id)
            ids.append((next_id, index))
        if lines:
            now = clock()
            for request_id, index in ids:
                lane.outstanding[request_id] = (index, now)
            lane.sock.sendall(b"".join(lines))
            counts["sent"] += len(lines)

    while True:
        for lane in lanes:
            if lane.open:
                fill(lane)
        if not any(lane.outstanding for lane in lanes):
            break
        ready = selector.select(timeout=STALL_SECONDS)
        if not ready:
            raise RuntimeError(f"no response from the gateway in {STALL_SECONDS}s")
        for key, _ in ready:
            lane = key.data
            data = lane.sock.recv(1 << 16)
            now = clock()
            if not data:
                counts["dropped"] += len(lane.outstanding)
                lane.outstanding.clear()
                lane.open = False
                selector.unregister(lane.sock)
                continue
            lines = (lane.buffer + data).split(b"\n")
            lane.buffer = lines.pop()
            for line in lines:
                response = json.loads(line)
                index, sent_at = lane.outstanding.pop(response["id"])
                if response.get("ok"):
                    answered.append(
                        (
                            lane.requests[index][1],
                            response["status"],
                            response["cumulative_status"],
                        )
                    )
                    if t0 is None:
                        if len(answered) >= warmup:
                            t0 = last_done = now
                            cpu0 = time.process_time()
                    elif sent_at >= t0:
                        latencies.append(now - sent_at)
                        last_done = now
                elif response.get("decision") == "shed":
                    counts["sheds"] += 1
                    lane.retry.append(index)
                else:
                    counts["errors"] += 1
    selector.close()
    if t0 is None:
        raise RuntimeError("the trace ended inside the warm-up")
    return {
        "t0": t0,
        "end": last_done,
        "latencies_ns": latencies,
        "answered": answered,
        "cpu_s": time.process_time() - cpu0,
        **counts,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--events", type=int, required=True)
    parser.add_argument("--warm-events", type=int, required=True)
    parser.add_argument("--out", type=pathlib.Path, required=True)
    args = parser.parse_args()

    import workloads

    trace = workloads.gateway_trace(args.seed, args.events)
    cold_requests = [encode(events, "") for events in deal_lanes(trace)]
    warm_requests = [
        encode(events, "w-") for events in deal_lanes(trace[: args.warm_events])
    ]
    print("READY", flush=True)
    go = sys.stdin.readline().split()
    if len(go) != 2 or go[0] != "GO":
        raise RuntimeError(f"expected 'GO <port>', got {go!r}")
    socks = []
    try:
        for _ in range(CONNECTIONS):
            sock = socket.create_connection(("127.0.0.1", int(go[1])))
            sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            socks.append(sock)
        cold = run_phase(socks, cold_requests, WARMUP)
        warm = run_phase(socks, warm_requests, 0)
    finally:
        for sock in socks:
            sock.close()
    write_json(args.out, {"cold": cold, "warm": warm})
    print("DONE", flush=True)


if __name__ == "__main__":
    main()
