"""Paths, statistics and process helpers shared by the benchmark's programs.

Every program of the benchmark (``run.py``, the offline audit
round, the gateway server and the load generator) runs from a checkout
whose root holds ``src/repro``.  Timestamps that cross processes are
``time.perf_counter_ns()``, which CPython takes from ``CLOCK_MONOTONIC``
on Linux: one system-wide clock, so a span recorded in the gateway and a
phase boundary recorded in the load generator compare directly.
"""

from __future__ import annotations

import json
import math
import os
import pathlib
import select
import statistics
import subprocess
import sys
import time
from typing import Any, Dict, Optional, Sequence

BENCH_DIR = pathlib.Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"

#: Working space for stores, journals and round reports.  Inside the
#: checkout (the benchmark reads and writes nothing outside it) and listed
#: in the root ``.gitignore``.
WORK_ROOT = ROOT / ".epbench_work"

#: Iterations of one host probe: a fixed pure-Python loop (~0.7 ms).
PROBE_ITERATIONS = 10_000
#: Probes per reference point (the stamp before and after a run).
REFERENCE_SAMPLES = 200


def program_available() -> bool:
    """True when the checkout holds the program's sources."""
    return (SRC / "repro" / "__init__.py").is_file()


def child_env() -> Dict[str, str]:
    """The environment every program process runs with.

    Fault injection is switched off: a chaos schedule left in the caller's
    environment would move verdict provenance and timings.
    """
    env = {
        key: value
        for key, value in os.environ.items()
        if not key.startswith("REPRO_FAULTS")
    }
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(BENCH_DIR)])
    return env


def spawn(script: str, args: Sequence[str], **kwargs) -> subprocess.Popen:
    """Start one of the benchmark's programs as a fresh Python process."""
    return subprocess.Popen(
        [sys.executable, str(BENCH_DIR / script), *args],
        env=child_env(),
        cwd=str(ROOT),
        **kwargs,
    )


def stop(process: Optional[subprocess.Popen], timeout: float = 10.0) -> None:
    """Terminate a child if it still runs, and wait until it has ended."""
    if process is None:
        return
    if process.poll() is None:
        process.terminate()
        try:
            process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            process.kill()
            process.wait()
    for stream in (process.stdin, process.stdout, process.stderr):
        if stream is not None:
            stream.close()


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of an ascending sequence.

    The value at rank ``ceil(fraction * n)`` (1-based), so the p50 of
    ``[1, 2, 3, 4]`` is 2 and the p90 of 100 values is the 90th.
    """
    if not sorted_values:
        raise ValueError("percentile of an empty sequence")
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    rank = math.ceil(fraction * len(sorted_values))
    return sorted_values[max(0, rank - 1)]


def probe_ms() -> float:
    """One host probe: the time of a fixed pure-Python loop, in ms.

    It calls nothing of the program, so it reads the host's speed alone.
    """
    started = time.perf_counter()
    total = 0
    for i in range(PROBE_ITERATIONS):
        total += i * i % 7
    return (time.perf_counter() - started) * 1e3


def reference_ms() -> float:
    """The host stamp: median of :data:`REFERENCE_SAMPLES` probes, in ms."""
    return statistics.median(probe_ms() for _ in range(REFERENCE_SAMPLES))


def peak_rss_mb(pid: Optional[int] = None) -> float:
    """Peak resident set size (VmHWM) of a process, in MB (10^6 bytes)."""
    path = f"/proc/{pid if pid is not None else 'self'}/status"
    with open(path) as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) * 1024 / 1e6
    raise RuntimeError(f"no VmHWM line in {path}")


def write_json(path: pathlib.Path, document: Any) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_text(json.dumps(document, separators=(",", ":")))
    os.replace(tmp, path)


def read_json(path: pathlib.Path) -> Any:
    return json.loads(path.read_text())


def read_line(process: subprocess.Popen, expected: str, timeout: float) -> str:
    """The child's next stdout line, which must start with ``expected``.

    ``process.stdout`` must be an unbuffered binary pipe (``bufsize=0``):
    bytes are read one ``os.read`` at a time, so nothing sits in a Python
    buffer where ``select`` cannot see it.  Raises ``RuntimeError`` when
    the line does not arrive within ``timeout`` seconds or the child
    exits first.
    """
    fd = process.stdout.fileno()
    deadline = time.monotonic() + timeout
    line = bytearray()
    while not line.endswith(b"\n"):
        remaining = deadline - time.monotonic()
        if remaining <= 0 or not select.select([fd], [], [], remaining)[0]:
            raise RuntimeError(
                f"no {expected!r} line from {process.args[1]} in {timeout}s"
            )
        chunk = os.read(fd, 1)
        if not chunk:
            raise RuntimeError(
                f"{process.args[1]} exited before printing {expected!r}"
            )
        line += chunk
    text = line.decode("utf-8").strip()
    if not text.startswith(expected):
        raise RuntimeError(
            f"expected {expected!r} from {process.args[1]}, got {text!r}"
        )
    return text


def metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": float(value), "unit": unit}


def summary_line(
    correct: bool,
    attempted: int,
    failed: int,
    metrics: Dict[str, Dict[str, Any]],
) -> str:
    return json.dumps(
        {
            "correct": bool(correct),
            "attempted": int(attempted),
            "failed": int(failed),
            "metrics": metrics,
        },
        separators=(",", ":"),
    )
