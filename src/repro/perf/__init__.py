"""Performance instrumentation shared by the audit engine and benchmarks.

Small, dependency-free helpers: :class:`CacheStats` counters (surfaced on
:class:`~repro.audit.offline.AuditReport` and by the interval oracles) and
:func:`machine_info`, the environment stamp a benchmark records beside its
numbers.
"""

from __future__ import annotations

import os
import platform
import sys
from dataclasses import dataclass
from typing import Any, Dict

__all__ = [
    "CacheStats",
    "machine_info",
]


@dataclass
class CacheStats:
    """Hit/miss counters of one cache, with a derived hit rate.

    ``hits`` counts lookups served without recomputation — including
    duplicates answered by a decision scheduled earlier in the same batch.
    """

    hits: int = 0
    misses: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        return self.hits / self.lookups if self.lookups else 0.0

    def merge(self, other: "CacheStats") -> "CacheStats":
        """Combined counters of two caches (e.g. verdict + compile caches)."""
        return CacheStats(self.hits + other.hits, self.misses + other.misses)

    def as_dict(self) -> Dict[str, Any]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "hit_rate": round(self.hit_rate, 4),
        }

    def __str__(self) -> str:
        return f"{self.hits} hits / {self.misses} misses ({self.hit_rate:.1%})"


def machine_info() -> Dict[str, Any]:
    """The environment fields stamped beside every benchmark result.

    Besides the interpreter and host, this records the NumPy version and
    which decision-kernel backend (``native`` or ``numpy-fallback``) was
    selected — a bench number is meaningless without knowing which kernel
    produced it.  Lazy imports keep this module dependency-free for
    callers that only need :class:`CacheStats`.
    """
    info: Dict[str, Any] = {
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "cpu_count": os.cpu_count() or 1,
    }
    try:
        import numpy

        info["numpy"] = numpy.__version__
    except Exception:  # pragma: no cover - numpy is a hard dep in practice
        info["numpy"] = None
    try:
        from .. import _native

        info["kernel_backend"] = _native.backend_name()
    except Exception:  # pragma: no cover - backend probing must never fail
        info["kernel_backend"] = None
    return info
