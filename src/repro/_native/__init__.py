"""Backend selection for the native decision kernels (E20).

Two interchangeable implementations of the hot kernels live behind this
package:

* an optional C extension (``repro._native._kernels``) built best-effort by
  ``setup.py build_ext`` — a fused de Casteljau split + enclosure kernel
  that replaces three NumPy sweeps with one pass over the preallocated
  ``(batch, 3**n)`` pools, and
* the mandatory pure-NumPy fallback, which is simply the existing vectorised
  code path in :mod:`repro.probabilistic.exact`.

Selection is a process-wide singleton resolved lazily on first use and
toggled by the ``REPRO_NATIVE`` environment variable:

``auto``     (default) use the C extension when it imports, else fall back
             silently — a missing compiler must never change a verdict.
``off``      never import the extension; the NumPy path runs with zero
             native code loaded.
``require``  raise :class:`~repro.exceptions.NativeBackendError` when the
             extension cannot be loaded — for CI legs that must prove the
             compiled path is actually exercised.

The chaos harness participates through the ``native-load`` fault site
(:mod:`repro.runtime.faults`): a fired probe during :func:`configure` makes
the extension look unloadable, which forces the fallback under ``auto`` and
raises under ``require``.  Faults move provenance (which backend ran), never
verdicts — both backends are verdict-identical by construction and the
randomized three-way suite in ``tests/probabilistic/test_native_kernel.py``
enforces it.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Any, Callable, Optional

from ..exceptions import NativeBackendError
from ..runtime import faults

__all__ = [
    "Backend",
    "ENV_NATIVE",
    "MODES",
    "backend",
    "backend_name",
    "configure",
    "native_loaded",
]

ENV_NATIVE = "REPRO_NATIVE"
MODES = ("auto", "off", "require")

#: Backend names as reported on RuntimeStats / bench env blocks.
NATIVE = "native"
FALLBACK = "numpy-fallback"


@dataclass(frozen=True)
class Backend:
    """The resolved kernel backend for this process.

    ``fused_split`` is the raw C entry point (or ``None`` on the fallback):

    ``fused_split(parents, axes, left, right, child_min, corners,
    corner_idx, n)`` — for each row ``i`` of ``parents`` (a C-contiguous
    ``(count, 3**n)`` float64 block) split along ``axes[i]`` with the exact
    midpoint de Casteljau arithmetic of the NumPy path in
    :func:`repro.probabilistic.exact.decide_nonnegative_on_box_batched`,
    writing the child coefficient rows into ``left[i]`` / ``right[i]``, the
    per-child coefficient minima into ``child_min[:count]`` /
    ``child_min[count:]``, and gathering the corner coefficients
    ``row[corner_idx]`` of each child into ``corners``.  One pass, no
    intermediate sweeps.

    ``select_axes(sel, ubs, best_axis, n)`` is the compiled counterpart of
    :func:`repro.probabilistic.exact._lazy_split_axes`: per-row worst
    split-axis selection gated by the inherited variation bounds in ``ubs``
    (tightened in place), writing the chosen axes into ``best_axis``.  Both
    entry points are ``None`` on the fallback.
    """

    name: str
    mode: str
    fused_split: Optional[Callable[..., Any]]
    select_axes: Optional[Callable[..., Any]] = None
    load_error: Optional[str] = None


_BACKEND: Optional[Backend] = None


def _load_extension() -> "tuple[Optional[Any], Optional[str]]":
    """Import the compiled module; any failure is reported, never raised."""
    if faults.fire(faults.NATIVE_LOAD):
        return None, "fault-injected: native-load"
    try:
        from . import _kernels  # type: ignore[attr-defined]
    except Exception as exc:  # pragma: no cover - depends on build env
        return None, f"{type(exc).__name__}: {exc}"
    return _kernels, None


def configure(mode: Optional[str] = None) -> Backend:
    """Resolve (and cache) the backend; ``mode=None`` re-reads the env.

    Explicit modes override ``REPRO_NATIVE`` — tests use this to pin the
    fallback (``configure("off")``) around an equivalence run and restore
    the environment's choice afterwards with ``configure(None)``.
    """
    global _BACKEND
    if mode is None:
        mode = os.environ.get(ENV_NATIVE, "auto").strip().lower() or "auto"
    if mode not in MODES:
        raise ValueError(
            f"unknown {ENV_NATIVE} mode {mode!r}; expected one of {', '.join(MODES)}"
        )
    if mode == "off":
        _BACKEND = Backend(name=FALLBACK, mode=mode, fused_split=None)
        return _BACKEND
    module, error = _load_extension()
    if module is not None:
        _BACKEND = Backend(
            name=NATIVE,
            mode=mode,
            fused_split=module.fused_split,
            select_axes=module.select_axes,
        )
        return _BACKEND
    if mode == "require":
        raise NativeBackendError(
            f"{ENV_NATIVE}=require but the native extension failed to load: {error}"
        )
    _BACKEND = Backend(name=FALLBACK, mode=mode, fused_split=None, load_error=error)
    return _BACKEND


def backend() -> Backend:
    """The cached backend, resolving it from the environment on first use."""
    if _BACKEND is None:
        return configure(None)
    return _BACKEND


def backend_name() -> str:
    return backend().name


def native_loaded() -> bool:
    return backend().fused_split is not None
