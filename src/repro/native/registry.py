"""The one dispatch table for compiled-kernel entry points (invariant R9).

Every compiled kernel the native engine can run is reachable *only*
through :func:`load_kernels` here, which front-ends reach only through
``engine="native"`` resolution (``StandardLSH.execution_plan``).  No
other module may import the backend module
(:mod:`repro.native.kernels_cext`) directly; rule R9 of the invariant
checker enforces this, which keeps exactly one seam where the backend
can be pinned or disabled.

Backend resolution (once per process, cached):

- ``cext`` — ``_kernels.c`` compiled on demand via the system C
  compiler, bound with ctypes;
- fallback — ``None`` when that fails: the caller degrades to the
  vectorized engine with a single :class:`RuntimeWarning` and an obs
  counter.

``REPRO_NATIVE_BACKEND`` pins the choice: ``auto`` (default), ``cext``
(the same backend, named explicitly), or ``none`` (force the fallback;
used by the no-compiled-tier CI job and the fallback tests).  Any other
value is reported in :func:`native_status` and treated as ``none``.
"""

from __future__ import annotations

import os
import threading
import warnings
from typing import Dict, Optional, Tuple

from repro import obs

__all__ = ["REGISTERED_ENGINES", "KERNEL_NAMES", "load_kernels",
           "native_backend", "native_status", "reset"]

#: The registered engine set: every valid ``engine=`` value across the
#: query front-ends and the CLI.  ``native`` resolves through this
#: module; the other two are pure-numpy plans in ``repro.lsh.index``.
REGISTERED_ENGINES: Tuple[str, ...] = ("vectorized", "scalar", "native")

#: Kernel entry points every backend must provide (the table's schema).
KERNEL_NAMES: Tuple[str, ...] = ("lookup_codes", "dedup_candidates",
                                 "rank_topk", "dm_decode", "e8_decode")

_VALID_PINS = ("auto", "cext", "none")

_lock = threading.Lock()
_resolved = False
_kernels: Optional[object] = None
_backend: Optional[str] = None
_setup_seconds: float = 0.0
_errors: Dict[str, str] = {}
_warned = False


def _resolve_locked() -> None:
    global _resolved, _kernels, _backend, _setup_seconds
    if _resolved:
        return
    pin = os.environ.get("REPRO_NATIVE_BACKEND", "auto").lower()
    if pin not in _VALID_PINS:
        _errors["config"] = (f"invalid REPRO_NATIVE_BACKEND={pin!r}; "
                             f"expected one of {_VALID_PINS}")
        pin = "none"
    if pin != "none":
        # One-time setup (cc invocation) is timed through the resilience
        # clock exemption: obs owns wall reads, so route the measurement
        # through its span helper at record time.
        import time  # invariant: disable=R6 — one-time setup timing,
        # recorded via obs below, never on the per-query path.

        t0 = time.perf_counter()  # invariant: disable=R6 — setup-only timing
        try:
            from repro.native import kernels_cext

            _kernels = kernels_cext.load()
        except Exception as error:  # any build/load failure means fallback
            _errors["cext"] = f"{type(error).__name__}: {error}"
        else:
            _setup_seconds = time.perf_counter() - t0  # invariant: disable=R6 — setup-only timing
            _backend = "cext"
            ob = obs.active()
            if ob is not None:
                ob.record_native_setup(_backend, _setup_seconds)
    _resolved = True


def load_kernels() -> Optional[object]:
    """The resolved kernel table, or ``None`` when no backend is usable.

    On the first ``None`` resolution a single :class:`RuntimeWarning` is
    emitted and the ``repro_native_fallbacks_total`` counter bumped —
    acceptance contract (d): ``engine="native"`` without a compiled tier
    degrades loudly-once, never crashes.
    """
    global _warned
    with _lock:
        _resolve_locked()
        kernels = _kernels
        if kernels is None and not _warned:
            _warned = True
            reason = "; ".join(f"{k}: {v}" for k, v in _errors.items()) \
                or "disabled (REPRO_NATIVE_BACKEND=none)"
            warnings.warn(
                f"native kernels unavailable ({reason}); "
                f"engine='native' falling back to 'vectorized'",
                RuntimeWarning, stacklevel=3)
            ob = obs.active()
            if ob is not None:
                ob.record_native_fallback(
                    "disabled" if "config" not in _errors and not _errors
                    else "unavailable")
    return kernels


def native_backend() -> Optional[str]:
    """Name of the resolved backend (``'cext'``) or ``None``."""
    with _lock:
        _resolve_locked()
        return _backend


def native_status() -> Dict[str, object]:
    """Diagnostic snapshot: backend, setup time, resolution errors."""
    with _lock:
        _resolve_locked()
        return {"backend": _backend,
                "setup_seconds": _setup_seconds,
                "errors": dict(_errors),
                "engines": list(REGISTERED_ENGINES)}


def reset() -> None:
    """Forget the cached resolution (tests re-pin via the env var)."""
    global _resolved, _kernels, _backend, _setup_seconds, _warned
    with _lock:
        _resolved = False
        _kernels = None
        _backend = None
        _setup_seconds = 0.0
        _errors.clear()
        _warned = False
