"""Optional compiled-kernel tier for the hot inner loops (DESIGN.md §12).

``engine="native"`` runs the hash→probe→gather→rank pipeline through
one compiled backend — C kernels built on demand with the system
toolchain — with **bit-identical** results to the vectorized reference
engine, enforced by ``tests/test_native.py``.  Without a C compiler the
native engine falls back to the vectorized engine.

Layout:

- :mod:`repro.native.ref` — the numpy numeric spec (summation trees,
  tie-breaks) both the vectorized engine and every backend follow;
- :mod:`repro.native.registry` — the single dispatch table + backend
  resolution (invariant R9: kernels are unreachable except through it);
- :mod:`repro.native.kernels_cext` — the C backend (never import it
  directly).

This package imports nothing heavyweight at module load: the backend
resolves lazily on the first ``engine="native"`` query.
"""

from __future__ import annotations

from repro.native.registry import (KERNEL_NAMES, REGISTERED_ENGINES,
                                   load_kernels, native_backend,
                                   native_status)

__all__ = ["KERNEL_NAMES", "REGISTERED_ENGINES", "load_kernels",
           "native_backend", "native_status"]
