"""Seeded violation: R9 (and only R9) must fire on this file.

The compiled kernel backend is imported directly instead of going
through the dispatch table (``repro.native.registry.load_kernels``),
bypassing availability probing, the warn-once fallback and the obs
accounting.  Everything else is fully annotated, dtype-explicit and
exception-clean so no other rule trips.
"""

from __future__ import annotations

from typing import Optional

from repro.native import kernels_cext
from repro.native.kernels_cext import CExtKernels


def pick_backend() -> Optional[object]:
    kernels = kernels_cext.load()
    if kernels is not None:
        return kernels
    return CExtKernels
