"""Traced ``repro-knn serve``: install the span wrappers, then run the CLI.

Usage (the ``serve`` workload starts it; arguments are those of
``repro-knn serve``)::

    PERFBENCH_TRACE_OUT=spans.json python3 perfbench/serve_traced.py \\
        index.npz --wal index.wal --compact-async --engine native

When the server stops (SIGINT), every span and a snapshot of the
server's obs registry are written to ``$PERFBENCH_TRACE_OUT``.
"""

from __future__ import annotations

import os
import sys
from typing import List, Optional


def main(argv: List[str]) -> int:
    from repro import obs
    from repro.cli import main as cli_main

    from tracing import Tracer

    out = os.environ["PERFBENCH_TRACE_OUT"]
    registries: List[object] = []
    enable = obs.enable

    def capture(registry: Optional[object] = None, **kwargs: object):
        registries.append(registry)
        return enable(registry=registry, **kwargs)

    obs.enable = capture
    tracer = Tracer().install()
    tracer.phase = "serve"
    try:
        return cli_main(["serve"] + argv)
    finally:
        tracer.uninstall()
        obs.enable = enable
        registry = registries[-1] if registries else None
        counters = registry.snapshot() if registry is not None else {}
        tracer.dump(out, {"counters": counters})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
