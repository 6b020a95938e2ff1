"""Traced launch of a system entry point.

Usage (from the checkout root)::

    python3 -m perfbench.bootstrap --spans DIR --entry cli -- replay --trace t.jsonl ...
    python3 -m perfbench.bootstrap --spans DIR --entry figures -- --cell-seeds 1 2

Times the entry-module import, installs :mod:`perfbench.tracer` and calls the
real entry point (``repro.experiments.cli.main`` or the figures process's
``main``).  When it returns — for ``serve``, after SIGINT — every span and
counter of this process is written to ``DIR``; forked pool workers write
their own files there as they go.
"""

from __future__ import annotations

import importlib
import sys
import time
from pathlib import Path

ENTRIES = {"cli": "repro.experiments.cli", "figures": "perfbench.figures_proc"}


def main(argv: list) -> int:
    if len(argv) < 5 or argv[0] != "--spans" or argv[2] != "--entry" or argv[4] != "--":
        print("usage: bootstrap --spans DIR --entry {cli,figures} -- ARGS...", file=sys.stderr)
        return 2
    spans, entry, rest = Path(argv[1]), argv[3], argv[5:]
    if entry not in ENTRIES:
        print(f"unknown entry {entry!r}; expected one of {sorted(ENTRIES)}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    module = importlib.import_module(ENTRIES[entry])
    import_s = time.perf_counter() - started

    from perfbench.tracer import Tracer, install

    tracer = Tracer(spans)
    tracer.add("cli.import_s", import_s)
    install(tracer)
    try:
        return module.main(rest)
    finally:
        tracer.dump()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
