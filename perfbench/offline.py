"""Offline digests of service plans: ``execute(plan).digest``, no service.

Usage (from the checkout root, with ``PYTHONPATH=src``)::

    python3 -m perfbench.offline PLANS.json

``PLANS.json`` holds a JSON list of ``ReplayPlan`` wire dicts; the digests
are printed as one JSON list, in the same order.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Optional


def offline_digest(wire: Dict[str, object]) -> str:
    from repro.experiments.plan import ReplayPlan
    from repro.experiments.runner import execute

    return execute(ReplayPlan.from_wire(wire).validate()).digest


def main(argv: Optional[List[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    with open(argv[0], encoding="utf-8") as handle:
        wires = json.load(handle)
    print(json.dumps([offline_digest(wire) for wire in wires]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
