"""Static determinism & safety analysis for the GRASS reproduction.

Every result in this repo rests on one invariant: replay digests are
byte-identical across sinks, modes and worker counts.  The CI digest
matrix enforces that *dynamically* — after a bug has already shipped into
a branch.  This package enforces the same invariants *statically*, at
lint time, with an AST pass (stdlib :mod:`ast` only) over the tree:

* **determinism** — unseeded RNGs, wall-clock reads, unordered iteration,
  float equality and interpreter-dependent float sums in digest-affecting
  packages (``DET001``–``DET005``);
* **executor/pickle safety** — unpicklable callables at the
  ``ParallelExecutor``/``RunRequest``/``SinkFactory`` boundaries and
  mutable default arguments (``PIC101``–``PIC102``);
* **async hygiene** — blocking calls inside the replay service's event
  loop and loop-unsafe cross-thread calls (``ASY201``–``ASY202``).

Deliberate violations are suppressed per line with a *reasoned* pragma::

    started = time.time()  # repro: allow[DET002] wall timing for display only

A pragma without a reason is itself a finding (``PRG001``): the analyzer
records *why* each exception is safe, not just that someone silenced it.

Entry points: ``grass-experiments analyze [--format text|json] [paths...]``,
``scripts/check.sh analyze`` and :func:`repro.analysis.analyze_paths`.
"""

from repro.analysis.engine import (
    DEFAULT_PATHS,
    AnalysisError,
    analyze_file,
    analyze_paths,
    analyze_source,
    iter_python_files,
)
from repro.analysis.findings import (
    Finding,
    findings_to_json,
)
from repro.analysis.pragmas import PRAGMA_RULE_ID, Pragma, scan_pragmas
from repro.analysis.rules import RULES, Rule, rule_table

__all__ = [
    "AnalysisError",
    "DEFAULT_PATHS",
    "Finding",
    "PRAGMA_RULE_ID",
    "Pragma",
    "RULES",
    "Rule",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "findings_to_json",
    "iter_python_files",
    "rule_table",
    "scan_pragmas",
]
