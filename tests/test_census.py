"""Census: every public definition in ``src/repro`` has a caller outside tests.

A public top-level function or class, or a public method of a top-level
class, must be named somewhere in ``src/``, ``benchmarks/``, ``perfbench/``,
``examples/`` or ``scripts/`` outside its own body.  Import statements,
``__all__`` lists and docstrings do not count as callers; identifiers in
other string literals do (the benchmark tracer wraps functions by name).
``visit_*`` methods are exempt: ``ast.NodeVisitor`` dispatches to them by
building the name.

``KEEP`` lists the definitions kept on purpose although only tests reach
them, each with its reason.  The check runs both ways: an unlisted
test-only name fails, and so does a listed name that now has a caller (or
no longer exists).  The census matches names, not bindings, so a dead
method that shares its name with a live one passes unseen.
"""

from __future__ import annotations

import ast
import bisect
import io
import re
import textwrap
import tokenize
from collections import Counter
from functools import lru_cache
from pathlib import Path
from typing import Dict, FrozenSet, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
CORPUS_DIRS = ("src", "benchmarks", "perfbench", "examples", "scripts")

KEEP: Dict[str, str] = {
    # References the tests hold the hot paths to.
    "repro.core.estimators:EstimateAccuracyTracker.sample_count":
        "read by the estimation walk's reference test",
    "repro.core.estimators:TaskEstimator.record_trem_outcome":
        "the reference the estimation walk's test compares folds against",
    "repro.utils.rng:RngStream.bounded_pareto":
        "the reference the straggler multiplier's derivation test compares against",
    "repro.simulator.stragglers:StragglerConfig.mean_multiplier":
        "the straggler sampler's analytic reference",
    # The README's documented API.
    "repro.experiments.plan:ReplayPlan.from_json": "documented API in the README",
    "repro.experiments.plan:ReplayPlan.to_json": "documented API in the README",
    "repro.service.client:PlanOutcome.aggregates_for": "documented API in the README",
    "repro.service.client:run_plan_sync": "documented API in the README",
    "repro.workload.trace_replay:export_trace": "documented API in the README",
    # Nothing else exposes it.
    "repro.core.policies.grass:Grass.mode_of":
        "the only view of a job's GS/RAS mode; the GRASS tests observe switching through it",
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


def _docstring_nodes(tree: ast.AST) -> Iterator[ast.AST]:
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                yield body[0]


def _ignored_lines(tree: ast.AST) -> Set[int]:
    """Lines of imports, ``__all__`` assignments and docstrings."""
    ignored: Set[int] = set()
    spans: List[ast.AST] = list(_docstring_nodes(tree))
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            spans.append(node)
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                spans.append(node)
    for node in spans:
        ignored.update(range(node.lineno, node.end_lineno + 1))
    return ignored


def _python_identifiers(source: str, tree: ast.AST) -> List[Tuple[int, str]]:
    """``(line, identifier)`` for every name and string-literal identifier."""
    ignored = _ignored_lines(tree)
    found: List[Tuple[int, str]] = []
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        line = token.start[0]
        if line in ignored:
            continue
        if token.type == tokenize.NAME:
            found.append((line, token.string))
        elif token.type == tokenize.STRING:
            found.extend((line, name) for name in _IDENTIFIER.findall(token.string))
    return found


def _corpus() -> Tuple[Counter, Dict[Path, Dict[str, List[int]]], Dict[Path, ast.AST]]:
    """Identifier counts over the corpus, plus each ``src/repro`` file's lines."""
    counts: Counter = Counter()
    lines_by_file: Dict[Path, Dict[str, List[int]]] = {}
    trees: Dict[Path, ast.AST] = {}
    for directory in CORPUS_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if path.suffix == ".py":
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source)
                found = _python_identifiers(source, tree)
                counts.update(name for _, name in found)
                if PACKAGE in path.parents:
                    trees[path] = tree
                    per_name: Dict[str, List[int]] = {}
                    for line, name in found:
                        per_name.setdefault(name, []).append(line)
                    lines_by_file[path] = per_name
            elif path.suffix == ".sh":
                counts.update(_IDENTIFIER.findall(path.read_text(encoding="utf-8")))
    return counts, lines_by_file, trees


def _public_definitions(tree: ast.AST) -> Iterator[Tuple[str, ast.AST]]:
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if not isinstance(node, defs) or node.name.startswith("_"):
            continue
        yield node.name, node
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if (
                    isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                    and not member.name.startswith("_")
                    and not member.name.startswith("visit_")
                ):
                    yield f"{node.name}.{member.name}", member


@lru_cache(maxsize=None)
def unreached_definitions() -> FrozenSet[str]:
    """``module:qualname`` of every public definition with no outside caller."""
    counts, lines_by_file, trees = _corpus()
    unreached: Set[str] = set()
    for path, tree in sorted(trees.items()):
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = lines_by_file[path].get(name, [])
            inside = bisect.bisect_right(own, node.end_lineno) - bisect.bisect_left(
                own, node.lineno
            )
            if counts[name] - inside <= 0:
                unreached.add(f"{module}:{qualname}")
    return frozenset(unreached)


def test_every_public_definition_has_a_caller_outside_tests():
    unlisted = sorted(unreached_definitions() - set(KEEP))
    assert not unlisted, f"reached only by tests (delete, or list in KEEP): {unlisted}"


def test_keep_lists_only_definitions_without_an_outside_caller():
    stale = sorted(set(KEEP) - unreached_definitions())
    assert not stale, f"KEEP entries that have a caller or are gone: {stale}"


def test_imports_all_lists_and_docstrings_are_not_callers():
    source = textwrap.dedent(
        '''\
        """Mentions in_module_docstring."""
        from pkg import (
            imported_name,
        )
        __all__ = ["exported_name"]


        def caller():
            """Mentions in_function_docstring."""
            called_name()
            return "traced_name", 'two words'
        '''
    )
    names = {name for _, name in _python_identifiers(source, ast.parse(source))}
    assert {"caller", "called_name", "traced_name", "two", "words"} <= names
    for hidden in (
        "in_module_docstring", "pkg", "imported_name", "exported_name", "in_function_docstring"
    ):
        assert hidden not in names
