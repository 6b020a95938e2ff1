"""Census: every public definition and every field in ``src/repro`` is used
outside tests.

Definitions.  A public top-level function or class, or a public method of a
top-level class, must be named somewhere in ``src/``, ``benchmarks/``,
``perfbench/``, ``examples/`` or ``scripts/`` outside its own body.  Import
statements, ``__all__`` lists and docstrings do not count as callers;
identifiers in other string literals do (the benchmark tracer wraps
functions by name).  ``visit_*`` methods are exempt: ``ast.NodeVisitor``
dispatches to them by building the name.

Fields.  Every dataclass field, every ``__slots__`` entry and every
``self.<name>`` assignment of a top-level class in ``src/repro`` must be
read somewhere in the same corpus.  A read is an attribute load
(``x.name``; ``.name`` in a shell script's inline Python), or an identifier
inside a string literal that is not a docstring (``getattr(x, "name")``).
Writes — assignments and augmented assignments such as ``self.count += 1``
— keyword arguments and ``__slots__`` strings do not count, and neither do
tests.

``KEEP`` and ``KEEP_FIELDS`` list what is kept on purpose although only
tests use it, each with its reason.  Both checks run both ways: an unlisted
test-only name fails, and so does a listed name that is now used (or no
longer exists).  The census matches names, not bindings: a dead method that
shares its name with a live one, or a field that shares its name with a
field (or any attribute) that is read, passes unseen.
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

_SERVICE_COUNTER = (
    "the tests observe the service through it, and the service's planned "
    "stats frame will report it"
)

KEEP_FIELDS: Dict[str, str] = {
    "repro.service.client:DeltaRecord.latency_seconds":
        "part of the record perfbench's service_mixed.refold_failure constructs",
    "repro.service.server:ReplayService.completed_plans": _SERVICE_COUNTER,
    "repro.service.server:ReplayService.failed_plans": _SERVICE_COUNTER,
    "repro.service.server:ReplayService.rejected_submissions": _SERVICE_COUNTER,
    "repro.service.server:ReplayService.released_submissions": _SERVICE_COUNTER,
}

_IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")
_SHELL_ATTRIBUTE = re.compile(r"\.([A-Za-z_][A-Za-z0-9_]*)")


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


def _is_slots(node: ast.AST) -> bool:
    return isinstance(node, ast.Assign) and any(
        isinstance(target, ast.Name) and target.id == "__slots__" for target in node.targets
    )


def _field_reads(tree: ast.AST) -> Set[str]:
    """Attribute loads, plus identifiers in strings that are neither
    docstrings nor ``__slots__`` entries."""
    skipped = {id(node.value) for node in _docstring_nodes(tree)}
    for node in ast.walk(tree):
        if _is_slots(node):
            skipped.update(id(part) for part in ast.walk(node.value))
    reads: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads.add(node.attr)
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in skipped
        ):
            reads.update(_IDENTIFIER.findall(node.value))
    return reads


@lru_cache(maxsize=None)
def _corpus() -> Tuple[
    Counter, Dict[Path, Dict[str, List[int]]], Dict[Path, ast.AST], FrozenSet[str]
]:
    """Identifier counts and field reads over the corpus, plus each
    ``src/repro`` file's tree and identifier lines."""
    counts: Counter = Counter()
    lines_by_file: Dict[Path, Dict[str, List[int]]] = {}
    trees: Dict[Path, ast.AST] = {}
    reads: Set[str] = set()
    for directory in CORPUS_DIRS:
        for path in sorted((ROOT / directory).rglob("*")):
            if not path.is_file() or "__pycache__" in path.parts:
                continue
            if path.suffix == ".py":
                source = path.read_text(encoding="utf-8")
                tree = ast.parse(source)
                found = _python_identifiers(source, tree)
                counts.update(name for _, name in found)
                reads |= _field_reads(tree)
                if PACKAGE in path.parents:
                    trees[path] = tree
                    per_name: Dict[str, List[int]] = {}
                    for line, name in found:
                        per_name.setdefault(name, []).append(line)
                    lines_by_file[path] = per_name
            elif path.suffix == ".sh":
                text = path.read_text(encoding="utf-8")
                counts.update(_IDENTIFIER.findall(text))
                reads.update(_SHELL_ATTRIBUTE.findall(text))
    return counts, lines_by_file, trees, frozenset(reads)


def _module_name(path: Path) -> str:
    module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
    return module[: -len(".__init__")] if module.endswith(".__init__") else module


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


def _fields(cls: ast.ClassDef) -> Iterator[str]:
    """Dataclass fields, ``__slots__`` entries and ``self.<name>`` stores."""
    decorators = [
        decorator.func if isinstance(decorator, ast.Call) else decorator
        for decorator in cls.decorator_list
    ]
    if any(ast.unparse(decorator).endswith("dataclass") for decorator in decorators):
        for member in cls.body:
            if isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                yield member.target.id
    for member in cls.body:
        if _is_slots(member):
            for part in ast.walk(member.value):
                if isinstance(part, ast.Constant) and isinstance(part.value, str):
                    yield part.value
        elif isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(member):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.ctx, ast.Store)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "self"
                ):
                    yield node.attr


@lru_cache(maxsize=None)
def unreached_definitions() -> FrozenSet[str]:
    """``module:qualname`` of every public definition with no outside caller."""
    counts, lines_by_file, trees, _ = _corpus()
    unreached: Set[str] = set()
    for path, tree in sorted(trees.items()):
        module = _module_name(path)
        for qualname, node in _public_definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            own = lines_by_file[path].get(name, [])
            inside = bisect.bisect_right(own, node.end_lineno) - bisect.bisect_left(
                own, node.lineno
            )
            if counts[name] - inside <= 0:
                unreached.add(f"{module}:{qualname}")
    return frozenset(unreached)


@lru_cache(maxsize=None)
def unread_fields() -> FrozenSet[str]:
    """``module:Class.field`` of every field nothing outside tests reads."""
    _, _, trees, reads = _corpus()
    unread: Set[str] = set()
    for path, tree in sorted(trees.items()):
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                unread.update(
                    f"{_module_name(path)}:{node.name}.{name}"
                    for name in _fields(node)
                    if name not in reads
                )
    return frozenset(unread)


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


def test_every_field_is_read_outside_tests():
    unlisted = sorted(unread_fields() - set(KEEP_FIELDS))
    assert not unlisted, f"read only by tests (delete, or list in KEEP_FIELDS): {unlisted}"


def test_keep_fields_lists_only_fields_nothing_outside_tests_reads():
    stale = sorted(set(KEEP_FIELDS) - unread_fields())
    assert not stale, f"KEEP_FIELDS entries that are read or are gone: {stale}"


def test_fields_are_dataclass_fields_slots_and_self_stores():
    source = textwrap.dedent(
        '''\
        @dataclasses.dataclass(frozen=True)
        class Record:
            declared: int
            defaulted: str = ""


        class Plain:
            annotated: int
            __slots__ = ("slotted",)

            def __init__(self):
                self.assigned, self.unpacked = 1, 2
                other.elsewhere = 3
        '''
    )
    record, plain = ast.parse(source).body
    assert list(_fields(record)) == ["declared", "defaulted"]
    assert list(_fields(plain)) == ["slotted", "assigned", "unpacked"]


def test_field_reads_are_loads_and_non_docstring_strings():
    source = textwrap.dedent(
        '''\
        """Mentions in_module_docstring."""


        class Thing:
            """Mentions in_class_docstring."""

            __slots__ = ("slotted",)

            def method(self):
                self.stored = 1
                self.counted += 1
                build(keyword=2)
                return self.loaded, getattr(self, "by_name")
        '''
    )
    reads = _field_reads(ast.parse(source))
    assert {"loaded", "by_name"} <= reads
    for hidden in (
        "in_module_docstring", "in_class_docstring", "slotted", "stored", "counted", "keyword"
    ):
        assert hidden not in reads
