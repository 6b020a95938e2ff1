"""The analyzer's rule registry: what each rule catches and why.

Rules are small AST passes over one file.  Each declares:

* ``id`` — stable identifier used in reports and pragmas (``DET001``);
* ``synopsis`` — one line: what the rule catches;
* ``rationale`` — why the replay digest (or the executor, or the event
  loop) cares;
* ``applies(ctx)`` — the path scope.  Determinism rules watch the
  digest-affecting packages (:data:`DIGEST_PACKAGES`: every package a
  simulation worker imports); pickle rules watch all of ``src``; async
  rules watch ``repro.service``.  Tests and benchmarks are scanned too,
  but only the rules whose scope says so fire there — a test may compare
  floats exactly, library code may not.

Scopes are derived from the *module path* (``repro.simulator.engine``),
not the filesystem root, so fixture sources can be analyzed under a
virtual path (see ``tests/fixtures/analysis/``).

Adding a rule: subclass :class:`Rule`, fill in the class attributes and
``visit``, and append it to :data:`RULES`.  The pragma parser, CLI table
and README all read from the registry, so one list is the whole story.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import ClassVar, Dict, Iterator, List, Optional, Set, Tuple

__all__ = ["FileContext", "RawFinding", "Rule", "RULES", "rule_table"]

# Packages whose code can reach the per-result digest fold: anything
# nondeterministic here shows up as a digest mismatch in the replay matrix.
# Every package a simulation worker imports, the scope the replay cache's
# engine fingerprint hashes too.
DIGEST_PACKAGES = (
    "baselines", "core", "experiments", "model", "simulator", "utils", "workload",
)


@dataclass
class FileContext:
    """Everything a rule needs to know about the file being analyzed."""

    path: str  # path used in findings (possibly virtual, for fixtures)
    module: Tuple[str, ...]  # ("repro", "simulator", "engine") or () outside src
    tree: ast.Module
    lines: List[str] = field(default_factory=list)
    is_test: bool = False

    @property
    def in_src(self) -> bool:
        return self.module[:1] == ("repro",)

    @property
    def in_digest_packages(self) -> bool:
        return len(self.module) >= 2 and self.module[1] in DIGEST_PACKAGES

    @property
    def in_service(self) -> bool:
        return self.module[:2] == ("repro", "service")

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""


# (line, col, message) — the engine attaches path/source and applies pragmas.
RawFinding = Tuple[int, int, str]


class Rule:
    id: ClassVar[str]
    synopsis: ClassVar[str]
    rationale: ClassVar[str]

    def applies(self, ctx: FileContext) -> bool:
        raise NotImplementedError

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        raise NotImplementedError


def _dotted(node: ast.AST) -> Optional[str]:
    """Resolve ``a.b.c`` attribute chains to a dotted string, else None."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def _import_aliases(tree: ast.Module, module: str) -> Tuple[Set[str], Dict[str, str]]:
    """Names bound to ``module`` and to objects imported from it.

    Returns ``(module_names, member_names)`` where ``module_names`` holds
    every local name referring to the module itself (``import random as
    rnd`` binds ``rnd``) and ``member_names`` maps each local name bound
    by ``from module import member [as alias]`` to the member's real name.
    """
    module_names: Set[str] = set()
    member_names: Dict[str, str] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == module:
                    module_names.add(alias.asname or module)
        elif isinstance(node, ast.ImportFrom) and node.module == module:
            for alias in node.names:
                member_names[alias.asname or alias.name] = alias.name
    return module_names, member_names


# Functions on the random module that draw from the shared global RNG.
_MODULE_RNG_FUNCS = frozenset(
    {
        "betavariate", "binomialvariate", "choice", "choices", "expovariate",
        "gammavariate", "gauss", "getrandbits", "lognormvariate",
        "normalvariate", "paretovariate", "randbytes", "randint", "random",
        "randrange", "sample", "seed", "shuffle", "triangular", "uniform",
        "vonmisesvariate", "weibullvariate",
    }
)


class UnseededRandom(Rule):
    id = "DET001"
    synopsis = (
        "unseeded random.Random() construction or module-level random.* calls"
    )
    rationale = (
        "an RNG seeded from OS entropy (or the shared module-global RNG, "
        "whose state any import can perturb) makes every replay draw "
        "different values — digests diverge between runs and between "
        "workers; derive streams from repro.utils.rng.RngStream instead"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        module_names, members = _import_aliases(ctx.tree, "random")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            # random.Random() / rnd.Random() / Random() with no seed argument.
            rng_class: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and func.attr in ("Random", "SystemRandom")
                and isinstance(func.value, ast.Name)
                and func.value.id in module_names
            ):
                rng_class = func.attr
            elif (
                isinstance(func, ast.Name)
                and members.get(func.id) in ("Random", "SystemRandom")
            ):
                rng_class = members[func.id]
            if rng_class is not None:
                if rng_class == "SystemRandom":
                    yield (
                        node.lineno,
                        node.col_offset,
                        "SystemRandom draws OS entropy and can never replay "
                        "deterministically",
                    )
                elif not node.args and not node.keywords:
                    yield (
                        node.lineno,
                        node.col_offset,
                        "random.Random() without a seed draws OS entropy; "
                        "pass an explicit seed (or derive one from "
                        "repro.utils.rng.RngStream)",
                    )
                continue
            # random.random() / random.choice(...) — the shared global RNG.
            called: Optional[str] = None
            if (
                isinstance(func, ast.Attribute)
                and isinstance(func.value, ast.Name)
                and func.value.id in module_names
                and func.attr in _MODULE_RNG_FUNCS
            ):
                called = f"{func.value.id}.{func.attr}"
            elif (
                isinstance(func, ast.Name)
                and members.get(func.id) in _MODULE_RNG_FUNCS
            ):
                called = func.id
            if called is not None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{called}() uses the process-global RNG whose state any "
                    "import or library call can perturb; use a seeded "
                    "random.Random/RngStream instance",
                )


# Call suffixes that read wall-clock time or OS entropy.  Matching on the
# dotted suffix covers both `time.time()` and `datetime.datetime.now()`.
_WALL_CLOCK_SUFFIXES = (
    "time.time", "time.time_ns", "time.monotonic", "time.monotonic_ns",
    "time.perf_counter", "time.perf_counter_ns",
    "datetime.now", "datetime.utcnow", "datetime.today", "date.today",
    "os.urandom", "os.getrandom", "uuid.uuid1", "uuid.uuid4",
)
# Bare names these modules export that are wall-clock/entropy reads when
# imported with `from time import time`-style imports.
_WALL_CLOCK_MEMBERS = {
    "time": {
        "time", "time_ns", "monotonic", "monotonic_ns",
        "perf_counter", "perf_counter_ns",
    },
    "os": {"urandom", "getrandom"},
    "uuid": {"uuid1", "uuid4"},
}


class WallClockRead(Rule):
    id = "DET002"
    synopsis = (
        "wall-clock/entropy reads (time.time, datetime.now, perf_counter, "
        "os.urandom, uuid4) in digest-affecting packages"
    )
    rationale = (
        "simulated time is the only clock the digest fold may observe; a "
        "wall-clock read that leaks into results, seeds or event order "
        "differs on every run and machine, so the 8-way replay matrix "
        "cannot stay byte-identical"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_digest_packages

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        bare: Dict[str, str] = {}
        for module, wanted in _WALL_CLOCK_MEMBERS.items():
            _, members = _import_aliases(ctx.tree, module)
            for local, real in members.items():
                if real in wanted:
                    bare[local] = f"{module}.{real}"
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            dotted = _dotted(node.func)
            label: Optional[str] = None
            if dotted is not None and dotted.count(".") >= 1:
                for suffix in _WALL_CLOCK_SUFFIXES:
                    if dotted == suffix or dotted.endswith("." + suffix):
                        label = dotted
                        break
            elif isinstance(node.func, ast.Name) and node.func.id in bare:
                label = f"{node.func.id} (= {bare[node.func.id]})"
            if label is not None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{label}() reads the wall clock or OS entropy inside a "
                    "digest-affecting package; thread simulated time or an "
                    "explicit seed through instead",
                )


class UnorderedIteration(Rule):
    id = "DET003"
    synopsis = (
        "iteration over set values or os.listdir/glob results without sorted()"
    )
    rationale = (
        "set iteration order depends on insertion history and hash "
        "randomization, and the OS returns directory entries in on-disk "
        "order — any of them feeding the event stream or the digest fold "
        "reorders results between runs; wrap the iterable in sorted()"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_digest_packages

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        iter_nodes: List[ast.expr] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iter_nodes.append(node.iter)
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp,
                                   ast.GeneratorExp)):
                iter_nodes.extend(gen.iter for gen in node.generators)
        for expr in iter_nodes:
            problem = self._unordered(expr)
            if problem is not None:
                yield (
                    expr.lineno,
                    expr.col_offset,
                    f"iterating over {problem} yields an unstable order; "
                    "wrap it in sorted() before it can touch event or "
                    "result order",
                )

    @staticmethod
    def _unordered(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.Set):
            return "a set literal"
        if isinstance(expr, ast.SetComp):
            return "a set comprehension"
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted in ("set", "frozenset"):
                return f"{dotted}(...)"
            if dotted is not None:
                for unordered in ("os.listdir", "glob.glob", "glob.iglob"):
                    if dotted == unordered or dotted.endswith("." + unordered):
                        return f"{dotted}(...)"
            if isinstance(expr.func, ast.Attribute) and expr.func.attr == "iterdir":
                return "Path.iterdir(...)"
        return None


class FloatEquality(Rule):
    id = "DET004"
    synopsis = "float == / != comparisons outside tests"
    rationale = (
        "float equality silently depends on accumulation order, so code "
        "that branches on it can take different paths when a refactor "
        "reassociates a sum — a digest change with no visible diff; use "
        "math.isclose, compare integers, or pragma an exact sentinel check"
    )

    def applies(self, ctx: FileContext) -> bool:
        return not ctx.is_test

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Compare):
                continue
            if not any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops):
                continue
            operands = [node.left, *node.comparators]
            if any(self._floatish(operand) for operand in operands):
                yield (
                    node.lineno,
                    node.col_offset,
                    "== / != against a float compares bit patterns, not "
                    "values; use math.isclose or an integer/sentinel "
                    "representation",
                )

    @staticmethod
    def _floatish(expr: ast.expr) -> bool:
        if isinstance(expr, ast.Constant) and isinstance(expr.value, float):
            return True
        if isinstance(expr, ast.UnaryOp):
            return FloatEquality._floatish(expr.operand)
        if isinstance(expr, ast.Call) and _dotted(expr.func) == "float":
            return True
        return False


class InterpreterDependentSum(Rule):
    id = "DET005"
    synopsis = (
        "built-in sum(), math.fsum or statistics calls in digest-affecting "
        "packages"
    )
    rationale = (
        "CPython 3.12 made sum() over floats compensated, and math.fsum and "
        "statistics round differently again, so their last bits — and every "
        "digest they reach — depend on the interpreter; fold with "
        "repro.utils.stats.left_sum, which adds left to right on every "
        "interpreter"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_digest_packages and not ctx.is_test

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        math_names, math_members = _import_aliases(ctx.tree, "math")
        stats_names, stats_members = _import_aliases(ctx.tree, "statistics")
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            label: Optional[str] = None
            if isinstance(func, ast.Name):
                if func.id == "sum":
                    label = "sum()"
                elif math_members.get(func.id) == "fsum":
                    label = f"{func.id}() (= math.fsum)"
                elif func.id in stats_members:
                    label = f"{func.id}() (= statistics.{stats_members[func.id]})"
            elif isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
                if func.value.id in math_names and func.attr == "fsum":
                    label = f"{func.value.id}.fsum()"
                elif func.value.id in stats_names:
                    label = f"{func.value.id}.{func.attr}()"
            if label is not None:
                yield (
                    node.lineno,
                    node.col_offset,
                    f"{label} can round differently on another interpreter; "
                    "fold with repro.utils.stats.left_sum",
                )


# Call sites whose arguments cross a pickle boundary into worker processes.
_PICKLE_BOUNDARIES = ("ParallelExecutor", "RunRequest", "SinkFactory")


class UnpicklableCallable(Rule):
    id = "PIC101"
    synopsis = (
        "lambdas, nested functions or bound methods passed into "
        "ParallelExecutor/RunRequest/SinkFactory call sites"
    )
    rationale = (
        "these arguments are pickled to worker processes; lambdas, "
        "functions defined inside functions and bound methods fail (or "
        "drag their whole enclosing state across), surfacing only when a "
        "multi-worker replay first runs — pass a module-level callable or "
        "a picklable factory object"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        findings: List[RawFinding] = []
        _PickleBoundaryVisitor(findings).visit(ctx.tree)
        return iter(findings)


class _PickleBoundaryVisitor(ast.NodeVisitor):
    """Tracks nested-function and method names to judge call arguments."""

    def __init__(self, findings: List[RawFinding]) -> None:
        self.findings = findings
        self._function_depth = 0
        self._nested_functions: List[Set[str]] = []
        self._class_methods: List[Set[str]] = []

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        methods = {
            child.name
            for child in node.body
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
        }
        self._class_methods.append(methods)
        self.generic_visit(node)
        self._class_methods.pop()

    def _visit_function(self, node: ast.AST) -> None:
        if self._function_depth > 0 and self._nested_functions:
            self._nested_functions[-1].add(node.name)  # type: ignore[attr-defined]
        self._function_depth += 1
        self._nested_functions.append(set())
        self.generic_visit(node)
        self._nested_functions.pop()
        self._function_depth -= 1

    visit_FunctionDef = _visit_function
    visit_AsyncFunctionDef = _visit_function

    def visit_Call(self, node: ast.Call) -> None:
        func_name = None
        if isinstance(node.func, ast.Name):
            func_name = node.func.id
        elif isinstance(node.func, ast.Attribute):
            func_name = node.func.attr
        if func_name in _PICKLE_BOUNDARIES:
            values = list(node.args) + [kw.value for kw in node.keywords]
            for value in values:
                problem = self._unpicklable(value)
                if problem is not None:
                    self.findings.append(
                        (
                            value.lineno,
                            value.col_offset,
                            f"{problem} passed to {func_name}(...) cannot "
                            "cross the worker-process pickle boundary",
                        )
                    )
        self.generic_visit(node)

    def _unpicklable(self, value: ast.expr) -> Optional[str]:
        if isinstance(value, ast.Lambda):
            return "a lambda"
        if isinstance(value, ast.Name):
            for scope in self._nested_functions:
                if value.id in scope:
                    return f"nested function '{value.id}'"
        if (
            isinstance(value, ast.Attribute)
            and isinstance(value.value, ast.Name)
            and value.value.id == "self"
            and self._class_methods
            and value.attr in self._class_methods[-1]
        ):
            return f"bound method 'self.{value.attr}'"
        return None


_MUTABLE_CONSTRUCTORS = ("bytearray", "deque", "defaultdict", "dict", "list", "set")


class MutableDefault(Rule):
    id = "PIC102"
    synopsis = "mutable default arguments (def f(x=[], y={}, z=set()))"
    rationale = (
        "the default is created once at import and shared by every call — "
        "state leaks across simulations and across ParallelExecutor "
        "requests, the classic source of works-serially-fails-in-parallel "
        "bugs; default to None and construct inside the function"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                     ast.Lambda)):
                continue
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                problem = self._mutable(default)
                if problem is not None:
                    yield (
                        default.lineno,
                        default.col_offset,
                        f"mutable default {problem} is shared across calls; "
                        "use None and construct per call",
                    )

    @staticmethod
    def _mutable(expr: ast.expr) -> Optional[str]:
        if isinstance(expr, ast.List):
            return "[]" if not expr.elts else "[...]"
        if isinstance(expr, ast.Dict):
            return "{}" if not expr.keys else "{...}"
        if isinstance(expr, ast.Set):
            return "{...}"
        if isinstance(expr, (ast.ListComp, ast.DictComp, ast.SetComp)):
            return "a comprehension"
        if isinstance(expr, ast.Call):
            dotted = _dotted(expr.func)
            if dotted is not None and dotted.split(".")[-1] in _MUTABLE_CONSTRUCTORS:
                return f"{dotted}(...)"
        return None


# Dotted suffixes that block the calling thread.
_BLOCKING_SUFFIXES = (
    "time.sleep", "socket.socket", "socket.create_connection",
    "requests.get", "requests.post", "urllib.request.urlopen",
)


class BlockingInAsync(Rule):
    id = "ASY201"
    synopsis = (
        "blocking calls (time.sleep, subprocess, sync sockets, open/read) "
        "lexically inside async def in repro.service"
    )
    rationale = (
        "the replay service is one event loop; a blocking call inside a "
        "coroutine stalls every tenant's stream at once and reorders "
        "delta delivery under load — await asyncio.sleep, or push the "
        "blocking work through AsyncBridge.submit"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_service

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        _, time_members = _import_aliases(ctx.tree, "time")
        bare_sleep = {
            local for local, real in time_members.items() if real == "sleep"
        }
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.AsyncFunctionDef):
                yield from self._scan_async_body(node, bare_sleep)

    def _scan_async_body(
        self, root: ast.AsyncFunctionDef, bare_sleep: Set[str]
    ) -> Iterator[RawFinding]:
        stack: List[ast.AST] = list(root.body)
        while stack:
            node = stack.pop()
            # A nested sync def is a callback that runs elsewhere (often via
            # loop_callback); its body is not on this coroutine's hot path.
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if isinstance(node, ast.Call):
                problem = self._blocking(node, bare_sleep)
                if problem is not None:
                    yield (
                        node.lineno,
                        node.col_offset,
                        f"{problem} blocks the event loop inside "
                        f"'async def {root.name}'; await an async "
                        "equivalent or offload via AsyncBridge.submit",
                    )
            stack.extend(ast.iter_child_nodes(node))

    @staticmethod
    def _blocking(node: ast.Call, bare_sleep: Set[str]) -> Optional[str]:
        dotted = _dotted(node.func)
        if dotted is None:
            return None
        if dotted in bare_sleep:
            return f"{dotted}() (= time.sleep)"
        for suffix in _BLOCKING_SUFFIXES:
            if dotted == suffix or dotted.endswith("." + suffix):
                return f"{dotted}()"
        if dotted == "subprocess" or dotted.startswith("subprocess."):
            return f"{dotted}()"
        if dotted == "open":
            return "open()"
        return None


_CROSS_THREAD_CALLS = ("call_soon_threadsafe", "run_coroutine_threadsafe")


class LoopUnsafeCrossThread(Rule):
    id = "ASY202"
    synopsis = (
        "raw call_soon_threadsafe/run_coroutine_threadsafe outside "
        "AsyncBridge.loop_callback"
    )
    rationale = (
        "worker threads touching the loop directly race against shutdown "
        "and lose the FIFO ordering AsyncBridge.loop_callback guarantees "
        "(deltas must precede 'done' for clients to re-verify the "
        "digest); route cross-thread calls through the bridge"
    )

    def applies(self, ctx: FileContext) -> bool:
        return ctx.in_src

    def visit(self, ctx: FileContext) -> Iterator[RawFinding]:
        for node in ast.walk(ctx.tree):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in _CROSS_THREAD_CALLS
            ):
                yield (
                    node.lineno,
                    node.col_offset,
                    f"raw {node.func.attr}() bypasses "
                    "AsyncBridge.loop_callback's FIFO ordering and "
                    "lifecycle guarantees; use the bridge",
                )


RULES: Tuple[Rule, ...] = (
    UnseededRandom(),
    WallClockRead(),
    UnorderedIteration(),
    FloatEquality(),
    InterpreterDependentSum(),
    UnpicklableCallable(),
    MutableDefault(),
    BlockingInAsync(),
    LoopUnsafeCrossThread(),
)


def rule_table() -> List[Tuple[str, str, str]]:
    """(id, synopsis, rationale) rows, in registry order — for docs/CLI."""
    return [(rule.id, rule.synopsis, rule.rationale) for rule in RULES]
