"""The unified replay plan: one object describing one replay, end to end.

:class:`ReplayPlan` is a single declarative dataclass consumed by one entry
point, :func:`repro.experiments.runner.execute`:

* **source** — exactly one of :attr:`trace` (a JSONL path) or
  :attr:`cluster_jobs` (the generated cluster-scale tier);
* **sink spec** — :attr:`sink` (``retain`` / ``aggregate`` / ``jsonl:DIR``);
* **policies, seeds, workers, shards, scale** — the fan-out shape.

Every plan executes the same way — each shard a lazy spec source — so
:attr:`stream` and :attr:`stream_specs` select nothing; they stay accepted
because existing command lines and wire clients still send them.

The plan is *wire-first*: :meth:`to_wire` / :meth:`from_wire` round-trip it
through plain JSON, which is what lets the replay service accept plan
submissions over a socket and what guarantees a service-side execution is
the same experiment as an offline ``execute(plan)`` — same object, same
validation, same digest.

Every CLI-visible field carries its argparse definition in dataclass field
``metadata`` (see :func:`add_plan_arguments`), so the ``replay`` verb's
flags are *generated from* the plan and the two surfaces cannot drift.  All
cross-field validation lives in :meth:`ReplayPlan.validate` — one
:class:`PlanError` message per conflict — instead of being scattered over
CLI guard clauses.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.policies import available_policies
from repro.simulator.sinks import parse_sink_spec
from repro.workload.profiles import available_frameworks
from repro.workload.synthetic import BOUND_KINDS, BOUND_MIXED


@dataclass(frozen=True)
class ExperimentScale:
    """Knobs that trade experiment fidelity for runtime.

    The defaults match the benchmark harness (laptop-scale, a couple of
    minutes per figure); ``paper()`` gives a larger setting for overnight
    runs closer to the trace-driven simulations of §6.
    """

    num_jobs: int = 60
    size_scale: float = 0.25
    max_tasks_per_job: int = 400
    num_machines: int = 150
    seeds: Sequence[int] = (1,)
    warmup_jobs: int = 40
    #: Worker processes used to fan (policy, seed) runs out; 1 = serial,
    #: 0 = auto-size to the machine.  Results are merged deterministically,
    #: so this knob never changes the numbers — only the wall-clock time.
    workers: int = 1

    @classmethod
    def quick(cls) -> "ExperimentScale":
        """A very small scale for unit tests and smoke benchmarks."""
        return cls(
            num_jobs=16,
            size_scale=0.12,
            max_tasks_per_job=120,
            num_machines=80,
            seeds=(1,),
            warmup_jobs=10,
        )

    @classmethod
    def paper(cls) -> "ExperimentScale":
        """A heavier scale approximating the paper's trace-driven simulator."""
        return cls(
            num_jobs=300,
            size_scale=1.0,
            max_tasks_per_job=2000,
            num_machines=200,
            seeds=(1, 2, 3),
            warmup_jobs=150,
        )


#: Experiment-scale factories keyed by the names a :class:`ReplayPlan` (and
#: the CLI's ``--scale`` flag) may reference.
SCALE_FACTORIES = {
    "quick": ExperimentScale.quick,
    "default": ExperimentScale,
    "paper": ExperimentScale.paper,
}


class PlanError(ValueError):
    """A replay plan is invalid; ``str(exc)`` is the one-line reason."""


def repeated(values: Sequence[Any]) -> List[Any]:
    """The values that occur more than once in ``values``, sorted."""
    return sorted({value for value in values if values.count(value) > 1})


#: The type each plan field must hold; ``[t]`` is a list of ``t``.  A wire
#: plan is decoded JSON, so any field may arrive as any JSON value; fields
#: whose default is ``None`` also accept ``None``.
_FIELD_TYPES: Dict[str, Any] = {
    "trace": str,
    "cluster_jobs": int,
    "policies": [str],
    "scale": str,
    "seeds": [int],
    "workers": int,
    "shards": int,
    "stream": bool,
    "stream_specs": bool,
    "sink": str,
    "cache": str,
    "framework": str,
    "bound_kind": str,
    "seed": int,
}


def _holds(value: Any, kind: Any) -> bool:
    if isinstance(kind, list):
        return isinstance(value, (tuple, list)) and all(_holds(item, kind[0]) for item in value)
    # ``bool`` subclasses ``int``, but ``true`` is no job count.
    return isinstance(value, kind) and (kind is bool or not isinstance(value, bool))


def _cli(flag: Optional[str] = None, **kwargs: Any) -> Dict[str, Dict[str, Any]]:
    """Field metadata carrying the argparse definition of one plan field."""
    spec = dict(kwargs)
    if flag is not None:
        spec["flag"] = flag
    return {"cli": spec}


@dataclass(frozen=True)
class ReplayPlan:
    """One replay, fully described: source, sink, policies and shape.

    Construct it directly, from CLI args (:func:`plan_from_args`) or from
    JSON (:meth:`from_wire` / :meth:`from_json`); then hand it to
    :func:`repro.experiments.runner.execute` — or submit it to a running
    replay service, which executes the very same object.

    Call :meth:`validate` before executing; every constraint violation
    raises :class:`PlanError` with a single self-contained message.
    """

    #: JSONL trace file to replay; exactly one of this or :attr:`cluster_jobs`.
    trace: Optional[str] = field(
        default=None,
        metadata=_cli(
            metavar="PATH",
            help="JSONL trace file (one {job_id, arrival_time, task_durations} "
            "object per line); exactly one of --trace / --cluster-jobs",
        ),
    )
    #: Replay the generated cluster-scale tier at this many jobs instead of a
    #: trace file (seeded by :attr:`seed`, byte-reproducible).
    cluster_jobs: Optional[int] = field(
        default=None,
        metadata=_cli(
            metavar="N",
            arg_type=int,
            help="replay the generated cluster-scale tier at N jobs instead of "
            "a trace file: jobs are generated lazily (seeded by --seed, "
            "byte-reproducible, log-normal sizes) — combine with "
            "--sink aggregate to replay a million jobs with "
            "O(concurrent jobs) resident state",
        ),
    )
    #: Policies to replay under, in report order.
    policies: Tuple[str, ...] = field(
        default=("grass", "late"),
        metadata=_cli(
            flag="--policy",
            action="append",
            metavar="NAME",
            help="policy to replay under (repeatable; default: grass and late)",
        ),
    )
    #: Experiment scale name (cluster size, default seeds); the trace decides
    #: the workload itself.
    scale: str = field(
        default="default",
        metadata=_cli(
            choices=SCALE_FACTORIES,
            help="cluster scale (machines, seeds); the trace decides the workload",
        ),
    )
    #: Explicit simulation seeds; ``None`` uses the scale's defaults.
    seeds: Optional[Tuple[int, ...]] = field(
        default=None,
        metadata=_cli(
            nargs="+",
            arg_type=int,
            metavar="SEED",
            help="explicit simulation seeds (default: the scale's seeds)",
        ),
    )
    #: Worker processes for the (policy, seed, shard) fan-out; 0 = auto.
    workers: int = field(
        default=1,
        metadata=_cli(
            metavar="N",
            arg_type=int,
            help="worker processes for the (policy, seed, shard) fan-out; "
            "1 = serial (default), 0 = auto; results are bit-identical for "
            "any value",
        ),
    )
    #: Arrival-window shards, each replayed as an independent simulation.
    shards: int = field(
        default=1,
        metadata=_cli(
            metavar="K",
            arg_type=int,
            help="split the trace into K arrival-window shards, each replayed "
            "as an independent simulation (default 1)",
        ),
    )
    #: Accepted for compatibility; selects nothing (every replay streams).
    stream: bool = field(
        default=False,
        metadata=_cli(
            action="store_true",
            help="accepted for compatibility and has no effect: every replay "
            "runs shard by shard, feeding job specs lazily into each simulation",
        ),
    )
    #: Accepted for compatibility; selects nothing (every replay streams).
    stream_specs: bool = field(
        default=False,
        metadata=_cli(
            action="store_true",
            help="accepted for compatibility and has no effect: every replay "
            "runs shard by shard, feeding job specs lazily into each simulation",
        ),
    )
    #: Result sink spec: ``retain``, ``aggregate`` or ``jsonl:DIR``.
    sink: str = field(
        default="retain",
        metadata=_cli(
            metavar="KIND",
            help="where per-job results go: 'retain' (default — keep every "
            "JobResult in memory), 'aggregate' (fold each result into "
            "constant-size mergeable aggregates on arrival; resident memory "
            "becomes independent of trace length) or 'jsonl:DIR' (spill one "
            "JSON row per result under DIR, aggregates in memory); the "
            "metrics digest and summary table are identical for every kind",
        ),
    )
    #: Content-addressed result-cache directory; ``None`` disables caching.
    cache: Optional[str] = field(
        default=None,
        metadata=_cli(
            metavar="DIR",
            help="content-addressed replay cache directory: every (policy, "
            "seed, shard) chunk is looked up in DIR before simulating and "
            "stored after, keyed on the plan slice, the trace/cluster "
            "source fingerprint and the engine-source fingerprint, so "
            "re-executing a previously executed plan restores every chunk "
            "from disk with a byte-identical metrics digest",
        ),
    )
    #: Execution framework profile the replay simulates.
    framework: str = field(
        default="hadoop",
        metadata=_cli(
            help="execution framework profile: hadoop (default) or spark",
        ),
    )
    #: Approximation bounds assigned to replayed jobs.
    bound_kind: str = field(
        default=BOUND_MIXED,
        metadata=_cli(
            choices=BOUND_KINDS,
            help="approximation bounds assigned to replayed jobs (default mixed)",
        ),
    )
    #: Seed for the per-job bound/slot assignment (and the generated tier).
    seed: int = field(
        default=0,
        metadata=_cli(
            arg_type=int,
            help="seed for the per-job bound/slot assignment (default 0)",
        ),
    )

    # -- derived ---------------------------------------------------------------

    @property
    def source_label(self) -> str:
        """Human-readable source description for tables and logs."""
        if self.trace is not None:
            return self.trace
        return f"cluster-tier[{self.cluster_jobs} jobs, seed {self.seed}]"

    # -- validation ------------------------------------------------------------

    def validate(self) -> "ReplayPlan":
        """Raise :class:`PlanError` on the first constraint violation.

        Every conflict has exactly one message, stated in terms of both the
        CLI flags and the plan fields so the same error reads correctly
        from either surface.  Returns ``self`` so call sites can chain
        ``plan.validate()`` into an execute call.
        """
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            kind = _FIELD_TYPES[spec.name]
            if value is None and spec.default is None or _holds(value, kind):
                continue
            name = f"a list of {kind[0].__name__}" if isinstance(kind, list) else kind.__name__
            raise PlanError(f"plan field {spec.name} must be {name}, got {value!r:.60}")
        if (self.trace is None) == (self.cluster_jobs is None):
            raise PlanError(
                "give exactly one of --trace PATH or --cluster-jobs N "
                "(plan fields: trace / cluster_jobs)"
            )
        if self.cluster_jobs is not None and self.cluster_jobs < 1:
            raise PlanError("--cluster-jobs must be >= 1")
        if self.workers < 0:
            raise PlanError("--workers must be >= 0 (0 means auto)")
        if self.shards < 1:
            raise PlanError("--shards must be >= 1")
        if not self.policies:
            raise PlanError("a plan needs at least one policy")
        unknown = [name for name in self.policies if name not in available_policies()]
        if unknown:
            raise PlanError(
                f"unknown polic{'ies' if len(unknown) > 1 else 'y'} "
                f"{', '.join(unknown)}; expected one of "
                f"{', '.join(available_policies())}"
            )
        twice = repeated(self.policies)
        if twice:
            raise PlanError(
                f"--policy names {', '.join(twice)} more than once "
                "(plan field: policies)"
            )
        if self.scale not in SCALE_FACTORIES:
            raise PlanError(
                f"unknown scale {self.scale!r}; expected one of "
                f"{', '.join(SCALE_FACTORIES)}"
            )
        if self.seeds is not None and not self.seeds:
            raise PlanError("--seeds needs at least one seed (or omit it)")
        twice = repeated(self.seeds or ())
        if twice:
            # The replay would fold the same (policy, seed, shard) slice twice.
            raise PlanError(
                f"--seeds names {', '.join(map(str, twice))} more than once "
                "(plan field: seeds)"
            )
        negative = [seed for seed in self.seeds or () if seed < 0]
        if negative:
            raise PlanError(
                f"--seeds must be >= 0, got {', '.join(map(str, negative))} "
                "(plan field: seeds)"
            )
        if self.seed < 0:
            raise PlanError(f"--seed must be >= 0, got {self.seed} (plan field: seed)")
        if self.framework not in available_frameworks():
            raise PlanError(
                f"unknown framework {self.framework!r}; expected one of "
                f"{', '.join(available_frameworks())}"
            )
        if self.bound_kind not in BOUND_KINDS:
            raise PlanError(
                f"unknown bound kind {self.bound_kind!r}; expected one of "
                f"{', '.join(BOUND_KINDS)}"
            )
        try:
            parse_sink_spec(self.sink)
        except ValueError as exc:
            raise PlanError(str(exc)) from None
        return self

    # -- wire format -----------------------------------------------------------

    def to_wire(self) -> Dict[str, Any]:
        """Plain-JSON dict (tuples become lists); inverse of :meth:`from_wire`."""
        wire: Dict[str, Any] = {}
        for spec in dataclasses.fields(self):
            value = getattr(self, spec.name)
            if isinstance(value, tuple):
                value = list(value)
            wire[spec.name] = value
        return wire

    @classmethod
    def from_wire(cls, wire: Dict[str, Any]) -> "ReplayPlan":
        """Build a plan from a JSON-decoded dict, rejecting unknown fields."""
        if not isinstance(wire, dict):
            raise PlanError(f"a plan must be a JSON object, got {type(wire).__name__}")
        known = {spec.name for spec in dataclasses.fields(cls)}
        unknown = sorted(set(wire) - known)
        if unknown:
            raise PlanError(
                f"unknown plan field{'s' if len(unknown) > 1 else ''}: "
                f"{', '.join(unknown)}"
            )
        values: Dict[str, Any] = {}
        for name, value in wire.items():
            if name in ("policies", "seeds") and isinstance(value, list):
                value = tuple(value)
            values[name] = value
        try:
            return cls(**values)
        except TypeError as exc:  # e.g. unhashable junk in a field
            raise PlanError(f"malformed plan: {exc}") from None

    def to_json(self) -> str:
        return json.dumps(self.to_wire(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, payload: str) -> "ReplayPlan":
        try:
            wire = json.loads(payload)
        except ValueError as exc:
            raise PlanError(f"plan is not valid JSON: {exc}") from None
        return cls.from_wire(wire)


# -- CLI generation ---------------------------------------------------------------


def plan_cli_fields() -> Tuple[dataclasses.Field, ...]:
    """The plan fields that carry a CLI definition, in declaration order."""
    return tuple(
        spec for spec in dataclasses.fields(ReplayPlan) if "cli" in spec.metadata
    )


def add_plan_arguments(parser: argparse.ArgumentParser) -> None:
    """Add one argparse flag per :class:`ReplayPlan` field, from its metadata.

    This is the anti-drift mechanism of the plan API: the ``replay`` CLI
    verb's parser is *generated* here, so adding a plan field with ``_cli``
    metadata is all it takes to expose it on the command line, and the two
    surfaces cannot disagree about names, defaults or help text.  Flags for
    list-like fields (``--policy``, ``--seeds``) default to ``None`` and
    :func:`plan_from_args` substitutes the dataclass default, so "flag not
    given" is distinguishable from an explicit value.
    """
    for spec in plan_cli_fields():
        cli = dict(spec.metadata["cli"])
        flag = cli.pop("flag", "--" + spec.name.replace("_", "-"))
        kwargs: Dict[str, Any] = {"help": cli.pop("help", ""), "dest": spec.name}
        action = cli.pop("action", None)
        if action == "store_true":
            kwargs["action"] = "store_true"
            kwargs["default"] = spec.default
        elif action == "append":
            kwargs["action"] = "append"
            kwargs["default"] = None
        else:
            kwargs["default"] = None if spec.name in ("seeds",) else spec.default
            arg_type = cli.pop("arg_type", None)
            if arg_type is not None:
                kwargs["type"] = arg_type
            if "choices" in cli:
                kwargs["choices"] = cli.pop("choices")
            if "nargs" in cli:
                kwargs["nargs"] = cli.pop("nargs")
            if "metavar" in cli:
                kwargs["metavar"] = cli.pop("metavar")
        # append/store_true flags may still carry a metavar/type for help
        if action == "append":
            if "metavar" in cli:
                kwargs["metavar"] = cli.pop("metavar")
            arg_type = cli.pop("arg_type", None)
            if arg_type is not None:
                kwargs["type"] = arg_type
        parser.add_argument(flag, **kwargs)


def plan_from_args(args: argparse.Namespace) -> ReplayPlan:
    """Build a (not yet validated) plan from a parsed argparse namespace."""
    values: Dict[str, Any] = {}
    for spec in plan_cli_fields():
        raw = getattr(args, spec.name)
        if raw is None:
            continue  # keep the dataclass default
        if isinstance(raw, list):
            raw = tuple(raw)
        values[spec.name] = raw
    return ReplayPlan(**values)
