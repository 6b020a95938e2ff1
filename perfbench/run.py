"""The repository benchmark's one command.

Usage (from the checkout root)::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1
    python3 perfbench/run.py --workload figures --trace 1        # per-layer run
    python3 perfbench/run.py --workload service-mixed --steadiness 5

Prints every metric by name with its unit, the run record (nproc, Python,
git sha, engine fingerprint, seed, calibration, generator lateness), and as
its last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 0`` puts the end-to-end metrics of
``BENCHMARK.json`` in that line (the latency metrics are printed above it,
marked report only); ``--trace 1`` the per-layer ones.  Exits 1 when any
output is wrong, 2 when there is no program to benchmark.

``--steadiness N`` runs the workload N times in fresh processes with seeds
``seed .. seed+N-1`` and prints each metric's median, quartiles and
quartile spread against its bound: ``ok`` within a third of the bound,
``near`` within the bound, ``WIDE`` beyond it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import procs  # noqa: E402

WORKLOADS = ("replay-cold", "service-mixed", "figures")


def load_contract() -> Dict[str, object]:
    return json.loads((procs.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> procs.WorkloadResult:
    from perfbench import figures, replay_cold, service_mixed

    module = {"replay-cold": replay_cold, "service-mixed": service_mixed, "figures": figures}[name]
    workdir = procs.WORK / f"{name}-seed{seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    try:
        if trace:
            spans_out = procs.WORK / "traces" / f"{name}-seed{seed}-spans.json"
            return module.traced(seed, seconds, workdir, spans_out=spans_out)
        return module.measure(seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def report(name: str, seed: int, result: procs.WorkloadResult, units: Dict[str, str]) -> None:
    print(f"== {name} (seed {seed})")
    for metric, value in result.metrics.items():
        label = units[metric] if metric in units else "(report only)"
        print(f"  {metric:<32} {value:>14.4f} {label}")
    for metric, value in result.extra.items():
        print(f"  {metric:<32} {value:>14.4f} (report only)")
    failed = min(len(result.failures), result.attempted)
    failed_frac = failed / result.attempted if result.attempted else 1.0
    print(f"  {'failed_frac':<32} {failed_frac:>14.4f} ({failed} of {result.attempted} operations)")
    for failure in result.failures[:20]:
        print(f"  FAILED: {failure}")
    record = procs.run_record(name, seed, result.lateness)
    print("record: " + json.dumps(record, sort_keys=True))


def single(args: argparse.Namespace, contract: Dict[str, object]) -> int:
    kind = "per_layer" if args.trace else "end_to_end"
    specs = contract[kind]
    units = {spec["name"]: spec["unit"] for spec in specs}
    names = [args.workload] if args.workload != "all" else list(WORKLOADS)
    metrics: Dict[str, Dict[str, object]] = {}
    attempted = failed = 0
    for name in names:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        report(name, args.seed, result, units)
        missing = set(units) - set(result.metrics)
        if missing:
            raise RuntimeError(f"{name} did not measure {sorted(missing)}")
        prefix = f"{name}." if len(names) > 1 else ""
        for spec in specs:
            metrics[prefix + spec["name"]] = {
                "value": float(result.metrics[spec["name"]]),
                "unit": spec["unit"],
            }
        attempted += result.attempted
        failed += min(len(result.failures), result.attempted)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


def bare_name(name: str) -> str:
    """A metric name without the workload prefix ``--workload all`` adds."""
    workload, dot, rest = name.partition(".")
    return rest if dot and workload in WORKLOADS else name


def steadiness(args: argparse.Namespace, contract: Dict[str, object]) -> int:
    """Run the workload N times in fresh processes; spreads against bounds."""
    kind = "per_layer" if args.trace else "end_to_end"
    bounds = {spec["name"]: spec.get("bound") for spec in contract[kind]}
    values: Dict[str, List[float]] = {}
    all_correct = True
    for offset in range(args.steadiness):
        seed = args.seed + offset
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(args.seconds), "--trace", str(args.trace),
        ]
        completed = subprocess.run(argv, cwd=str(procs.ROOT), capture_output=True, text=True)
        lines = completed.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines and lines[-1].startswith("{") else None
        if completed.returncode != 0 or last is None or not last["correct"]:
            all_correct = False
            print(f"seed {seed}: FAILED (exit {completed.returncode})\n{completed.stderr[-2000:]}")
            continue
        for name, entry in last["metrics"].items():
            values.setdefault(name, []).append(entry["value"])
        print(f"seed {seed}: " + ", ".join(f"{k}={v['value']:.4g}" for k, v in last["metrics"].items()))
    print(f"{'metric':<32} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'bound':>6}")
    for name, series in values.items():
        if len(series) < 2:
            continue
        q1, _q2, q3 = statistics.quantiles(series, n=4)
        mid = statistics.median(series)
        spread = (q3 - q1) / mid if mid else 0.0
        bound = bounds.get(bare_name(name))
        if bound is None:
            verdict = ""
        else:
            verdict = "ok" if spread <= bound / 3 else "near" if spread <= bound else "WIDE"
        bound_text = "-" if bound is None else f"{bound:.2f}"
        print(f"{name:<32} {mid:>12.4f} {q1:>12.4f} {q3:>12.4f} {spread:>8.3f} {bound_text:>6} {verdict}")
    return 0 if all_correct else 1


def main(argv: List[str]) -> int:
    parser = argparse.ArgumentParser(description="Run the repository benchmark.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measurement time per workload (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", type=int, default=0, metavar="N",
                        help="run N times with consecutive seeds and print the spreads")
    args = parser.parse_args(argv)
    try:
        procs.import_program()
    except procs.SourceMissing as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    contract = load_contract()
    if args.seconds is None:
        args.seconds = float(contract["run_seconds"])
    if args.steadiness:
        return steadiness(args, contract)
    return single(args, contract)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
