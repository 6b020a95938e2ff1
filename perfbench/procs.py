"""Process, timing and statistics helpers shared by the workloads."""

from __future__ import annotations

import hashlib
import os
import platform
import signal
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence

#: The checkout root: the directory holding ``perfbench/`` and ``src/``.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Scratch space for generated inputs, caches and spans (git-ignored).
WORK = ROOT / ".perfbench"


class SourceMissing(RuntimeError):
    """The checkout has no ``src/repro`` to benchmark."""


def import_program() -> None:
    """Put ``src`` first on ``sys.path`` and check ``repro`` comes from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SourceMissing(f"no program source at {SRC / 'repro'}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        raise SourceMissing(f"repro imported from {repro.__file__}, not {SRC}")


def program_env(**extra: str) -> Dict[str, str]:
    """Environment of every system process: the checkout's ``src`` only."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONSTARTUP", None)
    env.update(extra)
    return env


# -- statistics --------------------------------------------------------------------


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolation percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no values")
    position = (len(ordered) - 1) * q / 100.0
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def median(values: Sequence[float]) -> float:
    return percentile(values, 50.0)


def p90(values: Sequence[float]) -> float:
    """The 90th percentile, averaged over the 85th-95th band.

    The mean of the interpolated percentiles at 85, 87.5, 90, 92.5 and 95
    estimates the same quantile as a single order statistic, but a couple of
    tail samples (one host hiccup) move it far less.
    """
    return sum(percentile(values, q) for q in (85.0, 87.5, 90.0, 92.5, 95.0)) / 5.0


@dataclass
class WorkloadResult:
    """What one workload run reports."""

    #: End-to-end metrics (untraced run) or per-layer metrics (traced run).
    metrics: Dict[str, float]
    attempted: int
    failures: List[str]
    #: Further numbers for the human-readable report only.
    extra: Dict[str, float] = field(default_factory=dict)
    #: Open-loop generator lateness (ms); empty for closed-loop workloads.
    lateness: Dict[str, float] = field(default_factory=dict)


# -- child processes ---------------------------------------------------------------


@dataclass
class ProcessRun:
    """One finished system process, timed from spawn."""

    returncode: int
    #: Seconds from spawn to exit.
    seconds: float
    #: Seconds from spawn to each stdout line, in order.
    line_times: List[float] = field(default_factory=list)
    lines: List[str] = field(default_factory=list)
    #: Peak RSS (MiB) of the largest process in the tree (it or a worker).
    peak_rss_mb: float = 0.0
    stderr: str = ""


def _wait(proc: subprocess.Popen, timeout: float) -> float:
    """Reap ``proc`` with ``wait4`` and return its tree's peak RSS in MiB."""
    killer = threading.Timer(timeout, proc.kill)
    killer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        killer.cancel()
        killer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    # ru_maxrss is KiB on Linux: the largest of the child and the
    # descendants it reaped (pool workers).
    return usage.ru_maxrss / 1024.0


def run_process(
    argv: Sequence[str],
    timeout: float = 170.0,
    env: Optional[Dict[str, str]] = None,
) -> ProcessRun:
    """Spawn ``argv`` from the checkout root; time its stdout lines and exit."""
    WORK.mkdir(parents=True, exist_ok=True)
    line_times: List[float] = []
    lines: List[str] = []
    with tempfile.TemporaryFile(dir=WORK) as err:
        started = time.perf_counter()
        proc = subprocess.Popen(
            list(argv),
            cwd=str(ROOT),
            env=env or program_env(),
            stdout=subprocess.PIPE,
            stderr=err,
            stdin=subprocess.DEVNULL,
        )

        def read_lines() -> None:
            assert proc.stdout is not None
            with proc.stdout:
                for raw in proc.stdout:
                    line_times.append(time.perf_counter() - started)
                    lines.append(raw.decode("utf-8", "replace").rstrip("\n"))

        reader = threading.Thread(target=read_lines, daemon=True)
        reader.start()
        rss = _wait(proc, timeout)
        seconds = time.perf_counter() - started
        reader.join(timeout=10.0)
        err.seek(0)
        stderr = err.read().decode("utf-8", "replace")
    return ProcessRun(
        returncode=proc.returncode,
        seconds=seconds,
        line_times=line_times,
        lines=lines,
        peak_rss_mb=rss,
        stderr=stderr[-4000:],
    )


def stop_process(proc: subprocess.Popen, timeout: float = 20.0) -> float:
    """SIGINT a long-running system process, reap it, return peak RSS (MiB)."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGINT)
    return _wait(proc, timeout)


def import_probe_seconds(module: str, probes: int) -> List[float]:
    """Spawn ``python3 -c 'import <module>'`` ``probes`` times; spawn-to-exit."""
    times = []
    for _ in range(probes):
        run = run_process([sys.executable, "-c", f"import {module}"], timeout=60.0)
        if run.returncode != 0:
            raise RuntimeError(f"import {module} failed: {run.stderr.strip()[-500:]}")
        times.append(run.seconds)
    return times


def prime_bytecode() -> None:
    """Compile every entry module's bytecode once, untimed."""
    run = run_process(
        [
            sys.executable,
            "-c",
            "import repro.experiments.cli, repro.service.server, repro.service.client",
        ],
        timeout=120.0,
    )
    if run.returncode != 0:
        raise RuntimeError(f"cannot import the program: {run.stderr.strip()[-500:]}")


# -- run record --------------------------------------------------------------------


def calibration_seconds(rounds: int = 3) -> float:
    """Median time of a fixed pure-Python loop: the box's speed on this run."""
    times = []
    for _ in range(rounds):
        started = time.perf_counter()
        table: Dict[int, int] = {}
        digest = hashlib.sha256()
        for index in range(200_000):
            table[index % 4096] = table.get(index % 4096, 0) + index
            if index % 1024 == 0:
                digest.update(str(table[index % 4096]).encode())
        times.append(time.perf_counter() - started)
    return median(times)


def git_sha() -> str:
    """The checkout's commit, read from ``.git`` without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            name = ref[5:]
            ref_path = ROOT / ".git" / name
            if ref_path.is_file():
                return ref_path.read_text(encoding="utf-8").strip()
            packed = ROOT / ".git" / "packed-refs"
            for line in packed.read_text(encoding="utf-8").splitlines():
                if line.endswith(" " + name):
                    return line.split(" ", 1)[0]
            return "unknown"
        return ref
    except OSError:
        return "unknown"


def run_record(workload: str, seed: int, lateness: Dict[str, float]) -> Dict[str, object]:
    """Provenance printed with every result."""
    from repro.experiments.cache import engine_fingerprint

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        nproc = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "nproc": nproc,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "engine_fingerprint": engine_fingerprint(),
        "calibration_s": round(calibration_seconds(), 6),
        "generator_lateness": lateness,
    }
