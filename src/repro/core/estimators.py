"""Task duration estimators: ``trem`` and ``tnew`` (§5.1).

The scheduler never sees true durations.  It sees:

* ``trem`` — the estimated remaining duration of a running task, obtained by
  extrapolating the progress reports the task executors send every 5 % of
  data read/written.
* ``tnew`` — the estimated duration of a fresh copy, obtained by sampling the
  durations of completed tasks of the same job (normalised to input size).

Both estimates are imperfect for two reasons that the simulator reproduces:

1. *Intrinsic unpredictability*: a fresh copy's true duration depends on the
   straggler multiplier it will draw, which nobody can know in advance, and a
   running copy's extrapolation is quantised to the 5 % progress reports.
2. *Measurement noise*: progress-based extrapolation assumes IO-proportional
   progress, which real tasks only approximate.  This is modelled as a small
   multiplicative error (``trem_noise`` / ``tnew_noise``) that is re-drawn as
   the task produces new progress reports, i.e. it is not a permanent bias.

The realised accuracy — ``1 - E[|estimate - actual| / actual]`` — is tracked
online exactly as the prototype does; it is one of GRASS's three switching
factors (§4.1) and lands near the 72 % / 76 % the paper reports under the
default workload profiles.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.core.task import Task
from repro.utils.rng import RngStream
from repro.utils.stats import OnlineStats, clamp


#: A task executor sends a progress report every 5% of its input (§5.1).
PROGRESS_REPORT_FRACTION = 0.05


@dataclass(frozen=True)
class EstimatorConfig:
    """Noise configuration for the two estimators.

    ``trem_noise`` and ``tnew_noise`` are the standard deviations of the
    multiplicative measurement error.  ``perfect()`` produces the noise-free
    estimator the oracle and several unit tests use; ``degraded()`` scales
    the noise up for the estimation-accuracy ablations.  Progress reports
    arrive every :data:`PROGRESS_REPORT_FRACTION` of a copy's work.
    """

    trem_noise: float = 0.05
    tnew_noise: float = 0.05

    def __post_init__(self) -> None:
        if self.trem_noise < 0 or self.tnew_noise < 0:
            raise ValueError("noise levels must be non-negative")

    @classmethod
    def perfect(cls) -> "EstimatorConfig":
        """A noise-free estimator (intrinsic unpredictability still applies)."""
        return cls(trem_noise=0.0, tnew_noise=0.0)

    @classmethod
    def degraded(cls, factor: float) -> "EstimatorConfig":
        """Scale the default noise by ``factor`` (ablations on accuracy)."""
        if factor < 0:
            raise ValueError("factor must be non-negative")
        base = cls()
        return cls(
            trem_noise=base.trem_noise * factor,
            tnew_noise=base.tnew_noise * factor,
        )


class EstimateAccuracyTracker:
    """Tracks realised estimator accuracy, updated on every comparison."""

    def __init__(self) -> None:
        self._accuracy = OnlineStats()

    def record(self, estimated: float, actual: float) -> None:
        if actual <= 0:
            return
        relative_error = abs(estimated - actual) / actual
        self._accuracy.add(clamp(1.0 - relative_error, 0.0, 1.0))

    @property
    def accuracy(self) -> float:
        """Mean realised accuracy in [0, 1]; 1.0 until the first sample."""
        if self._accuracy.count == 0:
            return 1.0
        return self._accuracy.mean

    @property
    def sample_count(self) -> int:
        return self._accuracy.count


class TaskEstimator:
    """Produces ``trem`` / ``tnew`` estimates for one job's tasks.

    The estimator is owned by the per-job scheduler context so its
    completed-task samples never leak across jobs (matching the prototype,
    which normalises by the job's own input sizes).
    """

    def __init__(
        self,
        config: EstimatorConfig,
        rng: RngStream,
        prior_work_rate: float = 1.0,
    ) -> None:
        if prior_work_rate <= 0:
            raise ValueError("prior_work_rate must be positive")
        self.config = config
        self._rng = rng
        # Direct handle on the stream's generator: noise draws happen tens of
        # thousands of times per simulation and the passthrough wrapper was a
        # measurable share of the estimator's cost.  The stream's state is
        # only ever mutated through the shared ``random.Random`` object, so
        # the bound method stays valid for the estimator's lifetime.
        self._gauss = rng._random.gauss
        # Completed tasks' seconds per unit of work, kept sorted so the
        # median is an index read rather than a sort per estimate.
        self._work_samples: List[float] = []
        self._prior_work_rate = prior_work_rate
        self.trem_tracker = EstimateAccuracyTracker()
        self.tnew_tracker = EstimateAccuracyTracker()
        # Noise is cached per "observation": a task's tnew noise refreshes as
        # new completions arrive, and its trem noise refreshes with each
        # progress report, so errors are transient rather than permanent biases.
        self._trem_noise_cache: Dict[tuple, float] = {}
        self._tnew_noise_cache: Dict[tuple, float] = {}
        # Bumped whenever a noise cache is evicted wholesale.  Callers that
        # memoise estimates (the engine's scheduling index) compare this
        # counter to detect that a cached estimate could no longer be
        # reproduced and must be treated as authoritative rather than
        # recomputed (a recompute would re-draw different noise).
        self.noise_generation = 0

    # -- noise ------------------------------------------------------------------

    def _noise(self, sigma: float, cache: Dict[tuple, float], key: tuple) -> float:
        if sigma <= 0:
            return 1.0
        if key not in cache:
            if len(cache) > 4096:
                cache.clear()
                self.noise_generation += 1
            cache[key] = max(0.2, 1.0 + self._gauss(0.0, sigma))
        return cache[key]

    # -- observation hooks ---------------------------------------------------------

    def observe_completion(self, task: Task, actual_duration: float) -> None:
        """Record a completed task's duration for future ``tnew`` estimates."""
        if actual_duration <= 0 or task.work <= 0:
            return
        estimated = self.tnew(task)
        self.tnew_tracker.record(estimated, actual_duration)
        insort(self._work_samples, actual_duration / task.work)

    def record_trem_outcome(self, estimated: float, actual: float) -> None:
        """Feed the realised remaining time back into the accuracy tracker."""
        self.trem_tracker.record(estimated, actual)

    # -- estimates ----------------------------------------------------------------

    @property
    def completed_samples(self) -> int:
        return len(self._work_samples)

    def expected_work_rate(self) -> float:
        """Seconds of duration per unit of task work: the samples' median.

        The same expression as :func:`repro.utils.stats.median`, read off the
        sorted sample list.
        """
        samples = self._work_samples
        if not samples:
            return self._prior_work_rate
        mid = len(samples) // 2
        if len(samples) % 2 == 1:
            return samples[mid]
        return 0.5 * (samples[mid - 1] + samples[mid])

    def tnew(self, task: Task) -> float:
        """Estimated duration of a brand-new copy of ``task``.

        The error of this estimate comes from the sampled work *rate*, which
        is shared by every task of the job (the prototype normalises by input
        size and samples one distribution per job, §5.1).  The noise key is
        therefore the sample count, not the task: the estimate drifts as more
        completions arrive but never ranks equal-sized tasks differently,
        which would cause spurious speculation the real system does not do.
        """
        base = self.expected_work_rate() * task.work
        noise = self._noise(
            self.config.tnew_noise,
            self._tnew_noise_cache,
            (self.completed_samples,),
        )
        return max(1e-6, base * noise)

    def trem(self, task: Task, now: float) -> float:
        """Estimated remaining duration of the best running copy of ``task``.

        Mirrors §5.1: the remaining time is extrapolated from the fraction of
        input processed so far, quantised to the progress-report granularity,
        and perturbed by the estimator's measurement noise.  Before the first
        progress report arrives the estimator can only assume the copy is a
        typical one, so it reports ``tnew`` minus the elapsed time.
        """
        running = task.running_copies
        if not running:
            return self.tnew(task)
        best = min(running, key=lambda copy: copy.remaining(now))
        granularity = PROGRESS_REPORT_FRACTION
        progress = best.progress(now)
        elapsed = best.elapsed(now)
        if progress < granularity:
            # No progress report yet: assume a typical copy, subtract elapsed.
            return max(1e-6, self.tnew(task) - elapsed)
        # Extrapolate from the latest report.  The report carries the exact
        # fraction read/written at the time it was sent, so the extrapolation
        # uses the true progress; only the *timing* of reports is quantised.
        estimated_total = elapsed / progress
        base = max(1e-6, estimated_total - elapsed)
        noise = self._noise(
            self.config.trem_noise,
            self._trem_noise_cache,
            (task.task_id, len(task.copies), int(progress / granularity)),
        )
        return max(1e-6, base * noise)

    # -- the estimation walk -----------------------------------------------------

    def update_running_snaps(
        self, snaps: Dict[int, object], running_ids: list, now: float
    ) -> Tuple[int, int, float, float]:
        """Re-estimate the running tasks ``running_ids`` (ascending ids).

        This walk is the only code that estimates a running task for the
        scheduler.  Its contract: it equals calling :meth:`tnew`,
        :meth:`trem` and ``record_trem_outcome(trem, max(1e-6,
        task.true_remaining(now)))`` per task, in id order — the same values,
        noise draws and accuracy folds (``tests/test_estimators.py`` pins
        it).  Those methods stay the readable reference; this body inlines
        them because it is the simulator's hottest loop.  Each snapshot in
        ``snaps`` receives ``copies``, ``tnew``, ``trem`` and ``_acc`` (the
        sample folded into ``trem_tracker``, which a replayed scheduling
        round re-folds).

        The shared ``tnew`` factor is fetched first, drawing its noise where
        the first per-task ``tnew`` call would, even with no running task.
        Returns ``(completed_samples, noise_generation, rate, noise)``, with
        ``tnew(task) == max(1e-6, (rate * task.work) * noise)`` for every
        task until the next completion, so callers price pending tasks
        without a call each.  The generation is read after that fetch and
        before the loop, so an eviction during the loop leaves the caller's
        copy behind the live counter.
        """
        samples = len(self._work_samples)
        rate = self.expected_work_rate()
        config = self.config
        sigma = config.tnew_noise
        if sigma <= 0.0:
            tnew_noise = 1.0
        else:
            key = (samples,)
            tnew_noise = self._tnew_noise_cache.get(key)
            if tnew_noise is None:
                tnew_noise = self._noise(sigma, self._tnew_noise_cache, key)
        gen = self.noise_generation
        granularity = PROGRESS_REPORT_FRACTION
        trem_sigma = config.trem_noise
        trem_cache = self._trem_noise_cache
        trem_cache_get = trem_cache.get
        draw_noise = self._noise
        tracker_mean = self.trem_tracker._accuracy
        inf = float("inf")
        for task_id in running_ids:
            snap = snaps[task_id]
            task = snap.task
            spec = task.spec
            tnew = (rate * spec.work) * tnew_noise
            if tnew < 1e-6:
                tnew = 1e-6
            best = None
            best_remaining = inf
            for copy in task._running:
                remaining = copy.start_time + copy.duration - now
                if remaining < 0.0:
                    remaining = 0.0
                if remaining < best_remaining:
                    best = copy
                    best_remaining = remaining
            elapsed = now - best.start_time
            if elapsed < 0.0:
                elapsed = 0.0
            progress = elapsed / best.duration
            if progress > 1.0:
                progress = 1.0
            if progress < granularity:
                trem = tnew - elapsed
                if trem < 1e-6:
                    trem = 1e-6
            else:
                estimated_total = elapsed / progress
                base = estimated_total - elapsed
                if base < 1e-6:
                    base = 1e-6
                if trem_sigma <= 0.0:
                    # ``base * 1.0`` is bit-identical to ``base`` and the
                    # clamp cannot trigger (``base >= 1e-6`` already).
                    trem = base
                else:
                    noise_key = (spec.task_id, len(task.copies), int(progress / granularity))
                    noise = trem_cache_get(noise_key)
                    if noise is None:
                        noise = draw_noise(trem_sigma, trem_cache, noise_key)
                    trem = base * noise
                    if trem < 1e-6:
                        trem = 1e-6
            actual = best_remaining if best_remaining > 1e-6 else 1e-6
            sample = 1.0 - abs(trem - actual) / actual
            if sample <= 0.0:
                sample = 0.0
            count = tracker_mean.count + 1
            tracker_mean.count = count
            tracker_mean._mean += (sample - tracker_mean._mean) / count
            snap.running = True
            snap.copies = task._num_running
            snap.trem = trem
            snap.tnew = tnew
            snap._acc = sample
        return samples, gen, rate, tnew_noise

    # -- realised accuracy -----------------------------------------------------------

    @property
    def trem_accuracy(self) -> float:
        return self.trem_tracker.accuracy

    @property
    def tnew_accuracy(self) -> float:
        return self.tnew_tracker.accuracy

    @property
    def combined_accuracy(self) -> float:
        """Mean of the two realised accuracies — GRASS's third switching factor."""
        return 0.5 * (self.trem_accuracy + self.tnew_accuracy)
