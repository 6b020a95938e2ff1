"""The sample store GRASS learns its switching point from (§4.1, §4.2).

Every job that the perturbation coin pins to pure-GS or pure-RAS contributes
one :class:`JobSample`: its task-completion curve, together with the three
factors GRASS keys samples on — job size bucket, cluster utilisation bucket
and estimator-accuracy bucket.  GRASS later answers two kinds of questions
against the store:

* *deadline-bound*: how many tasks would policy P complete in the next
  ``t`` seconds?  (fraction of the completion curve at ``t``)
* *error-bound*: how long would policy P take to complete ``k`` more tasks?
  (inverse of the completion curve)

Queries fall back to coarser keys (dropping accuracy, then utilisation, then
size) when the exact bucket has no samples yet, so GRASS degrades gracefully
while the store warms up.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.bounds import BoundType
from repro.core.job import job_bin_label


def utilization_bucket(utilization: float) -> str:
    """Coarse cluster-utilisation bucket: low / medium / high."""
    if utilization < 1.0 / 3.0:
        return "low"
    if utilization < 2.0 / 3.0:
        return "medium"
    return "high"


def accuracy_bucket(accuracy: float) -> str:
    """Coarse estimator-accuracy bucket: poor / fair / good."""
    if accuracy < 0.70:
        return "poor"
    if accuracy < 0.85:
        return "fair"
    return "good"


@dataclass(frozen=True)
class SampleKey:
    """The key samples are bucketed under.

    Fields set to ``None`` act as wildcards; the store's fallback search
    progressively widens the key by clearing fields.
    """

    policy: str
    bound_kind: str
    size_bucket: Optional[str] = None
    utilization: Optional[str] = None
    accuracy: Optional[str] = None


@dataclass
class JobSample:
    """One pinned job's performance record.

    ``completion_times`` are the input-task completion instants relative to
    the job's start, sorted ascending.  ``total_tasks`` is the number of
    input tasks the job had (completed or not), so fractions can be computed
    even for deadline-bound jobs that stopped early.
    """

    policy: str
    bound_kind: str
    total_tasks: int
    completion_times: List[float]
    wave_width: int
    utilization: float
    estimator_accuracy: float
    observed_duration: float

    def __post_init__(self) -> None:
        if self.total_tasks <= 0:
            raise ValueError("total_tasks must be positive")
        if self.wave_width <= 0:
            raise ValueError("wave_width must be positive")
        self.completion_times = sorted(self.completion_times)

    # -- derived -------------------------------------------------------------

    @property
    def size_bucket(self) -> str:
        return job_bin_label(self.total_tasks)

    @property
    def utilization_bucket(self) -> str:
        return utilization_bucket(self.utilization)

    @property
    def accuracy_bucket(self) -> str:
        return accuracy_bucket(self.estimator_accuracy)

    @property
    def waves(self) -> float:
        return self.total_tasks / self.wave_width

    def fraction_completed_by(self, elapsed: float) -> float:
        """Fraction of the job's tasks completed within ``elapsed`` seconds."""
        if elapsed <= 0:
            return 0.0
        count = bisect.bisect_right(self.completion_times, elapsed)
        return count / self.total_tasks

    def time_to_complete_fraction(self, fraction: float) -> Optional[float]:
        """Seconds the job took to reach ``fraction`` completion, or None.

        Returns None when the sample never reached that fraction (e.g. a
        deadline-bound sample that was cut off early), so callers can skip it.
        """
        if fraction <= 0:
            return 0.0
        needed = int(round(fraction * self.total_tasks))
        needed = max(1, needed)
        if needed > len(self.completion_times):
            return None
        return self.completion_times[needed - 1]


def mean_fraction_completed(samples: Sequence[JobSample], elapsed: float) -> float:
    """Mean fraction of tasks the (non-empty) ``samples`` completed in ``elapsed``."""
    fractions = [sample.fraction_completed_by(elapsed) for sample in samples]
    return sum(fractions) / len(fractions)


def mean_time_for_fraction(
    samples: Sequence[JobSample], fraction: float
) -> Optional[float]:
    """Mean time ``samples`` took to reach ``fraction``; None if none did."""
    times = [sample.time_to_complete_fraction(fraction) for sample in samples]
    usable = [time for time in times if time is not None]
    if not usable:
        return None
    return sum(usable) / len(usable)


class SampleStore:
    """Bucketed collection of :class:`JobSample` records with fallback lookup."""

    def __init__(self, max_samples_per_key: int = 64) -> None:
        if max_samples_per_key <= 0:
            raise ValueError("max_samples_per_key must be positive")
        self.max_samples_per_key = max_samples_per_key
        self._samples: Dict[Tuple, List[JobSample]] = {}
        self._total = 0

    # -- insertion -------------------------------------------------------------

    @staticmethod
    def _full_key(sample: JobSample) -> Tuple:
        return (
            sample.policy,
            sample.bound_kind,
            sample.size_bucket,
            sample.utilization_bucket,
            sample.accuracy_bucket,
        )

    def add(self, sample: JobSample) -> None:
        """Insert a sample, evicting the oldest entry of a full bucket."""
        key = self._full_key(sample)
        bucket = self._samples.setdefault(key, [])
        bucket.append(sample)
        if len(bucket) > self.max_samples_per_key:
            bucket.pop(0)
        self._total += 1

    def __len__(self) -> int:
        return sum(len(bucket) for bucket in self._samples.values())

    @property
    def total_added(self) -> int:
        return self._total

    # -- lookup -----------------------------------------------------------------

    def _matching(
        self,
        policy: str,
        bound_kind: str,
        size_bucket: Optional[str],
        utilization: Optional[str],
        accuracy: Optional[str],
    ) -> List[JobSample]:
        matches: List[JobSample] = []
        for (pol, bound, size, util, acc), bucket in self._samples.items():
            if pol != policy or bound != bound_kind:
                continue
            if size_bucket is not None and size != size_bucket:
                continue
            if utilization is not None and util != utilization:
                continue
            if accuracy is not None and acc != accuracy:
                continue
            matches.extend(bucket)
        return matches

    def samples_for(
        self,
        policy: str,
        bound_kind: str,
        size_bucket: Optional[str] = None,
        utilization: Optional[str] = None,
        accuracy: Optional[str] = None,
    ) -> List[JobSample]:
        """Samples matching the key, widening it until something matches.

        The fallback order drops the least important factor first: accuracy,
        then utilisation, then job size.
        """
        fallback_order: Sequence[Tuple] = (
            (size_bucket, utilization, accuracy),
            (size_bucket, utilization, None),
            (size_bucket, None, None),
            (None, None, None),
        )
        for size, util, acc in fallback_order:
            matches = self._matching(policy, bound_kind, size, util, acc)
            if matches:
                return matches
        return []

    # -- aggregate queries ----------------------------------------------------------

    def expected_fraction_completed(
        self,
        policy: str,
        elapsed: float,
        size_bucket: Optional[str] = None,
        utilization: Optional[str] = None,
        accuracy: Optional[str] = None,
    ) -> Optional[float]:
        """Mean fraction of tasks a ``policy`` job completes in ``elapsed`` seconds."""
        samples = self.samples_for(
            policy, BoundType.DEADLINE.value, size_bucket, utilization, accuracy
        )
        if not samples:
            return None
        return mean_fraction_completed(samples, elapsed)

    def expected_time_for_fraction(
        self,
        policy: str,
        fraction: float,
        size_bucket: Optional[str] = None,
        utilization: Optional[str] = None,
        accuracy: Optional[str] = None,
    ) -> Optional[float]:
        """Mean time a ``policy`` job needs to complete ``fraction`` of its tasks."""
        samples = self.samples_for(
            policy, BoundType.ERROR.value, size_bucket, utilization, accuracy
        )
        if not samples:
            return None
        return mean_time_for_fraction(samples, fraction)

    def sample_counts(self) -> Dict[Tuple, int]:
        """Diagnostic view: how many samples each full key currently holds."""
        return {key: len(bucket) for key, bucket in self._samples.items()}
