"""The open-loop client maps frames to submissions over two shared connections."""

import asyncio
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs, service_mixed  # noqa: E402
from perfbench.offline import offline_digest  # noqa: E402
from perfbench.inputs import Submission  # noqa: E402
from perfbench.settings import ServiceSettings  # noqa: E402

SETTINGS = ServiceSettings(fresh_jobs=4, fresh_shards=2, warm_set=2)


def _submissions(warm, fresh):
    plans = [(True, seed) for seed in warm] * 2 + [(False, seed) for seed in fresh]
    return [
        Submission(
            index=index, due=0.01 * index, rung=0, tenant=f"tenant-{index % 3}",
            connection=index % 2, repeat=repeat, plan_seed=seed,
        )
        for index, (repeat, seed) in enumerate(plans)
    ]


def test_frames_map_to_their_submissions(tmp_path):
    from repro.service.server import ReplayService, ServiceConfig

    warm_seeds, fresh_seeds = [11, 12], [21, 22, 23, 24, 25, 26]
    warm_subs = [
        Submission(index=-1 - i, due=0.0, rung=-1, tenant="warm", connection=i % 2,
                   repeat=False, plan_seed=seed)
        for i, seed in enumerate(warm_seeds)
    ]
    timed = _submissions(warm_seeds, fresh_seeds)

    async def scenario():
        service = ReplayService(ServiceConfig(cache_dir=str(tmp_path / "cache")))
        host, port = await service.start()
        try:
            warm = await service_mixed.drive(host, port, warm_subs, SETTINGS, 30.0)
            outcomes = await service_mixed.drive(host, port, timed, SETTINGS, 30.0)
        finally:
            await service.stop()
        return warm, outcomes, service.cached_plans

    warm, outcomes, cached = asyncio.run(scenario())
    expected = {seed: offline_digest(inputs.plan_wire(SETTINGS, seed))
                for seed in warm_seeds + fresh_seeds}
    assert [o.failure for o in warm + outcomes] == [None] * (len(warm) + len(outcomes))
    ids = [o.request_id for o in warm + outcomes]
    assert len(set(ids)) == len(ids)
    for outcome in warm + outcomes:
        assert outcome.done["digest"] == expected[outcome.submission.plan_seed]
        assert len(outcome.deltas) == SETTINGS.fresh_shards
        assert outcome.first_delta_at <= outcome.done_at
    warm_digests = {o.submission.plan_seed: o.done["digest"] for o in warm}
    assert service_mixed.verify(outcomes, warm_digests, expected, SETTINGS) == []
    assert cached == 2 * len(warm_seeds)  # every repeat was answered from the cache


def test_verify_flags_a_wrong_expected_digest(tmp_path):
    from repro.service.server import ReplayService, ServiceConfig

    timed = _submissions([], [31, 32])

    async def scenario():
        service = ReplayService(ServiceConfig(cache_dir=str(tmp_path / "cache")))
        host, port = await service.start()
        try:
            return await service_mixed.drive(host, port, timed, SETTINGS, 30.0)
        finally:
            await service.stop()

    outcomes = asyncio.run(scenario())
    wrong = {31: "0" * 64, 32: offline_digest(inputs.plan_wire(SETTINGS, 32))}
    failures = service_mixed.verify(outcomes, {}, wrong, SETTINGS)
    assert len(failures) == 1 and "submission 0" in failures[0]


def test_burst_throughput_is_fresh_runs_over_summed_spans():
    settings = ServiceSettings(fresh_jobs=10)

    def outcome(due_at, done_at=None):
        result = service_mixed.Outcome(
            submission=Submission(index=0, due=0.0, rung=3, tenant="t", connection=0,
                                  repeat=False, plan_seed=1),
            due_at=due_at,
        )
        if done_at is not None:
            result.done, result.done_at = {}, done_at
        return result

    # Spans 2 s and 1 s; the unfinished submission still opens its burst.
    bursts = [[outcome(0.0, 1.0), outcome(0.0, 2.0)], [outcome(9.5), outcome(10.0, 10.5)]]
    assert service_mixed.burst_jobs_per_s(bursts, settings) == 3 * 10 / 3.0
