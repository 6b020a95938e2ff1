"""Seeded generators: byte-identical for one seed, different across seeds."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench import inputs  # noqa: E402
from perfbench.settings import FigureSettings, ServiceSettings  # noqa: E402


def _cost(plan_seed: int) -> float:
    return float(plan_seed % 97)


def _cell_cost(cell, seed: int) -> float:
    return float(seed % 89)


def test_trace_is_byte_identical_per_seed_and_differs_across_seeds():
    assert inputs.trace_lines(3, 200) == inputs.trace_lines(3, 200)
    assert inputs.trace_lines(3, 200) != inputs.trace_lines(4, 200)


def test_trace_is_arrival_sorted_with_a_stable_size_mix():
    import json

    totals = []
    for seed in (1, 2, 3):
        records = [json.loads(line) for line in inputs.trace_lines(seed, 500)]
        arrivals = [r["arrival_time"] for r in records]
        assert arrivals == sorted(arrivals)
        assert [r["job_id"] for r in records] == list(range(500))
        totals.append(sum(len(r["task_durations"]) for r in records))
    assert max(totals) < 1.25 * min(totals)


def test_service_schedule_is_identical_per_seed_and_differs_across_seeds():
    settings = ServiceSettings()
    first = inputs.service_schedule(5, settings, 10.0, _cost)
    again = inputs.service_schedule(5, settings, 10.0, _cost)
    other = inputs.service_schedule(6, settings, 10.0, _cost)
    assert first == again
    assert first.submissions != other.submissions
    assert first.bursts != other.bursts
    assert first.warm_seeds != other.warm_seeds


def test_service_schedule_shape():
    settings = ServiceSettings()
    schedule = inputs.service_schedule(1, settings, 20.0, _cost)
    nominal = [s for s in schedule.submissions if s.rung == 0]
    assert len(nominal) == round(settings.nominal_rate * 20.0)
    assert sum(s.repeat for s in nominal) == round(settings.hit_share * len(nominal))
    dues = [s.due for s in schedule.submissions]
    assert dues == sorted(dues)
    assert [len(burst) for burst in schedule.bursts] == [settings.burst_plans] * settings.bursts
    bursts = [s for burst in schedule.bursts for s in burst]
    assert not any(s.repeat for s in bursts)
    indexes = [s.index for s in schedule.submissions + tuple(bursts)]
    assert indexes == list(range(len(indexes)))
    fresh = [s.plan_seed for s in schedule.submissions + tuple(bursts) if not s.repeat]
    assert len(fresh) == len(set(fresh))
    assert not set(fresh) & set(schedule.warm_seeds)
    assert {s.plan_seed for s in schedule.submissions if s.repeat} <= set(schedule.warm_seeds)
    assert {s.connection for s in schedule.submissions} == set(range(settings.connections))
    assert len({s.tenant for s in schedule.submissions}) == settings.tenants
    without_ladder = inputs.service_schedule(1, settings, 20.0, _cost, ladder=False)
    assert {s.rung for s in without_ladder.submissions} == {0}
    assert without_ladder.bursts == ()


def test_figure_seeds_are_identical_per_seed_and_differ_across_seeds():
    settings = FigureSettings()
    first = inputs.figure_seeds(1, settings, _cell_cost)
    assert first == inputs.figure_seeds(1, settings, _cell_cost)
    assert first != inputs.figure_seeds(2, settings, _cell_cost)
    assert len(first) == len(settings.cells)
