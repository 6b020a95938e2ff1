"""Integration tests for the experiment harness (runner, policies, figures, CLI)."""

from dataclasses import replace

import pytest

from repro.experiments.cli import build_parser, main
from repro.experiments.figures import (
    FIGURES,
    PERTURBATION_POLICIES,
    figure1_deadline_example,
    figure2_error_example,
    figure3_hill_plot,
    figure4_reactive_model,
    figure15_perturbation,
    run_figure,
    table1_traces,
)
from repro.experiments.policies import available_policies, make_policy
from repro.experiments.runner import (
    ExperimentScale,
    compare_policies,
    improvement_in_accuracy,
    improvement_in_duration,
)
from repro.utils.stats import mean
from repro.workload.bins import DEADLINE_BINS, deadline_bin_label
from repro.workload.synthetic import WorkloadConfig

TINY = ExperimentScale(
    num_jobs=8, size_scale=0.1, max_tasks_per_job=60, num_machines=40, seeds=(1,), warmup_jobs=4
)


class TestPolicyRegistry:
    def test_all_registered_policies_construct(self):
        for name in available_policies():
            policy = make_policy(name)
            assert hasattr(policy, "choose_task")

    def test_unknown_policy_raises(self):
        with pytest.raises(ValueError):
            make_policy("definitely-not-a-policy")

    def test_oracle_flag(self):
        # Only the oracle sees true durations; every other policy estimates.
        exact = {name for name in available_policies() if make_policy(name).exact_estimates}
        assert exact == {"oracle"}

    def test_fresh_instances_returned(self):
        assert make_policy("grass") is not make_policy("grass")

    def test_perturbation_variants_carry_their_xi(self):
        for xi, name in PERTURBATION_POLICIES.items():
            assert make_policy(name).config.perturbation == pytest.approx(xi / 100)


class TestImprovementMetrics:
    def test_accuracy_improvement(self):
        assert improvement_in_accuracy(0.5, 0.75) == pytest.approx(50.0)
        assert improvement_in_accuracy(0.0, 0.75) == 0.0

    def test_duration_improvement(self):
        assert improvement_in_duration(100.0, 60.0) == pytest.approx(40.0)
        assert improvement_in_duration(0.0, 60.0) == 0.0


class TestCompare:
    def test_compare_policies_same_workload_for_all(self):
        comparison = compare_policies(
            ["late", "ras"],
            WorkloadConfig(bound_kind="error", seed=42),
            scale=TINY,
        )
        late_ids = sorted(r.job_id for r in comparison.runs["late"].results)
        ras_ids = sorted(r.job_id for r in comparison.runs["ras"].results)
        assert late_ids == ras_ids
        assert len(late_ids) == TINY.num_jobs

    def test_improvement_by_bin_keys(self):
        comparison = compare_policies(
            ["late", "ras"],
            WorkloadConfig(bound_kind="deadline", seed=43),
            scale=TINY,
        )
        by_bin = comparison.accuracy_improvement_by_bin("ras", "late")
        assert set(by_bin) <= {"small", "medium", "large"}
        assert comparison.accuracy_improvement("ras", "late") == pytest.approx(
            improvement_in_accuracy(
                comparison.runs["late"].average_accuracy(),
                comparison.runs["ras"].average_accuracy(),
            )
        )

    def test_compare_policies_rejects_a_repeated_policy(self):
        # Both runs would fold into one entry of the comparison.
        with pytest.raises(ValueError, match="more than once: late"):
            compare_policies(
                ["late", "ras", "late"], WorkloadConfig(seed=42), scale=TINY
            )

    def test_compare_policies_rejects_a_repeated_seed(self):
        # The seed's runs would count twice in every average.
        with pytest.raises(ValueError, match="seeds named more than once: 1"):
            compare_policies(
                ["late"], WorkloadConfig(seed=42), scale=replace(TINY, seeds=(1, 2, 1)),
            )

    def test_compare_policies_rejects_empty_seeds(self):
        # With no seed there is no run to fold into a policy's aggregates.
        with pytest.raises(ValueError, match="needs at least one seed"):
            compare_policies(
                ["late"], WorkloadConfig(seed=42), scale=replace(TINY, seeds=()),
            )

    def test_compare_policies_rejects_a_negative_seed(self):
        # ``random.Random`` seeds with ``abs(seed)``: -1 would rerun seed 1.
        with pytest.raises(ValueError, match="seeds must be non-negative: -1"):
            compare_policies(
                ["late"], WorkloadConfig(seed=42), scale=replace(TINY, seeds=(2, -1)),
            )

    def test_bound_bin_groupings(self):
        comparison = compare_policies(
            ["late", "ras"],
            WorkloadConfig(bound_kind="error", seed=44),
            scale=TINY,
        )
        by_error = comparison.duration_improvement_by_error_bin("ras", "late")
        assert all(isinstance(value, float) for value in by_error.values())

    def test_deadline_bins_follow_each_spec_slack(self):
        comparison = compare_policies(
            ["late", "gs"],
            WorkloadConfig(bound_kind="deadline", seed=6),
            scale=ExperimentScale.quick(),
        )
        by_bin = comparison.accuracy_improvement_by_deadline_bin("gs", "late")
        assert len(by_bin) >= 2
        assert set(by_bin) <= {label for label, _high in DEADLINE_BINS}
        specs = {spec.job_id: spec for spec in comparison.workload.job_specs}

        def slack_bin(result):
            spec = specs[result.job_id]
            ideal = spec.ideal_duration(spec.max_slots)
            return deadline_bin_label(100.0 * (spec.bound.deadline / ideal - 1.0))

        def accuracies(name, label):
            results = comparison.runs[name].deadline_results()
            return [result.accuracy for result in results if slack_bin(result) == label]

        for label, value in by_bin.items():
            late, gs = accuracies("late", label), accuracies("gs", label)
            assert value == improvement_in_accuracy(mean(late), mean(gs))


class TestScales:
    def test_quick_is_smaller_than_default(self):
        assert ExperimentScale.quick().num_jobs < ExperimentScale().num_jobs

    def test_paper_is_larger_than_default(self):
        assert ExperimentScale.paper().num_jobs > ExperimentScale().num_jobs


class TestFigures:
    def test_registry_contains_every_experiment(self):
        expected = {
            "table1", "figure1", "figure2", "figure3", "figure4", "sec2.3",
            "figure5", "figure6", "figure7", "figure8", "figure9", "figure10",
            "figure11", "figure12", "figure13", "figure14", "figure15", "exact",
            "trace-replay",
        }
        assert expected == set(FIGURES)

    def test_unknown_figure_raises(self):
        with pytest.raises(ValueError):
            run_figure("figure99")

    def test_worked_examples_have_expected_shape(self):
        fig1 = figure1_deadline_example()
        assert len(fig1.rows) == 4
        assert {row["policy"] for row in fig1.rows} == {"gs", "ras"}
        fig2 = figure2_error_example()
        assert len(fig2.rows) == 4
        assert all(row["duration"] > 0 for row in fig2.rows)

    def test_worked_example_guard_names_figure_and_scenario(self):
        # A scenario with no results used to crash with an opaque IndexError
        # on metrics.results[0]; the guard must name the figure and scenario.
        from repro.experiments.figures import _sole_result
        from repro.simulator.metrics import MetricsCollector

        empty = MetricsCollector()
        with pytest.raises(ValueError, match=r"Figure 1.*gs under tight"):
            _sole_result(empty, "Figure 1", "gs under tight deadline")

    def test_figure1_ras_wins_loose_deadline(self):
        rows = figure1_deadline_example().rows
        loose = {row["policy"]: row["tasks completed"] for row in rows if "loose" in row["deadline"]}
        assert loose["ras"] >= loose["gs"]

    def test_table1_reports_both_traces(self):
        result = table1_traces(TINY)
        assert {row["trace"] for row in result.rows} == {"facebook", "bing"}
        for row in result.rows:
            assert row["slowest/median"] > 2.0

    def test_figure3_estimates_heavy_tail(self):
        result = figure3_hill_plot(num_samples=4000, seed=1)
        plateau = [row for row in result.rows if row["order statistics (k)"] == "plateau"]
        assert len(plateau) == 1
        assert 1.0 < plateau[0]["hill estimate of beta"] < 2.5

    def test_figure4_rows_cover_all_waves(self):
        result = figure4_reactive_model(waves_list=(1, 3), trials=20, seed=2)
        waves = {row["waves"] for row in result.rows}
        assert waves == {1, 3}
        assert all(row["time/optimal"] >= 0.99 for row in result.rows)

    def test_figure5_runs_at_tiny_scale(self):
        result = FIGURES["figure5"](TINY)
        assert result.rows
        assert {"baseline", "overall (%)"} <= set(result.rows[0])
        text = result.format_table()
        assert "Figure 5" in text

    def test_figure15_warms_each_xi_like_every_other_figure(self):
        """Each ξ = 15% row is the warmed ``grass`` of ``compare_policies``."""
        scale = replace(ExperimentScale.quick(), workers=2)
        rows = figure15_perturbation(scale).rows
        cells = sorted({(row["bound"], row["workload"]) for row in rows})
        assert len(cells) == 4
        for bound_kind, workload in cells:
            cell = [
                row for row in rows if (row["bound"], row["workload"]) == (bound_kind, workload)
            ]
            assert [row["xi (%)"] for row in cell] == [0.0, 5.0, 10.0, 15.0, 20.0]
            comparison = compare_policies(
                ["late", "grass"],
                WorkloadConfig(
                    workload=workload, framework="hadoop", bound_kind=bound_kind, seed=15
                ),
                scale=ExperimentScale.quick(),
            )
            gain = (
                comparison.accuracy_improvement("grass", "late")
                if bound_kind == "deadline"
                else comparison.duration_improvement("grass", "late")
            )
            assert cell[3]["improvement (%)"] == gain

    def test_format_table_handles_empty_rows(self):
        from repro.experiments.figures import FigureResult

        assert "(no rows)" in FigureResult(figure="X", description="d").format_table()


class TestCli:
    def test_parser_accepts_known_figures(self):
        parser = build_parser()
        args = parser.parse_args(["figure3", "--scale", "quick"])
        assert args.figure == "figure3"
        assert args.scale == "quick"

    def test_parser_defaults_to_serial_single_run(self):
        args = build_parser().parse_args(["figure3"])
        assert args.workers == 1
        assert args.repeat == 1

    def test_parser_accepts_workers_and_repeat(self):
        args = build_parser().parse_args(
            ["figure3", "--workers", "4", "--repeat", "3"]
        )
        assert args.workers == 4
        assert args.repeat == 3

    def test_main_rejects_bad_workers_and_repeat(self):
        assert main(["figure1", "--workers", "-1"]) == 2
        assert main(["figure1", "--repeat", "0"]) == 2

    def test_main_repeat_reports_each_run(self, capsys):
        exit_code = main(["figure1", "--scale", "quick", "--repeat", "2"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "regenerated 2x" in captured.out

    def test_parser_rejects_unknown_figure(self):
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["not-a-figure"])

    def test_main_runs_cheap_figure(self, capsys):
        exit_code = main(["figure1", "--scale", "quick"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "Figure 1" in captured.out
