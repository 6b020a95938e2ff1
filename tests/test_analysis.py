"""Tests for repro.analysis — the determinism & safety linter.

Covers: one positive and one negative golden fixture per rule, pragma
semantics (reasoned suppressions honored, reason-less and unknown-rule
pragmas rejected), the JSON report schema round-trip, CLI exit codes, and
the self-test that matters most: the analyzer runs clean over the repo's
own ``src/`` tree, so any new digest-hazardous code fails CI before a
single simulation runs.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

from repro.analysis import (
    DEFAULT_PATHS,
    AnalysisError,
    Finding,
    RULES,
    analyze_file,
    analyze_paths,
    analyze_source,
    findings_to_json,
    iter_python_files,
    rule_table,
)
from repro.analysis.cli import analyze_main
from repro.analysis.engine import _module_of

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIR = os.path.join(REPO_ROOT, "tests", "fixtures", "analysis")

# Each rule's golden fixtures and the virtual module scope they are
# analyzed under (fixtures live outside src/, so the scope is explicit).
RULE_FIXTURES = {
    "DET001": (("repro", "simulator", "fixture"), 4),
    "DET002": (("repro", "simulator", "fixture"), 5),
    "DET003": (("repro", "workload", "fixture"), 4),
    "DET004": (("repro", "core", "fixture"), 2),
    "DET005": (("repro", "utils", "fixture"), 6),
    "PIC101": (("repro", "experiments", "fixture"), 3),
    "PIC102": (("repro", "experiments", "fixture"), 3),
    "ASY201": (("repro", "service", "fixture"), 3),
    "ASY202": (("repro", "service", "fixture"), 2),
}


def fixture_path(name: str) -> str:
    return os.path.join(FIXTURE_DIR, name)


def analyze_fixture(name: str, module):
    return analyze_file(fixture_path(name), module=module, is_test=False)


class TestRegistry:
    def test_nine_rules_with_unique_ids(self):
        ids = [rule.id for rule in RULES]
        assert ids == [
            "DET001", "DET002", "DET003", "DET004", "DET005",
            "PIC101", "PIC102", "ASY201", "ASY202",
        ]

    def test_every_rule_documents_itself(self):
        for rule_id, synopsis, rationale in rule_table():
            assert rule_id and synopsis and rationale

    def test_fixture_table_covers_every_rule(self):
        assert set(RULE_FIXTURES) == {rule.id for rule in RULES}


class TestGoldenFixtures:
    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_positive_fixture_fires_exactly(self, rule_id):
        module, expected_count = RULE_FIXTURES[rule_id]
        findings = analyze_fixture(f"{rule_id.lower()}_positive.py", module)
        fired = [finding for finding in findings if finding.rule_id == rule_id]
        assert len(fired) == expected_count, findings
        for finding in fired:
            assert finding.line > 0
            assert finding.source.strip()  # carries the offending span

    @pytest.mark.parametrize("rule_id", sorted(RULE_FIXTURES))
    def test_negative_fixture_is_clean(self, rule_id):
        module, _ = RULE_FIXTURES[rule_id]
        findings = analyze_fixture(f"{rule_id.lower()}_negative.py", module)
        assert findings == [], findings

    @pytest.mark.parametrize("package", ["baselines", "model", "utils"])
    def test_positive_fixture_fires_in_every_package_a_worker_imports(self, package):
        # Edits to these packages move digests (the cache fingerprint hashes
        # them), so a wall-clock read there is as unsafe as in the engine.
        findings = analyze_fixture("det002_positive.py", ("repro", package, "fixture"))
        assert len([f for f in findings if f.rule_id == "DET002"]) == RULE_FIXTURES["DET002"][1]

    def test_positive_fixture_silent_outside_rule_scope(self):
        # The same wall-clock reads are fine outside digest-affecting
        # packages: scope comes from the module path, not the content.
        findings = analyze_fixture(
            "det002_positive.py", ("repro", "service", "fixture")
        )
        assert [f for f in findings if f.rule_id == "DET002"] == []

    def test_det004_does_not_fire_in_tests(self):
        source = "assert ratio == 1.0\n"
        assert analyze_source(source, "tests/test_x.py") == []
        assert len(analyze_source(source, "src/repro/core/x.py")) == 1

    def test_det005_watches_digest_packages_only(self):
        # The built-in sum is exact for ints, but one rule covers every sum:
        # digest code folds through repro.utils.stats.left_sum.
        source = "jobs = sum(counts)\n"
        findings = analyze_source(source, "src/repro/simulator/x.py")
        assert [f.rule_id for f in findings] == ["DET005"]
        assert "left_sum" in findings[0].message
        assert analyze_source(source, "src/repro/service/x.py") == []
        assert analyze_source(source, "tests/test_x.py") == []
        pragma = "jobs = sum(counts)  # repro: allow[DET005] int counts only\n"
        assert analyze_source(pragma, "src/repro/simulator/x.py") == []


class TestPragmas:
    def test_reasoned_pragmas_suppress_inline_and_standalone(self):
        findings = analyze_fixture(
            "pragma_reasoned.py", ("repro", "simulator", "fixture")
        )
        assert findings == [], findings

    def test_missing_reason_is_rejected_and_reported(self):
        findings = analyze_fixture(
            "pragma_missing_reason.py", ("repro", "simulator", "fixture")
        )
        rules = sorted(finding.rule_id for finding in findings)
        assert rules == ["DET001", "PRG001"]
        (pragma_finding,) = [f for f in findings if f.rule_id == "PRG001"]
        assert "reason" in pragma_finding.message

    def test_unknown_rule_id_is_rejected(self):
        source = (
            "import random\n"
            "rng = random.Random()  # repro: allow[DET999] misspelled rule\n"
        )
        findings = analyze_source(
            source, "src/repro/simulator/x.py"
        )
        assert sorted(f.rule_id for f in findings) == ["DET001", "PRG001"]

    def test_pragma_only_suppresses_named_rule(self):
        source = (
            "import random\n"
            "import time\n"
            "x = (random.Random(), time.time())"
            "  # repro: allow[DET001] seeded elsewhere\n"
        )
        findings = analyze_source(source, "src/repro/simulator/x.py")
        # DET001 fired on the seeded Random? No: it is unseeded-only; the
        # pragma names DET001 but the DET002 wall-clock read still lands.
        assert [f.rule_id for f in findings] == ["DET002"]

    def test_pragma_inside_string_is_not_a_pragma(self):
        source = 'text = "# repro: allow[DET001]"\n'
        assert analyze_source(source, "src/repro/simulator/x.py") == []


class TestJsonSchema:
    def test_report_carries_every_finding_exactly(self):
        findings = analyze_fixture(
            "det001_positive.py", ("repro", "simulator", "fixture")
        )
        payload = json.loads(findings_to_json(findings, files_scanned=1))
        assert [Finding(**entry) for entry in payload["findings"]] == sorted(findings)

    def test_schema_shape(self):
        findings = analyze_fixture(
            "det001_positive.py", ("repro", "simulator", "fixture")
        )
        payload = json.loads(findings_to_json(findings, files_scanned=1))
        assert payload["version"] == 1
        assert payload["files_scanned"] == 1
        assert payload["counts"] == {"DET001": len(findings)}
        for entry in payload["findings"]:
            assert set(entry) == {
                "path", "line", "col", "rule_id", "message", "source",
            }


class TestEngine:
    def test_module_scope_derivation(self):
        assert _module_of("src/repro/simulator/engine.py") == (
            "repro", "simulator", "engine",
        )
        assert _module_of("src/repro/analysis/__init__.py") == ("repro", "analysis")
        assert _module_of("tests/test_engine.py") == ()
        assert _module_of("benchmarks/bench_engine_hotpath.py") == ()

    def test_fixture_corpus_is_skipped_by_directory_walks(self):
        files = list(iter_python_files(["tests"]))
        assert files, "tests/ walk found nothing"
        assert not any(os.sep + "analysis" + os.sep in path for path in files)

    def test_explicit_fixture_file_is_still_analyzable(self):
        path = fixture_path("pic102_positive.py")
        assert list(iter_python_files([path])) == [path]

    def test_missing_path_raises(self):
        with pytest.raises(AnalysisError, match="no such file"):
            list(iter_python_files(["does/not/exist"]))

    def test_syntax_error_becomes_a_finding(self):
        findings = analyze_source("def broken(:\n", "src/repro/core/x.py")
        assert [f.rule_id for f in findings] == ["SYN000"]

    def test_findings_sort_by_position(self):
        source = "import random\na = random.random()\nb = random.random()\n"
        findings = analyze_source(source, "src/repro/simulator/x.py")
        assert [f.line for f in findings] == [2, 3]


class TestSelfCheck:
    """The pass that keeps paying for itself: the repo analyzes clean."""

    def test_src_tree_has_zero_unsuppressed_findings(self):
        findings, files_scanned = analyze_paths([os.path.join(REPO_ROOT, "src")])
        assert files_scanned > 50
        assert findings == [], "\n".join(f.format_text() for f in findings)

    def test_default_paths_have_zero_unsuppressed_findings(self):
        paths = [os.path.join(REPO_ROOT, path) for path in DEFAULT_PATHS]
        findings, _ = analyze_paths(paths)
        assert findings == [], "\n".join(f.format_text() for f in findings)

    def test_reintroduced_violation_fails_the_gate(self, tmp_path):
        # The acceptance scenario: an unseeded Random() planted in a
        # simulator-scoped file must flip the exit code to 1.
        bad = "import random\nscratch = random.Random()\n"
        findings = analyze_source(bad, "src/repro/simulator/planted.py")
        assert [f.rule_id for f in findings] == ["DET001"]


def plant_simulator_violation(tmp_path) -> str:
    """An unseeded Random() planted under a src/repro/simulator layout.

    Scoping is path-derived, so the planted file is indistinguishable from
    real simulator code — exactly the acceptance scenario for the gate.
    """
    package = tmp_path / "src" / "repro" / "simulator"
    package.mkdir(parents=True)
    path = package / "planted.py"
    path.write_text("import random\nscratch = random.Random()\n")
    return str(path)


class TestCli:
    def test_clean_paths_exit_zero(self, capsys):
        code = analyze_main([os.path.join(REPO_ROOT, "src")])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_findings_exit_one_with_text_report(self, capsys, tmp_path):
        code = analyze_main([plant_simulator_violation(tmp_path)])
        assert code == 1
        out = capsys.readouterr().out
        assert "DET001" in out
        assert "planted.py" in out

    def test_json_format_parses_and_counts(self, capsys, tmp_path):
        code = analyze_main(
            ["--format", "json", plant_simulator_violation(tmp_path)]
        )
        assert code == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["counts"] == {"DET001": 1}

    def test_missing_path_exits_two(self, capsys):
        assert analyze_main(["does/not/exist"]) == 2
        assert "no such file" in capsys.readouterr().err

    def test_list_rules_prints_registry(self, capsys):
        assert analyze_main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in RULES:
            assert rule.id in out

    def test_console_entry_point_routes_analyze_verb(self, tmp_path):
        result = subprocess.run(
            [
                sys.executable, "-m", "repro.experiments.cli", "analyze",
                plant_simulator_violation(tmp_path),
            ],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env={**os.environ, "PYTHONPATH": os.path.join(REPO_ROOT, "src")},
        )
        assert result.returncode == 1
        assert "DET001" in result.stdout
