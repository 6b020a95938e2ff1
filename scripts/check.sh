#!/usr/bin/env bash
# Repo check harness:
#   ./scripts/check.sh [test|coverage|bench-smoke|bench-gate|replay-determinism|ingest-smoke|service-smoke|cache-smoke|cluster-replay|perfbench|analyze|lint|all]
#
# * test        — the tier-1 suite (PYTHONPATH=src python -m pytest -x -q,
#                 printing its ten slowest tests), then the pool tests
#                 (tests/test_executor.py, tests/test_warmup_cache.py)
#                 again under `python -X dev
#                 -W error::ResourceWarning` with pytest's
#                 `-W error::pytest.PytestUnraisableExceptionWarning`, so a
#                 multiprocessing.Pool left unclosed fails the run (its
#                 __del__ warning is otherwise only reported), then every
#                 examples/*.py script (a few seconds together), each must
#                 exit 0, so deleting public API an example uses fails here
# * coverage    — the tier-1 suite under pytest-cov with the line-coverage
#                 floor (COVERAGE_FLOOR, default 84 — measured 86.8% at the
#                 time the floor was set); requires pytest-cov (CI installs
#                 it; locally the subcommand fails fast if it is missing)
# * bench-smoke — the engine hot-path and trace-replay micro-benchmarks plus
#                 one cheap figure bench, the warm-up-cache and replay-cache
#                 benches and the spec-streaming, result-sink, cluster-tier
#                 and service-load benches at quick scale; refreshes
#                 benchmarks/BENCH_engine.json and fails if the refresh
#                 produced an unreadable file
# * bench-gate  — takes the committed BENCH_engine.json (git show HEAD:...)
#                 as baseline, reruns bench-smoke plus the engine hot-path
#                 bench at default scale, fails on a >30%
#                 calibration-normalised events/second regression at quick
#                 OR default scale (scripts/bench_compare.py), and appends
#                 the fresh run to benchmarks/BENCH_trajectory.jsonl
#                 (timestamp, git sha, normalised events/s) so the perf
#                 history accumulates instead of keeping only the latest
#                 snapshot
# * replay-determinism — replays traces/facebook_like.jsonl at quick scale
#                 (2 shards) as two plans, each four ways (--workers 1/4 x
#                 --sink retain/aggregate), and fails unless every printed
#                 sha256 metrics digest equals the plan's golden entry of
#                 tests/golden/replay_digests.json — an absolute anchor, not
#                 mere agreement: grass/late/mantri under error bounds
#                 ("facebook_like-shards2-error") and the oracle, gs and ras
#                 under mixed bounds ("facebook_like-shards2-mixed-oracle-gs-ras")
# * ingest-smoke — converts the bundled 20-row Google and Alibaba trace
#                 samples with `grass-experiments ingest`, replays each
#                 converted trace at --workers 1 and 4, and fails unless the
#                 digests agree per trace (the per-PR guard on the converter)
# * service-smoke — starts the always-on replay service (grass-experiments
#                 serve) on an ephemeral port, drives SERVICE_TENANTS
#                 (default 6) concurrent tenants through streamed replay
#                 plans plus a SERVICE_BURST (default 24) overload burst,
#                 and fails unless every streamed digest matches the offline
#                 execute(plan) and the burst drew explicit 429 rejections;
#                 then stops the server with SIGTERM and fails if any of its
#                 child processes (pool workers, resource tracker) is still
#                 alive 10s later
# * cache-smoke — replays traces/facebook_like.jsonl twice against a fresh
#                 content-addressed replay cache (cold then warm), fails
#                 unless the digests agree and the warm run reports zero
#                 misses, then corrupts a stored entry and requires the
#                 rerun to survive it (reported miss, digest unchanged) and
#                 `grass-experiments cache stats|verify` to succeed
# * cluster-replay — replays the generated cluster tier (CLUSTER_JOBS jobs,
#                 default 20000) with --sink aggregate at --workers 1 and 4, fails
#                 unless the digests agree and peak resident jobs stay under
#                 RESIDENCY_MAX_PCT% (default 1) of the tier, prints each
#                 replay's process-tree peak RSS (report only, no bound: the
#                 resident-jobs count is an engine dict's size, the RSS is what
#                 shows whether memory stays flat), and writes a summary to
#                 CLUSTER_SUMMARY if set (the scheduled CI leg's artifact)
# * perfbench   — the repo benchmark's own selftests (python3 -m pytest
#                 perfbench/tests, ~30s): its tracer wraps repro functions
#                 by name (ParallelExecutor.run and run_stream, the
#                 multiprocessing.Pool it counts as executor.pool_starts)
#                 and its workloads send ReplayPlan fields over the wire, so
#                 a src/ refactor that breaks either fails here
# * analyze     — the repo's own determinism & safety linter
#                 (repro.analysis): AST rules for unseeded RNGs, wall-clock
#                 reads, unordered iteration, float equality, pickle-unsafe
#                 executor arguments and async-hygiene violations, with
#                 reasoned `# repro: allow[RULE-ID] reason` suppressions;
#                 fails on any unsuppressed finding (stdlib-only, no
#                 install needed)
# * lint        — ruff or flake8 when installed, otherwise a byte-compile
#                 pass over src/tests/benchmarks/scripts/examples (the
#                 container ships no linter; do NOT pip install one here);
#                 prints which backend actually ran so CI-vs-local
#                 discrepancies are visible
# * all         — lint, analyze, test, bench-smoke, perfbench, in order
#                 (and reports which lint backend ran), so a full local check
#                 catches a broken tracer contract before CI's separate
#                 benchmark-selftest job does
set -euo pipefail

cd "$(dirname "$0")/.."
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

BENCH_JSON="benchmarks/BENCH_engine.json"
BENCH_TRAJECTORY="benchmarks/BENCH_trajectory.jsonl"
COVERAGE_FLOOR="${COVERAGE_FLOOR:-84}"

run_test() {
    python -m pytest -x -q --durations=10
    python -X dev -W error::ResourceWarning -m pytest -q \
        -W error::pytest.PytestUnraisableExceptionWarning \
        tests/test_executor.py tests/test_warmup_cache.py
    local example
    for example in examples/*.py; do
        echo "test: running $example"
        python "$example" >/dev/null
    done
}

run_coverage() {
    if ! python -c "import pytest_cov" >/dev/null 2>&1; then
        echo "coverage: pytest-cov is not installed (CI installs it; do NOT pip install here)" >&2
        return 1
    fi
    python -m pytest -q \
        --cov=repro --cov-report=term --cov-report=xml:coverage.xml \
        --cov-fail-under="$COVERAGE_FLOOR"
}

run_replay_determinism() {
    local trace="traces/facebook_like.jsonl"
    local golden plan key flags expected variant digest
    golden="tests/golden/replay_digests.json"
    # Each plan is "golden key|policy and bound flags"; the flags mirror the
    # golden entry's plan (tests/test_golden_digests.py).
    for plan in \
        "facebook_like-shards2-error|--policy grass --policy late --policy mantri --bound-kind error" \
        "facebook_like-shards2-mixed-oracle-gs-ras|--policy oracle --policy gs --policy ras --bound-kind mixed"
    do
        key="${plan%%|*}"
        flags="${plan#*|}"
        expected="$(python -c "
import json, sys
print(json.load(open(sys.argv[1]))['digests'][sys.argv[2]])
" "$golden" "$key")"
        for variant in \
            "--workers 1 --sink retain" \
            "--workers 4 --sink retain" \
            "--workers 1 --sink aggregate" \
            "--workers 4 --sink aggregate"
        do
            echo "replay-determinism: replay $key $variant"
            # shellcheck disable=SC2086
            digest="$(python -m repro.experiments.cli replay \
                --trace "$trace" --scale quick --shards 2 --seed 0 \
                $flags $variant | sed -n 's/^metrics digest: sha256=//p')"
            if [ -z "$digest" ]; then
                echo "replay-determinism: no digest printed for '$key $variant'" >&2
                return 1
            fi
            echo "  sha256=$digest"
            if [ "$digest" != "$expected" ]; then
                echo "replay-determinism: FAILED — '$key $variant' digest differs from the golden entry:" >&2
                echo "  got:    $digest" >&2
                echo "  golden: $expected ($golden)" >&2
                return 1
            fi
        done
    done
    echo "replay-determinism: ok (both plans: workers 1/4 x sink retain/aggregate all equal their golden digests)"
}

run_ingest_smoke() {
    local tmpdir
    tmpdir="$(mktemp -d)"
    local format sample converted digest1 digest4 status=0
    for format in google alibaba; do
        case "$format" in
            google) sample="traces/samples/google_task_events.sample.csv" ;;
            alibaba) sample="traces/samples/alibaba_batch_task.sample.csv" ;;
        esac
        converted="$tmpdir/$format.jsonl"
        echo "ingest-smoke: convert $sample ($format)"
        python -m repro.experiments.cli ingest \
            --format "$format" --input "$sample" --output "$converted" \
            || { status=1; break; }
        digest1="$(python -m repro.experiments.cli replay \
            --trace "$converted" --scale quick --seed 0 --workers 1 \
            | sed -n 's/^metrics digest: sha256=//p')"
        digest4="$(python -m repro.experiments.cli replay \
            --trace "$converted" --scale quick --seed 0 --workers 4 \
            --sink aggregate \
            | sed -n 's/^metrics digest: sha256=//p')"
        if [ -z "$digest1" ] || [ "$digest1" != "$digest4" ]; then
            echo "ingest-smoke: FAILED — $format digests differ or missing" >&2
            echo "  workers 1: $digest1" >&2
            echo "  workers 4: $digest4" >&2
            status=1
            break
        fi
        echo "  sha256=$digest1 (workers 1 and 4 agree)"
    done
    rm -rf "$tmpdir"
    [ "$status" -eq 0 ] && echo "ingest-smoke: ok (both formats round-trip)"
    return "$status"
}

run_service_smoke() {
    local tenants="${SERVICE_TENANTS:-6}"
    local burst="${SERVICE_BURST:-24}"
    local serve_out port status=0
    serve_out="$(mktemp)"
    echo "service-smoke: starting replay service (grass-experiments serve)"
    python -m repro.experiments.cli serve \
        --port 0 --max-inflight 2 --max-pending-per-tenant 4 \
        --max-pending-total 8 > "$serve_out" 2>&1 &
    local serve_pid=$!
    # Wait for the ephemeral port announcement (max ~10s).
    local tries=0
    until grep -q "^listening on " "$serve_out" 2>/dev/null; do
        tries=$((tries + 1))
        if [ "$tries" -gt 100 ] || ! kill -0 "$serve_pid" 2>/dev/null; then
            echo "service-smoke: FAILED — server never announced a port:" >&2
            cat "$serve_out" >&2
            kill "$serve_pid" 2>/dev/null || true
            rm -f "$serve_out"
            return 1
        fi
        sleep 0.1
    done
    port="$(sed -n 's/^listening on [0-9.]*:\([0-9]*\)$/\1/p' "$serve_out")"
    echo "service-smoke: driving $tenants tenants + $burst-submission overload burst (port $port)"
    # The driver exits nonzero unless every tenant's streamed digest matches
    # the offline execute(plan) AND the burst drew explicit 429 rejections.
    python -m repro.service.load \
        --host 127.0.0.1 --port "$port" \
        --tenants "$tenants" --cluster-jobs 8 --distinct-plans 2 \
        --overload-burst "$burst" || status=1
    # The server must take its process pool down with it: record its
    # children before the SIGTERM, then require every one gone (a zombie
    # awaiting its reaper counts as gone).
    local children survivors="" pid
    children="$(pgrep -P "$serve_pid" || true)"
    if [ -z "$children" ]; then
        echo "service-smoke: FAILED — the server started no pool workers" >&2
        status=1
    fi
    kill "$serve_pid" 2>/dev/null || true
    wait "$serve_pid" 2>/dev/null || true
    for _ in $(seq 100); do
        survivors=""
        for pid in $children; do
            if kill -0 "$pid" 2>/dev/null && [ "$(ps -o stat= -p "$pid" | cut -c1)" != "Z" ]; then
                survivors="$survivors $pid"
            fi
        done
        [ -z "$survivors" ] && break
        sleep 0.1
    done
    if [ -n "$survivors" ]; then
        echo "service-smoke: FAILED — server children still alive 10s after SIGTERM:$survivors" >&2
        ps -o pid,ppid,stat,args -p "${survivors# }" >&2 || true
        status=1
    fi
    rm -f "$serve_out"
    [ "$status" -eq 0 ] && echo "service-smoke: ok (streamed digests match offline; overload rejected explicitly; $(echo $children | wc -w) server children gone after SIGTERM)"
    return "$status"
}

run_cache_smoke() {
    local trace="traces/facebook_like.jsonl"
    local tmpdir cachedir entry
    local cold_digest warm_digest warm_misses post_digest post_misses
    tmpdir="$(mktemp -d)"
    cachedir="$tmpdir/cache"
    replay_cached() {
        python -m repro.experiments.cli replay \
            --trace "$trace" --scale quick --shards 2 --seed 0 \
            --cache "$cachedir"
    }
    digest_of() { sed -n 's/^metrics digest: sha256=//p'; }
    misses_of() { sed -n 's/^replay cache: [0-9]* hits, \([0-9]*\) misses.*/\1/p'; }

    echo "cache-smoke: cold replay (empty cache)"
    local cold_out warm_out post_out
    cold_out="$(replay_cached)" || { rm -rf "$tmpdir"; return 1; }
    cold_digest="$(printf '%s\n' "$cold_out" | digest_of)"
    echo "cache-smoke: warm replay (populated cache)"
    warm_out="$(replay_cached)" || { rm -rf "$tmpdir"; return 1; }
    warm_digest="$(printf '%s\n' "$warm_out" | digest_of)"
    warm_misses="$(printf '%s\n' "$warm_out" | misses_of)"
    if [ -z "$cold_digest" ] || [ "$cold_digest" != "$warm_digest" ]; then
        echo "cache-smoke: FAILED — warm digest differs from cold:" >&2
        echo "  cold: $cold_digest" >&2
        echo "  warm: $warm_digest" >&2
        rm -rf "$tmpdir"
        return 1
    fi
    if [ "$warm_misses" != "0" ]; then
        echo "cache-smoke: FAILED — warm replay reported $warm_misses misses" >&2
        rm -rf "$tmpdir"
        return 1
    fi
    echo "  sha256=$cold_digest (warm run: 0 misses)"

    echo "cache-smoke: corrupting one stored entry"
    entry="$(find "$cachedir" -name '*.json' | sort | head -1)"
    if [ -z "$entry" ]; then
        echo "cache-smoke: FAILED — no cache entries written" >&2
        rm -rf "$tmpdir"
        return 1
    fi
    echo "not json" > "$entry"
    post_out="$(replay_cached)" || { rm -rf "$tmpdir"; return 1; }
    post_digest="$(printf '%s\n' "$post_out" | digest_of)"
    post_misses="$(printf '%s\n' "$post_out" | misses_of)"
    if [ "$post_digest" != "$cold_digest" ] || [ "$post_misses" = "0" ]; then
        echo "cache-smoke: FAILED — corrupted entry changed the outcome:" >&2
        echo "  digest: $post_digest (want $cold_digest)" >&2
        echo "  misses: $post_misses (want >= 1)" >&2
        rm -rf "$tmpdir"
        return 1
    fi
    echo "  corruption survived as a miss (digest unchanged)"

    python -m repro.experiments.cli cache stats --cache "$cachedir" \
        || { rm -rf "$tmpdir"; return 1; }
    python -m repro.experiments.cli cache verify --cache "$cachedir" --sample 2 \
        || { rm -rf "$tmpdir"; return 1; }
    rm -rf "$tmpdir"
    echo "cache-smoke: ok (cold/warm digests agree; corruption is a reported miss)"
}

# Runs a command, then prints its process tree's peak RSS (the largest
# ru_maxrss of the command and its waited-for descendants, from os.wait4)
# on the same stdout; exits with the command's status.  The launcher is a
# bare interpreter on purpose: Linux copies a vfork spawner's RSS peak into
# the child's ru_maxrss at exec, so a heavy launcher would report its own.
with_peak_rss() {
    python -c '
import os, sys
pid = os.posix_spawnp(sys.argv[1], sys.argv[1:], os.environ)
_, status, usage = os.wait4(pid, 0)
print(f"process-tree peak RSS: {usage.ru_maxrss / 1024:.1f} MiB", flush=True)
sys.exit(os.waitstatus_to_exitcode(status))
' "$@"
}

run_cluster_replay() {
    local jobs="${CLUSTER_JOBS:-20000}"
    local max_pct="${RESIDENCY_MAX_PCT:-1}"
    local out1 out4 digest1 digest4 peak rss1 rss4
    out1="$(mktemp)"; out4="$(mktemp)"
    echo "cluster-replay: $jobs generated jobs, fully streaming"
    with_peak_rss python -m repro.experiments.cli replay \
        --cluster-jobs "$jobs" --scale quick --seed 0 --shards 8 \
        --workers 1 --sink aggregate | tee "$out1"
    with_peak_rss python -m repro.experiments.cli replay \
        --cluster-jobs "$jobs" --scale quick --seed 0 --shards 8 \
        --workers 4 --sink aggregate | tee "$out4"
    digest1="$(sed -n 's/^metrics digest: sha256=//p' "$out1")"
    digest4="$(sed -n 's/^metrics digest: sha256=//p' "$out4")"
    peak="$(sed -n 's/^peak resident jobs: \([0-9]*\).*/\1/p' "$out4")"
    rss1="$(sed -n 's/^process-tree peak RSS: //p' "$out1")"
    rss4="$(sed -n 's/^process-tree peak RSS: //p' "$out4")"
    rm -f "$out1" "$out4"
    if [ -z "$digest1" ] || [ "$digest1" != "$digest4" ]; then
        echo "cluster-replay: FAILED — digests differ across workers:" >&2
        echo "  workers 1: $digest1" >&2
        echo "  workers 4: $digest4" >&2
        return 1
    fi
    if [ -z "$peak" ]; then
        echo "cluster-replay: FAILED — no peak-resident-jobs line printed" >&2
        return 1
    fi
    # peak * 100 < jobs * max_pct  <=>  residency ratio < max_pct%
    if [ $((peak * 100)) -ge $((jobs * max_pct)) ]; then
        echo "cluster-replay: FAILED — peak resident jobs $peak >= ${max_pct}% of $jobs" >&2
        return 1
    fi
    echo "cluster-replay: ok (digest $digest1, peak resident jobs $peak < ${max_pct}% of $jobs)"
    echo "cluster-replay: process-tree peak RSS $rss1 at --workers 1, $rss4 at --workers 4"
    if [ -n "${CLUSTER_SUMMARY:-}" ]; then
        {
            echo "jobs=$jobs"
            echo "digest=sha256:$digest1"
            echo "peak_resident_jobs=$peak"
            echo "residency_max_pct=$max_pct"
            echo "peak_rss_workers1=$rss1"
            echo "peak_rss_workers4=$rss4"
        } > "$CLUSTER_SUMMARY"
        echo "cluster-replay: summary written to $CLUSTER_SUMMARY"
    fi
}

run_bench_smoke() {
    GRASS_BENCH_SCALE=quick python -m pytest -q \
        benchmarks/bench_engine_hotpath.py \
        benchmarks/bench_trace_replay.py \
        benchmarks/bench_warmup_cache.py \
        benchmarks/bench_replay_cache.py \
        benchmarks/bench_stream_specs.py \
        benchmarks/bench_result_sink.py \
        benchmarks/bench_cluster_scale.py \
        benchmarks/bench_service_load.py \
        benchmarks/bench_fig1_deadline_example.py \
        || return $?
    # The JSON merge happens in a pytest sessionfinish hook whose failure
    # does not change the pytest exit code; verify the artifact explicitly
    # instead of masking a broken merge behind a success message.
    python -c "
import json, sys
payload = json.load(open('$BENCH_JSON'))
records = payload.get('records')
sys.exit(0 if isinstance(records, list) and records else 'empty $BENCH_JSON')
" || return $?
    echo "bench records written to $BENCH_JSON"
}

run_bench_default() {
    # The engine hot-path bench at default scale: the headline single-core
    # throughput number.  Quick-scale runs are too short (~0.1s) to catch a
    # hot-path regression reliably, so the gate also measures the ~0.5s
    # default-scale runs and holds them to the same threshold.
    GRASS_BENCH_SCALE=default python -m pytest -q \
        benchmarks/bench_engine_hotpath.py
}

run_bench_gate() {
    local baseline
    baseline="$(mktemp)"
    # Gate against the *committed* trajectory so repeated local runs cannot
    # ratchet the baseline past the threshold; fall back to the working-tree
    # file when the history is unavailable (fresh checkout, no git).
    if ! git show "HEAD:$BENCH_JSON" > "$baseline" 2>/dev/null; then
        if [ ! -f "$BENCH_JSON" ]; then
            echo "bench-gate: no $BENCH_JSON baseline; run bench-smoke first" >&2
            rm -f "$baseline"
            return 1
        fi
        cp "$BENCH_JSON" "$baseline"
    fi
    local status=0
    if run_bench_smoke && run_bench_default; then
        python scripts/bench_compare.py \
            --baseline "$baseline" --candidate "$BENCH_JSON" \
            --max-regression 0.30 --scale quick || status=$?
        # Gate the default-scale hot-path records too, and append the
        # trajectory line once (it carries every throughput record in the
        # candidate regardless of scale).
        python scripts/bench_compare.py \
            --baseline "$baseline" --candidate "$BENCH_JSON" \
            --max-regression 0.30 --scale default \
            --append-trajectory "$BENCH_TRAJECTORY" || status=$?
    else
        status=$?
    fi
    rm -f "$baseline"
    return "$status"
}

run_perfbench() {
    # The benchmark's selftests run from the checkout root; their pytest.ini
    # (perfbench/tests) collects selftest_*.py, which tier-1 never does.
    python3 -m pytest perfbench/tests
}

run_analyze() {
    # The repo's own static determinism & safety linter (repro.analysis).
    # Stdlib-only, so unlike `lint` it runs identically everywhere — there
    # is no degraded fallback to silently diverge from CI.
    python -m repro.analysis.cli src tests benchmarks scripts examples
}

# Which lint backend run_lint actually used ("ruff", "flake8" or
# "byte-compile"); `all` reports it so a local byte-compile pass is never
# mistaken for the ruff run CI performs.
LINT_BACKEND=""

run_lint() {
    if command -v ruff >/dev/null 2>&1; then
        LINT_BACKEND="ruff"
        echo "lint: using ruff"
        ruff check src tests benchmarks scripts examples
    elif command -v flake8 >/dev/null 2>&1; then
        LINT_BACKEND="flake8"
        echo "lint: using flake8"
        flake8 --max-line-length=100 src tests benchmarks scripts examples
    else
        LINT_BACKEND="byte-compile"
        echo "lint: WARNING — no linter installed; DEGRADED to byte-compilation" \
             "only (CI runs ruff; style/bug rules are NOT checked here)" >&2
        python -m compileall -q src tests benchmarks scripts examples
    fi
}

case "${1:-all}" in
    test) run_test ;;
    coverage) run_coverage ;;
    bench-smoke) run_bench_smoke ;;
    bench-gate) run_bench_gate ;;
    replay-determinism) run_replay_determinism ;;
    ingest-smoke) run_ingest_smoke ;;
    service-smoke) run_service_smoke ;;
    cache-smoke) run_cache_smoke ;;
    cluster-replay) run_cluster_replay ;;
    perfbench) run_perfbench ;;
    analyze) run_analyze ;;
    lint) run_lint ;;
    all)
        run_lint
        run_analyze
        run_test
        run_bench_smoke
        run_perfbench
        echo "all: ok (lint backend: $LINT_BACKEND; analyze: repro.analysis)"
        ;;
    *)
        echo "usage: $0 [test|coverage|bench-smoke|bench-gate|replay-determinism|ingest-smoke|service-smoke|cache-smoke|cluster-replay|perfbench|analyze|lint|all]" >&2
        exit 2
        ;;
esac
