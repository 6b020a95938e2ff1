# Convenience targets; the logic lives in scripts/check.sh so CI and
# humans run exactly the same commands.

.PHONY: test bench-smoke bench-gate analyze lint check ingest-smoke service-smoke cache-smoke cluster-replay perfbench

test:
	./scripts/check.sh test

bench-smoke:
	./scripts/check.sh bench-smoke

bench-gate:
	./scripts/check.sh bench-gate

# The repo's own determinism & safety linter (repro.analysis): stdlib-only
# AST rules enforcing the invariants the replay digest matrix checks
# dynamically.  Fails on any unsuppressed finding.
analyze:
	./scripts/check.sh analyze

lint:
	./scripts/check.sh lint

ingest-smoke:
	./scripts/check.sh ingest-smoke

# End-to-end smoke of the always-on replay service: real server process,
# SERVICE_TENANTS concurrent tenants, digest parity, overload rejections.
service-smoke:
	./scripts/check.sh service-smoke

# Content-addressed replay cache smoke: cold/warm digest parity plus the
# forced-corruption miss path, ending with `cache stats` and `cache verify`.
cache-smoke:
	./scripts/check.sh cache-smoke

# The large-scale leg: CLUSTER_JOBS (default 20000) generated jobs replayed
# fully streaming at workers 1 and 4; the scheduled CI job runs this at
# CLUSTER_JOBS=100000.
cluster-replay:
	./scripts/check.sh cluster-replay

# The repo benchmark's own selftests (perfbench/tests): the tracer wraps
# repro functions by name and the workloads send plan fields over the wire.
perfbench:
	./scripts/check.sh perfbench

check:
	./scripts/check.sh all
