"""The repository benchmark: end-to-end workloads plus a traced per-layer run.

Run it from the repository root::

    python3 perfbench/run.py --workload replay-cold --seed 1 --seconds 20 --trace 0

See ``perfbench/README.md`` for the workloads, the metric definitions and the
steadiness mode.
"""
