"""Figure 6: GRASS's gains binned by deadline slack factor and error bound."""

from benchmarks.conftest import regenerate
from repro.workload.bins import DEADLINE_BINS, ERROR_BINS


def test_figure6_bound_bins(benchmark):
    result = regenerate(benchmark, "figure6")
    assert any(row["bound"] == "deadline" for row in result.rows)
    assert any(row["bound"] == "error" for row in result.rows)
    # Each (workload, bound) group lists only its table's labels, in the
    # table's order, so "11-15" never prints before "2-5".
    order = {
        "deadline": [label for label, _high in DEADLINE_BINS],
        "error": [label for label, _high in ERROR_BINS],
    }
    for workload in ("facebook", "bing"):
        for bound, labels in order.items():
            printed = [
                row["bin (%)"]
                for row in result.rows
                if row["workload"] == workload and row["bound"] == bound
            ]
            assert printed
            assert printed == [label for label in labels if label in printed]
