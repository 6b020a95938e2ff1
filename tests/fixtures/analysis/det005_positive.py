"""DET005 positive: sums whose rounding depends on the interpreter."""
import math
import statistics
import statistics as st
from math import fsum
from statistics import fmean


def totals(values):
    plain = sum(values)
    exact = math.fsum(values)
    imported = fsum(values)
    average = statistics.mean(values)
    aliased = st.median(values)
    fast = fmean(values)
    return plain, exact, imported, average, aliased, fast
