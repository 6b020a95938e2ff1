"""DET005 negative: the left-to-right fold, and sums that are not built-ins."""
import math

from repro.utils.stats import left_sum, mean


def totals(values, frame):
    plain = left_sum(values)
    average = mean(values)
    column = frame.sum()
    root = math.sqrt(plain)
    return plain, average, column, root
