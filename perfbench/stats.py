"""Order statistics of the benchmark: percentiles and run-to-run spread."""

import statistics


def percentile(values, q):
    """Nearest-rank q-th percentile of a non-empty sample, q an integer in
    1..100: the smallest sample with at least q% of the sample at or below
    it. Always one of the samples, never an interpolation."""
    if not values:
        raise ValueError("percentile of an empty sample")
    if not 1 <= q <= 100:
        raise ValueError(f"percentile rank {q} outside 1..100")
    ordered = sorted(values)
    rank = (q * len(ordered) + 99) // 100
    return ordered[rank - 1]


def spread(values):
    """(median, q1, q3, (q3 - q1) / median) of repeated runs, with the
    quartiles statistics.quantiles(values, n=4) gives."""
    if len(values) < 2:
        raise ValueError("spread needs at least two values")
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    if med == 0:
        return med, q1, q3, 0.0 if q3 == q1 else float("inf")
    return med, q1, q3, (q3 - q1) / abs(med)
