"""Order statistics and the simulated-outcome digest.

Latency percentiles are taken from the raw simulated round-trip samples
the benchmark's own clients record, never from a bucketed histogram.
"""

import hashlib
import json


def nearest_rank(sorted_samples, numerator, denominator):
    """The nearest-rank percentile ``numerator/denominator`` of an
    ascending, non-empty sample list (exact integer arithmetic)."""
    n = len(sorted_samples)
    rank = -(-n * numerator // denominator)  # ceil(n * p)
    return sorted_samples[max(rank, 1) - 1]


def median(samples):
    """Nearest-rank median: always the value of a real sample."""
    return nearest_rank(sorted(samples), 1, 2)


def tail_percentile(samples):
    """The highest percentile that has at least ten samples beyond it.

    Candidates are p50 and the "nines" p90, p99, p99.9, ... The k-nines
    percentile of n samples leaves ``n // 10**k`` samples above its
    nearest rank, so it qualifies when that count is at least ten.
    Returns ``(value, label, n_beyond)``. With fewer than 20 samples no
    percentile qualifies and the maximum is returned as ``p100`` with
    nothing beyond it.
    """
    if not samples:
        raise ValueError("no samples")
    ordered = sorted(samples)
    n = len(ordered)
    nines = 0
    while n // 10 ** (nines + 1) >= 10:
        nines += 1
    if nines:
        beyond = n // 10**nines
        label = "p90" if nines == 1 else "p99" + ("." + "9" * (nines - 2) if nines > 2 else "")
        return ordered[n - beyond - 1], label, beyond
    if n // 2 >= 10:
        beyond = n // 2
        return ordered[n - beyond - 1], "p50", beyond
    return ordered[-1], "p100", 0


def digest(record):
    """SHA-256 over a canonical JSON rendering of ``record``.

    Floats render with ``repr`` precision, so two records digest equal
    exactly when every simulated number is bit-identical."""
    text = json.dumps(record, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()
