import random

import pytest

from perfbench.stats import digest, median, tail_percentile


def shuffled(n):
    samples = list(range(1, n + 1))
    random.Random(n).shuffle(samples)
    return samples


@pytest.mark.parametrize(
    "n, label, beyond",
    [
        (19, "p100", 0),
        (20, "p50", 10),
        (99, "p50", 49),
        (100, "p90", 10),
        (999, "p90", 99),
        (1000, "p99", 10),
        (1001, "p99", 10),
        (9999, "p99", 99),
        (10000, "p99.9", 10),
        (100000, "p99.99", 10),
    ],
)
def test_tail_percentile_boundaries(n, label, beyond):
    value, got_label, got_beyond = tail_percentile(shuffled(n))
    assert (got_label, got_beyond) == (label, beyond)
    # Samples are 1..n, so exactly `beyond` of them exceed the value.
    assert value == n - beyond
    assert sum(1 for s in range(1, n + 1) if s > value) == beyond


def test_tail_percentile_rejects_empty():
    with pytest.raises(ValueError):
        tail_percentile([])


def test_median_is_a_sample():
    assert median([4, 1, 3, 2]) == 2
    assert median([5, 1, 3]) == 3


def test_digest_is_order_independent_and_exact():
    a = digest({"x": 1.0, "y": [1, 2]})
    assert a == digest({"y": [1, 2], "x": 1.0})
    assert a != digest({"x": 1.0000000000000002, "y": [1, 2]})


def test_calibrated_clock_scales_by_probe_speed(monkeypatch):
    import perfbench.calibrate as calibrate

    probes = iter([0.005, 0.005, 0.0025])
    monkeypatch.setattr(calibrate, "probe_point", lambda: next(probes))
    clock = calibrate.CalibratedClock()
    result, first = clock.call(lambda x: x + 1, 41)
    assert result == 42
    # A probe twice as slow as the reference halves the reported time.
    first_raw = clock.raw_s
    assert first == pytest.approx(first_raw * calibrate.REFERENCE_PROBE_S / 0.005)
    # The speed of a call is the mean of the probes before and after it.
    _, second = clock.call(lambda: None)
    assert second == pytest.approx((clock.raw_s - first_raw) * calibrate.REFERENCE_PROBE_S / 0.00375)
    assert clock.reference_s == pytest.approx(first + second)


def test_probe_does_fixed_work():
    import perfbench.calibrate as calibrate

    assert calibrate.probe() > 0
    assert calibrate.probe_point() > 0
