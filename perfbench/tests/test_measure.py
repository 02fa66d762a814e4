"""The tail rule: highest percentile with at least ten samples beyond."""

import pytest

from measure import tail_percentile


def test_p99_needs_a_thousand_samples():
    values = list(range(1, 1001))
    assert tail_percentile(values) == (990, 99.0)


def test_fewer_samples_report_a_lower_percentile():
    values = list(range(1, 301))
    value, used = tail_percentile(values)
    assert value == 290
    assert used == pytest.approx(100 * (1 - 10 / 300))
    assert sum(1 for v in values if v > value) == 10


def test_too_few_samples_report_the_maximum():
    assert tail_percentile([5.0, 1.0, 3.0]) == (5.0, 100.0)


def test_infinite_failures_dominate_the_tail():
    values = [1.0] * 100 + [float("inf")] * 11
    assert tail_percentile(values)[0] == float("inf")
