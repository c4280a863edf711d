"""Percentile indexing."""

import pytest

from common import percentile


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))  # 1..100
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile(values, 0.99) == 99
    assert percentile(values, 1.0) == 100


def test_percentile_small_samples():
    assert percentile([7], 0.5) == 7
    assert percentile([1, 2, 3, 4], 0.5) == 2
    assert percentile([1, 2, 3, 4], 0.75) == 3
    assert percentile([1, 2, 3, 4], 0.76) == 4
    assert percentile([1, 2, 3, 4], 0.01) == 1


def test_percentile_rejects_bad_input():
    with pytest.raises(ValueError):
        percentile([], 0.5)
    with pytest.raises(ValueError):
        percentile([1.0], 0.0)
