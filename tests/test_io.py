"""Text of numeric columns: the same bytes whichever way a column is written."""

import numpy as np
import pytest

from mlsm2d import io


def plain(values, fmt="%.17g"):
    return [fmt % v for v in values]


def grid_column():
    return np.repeat(np.linspace(-1.0, 1.0, 41), 300)


def distinct_column():
    return np.random.default_rng(0).normal(size=12_000)


def distinct_prefix_repeating_tail():
    head = np.random.default_rng(1).normal(size=io._PREFIX)
    return np.concatenate([head, np.tile([0.5, -0.0, 0.0, 1e-300], 5_000)])


@pytest.mark.parametrize("column", [grid_column, distinct_column, distinct_prefix_repeating_tail])
@pytest.mark.parametrize("fmt", ["%.17g", "%.6f"])
def test_text_equals_plain_formatting(column, fmt):
    values = column()
    assert io._text(values, fmt) == plain(values, fmt)


def test_grid_column_is_deduplicated_and_a_distinct_one_is_not(monkeypatch):
    counted = []
    unique = np.unique

    def counting_unique(values, **kwargs):
        counted.append(values.size)
        return unique(values, **kwargs)

    monkeypatch.setattr(io.np, "unique", counting_unique)
    io._text(grid_column())
    assert counted[:2] == [io._PREFIX, 41 * 300]
    counted.clear()
    io._text(distinct_column())
    assert counted == [io._PREFIX]


def test_negative_zero_and_empty_columns():
    assert io._text(np.array([0.0, -0.0] * 3)) == ["0", "-0"] * 3
    assert io._text(np.array([])) == []
