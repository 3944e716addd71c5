"""Savitzky-Golay differentiation filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nlconfirm.dsp import FIRST_DERIVATIVE, SECOND_DERIVATIVE, SavitzkyGolayFilter

from .conftest import sg_filtered


def test_filter_table_values():
    assert np.array_equal(FIRST_DERIVATIVE.coefficients, [-3, -2, -1, 0, 1, 2, 3])
    assert FIRST_DERIVATIVE.h == 28
    assert np.array_equal(SECOND_DERIVATIVE.coefficients, [5, 0, -3, -4, -3, 0, 5])
    assert SECOND_DERIVATIVE.h == 42


def test_coefficient_structure():
    a1 = FIRST_DERIVATIVE.coefficients
    a2 = SECOND_DERIVATIVE.coefficients
    assert a1.sum() == 0.0 and np.array_equal(a1, -a1[::-1])  # antisymmetric
    assert a2.sum() == 0.0 and np.array_equal(a2, a2[::-1])   # symmetric


def test_first_derivative_on_line():
    t = np.arange(30, dtype=float)
    out = sg_filtered(t, FIRST_DERIVATIVE)
    assert out.shape == t.shape
    assert np.all(out[3:-3] == 1.0)


def test_second_derivative_on_square():
    t = np.arange(30, dtype=float)
    out = sg_filtered(t * t, SECOND_DERIVATIVE)
    assert np.all(out[3:-3] == 2.0)


@pytest.mark.parametrize("filt", [FIRST_DERIVATIVE, SECOND_DERIVATIVE])
def test_zero_on_constants(filt):
    out = sg_filtered(np.full(20, 3.7), filt)
    assert np.allclose(out, 0.0, atol=1e-12)


def test_first_derivative_exact_to_degree_two():
    rng = np.random.default_rng(1)
    t = np.arange(25, dtype=float)
    for _ in range(20):
        a, b, c = rng.uniform(-0.5, 0.5, 3)
        series = a + b * t + c * t * t
        expected = b + 2 * c * t
        out = sg_filtered(series, FIRST_DERIVATIVE)
        assert np.max(np.abs(out[3:-3] - expected[3:-3])) < 1e-12


def test_second_derivative_exact_to_degree_three():
    rng = np.random.default_rng(2)
    t = np.arange(25, dtype=float)
    for _ in range(20):
        a, b, c, d = rng.uniform(-0.2, 0.2, 4)
        series = a + b * t + c * t * t + d * t**3
        expected = 2 * c + 6 * d * t
        out = sg_filtered(series, SECOND_DERIVATIVE)
        assert np.max(np.abs(out[3:-3] - expected[3:-3])) < 1e-12


def test_matrix_series_filters_columns():
    t = np.arange(20, dtype=float)
    series = np.stack([t, 2 * t], axis=1)
    out = sg_filtered(series, FIRST_DERIVATIVE)
    assert out.shape == series.shape
    assert np.allclose(out[3:-3, 0], 1.0)
    assert np.allclose(out[3:-3, 1], 2.0)


def test_even_length_rejected():
    with pytest.raises(ValueError):
        SavitzkyGolayFilter(np.array([1.0, -1.0]), 1.0)


@settings(max_examples=30, deadline=None)
@given(values=st.lists(st.floats(-100, 100), min_size=7, max_size=40))
def test_edge_replication_keeps_length(values):
    out = sg_filtered(np.asarray(values), FIRST_DERIVATIVE)
    assert out.shape == (len(values),)
    assert np.isfinite(out).all()
