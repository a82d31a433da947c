"""Tests for the synthetic voice sources."""

import numpy as np
import pytest

from spotform.synth import _breath_filter


@pytest.mark.parametrize("n", [1, 2, 17, 1000, 40000])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_breath_filter_matches_scipy_lfilter(seed, n):
    # the voices run the one-pole filter as its recurrence to keep
    # scipy.signal off the simulate and sweep paths; lfilter's direct form
    # does the same operations, so the samples are equal
    import scipy.signal

    x = np.random.default_rng(seed).standard_normal(n)
    np.testing.assert_array_equal(
        _breath_filter(x), scipy.signal.lfilter([1.0], [1.0, -0.95], x))
