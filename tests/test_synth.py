"""Tests for the synthetic voice sources."""

import numpy as np
import pytest

from spotform.synth import _breath_filter, harmonic_voice


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_voice_of_a_few_samples_has_unit_energy(n):
    # under 4 samples the fades and the silent tail are empty
    voice = harmonic_voice(n / 16000, 16000, seed=0)
    assert len(voice) == n
    assert abs(voice.energy - 1.0) < 1e-12
