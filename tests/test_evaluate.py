"""Tests for the SDR metrics and aggregation.

The filtered metric is checked against a dense least-squares oracle built from
the explicit zero-padded convolution matrix, and the scale-invariant metric
against direct energy-ratio arithmetic.
"""

import tracemalloc
import warnings

import numpy as np
import pytest
import scipy.linalg
from numpy.testing import assert_allclose

from spotform import evaluate
from spotform.evaluate import (
    SENTINEL_DB,
    AggregateStats,
    _solve_normal_equations,
    _toeplitz_product,
    aggregate,
    filtered_sdr,
    prepare_reference,
    si_sdr,
)
from spotform.harness import ResultRow, _aggregate_rows
from spotform.signal import Waveform

FS = 16000


def w(x, rate=FS):
    return Waveform(x, rate)


def dense_oracle_sdr(e, s, taps):
    """filtered_sdr from the explicit zero-padded convolution matrix."""
    n = min(len(e), len(s))
    e, s = e[:n], s[:n]
    # (n + taps - 1) x taps; column m is s delayed by m samples
    X = np.zeros((n + taps - 1, taps))
    for m in range(taps):
        X[m: m + n, m] = s
    g, *_ = np.linalg.lstsq(X, np.pad(e, (0, taps - 1)), rcond=None)
    proj = np.convolve(s, g)[:n]
    return 10.0 * np.log10(np.sum(proj**2) / np.sum((e - proj) ** 2))


def orthogonal_noise(rng, reference, snr_db):
    """Noise with exact SNR relative to the reference, projected off it."""
    noise = rng.standard_normal(reference.shape[0])
    noise -= (noise @ reference) / (reference @ reference) * reference
    want = (reference @ reference) / 10.0 ** (snr_db / 10.0)
    return noise * np.sqrt(want / (noise @ noise))


class TestSiSdr:
    def test_scaled_estimate_hits_positive_sentinel(self):
        rng = np.random.default_rng(0)
        s = rng.standard_normal(4000)
        assert si_sdr(w(3.7 * s), w(s)) == SENTINEL_DB

    def test_ten_db_construction(self):
        rng = np.random.default_rng(1)
        s = rng.standard_normal(16000)
        noise = orthogonal_noise(rng, s, 10.0)
        got = si_sdr(w(s + noise), w(s))
        assert abs(got - 10.0) < 0.1
        # direct energy-ratio oracle: alpha = 1 by construction
        want = 10.0 * np.log10((s @ s) / (noise @ noise))
        assert got == pytest.approx(want, abs=1e-9)

    def test_orthogonal_estimate_hits_negative_sentinel(self):
        rng = np.random.default_rng(2)
        s = rng.standard_normal(4000)
        assert si_sdr(w(orthogonal_noise(rng, s, 0.0)), w(s)) == -SENTINEL_DB

    def test_zero_estimate_hits_negative_sentinel(self):
        rng = np.random.default_rng(3)
        s = rng.standard_normal(100)
        assert si_sdr(w(np.zeros(100)), w(s)) == -SENTINEL_DB

    def test_silent_reference_rejected(self):
        with pytest.raises(ValueError, match="silent reference"):
            si_sdr(w(np.ones(10)), w(np.zeros(10)))

    def test_truncates_to_common_length(self):
        rng = np.random.default_rng(4)
        s = rng.standard_normal(500)
        e = rng.standard_normal(450)
        assert si_sdr(w(e), w(s)) == si_sdr(w(e), w(s[:450]))

    def test_invariant_to_estimate_scale(self):
        rng = np.random.default_rng(5)
        s = rng.standard_normal(1000)
        e = s + 0.4 * rng.standard_normal(1000)
        assert abs(si_sdr(w(2.3 * e), w(s)) - si_sdr(w(e), w(s))) < 1e-9

    def test_invariant_to_joint_scale(self):
        rng = np.random.default_rng(6)
        s = rng.standard_normal(1000)
        e = s + 0.4 * rng.standard_normal(1000)
        assert abs(si_sdr(w(0.01 * e), w(0.01 * s)) - si_sdr(w(e), w(s))) < 1e-9

    def test_accepts_waveforms(self):
        # the rate must match, but it does not enter the arithmetic
        rng = np.random.default_rng(7)
        s = rng.standard_normal(800)
        e = s + 0.2 * rng.standard_normal(800)
        assert si_sdr(w(e, 8000), w(s, 8000)) == si_sdr(w(e), w(s))


class TestFilteredSdr:
    def test_identical_signals_hit_positive_sentinel(self):
        rng = np.random.default_rng(10)
        s = rng.standard_normal(4000)
        assert filtered_sdr(w(s), w(s)) == SENTINEL_DB

    def test_delay_within_taps_is_absorbed(self):
        rng = np.random.default_rng(11)
        s = rng.standard_normal(16000)
        s[-150:] = 0.0  # source goes quiet before the end
        delayed = np.concatenate([np.zeros(100), s])[:16000]
        assert filtered_sdr(w(delayed), w(s)) >= 100.0

    def test_single_tap_equals_si_sdr(self):
        rng = np.random.default_rng(12)
        s = rng.standard_normal(3000)
        e = s + 0.3 * rng.standard_normal(3000)
        assert abs(filtered_sdr(w(e), w(s), filter_taps=1) - si_sdr(w(e), w(s))) < 1e-9

    def test_matches_dense_least_squares_oracle(self):
        rng = np.random.default_rng(13)
        n, taps = 64, 8
        s = rng.standard_normal(n)
        e = rng.standard_normal(n)
        want = dense_oracle_sdr(e, s, taps)
        assert filtered_sdr(w(e), w(s), filter_taps=taps) == pytest.approx(want,
                                                                     abs=1e-9)

    # filter longer than the signal; estimate shorter, then longer, than the
    # reference (scored on the common part).  The zero-padded convolution
    # matrix of a nonzero reference has full column rank, so none of these
    # takes the ridge or warns.
    @pytest.mark.parametrize("n_e, n_s, taps", [(6, 6, 8), (20, 20, 32),
                                                (50, 64, 8), (80, 64, 8),
                                                (40, 64, 100), (90, 64, 100)])
    def test_dense_oracle_beyond_taps_and_lengths(self, n_e, n_s, taps):
        rng = np.random.default_rng(n_e + n_s + taps)
        s = rng.standard_normal(n_s)
        e = rng.standard_normal(n_e)
        want = dense_oracle_sdr(e, s, taps)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert filtered_sdr(w(e), w(s), taps) == pytest.approx(want,
                                                                   abs=1e-9)
            prepared = prepare_reference(w(s), taps)
            assert filtered_sdr(w(e), prepared, taps) == pytest.approx(
                want, abs=1e-9)

    def test_prepared_reference_scores_like_the_waveform(self):
        # one prepared reference serves every estimate, with the same result
        # as preparing it per call, whatever the estimate's length
        rng = np.random.default_rng(14)
        s = rng.standard_normal(4000)
        prepared = prepare_reference(w(s), 64)
        estimates = [0.6 * np.roll(s, d) + rng.standard_normal(4000)
                     for d in range(5)]
        estimates += [rng.standard_normal(n) for n in (3000, 5000, 10)]
        for e in estimates:
            assert filtered_sdr(w(e), prepared, 64) == filtered_sdr(w(e), w(s),
                                                                    64)

    def test_prepared_reference_rejects_other_taps(self):
        rng = np.random.default_rng(15)
        s = rng.standard_normal(500)
        prepared = prepare_reference(w(s), 64)
        with pytest.raises(ValueError, match="filter_taps"):
            filtered_sdr(w(s), prepared, 32)
        with pytest.raises(ValueError, match="filter_taps"):
            filtered_sdr(w(s), prepared)

    def test_prepare_rejects_silent_reference(self):
        with pytest.raises(ValueError, match="silent reference"):
            prepare_reference(w(np.zeros(10)), 4)

    def test_never_below_si_sdr(self):
        for seed in range(10):
            rng = np.random.default_rng(seed)
            s = rng.standard_normal(4000)
            e = 0.7 * s + 0.5 * rng.standard_normal(4000)
            assert filtered_sdr(w(e), w(s), 64) >= si_sdr(w(e), w(s)) - 1e-6

    def test_rejects_zero_taps(self):
        with pytest.raises(ValueError, match="filter_taps"):
            filtered_sdr(w(np.ones(10)), w(np.ones(10)), filter_taps=0)
        with pytest.raises(ValueError, match="filter_taps"):
            prepare_reference(w(np.ones(10)), 0)

    def test_reference_flat_in_part_of_the_band_reaches_ridge(self):
        # a short, very smooth pulse has a spectrum at rounding level over
        # most of the band, which leaves the normal equations singular
        s = np.zeros(4096)
        s[:200] = np.hanning(200) ** 8
        e = s + 0.1 * np.random.default_rng(17).standard_normal(4096)
        with pytest.warns(UserWarning, match="ill-conditioned"):
            got = filtered_sdr(w(e), w(s), 512)
        assert np.isfinite(got)

    def test_prepared_reference_builds_its_ridge_once(self, monkeypatch):
        # the smooth pulse above needs the ridge on every solve; a prepared
        # reference keeps the ridged predictor, so a second score against
        # it runs no Levinson-Durbin recursion and scores the same
        s = np.zeros(4096)
        s[:200] = np.hanning(200) ** 8
        e = s + 0.1 * np.random.default_rng(17).standard_normal(4096)
        prepared = prepare_reference(w(s), 512)
        calls = []
        levinson_durbin = evaluate._levinson_durbin
        monkeypatch.setattr(
            evaluate, "_levinson_durbin",
            lambda auto: calls.append(1) or levinson_durbin(auto))
        scores = []
        for _ in range(2):
            with pytest.warns(UserWarning, match="ill-conditioned") as record:
                scores.append(filtered_sdr(w(e), prepared, 512))
            assert len(record) == 1
            # the plain predictor and the ridged one, both on the first call
            assert len(calls) == 2
        assert np.isfinite(scores[0])
        assert scores[1] == scores[0]

    def test_singular_normal_equations_warn_and_ridge(self):
        with pytest.warns(UserWarning, match="ill-conditioned"):
            g = _solve_normal_equations(np.ones(4), np.array([1.0, 2.0, 3.0, 4.0]))
        assert np.all(np.isfinite(g))

    def test_prepared_reference_reaches_ridge_and_dense_fallback(
            self, monkeypatch):
        # with the predictor's solve failing, a prepared (read-only)
        # autocorrelation goes through the ridge and the dense solve and
        # scores as before
        rng = np.random.default_rng(16)
        s = rng.standard_normal(2000)
        e = 0.8 * s + 0.3 * rng.standard_normal(2000)
        prepared = prepare_reference(w(s), 32)
        want = filtered_sdr(w(e), prepared, 32)

        monkeypatch.setattr(evaluate, "_try_solve", lambda *args: None)
        with pytest.warns(UserWarning, match="ill-conditioned"):
            got = filtered_sdr(w(e), prepared, 32)
        assert got == pytest.approx(want, abs=1e-6)
        assert not prepared.auto.flags.writeable


def scipy_fft_prepare(s, taps):
    """prepare_reference's (size, spectrum, auto), by `scipy.fft`."""
    import scipy.fft

    size = scipy.fft.next_fast_len(len(s) + taps - 1, real=True)
    spectrum = scipy.fft.rfft(s, size)
    auto = scipy.fft.irfft(np.abs(spectrum) ** 2, size)[:taps]
    auto[len(s):] = 0.0
    return size, spectrum, auto


def scipy_fft_filtered_sdr(e, s, taps,
                           solve=evaluate._solve_normal_equations):
    """filtered_sdr of equal-length e and s, by `scipy.fft` and `solve`
    (by default the same normal-equation solve)."""
    import scipy.fft

    size, spectrum, auto = scipy_fft_prepare(s, taps)
    cross = scipy.fft.irfft(scipy.fft.rfft(e, size) * np.conj(spectrum),
                            size)[:taps]
    cross[len(s):] = 0.0
    g = solve(auto, cross)
    if taps > 1:
        proj = scipy.fft.irfft(spectrum * scipy.fft.rfft(g, size),
                               size)[:len(s)]
    else:
        proj = g[0] * s
    sdr = 10.0 * np.log10(float(np.sum(proj**2))
                          / float(np.sum((e - proj) ** 2)))
    return float(np.clip(sdr, -SENTINEL_DB, SENTINEL_DB))


class TestNumpyFftMatchesScipyFft:
    """The scoring runs on `numpy.fft`; it must give `scipy.fft`'s numbers
    bit for bit, odd and even lengths, with fewer and more taps than
    samples."""

    CASES = [(n, taps) for n in (7, 8, 999, 1000, 4001, 40000)
             for taps in (1, 16, 512)]

    @pytest.mark.parametrize("n, taps", CASES)
    def test_prepared_spectrum_and_autocorrelation(self, n, taps):
        s = np.random.default_rng(n + taps).standard_normal(n)
        size, spectrum, auto = scipy_fft_prepare(s, taps)
        prepared = prepare_reference(w(s), taps)
        assert prepared.fft_size == size
        np.testing.assert_array_equal(prepared.spectrum, spectrum)
        np.testing.assert_array_equal(prepared.auto, auto)

    @pytest.mark.parametrize("n, taps", CASES)
    def test_filtered_sdr(self, n, taps):
        rng = np.random.default_rng(n + taps)
        s = rng.standard_normal(n)
        e = 0.7 * np.roll(s, 3) + 0.4 * rng.standard_normal(n)
        want = scipy_fft_filtered_sdr(e, s, taps)
        assert filtered_sdr(w(e), w(s), taps) == want
        assert filtered_sdr(w(e), prepare_reference(w(s), taps), taps) == want

    @pytest.mark.parametrize("taps", [1, 2, 3, 16, 512, 2048])
    def test_toeplitz_product_matches_scipy(self, taps):
        # the Levinson residual check's product, once scipy's
        rng = np.random.default_rng(taps)
        auto, g = rng.standard_normal(taps), rng.standard_normal(taps)
        assert_allclose(_toeplitz_product(auto, g),
                        scipy.linalg.matmul_toeplitz(auto, g),
                        rtol=1e-12, atol=1e-12 * np.abs(auto).sum())


def speech_like(n, seed):
    """White noise through seven (1, 1.9, 1) smoothers: a spectrum falling
    like speech's, whose 512-tap normal equations have condition ~5e6."""
    x = np.random.default_rng(seed).standard_normal(n)
    for _ in range(7):
        x = np.convolve(x, [1.0, 1.9, 1.0], "same")
    return x


class TestPredictorSolve:
    """The Levinson-Durbin predictor and the Gohberg-Semencul solve give
    what scipy's Levinson and a dense solve give, on the numpy-vs-scipy grid
    and on a speech-like reference."""

    CASES = [*TestNumpyFftMatchesScipyFft.CASES, "speech"]

    @staticmethod
    def signals(case):
        if case == "speech":
            s, taps = speech_like(16000, 5), 512
        else:
            n, taps = case
            s = np.random.default_rng(n + taps).standard_normal(n)
        rng = np.random.default_rng(len(s) + taps + 1)
        e = 0.7 * np.roll(s, 3) + 0.4 * rng.standard_normal(len(s))
        return e, s, taps

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_filter_matches_scipy_levinson_and_dense_solve(self, case):
        e, s, taps = self.signals(case)
        prepared = prepare_reference(w(s), taps)
        size = prepared.fft_size
        cross = np.fft.irfft(np.fft.rfft(e, size) * np.conj(prepared.spectrum),
                             size)[:taps]
        cross[len(s):] = 0.0
        dense = scipy.linalg.toeplitz(prepared.auto)
        if case == "speech":
            assert 1e6 < np.linalg.cond(dense) < 1e7
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            g = _solve_normal_equations(prepared.auto, cross,
                                        prepared.predictor)
        for want in (scipy.linalg.solve_toeplitz(prepared.auto, cross),
                     np.linalg.solve(dense, cross)):
            assert np.linalg.norm(g - want) <= 1e-9 * np.linalg.norm(want)

    @pytest.mark.parametrize("case", CASES, ids=str)
    def test_filtered_sdr_matches_scipy_levinson(self, case):
        e, s, taps = self.signals(case)
        want = scipy_fft_filtered_sdr(e, s, taps, scipy.linalg.solve_toeplitz)
        assert filtered_sdr(w(e), prepare_reference(w(s), taps),
                            taps) == pytest.approx(want, abs=1e-9)

    def test_predictor_is_the_first_column_of_the_inverse(self):
        # T a = (e, 0, ..., 0), with a[0] = 1
        auto = prepare_reference(w(speech_like(4000, 6)), 64).auto
        a, e = evaluate._levinson_durbin(auto)
        assert a[0] == 1.0 and e > 0
        want = np.zeros(64)
        want[0] = e
        assert_allclose(scipy.linalg.toeplitz(auto) @ a, want,
                        atol=1e-9 * auto[0])

    @pytest.mark.parametrize("auto", [[1.0, 1.0, 1.0, 1.0], [1.0, 2.0, 0.5],
                                      [0.0, 1.0], [np.nan, 1.0]])
    def test_breakdown_takes_the_ridge(self, auto):
        # a singular, indefinite or non-finite matrix has a prediction error
        # that is not a finite number > 0, so its solve goes to the ridge
        auto = np.array(auto)
        assert not 0 < evaluate._levinson_durbin(auto)[1] < np.inf
        assert evaluate._try_solve(auto, np.ones(auto.shape[0]),
                                   evaluate._levinson_durbin(auto)) is None

    def test_memory_stays_linear_in_taps(self):
        # one filtered_sdr at 8192 taps: a dense taps x taps factor alone
        # would be 512 MB
        rng = np.random.default_rng(22)
        s = rng.standard_normal(20000)
        e = 0.5 * s + rng.standard_normal(20000)
        tracemalloc.start()
        try:
            got = filtered_sdr(w(e), w(s), 8192)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.isfinite(got)
        assert peak < 32 * 2**20


@pytest.mark.parametrize("metric", [si_sdr, filtered_sdr])
def test_mismatched_rates_rejected(metric):
    # the same samples at another rate are a different signal, not a match
    x = np.random.default_rng(30).standard_normal(800)
    with pytest.raises(ValueError, match="rate"):
        metric(w(x, 8000), w(x, 16000))


class TestAggregate:
    KEY = ("ntf", "filtered-sdr", 30, 100.0)

    def test_single_report(self):
        out = aggregate({self.KEY: [5.0]})
        assert out[self.KEY] == AggregateStats(5.0, 0.0, 1)

    def test_two_reports_unbiased_std(self):
        stats = aggregate({self.KEY: [4.0, 6.0]})[self.KEY]
        assert stats.mean_db == 5.0
        assert stats.std_db == pytest.approx(np.sqrt(2.0))

    def test_matches_two_pass_oracle(self):
        rng = np.random.default_rng(20)
        vals = rng.uniform(-5, 15, size=10)
        stats = aggregate({self.KEY: list(vals)})[self.KEY]
        mean = sum(vals) / 10.0
        std = np.sqrt(sum((v - mean) ** 2 for v in vals) / 9.0)
        assert stats.mean_db == pytest.approx(mean, abs=1e-12)
        assert stats.std_db == pytest.approx(std, abs=1e-12)

    def test_groups_are_kept_apart(self):
        # the sweep groups its ok rows' two scores by (method, variant, K,
        # tau-or-mu); failed rows do not count
        def row(method, hyper, seed, f_db, s_db, status="ok"):
            return ResultRow(method, 2, 0.0, 30, hyper, seed, f_db, s_db,
                             1.0, status)

        out = _aggregate_rows([
            row("nmf", 0.1, 0, 1.0, 0.5),
            row("nmf", 0.2, 0, 2.0, 1.5),
            row("ntf", 100.0, 0, 3.0, 4.0),
            row("ntf", 100.0, 1, 5.0, 6.0),
            row("ntf", 100.0, 2, float("nan"), float("nan"), "failed"),
        ])
        assert len(out) == 6
        assert out[("nmf", "filtered-sdr", 30, 0.1)].mean_db == 1.0
        assert out[("nmf", "si-sdr", 30, 0.2)].mean_db == 1.5
        assert out[("ntf", "filtered-sdr", 30, 100.0)] == AggregateStats(
            4.0, pytest.approx(np.sqrt(2.0)), 2)
        assert out[("ntf", "si-sdr", 30, 100.0)].mean_db == 5.0
