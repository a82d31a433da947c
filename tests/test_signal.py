"""Tests for STFT analysis/synthesis, resampling, and WAV I/O."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spotform.signal import (
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    frame_count,
    istft,
    normalize_energy,
    read_wav,
    resample,
    stft,
    write_wav,
)

CFG = StftConfig()


class TestStftConfig:
    def test_defaults(self):
        assert CFG.window_length == 512
        assert CFG.hop == 256
        assert CFG.n_bins == 257

    def test_hop_must_divide_window(self):
        with pytest.raises(ValueError):
            StftConfig(window_length_ms=32.0, hop_ms=12.0)

    def test_non_integer_samples_rejected(self):
        with pytest.raises(ValueError):
            StftConfig(window_length_ms=32.1, sample_rate=16000)

    def test_other_rates(self):
        cfg = StftConfig(sample_rate=8000)
        assert cfg.window_length == 256
        assert cfg.n_bins == 129


class TestRoundtrip:
    def test_random_signals_reconstruct(self):
        # analysis/synthesis must be near-exact for arbitrary content
        for seed in range(10):
            rng = np.random.default_rng(seed)
            n = int(rng.integers(300, 20000))
            x = Waveform(rng.standard_normal(n), 16000)
            y = istft(stft(x, CFG), CFG, len(x))
            err = np.max(np.abs(y.samples - x.samples))
            assert err < 1e-10, f"seed {seed}: roundtrip error {err}"

    def test_short_signal(self):
        x = Waveform(np.ones(5), 16000)
        y = istft(stft(x, CFG), CFG, 5)
        assert_allclose(y.samples, x.samples, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty signal"):
            stft(Waveform(np.zeros(0), 16000), CFG)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError):
            stft(Waveform(np.zeros(100), 8000), CFG)

    def test_config_mismatch_rejected(self):
        S = stft(Waveform(np.zeros(1000), 16000), CFG)
        other = StftConfig(window_length_ms=64.0, hop_ms=32.0)
        with pytest.raises(ValueError):
            istft(S, other, 1000)


def loop_istft(S, cfg, length):
    """Frame-by-frame weighted overlap-add: the reference for `istft`."""
    win_len, hop = cfg.window_length, cfg.hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win_len) / win_len)
    frames = np.fft.irfft(S.values.T, n=win_len, axis=1) * window[None, :]
    total = (S.n_frames - 1) * hop + win_len
    out = np.zeros(total)
    norm = np.zeros(total)
    for j in range(S.n_frames):
        out[j * hop: j * hop + win_len] += frames[j]
        norm[j * hop: j * hop + win_len] += window**2
    out /= np.maximum(norm, 1e-12)
    y = out[win_len - hop: win_len - hop + length]
    return np.pad(y, (0, length - len(y)))


class TestIstftOverlapAdd:
    # hop 16 ms adds 2 chunks per output block, 8 ms adds 4, 32 ms adds 1
    @pytest.mark.parametrize("hop_ms", [16.0, 8.0, 32.0])
    @pytest.mark.parametrize("n_frames", [1, 2, 7, 158])
    def test_matches_frame_loop_bit_for_bit(self, hop_ms, n_frames):
        cfg = StftConfig(hop_ms=hop_ms)
        rng = np.random.default_rng(n_frames)
        shape = (cfg.n_bins, n_frames)
        S = ComplexSpectrogram(rng.standard_normal(shape)
                               + 1j * rng.standard_normal(shape), cfg)
        covered = n_frames * cfg.hop
        # shorter than the frames cover, exactly covered, and zero-padded
        for length in (0, 10, covered // 2, covered, covered + 3 * cfg.window_length):
            got = istft(S, cfg, length)
            assert got.samples.shape == (length,)
            assert np.array_equal(got.samples, loop_istft(S, cfg, length)), length


class TestFrameCount:
    @given(n=st.integers(min_value=1, max_value=100000))
    @settings(max_examples=50, deadline=None)
    def test_matches_ceil(self, n):
        x = Waveform(np.ones(n), 16000)
        S = stft(x, CFG)
        assert S.n_frames == math.ceil(n / CFG.hop)
        assert S.n_frames == frame_count(n, CFG)

    def test_every_sample_covered(self):
        # last frame must extend past the final input sample
        for n in [1, 255, 256, 257, 511, 512, 513, 1000]:
            J = frame_count(n, CFG)
            pad_head = CFG.window_length - CFG.hop
            assert (J - 1) * CFG.hop + CFG.window_length >= pad_head + n


class TestSinusoidConcentration:
    def test_bin_centered_tone_lands_in_one_bin(self):
        """A tone at an exact bin frequency concentrates in +-1 bins."""
        fs, n = 16000, 16000
        k = 40  # bin index; f = k * fs / window_length
        f = k * fs / CFG.window_length
        t = np.arange(n) / fs
        x = Waveform(np.sin(2 * np.pi * f * t), fs)
        S = stft(x, CFG)
        # interior frames only: edge frames see the zero padding
        interior = S.values[:, 4:-4]
        power = np.abs(interior) ** 2
        lo, hi = k - 1, k + 2
        frac = power[lo:hi].sum() / power.sum()
        assert frac >= 0.99

    def test_against_direct_dft_oracle(self):
        # one frame of the STFT equals a windowed DFT computed by explicit sums
        rng = np.random.default_rng(7)
        x = Waveform(rng.standard_normal(4000), 16000)
        S = stft(x, CFG)
        win_len, hop = CFG.window_length, CFG.hop
        pad_head = win_len - hop
        j = 5
        start = j * hop - pad_head
        seg = x.samples[start : start + win_len]
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win_len) / win_len)
        wx = seg * w
        n_idx = np.arange(win_len)
        for i in [0, 1, 17, 128, 256]:
            ref = np.sum(wx * np.exp(-2j * np.pi * i * n_idx / win_len))
            assert abs(S.values[i, j] - ref) < 1e-9


class TestFrameEnergy:
    def test_parseval_per_frame(self):
        # sum|X[i]|^2 over the one-sided spectrum reproduces windowed energy
        rng = np.random.default_rng(3)
        x = Waveform(rng.standard_normal(3000), 16000)
        S = stft(x, CFG)
        win_len, hop = CFG.window_length, CFG.hop
        pad_head = win_len - hop
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win_len) / win_len)
        j = 4
        seg = x.samples[j * hop - pad_head : j * hop - pad_head + win_len] * w
        spec = S.values[:, j]
        # double interior bins to account for the discarded conjugate half
        weights = np.full(CFG.n_bins, 2.0)
        weights[0] = weights[-1] = 1.0
        lhs = np.sum(weights * np.abs(spec) ** 2) / win_len
        assert abs(lhs - np.sum(seg**2)) < 1e-8


class TestNormalizeEnergy:
    def test_unit_energy(self):
        rng = np.random.default_rng(0)
        srcs = [Waveform(3.0 * rng.standard_normal(1000), 16000) for _ in range(3)]
        out = normalize_energy(srcs)
        for y in out:
            assert abs(y.energy - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = [Waveform(rng.standard_normal(500), 16000)]
        once = normalize_energy(x)
        twice = normalize_energy(once)
        assert_allclose(twice[0].samples, once[0].samples, atol=1e-14)

    def test_silent_source_rejected(self):
        with pytest.raises(ValueError, match="silent source"):
            normalize_energy([Waveform(np.zeros(100), 16000)])

    def test_originals_untouched(self):
        x = Waveform(2.0 * np.ones(10), 16000)
        normalize_energy([x])
        assert x.samples[0] == 2.0


class TestResample:
    def test_identity(self):
        x = Waveform(np.arange(100, dtype=float), 16000)
        y = resample(x, 16000)
        assert_allclose(y.samples, x.samples)

    def test_output_length(self):
        for n in [100, 999, 48000]:
            x = Waveform(np.zeros(n), 48000)
            assert len(resample(x, 16000)) == math.ceil(n / 3)

    def test_tone_survives_downsample(self):
        """1 kHz at 48 kHz resampled to 16 kHz: FFT peak stays at 1 kHz."""
        fs_in, fs_out, f = 48000, 16000, 1000.0
        t = np.arange(fs_in) / fs_in
        x = Waveform(np.sin(2 * np.pi * f * t), fs_in)
        y = resample(x, fs_out)
        assert len(y) == fs_out
        spec = np.abs(np.fft.rfft(y.samples))
        assert np.argmax(spec) == 1000
        # amplitude preserved within a fraction of a percent
        assert abs(2 * spec[1000] / fs_out - 1.0) < 5e-3

    def test_tone_survives_upsample(self):
        fs_in, fs_out, f = 8000, 16000, 440.0
        t = np.arange(fs_in) / fs_in
        x = Waveform(np.sin(2 * np.pi * f * t), fs_in)
        y = resample(x, fs_out)
        assert len(y) == fs_out
        spec = np.abs(np.fft.rfft(y.samples))
        assert np.argmax(spec) == 440

    def test_delay_compensated(self):
        # an impulse maps to (approximately) an impulse at the scaled position
        x = np.zeros(3000)
        x[1500] = 1.0
        y = resample(Waveform(x, 48000), 16000)
        assert np.argmax(np.abs(y.samples)) == 500

    def test_bad_rate_rejected(self):
        with pytest.raises(ValueError):
            resample(Waveform(np.zeros(10), 16000), 0)


class TestWavIo:
    def test_float32_roundtrip(self, tmp_path):
        rng = np.random.default_rng(5)
        x = Waveform(rng.uniform(-0.5, 0.5, 1000), 16000)
        p = tmp_path / "a.wav"
        write_wav(p, x)
        y = read_wav(p)
        assert y.sample_rate == 16000
        assert_allclose(y.samples, x.samples, atol=1e-7)

    def test_pcm16_roundtrip(self, tmp_path):
        # recordings arrive as 16-bit PCM; spotform itself writes float32 only
        import scipy.io.wavfile

        rng = np.random.default_rng(6)
        x = rng.uniform(-0.5, 0.5, 1000)
        p = tmp_path / "b.wav"
        scipy.io.wavfile.write(p, 16000, np.round(x * 32768.0).astype(np.int16))
        y = read_wav(p)
        assert y.sample_rate == 16000
        assert np.max(np.abs(y.samples - x)) < 1.0 / 32768.0

    def test_multichannel_rejected(self, tmp_path):
        import scipy.io.wavfile

        p = tmp_path / "stereo.wav"
        scipy.io.wavfile.write(p, 16000, np.zeros((100, 2), dtype=np.float32))
        with pytest.raises(ValueError, match="multichannel"):
            read_wav(p)


class TestWaveformValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 100)), 16000)

    def test_spectrogram_bin_check(self):
        with pytest.raises(ValueError):
            ComplexSpectrogram(np.zeros((100, 5), dtype=complex), CFG)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(seed, n):
    rng = np.random.default_rng(seed)
    x = Waveform(rng.standard_normal(n), 16000)
    y = istft(stft(x, CFG), CFG, n)
    assert np.max(np.abs(y.samples - x.samples)) < 1e-10
