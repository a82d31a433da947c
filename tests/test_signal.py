"""Tests for STFT analysis/synthesis, resampling, and WAV I/O."""

import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spotform import signal
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
            x = rng.standard_normal(n)
            y = istft(stft(x, CFG))
            err = np.max(np.abs(y - x))
            assert err < 1e-10, f"seed {seed}: roundtrip error {err}"
        # and a (2, 3, n) batch, as mvdr runs over its mics, in one
        # transform each way: bit for bit the per-signal calls
        x = rng.standard_normal((2, 3, n))
        S = stft(x, CFG)
        assert S.values.shape == (2, 3, CFG.n_bins, frame_count(n, CFG))
        assert S.values.flags.c_contiguous
        assert S.n_samples == n
        y = istft(S)
        assert y.shape == (2, 3, n)
        for a in range(2):
            for m in range(3):
                one = stft(x[a, m], CFG)
                assert np.array_equal(S.values[a, m], one.values)
                assert np.array_equal(y[a, m], istft(one))
        assert np.max(np.abs(y - x)) < 1e-10

    def test_short_signal(self):
        x = np.ones(5)
        assert_allclose(istft(stft(x, CFG)), x, atol=1e-10)

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty signal"):
            stft(np.zeros(0), CFG)


class TestComplexSpectrogram:
    # 5 frames are the STFT of 4 * hop + 1 through 5 * hop samples, and no
    # frames that of no signal at all
    @pytest.mark.parametrize("n_frames, n_samples", [
        (5, 4 * CFG.hop), (5, 5 * CFG.hop + 1), (0, 0), (0, -5)])
    def test_frame_count_must_fit_the_length(self, n_frames, n_samples):
        with pytest.raises(ValueError, match=f"^{n_samples} samples need"):
            ComplexSpectrogram(np.zeros((CFG.n_bins, n_frames), dtype=complex),
                               CFG, n_samples)

    def test_values_made_c_contiguous_complex_without_a_copy_when_they_are(
            self):
        values = np.zeros((2, 5, CFG.n_bins), dtype=complex)
        S = ComplexSpectrogram(values.transpose(0, 2, 1), CFG, 5 * CFG.hop)
        assert S.values.flags.c_contiguous and S.values.dtype == np.complex128
        assert ComplexSpectrogram(S.values, CFG, 5 * CFG.hop).values is S.values
        real = ComplexSpectrogram(np.ones((CFG.n_bins, 5)), CFG, 5 * CFG.hop)
        assert real.values.dtype == np.complex128


def loop_istft(S):
    """Frame-by-frame weighted overlap-add: the reference for `istft`."""
    win_len, hop = S.config.window_length, S.config.hop
    window = 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(win_len) / win_len)
    frames = np.fft.irfft(S.values.T, n=win_len, axis=1) * window[None, :]
    total = (S.n_frames - 1) * hop + win_len
    out = np.zeros(total)
    norm = np.zeros(total)
    for j in range(S.n_frames):
        out[j * hop: j * hop + win_len] += frames[j]
        norm[j * hop: j * hop + win_len] += window**2
    out /= np.maximum(norm, 1e-12)
    return out[win_len - hop: win_len - hop + S.n_samples]


class TestIstftOverlapAdd:
    # hop 16 ms adds 2 chunks per output block, 8 ms adds 4, 32 ms adds 1
    @pytest.mark.parametrize("hop_ms", [16.0, 8.0, 32.0])
    @pytest.mark.parametrize("n_frames", [1, 2, 7, 158])
    def test_matches_frame_loop_bit_for_bit(self, hop_ms, n_frames):
        cfg = StftConfig(hop_ms=hop_ms)
        rng = np.random.default_rng(n_frames)
        shape = (cfg.n_bins, n_frames)
        values = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        # the shortest, a middle and the longest signal these frames are the
        # STFT of, and a (3, n_bins, n_frames) batch of spectrograms in one
        # call
        before = (n_frames - 1) * cfg.hop
        for length in (before + 1, before + cfg.hop // 2, before + cfg.hop):
            S = ComplexSpectrogram(values, cfg, length)
            got = istft(S)
            assert got.shape == (length,)
            assert np.array_equal(got, loop_istft(S)), length
            batch = ComplexSpectrogram(
                np.stack([values, 2.0 * values, values.conj()]), cfg, length)
            many = istft(batch)
            assert many.shape == (3, length)
            for b in range(3):
                one = ComplexSpectrogram(batch.values[b], cfg, length)
                assert np.array_equal(many[b], loop_istft(one))


class TestFrameCount:
    @given(n=st.integers(min_value=1, max_value=100000))
    @settings(max_examples=50, deadline=None)
    def test_matches_ceil(self, n):
        S = stft(np.ones(n), CFG)
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
        S = stft(np.sin(2 * np.pi * f * t), CFG)
        # interior frames only: edge frames see the zero padding
        interior = S.values[:, 4:-4]
        power = np.abs(interior) ** 2
        lo, hi = k - 1, k + 2
        frac = power[lo:hi].sum() / power.sum()
        assert frac >= 0.99

    def test_against_direct_dft_oracle(self):
        # one frame of the STFT equals a windowed DFT computed by explicit sums
        rng = np.random.default_rng(7)
        x = rng.standard_normal(4000)
        S = stft(x, CFG)
        win_len, hop = CFG.window_length, CFG.hop
        pad_head = win_len - hop
        j = 5
        start = j * hop - pad_head
        seg = x[start : start + win_len]
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
        x = rng.standard_normal(3000)
        S = stft(x, CFG)
        win_len, hop = CFG.window_length, CFG.hop
        pad_head = win_len - hop
        w = 0.5 - 0.5 * np.cos(2 * np.pi * np.arange(win_len) / win_len)
        j = 4
        seg = x[j * hop - pad_head : j * hop - pad_head + win_len] * w
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
        for y in map(normalize_energy, srcs):
            assert abs(y.energy - 1.0) < 1e-12

    def test_idempotent(self):
        rng = np.random.default_rng(1)
        x = Waveform(rng.standard_normal(500), 16000)
        once = normalize_energy(x)
        twice = normalize_energy(once)
        assert_allclose(twice.samples, once.samples, atol=1e-14)

    def test_silent_source_rejected(self):
        with pytest.raises(ValueError, match="silent source"):
            normalize_energy(Waveform(np.zeros(100), 16000))

    def test_originals_untouched(self):
        x = Waveform(2.0 * np.ones(10), 16000)
        normalize_energy(x)
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


def _scipy_resample(x, rate_in, rate_out):
    """resample as it was when built on `scipy.signal`: `firwin` taps run
    through `upfirdn`, the group delay cut off and the tail zero-padded."""
    import scipy.signal

    g = math.gcd(rate_in, rate_out)
    up, down = rate_out // g, rate_in // g
    half = int(math.ceil(32 * up / down)) * down
    taps = scipy.signal.firwin(2 * half + 1, 1.0 / max(up, down),
                               window=("kaiser", 8.0)) * up
    y = scipy.signal.upfirdn(taps, x, up, down)
    offset, n_out = half // down, int(math.ceil(len(x) * up / down))
    y = y[offset : offset + n_out]
    return np.pad(y, (0, n_out - len(y)))


class TestResampleMatchesScipy:
    """The numpy polyphase filter against the scipy construction it
    replaces: same taps, same delay, same length."""

    @pytest.mark.parametrize("rate_in, rate_out", [
        (44100, 16000), (48000, 16000), (22050, 16000), (8000, 16000),
        (16000, 44100), (16000, 8000)])
    def test_matches_firwin_upfirdn(self, rate_in, rate_out):
        rng = np.random.default_rng(rate_in + rate_out)
        for n in (1, 2, 3, 5, 7, 13, 101, 997, 4099, rate_in):
            x = rng.standard_normal(n)
            want = _scipy_resample(x, rate_in, rate_out)
            got = resample(Waveform(x, rate_in), rate_out).samples
            assert got.shape == want.shape, n
            assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want)), n

    def test_memory_bounded_by_block(self):
        # 60 s at 44.1 kHz: the output plus the few (block, taps per phase)
        # temporaries of one block, never an array the length of the input
        x = Waveform(np.random.default_rng(0).standard_normal(60 * 44100),
                     44100)
        up, down = 160, 441
        half = math.ceil(32 * up / down) * down
        per_phase = math.ceil((2 * half + 1) / up)
        tracemalloc.start()
        try:
            y = resample(x, 16000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        block = 8 * signal._RESAMPLE_BLOCK * per_phase
        assert peak <= y.samples.nbytes + 4 * block + 2**20, peak


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

    @pytest.mark.parametrize("align", [2, 3, 4])
    def test_truncated_file_reads_the_whole_samples_present(self, tmp_path,
                                                            align):
        # the data chunk declares 3000 bytes, the file ends 100 bytes in;
        # 100 bytes hold 50, 33 or 25 whole samples
        data = np.random.default_rng(align).integers(0, 256, 3000,
                                                     dtype=np.uint8)
        full, cut = tmp_path / "full.wav", tmp_path / "cut.wav"
        full.write_bytes(_riff(_fmt(1, 8 * align, align), data.tobytes()))
        cut.write_bytes(full.read_bytes()[:-2900])
        got = read_wav(cut)
        assert len(got) == 100 // align
        np.testing.assert_array_equal(got.samples,
                                      read_wav(full).samples[:100 // align])


# bytes 4..15 of the KSDATAFORMAT_SUBTYPE GUIDs
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _fmt(tag, bits, align, channels=1, rate=16000, end="<", extensible=False):
    body = struct.pack(end + "HHIIHH", 0xFFFE if extensible else tag,
                       channels, rate, rate * align, align, bits)
    if extensible:
        body += struct.pack("<HHII", 22, bits, 4, tag) + _GUID_TAIL
    return body


def _riff(fmt, data, before_data=(), end="<"):
    """A WAV file's bytes: fmt, the extra (id, body) chunks, then data.
    `end=">"` makes a big-endian RIFX file."""
    body = b"WAVE"
    for cid, chunk in [(b"fmt ", fmt), *before_data, (b"data", data)]:
        body += struct.pack(end + "4sI", cid, len(chunk)) + chunk
        body += b"\0" * (len(chunk) % 2)
    magic = b"RIFX" if end == ">" else b"RIFF"
    return magic + struct.pack(end + "I", len(body)) + body


def _rf64(fmt, data):
    """RF64: the RIFF and data sizes live in a ds64 chunk, 0xFFFFFFFF in
    their usual places."""
    size = 4 + 8 + 28 + 8 + len(fmt) + 8 + len(data)
    ds64 = struct.pack("<QQQI", size, len(data), len(data) // 2, 0)
    body = (b"WAVE" + b"ds64" + struct.pack("<I", len(ds64)) + ds64
            + b"fmt " + struct.pack("<I", len(fmt)) + fmt
            + b"data" + struct.pack("<I", 0xFFFFFFFF) + data)
    return b"RF64" + struct.pack("<I", 0xFFFFFFFF) + body


def _pcm24(values):
    raw = np.asarray(values, dtype="<i4").view(np.uint8).reshape(-1, 4)
    return raw[:, :3].tobytes()


def _scipy_read(path):
    """read_wav as it was when built on `scipy.io.wavfile`."""
    import scipy.io.wavfile

    rate, data = scipy.io.wavfile.read(path)
    if data.ndim != 1:
        raise ValueError("multichannel")
    if data.dtype == np.int16:
        return rate, data.astype(np.float64) / 32768.0
    if data.dtype == np.int32:
        return rate, data.astype(np.float64) / 2147483648.0
    if data.dtype in (np.float32, np.float64):
        return rate, data.astype(np.float64)
    raise ValueError(f"unsupported WAV sample format {data.dtype}")


class TestWavMatchesScipy:
    """read_wav and write_wav against `scipy.io.wavfile`, which they replace:
    every format read gives the values and scale the scipy-based reader
    gave, and the writer gives scipy's float32 file byte for byte."""

    RNG = np.random.default_rng(40)
    INT16 = np.r_[-32768, 32767, 0, RNG.integers(-32768, 32768, 997)]
    INT24 = np.r_[-(2**23), 2**23 - 1, 0, RNG.integers(-(2**23), 2**23, 997)]
    INT32 = np.r_[-(2**31), 2**31 - 1, 0, RNG.integers(-(2**31), 2**31, 997)]
    FLOAT = RNG.uniform(-1.5, 1.5, 1000)

    @pytest.mark.parametrize("dtype", ["int16", "int32", "float32", "float64"])
    def test_scipy_written_files(self, tmp_path, dtype):
        import scipy.io.wavfile

        data = {"int16": self.INT16, "int32": self.INT32}.get(dtype, self.FLOAT)
        p = tmp_path / f"{dtype}.wav"
        scipy.io.wavfile.write(p, 22050, data.astype(dtype))
        want_rate, want = _scipy_read(p)
        got = read_wav(p)
        assert got.sample_rate == want_rate == 22050
        np.testing.assert_array_equal(got.samples, want)

    CRAFTED = {
        "pcm24": _riff(_fmt(1, 24, 3), _pcm24(INT24)),
        "pcm24-odd-length": _riff(_fmt(1, 24, 3), _pcm24(INT24[:5])),
        "extensible-pcm16": _riff(_fmt(1, 16, 2, extensible=True),
                                  INT16.astype("<i2").tobytes()),
        "extensible-pcm24": _riff(_fmt(1, 24, 3, extensible=True),
                                  _pcm24(INT24)),
        "extensible-float32": _riff(_fmt(3, 32, 4, extensible=True),
                                    FLOAT.astype("<f4").tobytes()),
        "odd-list-before-data": _riff(
            _fmt(1, 16, 2), INT16.astype("<i2").tobytes(),
            before_data=[(b"LIST", b"INFOx"), (b"fact", b"\0" * 4)]),
        "rf64-pcm16": _rf64(_fmt(1, 16, 2), INT16.astype("<i2").tobytes()),
    }

    @pytest.mark.parametrize("name", CRAFTED)
    def test_crafted_files(self, tmp_path, name):
        p = tmp_path / f"{name}.wav"
        p.write_bytes(self.CRAFTED[name])
        want_rate, want = _scipy_read(p)
        got = read_wav(p)
        assert got.sample_rate == want_rate == 16000
        np.testing.assert_array_equal(got.samples, want)

    REJECTED = {
        "stereo": (_riff(_fmt(3, 32, 8, channels=2),
                         FLOAT.astype("<f4").tobytes()), "multichannel"),
        "uint8": (_riff(_fmt(1, 8, 1), bytes(range(256))), "uint8"),
        "int64": (_riff(_fmt(1, 64, 8), INT32.astype("<i8").tobytes()),
                  "int64"),
        "float16": (_riff(_fmt(3, 16, 2), FLOAT.astype("<f2").tobytes()),
                    "16-bit float"),
        "alaw": (_riff(_fmt(6, 8, 1), bytes(100)), "format tag 0x0006"),
        "no-fmt": (b"RIFF" + struct.pack("<I", 12) + b"WAVEdata"
                   + struct.pack("<I", 0), "no fmt chunk"),
        "rifx-pcm16": (_riff(_fmt(1, 16, 2, end=">"),
                             INT16.astype(">i2").tobytes(), end=">"),
                       "little-endian"),
        "rifx-float64": (_riff(_fmt(3, 64, 8, end=">"),
                               FLOAT.astype(">f8").tobytes(), end=">"),
                         "little-endian"),
        "not-riff": (b"OggS" + bytes(40), "RIFF WAVE"),
    }

    @pytest.mark.parametrize("name", REJECTED)
    def test_rejected(self, tmp_path, name):
        blob, match = self.REJECTED[name]
        p = tmp_path / f"{name}.wav"
        p.write_bytes(blob)
        with pytest.raises(ValueError):
            _scipy_read(p)
        with pytest.raises(ValueError, match=match):
            read_wav(p)

    @pytest.mark.parametrize("n", [0, 1, 1001])
    def test_write_matches_scipy_float32_bytes(self, tmp_path, n):
        import scipy.io.wavfile

        x = Waveform(np.random.default_rng(n).uniform(-1.0, 1.0, n), 44100)
        ours, theirs = tmp_path / "ours.wav", tmp_path / "theirs.wav"
        write_wav(ours, x)
        scipy.io.wavfile.write(theirs, 44100, x.samples.astype(np.float32))
        assert ours.read_bytes() == theirs.read_bytes()


class TestWaveformValidation:
    def test_nan_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.array([0.0, np.nan]), 16000)

    def test_2d_rejected(self):
        with pytest.raises(ValueError):
            Waveform(np.zeros((2, 100)), 16000)

    def test_spectrogram_bin_check(self):
        with pytest.raises(ValueError, match="257 bins"):
            ComplexSpectrogram(np.zeros((100, 5), dtype=complex), CFG,
                               5 * CFG.hop)


@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n=st.integers(min_value=1, max_value=5000),
)
@settings(max_examples=25, deadline=None)
def test_roundtrip_property(seed, n):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(n)
    assert np.max(np.abs(istft(stft(x, CFG)) - x)) < 1e-10
