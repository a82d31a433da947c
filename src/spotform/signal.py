"""Waveforms, STFT analysis/synthesis, energy normalization, and WAV I/O.

Waveforms are mono float64.  `stft` takes samples (..., n), a batch along
the leading axes, and returns a `ComplexSpectrogram` that records n;
`istft` takes only that spectrogram and returns samples (..., n).  Both use
a periodic Hann window at 50% overlap, which is constant-overlap-add,
one-sided spectra, and `window_length - hop` zeros prepended so that frame 0
is centered near sample 0: ``ceil(n / hop)`` frames.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

EPS = 1e-12
# output samples `resample` computes at once
_RESAMPLE_BLOCK = 4096


@dataclass(frozen=True)
class StftConfig:
    """Analysis parameters: Hann window, 32 ms frames, 16 ms hop by default."""

    window_length_ms: float = 32.0
    hop_ms: float = 16.0
    sample_rate: int = 16000
    window: str = "hann"

    def __post_init__(self):
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.window != "hann":
            raise ValueError(f"unsupported window: {self.window!r}")
        if not (math.isfinite(self.window_length_ms)
                and math.isfinite(self.hop_ms)):
            raise ValueError("window_length_ms and hop_ms must be finite")
        win = self.window_length_ms * self.sample_rate / 1000.0
        hop = self.hop_ms * self.sample_rate / 1000.0
        if abs(win - round(win)) > 1e-9 or abs(hop - round(hop)) > 1e-9:
            raise ValueError("window and hop must be whole numbers of samples")
        win, hop = int(round(win)), int(round(hop))
        if win <= 0 or hop <= 0 or win % hop != 0:
            raise ValueError("hop must divide the window length")

    @property
    def window_length(self) -> int:
        return int(round(self.window_length_ms * self.sample_rate / 1000.0))

    @property
    def hop(self) -> int:
        return int(round(self.hop_ms * self.sample_rate / 1000.0))

    @property
    def n_bins(self) -> int:
        return self.window_length // 2 + 1


@dataclass
class Waveform:
    """A mono time-domain signal with its sample rate."""

    samples: np.ndarray
    sample_rate: int

    def __post_init__(self):
        self.samples = np.asarray(self.samples, dtype=np.float64)
        if self.samples.ndim != 1:
            raise ValueError("samples must be one-dimensional (mono)")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("samples must be finite")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    def __len__(self) -> int:
        return self.samples.shape[0]

    @property
    def energy(self) -> float:
        return float(np.sum(self.samples**2))


@dataclass
class ComplexSpectrogram:
    """One-sided STFT of signals `n_samples` long: C-contiguous complex
    (..., n_bins, n_frames), a signal per leading index."""

    values: np.ndarray
    config: StftConfig
    n_samples: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)
        want = (self.config.n_bins, frame_count(self.n_samples, self.config))
        if self.n_samples < 1 or self.values.shape[-2:] != want:
            raise ValueError(f"{self.n_samples} samples need (..., {want[0]} "
                             f"bins, {want[1]} frames), got {self.values.shape}")

    @property
    def n_frames(self) -> int:
        return self.values.shape[-1]


def _hann_periodic(n: int) -> np.ndarray:
    # periodic (DFT-even) Hann; exact COLA at 50% overlap
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def next_fast_len(n: int) -> int:
    """Smallest 2^a 3^b 5^c >= n, as `scipy.fft.next_fast_len(n, real=True)`.

    The size every linear FFT convolution and correlation in the package
    runs at, so that each is the arithmetic scipy's would be.
    """
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # the smallest p35 * 2^a >= n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    """Number of STFT frames produced for a signal of `n_samples` samples."""
    return int(math.ceil(n_samples / cfg.hop))


def stft(x: np.ndarray, cfg: StftConfig) -> ComplexSpectrogram:
    """One-sided STFT of samples (..., n) at the config's rate: values
    (..., n_bins, n_frames) from one transform."""
    n = x.shape[-1]
    if n == 0:
        raise ValueError("empty signal")
    win_len, hop = cfg.window_length, cfg.hop
    n_frames = frame_count(n, cfg)
    pad_head = win_len - hop
    padded = np.zeros((*x.shape[:-1], (n_frames - 1) * hop + win_len))
    padded[..., pad_head : pad_head + n] = x
    frames = (sliding_window_view(padded, win_len, axis=-1)[..., ::hop, :]
              * _hann_periodic(win_len))
    del padded  # freed before the spectra: a batch's buffers are large
    values = np.empty((*x.shape[:-1], cfg.n_bins, n_frames), dtype=np.complex128)
    np.fft.rfft(frames, axis=-1, out=np.swapaxes(values, -1, -2))
    return ComplexSpectrogram(values, cfg, n)


def istft(S: ComplexSpectrogram) -> np.ndarray:
    """Weighted overlap-add synthesis: samples (..., S.n_samples)."""
    win_len, hop = S.config.window_length, S.config.hop
    lead, n_frames, offsets = S.values.shape[:-2], S.n_frames, win_len // hop
    # hop divides the window, so frame j's chunk r lands on hop block j + r;
    # adding offsets last-to-first gives each block its windowed frames in
    # the order of a frame-by-frame overlap-add, bit for bit
    chunks = np.fft.irfft(np.swapaxes(S.values, -1, -2), n=win_len,
                          axis=-1).reshape(*lead, n_frames, offsets, hop)
    window = _hann_periodic(win_len).reshape(offsets, hop)
    out = np.zeros((*lead, n_frames + offsets - 1, hop))
    norm = np.zeros(out.shape[-2:])  # one for every signal
    for r in reversed(range(offsets)):
        out[..., r : r + n_frames, :] += chunks[..., r, :] * window[r]
        norm[r : r + n_frames] += window[r] ** 2
    out /= np.maximum(norm, EPS)
    # the frames cover n_frames * hop >= n_samples samples past the head
    pad_head = win_len - hop
    return out.reshape(*lead, -1)[..., pad_head : pad_head + S.n_samples]


def normalize_energy(src: Waveform) -> Waveform:
    """`src` rescaled to unit l2 energy, as a new waveform; a silent one
    raises `ValueError("silent source")`."""
    energy = src.energy
    if energy <= 0.0:
        raise ValueError("silent source")
    return Waveform(src.samples / math.sqrt(energy), src.sample_rate)


def resample(x: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling (Crochiere & Rabiner, 1983).

    The low-pass is a Kaiser (beta 8) windowed sinc at the lower Nyquist
    rate with unit DC gain, times `up`: the taps `scipy.signal.firwin` gives,
    about 64 per phase.  The group delay is removed and ceil(n * up / down)
    samples are kept, computed `_RESAMPLE_BLOCK` at a time.
    """
    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == x.sample_rate:
        return Waveform(x.samples.copy(), x.sample_rate)
    g = math.gcd(x.sample_rate, target_rate)
    up, down = target_rate // g, x.sample_rate // g
    # group delay rounded up to a whole number of output samples
    half = int(math.ceil(32 * up / down)) * down
    taps = (np.sinc(np.arange(-half, half + 1) / max(up, down))
            * np.kaiser(2 * half + 1, 8.0))
    taps *= up / taps.sum()
    # phases[p, j] = taps[p + j * up] weighs input sample t // up - j at
    # upsampled time t = p (mod up)
    per_phase = -(-taps.size // up)
    phases = np.pad(taps, (0, per_phase * up - taps.size)).reshape(-1, up).T
    n, n_out = len(x), int(math.ceil(len(x) * up / down))
    y = np.empty(n_out)
    for start in range(0, n_out, _RESAMPLE_BLOCK):
        t = (half // down + np.arange(start, min(start + _RESAMPLE_BLOCK,
                                                 n_out))) * down
        k = t[:, None] // up - np.arange(per_phase)
        w = phases[t % up]
        w[(k < 0) | (k >= n)] = 0.0  # the signal is zero outside 0..n-1
        y[start : start + t.size] = np.einsum(
            "ij,ij->i", w, x.samples.take(k, mode="clip"))
    return Waveform(y, target_rate)


_WAVE_FORMAT_PCM = 0x0001
_WAVE_FORMAT_IEEE_FLOAT = 0x0003
_WAVE_FORMAT_EXTENSIBLE = 0xFFFE
# bytes 4..15 of every KSDATAFORMAT_SUBTYPE GUID; bytes 0..3 hold the plain
# format tag (RFC 2361)
_GUID_TAIL = b"\x00\x00\x10\x00\x80\x00\x00\xaa\x00\x38\x9b\x71"


def _read_fmt(body: bytes, path) -> tuple[int, int, int, int, int]:
    """(format tag, channels, rate, block align, bits) of a fmt chunk."""
    if len(body) < 16:
        raise ValueError(f"malformed fmt chunk in {path}")
    tag, channels, rate, byte_rate, align, bits = struct.unpack(
        "<HHIIHH", body[:16])
    if tag == _WAVE_FORMAT_EXTENSIBLE:
        if len(body) < 18 or struct.unpack("<H", body[16:18])[0] < 22:
            raise ValueError(f"malformed fmt chunk in {path}")
        guid = body[24:40]
        if guid[4:] == _GUID_TAIL:
            tag = struct.unpack("<I", guid[:4])[0]
    if tag == _WAVE_FORMAT_PCM and byte_rate != rate * align:
        raise ValueError(f"WAV header is invalid: byte rate {byte_rate} != "
                         f"rate {rate} x block align {align} in {path}")
    return tag, channels, rate, align, bits


def _sample_dtype(tag: int, align: int, bits: int, path) -> str:
    """numpy dtype of one mono sample; '<i3' names 24-bit PCM."""
    if tag == _WAVE_FORMAT_PCM:
        if bits <= 8:
            raise ValueError(f"unsupported WAV sample format uint8 in {path}")
        if align in (2, 3, 4):
            return f"<i{align}"
        raise ValueError(
            f"unsupported WAV sample format int{8 * align} in {path}")
    if tag == _WAVE_FORMAT_IEEE_FLOAT:
        if bits in (32, 64) and align in (4, 8):
            return f"<f{align}"
        raise ValueError(
            f"unsupported WAV sample format {bits}-bit float in {path}")
    raise ValueError(f"unsupported WAV format tag 0x{tag:04x} in {path}")


def read_wav(path) -> Waveform:
    """Read a mono WAV: 16, 24 or 32-bit PCM, or 32 or 64-bit float.

    PCM is scaled to [-1, 1) by its full scale (2^15, 2^23 or 2^31).  RIFF
    and RF64 files are read; chunks other than fmt and data are skipped.
    Multichannel files, big-endian (RIFX) files and other sample formats
    (8 or 64-bit PCM, compressed formats) raise `ValueError`.  A truncated
    file yields the whole samples it holds.
    """
    with open(path, "rb") as f:
        magic, _, form = struct.unpack("<4sI4s", f.read(12).ljust(12, b"\0"))
        if magic not in (b"RIFF", b"RF64") or form != b"WAVE":
            raise ValueError(f"not a little-endian RIFF WAVE file: {path}")
        fmt = rf64_size = None
        while True:
            header = f.read(8)
            if len(header) < 8:
                raise ValueError(f"no data chunk in {path}")
            chunk, size = struct.unpack("<4sI", header)
            if chunk == b"data":
                break
            if chunk == b"fmt ":
                fmt = _read_fmt(f.read(size), path)
            elif chunk == b"ds64" and magic == b"RF64":
                ds64 = f.read(size)
                if len(ds64) < 16:
                    raise ValueError(f"malformed ds64 chunk in {path}")
                rf64_size = struct.unpack("<Q", ds64[8:16])[0]
            else:
                f.seek(size, 1)
            f.seek(size & 1, 1)  # chunks are padded to an even size
        if fmt is None:
            raise ValueError(f"no fmt chunk before the data in {path}")
        tag, channels, rate, align, bits = fmt
        if channels != 1:
            raise ValueError(f"multichannel WAV rejected: {path}")
        dtype = _sample_dtype(tag, align, bits, path)
        if rf64_size is not None and size == 0xFFFFFFFF:
            size = rf64_size
        if dtype == "<i3":
            # left-justified into int32, so it scales like 32-bit PCM
            raw = np.fromfile(f, np.uint8, count=size // 3 * 3)
            n = raw.size // 3  # a truncated file may end inside a sample
            wide = np.zeros((n, 4), dtype=np.uint8)
            wide[:, 1:] = raw[: 3 * n].reshape(n, 3)
            data = wide.view("<i4")[:, 0]
        else:
            data = np.fromfile(f, dtype, count=size // align)
    samples = data.astype(np.float64, copy=False)
    if data.dtype.kind == "i":
        samples /= float(2 ** (8 * data.dtype.itemsize - 1))
    return Waveform(samples, int(rate))


def write_wav(path, x: Waveform) -> None:
    """Write a mono WAV as 32-bit float: fmt (18 bytes), fact, data."""
    data = x.samples.astype("<f4")
    rate = x.sample_rate
    header = (
        struct.pack("<4sI4s", b"RIFF", 50 + data.nbytes, b"WAVE")
        # format tag, channels, rate, byte rate, block align, bits, cbSize
        + struct.pack("<4sIHHIIHHH", b"fmt ", 18, _WAVE_FORMAT_IEEE_FLOAT, 1,
                      rate, 4 * rate, 4, 32, 0)
        + struct.pack("<4sII", b"fact", 4, data.size)
        + struct.pack("<4sI", b"data", data.nbytes)
    )
    with open(path, "wb") as f:
        f.write(header)
        f.write(data)
