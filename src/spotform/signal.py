"""Waveforms, STFT analysis/synthesis, energy normalization, and WAV I/O.

All audio is mono float64 internally.  The STFT uses a periodic Hann window
with 50% overlap (constant-overlap-add), one-sided spectra, and a fixed
padding convention: `window_length - hop` zeros are prepended so that frame 0
is centered near sample 0, giving exactly ``ceil(n_samples / hop)`` frames.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

EPS = 1e-12


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
    """One-sided STFT of one signal: complex (n_bins, n_frames) matrix."""

    values: np.ndarray
    config: StftConfig

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        if self.values.ndim != 2:
            raise ValueError("spectrogram values must be a 2-D matrix")
        if self.values.shape[0] != self.config.n_bins:
            raise ValueError(
                f"expected {self.config.n_bins} bins, got {self.values.shape[0]}"
            )

    @property
    def n_frames(self) -> int:
        return self.values.shape[1]


def _hann_periodic(n: int) -> np.ndarray:
    # periodic (DFT-even) Hann; exact COLA at 50% overlap
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def frame_count(n_samples: int, cfg: StftConfig) -> int:
    """Number of STFT frames produced for a signal of `n_samples` samples."""
    return int(math.ceil(n_samples / cfg.hop))


def stft(x: Waveform, cfg: StftConfig) -> ComplexSpectrogram:
    """One-sided STFT with head zero-padding of (window - hop) samples.

    Every input sample is covered by at least one frame; the frame count is
    ``ceil(len(x) / hop)``.
    """
    if len(x) == 0:
        raise ValueError("empty signal")
    if x.sample_rate != cfg.sample_rate:
        raise ValueError(
            f"waveform rate {x.sample_rate} != config rate {cfg.sample_rate}"
        )
    win_len, hop = cfg.window_length, cfg.hop
    n_frames = frame_count(len(x), cfg)
    pad_head = win_len - hop
    total = (n_frames - 1) * hop + win_len
    padded = np.zeros(total, dtype=np.float64)
    padded[pad_head : pad_head + len(x)] = x.samples
    idx = np.arange(win_len)[None, :] + hop * np.arange(n_frames)[:, None]
    frames = padded[idx] * _hann_periodic(win_len)[None, :]
    return ComplexSpectrogram(np.fft.rfft(frames, axis=1).T, cfg)


def istft(S: ComplexSpectrogram, cfg: StftConfig, length: int) -> Waveform:
    """Weighted overlap-add synthesis, truncated or zero-padded to `length`."""
    if S.config != cfg:
        raise ValueError("spectrogram was produced with a different STFT config")
    if length < 0:
        raise ValueError("length must be nonnegative")
    win_len, hop = cfg.window_length, cfg.hop
    window = _hann_periodic(win_len)
    frames = np.fft.irfft(S.values.T, n=win_len, axis=1) * window[None, :]
    n_frames, offsets = S.n_frames, win_len // hop
    # hop divides the window, so frame j's chunk r lands on hop block j + r;
    # adding offsets last-to-first gives each block its frames in the order
    # of a frame-by-frame overlap-add, bit for bit
    chunks = frames.reshape(n_frames, offsets, hop)
    wsq = (window**2).reshape(offsets, hop)
    out = np.zeros((n_frames + offsets - 1, hop), dtype=np.float64)
    norm = np.zeros_like(out)
    for r in reversed(range(offsets)):
        out[r : r + n_frames] += chunks[:, r]
        norm[r : r + n_frames] += wsq[r]
    out = out.reshape(-1) / np.maximum(norm.reshape(-1), EPS)
    pad_head = win_len - hop
    y = out[pad_head : pad_head + length]
    if len(y) < length:
        y = np.pad(y, (0, length - len(y)))
    return Waveform(y, cfg.sample_rate)


def normalize_energy(sources: list[Waveform]) -> list[Waveform]:
    """Rescale each waveform to unit l2 energy."""
    out = []
    for src in sources:
        energy = src.energy
        if energy <= 0.0:
            raise ValueError("silent source")
        out.append(Waveform(src.samples / math.sqrt(energy), src.sample_rate))
    return out


def resample(x: Waveform, target_rate: int) -> Waveform:
    """Polyphase windowed-sinc resampling (~64 taps per phase, Kaiser beta=8)."""
    import scipy.signal  # lazy: about 1 s to import, unused by `spotform`

    if target_rate <= 0:
        raise ValueError("target_rate must be positive")
    if target_rate == x.sample_rate:
        return Waveform(x.samples.copy(), x.sample_rate)
    g = math.gcd(x.sample_rate, target_rate)
    up, down = target_rate // g, x.sample_rate // g
    # group delay rounded up to a whole number of output samples
    half = int(math.ceil(32 * up / down)) * down
    cutoff = 1.0 / max(up, down)
    taps = scipy.signal.firwin(2 * half + 1, cutoff, window=("kaiser", 8.0)) * up
    y = scipy.signal.upfirdn(taps, x.samples, up, down)
    offset = half // down
    n_out = int(math.ceil(len(x) * up / down))
    y = y[offset : offset + n_out]
    if len(y) < n_out:
        y = np.pad(y, (0, n_out - len(y)))
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
    (8 or 64-bit PCM, compressed formats) raise `ValueError`.
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
            wide = np.zeros((raw.size // 3, 4), dtype=np.uint8)
            wide[:, 1:] = raw.reshape(-1, 3)
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
