"""Deterministic speech-like test signals.

Harmonic complexes with vibrato, a formant-shaped spectral envelope, and
slow syllabic amplitude modulation.  They are not speech, but they occupy
the spectrum the way voiced speech does: distinct fundamentals interleave
their harmonics, so sources stay separable by a time-frequency mask while
still overlapping in time.  Used by the experiment scripts and tests in
place of recorded WAVs.
"""

from __future__ import annotations

from itertools import accumulate
from pathlib import Path

import numpy as np

from spotform.signal import Waveform, normalize_energy, write_wav

DEFAULT_F0S = (140.0, 95.0, 210.0, 180.0, 120.0)
N_HARMONICS = 44


def _breath_filter(noise: np.ndarray) -> np.ndarray:
    """One-pole lowpass y[n] = x[n] + 0.95 y[n-1], from rest.

    The recurrence is the arithmetic `scipy.signal.lfilter([1.0], [1.0,
    -0.95], x)` does, so its samples match lfilter's bit for bit.
    """
    return np.array(list(accumulate(noise.tolist(),
                                    lambda y, x: x + 0.95 * y)))


def harmonic_voice(
    duration_s: float,
    sample_rate: int,
    seed: int,
    f0: float = 140.0,
) -> Waveform:
    """One voice-like source, round(duration_s * sample_rate) samples of unit
    energy: 10 ms fades and a ~30 ms silent tail, shorter on short voices.

    The formants move slowly, so the short-time spectrum keeps changing and
    a low-rank factorization genuinely needs many bases to track it.
    """
    rng = np.random.default_rng(seed)
    n = int(round(duration_s * sample_rate))
    t = np.arange(n) / sample_rate

    # pitch track with vibrato plus a slow random drift
    vibrato = 1.0 + 0.02 * np.sin(2 * np.pi * rng.uniform(4.0, 6.0) * t
                                  + rng.uniform(0, 2 * np.pi))
    drift = 1.0 + 0.05 * np.sin(2 * np.pi * rng.uniform(0.2, 0.5) * t
                                + rng.uniform(0, 2 * np.pi))
    phase = 2 * np.pi * np.cumsum(f0 * vibrato * drift) / sample_rate

    centers = rng.uniform(300.0, 3000.0, size=3)
    sweeps = rng.uniform(100.0, 400.0, size=3)
    rates = rng.uniform(0.5, 2.0, size=3)
    offsets = rng.uniform(0, 2 * np.pi, size=3)
    bandwidth = rng.uniform(150.0, 400.0, size=3)
    x = np.zeros(n)
    for h in range(1, N_HARMONICS + 1):
        freq = h * f0
        if freq >= 0.45 * sample_rate:
            break
        gain = np.full(n, 1.0 / h)
        for fc, dev, rate, off, bw in zip(centers, sweeps, rates, offsets,
                                          bandwidth):
            fc_t = fc + dev * np.sin(2 * np.pi * rate * t + off)
            gain *= 1.0 + 2.0 * np.exp(-((freq - fc_t) ** 2) / (2.0 * bw**2))
        x += gain * np.sin(h * phase + rng.uniform(0, 2 * np.pi))

    # breathy noise floor, lowpassed and carried by the same envelope
    breath = _breath_filter(rng.standard_normal(n))
    x += 0.15 * np.sqrt(np.mean(x**2) / np.mean(breath**2)) * breath

    # syllabic modulation: 3-5 Hz raised cosine, never fully gated
    rate = rng.uniform(3.0, 5.0)
    env = 0.3 + 0.7 * 0.5 * (1 - np.cos(2 * np.pi * rate * t
                                        + rng.uniform(0, 2 * np.pi)))
    x *= env

    # fade in/out and a short silent tail so delays stay absorbable
    edge = min(int(0.01 * sample_rate), n // 4)
    ramp = np.linspace(0.0, 1.0, edge)
    x[:edge] *= ramp
    x[n - edge:] *= ramp[::-1]
    tail = min(int(0.03 * sample_rate), n // 8)
    x[n - tail:] = 0.0
    return normalize_energy(Waveform(x, sample_rate))


def check_voice_args(n_sources: int, duration_s: float, sample_rate: int,
                     seed: int) -> None:
    """Refuse the arguments `default_voices` cannot make voices from, such
    as a duration that rounds to no sample at `sample_rate`."""
    if n_sources < 1:
        raise ValueError("need at least one source")
    if not (np.isfinite(duration_s) and duration_s > 0):
        raise ValueError(f"duration must be a finite number of seconds > 0, "
                         f"got {duration_s}")
    if duration_s * sample_rate <= 0.5:  # `round` gives 0 samples
        raise ValueError(f"duration {duration_s} s rounds to no sample "
                         f"at {sample_rate} Hz")
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def default_voices(
    n_sources: int, duration_s: float, sample_rate: int, seed: int = 0
) -> list[Waveform]:
    """Distinct-pitch voices; index 0 is meant as the target."""
    check_voice_args(n_sources, duration_s, sample_rate, seed)
    return [
        harmonic_voice(duration_s, sample_rate, seed + 17 * i,
                       f0=DEFAULT_F0S[i % len(DEFAULT_F0S)])
        for i in range(n_sources)
    ]


def write_demo_sources(
    directory, n_sources: int, duration_s: float, sample_rate: int,
    seed: int = 0,
) -> list[Path]:
    """Render the default voices to WAV files, target first.

    The voices are made before the directory, so bad arguments create none.
    """
    voices = default_voices(n_sources, duration_s, sample_rate, seed)
    d = Path(directory)
    d.mkdir(parents=True, exist_ok=True)
    paths = []
    for i, wav in enumerate(voices):
        name = "target.wav" if i == 0 else f"interferer{i}.wav"
        write_wav(d / name, wav)
        paths.append(d / name)
    return paths
