"""SDR metrics and seed-aggregated statistics.

Two variants are reported side by side.  `si_sdr` scores the estimate against
the best scalar multiple of the reference.  `filtered_sdr` allows a short FIR
filter instead of a scalar, so fixed delays and mild linear filtering of the
reference (e.g. by a beamformer) do not count as distortion.  Perfect and
hopeless matches are capped at +/-300 dB so every score stays finite in CSVs.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from spotform.signal import Waveform, next_fast_len

SENTINEL_DB = 300.0
RIDGE_FACTOR = 1e-10
EPS_NORM = 1e-300


@dataclass
class AggregateStats:
    """Mean and unbiased standard deviation over seeds for one configuration."""

    mean_db: float
    std_db: float
    n: int


def _common_part(estimate: Waveform, reference: Waveform
                 ) -> tuple[np.ndarray, np.ndarray]:
    if estimate.sample_rate != reference.sample_rate:
        raise ValueError(
            f"estimate rate {estimate.sample_rate} != reference rate "
            f"{reference.sample_rate}"
        )
    n = min(len(estimate), len(reference))
    e, s = estimate.samples[:n], reference.samples[:n]
    if not np.any(s):
        raise ValueError("silent reference")
    return e, s


def _ratio_db(target_energy: float, noise_energy: float) -> float:
    if target_energy == 0.0:
        return -SENTINEL_DB
    if noise_energy == 0.0:
        return SENTINEL_DB
    sdr = 10.0 * np.log10(target_energy / noise_energy)
    return float(np.clip(sdr, -SENTINEL_DB, SENTINEL_DB))


def si_sdr(estimate: Waveform, reference: Waveform) -> float:
    """Scale-invariant SDR in dB: estimate vs its projection onto the reference."""
    e, s = _common_part(estimate, reference)
    alpha = float(np.dot(e, s) / np.dot(s, s))
    target = alpha * s
    return _ratio_db(float(np.sum(target**2)), float(np.sum((e - target) ** 2)))


@dataclass(frozen=True)
class PreparedReference:
    """A reference with what every `filtered_sdr` against it reuses.

    `spectrum` is the real FFT of the reference at `fft_size`, the next fast
    length of at least n + filter_taps - 1, so every correlation and
    convolution below is linear (no wrap-around).  `auto` holds the
    autocorrelation lags 0..filter_taps-1.  Made by `prepare_reference`.
    """

    waveform: Waveform
    filter_taps: int
    fft_size: int
    spectrum: np.ndarray
    auto: np.ndarray


def prepare_reference(reference: Waveform, filter_taps: int
                      ) -> PreparedReference:
    """Spectrum and autocorrelation of `reference`, for scoring many estimates."""
    # scipy.linalg is imported here although only the solve uses it: a sweep
    # prepares its references before the pool forks, so the workers inherit
    # it instead of importing it each.  Lazy, as `spotform` needs no scipy.
    import scipy.linalg  # noqa: F401

    if filter_taps < 1:
        raise ValueError("filter_taps must be >= 1")
    s = reference.samples
    if not np.any(s):
        raise ValueError("silent reference")
    n = s.shape[0]
    size = next_fast_len(n + filter_taps - 1)
    spectrum = np.fft.rfft(s, size)
    # copied, so that it does not keep the whole inverse FFT alive
    auto = np.fft.irfft(np.abs(spectrum) ** 2, size)[:filter_taps].copy()
    auto[n:] = 0.0  # lags past the signal are zero, not rounding noise
    spectrum.flags.writeable = auto.flags.writeable = False
    return PreparedReference(reference, filter_taps, size, spectrum, auto)


def filtered_sdr(estimate: Waveform,
                 reference: Waveform | PreparedReference,
                 filter_taps: int = 512) -> float:
    """SDR in dB after fitting a least-squares FIR from reference to estimate.

    The normal equations use the full-signal correlations, so the system
    matrix is symmetric Toeplitz and Levinson recursion applies.  It is the
    Gram matrix of the zero-padded reference's shifts, so it is positive
    definite for any nonzero reference, one shorter than the filter too.
    Only a reference whose spectrum falls to rounding level over part of the
    band (e.g. a short, very smooth pulse scored with 512 taps) makes it
    singular to working precision.  When Levinson then fails, or leaves a
    residual above 1e-8 of the cross-correlation, a small ridge is added and
    a warning emitted.

    `reference` may be a `PreparedReference` made with the same
    `filter_taps` (a different count raises `ValueError`); a `Waveform` is
    prepared here.  Each call then costs four FFTs of the prepared size: the
    estimate's spectrum, the filter_taps cross-correlation lags, the
    filter's spectrum, and the projection.  An estimate shorter than the
    prepared reference is scored on the common part, prepared anew.
    """
    if isinstance(reference, PreparedReference):
        if reference.filter_taps != filter_taps:
            raise ValueError(
                f"reference prepared for {reference.filter_taps} filter_taps, "
                f"scored with {filter_taps}"
            )
        prepared, reference = reference, reference.waveform
    else:
        prepared = None
    e, s = _common_part(estimate, reference)
    n = s.shape[0]
    if prepared is None or n < len(reference):
        prepared = prepare_reference(Waveform(s, reference.sample_rate),
                                     filter_taps)
    size, spectrum = prepared.fft_size, prepared.spectrum
    cross = np.fft.irfft(np.fft.rfft(e, size) * np.conj(spectrum),
                         size)[:filter_taps]
    cross[n:] = 0.0

    g = _solve_normal_equations(prepared.auto, cross)
    if filter_taps > 1:
        proj = np.fft.irfft(spectrum * np.fft.rfft(g, size), size)[:n]
    else:
        proj = g[0] * s
    return _ratio_db(float(np.sum(proj**2)), float(np.sum((e - proj) ** 2)))


def _toeplitz_product(auto: np.ndarray, g: np.ndarray) -> np.ndarray:
    """The symmetric Toeplitz matrix with first column `auto`, times `g`.

    Row i is sum_j auto[|i - j|] g[j]: the valid part of the convolution of
    g with auto mirrored about lag 0.
    """
    return np.convolve(np.concatenate((auto[:0:-1], auto)), g, mode="valid")


def _try_levinson(auto: np.ndarray, cross: np.ndarray) -> np.ndarray | None:
    import scipy.linalg  # lazy: see prepare_reference

    try:
        with np.errstate(all="ignore"):
            g = scipy.linalg.solve_toeplitz(auto, cross)
    except (ValueError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(g)):
        return None
    residual = _toeplitz_product(auto, g) - cross
    scale = max(float(np.linalg.norm(cross)), EPS_NORM)
    if float(np.linalg.norm(residual)) > 1e-8 * scale:
        return None
    return g


def _solve_normal_equations(auto: np.ndarray, cross: np.ndarray) -> np.ndarray:
    import scipy.linalg  # lazy: see prepare_reference

    g = _try_levinson(auto, cross)
    if g is not None:
        return g
    warnings.warn("ill-conditioned normal equations; adding ridge")
    ridged = auto.copy()
    ridged[0] += RIDGE_FACTOR * auto.shape[0] * auto[0]
    g = _try_levinson(ridged, cross)
    if g is not None:
        return g
    # Levinson can break even on the ridged system; fall back to dense LS
    g, *_ = scipy.linalg.lstsq(scipy.linalg.toeplitz(ridged), cross)
    return g


def aggregate(groups: dict[tuple, list[float]]) -> dict[tuple, AggregateStats]:
    """Summarize each group of scores (e.g. one configuration's seeds)."""
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        out[key] = AggregateStats(float(np.mean(arr)), std, arr.size)
    return out
