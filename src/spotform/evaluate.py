"""SDR metrics and seed-aggregated statistics.

Two variants are reported side by side.  `si_sdr` scores the estimate against
the best scalar multiple of the reference.  `filtered_sdr` allows a short FIR
filter instead of a scalar, so fixed delays and mild linear filtering of the
reference (e.g. by a beamformer) do not count as distortion.  Perfect and
hopeless matches are capped at +/-300 dB so every score stays finite in CSVs.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable
from dataclasses import dataclass
from functools import cached_property

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
    `predictor` is the Levinson-Durbin predictor of `auto`, built by the
    first solve against this reference and kept for the rest; `ridged` is
    the ridged system with its predictor, built by the first solve that
    needs the ridge and kept likewise.
    """

    waveform: Waveform
    filter_taps: int
    fft_size: int
    spectrum: np.ndarray
    auto: np.ndarray

    @cached_property
    def predictor(self) -> tuple[np.ndarray, float]:
        return _levinson_durbin(self.auto)

    @cached_property
    def ridged(self) -> tuple[np.ndarray, tuple[np.ndarray, float]]:
        return _ridged_system(self.auto)


def prepare_reference(reference: Waveform, filter_taps: int
                      ) -> PreparedReference:
    """Spectrum and autocorrelation of `reference`, for scoring many estimates."""
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
    matrix is symmetric Toeplitz.  It is the Gram matrix of the zero-padded
    reference's shifts, so it is positive definite for any nonzero
    reference, one shorter than the filter too.  Its inverse factors
    through the reference's order filter_taps-1 Levinson-Durbin predictor
    (Gohberg-Semencul), so each solve is four convolutions of filter_taps
    samples.  Only a reference whose spectrum falls to rounding level over
    part of the band (e.g. a short, very smooth pulse scored with 512 taps)
    makes the matrix singular to working precision.  When the recursion
    then breaks down, or the solve leaves a residual above 1e-8 of the
    cross-correlation, a small ridge is added and a warning emitted.

    `reference` may be a `PreparedReference` made with the same
    `filter_taps` (a different count raises `ValueError`); a `Waveform` is
    prepared here.  Each call then costs four FFTs of the prepared size: the
    estimate's spectrum, the filter_taps cross-correlation lags, the
    filter's spectrum, and the projection.  An estimate shorter than the
    prepared reference is scored on the common part, prepared anew.  Memory
    stays O(filter_taps) beside the FFTs: no filter_taps^2 matrix is made
    unless both the recursion and the ridge fail.
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

    g = _solve_normal_equations(prepared.auto, cross, prepared.predictor,
                                lambda: prepared.ridged)
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


def _levinson_durbin(auto: np.ndarray) -> tuple[np.ndarray, float]:
    """The forward predictor of the symmetric Toeplitz system `auto`.

    Returns (a, e) with a[0] = 1 and T a = (e, 0, ..., 0), T the matrix with
    first column `auto`: a/e is the first column of T's inverse.  When the
    recursion breaks down, i.e. a prediction error is not a finite number
    > 0, as it is for a matrix that is not positive definite, it stops
    there and returns that error.
    """
    n = auto.shape[0]
    a = np.zeros(n)
    a[0] = 1.0
    e = float(auto[0])
    for k in range(1, n):
        if not 0.0 < e < math.inf:
            break
        kappa = -float(np.dot(a[:k], auto[k:0:-1])) / e
        a[1:k] += kappa * a[k - 1:0:-1]
        a[k] = kappa
        e *= 1.0 - kappa * kappa
    a.flags.writeable = False
    return a, e


def _try_solve(auto: np.ndarray, cross: np.ndarray,
               predictor: tuple[np.ndarray, float]) -> np.ndarray | None:
    """Solve T g = cross from T's Levinson-Durbin predictor (a, e), or None
    when the recursion broke down or the residual exceeds 1e-8 of `cross`.

    T^-1 = (A A^T - B B^T) / e, A and B lower-triangular Toeplitz with
    first columns a and (0, a[n-1], ..., a[1]) (Gohberg & Semencul, 1972),
    so the solve is four length-n convolutions and never forms a matrix.
    """
    a, e = predictor
    if not 0.0 < e < math.inf:
        return None
    n = a.shape[0]
    b = np.concatenate(([0.0], a[:0:-1]))
    with np.errstate(all="ignore"):
        g = (np.convolve(a, np.correlate(cross, a, "full")[n - 1:])[:n]
             - np.convolve(b, np.correlate(cross, b, "full")[n - 1:])[:n]) / e
    if not np.all(np.isfinite(g)):
        return None
    residual = _toeplitz_product(auto, g) - cross
    scale = max(float(np.linalg.norm(cross)), EPS_NORM)
    if float(np.linalg.norm(residual)) > 1e-8 * scale:
        return None
    return g


def _ridged_system(auto: np.ndarray
                   ) -> tuple[np.ndarray, tuple[np.ndarray, float]]:
    """`auto` with a small ridge on lag 0, and its Levinson-Durbin predictor."""
    ridged = auto.copy()
    ridged[0] += RIDGE_FACTOR * auto.shape[0] * auto[0]
    ridged.flags.writeable = False
    return ridged, _levinson_durbin(ridged)


def _solve_normal_equations(
        auto: np.ndarray, cross: np.ndarray,
        predictor: tuple[np.ndarray, float] | None = None,
        ridged: Callable[[], tuple[np.ndarray, tuple[np.ndarray, float]]]
        | None = None) -> np.ndarray:
    """g with T g = cross, T the symmetric Toeplitz matrix with first column
    `auto`; `predictor` is `_levinson_durbin(auto)`, built here if None, and
    `ridged` returns `_ridged_system(auto)`, called only when the ridge is
    needed and built here if None."""
    if predictor is None:
        predictor = _levinson_durbin(auto)
    g = _try_solve(auto, cross, predictor)
    if g is not None:
        return g
    warnings.warn("ill-conditioned normal equations; adding ridge")
    ridged, ridged_predictor = (ridged() if ridged is not None
                                else _ridged_system(auto))
    g = _try_solve(ridged, cross, ridged_predictor)
    if g is not None:
        return g
    # the recursion can break even on the ridged system; fall back to dense LS
    lags = np.arange(auto.shape[0])
    g, *_ = np.linalg.lstsq(ridged[np.abs(lags[:, None] - lags)], cross,
                            rcond=None)
    return g


def aggregate(groups: dict[tuple, list[float]]) -> dict[tuple, AggregateStats]:
    """Summarize each group of scores (e.g. one configuration's seeds)."""
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        out[key] = AggregateStats(float(np.mean(arr)), std, arr.size)
    return out
