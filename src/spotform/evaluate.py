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
import scipy.linalg

from spotform.signal import Waveform

SENTINEL_DB = 300.0
RIDGE_FACTOR = 1e-10
EPS_NORM = 1e-300

VARIANTS = ("si-sdr", "filtered-sdr")


@dataclass
class SdrReport:
    """One scored trial: which method, its hyperparameters, seed, and score."""

    method: str
    variant: str
    k: int
    tau_or_mu: float
    seed: int
    sdr_db: float

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"variant must be one of {VARIANTS}")


@dataclass
class AggregateStats:
    """Mean and unbiased standard deviation over seeds for one configuration."""

    mean_db: float
    std_db: float
    n: int


def _as_samples(x) -> np.ndarray:
    if isinstance(x, Waveform):
        return x.samples
    return np.asarray(x, dtype=np.float64)


def _common_part(estimate, reference) -> tuple[np.ndarray, np.ndarray]:
    e = _as_samples(estimate)
    s = _as_samples(reference)
    n = min(e.shape[0], s.shape[0])
    e, s = e[:n], s[:n]
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


def si_sdr(estimate, reference) -> float:
    """Scale-invariant SDR in dB: estimate vs its projection onto the reference."""
    e, s = _common_part(estimate, reference)
    alpha = float(np.dot(e, s) / np.dot(s, s))
    target = alpha * s
    return _ratio_db(float(np.sum(target**2)), float(np.sum((e - target) ** 2)))


def filtered_sdr(estimate, reference, filter_taps: int = 512) -> float:
    """SDR in dB after fitting a least-squares FIR from reference to estimate.

    The normal equations use the full-signal correlations, so the system
    matrix is symmetric Toeplitz and Levinson recursion applies.  Degenerate
    references (near-periodic, or shorter than the filter) make it singular;
    a small ridge is then added and a warning emitted.
    """
    if filter_taps < 1:
        raise ValueError("filter_taps must be >= 1")
    import scipy.signal  # lazy: about 1 s to import, unused by `spotform`

    e, s = _common_part(estimate, reference)
    n = s.shape[0]
    auto = scipy.signal.correlate(s, s, mode="full")[n - 1: n - 1 + filter_taps]
    cross = scipy.signal.correlate(e, s, mode="full")[n - 1: n - 1 + filter_taps]
    auto = np.pad(auto, (0, filter_taps - auto.shape[0]))
    cross = np.pad(cross, (0, filter_taps - cross.shape[0]))

    g = _solve_normal_equations(auto, cross)
    proj = scipy.signal.fftconvolve(s, g)[:n] if filter_taps > 1 else g[0] * s
    return _ratio_db(float(np.sum(proj**2)), float(np.sum((e - proj) ** 2)))


def _try_levinson(auto: np.ndarray, cross: np.ndarray) -> np.ndarray | None:
    try:
        with np.errstate(all="ignore"):
            g = scipy.linalg.solve_toeplitz(auto, cross)
    except (ValueError, np.linalg.LinAlgError):
        return None
    if not np.all(np.isfinite(g)):
        return None
    residual = scipy.linalg.matmul_toeplitz(auto, g) - cross
    scale = max(float(np.linalg.norm(cross)), EPS_NORM)
    if float(np.linalg.norm(residual)) > 1e-8 * scale:
        return None
    return g


def _solve_normal_equations(auto: np.ndarray, cross: np.ndarray) -> np.ndarray:
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


def aggregate(reports: list[SdrReport]) -> dict[tuple, AggregateStats]:
    """Group scores by (method, variant, K, tau-or-mu) and summarize each group."""
    if not reports:
        raise ValueError("no reports to aggregate")
    groups: dict[tuple, list[float]] = {}
    for r in reports:
        groups.setdefault((r.method, r.variant, r.k, r.tau_or_mu), []).append(
            r.sdr_db
        )
    out = {}
    for key, vals in groups.items():
        arr = np.asarray(vals)
        std = float(np.std(arr, ddof=1)) if arr.size > 1 else 0.0
        out[key] = AggregateStats(float(np.mean(arr)), std, arr.size)
    return out
