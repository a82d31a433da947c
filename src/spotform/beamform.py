"""Oracle MVDR beamforming per array and delay-and-sum fusion.

Steering vectors and noise covariances are computed from the true impulse
responses (oracle values), not estimated from data.  The steering vector is
the target's relative transfer function with the reference-mic entry fixed to
1, so a distortionless beamformer reproduces the target image at mic 0.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from spotform.roomsim import ObservationTensor, RirSet, Scene
from spotform.signal import StftConfig, Waveform, next_fast_len, stft

DIAGONAL_LOADING = 1e-3
_COND_LIMIT = 1e12


@dataclass
class SteeringSet:
    """Target relative transfer functions, (n_arrays, n_bins, n_mics)."""

    values: np.ndarray
    config: StftConfig


@dataclass
class NoiseCovarianceSet:
    """Loaded interference covariances, (n_arrays, n_bins, n_mics, n_mics).

    `loading` records the diagonal load actually added per (array, bin).
    """

    values: np.ndarray
    loading: np.ndarray


@dataclass
class BfOutputTensor:
    """Beamformer outputs, C-contiguous complex (n_arrays, n_bins, n_frames)."""

    values: np.ndarray
    config: StftConfig
    n_samples: int

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=np.complex128)

    @property
    def n_arrays(self) -> int:
        return self.values.shape[0]


def oracle_quantities(
    rirs: RirSet, scene: Scene, cfg: StftConfig
) -> tuple[SteeringSet, NoiseCovarianceSet]:
    """Steering vectors and loaded noise covariances from the true RIRs."""
    if cfg.sample_rate != rirs.sample_rate:
        raise ValueError("STFT config rate does not match the RIRs")
    A, M, S, n_taps = rirs.taps.shape
    nfft = cfg.window_length
    I = cfg.n_bins
    # time-alias to nfft so the DFT samples the true DTFT at bin frequencies
    taps = np.pad(rirs.taps, ((0, 0),) * 3 + ((0, (-n_taps) % nfft),))
    H = np.fft.rfft(taps.reshape(A, M, S, -1, nfft).sum(axis=3))
    tgt = scene.target_index
    d = np.transpose(H[:, :, tgt, :], (0, 2, 1)).copy()  # (A, I, M)
    ref = d[:, :, 0]
    tiny = np.abs(ref) < 1e-12 * np.abs(d).max(axis=2)
    scale = np.where(tiny, np.linalg.norm(d, axis=2), ref)
    d /= scale[:, :, None]
    R = np.zeros((A, I, M, M), dtype=np.complex128)
    for s in range(S):
        if s == tgt:
            continue
        g = np.transpose(H[:, :, s, :], (0, 2, 1))  # (A, I, M)
        R += g[:, :, :, None] * g[:, :, None, :].conj()
    tr = np.real(np.trace(R, axis1=2, axis2=3))
    load = np.where(tr > 0, DIAGONAL_LOADING * tr / M, DIAGONAL_LOADING)
    R += load[:, :, None, None] * np.eye(M)[None, None]
    return SteeringSet(d, cfg), NoiseCovarianceSet(R, load)


def mvdr_weights(d: SteeringSet, R: NoiseCovarianceSet) -> np.ndarray:
    """Per-(array, bin) MVDR weights w = R^-1 d / (d^H R^-1 d)."""
    if np.max(np.linalg.cond(R.values)) > _COND_LIMIT:
        raise ValueError("ill-conditioned covariance")
    sol = np.linalg.solve(R.values, d.values[..., None])[..., 0]
    denom = np.real(np.sum(d.values.conj() * sol, axis=-1))
    return sol / denom[..., None]


def mvdr(X: ObservationTensor, d: SteeringSet,
         R: NoiseCovarianceSet) -> BfOutputTensor:
    """Beamform every array's mixture mics down to one spectrogram per array."""
    w = mvdr_weights(d, R)
    A, M, L = X.mixture.shape
    cfg = d.config
    if w.shape[0] != A or w.shape[2] != M or X.sample_rate != cfg.sample_rate:
        raise ValueError("weights or STFT rate do not match the observations")
    S = stft(X.mixture, cfg).values  # (A, M, I, J)
    Y = np.zeros((A, cfg.n_bins, S.shape[-1]), dtype=np.complex128)
    for m in range(M):  # in mic order: a reordered sum rounds differently
        Y += w[:, :, m].conj()[:, :, None] * S[:, m]
    return BfOutputTensor(Y, cfg, L)


def _xcorr_full(x: np.ndarray, ref: np.ndarray) -> np.ndarray:
    """Full cross-correlation of equal-length real signals, lags -(n-1)..n-1.

    The FFT convolution of x with ref reversed, at the FFT size
    `scipy.signal.correlate(x, ref, mode="full")` uses when it picks its FFT
    method.
    """
    m = 2 * len(x) - 1
    size = next_fast_len(m)
    spec = np.fft.rfft(x, size) * np.fft.rfft(ref[::-1], size)
    return np.fft.irfft(spec, size)[:m]


def delay_and_sum(estimates: list[Waveform]) -> Waveform:
    """Align estimates by cross-correlation, then average.

    The first estimate that is not all zero is the anchor.  All-zero
    estimates cannot be aligned; they stay in the average as zeros and a
    warning is emitted for each.
    """
    if not estimates:
        raise ValueError("delay_and_sum needs at least one estimate")
    rate = estimates[0].sample_rate
    if any(e.sample_rate != rate for e in estimates):
        raise ValueError("estimates must share one sample rate")
    n = max(len(e) for e in estimates)
    padded = [np.pad(e.samples, (0, n - len(e))) for e in estimates]
    silent = [not np.any(x) for x in padded]
    anchor = next((i for i, s in enumerate(silent) if not s), 0)
    ref = padded[anchor]
    acc = ref.copy()
    for i, x in enumerate(padded):
        if silent[i]:
            warnings.warn("all-zero estimate contributes nothing to the fusion")
        if i == anchor or silent[i]:
            continue
        lag = int(np.argmax(_xcorr_full(x, ref))) - (n - 1)
        shifted = np.zeros(n)
        if lag >= 0:
            shifted[: n - lag] = x[lag:]
        else:
            shifted[-lag:] = x[: n + lag]
        acc += shifted
    return Waveform(acc / len(estimates), rate)
