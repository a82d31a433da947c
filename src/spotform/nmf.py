"""Baseline common-component extraction: NMF on concatenated spectrograms.

The beamformer magnitudes, (A, I, J) like the outputs, are concatenated
along time into one I x (A*J) matrix and factorized with GKL multiplicative
updates.  A basis is kept for the target when its activation exceeds a
threshold tau in EVERY array block; a Wiener filter built from the kept
bases reconstructs the target per array.

NMF is the tensor kernel of `spotform.ntf` at A = 1 with mu = 0: the
concatenation is factorized as the (1, I, A*J) tensor, whose allocation Z
stays 1 and whose allocation update collapses to a per-component rescaling
of V.  `fit_nmf` is the tensor's seeded start followed by the tensor step
at mu = 0, repeated; at mu = 0 the step never reads the attractors.  This
module holds no update formula of its own; it converts between the matrix
and tensor views, thresholds the activations, and hands the mask to the
shared Wiener gain.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from spotform.ntf import (
    NtfModel,
    PropTensor,
    initial_model,
    masked_wiener,
)
from spotform.ntf import update_step as ntf_update_step
from spotform.signal import ComplexSpectrogram


@dataclass
class ConcatMatrix:
    """Concatenated magnitudes, (n_bins, n_arrays * n_frames), n = a*J + j."""

    values: np.ndarray
    n_arrays: int
    n_frames: int

    def __post_init__(self):
        if self.values.shape[1] != self.n_arrays * self.n_frames:
            raise ValueError("concat width must be n_arrays * n_frames")
        if np.any(self.values < 0):
            raise ValueError("concat matrix must be nonnegative")


@dataclass
class NmfModel:
    """Basis T (I x K, columns on the simplex) and activations V (N x K)."""

    T: np.ndarray
    V: np.ndarray

    @property
    def K(self) -> int:
        return self.T.shape[1]


@dataclass
class FrameMask:
    """Binary (n_frames, K) keep-mask over frames and bases."""

    values: np.ndarray


def build_concat(Y: ComplexSpectrogram) -> ConcatMatrix:
    """|Y| with array blocks laid side by side, column a*J + j (a copy)."""
    A, I, J = Y.values.shape
    C = np.abs(Y.values).transpose(1, 0, 2).reshape(I, A * J)
    return ConcatMatrix(C, n_arrays=A, n_frames=J)


def update_step(model: NmfModel, C: ConcatMatrix) -> NmfModel:
    """One composite GKL iteration: scale step, T update, V update.

    This is the tensor step on the (1, I, N) view with Z = 1 and mu = 0.
    """
    step = ntf_update_step(NtfModel(Z=np.ones((1, model.K)), T=model.T,
                                    V=model.V), PropTensor(C.values[None]), 0.0)
    return NmfModel(T=step.T, V=step.V)


def fit_nmf(C: ConcatMatrix, K: int, iterations: int = 100,
            seed: int = 0) -> NmfModel:
    """Factorize the concat matrix with `iterations` update steps."""
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    tensor = PropTensor(C.values[None])
    model = initial_model(*tensor.values.shape, K, seed)
    for it in range(iterations):
        model = ntf_update_step(model, tensor, 0.0, it)
    return NmfModel(T=model.T, V=model.V)


def check_tau(tau: float) -> None:
    """Refuse a threshold that is not a finite number >= 0."""
    if not (np.isfinite(tau) and tau >= 0):
        raise ValueError(f"tau must be finite and nonnegative, got {tau}")


def threshold_mask(model: NmfModel, n_arrays: int, n_frames: int,
                   tau: float) -> FrameMask:
    """Keep (frame, basis) cells whose activation exceeds tau in every array."""
    check_tau(tau)
    blocks = model.V.reshape(n_arrays, n_frames, model.K)
    return FrameMask(np.all(blocks > tau, axis=0).astype(np.int8))


def nmf_wiener(model: NmfModel, mask: FrameMask,
               Y: ComplexSpectrogram) -> ComplexSpectrogram:
    """Wiener reconstruction from the masked model, (A, I, J)."""
    U = model.V.reshape(Y.values.shape[0], -1, model.K)  # array a's block of V
    return masked_wiener(model.T, U, mask.values, Y)
