"""Attractor-regularized NTF over the (array, frequency, frame) tensor.

Each basis k gets an allocation column z_k on the simplex describing how its
energy splits across arrays.  Fixed attractor vectors define the source
classes: the uniform vector 1/A marks the common (target) class, and each
one-hot vector marks interference local to one array.  A GKL pull of z_k
toward its nearest attractor is added to the factorization cost; bases whose
nearest attractor is the uniform one are kept as the target.

All updates are multiplicative majorization-minimization steps, so for fixed
regularization weight the cost never increases.

The kernel works on |Y| in Y's (A, I, J) layout, viewed as the (A*I, J)
unfolding, row a*I + i.  With the Khatri-Rao product W = Z (.) T, shape
(A*I, K), row a*I + i holding Z[a] * T[i], the model is the GEMM W @ V^T.
Each factor update forms the model once, divides the data by it, then
contracts that ratio R against the other two factors: R @ V reshaped to
(A, I, K) and reduced against T (for Z) or Z (for T), and R^T @ W (for V).
A step is six GEMMs of A*I*J*K multiply-adds each, plus elementwise passes
over the A*I*J data, and forms every model and ratio in one buffer.

A fit is `initial_model`, the seeded start, followed by one `update_step` per
iteration at that iteration's weight; a caller can stop after any step and
go on from the model it holds.  The NMF baseline is this step at A = 1 with
mu = 0 (see `spotform.nmf`).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from spotform.gkl import EPS, gkl_divergence, gkl_elementwise
from spotform.signal import ComplexSpectrogram


@dataclass
class PropTensor:
    """Nonnegative magnitudes indexed (array, bin, frame)."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError("tensor must have axes (array, bin, frame)")
        if np.any(self.values < 0):
            raise ValueError("tensor must be nonnegative")

    @property
    def n_arrays(self) -> int:
        return self.values.shape[0]


@dataclass
class NtfModel:
    """Allocation Z (A x K), basis T (I x K), activations V (J x K).

    Z and T columns live on the probability simplex; scale lives in V.
    """

    Z: np.ndarray
    T: np.ndarray
    V: np.ndarray
    seed: int

    @property
    def K(self) -> int:
        return self.Z.shape[1]

    def compose(self) -> np.ndarray:
        """The rank-K approximation sum_k z (x) t (x) v, shape (A, I, J)."""
        A, I, J = self.Z.shape[0], self.T.shape[0], self.V.shape[0]
        return (_khatri_rao(self.Z, self.T) @ self.V.T).reshape(A, I, J)


def _khatri_rao(Z: np.ndarray, T: np.ndarray) -> np.ndarray:
    """Column-wise Kronecker product Z (.) T: row a*I + i is Z[a] * T[i]."""
    return (Z[:, None, :] * T[None, :, :]).reshape(-1, Z.shape[1])


@dataclass
class AttractorSet:
    """Columns of P: p_0 = uniform (target class), p_b = one-hot array b-1."""

    P: np.ndarray  # (A, B) with B = A + 1


@dataclass
class Assignment:
    """Nearest attractor index per basis, and the derived target picks."""

    b: np.ndarray  # (K,) ints in [0, B)
    h: np.ndarray  # (K,) binary, 1 iff b == 0


@dataclass(frozen=True)
class RegularizationSchedule:
    """Regularization weight with a mu = 0 warmup phase."""

    mu: float
    warmup_iterations: int = 50
    total_iterations: int = 100

    def __post_init__(self):
        if not (np.isfinite(self.mu) and self.mu >= 0):
            raise ValueError(f"mu must be finite and nonnegative, got {self.mu}")
        if self.total_iterations < 1:
            raise ValueError("iterations must be >= 1")
        if not 0 <= self.warmup_iterations <= self.total_iterations:
            raise ValueError("warmup must lie within the total iteration count")

    def weight_at(self, iteration: int) -> float:
        return 0.0 if iteration < self.warmup_iterations else self.mu


def build_prop_tensor(Y: ComplexSpectrogram) -> PropTensor:
    """|Y|, in Y's (array, bin, frame) layout."""
    return PropTensor(np.abs(Y.values))


def build_attractors(n_arrays: int) -> AttractorSet:
    if n_arrays < 1:
        raise ValueError("need at least one array")
    P = np.concatenate(
        [np.full((n_arrays, 1), 1.0 / n_arrays), np.eye(n_arrays)], axis=1
    )
    return AttractorSet(P)


def _attractor_dist(Z: np.ndarray, attractors: AttractorSet) -> np.ndarray:
    """dist[b, k] = sum_a d(p_{a,b} | z_{a,k}); +inf where z = 0 under p > 0."""
    return gkl_elementwise(
        attractors.P.T[:, :, None], Z[None, :, :]
    ).sum(axis=1)


def assign_attractors(Z: np.ndarray, attractors: AttractorSet) -> Assignment:
    """Nearest attractor per column of Z under GKL; ties go to the target."""
    b = np.argmin(_attractor_dist(Z, attractors), axis=0).astype(np.int64)
    return Assignment(b=b, h=(b == 0).astype(np.int64))


def evaluate_cost(
    model: NtfModel, C: PropTensor, attractors: AttractorSet, mu: float
) -> float:
    """Data divergence plus mu times the summed distance of each column of Z
    to its nearest attractor."""
    cost = gkl_divergence(C.values, model.compose())
    if mu > 0:
        cost += mu * float(np.sum(np.min(_attractor_dist(model.Z, attractors),
                                         axis=0)))
    return cost


def _check_finite(model: NtfModel, iteration: int | None) -> None:
    for M in (model.Z, model.T, model.V):
        if not np.all(np.isfinite(M)):
            where = "" if iteration is None else f" at iteration {iteration}"
            raise FloatingPointError(f"numerical divergence{where}")


def _ratio(c: np.ndarray, W: np.ndarray, V: np.ndarray,
           work: np.ndarray) -> np.ndarray:
    """c / max(W @ V^T, EPS), formed in `work`."""
    np.matmul(W, V.T, out=work)
    np.maximum(work, EPS, out=work)
    return np.divide(c, work, out=work)


def initial_model(A: int, I: int, J: int, K: int, seed: int) -> NtfModel:
    """The seeded start of a rank-K fit to (A, I, J) data.

    One `default_rng(seed)` draws T, then V, uniform on [0, 1); T's columns
    are normalized and Z is uniform.  Warns when K exceeds min(A*I, J).
    """
    if K < 1:
        raise ValueError("K must be >= 1")
    if K > min(A * I, J):
        warnings.warn(f"K={K} exceeds min(A*I, J)={min(A * I, J)}; proceeding")
    rng = np.random.default_rng(seed)
    T = rng.uniform(0.0, 1.0, size=(I, K))
    V = rng.uniform(0.0, 1.0, size=(J, K))
    T /= T.sum(axis=0, keepdims=True)
    return NtfModel(Z=np.full((A, K), 1.0 / A), T=T, V=V, seed=seed)


def update_step(
    model: NtfModel,
    C: PropTensor,
    attractors: AttractorSet,
    mu: float,
    iteration: int | None = None,
) -> NtfModel:
    """One composite iteration: assign, update Z, update T, update V.

    The attractor assignment must happen before the Z update; Z and T are
    renormalized to the simplex afterwards with the scale folded into V,
    which leaves the composed tensor (and hence the cost) unchanged.  At
    mu = 0 the attractor pull adds nothing, so the assignment is skipped.
    Every ratio is formed in one (A*I, J) buffer allocated per call.
    """
    A, I, J = C.values.shape
    c = C.values.reshape(A * I, J)
    work = np.empty(c.shape)
    Z, T, V = model.Z, model.T, model.V
    K = Z.shape[1]

    RV = (_ratio(c, _khatri_rao(Z, T), V, work) @ V).reshape(A, I, K)
    num = Z * np.einsum("aik,ik->ak", RV, T)
    if mu:
        num += mu * attractors.P[:, assign_attractors(Z, attractors).b]
    den = T.sum(axis=0) * V.sum(axis=0) + mu
    Z = num / np.maximum(den, EPS)[None, :]
    scale = np.maximum(Z.sum(axis=0), EPS)
    Z = Z / scale[None, :]
    V = V * scale[None, :]

    RV = (_ratio(c, _khatri_rao(Z, T), V, work) @ V).reshape(A, I, K)
    T = T * np.einsum("aik,ak->ik", RV, Z)
    T = T / np.maximum(Z.sum(axis=0) * V.sum(axis=0), EPS)[None, :]
    scale = np.maximum(T.sum(axis=0), EPS)
    T = T / scale[None, :]
    V = V * scale[None, :]

    W = _khatri_rao(Z, T)
    V = V * (_ratio(c, W, V, work).T @ W)
    V = V / np.maximum(Z.sum(axis=0) * T.sum(axis=0), EPS)[None, :]

    out = NtfModel(Z=Z, T=T, V=V, seed=model.seed)
    _check_finite(out, iteration)
    return out


def fit_ntf(
    C: PropTensor, K: int, schedule: RegularizationSchedule, seed: int = 0
) -> tuple[NtfModel, Assignment]:
    """Run the full schedule; returns the model and its final assignment."""
    model = initial_model(*C.values.shape, K, seed)
    attractors = build_attractors(C.n_arrays)
    for it in range(schedule.total_iterations):
        model = update_step(model, C, attractors, schedule.weight_at(it), it)
    return model, assign_attractors(model.Z, attractors)


def masked_wiener(
    T: np.ndarray, U: np.ndarray, keep: np.ndarray, Y: ComplexSpectrogram
) -> ComplexSpectrogram:
    """Wiener reconstruction from the kept share of each basis, (A, I, J).

    U (A, J, K) holds each array's activations: Z[a] * V for the tensor
    model, array a's block of V for the concatenated one.  `keep`, broadcast
    to (A, J, K), weighs every (array, frame, basis).  Array a's gain is
    T^2 @ ((keep * U)[a]^2)^T over T^2 @ (U[a]^2)^T, one GEMM pair for all
    arrays at once, whose (I, A, J) result is read in Y's layout as a view.
    """
    A, I, J = Y.values.shape
    K = T.shape[1]
    keep = np.broadcast_to(np.asarray(keep, dtype=np.float64), U.shape)
    if np.all(keep == 1.0):
        return replace(Y, values=Y.values.copy())
    if not np.any(keep):
        warnings.warn("no basis kept for the target class; output is zero")
    T2 = T**2
    num = T2 @ ((keep * U) ** 2).reshape(A * J, K).T  # (I, A*J)
    den = T2 @ (U**2).reshape(A * J, K).T
    gain = (num / np.maximum(den, EPS)).reshape(I, A, J)
    return replace(Y, values=Y.values * gain.transpose(1, 0, 2))


def ntf_wiener(
    model: NtfModel, assignment: Assignment, Y: ComplexSpectrogram
) -> ComplexSpectrogram:
    """Wiener reconstruction keeping the target-class bases, (A, I, J)."""
    U = model.Z[:, None, :] * model.V[None, :, :]  # (A, J, K)
    return masked_wiener(model.T, U, assignment.h, Y)
