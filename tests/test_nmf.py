"""Tests for the concatenated-spectrogram NMF baseline.

The update-step check re-evaluates the multiplicative formulas with explicit
Python loops, element by element.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spotform.gkl import EPS, gkl_divergence
from spotform.nmf import (
    ConcatMatrix,
    FrameMask,
    NmfModel,
    build_concat,
    fit_nmf,
    nmf_wiener,
    threshold_mask,
    update_step,
)
from spotform.signal import ComplexSpectrogram, StftConfig


def random_bf_output(rng, I=6, J=5, A=2):
    vals = rng.standard_normal((I, J, A)) + 1j * rng.standard_normal((I, J, A))
    # drawn (I, J, A), so each seeded test keeps the numbers it was written for
    vals = vals.transpose(2, 0, 1)
    cfg = StftConfig(window_length_ms=(I - 1) * 2 / 16, hop_ms=(I - 1) / 16)
    return ComplexSpectrogram(vals, cfg, J * cfg.hop)


def brute_force_step(T, V, c):
    """The composite iteration written as plain loops."""
    T, V = T.copy(), V.copy()
    I, K = T.shape
    N = V.shape[0]

    def chat(i, n):
        return max(sum(T[i, k] * V[n, k] for k in range(K)), EPS)

    scales = []
    for k in range(K):
        num = sum(
            c[i, n] * T[i, k] * V[n, k] / chat(i, n)
            for i in range(I)
            for n in range(N)
        )
        den = max(sum(T[:, k]) * sum(V[:, k]), EPS)
        scales.append(num / den)
    for k in range(K):
        V[:, k] *= scales[k]
    T_new = T.copy()
    for i in range(I):
        for k in range(K):
            num = sum(c[i, n] * V[n, k] / chat(i, n) for n in range(N))
            T_new[i, k] = T[i, k] * num / max(sum(V[:, k]), EPS)
    T = T_new
    for k in range(K):
        s = max(sum(T[:, k]), EPS)
        T[:, k] /= s
        V[:, k] *= s
    V_new = V.copy()
    for n in range(N):
        for k in range(K):
            num = sum(c[i, n] * T[i, k] / chat(i, n) for i in range(I))
            V_new[n, k] = V[n, k] * num / max(sum(T[:, k]), EPS)
    return T, V_new


class TestBuildConcat:
    def test_index_arithmetic(self):
        rng = np.random.default_rng(0)
        Y = random_bf_output(rng, I=6, J=3, A=2)
        C = build_concat(Y)
        mags = np.abs(Y.values)
        assert C.values.shape == (6, 6)
        for i in range(6):
            assert C.values[i, 4] == mags[1, i, 1]

    def test_all_zero(self):
        Y = random_bf_output(np.random.default_rng(1))
        Y.values[:] = 0
        assert np.all(build_concat(Y).values == 0)

    def test_frobenius_matches_entrywise_abs(self):
        rng = np.random.default_rng(2)
        Y = random_bf_output(rng)
        C = build_concat(Y)
        assert abs(np.linalg.norm(C.values) - np.linalg.norm(np.abs(Y.values))) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="nonnegative"):
            ConcatMatrix(-np.ones((2, 4)), 2, 2)


class TestFitNmf:
    def test_rank_one_exact_fit(self):
        rng = np.random.default_rng(3)
        t = rng.uniform(0.1, 1, 8)
        v = rng.uniform(0.1, 1, 10)
        C = ConcatMatrix(np.outer(t, v), 2, 5)
        model = fit_nmf(C, K=1, iterations=200, seed=0)
        gkl = gkl_divergence(C.values, model.T @ model.V.T)
        assert gkl < 1e-8 * C.values.sum()

    def test_cost_nonincreasing(self):
        rng = np.random.default_rng(4)
        C = ConcatMatrix(rng.uniform(0, 1, (12, 20)), 2, 10)
        T = rng.uniform(0, 1, (12, 3))
        model = NmfModel(T / T.sum(axis=0), rng.uniform(0, 1, (20, 3)))
        cost = []
        for _ in range(100):
            model = update_step(model, C)
            cost.append(gkl_divergence(C.values, model.T @ model.V.T))
        diffs = np.diff(cost)
        assert np.all(diffs <= 1e-9 * np.abs(cost[:-1]))

    def test_one_step_matches_brute_force(self):
        rng = np.random.default_rng(5)
        c = rng.uniform(0.1, 2, (3, 4))
        T = rng.uniform(0.1, 1, (3, 2))
        T /= T.sum(0)
        V = rng.uniform(0.1, 1, (4, 2))
        stepped = update_step(NmfModel(T.copy(), V.copy()), ConcatMatrix(c, 1, 4))
        T_ref, V_ref = brute_force_step(T, V, c)
        assert_allclose(stepped.T, T_ref, atol=1e-12)
        assert_allclose(stepped.V, V_ref, atol=1e-12)

    def test_simplex_preserved(self):
        rng = np.random.default_rng(6)
        C = ConcatMatrix(rng.uniform(0, 1, (7, 8)), 2, 4)
        model = fit_nmf(C, K=4, iterations=25, seed=2)
        assert_allclose(model.T.sum(axis=0), 1.0, atol=1e-12)
        assert np.all(model.T >= 0) and np.all(model.V >= 0)

    def test_deterministic(self):
        rng = np.random.default_rng(7)
        C = ConcatMatrix(rng.uniform(0, 1, (5, 6)), 1, 6)
        a = fit_nmf(C, K=2, iterations=10, seed=9)
        b = fit_nmf(C, K=2, iterations=10, seed=9)
        assert np.array_equal(a.T, b.T) and np.array_equal(a.V, b.V)

    def test_large_k_warns(self):
        C = ConcatMatrix(np.ones((3, 4)), 1, 4)
        with pytest.warns(UserWarning, match="exceeds"):
            fit_nmf(C, K=10, iterations=2, seed=0)

    def test_bad_k_rejected(self):
        with pytest.raises(ValueError):
            fit_nmf(ConcatMatrix(np.ones((3, 4)), 1, 4), K=0)


class TestThresholdMask:
    def _model(self, V):
        K = V.shape[1]
        T = np.full((2, K), 0.5)
        return NmfModel(T, V)

    def test_tau_zero_all_positive(self):
        rng = np.random.default_rng(8)
        model = self._model(rng.uniform(0.1, 1, (6, 2)))
        assert np.all(threshold_mask(model, 2, 3, 0.0).values == 1)

    def test_tau_at_max_all_zero(self):
        rng = np.random.default_rng(9)
        V = rng.uniform(0.1, 1, (6, 2))
        model = self._model(V)
        assert np.all(threshold_mask(model, 2, 3, V.max()).values == 0)

    def test_requires_every_array(self):
        # activations 0.5 (array 0) and 0.3 (array 1) at tau 0.4: rejected
        V = np.array([[0.5], [0.3]])
        mask = threshold_mask(self._model(V), 2, 1, 0.4)
        assert mask.values[0, 0] == 0

    def test_negative_tau_rejected(self):
        for tau in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError):
                threshold_mask(self._model(np.ones((2, 1))), 2, 1, tau)

    @given(
        tau1=st.floats(0.0, 1.0),
        tau2=st.floats(0.0, 1.0),
        seed=st.integers(0, 1000),
    )
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_tau(self, tau1, tau2, seed):
        if tau1 > tau2:
            tau1, tau2 = tau2, tau1
        rng = np.random.default_rng(seed)
        model = self._model(rng.uniform(0, 1, (8, 3)))
        lo = threshold_mask(model, 2, 4, tau1).values
        hi = threshold_mask(model, 2, 4, tau2).values
        assert np.all(lo >= hi)


class TestNmfWiener:
    def test_all_ones_mask_is_identity(self):
        rng = np.random.default_rng(10)
        Y = random_bf_output(rng, I=6, J=4, A=2)
        model = NmfModel(rng.uniform(0.1, 1, (6, 2)),
                         rng.uniform(0.1, 1, (8, 2)))
        out = nmf_wiener(model, FrameMask(np.ones((4, 2), dtype=np.int8)), Y)
        for a in range(2):
            assert np.array_equal(out.values[a], Y.values[a])

    def test_all_zero_mask_silences(self):
        rng = np.random.default_rng(11)
        Y = random_bf_output(rng, I=6, J=4, A=2)
        model = NmfModel(rng.uniform(0.1, 1, (6, 2)),
                         rng.uniform(0.1, 1, (8, 2)))
        with pytest.warns(UserWarning, match="no basis kept"):
            out = nmf_wiener(model, FrameMask(np.zeros((4, 2), dtype=np.int8)),
                             Y)
        for a in range(2):
            assert np.all(out.values[a] == 0)

    def test_hand_evaluated_gain(self):
        # K = 2, single frame, identical rows: gain computable by hand
        Y = random_bf_output(np.random.default_rng(12), I=3, J=1, A=1)
        Y.values[:] = 2.0 + 0j
        T = np.tile([[0.4, 0.6]], (3, 1)) / 3.0
        V = np.array([[0.5, 0.25]])
        mask = FrameMask(np.array([[1, 0]], dtype=np.int8))
        out = nmf_wiener(NmfModel(T, V), mask, Y)
        num = (0.4 / 3 * 1 * 0.5) ** 2
        den = (0.4 / 3 * 0.5) ** 2 + (0.6 / 3 * 0.25) ** 2
        assert abs(out.values[0, 0, 0] - (num / den) * 2.0) < 1e-12

    def test_gains_bounded(self):
        rng = np.random.default_rng(13)
        Y = random_bf_output(rng, I=8, J=6, A=2)
        C = build_concat(Y)
        model = fit_nmf(C, K=3, iterations=30, seed=3)
        mask = threshold_mask(model, 2, 6, float(np.median(model.V)))
        out = nmf_wiener(model, mask, Y)
        for a in range(2):
            nz = np.abs(Y.values[a]) > 0
            gains = np.abs(out.values[a][nz]) / np.abs(Y.values[a][nz])
            assert np.all(gains <= 1.0 + 1e-12)
