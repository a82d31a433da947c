"""Tests for oracle MVDR beamforming and delay-and-sum fusion.

Weight checks use a Sherman-Morrison closed form for rank-1-plus-loading
covariances; steering checks use direct DTFT sums over the RIR taps.
"""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from numpy.testing import assert_allclose

from spotform.beamform import (
    DIAGONAL_LOADING,
    NoiseCovarianceSet,
    SteeringSet,
    delay_and_sum,
    mvdr,
    mvdr_weights,
    oracle_quantities,
)
from spotform.roomsim import (
    MicArray,
    Scene,
    SourcePlacement,
    default_scene,
    render_observations,
    simulate_rirs,
)
from spotform.signal import (
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    next_fast_len,
    stft,
)

CFG = StftConfig()
FS = 16000
C = 343.0


def direct_dtft(h, n_bins, nfft):
    """Transfer function by explicit sums: H(w_i) = sum_n h[n] e^{-j w_i n}."""
    n = np.arange(len(h))
    out = np.empty(n_bins, dtype=complex)
    for i in range(n_bins):
        out[i] = np.sum(h * np.exp(-2j * np.pi * i * n / nfft))
    return out


def off_axis_scene(t60=0.0):
    """Single array; interferer well off the target bearing."""
    return Scene(
        room=(6.0, 6.0),
        arrays=(MicArray(center=(1.0, 3.0), look=0.0),),
        sources=(
            SourcePlacement(position=(4.0, 3.0), kind="target"),
            SourcePlacement(position=(2.0, 4.8)),
        ),
        t60=t60,
    )


class TestSteering:
    def test_pure_delay_rir_gives_unit_magnitude_and_linear_phase(self):
        # integer-sample distances: steering must follow the delay theorem
        k_ref, k_other = 100, 112
        sc = Scene(
            room=(12.0, 12.0),
            arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
            sources=(SourcePlacement((1.0 + 100 * C / FS, 1.0), "target"),),
            t60=0.0,
        )
        rs = simulate_rirs(sc)
        # fake a second mic by stacking a shifted copy of the same RIR
        taps = np.zeros((1, 2, 1, rs.n_taps))
        taps[0, 0, 0] = rs.taps[0, 0, 0]
        taps[0, 1, 0, k_other] = rs.taps[0, 0, 0, k_ref]
        rs.taps = taps
        d, _ = oracle_quantities(rs, sc, CFG)
        assert_allclose(np.abs(d.values[0, :, 1]), 1.0, atol=1e-10)
        i = np.arange(CFG.n_bins)
        expected = np.exp(-2j * np.pi * i * (k_other - k_ref) / CFG.window_length)
        assert_allclose(d.values[0, :, 1], expected, atol=1e-10)

    def test_reference_entry_is_one(self):
        sc = default_scene(2, t60=0.0)
        d, _ = oracle_quantities(simulate_rirs(sc), sc, CFG)
        assert_allclose(d.values[:, :, 0], 1.0, atol=1e-12)

    def test_matches_direct_dtft(self):
        # folding the RIR modulo nfft must sample the true DTFT exactly
        sc = off_axis_scene(t60=0.2)
        rs = simulate_rirs(sc)
        d, _ = oracle_quantities(rs, sc, CFG)
        H0 = direct_dtft(rs.taps[0, 0, 0], CFG.n_bins, CFG.window_length)
        H2 = direct_dtft(rs.taps[0, 2, 0], CFG.n_bins, CFG.window_length)
        assert_allclose(d.values[0, :, 2], H2 / H0, atol=1e-8)

    def test_matches_folding_each_rir_on_its_own(self):
        # all RIRs are folded in one batch; each must come out bit for bit
        # as if folded alone
        sc = default_scene(3, t60=0.3)
        rs = simulate_rirs(sc)
        nfft = CFG.window_length

        def folded_rfft(h):
            h = np.pad(h, (0, (-len(h)) % nfft))
            return np.fft.rfft(h.reshape(-1, nfft).sum(axis=0))

        d, _ = oracle_quantities(rs, sc, CFG)
        for a in range(sc.n_arrays):
            taps = rs.taps[a, :, sc.target_index]
            H = np.stack([folded_rfft(h) for h in taps], axis=1)
            np.testing.assert_array_equal(d.values[a], H / H[:, :1])


class TestCovariance:
    def test_zero_interferers_scaled_identity(self):
        sc = Scene(
            room=(6.0, 6.0),
            arrays=(MicArray(center=(1.0, 3.0), look=0.0),),
            sources=(SourcePlacement(position=(4.0, 3.0), kind="target"),),
            t60=0.0,
        )
        _, R = oracle_quantities(simulate_rirs(sc), sc, CFG)
        expected = DIAGONAL_LOADING * np.eye(3)
        for i in range(CFG.n_bins):
            assert_allclose(R.values[0, i], expected, atol=1e-15)

    def test_hermitian_and_loaded_eigenfloor(self):
        sc = default_scene(2, t60=0.0)
        _, R = oracle_quantities(simulate_rirs(sc), sc, CFG)
        herm_err = np.abs(R.values - np.conj(np.swapaxes(R.values, -1, -2)))
        assert herm_err.max() < 1e-12
        eigs = np.linalg.eigvalsh(R.values)
        floor = R.loading[..., None] * (1.0 - 1e-9)
        assert np.all(eigs >= floor - 1e-18)

    def test_single_interferer_rank_one_before_loading(self):
        sc = off_axis_scene()
        _, R = oracle_quantities(simulate_rirs(sc), sc, CFG)
        bare = R.values - R.loading[..., None, None] * np.eye(3)
        eigs = np.linalg.eigvalsh(bare)[..., ::-1]  # descending
        ratio = eigs[..., 1] / np.maximum(eigs[..., 0], 1e-300)
        assert np.max(np.abs(ratio)) < 1e-10


class TestMvdrWeights:
    def test_sherman_morrison_closed_form(self):
        """Rank-1 + loading: w from the explicit inverse matches the solver."""
        sc = off_axis_scene()
        rs = simulate_rirs(sc)
        d, R = oracle_quantities(rs, sc, CFG)
        w = mvdr_weights(d, R)
        nfft, M = CFG.window_length, 3
        for i in [3, 57, 200]:
            dv = np.array(
                [direct_dtft(rs.taps[0, m, 0], CFG.n_bins, nfft)[i] for m in range(M)]
            )
            dv = dv / dv[0]
            g = np.array(
                [direct_dtft(rs.taps[0, m, 1], CFG.n_bins, nfft)[i] for m in range(M)]
            )
            lam = DIAGONAL_LOADING * np.real(np.vdot(g, g)) / M
            Rinv = (np.eye(M) - np.outer(g, g.conj()) / (lam + np.vdot(g, g))) / lam
            w_ref = Rinv @ dv / np.real(dv.conj() @ Rinv @ dv)
            assert_allclose(w[0, i], w_ref, atol=1e-8)

    def test_distortionless_everywhere(self):
        sc = default_scene(3, t60=0.3)
        d, R = oracle_quantities(simulate_rirs(sc), sc, CFG)
        w = mvdr_weights(d, R)
        resp = np.sum(w.conj() * d.values, axis=-1)
        assert np.max(np.abs(resp - 1.0)) < 1e-6

    def test_identity_covariance_matched_filter(self):
        rng = np.random.default_rng(0)
        dv = rng.standard_normal((1, 5, 3)) + 1j * rng.standard_normal((1, 5, 3))
        d = SteeringSet(dv, CFG)
        R = NoiseCovarianceSet(
            np.broadcast_to(np.eye(3), (1, 5, 3, 3)).astype(complex).copy(),
            np.ones((1, 5)),
        )
        w = mvdr_weights(d, R)
        expected = dv / np.sum(np.abs(dv) ** 2, axis=-1, keepdims=True)
        assert_allclose(w, expected, atol=1e-12)

    def test_singular_covariance_rejected(self):
        g = np.array([1.0, 1.0, 1.0], dtype=complex)
        R = NoiseCovarianceSet(
            np.outer(g, g.conj())[None, None], np.zeros((1, 1))
        )
        d = SteeringSet(np.array([[[1.0, 0.5, 0.25]]], dtype=complex), CFG)
        with pytest.raises(ValueError, match="ill-conditioned covariance"):
            mvdr_weights(d, R)

    def test_algebraic_interferer_suppression(self):
        """Frames built exactly from the interferer transfer vector: >= 30 dB.

        The interferer is bandlimited above 250 Hz; below that the 5.7 cm
        aperture cannot resolve the two bearings and MVDR rightly passes the
        signal rather than break the distortionless constraint.
        """
        sc = off_axis_scene()
        rs = simulate_rirs(sc)
        d, R = oracle_quantities(rs, sc, CFG)
        w = mvdr_weights(d, R)
        g = np.empty((CFG.n_bins, 3), dtype=complex)
        for m in range(3):
            g[:, m] = direct_dtft(rs.taps[0, m, 1], CFG.n_bins, CFG.window_length)
        band = slice(8, CFG.n_bins)
        out = np.abs(np.sum(w[0, band].conj() * g[band], axis=-1)) ** 2
        ref_in = np.abs(g[band, 0]) ** 2
        assert 10 * np.log10(ref_in.sum() / out.sum()) >= 30.0
        # per-bin law: every resolvable bin clears the bound on its own
        assert np.all(10 * np.log10(ref_in / out) >= 28.0)


@pytest.fixture(scope="module")
def scene_run():
    sc = off_axis_scene()
    rs = simulate_rirs(sc)
    rng = np.random.default_rng(11)
    srcs = [Waveform(rng.standard_normal(16000), FS) for _ in range(2)]
    obs = render_observations(srcs, rs)
    d, R = oracle_quantities(rs, sc, CFG)
    return sc, obs, d, R


def beamform_image(obs, d, R, source):
    """MVDR applied to one source's image signals instead of the mixture."""
    return mvdr(replace(obs, mixture=obs.images[source]), d, R)


class TestMvdrOnRenderedAudio:

    def test_target_passthrough(self, scene_run):
        sc, obs, d, R = scene_run
        Y = beamform_image(obs, d, R, sc.target_index)
        ref = stft(obs.images[sc.target_index, 0, 0], CFG).values
        rel = np.linalg.norm(Y.values[0] - ref) / np.linalg.norm(ref)
        assert rel < 0.01

    def test_rendered_interferer_suppressed(self, scene_run):
        sc, obs, d, R = scene_run
        Y = beamform_image(obs, d, R, 1)
        e_in = np.sum(np.abs(stft(obs.images[1, 0, 0], CFG).values) ** 2)
        e_out = np.sum(np.abs(Y.values[0]) ** 2)
        assert 10 * np.log10(e_in / e_out) >= 15.0

    def test_output_sinr_not_worse_than_reference_mic(self, scene_run):
        sc, obs, d, R = scene_run
        Yt = beamform_image(obs, d, R, sc.target_index)
        Yi = beamform_image(obs, d, R, 1)
        out_sinr = np.sum(np.abs(Yt.values) ** 2) / np.sum(np.abs(Yi.values) ** 2)
        st = stft(obs.images[sc.target_index, 0, 0], CFG).values
        si = stft(obs.images[1, 0, 0], CFG).values
        in_sinr = np.sum(np.abs(st) ** 2) / np.sum(np.abs(si) ** 2)
        assert 10 * np.log10(out_sinr) >= 10 * np.log10(in_sinr) - 0.2

    def test_output_shape(self, scene_run):
        sc, obs, d, R = scene_run
        Y = mvdr(obs, d, R)
        assert isinstance(Y, ComplexSpectrogram)
        J = math.ceil(obs.n_samples / CFG.hop)
        assert Y.values.shape == (1, CFG.n_bins, J)
        assert Y.values.flags.c_contiguous
        assert Y.n_samples == obs.n_samples


def all_array_mvdr(obs, d, R):
    """mvdr by its formula over every array at once: the STFT of every
    channel in one transform, then the mic-ordered weighted sum."""
    w = mvdr_weights(d, R)
    S = stft(obs.mixture, d.config).values  # (A, M, I, J)
    Y = np.zeros((S.shape[0], *S.shape[2:]), dtype=np.complex128)
    for m in range(S.shape[1]):
        Y += w[:, :, m].conj()[:, :, None] * S[:, m]
    return Y


def rendered_scene(n_arrays, t60, seed):
    sc = default_scene(n_arrays, t60)
    rs = simulate_rirs(sc)
    rng = np.random.default_rng(seed)
    srcs = [Waveform(rng.standard_normal(16000), FS)
            for _ in range(sc.n_sources)]
    obs = render_observations(srcs, rs)
    d, R = oracle_quantities(rs, sc, CFG)
    return obs, d, R


class TestMvdrPerArray:
    @pytest.mark.parametrize("t60", [0.0, 0.3])
    @pytest.mark.parametrize("n_arrays", [2, 3])
    def test_matches_all_array_formula_bit_for_bit(self, n_arrays, t60):
        obs, d, R = rendered_scene(n_arrays, t60, seed=n_arrays)
        np.testing.assert_array_equal(mvdr(obs, d, R).values,
                                      all_array_mvdr(obs, d, R))

    @pytest.mark.parametrize("n_arrays", [2, 3])
    def test_holds_one_array_stft_at_a_time(self, n_arrays):
        # beside its output, mvdr holds one array's STFT: its windowed
        # frames and their spectra.  Slack: one mic's weighted term, two
        # (A, I, M, M) arrays for the per-bin weights and their solve, and
        # 64 KiB for Python objects.  Transforming every array at once
        # would hold all A arrays' frames and spectra.
        obs, d, R = rendered_scene(n_arrays, 0.3, seed=7)
        A, M, L = obs.mixture.shape
        I, J = CFG.n_bins, math.ceil(L / CFG.hop)
        one_array = M * J * CFG.window_length * 8 + M * I * J * 16
        slack = I * J * 16 + 2 * A * I * M * M * 16 + 2**16
        tracemalloc.start()
        try:
            Y = mvdr(obs, d, R)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - Y.values.nbytes <= one_array + slack


class TestDelayAndSum:
    def test_identical_copies(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(1000)
        out = delay_and_sum([Waveform(x, FS), Waveform(x.copy(), FS)])
        assert_allclose(out.samples, x, atol=1e-14)

    def test_recovers_integer_delay(self):
        rng = np.random.default_rng(3)
        x = rng.standard_normal(4000)
        y = np.zeros(4000)
        y[5:] = x[:-5]
        out = delay_and_sum([Waveform(x, FS), Waveform(y, FS)])
        assert np.max(np.abs(out.samples[10:-10] - x[10:-10])) < 1e-10

    @pytest.mark.parametrize("n", [9, 64, 257, 1000, 4000, 19200])
    @pytest.mark.parametrize("sign", [1, -1])
    def test_lag_matches_scipy_correlate(self, n, sign):
        # delay_and_sum correlates by FFT itself to keep scipy.signal off the
        # `spotform` command's path; scipy picks the direct method below
        # about 4000 samples, so short lengths cross-check the arithmetic
        import scipy.signal

        rng = np.random.default_rng(n)
        x = rng.standard_normal(n)
        shift = sign * max(1, n // 7)
        y = np.roll(x, shift) + 0.3 * rng.standard_normal(n)
        corr = scipy.signal.correlate(y, x, mode="full")
        lags = scipy.signal.correlation_lags(n, n, mode="full")
        lag = int(lags[np.argmax(corr)])
        aligned = np.zeros(n)
        if lag >= 0:
            aligned[: n - lag] = y[lag:]
        else:
            aligned[-lag:] = y[: n + lag]
        out = delay_and_sum([Waveform(x, FS), Waveform(y, FS)])
        np.testing.assert_array_equal(out.samples, (x + aligned) / 2)

    def test_fft_size_matches_scipy_next_fast_len(self):
        # the correlation, the rendering and the scoring run at scipy's
        # real-input FFT size, so each is the arithmetic scipy's
        # correlate, fftconvolve and FFT-sized transforms do
        import scipy.fft

        # 40000..82000 holds the sizes a rendered or scored clip asks for
        for n in [*range(1, 5000), *range(40000, 82000, 13), 2**20 + 1,
                  3**13 + 1, 5**8 + 1, 10**7 + 1]:
            assert next_fast_len(n) == scipy.fft.next_fast_len(n, real=True), n

    def test_single_input_identity(self):
        x = np.arange(50, dtype=float)
        out = delay_and_sum([Waveform(x, FS)])
        assert_allclose(out.samples, x)

    def test_zero_estimate_warns_and_dilutes(self):
        x = np.ones(100)
        with pytest.warns(UserWarning, match="all-zero estimate"):
            out = delay_and_sum([Waveform(x, FS), Waveform(np.zeros(100), FS)])
        assert_allclose(out.samples, 0.5 * x)

    def test_silent_first_estimate_anchors_on_next(self):
        # the silent estimate has no correlation peak to align to; fusion
        # anchors on the first estimate with signal and keeps it whole
        rng = np.random.default_rng(6)
        x = rng.standard_normal(4000)
        y = np.zeros(4000)
        y[7:] = x[:-7]
        silent = Waveform(np.zeros(4000), FS)
        with pytest.warns(UserWarning, match="all-zero estimate"):
            out = delay_and_sum([silent, Waveform(x, FS), Waveform(y, FS)])
        assert np.max(np.abs(out.samples[10:-10] - 2 / 3 * x[10:-10])) < 1e-10
        with pytest.warns(UserWarning, match="all-zero estimate"):
            moved = delay_and_sum([Waveform(x, FS), silent, Waveform(y, FS)])
        np.testing.assert_array_equal(out.samples, moved.samples)

    def test_all_silent_estimates_fuse_to_zero(self):
        silent = Waveform(np.zeros(50), FS)
        with pytest.warns(UserWarning, match="all-zero estimate"):
            out = delay_and_sum([silent, silent])
        assert not np.any(out.samples)

    def test_permutation_invariant_behind_anchor(self):
        rng = np.random.default_rng(4)
        waves = [Waveform(rng.standard_normal(500), FS) for _ in range(3)]
        a = delay_and_sum(waves)
        b = delay_and_sum([waves[0], waves[2], waves[1]])
        assert_allclose(a.samples, b.samples, atol=1e-15)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValueError, match="sample rate"):
            delay_and_sum([Waveform(np.ones(10), FS), Waveform(np.ones(10), 8000)])

    def test_empty_list_rejected(self):
        with pytest.raises(ValueError):
            delay_and_sum([])
