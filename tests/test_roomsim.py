"""Tests for the 2-D image-method simulator.

The reverberation checks use an independent Schroeder estimator (T30 fit via
least squares) rather than the one inside the package.
"""

import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from spotform.harness import from_json
from spotform.roomsim import (
    MicArray,
    Scene,
    SourcePlacement,
    default_scene,
    render_observations,
    save_rirs,
    simulate_rirs,
)
from spotform.signal import Waveform, next_fast_len

C = 343.0
FS = 16000


def oracle_t60(h, fs):
    """Independent Schroeder estimate: least-squares fit over -5 to -25 dB."""
    energy = h.astype(np.float64) ** 2
    edc = np.flip(np.cumsum(np.flip(energy)))
    db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
    idx = np.where((db <= -5.0) & (db >= -25.0))[0]
    assert idx.size > 10, "decay range not covered"
    t = idx / fs
    A = np.stack([t, np.ones_like(t)], axis=1)
    slope, _ = np.linalg.lstsq(A, db[idx], rcond=None)[0]
    return -60.0 / slope


def single_pair_scene(dist_samples, t60=0.0, room=(12.0, 12.0)):
    """One mic, one source, separated by an exact number of sample-lengths."""
    d = dist_samples * C / FS
    return Scene(
        room=room,
        arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
        sources=(SourcePlacement(position=(1.0 + d, 1.0), kind="target"),),
        t60=t60,
    )


class TestAnechoicDirectPath:
    def test_single_tap_at_integer_delay(self):
        rs = simulate_rirs(single_pair_scene(100))
        h = rs.taps[0, 0, 0]
        d = 100 * C / FS
        assert np.argmax(np.abs(h)) == 100
        assert abs(h[100] - 1.0 / math.sqrt(d)) < 1e-12
        rest = np.abs(h.copy())
        rest[100] = 0.0
        assert rest.max() < 1e-12

    def test_energy_matches_spreading_law(self):
        # single integer-delay tap of height 1/sqrt(d) has energy 1/d
        for k in [50, 200, 400]:
            rs = simulate_rirs(single_pair_scene(k))
            d = k * C / FS
            assert abs(np.sum(rs.taps**2) - 1.0 / d) < 1e-10

    def test_amplitude_halves_at_four_x_distance(self):
        a1 = simulate_rirs(single_pair_scene(80)).taps.max()
        a2 = simulate_rirs(single_pair_scene(320)).taps.max()
        assert abs(a1 / a2 - 2.0) < 1e-9

    def test_fractional_delay_peak_position(self):
        # non-integer delay: energy-weighted peak still lands within 1 sample
        d = 123.37 * C / FS
        sc = Scene(
            room=(8.0, 8.0),
            arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
            sources=(SourcePlacement(position=(1.0 + d, 1.0), kind="target"),),
            t60=0.0,
        )
        h = simulate_rirs(sc).taps[0, 0, 0]
        assert abs(np.argmax(np.abs(h)) - 123.37) <= 1.0
        # bandlimited impulse keeps the spreading-law energy
        assert abs(np.sum(h**2) - 1.0 / d) / (1.0 / d) < 0.02


class TestReverb:
    def test_t60_within_five_percent_everywhere(self):
        sc = default_scene(2, t60=0.3)
        rs = simulate_rirs(sc)
        for a in range(2):
            for m in range(3):
                for s in range(3):
                    est = oracle_t60(rs.taps[a, m, s], FS)
                    assert abs(est - 0.3) / 0.3 < 0.05, (a, m, s, est)

    def test_other_t60_values(self):
        # short decays need a small room so the echo density stays diffuse
        cases = [(0.15, (4.0, 4.0)), (0.5, (12.0, 12.0))]
        for t60, room in cases:
            sc = Scene(
                room=room,
                arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
                sources=(SourcePlacement(position=(2.5, 1.9), kind="target"),),
                t60=t60,
            )
            rs = simulate_rirs(sc)
            est = oracle_t60(rs.taps[0, 0, 0], FS)
            assert abs(est - t60) / t60 < 0.05

    def test_sparse_decay_rejected(self):
        # 0.15 s decay in a 12 m room: too few echoes to calibrate honestly
        with pytest.raises(ValueError, match="unreachable"):
            simulate_rirs(single_pair_scene(100, t60=0.15))

    def test_direct_path_still_first(self):
        rs = simulate_rirs(single_pair_scene(100, t60=0.3, room=(5.0, 5.0)))
        h = rs.taps[0, 0, 0]
        early = np.abs(h[:60])
        assert early.max() < 1e-9  # nothing arrives before the direct sound

    def test_reflection_coefficient_recorded(self):
        rs = simulate_rirs(single_pair_scene(100, t60=0.3, room=(5.0, 5.0)))
        assert 0.0 < rs.reflection < 1.0

    def test_unreachable_t60_rejected(self):
        sc = Scene(
            room=(1.0, 1.0),
            arrays=(MicArray(center=(0.3, 0.5), look=0.0, n_mics=1),),
            sources=(SourcePlacement(position=(0.7, 0.5), kind="target"),),
            t60=5.0,
        )
        with pytest.raises(ValueError, match="unreachable"):
            simulate_rirs(sc)


class TestSceneValidation:
    def test_source_outside_room(self):
        with pytest.raises(ValueError, match="degenerate geometry"):
            Scene(
                arrays=(MicArray(center=(1.0, 1.0), look=0.0),),
                sources=(SourcePlacement(position=(7.0, 3.0), kind="target"),),
            )

    def test_mic_outside_room(self):
        with pytest.raises(ValueError, match="degenerate geometry"):
            Scene(
                arrays=(MicArray(center=(0.0, 3.0), look=0.0),),
                sources=(SourcePlacement(position=(3.0, 3.0), kind="target"),),
            )

    def test_source_on_mic(self):
        with pytest.raises(ValueError, match="degenerate geometry"):
            Scene(
                arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
                sources=(SourcePlacement(position=(1.0, 1.0), kind="target"),),
            )

    def test_exactly_one_target(self):
        with pytest.raises(ValueError, match="exactly one target"):
            Scene(
                arrays=(MicArray(center=(1.0, 1.0), look=0.0, n_mics=1),),
                sources=(
                    SourcePlacement(position=(2.0, 2.0), kind="target"),
                    SourcePlacement(position=(4.0, 4.0), kind="target"),
                ),
            )

    def test_no_arrays(self):
        with pytest.raises(ValueError, match="no arrays"):
            Scene(arrays=(), sources=(SourcePlacement((3.0, 3.0), "target"),))

    def test_bad_source_kind(self):
        with pytest.raises(ValueError, match="unknown source kind"):
            SourcePlacement(position=(1.0, 1.0), kind="noise")


class TestDefaultScene:
    def test_two_array_layout(self):
        sc = default_scene(2)
        assert sc.n_arrays == 2 and sc.n_sources == 3
        assert sc.sources[sc.target_index].position == (3.0, 3.0)
        # each look direction points from the array center at the target
        for arr in sc.arrays:
            to_target = np.array([3.0, 3.0]) - np.asarray(arr.center)
            ang = math.atan2(to_target[1], to_target[0])
            assert abs((ang - arr.look + math.pi) % (2 * math.pi) - math.pi) < 1e-9

    def test_interferers_inline_behind_target(self):
        sc = default_scene(3)
        interf = [s.position for s in sc.sources if s.kind == "interferer"]
        assert len(interf) == 3
        assert (4.5, 3.0) in interf and (3.0, 4.5) in interf and (1.5, 3.0) in interf

    def test_mic_positions_broadside(self):
        arr = default_scene(2).arrays[0]  # look = 0 (+x)
        pos = arr.mic_positions()
        assert pos.shape == (3, 2)
        # array axis perpendicular to look: x constant, y varies by spacing
        assert_allclose(pos[:, 0], 0.3, atol=1e-12)
        assert_allclose(np.diff(pos[:, 1]), arr.spacing, atol=1e-12)
        assert_allclose(pos.mean(axis=0), [0.3, 3.0], atol=1e-12)

    def test_bad_array_count(self):
        with pytest.raises(ValueError):
            default_scene(4)


class TestRender:
    def _small_rirs(self):
        sc = Scene(
            room=(6.0, 6.0),
            arrays=(
                MicArray(center=(1.0, 3.0), look=0.0, n_mics=2),
                MicArray(center=(3.0, 1.0), look=math.pi / 2, n_mics=2),
            ),
            sources=(
                SourcePlacement(position=(3.0, 3.0), kind="target"),
                SourcePlacement(position=(4.5, 3.0)),
            ),
            t60=0.0,
        )
        return simulate_rirs(sc)

    def test_mixture_is_sum_of_images(self):
        rs = self._small_rirs()
        rng = np.random.default_rng(0)
        srcs = [Waveform(rng.standard_normal(2000), FS) for _ in range(2)]
        obs = render_observations(srcs, rs)
        assert obs.mixture.shape == (2, 2, 2000 + rs.n_taps - 1)
        assert_allclose(obs.mixture, obs.images.sum(axis=0), atol=1e-12)

    def test_image_matches_direct_convolution(self):
        rs = self._small_rirs()
        rng = np.random.default_rng(1)
        srcs = [Waveform(rng.standard_normal(500), FS) for _ in range(2)]
        obs = render_observations(srcs, rs)
        ref = np.convolve(srcs[1].samples, rs.taps[1, 0, 1])
        assert_allclose(obs.images[1, 1, 0], ref, atol=1e-10)

    def test_wrong_source_count(self):
        rs = self._small_rirs()
        with pytest.raises(ValueError, match="expected 2 source signals"):
            render_observations([Waveform(np.ones(10), FS)], rs)

    def test_empty_source_rejected(self):
        rs = self._small_rirs()
        with pytest.raises(ValueError, match="empty signal"):
            render_observations(
                [Waveform(np.zeros(0), FS), Waveform(np.ones(10), FS)], rs
            )

    def test_rate_mismatch_rejected(self):
        rs = self._small_rirs()
        with pytest.raises(ValueError, match="sample rate"):
            render_observations(
                [Waveform(np.ones(10), 8000), Waveform(np.ones(10), 8000)], rs
            )

    @pytest.mark.parametrize("t60", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("n_arrays", [1, 2, 3])
    def test_images_match_scipy_fftconvolve_bit_for_bit(self, n_arrays, t60):
        # the render does fftconvolve's arithmetic itself to keep
        # scipy.signal off the simulate and sweep paths; sources of unequal
        # length each get their own FFT size, as fftconvolve gives them
        import scipy.signal

        rs = simulate_rirs(default_scene(n_arrays, t60))
        rng = np.random.default_rng(n_arrays)
        srcs = [Waveform(rng.standard_normal(3000 + 700 * s), FS)
                for s in range(rs.taps.shape[2])]
        obs = render_observations(srcs, rs)
        ref = np.zeros_like(obs.images)
        for s, src in enumerate(srcs):
            for a in range(rs.taps.shape[0]):
                for m in range(rs.taps.shape[1]):
                    y = scipy.signal.fftconvolve(src.samples, rs.taps[a, m, s])
                    ref[s, a, m, : len(y)] = y
        np.testing.assert_array_equal(obs.images, ref)
        np.testing.assert_array_equal(obs.mixture, ref.sum(axis=0))

    @pytest.mark.parametrize("n_arrays", [2, 3])
    def test_mixture_equals_sum_of_images_exactly(self, n_arrays):
        rs = simulate_rirs(default_scene(n_arrays, 0.3))
        rng = np.random.default_rng(n_arrays)
        srcs = [Waveform(rng.standard_normal(2000 + 300 * s), FS)
                for s in range(rs.taps.shape[2])]
        obs = render_observations(srcs, rs)
        np.testing.assert_array_equal(obs.mixture, obs.images.sum(axis=0))

    @pytest.mark.parametrize("n_arrays", [2, 3])
    def test_render_holds_one_source_of_spectra_at_a_time(self, n_arrays):
        # beside its outputs, the render holds one source's RIR spectra,
        # that source's spectrum and one channel's inverse transform; the
        # last two are O(size) and are allowed twice over, with 64 KiB for
        # Python objects.  Transforming every channel of a source at once
        # would hold its product and inverse transforms too, about three
        # times the spectra.
        rs = simulate_rirs(default_scene(n_arrays, 0.3))
        A, M, S, n_taps = rs.taps.shape
        lengths = [3000 + 700 * s for s in range(S)]
        rng = np.random.default_rng(5)
        srcs = [Waveform(rng.standard_normal(n), FS) for n in lengths]
        sizes = [next_fast_len(n + n_taps - 1) for n in lengths]
        spectra = max(A * M * (size // 2 + 1) * 16 for size in sizes)
        slack = max(2 * (16 * (size // 2 + 1) + 8 * size) for size in sizes)
        tracemalloc.start()
        try:
            obs = render_observations(srcs, rs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        outputs = obs.images.nbytes + obs.mixture.nbytes
        assert peak - outputs <= spectra + slack + 2**16


class TestPersistence:
    def test_save_load_roundtrip(self, tmp_path):
        rs = simulate_rirs(single_pair_scene(100, t60=0.2, room=(5.0, 5.0)))
        p = tmp_path / "rirs.npz"
        save_rirs(p, rs)
        with np.load(p) as z:
            assert sorted(z.files) == ["reflection", "sample_rate",
                                       "scene_json", "taps"]
            assert_allclose(z["taps"], rs.taps)
            assert int(z["sample_rate"]) == rs.sample_rate
            assert float(z["reflection"]) == rs.reflection
            scene = from_json(Scene, json.loads(bytes(z["scene_json"]).decode()))
        assert scene == rs.scene

    def test_scene_dict_roundtrip(self):
        for n_arrays in (1, 2, 3):
            sc = default_scene(n_arrays, t60=0.42)
            assert from_json(Scene, sc.to_dict()) == sc


@given(
    mx=st.floats(0.5, 2.5),
    my=st.floats(0.5, 5.5),
    sx=st.floats(3.5, 5.5),
    sy=st.floats(0.5, 5.5),
)
@settings(max_examples=10, deadline=None)
def test_anechoic_peak_at_predicted_delay(mx, my, sx, sy):
    sc = Scene(
        room=(6.0, 6.0),
        arrays=(MicArray(center=(mx, my), look=0.0, n_mics=1),),
        sources=(SourcePlacement(position=(sx, sy), kind="target"),),
        t60=0.0,
    )
    h = simulate_rirs(sc).taps[0, 0, 0]
    d = math.hypot(sx - mx, sy - my)
    assert abs(np.argmax(np.abs(h)) - d / C * FS) <= 1.0
