"""Acceptance checks for the whole toolkit, A01 through A10.

Each test prints a single PASS/FAIL line with the measured quantity (run with
-s to see them live) and asserts the same condition. A05/A06 share one
module-scoped sweep on the reference two-array anechoic scene with three
synthetic voices; it is the same configuration scripts/run_experiment.py
reproduces, and takes a few minutes.
"""

import time

import numpy as np
import pytest

from spotform.evaluate import filtered_sdr, si_sdr
from spotform.gkl import gkl_divergence
from spotform.harness import ExperimentConfig, run_experiment
from spotform.nmf import ConcatMatrix, fit_nmf
from spotform.ntf import (
    NtfModel,
    PropTensor,
    RegularizationSchedule,
    build_attractors,
    evaluate_cost,
    fit_ntf,
)
from spotform.ntf import update_step as ntf_step
from spotform.beamform import mvdr_weights, oracle_quantities
from spotform.roomsim import (
    MicArray,
    Scene,
    SourcePlacement,
    default_scene,
    simulate_rirs,
)
from spotform.signal import StftConfig, Waveform, istft, stft
from spotform.synth import write_demo_sources

FS = 16000


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"[{tag}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"{tag}: {detail}"


def planted_tensor(data_seed: int, classes, K: int, peaky: bool = False,
                   A: int = 2, I: int = 16, J: int = 24):
    """Exact low-rank tensor whose bases carry known class assignments."""
    r = np.random.default_rng(data_seed)
    attractors = build_attractors(A)
    Zt = attractors.P[:, classes]
    if peaky:
        # a few dominant rows per basis keep the bases identifiable
        Tt = r.uniform(0, 0.15, (I, K))
        for k in range(K):
            Tt[r.choice(I, 3, replace=False), k] += 1.0
    else:
        Tt = r.uniform(0, 1, (I, K))
    Tt /= Tt.sum(0)
    Vt = r.uniform(0.5, 2.0, (J, K))
    C = np.einsum("ak,ik,jk->aij", Zt, Tt, Vt)
    return PropTensor(C), attractors


def test_a01_cost_nonincreasing_on_random_instances():
    rng = np.random.default_rng(1)
    combos = [(A, K, mu) for A in (2, 3) for K in (2, 5)
              for mu in (0.0, 1.0, 100.0)]
    I, J = 16, 24
    worst = -np.inf
    t0 = time.perf_counter()
    for n in range(100):
        A, K, mu = combos[n % len(combos)]
        C = PropTensor(rng.uniform(0, 1, (A, I, J)))
        attractors = build_attractors(A)
        T = rng.uniform(0, 1, (I, K))
        T /= T.sum(0)
        model = NtfModel(Z=np.full((A, K), 1.0 / A), T=T,
                         V=rng.uniform(0, 1, (J, K)), seed=0)
        prev = evaluate_cost(model, C, attractors, mu)
        for _ in range(20):
            model = ntf_step(model, C, attractors, mu)
            cur = evaluate_cost(model, C, attractors, mu)
            worst = max(worst, (cur - prev) / abs(prev))
            prev = cur
    elapsed = time.perf_counter() - t0
    report("A01 cost monotonicity", worst <= 1e-9 and elapsed < 60.0,
           f"worst relative increase {worst:.2e} over 100 instances "
           f"x 20 iterations ({elapsed:.1f}s)")


def test_a02_allocations_land_on_attractors_at_large_mu():
    hits, worst = 0, 0.0
    for seed in range(10):
        C, attractors = planted_tensor(seed + 100, [0, 1, 2], K=3)
        model, _ = fit_ntf(C, 3, RegularizationSchedule(1000.0, 50, 100),
                           seed=seed)
        gaps = np.abs(model.Z[:, :, None] - attractors.P[:, None, :]).sum(0)
        nearest = gaps.min(axis=1)
        hits += bool(np.all(nearest < 1e-3))
        worst = max(worst, float(nearest.max()))
    report("A02 hard clustering", hits == 10,
           f"{hits}/10 seeds with every column on an attractor, "
           f"worst l1 gap {worst:.1e}")


def test_a03_planted_model_recovery():
    hits = 0
    for seed in range(10):
        C, _ = planted_tensor(seed + 200, [0, 0, 1, 2], K=4, peaky=True)
        model, asg = fit_ntf(C, 4, RegularizationSchedule(100.0, 500, 2000),
                             seed=seed)
        gkl = gkl_divergence(C.values, model.compose())
        if int(asg.h.sum()) == 2 and gkl < 1e-6 * C.values.sum():
            hits += 1
    report("A03 planted recovery", hits >= 8,
           f"{hits}/10 seeds recovered exactly 2 common bases with "
           f"near-exact fit (need >= 8)")


def test_a04_single_array_matches_baseline_updates():
    rng = np.random.default_rng(7)
    worst = 0.0
    for trial in range(5):
        I, J = (int(x) for x in rng.integers(6, 20, 2))
        K = int(rng.integers(2, min(I, J)))
        C = rng.uniform(0.1, 2.0, (I, J))
        iters = 1 if trial < 3 else 7
        m_ntf, _ = fit_ntf(PropTensor(C[None]), K,
                           RegularizationSchedule(0.0, 0, iters),
                           seed=trial)
        m_nmf = fit_nmf(ConcatMatrix(C, 1, J), K, iterations=iters,
                        seed=trial)
        worst = max(worst,
                    float(np.max(np.abs(m_ntf.T - m_nmf.T))),
                    float(np.max(np.abs(m_ntf.V - m_nmf.V))))
    report("A04 single-array equivalence", worst < 1e-12,
           f"max entrywise factor gap {worst:.1e} across 5 instances")


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    src_dir = tmp_path_factory.mktemp("acceptance_sources")
    paths = write_demo_sources(src_dir, 3, 2.5, FS, seed=0)
    cfg = ExperimentConfig(
        scene=default_scene(2, t60=0.0),
        source_paths=tuple(str(p) for p in paths),
        k_grid=(10, 30, 50),
        mu_grid=(100.0,),
        n_seeds=10,
        out_dir=str(tmp_path_factory.mktemp("acceptance_out")),
    )
    t0 = time.perf_counter()
    rows, stats = run_experiment(cfg)
    elapsed = time.perf_counter() - t0
    assert sum(r.status != "ok" for r in rows) == 0, "sweep rows failed"
    return cfg, stats, elapsed


def test_a05_method_ordering_on_reference_scene(sweep):
    cfg, stats, elapsed = sweep
    ntf = stats[("ntf", "filtered-sdr", 30, 100.0)].mean_db
    nmf = max(stats[("nmf", "filtered-sdr", k, float(t))].mean_db
              for k in cfg.k_grid for t in cfg.tau_grid)
    bf = max(stats[("bf-only", "filtered-sdr", 0, float(a))].mean_db
             for a in range(cfg.scene.n_arrays))
    ok = ntf >= nmf >= bf and elapsed < 900.0
    report("A05 method ordering", ok,
           f"ntf(K=30) {ntf:.2f} dB >= best nmf {nmf:.2f} dB >= "
           f"best bf {bf:.2f} dB, sweep {elapsed:.0f}s")


def test_a06_k_robustness(sweep):
    cfg, stats, _ = sweep
    means = {k: stats[("ntf", "filtered-sdr", k, 100.0)].mean_db
             for k in cfg.k_grid}
    k_max = max(cfg.k_grid)
    gap = max(means.values()) - means[k_max]
    report("A06 robustness to K", gap <= 1.5,
           f"mean at K={k_max} is {means[k_max]:.2f} dB, "
           f"{gap:.2f} dB below grid best (allow 1.5)")


def _transfer(h: np.ndarray, n_bins: int, nfft: int) -> np.ndarray:
    n = np.arange(len(h))
    return np.array([np.sum(h * np.exp(-2j * np.pi * i * n / nfft))
                     for i in range(n_bins)])


def test_a07_mvdr_distortionless_and_suppressing():
    cfg = StftConfig()
    sc = default_scene(3, t60=0.3)
    d, R = oracle_quantities(simulate_rirs(sc), sc, cfg)
    w = mvdr_weights(d, R)
    resp = np.sum(w.conj() * d.values, axis=-1)
    dist_err = float(np.max(np.abs(resp - 1.0)))

    # single array, interferer 40 degrees off the look direction, anechoic;
    # input frames built exactly from the interferer transfer vector (rank 1)
    sc2 = Scene(
        room=(6.0, 6.0),
        arrays=(MicArray(center=(1.0, 3.0), look=0.0),),
        sources=(SourcePlacement(position=(4.0, 3.0), kind="target"),
                 SourcePlacement(position=(2.0, 4.8))),
        t60=0.0,
    )
    rs = simulate_rirs(sc2)
    d2, R2 = oracle_quantities(rs, sc2, cfg)
    w2 = mvdr_weights(d2, R2)
    g = np.stack([_transfer(rs.taps[0, m, 1], cfg.n_bins, cfg.window_length)
                  for m in range(3)], axis=1)
    # below ~250 Hz the 5.7 cm aperture cannot separate the two bearings
    band = slice(8, cfg.n_bins)
    out = np.abs(np.sum(w2[0, band].conj() * g[band], axis=-1)) ** 2
    ref = np.abs(g[band, 0]) ** 2
    supp = 10 * np.log10(ref.sum() / out.sum())
    ok = dist_err < 1e-6 and supp >= 30.0
    report("A07 oracle beamformer", ok,
           f"distortionless error {dist_err:.1e}, rank-1 interferer "
           f"suppressed {supp:.1f} dB above 250 Hz")


def test_a08_stft_roundtrip():
    cfg = StftConfig()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(10):
        n = int(rng.integers(900, 20000))
        x = rng.standard_normal(n)
        back = istft(stft(x, cfg))
        worst = max(worst, float(np.linalg.norm(back - x)
                                 / np.linalg.norm(x)))
    report("A08 analysis-synthesis roundtrip", worst < 1e-10,
           f"worst relative error {worst:.1e} over 10 random signals")


def _decay_time(h: np.ndarray, fs: int) -> float:
    """Schroeder curve, least-squares slope over the -5..-25 dB span."""
    energy = h.astype(np.float64) ** 2
    edc = np.flip(np.cumsum(np.flip(energy)))
    db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-30))
    idx = np.where((db <= -5.0) & (db >= -25.0))[0]
    t = idx / fs
    A = np.stack([t, np.ones_like(t)], axis=1)
    slope, _ = np.linalg.lstsq(A, db[idx], rcond=None)[0]
    return -60.0 / slope


def test_a09_room_simulator_calibration():
    target = 0.256
    sc = default_scene(2, t60=target)
    rs = simulate_rirs(sc)
    worst_rel = 0.0
    for a in range(sc.n_arrays):
        for m in range(3):
            for s in range(sc.n_sources):
                est = _decay_time(rs.taps[a, m, s], sc.sample_rate)
                worst_rel = max(worst_rel, abs(est - target) / target)

    # direct-path placement, checked anechoically so the peak is unambiguous
    sc0 = default_scene(2, t60=0.0)
    rs0 = simulate_rirs(sc0)
    worst_delay = 0.0
    for a, arr in enumerate(sc0.arrays):
        mics = arr.mic_positions()
        for m in range(mics.shape[0]):
            for s, src in enumerate(sc0.sources):
                dist = float(np.hypot(mics[m, 0] - src.position[0],
                                      mics[m, 1] - src.position[1]))
                expect = dist / sc0.speed_of_sound * sc0.sample_rate
                h = rs0.taps[a, m, s]
                e = h**2
                centroid = float(np.sum(np.arange(len(h)) * e) / np.sum(e))
                worst_delay = max(worst_delay, abs(centroid - expect))
    ok = worst_rel <= 0.20 and worst_delay <= 1.0
    report("A09 room simulator calibration", ok,
           f"decay time off by {worst_rel * 100:.1f}% at worst (allow 20%), "
           f"direct path off by {worst_delay:.2f} samples (allow 1)")


def test_a10_metric_sanity():
    rng = np.random.default_rng(5)
    clean = rng.standard_normal(FS)
    clean[-400:] = 0.0  # silent tail, so a 100-sample delay is absorbable
    delayed = np.roll(clean, 100)
    f_db = filtered_sdr(Waveform(delayed, FS), Waveform(clean, FS))

    s = rng.standard_normal(FS)
    noise = rng.standard_normal(FS)
    noise -= (noise @ s) / (s @ s) * s
    noise *= np.linalg.norm(s) / (np.linalg.norm(noise) * np.sqrt(10.0))
    si = si_sdr(Waveform(s + noise, FS), Waveform(s, FS))
    ok = f_db >= 100.0 and abs(si - 10.0) < 0.1
    report("A10 metric sanity", ok,
           f"delayed copy scores {f_db:.0f} dB filtered (need >= 100), "
           f"10 dB mixture scores {si:.3f} dB scale-invariant")
