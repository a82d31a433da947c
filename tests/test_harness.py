"""Tests for the experiment harness and CLI.

A module-scoped miniature experiment (short sources, tiny grids, few
iterations) keeps the end-to-end checks fast; determinism checks compare
everything except the runtime column, which is wall-clock by nature.
"""

import json
import multiprocessing
import os
import signal
import subprocess
import sys
import time
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import spotform
from spotform import cli, evaluate, harness, ntf
from spotform.beamform import delay_and_sum
from spotform.cli import main
from spotform.evaluate import filtered_sdr, si_sdr
from spotform.harness import (
    ExperimentConfig,
    ResultRow,
    _fit,
    _group_tasks,
    _run_group,
    _run_task,
    derive_seed,
    enumerate_tasks,
    load_sources,
    prepare_pipeline,
    run_experiment,
    run_single,
    separate,
    write_results_csv,
)
from spotform.roomsim import default_scene, render_observations, simulate_rirs
from spotform.signal import StftConfig, Waveform, read_wav, stft, write_wav
from spotform.synth import default_voices, write_demo_sources


@pytest.fixture(scope="module")
def sources(tmp_path_factory):
    d = tmp_path_factory.mktemp("srcs")
    return tuple(str(p) for p in write_demo_sources(d, 3, 1.2, 16000, seed=0))


@pytest.fixture(scope="module")
def small_cfg(sources, tmp_path_factory):
    return ExperimentConfig(
        scene=default_scene(2, 0.0),
        source_paths=sources,
        methods=("bf-only", "nmf", "ntf"),
        k_grid=(4,),
        tau_grid=(0.05,),
        mu_grid=(10.0,),
        n_seeds=2,
        iterations=12,
        warmup_iterations=6,
        out_dir=str(tmp_path_factory.mktemp("out")),
    )


@pytest.fixture(scope="module")
def state(small_cfg):
    return prepare_pipeline(small_cfg)


@pytest.fixture(scope="module")
def experiment(small_cfg):
    return run_experiment(small_cfg)


NTF_K, NTF_MU = 6, 10.0


@pytest.fixture(scope="module")
def ntf_cfg(small_cfg, state):
    """small_cfg sized so that the NTF mask keeps only some bases.

    On small_cfg itself every basis lands in the target class, so an ntf row
    there is the fused beamformer output whatever the seed, warmup or mask.
    Same scene and sources, so `state` serves it too.
    """
    cfg = replace(small_cfg, k_grid=(NTF_K,), mu_grid=(NTF_MU,),
                  iterations=40, warmup_iterations=30)
    for s in range(cfg.n_seeds):
        seed = derive_seed(cfg.master_seed, "ntf", NTF_K, NTF_MU, s)
        _, assignment = _fit(state.bf_tensor, "ntf", NTF_K, NTF_MU, seed,
                             cfg.iterations, cfg.warmup_iterations)
        assert 0 < assignment.h.sum() < NTF_K
    return cfg


@pytest.fixture(scope="module")
def tau_cfg(small_cfg, tmp_path_factory):
    """One K, three taus, two seeds: two NMF fits serve six rows."""
    return replace(small_cfg, methods=("nmf",), tau_grid=(0.01, 0.05, 0.2),
                   out_dir=str(tmp_path_factory.mktemp("tau")))


@pytest.fixture(scope="module")
def tau_sweep(tau_cfg):
    return run_experiment(tau_cfg)[0]


class TestConfig:
    def test_json_roundtrip(self, small_cfg, tmp_path):
        path = tmp_path / "cfg.json"
        small_cfg.save(path)
        assert ExperimentConfig.load(path).to_dict() == small_cfg.to_dict()

    def test_source_count_must_match_scene(self, sources):
        with pytest.raises(ValueError, match="source"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources[:2])

    def test_unknown_method_rejected(self, sources):
        with pytest.raises(ValueError, match="unknown method"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, methods=("pca",))

    def test_zero_seeds_rejected(self, sources):
        with pytest.raises(ValueError, match="n_seeds"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, n_seeds=0)

    def test_empty_grid_rejected_when_needed(self, sources):
        with pytest.raises(ValueError, match="tau grid"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, methods=("nmf",),
                             tau_grid=())
        with pytest.raises(ValueError, match="mu grid"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, methods=("ntf",),
                             mu_grid=())

    def test_warmup_beyond_iterations_rejected(self, sources):
        with pytest.raises(ValueError, match="warmup"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, iterations=5,
                             warmup_iterations=6)
        with pytest.raises(ValueError, match="iterations must be >= 1"):
            ExperimentConfig(scene=default_scene(2, 0.0),
                             source_paths=sources, iterations=0,
                             warmup_iterations=0)

    def test_filter_taps_below_one_rejected(self, small_cfg):
        # rejected before any fit, not at the scoring of every row
        with pytest.raises(ValueError, match="filter_taps"):
            replace(small_cfg, filter_taps=0)
        d = small_cfg.to_dict()
        d["filter_taps"] = -3
        with pytest.raises(ValueError, match="filter_taps"):
            ExperimentConfig.from_dict(d)

    @pytest.mark.parametrize("field, grid, match", [
        ("k_grid", (4, 0), "K"),
        ("tau_grid", (0.05, -0.1), "tau"),
        ("mu_grid", (-1.0,), "mu"),
        ("tau_grid", (float("nan"),), "tau"),
        ("tau_grid", (0.05, float("inf")), "tau"),
        ("mu_grid", (float("nan"),), "mu"),
        ("mu_grid", (10.0, float("inf")), "mu"),
    ], ids=["k", "tau", "mu", "tau-nan", "tau-inf", "mu-nan", "mu-inf"])
    def test_grid_entry_out_of_range_rejected(self, small_cfg, field, grid,
                                              match):
        # rejected before any fit, not at every row of the sweep
        with pytest.raises(ValueError, match=match):
            replace(small_cfg, **{field: grid})


    @pytest.mark.parametrize("field, grid, message", [
        ("methods", ("nmf", "ntf", "nmf"), "methods repeats nmf"),
        ("k_grid", (4, 10, 4), "k_grid repeats 4"),
        ("tau_grid", (0.05, 1, 1.0), "tau_grid repeats 1.0"),
        ("mu_grid", (1.0, 10.0, 1), "mu_grid repeats 1.0"),
    ], ids=["methods", "k", "tau", "mu"])
    def test_repeated_grid_value_rejected(self, small_cfg, field, grid,
                                          message):
        # a repeat runs rows of one fit again, and the summary would count
        # them as further samples; 1 and 1.0 are one tau or mu
        with pytest.raises(ValueError, match=f"^{message}$"):
            replace(small_cfg, **{field: grid})

    # setitimer turns 0 into no deadline and raises mid-sweep on the others
    @pytest.mark.parametrize("timeout_s", [0.0, -1.0, float("inf"),
                                           float("nan"), 1e10])
    def test_timeout_outside_timer_range_rejected(self, small_cfg, timeout_s):
        with pytest.raises(ValueError, match="timeout_s"):
            replace(small_cfg, timeout_s=timeout_s)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_workers_below_one_rejected(self, small_cfg, workers):
        with pytest.raises(ValueError, match="workers"):
            replace(small_cfg, workers=workers)

    def test_missing_keys_rejected(self, small_cfg):
        # a gap is not filled with the default sweep
        d = small_cfg.to_dict()
        for key in ("n_seeds", "k_grid", "iterations", "filter_taps",
                    "workers"):
            del d[key]
        del d["stft"]["hop_ms"]
        with pytest.raises(ValueError) as exc:
            ExperimentConfig.from_dict(d)
        assert str(exc.value) == ("config is missing k_grid, n_seeds, "
                                  "iterations, workers, filter_taps, "
                                  "stft.hop_ms")

    def test_missing_stft_rejected(self, small_cfg):
        d = small_cfg.to_dict()
        del d["stft"]
        with pytest.raises(ValueError, match="config is missing stft$"):
            ExperimentConfig.from_dict(d)


class TestSeeding:
    def test_deterministic(self):
        assert derive_seed(0, "ntf", 30, 100.0, 3) == derive_seed(
            0, "ntf", 30, 100.0, 3)

    def test_keys_give_distinct_streams(self):
        # the key names what the fit depends on: tau acts after the NMF fit,
        # mu shapes the NTF fit
        for k in (10, 30):
            for i in (0, 1):
                assert len({derive_seed(0, "nmf", k, tau, i)
                            for tau in (1e-4, 0.1, 1.0)}) == 1
        seeds = {
            derive_seed(m, meth, k, 1.0, i)
            for m in (0, 1)
            for meth in ("nmf", "ntf")
            for k in (10, 30)
            for i in (0, 1)
        }
        assert len(seeds) == 16
        assert len({derive_seed(0, "ntf", 30, mu, 0)
                    for mu in (1.0, 10.0, 100.0, 1000.0)}) == 4

    def test_hyper_keyed_by_float_value(self):
        # grid entries may be numpy scalars and CLI users may type integers;
        # both must name the same stream as the sweep's Python-float task
        mu = np.geomspace(1.0, 1000.0, 4)[1]
        assert derive_seed(0, "ntf", 30, mu, 2) == derive_seed(
            0, "ntf", 30, float(mu), 2)
        assert derive_seed(0, "ntf", 30, 100, 2) == derive_seed(
            0, "ntf", 30, 100.0, 2)


class TestEnumerateTasks:
    def test_counts(self, small_cfg):
        tasks = enumerate_tasks(small_cfg)
        # bf-only: 1 per array; nmf: 1 K x 1 tau x 2 seeds; ntf: 1 x 1 x 2
        assert len(tasks) == 2 + 2 + 2
        assert sum(t[0] == "bf-only" for t in tasks) == 2

    def test_order_is_stable(self, small_cfg):
        assert enumerate_tasks(small_cfg) == enumerate_tasks(small_cfg)


class TestRunSingle:
    def test_ntf_emits_per_array_plus_fused(self, ntf_cfg, state):
        paths, row = run_single(ntf_cfg, "ntf", NTF_K, NTF_MU, 0, state=state)
        assert row.status == "ok"
        assert [p.name for p in paths] == ["array0.wav", "array1.wav",
                                           "fused.wav"]
        assert all(p.exists() for p in paths)

    def test_repeat_invocation_is_bit_identical(self, ntf_cfg, state):
        paths1, _ = run_single(ntf_cfg, "ntf", NTF_K, NTF_MU, 1, state=state)
        first = [p.read_bytes() for p in paths1]
        paths2, _ = run_single(ntf_cfg, "ntf", NTF_K, NTF_MU, 1, state=state)
        assert [p.read_bytes() for p in paths2] == first

    def test_nmf_zero_threshold_reduces_to_fused_bf(self, small_cfg, state):
        # tau = 0 keeps every basis (V stays positive), so the mask is all
        # ones and the fused output is just delay-and-sum of the BF outputs
        row, _, fused = _run_task(small_cfg, state, ("nmf", 4, 0.0, 0))
        assert row.status == "ok"
        want = delay_and_sum(state.bf_waves)
        assert_allclose(fused.samples, want.samples, atol=1e-9)

    def test_bf_only_rows_are_seed_invariant(self, small_cfg, state):
        r0, _, _ = _run_task(small_cfg, state, ("bf-only", 0, 1.0, 0))
        r1, _, _ = _run_task(small_cfg, state, ("bf-only", 0, 1.0, 1))
        assert r0.sdr_filtered_db == r1.sdr_filtered_db
        assert r0.sdr_si_db == r1.sdr_si_db

    @pytest.mark.parametrize("hyper", [np.float64(0.05), 1])
    def test_reproduces_sweep_row(self, small_cfg, state, hyper):
        # the sweep's tasks carry Python floats (see enumerate_tasks)
        want, _, _ = _run_task(small_cfg, state, ("nmf", 4, float(hyper), 1))
        _, row = run_single(small_cfg, "nmf", 4, hyper, 1, state=state)
        assert row.status == want.status == "ok"
        assert row.sdr_filtered_db == want.sdr_filtered_db
        assert row.sdr_si_db == want.sdr_si_db

    @pytest.mark.parametrize("method, hyper", [("nmf", 0.05), ("ntf", NTF_MU)])
    def test_sweep_task_runs_separate(self, small_cfg, ntf_cfg, state, method,
                                      hyper):
        cfg = ntf_cfg if method == "ntf" else small_cfg
        k = cfg.k_grid[0]
        row, waves, fused = _run_task(cfg, state, (method, k, hyper, 1))
        assert row.status == "ok"
        seed = derive_seed(cfg.master_seed, method, k, hyper, 1)
        want_waves, want_fused = separate(
            state.bf_tensor, method, k, hyper, seed, cfg.iterations,
            cfg.warmup_iterations)
        assert len(waves) == len(want_waves) == cfg.scene.n_arrays
        for got, want in zip(waves, want_waves):
            np.testing.assert_array_equal(got.samples, want.samples)
        np.testing.assert_array_equal(fused.samples, want_fused.samples)

    def test_nmf_row_warnings_follow_the_active_filters(self, small_cfg,
                                                        state):
        # no activation exceeds this tau, so the mask keeps nothing
        task = ("nmf", 4, 1e9, 0)
        with pytest.warns(UserWarning) as record:
            row, _, _ = _run_task(small_cfg, state, task)
        assert row.status == "ok"
        assert str(record[0].message) == (
            "no basis kept for the target class; output is zero")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            row, _, _ = _run_task(small_cfg, state, task)
        assert row.status == "failed"
        assert row.reason.startswith("UserWarning: no basis kept")
        assert np.isnan(row.sdr_filtered_db)

    def test_bf_only_wavs_name_no_seed(self, small_cfg, state, tmp_path):
        # a bf-only run depends on no seed, so every seed index writes the
        # same directory
        cfg = replace(small_cfg, out_dir=str(tmp_path))
        written = set()
        for s in range(3):
            paths, row = run_single(cfg, "bf-only", 0, 1.0, s, state=state)
            assert row.status == "ok"
            written |= {p.parent for p in paths}
        assert written == {tmp_path / "wavs" / "bf-only_K0_h1"}
        assert [d.name for d in (tmp_path / "wavs").iterdir()] == [
            "bf-only_K0_h1"]

    @pytest.mark.parametrize("hyper", [9.0, 0.5])
    def test_bad_array_index_marks_row_failed(self, small_cfg, state, hyper):
        paths, row = run_single(small_cfg, "bf-only", 0, hyper, 0, state=state)
        assert row.status == "failed"
        assert "array index" in row.reason
        assert np.isnan(row.sdr_filtered_db)
        assert paths == []

    @pytest.mark.parametrize("tau", [float("nan"), -1.0, float("inf")])
    def test_bad_tau_fails_the_row_before_the_fit(self, small_cfg, state,
                                                  tmp_path, monkeypatch, tau):
        # the sweep's and run_single's path checks tau as `separate` does,
        # before a whole NMF fit is spent on a row that cannot score
        calls = []
        monkeypatch.setattr(harness, "fit_nmf",
                            lambda *args: calls.append(args))
        cfg = replace(small_cfg, out_dir=str(tmp_path))
        paths, row = run_single(cfg, "nmf", 4, tau, 0, state=state)
        assert calls == []
        assert row.status == "failed"
        assert row.reason == (
            f"ValueError: tau must be finite and nonnegative, got {tau}")
        assert paths == []


class TestSeparate:
    @pytest.mark.parametrize("n_arrays", [2, 3])
    @pytest.mark.parametrize("k", [6, 30])
    def test_ntf_estimates_follow_array_order(self, n_arrays, k):
        # every array hears the target plus an interferer of its own; the
        # NTF's classes permute with the arrays, so its estimates do too.
        # NMF draws its init in concatenation order and is not equivariant,
        # and the fused output moves with the anchor array.
        voices = default_voices(n_arrays + 1, 1.2, 16000)
        cfg = StftConfig()
        Y = stft(np.stack([voices[0].samples + 2.0 * v.samples
                           for v in voices[1:]]), cfg)
        perm = [1, 0] if n_arrays == 2 else [2, 0, 1]
        Yp = replace(Y, values=Y.values[perm])
        _, assignment = _fit(Y, "ntf", k, 100.0, 3, 40, 20)
        assert 0 < assignment.h.sum() < k
        waves, _ = separate(Y, "ntf", k, 100.0, 3, 40, 20)
        moved, _ = separate(Yp, "ntf", k, 100.0, 3, 40, 20)
        for got, a in zip(moved, perm, strict=True):
            want = waves[a].samples
            assert (np.linalg.norm(got.samples - want)
                    <= 1e-9 * np.linalg.norm(want))

    @pytest.mark.parametrize("tau", [float("nan"), float("inf"), -1.0])
    def test_bad_tau_refused_before_the_fit(self, state, tau, monkeypatch):
        def no_fit(*args):
            raise AssertionError("fit_nmf called")

        monkeypatch.setattr(harness, "fit_nmf", no_fit)
        with pytest.raises(ValueError, match="tau"):
            separate(state.bf_tensor, "nmf", 4, tau, 0, 12, 6)

    @pytest.mark.parametrize("method, hyper", [("nmf", 0.05), ("ntf", 10.0)])
    def test_no_iterations_refused_before_the_fit(self, state, method, hyper,
                                                  monkeypatch):
        # zero steps would return the estimate of the unfitted random start
        def no_fit(*args):
            raise AssertionError("fit called")

        monkeypatch.setattr(harness, "fit_nmf", no_fit)
        monkeypatch.setattr(harness, "fit_ntf", no_fit)
        with pytest.raises(ValueError, match="iterations"):
            separate(state.bf_tensor, method, 4, hyper, 0, 0, 0)


class TestRunExperiment:
    def test_row_count_matches_grid(self, small_cfg, experiment):
        rows, _ = experiment
        assert len(rows) == len(enumerate_tasks(small_cfg))
        assert all(r.status == "ok" for r in rows)

    def test_rows_sorted_by_key(self, experiment):
        rows, _ = experiment
        keys = [r.sort_key() for r in rows]
        assert keys == sorted(keys)

    def test_output_files_exist(self, small_cfg, experiment):
        out = Path(small_cfg.out_dir)
        assert (out / "results.csv").exists()
        assert (out / "summary.csv").exists()
        assert (out / "manifest.json").exists()
        assert not (out / "plots").exists()

    def test_results_csv_schema(self, small_cfg, experiment):
        lines = (Path(small_cfg.out_dir) / "results.csv").read_text().splitlines()
        assert lines[0] == "# schema: spotform/results/v3"
        header = lines[1].split(",")
        assert header[:6] == ["method", "n_arrays", "t60", "k", "tau_or_mu",
                              "seed"]
        assert len(lines) == 2 + len(experiment[0])

    def test_results_csv_writes_a_failed_timeout_row(self, tmp_path):
        nan = float("nan")
        row = ResultRow("nmf", 2, 0.3, 4, 0.05, 1, nan, nan, nan,
                        status="failed", reason="timeout")
        write_results_csv(tmp_path / "results.csv", [row])
        lines = (tmp_path / "results.csv").read_text().splitlines()
        assert lines[2:] == ["nmf,2,0.3,4,0.05,1,nan,nan,nan,failed,timeout"]

    def test_deterministic_apart_from_runtime(self, small_cfg, tmp_path):
        cfg2 = replace(small_cfg, out_dir=str(tmp_path / "rerun"))
        rows2, _ = run_experiment(cfg2)
        rows1, _ = run_experiment(replace(small_cfg,
                                          out_dir=str(tmp_path / "rerun2")))
        strip = lambda r: (r.method, r.k, r.tau_or_mu, r.seed,
                           r.sdr_filtered_db, r.sdr_si_db, r.status, r.reason)
        assert [strip(r) for r in rows1] == [strip(r) for r in rows2]

    def test_summary_matches_rows(self, small_cfg, experiment):
        rows, stats = experiment
        vals = [r.sdr_filtered_db for r in rows
                if (r.method, r.k, r.tau_or_mu) == ("ntf", 4, 10.0)]
        st = stats[("ntf", "filtered-sdr", 4, 10.0)]
        assert st.n == len(vals) == 2
        assert st.mean_db == pytest.approx(np.mean(vals), abs=1e-12)

    def test_manifest_restates_config(self, small_cfg, experiment):
        doc = json.loads((Path(small_cfg.out_dir) / "manifest.json").read_text())
        assert doc["config"] == small_cfg.to_dict()
        assert doc["n_rows"] == len(experiment[0])
        assert doc["n_failed"] == 0

    def test_one_bf_only_row_per_array(self, small_cfg, state, tmp_path):
        cfg = replace(small_cfg, methods=("bf-only",), n_seeds=3,
                      out_dir=str(tmp_path))
        rows, stats = run_experiment(cfg)
        assert [(r.tau_or_mu, r.seed) for r in rows] == [(0.0, 0), (1.0, 0)]
        assert all(stats[("bf-only", variant, 0, r.tau_or_mu)].n == 1
                   for r in rows for variant in ("filtered-sdr", "si-sdr"))
        summary = (tmp_path / "summary.csv").read_text().splitlines()
        assert summary[0] == "# schema: spotform/summary/v2"
        assert [line.split(",")[4] for line in summary[2:]] == ["1"] * 4
        # the row is the same whatever seed index it is asked for
        for want in rows:
            for s in range(cfg.n_seeds):
                _, row = run_single(cfg, "bf-only", 0, want.tau_or_mu, s,
                                    state=state)
                assert row.status == want.status == "ok"
                assert row.sdr_filtered_db == want.sdr_filtered_db
                assert row.sdr_si_db == want.sdr_si_db

    def test_worker_pool_matches_inline(self, small_cfg, tmp_path):
        cfg = replace(small_cfg, methods=("bf-only", "ntf"), n_seeds=1,
                      workers=2, out_dir=str(tmp_path / "pool"))
        rows_pool, _ = run_experiment(cfg)
        rows_inline, _ = run_experiment(
            replace(cfg, workers=1, out_dir=str(tmp_path / "inline")))
        strip = lambda r: (r.method, r.k, r.tau_or_mu, r.seed,
                           r.sdr_filtered_db, r.sdr_si_db)
        assert [strip(r) for r in rows_pool] == [strip(r) for r in rows_inline]

    def test_nmf_fits_once_per_k_and_seed(self, tau_cfg, tmp_path,
                                          monkeypatch):
        calls = []
        fit_nmf = harness.fit_nmf

        def counting_fit_nmf(C, K, iterations, seed, **kwargs):
            calls.append((K, seed))
            return fit_nmf(C, K, iterations, seed, **kwargs)

        monkeypatch.setattr(harness, "fit_nmf", counting_fit_nmf)
        rows, _ = run_experiment(replace(tau_cfg, out_dir=str(tmp_path)))
        assert len(rows) == 6 and all(r.status == "ok" for r in rows)
        assert sorted(calls) == sorted(
            (4, derive_seed(tau_cfg.master_seed, "nmf", 4, 0.0, s))
            for s in range(2))

    def test_failing_fit_runs_once_per_group(self, tau_cfg, tmp_path,
                                             monkeypatch):
        calls = []

        def failing_fit_nmf(C, K, iterations, seed):
            calls.append(seed)
            raise FloatingPointError("numerical divergence at iteration 3")

        monkeypatch.setattr(harness, "fit_nmf", failing_fit_nmf)
        cfg = replace(tau_cfg, out_dir=str(tmp_path))
        rows, _ = run_experiment(cfg)
        assert len(calls) == len(_group_tasks(enumerate_tasks(cfg))) == 2
        assert len(rows) == 6 and all(
            r.status == "failed" and r.reason == (
                "FloatingPointError: numerical divergence at iteration 3")
            for r in rows)

    def test_row_that_fits_carries_the_fit_time(self, tau_cfg, state,
                                                monkeypatch):
        # the group's first row makes the fit and the later rows reuse it,
        # so a 0.3 s fit shows in the first row's runtime_ms alone
        fit = harness._fit

        def slow_fit(*args):
            time.sleep(0.3)
            return fit(*args)

        monkeypatch.setattr(harness, "_fit", slow_fit)
        group = _group_tasks(enumerate_tasks(tau_cfg))[0]
        assert len(group) == 3
        rows = _run_group(tau_cfg, state, group)
        assert all(r.status == "ok" for r in rows)
        assert rows[0].runtime_ms >= 300
        assert all(r.runtime_ms < 300 for r in rows[1:])

    def test_each_reference_prepared_once_per_sweep(self, tau_cfg, tmp_path,
                                                    monkeypatch):
        calls = []
        prepare = evaluate.prepare_reference

        def counting_prepare(reference, filter_taps):
            calls.append(filter_taps)
            return prepare(reference, filter_taps)

        monkeypatch.setattr(evaluate, "prepare_reference", counting_prepare)
        monkeypatch.setattr(harness, "prepare_reference", counting_prepare)
        cfg = replace(tau_cfg, methods=("bf-only", "nmf"), out_dir=str(tmp_path))
        rows, _ = run_experiment(cfg)
        # bf-only scores against both arrays' references, nmf against array 0
        assert len(rows) == 8 and all(r.status == "ok" for r in rows)
        assert calls == [cfg.filter_taps] * cfg.scene.n_arrays

    def test_each_predictor_built_once_per_sweep(self, tau_cfg, tmp_path,
                                                 monkeypatch):
        # the Levinson-Durbin predictor depends on the reference alone, so
        # an inline sweep builds it on the first row scored against each
        # reference and reuses it for the rest
        calls = []
        durbin = evaluate._levinson_durbin

        def counting_durbin(auto):
            calls.append(auto.shape[0])
            return durbin(auto)

        monkeypatch.setattr(evaluate, "_levinson_durbin", counting_durbin)
        cfg = replace(tau_cfg, methods=("bf-only", "nmf"), out_dir=str(tmp_path))
        rows, _ = run_experiment(cfg)
        assert len(rows) == 8 and all(r.status == "ok" for r in rows)
        assert calls == [cfg.filter_taps] * cfg.scene.n_arrays

    def test_prepared_references_own_their_samples(self, small_cfg, state):
        # a view into the rendered images would keep the whole
        # (source, array, mic, sample) tensor alive as long as the sweep,
        # in every forked worker too; the copy scores as the view did
        obs = render_observations(load_sources(small_cfg),
                                  simulate_rirs(small_cfg.scene))
        tgt, taps = small_cfg.scene.target_index, small_cfg.filter_taps
        for a, prepared in enumerate(state.prepared):
            samples = prepared.waveform.samples
            assert samples.flags.owndata and samples.base is None
            view = Waveform(obs.images[tgt, a, 0], obs.sample_rate)
            np.testing.assert_array_equal(samples, view.samples)
            assert (filtered_sdr(state.bf_waves[a], prepared, taps)
                    == filtered_sdr(state.bf_waves[a], view, taps))

    @pytest.mark.parametrize("method", ["bf-only", "nmf", "ntf"])
    def test_run_single_reproduces_every_row(self, method, small_cfg, tau_cfg,
                                             tau_sweep, ntf_cfg, state,
                                             tmp_path):
        if method == "nmf":
            cfg, rows = tau_cfg, tau_sweep
        else:
            base = ntf_cfg if method == "ntf" else small_cfg
            cfg = replace(base, methods=(method,), out_dir=str(tmp_path))
            rows, _ = run_experiment(cfg)
        assert rows and all(r.method == method for r in rows)
        for want in rows:
            _, row = run_single(cfg, method, want.k, want.tau_or_mu,
                                want.seed, state=state)
            assert row.status == want.status == "ok"
            assert row.sdr_filtered_db == want.sdr_filtered_db
            assert row.sdr_si_db == want.sdr_si_db

    def test_grouped_pool_matches_inline(self, tau_cfg, tau_sweep, tmp_path):
        rows_pool, _ = run_experiment(
            replace(tau_cfg, workers=2, out_dir=str(tmp_path)))
        strip = lambda r: (r.method, r.k, r.tau_or_mu, r.seed,
                           r.sdr_filtered_db, r.sdr_si_db, r.status)
        assert [strip(r) for r in rows_pool] == [strip(r) for r in tau_sweep]

    def test_group_timeout_fails_every_row_of_the_group(self, tau_cfg,
                                                        tmp_path):
        # no fit finishes within microseconds of its group's start
        rows, _ = run_experiment(replace(tau_cfg, workers=2, timeout_s=1e-6,
                                         out_dir=str(tmp_path)))
        assert len(rows) == 6
        # no row finished, so no runtime was measured
        assert all(r.status == "failed" and r.reason == "timeout"
                   and np.isnan(r.runtime_ms) for r in rows)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_hung_group_ends_on_time(self, tau_cfg, tmp_path, monkeypatch,
                                     workers):
        hung = derive_seed(tau_cfg.master_seed, "nmf", 4, 0.0, 1)
        fit_nmf = harness.fit_nmf

        def hanging_fit_nmf(C, K, iterations, seed):
            if seed == hung:
                time.sleep(30)
            return fit_nmf(C, K, iterations, seed)

        monkeypatch.setattr(harness, "fit_nmf", hanging_fit_nmf)
        cfg = replace(tau_cfg, workers=workers, timeout_s=1.0,
                      out_dir=str(tmp_path))
        start = time.perf_counter()
        rows, _ = run_experiment(cfg)
        assert time.perf_counter() - start < cfg.timeout_s + 2.0
        assert len(rows) == 6
        for r in rows:
            if r.seed == 1:
                assert r.status == "failed" and r.reason == "timeout"
                assert np.isnan(r.runtime_ms)
            else:
                assert r.status == "ok" and np.isfinite(r.runtime_ms)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_rows_before_the_deadline_keep_their_scores(
            self, tau_cfg, tau_sweep, tmp_path, monkeypatch, workers):
        # seed 1's group overruns at its second tau, after its first row
        hung = derive_seed(tau_cfg.master_seed, "nmf", 4, 0.0, 1)
        fit_nmf, extract = harness.fit_nmf, harness._extract
        hung_models = []

        def marking_fit_nmf(C, K, iterations, seed):
            model = fit_nmf(C, K, iterations, seed)
            if seed == hung:
                hung_models.append(model)
            return model

        def hanging_extract(Y, method, fit, hyper):
            if (any(fit is m for m in hung_models)
                    and hyper == tau_cfg.tau_grid[1]):
                time.sleep(30)
            return extract(Y, method, fit, hyper)

        monkeypatch.setattr(harness, "fit_nmf", marking_fit_nmf)
        monkeypatch.setattr(harness, "_extract", hanging_extract)
        cfg = replace(tau_cfg, workers=workers, timeout_s=1.0,
                      out_dir=str(tmp_path))
        start = time.perf_counter()
        rows, _ = run_experiment(cfg)
        assert time.perf_counter() - start < cfg.timeout_s + 2.0
        for r, want in zip(rows, tau_sweep, strict=True):
            if r.seed == 1 and r.tau_or_mu != tau_cfg.tau_grid[0]:
                assert r.status == "failed" and r.reason == "timeout"
                assert np.isnan(r.runtime_ms)
            else:
                assert r.status == "ok"
                assert r.sdr_filtered_db == want.sdr_filtered_db

    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="the patched group must reach forked workers")
    def test_dead_worker_fails_only_the_groups_without_rows(
            self, small_cfg, experiment, tmp_path, monkeypatch):
        # os._exit stands in for a worker killed by the kernel
        run_group = harness._run_group

        def dying_run_group(cfg, state, group):
            if group[0][0] == "ntf" and group[0][3] == 0:
                os._exit(9)
            return run_group(cfg, state, group)

        monkeypatch.setattr(harness, "_run_group", dying_run_group)
        out = tmp_path / "out"
        rows, _ = run_experiment(replace(small_cfg, workers=2,
                                         out_dir=str(out)))
        inline, _ = experiment
        strip = lambda r: (r.method, r.k, r.tau_or_mu, r.seed,
                           r.sdr_filtered_db, r.sdr_si_db)
        assert [strip(r)[:4] for r in rows] == [strip(r)[:4] for r in inline]
        assert any(r.status == "ok" for r in rows)
        for r, want in zip(rows, inline, strict=True):
            if r.status == "ok":
                assert strip(r) == strip(want)
            else:
                assert r.reason == "worker died (BrokenProcessPool)"
                assert np.isnan(r.runtime_ms)
            if r.method == "ntf" and r.seed == 0:
                assert r.status == "failed"
        for name in ("results.csv", "summary.csv", "manifest.json"):
            assert (out / name).exists()
        doc = json.loads((out / "manifest.json").read_text())
        assert doc["n_failed"] == sum(r.status != "ok" for r in rows) > 0

    def test_sweep_leaves_no_timer_or_handler(self, tau_cfg, tmp_path):
        def stray(signum, frame):
            raise AssertionError("SIGALRM after the sweep")

        previous = signal.signal(signal.SIGALRM, stray)
        try:
            for timeout_s, status in ((600.0, "ok"), (1e-6, "failed")):
                rows, _ = run_experiment(replace(
                    tau_cfg, timeout_s=timeout_s,
                    out_dir=str(tmp_path / str(timeout_s))))
                assert all(r.status == status for r in rows)
                assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
                assert signal.getsignal(signal.SIGALRM) is stray
        finally:
            signal.signal(signal.SIGALRM, previous)

    def test_missing_combination_listed_in_manifest(self, small_cfg,
                                                    experiment, tmp_path,
                                                    monkeypatch):
        doc = json.loads((Path(small_cfg.out_dir) / "manifest.json").read_text())
        assert doc["missing_combinations"] == []

        def failing_fit_ntf(*args, **kwargs):
            raise RuntimeError("no fit")

        monkeypatch.setattr(harness, "fit_ntf", failing_fit_ntf)
        rows, _ = run_experiment(replace(small_cfg, out_dir=str(tmp_path)))
        assert sum(r.status != "ok" for r in rows) == small_cfg.n_seeds
        doc = json.loads((tmp_path / "manifest.json").read_text())
        assert doc["missing_combinations"] == [["ntf", 4, 10.0]]


    def test_fits_compute_no_cost(self, small_cfg, sources, tmp_path,
                                  monkeypatch):
        # nothing in the sweep or the CLI reads the cost
        def no_cost(*args, **kwargs):
            raise AssertionError("cost evaluated")

        monkeypatch.setattr(ntf, "evaluate_cost", no_cost)
        rows, _ = run_experiment(replace(small_cfg, out_dir=str(tmp_path)))
        assert rows and all(r.status == "ok" for r in rows)
        assert main(["spotform", *sources, "--method", "ntf", "--k", "4",
                     "--hyper", "10", "--iterations", "6", "--warmup", "3",
                     "--out", str(tmp_path / "spot")]) == 0


class TestCli:
    def test_eval_prints_both_metrics(self, sources, capsys):
        assert main(["eval", sources[0], sources[0]]) == 0
        out = capsys.readouterr().out
        assert f"filtered_sdr_db={filtered_sdr(read_wav(sources[0]), read_wav(sources[0])):.4f}" in out
        assert "si_sdr_db=" in out

    def test_eval_rejects_mismatched_rates(self, sources, tmp_path):
        other = tmp_path / "8k.wav"
        write_wav(other, Waveform(read_wav(sources[0]).samples, 8000))
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(other), sources[0]])
        msg = str(exc.value.code)
        assert msg.startswith("spotform: ") and "rate" in msg

    def test_simulate_writes_rirs_and_observations(self, tmp_path, capsys):
        code = main(["simulate", "--arrays", "1", "--duration", "0.4",
                     "--out", str(tmp_path / "sim")])
        assert code == 0
        assert (tmp_path / "sim" / "rirs.npz").exists()
        assert (tmp_path / "sim" / "obs_a0m0.wav").exists()
        doc = json.loads((tmp_path / "sim" / "simulate_manifest.json").read_text())
        assert doc["n_arrays"] == 1 and doc["n_mics"] == 3

    def test_spotform_writes_estimates(self, sources, tmp_path, capsys):
        code = main(["spotform", sources[0], sources[1], "--method", "nmf",
                     "--k", "3", "--hyper", "0.01", "--iterations", "8",
                     "--out", str(tmp_path / "spot")])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "spot").iterdir())
        assert names == ["estimate_array0.wav", "estimate_array1.wav",
                         "estimate_fused.wav"]

    # the ntf case is sized so that the mask keeps only some bases
    @pytest.mark.parametrize("method, k, hyper, iterations, warmup",
                             [("nmf", 3, 0.01, 8, 4), ("ntf", 6, 1000.0, 20, 10)])
    def test_spotform_writes_separate_output(self, sources, tmp_path, capsys,
                                             method, k, hyper, iterations,
                                             warmup):
        # the middle input ends 1000 samples early, not a whole number of
        # hops, so no frame count alone gives the length every WAV is cut to
        waves = [read_wav(p) for p in sources]
        n = len(waves[1]) - 1000
        cfg = StftConfig(sample_rate=waves[1].sample_rate)
        assert n < min(len(w) for w in waves) and n % cfg.hop != 0
        short = tmp_path / "short.wav"
        write_wav(short, Waveform(waves[1].samples[:n], cfg.sample_rate))
        code = main(["spotform", sources[0], str(short), sources[2],
                     "--method", method, "--k", str(k), "--hyper", str(hyper),
                     "--seed", "7", "--iterations", str(iterations),
                     "--warmup", str(warmup), "--out", str(tmp_path / "spot")])
        assert code == 0
        names = sorted(p.name for p in (tmp_path / "spot").iterdir())
        assert names == ["estimate_array0.wav", "estimate_array1.wav",
                         "estimate_array2.wav", "estimate_fused.wav"]
        Y = stft(np.stack([w.samples[:n] for w in waves]), cfg)
        want, want_fused = separate(Y, method, k, hyper, 7, iterations, warmup)
        got = [read_wav(tmp_path / "spot" / name) for name in names]
        for g, w in zip(got, [*want, want_fused], strict=True):
            assert g.samples.shape == (n,)
            # the CLI writes float32 WAVs
            np.testing.assert_array_equal(g.samples,
                                          w.samples.astype(np.float32))

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_spotform_fails_on_a_silent_input_after_writing(self, sources,
                                                             tmp_path, capsys):
        silent = tmp_path / "silent.wav"
        write_wav(silent, Waveform(np.zeros(len(read_wav(sources[1]))), 16000))
        with pytest.raises(SystemExit) as exc:
            main(["spotform", sources[0], str(silent), "--method", "ntf",
                  "--k", "6", "--hyper", "100", "--iterations", "20",
                  "--warmup", "10", "--out", str(tmp_path / "spot")])
        assert str(exc.value.code) == (
            f"spotform: the fused estimate is all zero; silent input: {silent}")
        assert capsys.readouterr().err.splitlines() == [
            "spotform: warning: no basis kept for the target class; output "
            "is zero",
            "spotform: warning: all-zero estimate contributes nothing to the "
            "fusion"]
        names = sorted(p.name for p in (tmp_path / "spot").iterdir())
        assert names == ["estimate_array0.wav", "estimate_array1.wav",
                         "estimate_fused.wav"]

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_spotform_fails_when_no_basis_is_kept(self, sources, tmp_path,
                                                  capsys):
        # no activation exceeds this tau, so the mask keeps nothing
        with pytest.raises(SystemExit) as exc:
            main(["spotform", sources[0], sources[1], "--method", "nmf",
                  "--k", "3", "--hyper", "1e9", "--iterations", "8",
                  "--out", str(tmp_path / "spot")])
        assert str(exc.value.code) == ("spotform: the fused estimate is all "
                                       "zero; no basis was kept for the "
                                       "target class")
        assert capsys.readouterr().err.splitlines() == [
            "spotform: warning: no basis kept for the target class; output "
            "is zero",
            "spotform: warning: all-zero estimate contributes nothing to the "
            "fusion"]
        assert not np.any(read_wav(tmp_path / "spot" / "estimate_fused.wav")
                          .samples)

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_spotform_prints_a_warning_and_still_succeeds(self, sources,
                                                          tmp_path, capsys):
        # 1.2 s at a 16 ms hop is 75 frames, fewer than K
        code = main(["spotform", sources[0], sources[1], "--method", "ntf",
                     "--k", "80", "--hyper", "0", "--iterations", "4",
                     "--warmup", "2", "--out", str(tmp_path / "spot")])
        assert code == 0
        assert capsys.readouterr().err.splitlines() == [
            "spotform: warning: K=80 exceeds min(A*I, J)=75; proceeding"]

    def test_spotform_rejects_cd_rate_with_message(self, sources, tmp_path):
        # a 32 ms window is not a whole number of samples at 44100 Hz
        paths = []
        for i, p in enumerate(sources[:2]):
            paths.append(str(tmp_path / f"cd{i}.wav"))
            write_wav(paths[-1], Waveform(read_wav(p).samples, 44100))
        with pytest.raises(SystemExit) as exc:
            main(["spotform", *paths, "--method", "nmf", "--hyper", "0.01",
                  "--iterations", "4", "--out", str(tmp_path / "spot")])
        msg = str(exc.value.code)
        assert msg.startswith("spotform: ") and "44100 Hz" in msg
        assert not (tmp_path / "spot").exists()

    def test_spotform_rejects_mixed_rates_with_message(self, sources,
                                                       tmp_path):
        other = tmp_path / "8k.wav"
        write_wav(other, Waveform(read_wav(sources[1]).samples, 8000))
        with pytest.raises(SystemExit) as exc:
            main(["spotform", sources[0], str(other), "--method", "nmf",
                  "--hyper", "0.01", "--iterations", "4",
                  "--out", str(tmp_path / "spot")])
        msg = str(exc.value.code)
        assert msg.startswith("spotform: ")
        assert "16000 Hz" in msg and "8000 Hz" in msg
        assert not (tmp_path / "spot").exists()

    def test_spotform_rejects_empty_wav_with_message(self, sources, tmp_path):
        empty = tmp_path / "empty.wav"
        write_wav(empty, Waveform(np.zeros(0), 16000))
        with pytest.raises(SystemExit) as exc:
            main(["spotform", sources[0], str(empty), "--method", "nmf",
                  "--hyper", "0.01", "--iterations", "4",
                  "--out", str(tmp_path / "spot")])
        assert str(exc.value.code) == f"spotform: {empty} has no samples"
        assert not (tmp_path / "spot").exists()

    @pytest.mark.parametrize("command", ["spotform", "eval", "eval-reference"])
    @pytest.mark.parametrize("case, message", [
        ("missing", "No such file or directory"),
        ("malformed", "no data chunk"),
    ])
    def test_unreadable_wav_ends_with_message(self, sources, tmp_path,
                                              command, case, message):
        bad = tmp_path / f"{case}.wav"
        if case == "malformed":
            bad.write_bytes(b"RIFF\x04\x00\x00\x00WAVE")
        argv = {"spotform": ["spotform", sources[0], str(bad), "--method",
                             "nmf", "--hyper", "0.01", "--iterations", "4",
                             "--out", str(tmp_path / "spot")],
                "eval": ["eval", str(bad), sources[0]],
                "eval-reference": ["eval", sources[0], str(bad)]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        msg = str(exc.value.code)
        assert msg.startswith(f"spotform: {bad}: ") and message in msg
        assert not (tmp_path / "spot").exists()

    @pytest.mark.parametrize("method, argv, message", [
        ("nmf", ["--k", "0"], "--k must be >= 1, got 0"),
        ("ntf", ["--hyper", "-1"],
         "--hyper must be a finite number >= 0, got -1.0"),
        ("nmf", ["--hyper", "-1"],
         "--hyper must be a finite number >= 0, got -1.0"),
        ("ntf", ["--hyper", "nan"],
         "--hyper must be a finite number >= 0, got nan"),
        ("nmf", ["--iterations", "0"], "--iterations must be >= 1, got 0"),
        ("ntf", ["--warmup", "20", "--iterations", "10"],
         "--warmup must lie in 0..--iterations (10), got 20"),
        ("ntf", ["--seed", "-1"], "--seed must be >= 0, got -1"),
    ], ids=["k", "ntf-hyper", "nmf-hyper", "nan-hyper", "iterations",
            "warmup", "seed"])
    def test_spotform_rejects_bad_numbers_with_message(
            self, sources, tmp_path, monkeypatch, method, argv, message):
        def no_read(path):
            raise AssertionError("read a WAV before checking the arguments")

        monkeypatch.setattr(cli, "read_wav", no_read)
        with pytest.raises(SystemExit) as exc:
            main(["spotform", sources[0], sources[1], "--method", method,
                  "--hyper", "0.01", *argv, "--out", str(tmp_path / "spot")])
        assert str(exc.value.code) == f"spotform: {message}"
        assert not (tmp_path / "spot").exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    def test_config_with_missing_key_rejected_with_message(
            self, small_cfg, tmp_path, command):
        cases = [
            (lambda d: d.pop("n_seeds"), "config is missing n_seeds"),
            (lambda d: d["scene"].pop("t60"), "config is missing scene.t60"),
            (lambda d: d["scene"]["arrays"][0].pop("spacing"),
             "config is missing scene.arrays[0].spacing"),
            (lambda d: d.update(n_seed=3), "config has unknown keys n_seed"),
            (lambda d: d["stft"].update(hop=256),
             "config has unknown keys stft.hop"),
            (lambda d: d.update(n_seeds="3"),
             "config has wrong types at n_seeds (expected integer)"),
            (lambda d: d.update(n_seeds=1.5),
             "config has wrong types at n_seeds (expected integer)"),
            (lambda d: d.update(k_grid=10),
             "config has wrong types at k_grid (expected list)"),
            (lambda d: d.update(k_grid=[10.5]),
             "config has wrong types at k_grid[0] (expected integer)"),
            (lambda d: d.update(methods="nmf"),
             "config has wrong types at methods (expected list)"),
            (lambda d: d.update(scene=[]),
             "config has wrong types at scene (expected object)"),
            (lambda d: d["scene"].update(room=[6.0]),
             "config has wrong types at scene.room (expected list of 2)"),
            (lambda d: d["scene"]["arrays"][0].update(n_mics="3"),
             "config has wrong types at scene.arrays[0].n_mics "
             "(expected integer)"),
            (lambda d: d["stft"].update(window=5),
             "config has wrong types at stft.window (expected string)"),
            (lambda d: d.update(workers=True),
             "config has wrong types at workers (expected integer)"),
            (lambda d: (d.pop("k_grid"), d.update(n_seed=3, n_seeds="3")),
             "config is missing k_grid; config has unknown keys n_seed; "
             "config has wrong types at n_seeds (expected integer)"),
            (lambda d: d["scene"].update(t60=float("inf")),
             "t60 must be finite and nonnegative"),
            (lambda d: d["scene"].update(t60=float("nan")),
             "t60 must be finite and nonnegative"),
            (lambda d: d["scene"].update(speed_of_sound=float("inf")),
             "speed_of_sound must be finite"),
            (lambda d: d["scene"].update(speed_of_sound=float("nan")),
             "speed_of_sound must be finite"),
            (lambda d: d["scene"]["room"].__setitem__(0, float("inf")),
             "room sides must be finite"),
            (lambda d: d["scene"]["room"].__setitem__(1, float("nan")),
             "room sides must be finite"),
            (lambda d: d["stft"].update(window_length_ms=float("inf")),
             "window_length_ms and hop_ms must be finite"),
            (lambda d: d["stft"].update(hop_ms=float("nan")),
             "window_length_ms and hop_ms must be finite"),
        ]
        texts = []
        for edit, message in cases:
            d = small_cfg.to_dict()
            edit(d)
            texts.append((json.dumps(d), message))
        texts.append(("[]", "config has wrong types at top level "
                            "(expected object)"))
        for text, message in texts:
            cfg_path = tmp_path / "exp.json"
            cfg_path.write_text(text)
            with pytest.raises(SystemExit) as exc:
                main([command, "--config", str(cfg_path),
                      "--out", str(tmp_path / "out")])
            assert str(exc.value.code) == f"spotform: {cfg_path}: {message}"
            assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["run", "simulate"])
    @pytest.mark.parametrize("edit, message", [
        (lambda d: d["source_paths"].__setitem__(0, "no_such.wav"),
         "No such file"),
        (lambda d: d["scene"].update(t60=10.0), "t60 unreachable"),
    ], ids=["missing-source", "t60-unreachable"])
    def test_setup_failure_ends_with_message(self, small_cfg, tmp_path,
                                             command, edit, message):
        # fails before anything is written, so no empty --out is left
        d = small_cfg.to_dict()
        edit(d)
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg_path),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code).startswith("spotform: ")
        assert message in str(exc.value.code)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["--arrays", "4"], ["--arrays", "0"], ["--t60", "-1"], ["--t60", "nan"],
        ["--duration", "0"], ["--duration", "-1"], ["--duration", "nan"],
        ["--seed", "-1"], ["--t60", "5"],
    ], ids=["arrays-4", "arrays-0", "t60-negative", "t60-nan", "duration-0",
            "duration-negative", "duration-nan", "seed-negative",
            "t60-unreachable"])
    def test_simulate_bad_argument_ends_with_message(self, tmp_path, argv):
        # the default scene, its RIRs and its sources are checked before
        # anything is written, so not even the sources directory is left
        # under --out
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--duration", "0.4", *argv,
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code).startswith("spotform: ")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, message", [
        (["--duration", "0"],
         "duration must be a finite number of seconds > 0, got 0.0"),
        (["--seed", "-1"], "seed must be >= 0, got -1"),
        (["--duration", "0.00001"],
         "duration 1e-05 s rounds to no sample at 16000 Hz"),
    ], ids=["duration-0", "seed-negative", "duration-under-a-sample"])
    def test_simulate_checks_voice_arguments_before_simulating(
            self, tmp_path, monkeypatch, argv, message):
        # a bad --duration or --seed is refused before the RIRs, which take
        # about a second at this t60
        def no_rirs(scene):
            raise AssertionError("simulated RIRs before checking arguments")

        monkeypatch.setattr(cli, "simulate_rirs", no_rirs)
        with pytest.raises(SystemExit) as exc:
            main(["simulate", "--t60", "0.6", *argv,
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == f"spotform: {message}"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command", ["spotform", "simulate", "run"])
    def test_out_naming_an_existing_file_ends_with_message(
            self, small_cfg, sources, tmp_path, capsys, command):
        # no command writes under a file; each ends at main's one boundary
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg_path = tmp_path / "exp.json"
        replace(small_cfg, methods=("bf-only",), n_seeds=1).save(cfg_path)
        argv = {"spotform": ["spotform", sources[0], sources[1], "--method",
                             "ntf", "--k", "4", "--hyper", "10",
                             "--iterations", "4", "--warmup", "2"],
                "simulate": ["simulate", "--config", str(cfg_path)],
                "run": ["run", "--config", str(cfg_path)]}[command]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        msg = str(exc.value.code)
        assert msg.startswith("spotform: ") and str(out) in msg
        assert "Traceback" not in capsys.readouterr().err
        assert out.read_text() == "not a directory"

    @pytest.mark.parametrize("command, no_work", [
        ("spotform", "read_wav"), ("simulate", "simulate_rirs"),
        ("run", "run_experiment"), ("run-config", "run_experiment")])
    def test_out_not_a_directory_is_refused_before_any_work(
            self, small_cfg, sources, tmp_path, monkeypatch, command,
            no_work):
        def refuse(*args, **kwargs):
            raise AssertionError(f"{no_work} ran before --out was checked")

        monkeypatch.setattr(cli, no_work, refuse)
        out = tmp_path / "taken"
        out.write_text("not a directory")
        cfg_path = tmp_path / "exp.json"
        replace(small_cfg, out_dir=str(out)).save(cfg_path)
        argv = {"spotform": ["spotform", sources[0], sources[1], "--method",
                             "ntf", "--hyper", "10", "--out", str(out)],
                "simulate": ["simulate", "--out", str(out)],
                "run": ["run", "--config", str(cfg_path), "--out", str(out)],
                "run-config": ["run", "--config", str(cfg_path)]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        name = f"{cfg_path}: out_dir" if command == "run-config" else "--out"
        assert str(exc.value.code) == (
            f"spotform: {name} {out} is not a directory")
        assert out.read_text() == "not a directory"

    def test_run_names_the_silent_source(self, small_cfg, tmp_path):
        # normalize_energy says only "silent source"; the config lists three
        silent = tmp_path / "silent.wav"
        write_wav(silent, Waveform(np.zeros(8000), 16000))
        paths = small_cfg.source_paths
        cfg = replace(small_cfg, source_paths=(paths[0], str(silent), paths[2]),
                      methods=("bf-only",), n_seeds=1)
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == f"spotform: {silent}: silent source"
        assert not (tmp_path / "out").exists()

    def test_run_refuses_unequal_rates_when_loading_the_config(
            self, small_cfg, tmp_path, monkeypatch):
        # refused as the config loads, not after the RIRs are simulated
        def no_rirs(scene):
            raise AssertionError("simulated RIRs before checking the rates")

        monkeypatch.setattr(harness, "simulate_rirs", no_rirs)
        d = small_cfg.to_dict()
        d["stft"]["sample_rate"] = 8000
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == (
            f"spotform: {cfg_path}: stft.sample_rate 8000 Hz differs from "
            "scene.sample_rate 16000 Hz")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("taps", [0, -3])
    def test_eval_rejects_bad_taps_before_reading(self, tmp_path, taps):
        # the flag is checked first, so the missing WAVs are never opened
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(tmp_path / "missing_est.wav"),
                  str(tmp_path / "missing_ref.wav"), "--taps", str(taps)])
        assert str(exc.value.code) == (
            f"spotform: --taps must be >= 1, got {taps}")

    @pytest.mark.filterwarnings("default::UserWarning")
    @pytest.mark.parametrize("command", ["spotform", "eval"])
    def test_size_too_large_to_allocate_ends_with_message(
            self, sources, tmp_path, command):
        # each size asks for more than any address space holds (about
        # 1.8 EiB and 0.7 EiB), so the allocation fails before any is made
        out = tmp_path / "out"
        argv = {"spotform": ["spotform", sources[0], sources[1], "--method",
                             "ntf", "--hyper", "1", "--k", str(10**15),
                             "--out", str(out)],
                "eval": ["eval", sources[0], sources[1],
                         "--taps", str(10**17)]}[command]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value.code).startswith("spotform: Unable to allocate")
        assert not out.exists()

    def test_spotform_does_not_import_scipy_signal(self, sources, tmp_path):
        # importing scipy costs most of a short run's time and `spotform`
        # needs none of it, so a cold run of the command must load no scipy
        # module at all; scipy.signal, about a second alone, is named too
        script = (
            "import sys\n"
            "from spotform.cli import main\n"
            f"assert main(['spotform', {sources[0]!r}, {sources[1]!r}, "
            "'--method', 'nmf', '--k', '3', '--hyper', '0.01', "
            f"'--iterations', '4', '--out', {str(tmp_path / 'spot')!r}]) == 0\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "loaded = [m for m in sys.modules\n"
            "          if m == 'scipy' or m.startswith('scipy.')]\n"
            "assert not loaded, loaded\n"
        )
        src = str(Path(spotform.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       timeout=120)
        assert (tmp_path / "spot" / "estimate_fused.wav").exists()

    def test_simulate_and_sweep_do_not_import_scipy_signal(self, small_cfg,
                                                           sources, tmp_path):
        # scipy.signal costs about a second and 40 MB, and nothing needs it:
        # resampling a source recorded at another rate runs on numpy, and
        # every FFT on numpy.fft, so nothing loads scipy.fft either.  Writing
        # the demo sources and `spotform simulate` load no scipy at all, an
        # inline sweep and `spotform eval` neither scipy.signal nor scipy.fft
        cfg = replace(small_cfg, workers=1, out_dir=str(tmp_path / "run"))
        script = (
            "import sys\n"
            "from spotform.cli import main\n"
            "from spotform.harness import ExperimentConfig, run_experiment\n"
            "from spotform.synth import write_demo_sources\n"
            "def scipy_loaded():\n"
            "    return [m for m in sys.modules\n"
            "            if m == 'scipy' or m.startswith('scipy.')]\n"
            f"write_demo_sources({str(tmp_path / 'src')!r}, 3, 0.5, 16000)\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            "assert main(['simulate', '--duration', '0.5', '--out', "
            f"{str(tmp_path / 'sim')!r}]) == 0\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            f"run_experiment(ExperimentConfig.from_dict({cfg.to_dict()!r}))\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert 'scipy.fft' not in sys.modules\n"
            f"assert main(['eval', {sources[0]!r}, {sources[1]!r}]) == 0\n"
            "assert 'scipy.signal' not in sys.modules\n"
            "assert 'scipy.fft' not in sys.modules\n"
        )
        src = str(Path(spotform.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       timeout=120)
        assert (tmp_path / "run" / "results.csv").exists()
        assert (tmp_path / "sim" / "rirs.npz").exists()

    def test_sweep_resamples_a_44k_source_without_scipy(self, small_cfg,
                                                        tmp_path):
        # a source at 44.1 kHz is resampled to the scene's 16 kHz on numpy
        # alone, so the sweep runs where scipy cannot even be imported
        paths = write_demo_sources(tmp_path / "src", 3, 0.5, 44100, seed=0)
        cfg = replace(small_cfg, source_paths=tuple(map(str, paths)),
                      methods=("bf-only", "nmf"), n_seeds=1, workers=1,
                      out_dir=str(tmp_path / "run"))
        script = (
            "import sys\n"
            "sys.modules['scipy'] = None\n"
            "from spotform.harness import ExperimentConfig, run_experiment\n"
            f"rows, _ = run_experiment(ExperimentConfig.from_dict("
            f"{cfg.to_dict()!r}))\n"
            "assert rows and all(r.status == 'ok' for r in rows), rows\n"
        )
        src = str(Path(spotform.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       timeout=120)
        assert (tmp_path / "run" / "results.csv").exists()

    def test_command_and_inline_sweep_load_no_process_pool(self, small_cfg,
                                                            tmp_path):
        # the process pool is loaded only for a sweep with workers > 1
        cfg = replace(small_cfg, workers=1, out_dir=str(tmp_path / "run"))
        script = (
            "import sys\n"
            "import spotform.cli\n"
            "from spotform.harness import ExperimentConfig, run_experiment\n"
            "def pool_loaded():\n"
            "    return [m for m in ('multiprocessing',\n"
            "                        'concurrent.futures.process')\n"
            "            if m in sys.modules]\n"
            "assert not pool_loaded(), pool_loaded()\n"
            f"run_experiment(ExperimentConfig.from_dict({cfg.to_dict()!r}))\n"
            "assert not pool_loaded(), pool_loaded()\n"
        )
        src = str(Path(spotform.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       timeout=120)
        assert (tmp_path / "run" / "results.csv").exists()

    def test_scoring_loads_no_scipy(self, small_cfg, sources, tmp_path):
        # the normal equations are solved on numpy, so preparing the
        # references, scoring, an inline sweep and `spotform eval` load no
        # scipy module, nor does a pool worker forked after the preparing
        cfg = replace(small_cfg, workers=1, out_dir=str(tmp_path / "run"))
        script = (
            "import sys\n"
            "import numpy as np\n"
            "from spotform.cli import main\n"
            "from spotform.evaluate import filtered_sdr\n"
            "from spotform.harness import (ExperimentConfig, prepare_pipeline,\n"
            "                              run_experiment)\n"
            "from spotform.signal import Waveform\n"
            "def scipy_loaded():\n"
            "    return [m for m in sys.modules\n"
            "            if m == 'scipy' or m.startswith('scipy.')]\n"
            f"cfg = ExperimentConfig.from_dict({cfg.to_dict()!r})\n"
            "state = prepare_pipeline(cfg)\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            "x = np.random.default_rng(0).standard_normal(4000)\n"
            "filtered_sdr(Waveform(x, 16000), state.prepared[0], "
            "cfg.filter_taps)\n"
            "filtered_sdr(Waveform(x, 16000), Waveform(x[::-1], 16000), 64)\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            "run_experiment(cfg)\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
            f"assert main(['eval', {sources[0]!r}, {sources[1]!r}]) == 0\n"
            "assert not scipy_loaded(), scipy_loaded()\n"
        )
        src = str(Path(spotform.__file__).parents[1])
        subprocess.run([sys.executable, "-c", script], check=True,
                       env=dict(os.environ, PYTHONPATH=src),
                       timeout=120)
        assert (tmp_path / "run" / "results.csv").exists()

    def test_run_from_config_file(self, small_cfg, tmp_path, capsys):
        cfg = replace(small_cfg, methods=("bf-only",), n_seeds=1,
                      out_dir=str(tmp_path / "cli_out"))
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert (tmp_path / "cli_out" / "results.csv").exists()

    @pytest.mark.filterwarnings("default::UserWarning")
    def test_run_prints_a_row_warning_and_still_succeeds(self, small_cfg,
                                                          tmp_path, capsys):
        # the 1.2 s sources and their room's tail fill 77 frames at a 16 ms
        # hop, fewer than K
        cfg = replace(small_cfg, methods=("ntf",), k_grid=(80,),
                      mu_grid=(0.0,), n_seeds=1, iterations=4,
                      warmup_iterations=2, workers=1,
                      out_dir=str(tmp_path / "run"))
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        assert main(["run", "--config", str(cfg_path)]) == 0
        assert capsys.readouterr().err.splitlines() == [
            "spotform: warning: K=80 exceeds min(A*I, J)=77; proceeding"]

    def test_run_prints_why_rows_failed(self, tau_cfg, tmp_path,
                                        monkeypatch, capsys):
        hung = derive_seed(tau_cfg.master_seed, "nmf", 4, 0.0, 1)
        fit_nmf = harness.fit_nmf

        def hanging_fit_nmf(C, K, iterations, seed):
            if seed == hung:
                time.sleep(30)
            return fit_nmf(C, K, iterations, seed)

        monkeypatch.setattr(harness, "fit_nmf", hanging_fit_nmf)
        cfg = replace(tau_cfg, workers=1, timeout_s=1.0,
                      out_dir=str(tmp_path / "run"))
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        assert main(["run", "--config", str(cfg_path)]) == 1
        out, err = capsys.readouterr()
        assert out == f"6 rows (3 failed) -> {cfg.out_dir}/results.csv\n"
        assert err.splitlines() == ["spotform: 3 rows failed: timeout"]

    @pytest.mark.skipif(not Path("/proc/self/stat").exists(),
                        reason="finds the pool workers through /proc")
    @pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                        reason="forked workers are children of the sweep")
    def test_pool_workers_end_with_a_terminated_run(self, small_cfg,
                                                    tmp_path):
        def parent_of(pid):
            """The parent pid of a running process; None once it has ended."""
            try:
                stat = Path(f"/proc/{pid}/stat").read_text()
            except OSError:
                return None
            state, ppid = stat.rsplit(")", 1)[1].split()[:2]
            return None if state == "Z" else int(ppid)

        def alive(pid):
            return parent_of(pid) is not None

        # far more work than the test waits for
        cfg = replace(small_cfg, methods=("ntf",), k_grid=(30,), n_seeds=40,
                      iterations=100, warmup_iterations=50, workers=2,
                      out_dir=str(tmp_path / "run"))
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        src = str(Path(spotform.__file__).parents[1])
        proc = subprocess.Popen(
            [sys.executable, "-m", "spotform.cli", "run",
             "--config", str(cfg_path)],
            env=dict(os.environ, PYTHONPATH=src),
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        workers = []
        try:
            deadline = time.monotonic() + 60.0
            while len(workers) < 2 and time.monotonic() < deadline:
                assert proc.poll() is None, "the sweep ended early"
                time.sleep(0.1)
                workers = [int(p.name) for p in Path("/proc").glob("[0-9]*")
                           if parent_of(p.name) == proc.pid]
            assert len(workers) == 2
            time.sleep(1.0)  # both workers are computing
            proc.send_signal(signal.SIGTERM)
            proc.wait(timeout=10)
            deadline = time.monotonic() + 5.0
            while (any(alive(w) for w in workers)
                   and time.monotonic() < deadline):
                time.sleep(0.1)
            assert not [w for w in workers if alive(w)]
        finally:
            proc.kill()
            proc.wait()
            for w in workers:
                if alive(w):
                    os.kill(w, signal.SIGKILL)

    def test_run_rejects_bad_pool_settings_with_message(self, small_cfg,
                                                        tmp_path):
        cfg_path = tmp_path / "exp.json"
        small_cfg.save(cfg_path)
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path), "--workers", "0",
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == "spotform: workers must be >= 1, got 0"
        d = small_cfg.to_dict()
        d["timeout_s"] = 0
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == (
            f"spotform: {cfg_path}: timeout_s must be a number of seconds "
            "in (0, 1e9], got 0")
        assert not (tmp_path / "out").exists()

    def test_run_rejects_a_repeated_grid_value_with_message(self, small_cfg,
                                                            tmp_path):
        d = small_cfg.to_dict()
        d["mu_grid"] = [10.0, 10]
        cfg_path = tmp_path / "exp.json"
        cfg_path.write_text(json.dumps(d))
        with pytest.raises(SystemExit) as exc:
            main(["run", "--config", str(cfg_path),
                  "--out", str(tmp_path / "out")])
        assert str(exc.value.code) == (
            f"spotform: {cfg_path}: mu_grid repeats 10.0")
        assert not (tmp_path / "out").exists()

    def test_run_out_override(self, small_cfg, tmp_path, capsys):
        cfg = replace(small_cfg, methods=("bf-only",), n_seeds=1)
        cfg_path = tmp_path / "exp.json"
        cfg.save(cfg_path)
        assert main(["run", "--config", str(cfg_path),
                     "--out", str(tmp_path / "elsewhere")]) == 0
        assert (tmp_path / "elsewhere" / "results.csv").exists()
