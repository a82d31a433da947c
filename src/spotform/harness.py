"""Experiment orchestration: pipeline wiring, sweeps, and CSV emission.

One experiment = one scene, one set of dry sources, and a grid of
(method, K, threshold-or-weight) combinations, the nmf and ntf ones each
repeated over several seeds.  The pipeline per run is simulate -> beamform
-> factorize -> mask -> reconstruct -> fuse -> score; the simulation and
beamforming stages are shared across the sweep because only the
factorization stage is seeded.

The seed-dependent stages live in `separate`, which the `spotform` command
also runs on its own beamformer WAVs.  It is a fit followed by a per-hyper
extract step, and the sweep runs the two apart: tau only thresholds the NMF
activations after the fit, so every tau of one (K, seed index) is extracted
from one NMF fit.  mu enters the NTF fit, so each ntf row fits its own.

Seeding: each run draws its stream seed as the first 8 bytes, little-endian,
of sha256 over a key that names exactly what the fit depends on:
f"{master}|nmf|{K}|{seed index}" for nmf and
f"{master}|ntf|{K}|{float(mu)!r}|{seed index}" for ntf.  Any single row can
be reproduced in isolation with `run_single`.  Output CSVs are
byte-deterministic given the config, except the runtime_ms column and rows
failed by wall-clock timeout or by a pool worker that died.
"""

from __future__ import annotations

import csv
import hashlib
import itertools
import json
import signal
import time
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace
from pathlib import Path
from typing import get_args, get_origin, get_type_hints

import numpy as np

from spotform.beamform import delay_and_sum, mvdr, oracle_quantities
from spotform.evaluate import (
    AggregateStats,
    PreparedReference,
    aggregate,
    filtered_sdr,
    prepare_reference,
    si_sdr,
)
from spotform.nmf import (
    build_concat,
    check_tau,
    fit_nmf,
    nmf_wiener,
    threshold_mask,
)
from spotform.ntf import (
    RegularizationSchedule,
    build_prop_tensor,
    fit_ntf,
    ntf_wiener,
)
from spotform.roomsim import Scene, render_observations, simulate_rirs
from spotform.signal import (
    ComplexSpectrogram,
    StftConfig,
    Waveform,
    istft,
    normalize_energy,
    read_wav,
    resample,
    write_wav,
)

METHODS = ("bf-only", "nmf", "ntf")
RESULTS_SCHEMA = "spotform/results/v3"
SUMMARY_SCHEMA = "spotform/summary/v2"


# what a field of each scalar type is called and which JSON values it takes
_SCALARS = {int: ("integer", (int,)), float: ("number", (int, float)),
            str: ("string", (str,))}


def from_json(tp, value):
    """`value`, as `json.load` read it, built into the type `tp`.

    A JSON object becomes the dataclass `tp`, every field a required key,
    and a list the tuple `tp`, of the length its type fixes.  An int takes
    integers, a float integers or floats (kept as read), a str strings, and
    a boolean is never a number.  Every missing key, unknown key and
    wrong-typed value is named by its path, such as scene.arrays[0].n_mics,
    in one ValueError.
    """
    problems = ([], [], [])
    out = _from_json(tp, value, "", problems)
    clauses = [f"config {verb} {', '.join(found)}" for verb, found in zip(
        ("is missing", "has unknown keys", "has wrong types at"), problems)
        if found]
    if clauses:
        raise ValueError("; ".join(clauses))
    return out


def _from_json(tp, value, path: str, problems):
    """One node of `from_json`: the built value, or None once `problems`
    (missing, unknown, wrong-typed) holds anything.  Dataclasses are built
    only while it is empty, so their own checks see well-typed values."""
    missing, unknown, wrong = problems
    args = get_args(tp)
    if is_dataclass(tp):
        want, ok = "object", type(value) is dict
    elif get_origin(tp) is not tuple:
        want, accepts = _SCALARS[tp]
        ok = type(value) in accepts
    elif args[-1] is Ellipsis:
        want, ok = "list", type(value) is list
    else:
        want = f"list of {len(args)}"
        ok = type(value) is list and len(value) == len(args)
    if not ok:
        wrong.append(f"{path or 'top level'} (expected {want})")
        return None
    if is_dataclass(tp):
        hints = get_type_hints(tp)
        names = [f.name for f in fields(tp)]
        prefix = path + "." if path else ""
        missing += [prefix + n for n in names if n not in value]
        unknown += [prefix + key for key in value if key not in names]
        kwargs = {n: _from_json(hints[n], value[n], prefix + n, problems)
                  for n in names if n in value}
        return None if any(problems) else tp(**kwargs)
    if get_origin(tp) is tuple:
        types = itertools.repeat(args[0]) if args[-1] is Ellipsis else args
        return tuple(_from_json(t, v, f"{path}[{i}]", problems)
                     for i, (t, v) in enumerate(zip(types, value)))
    return value


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything a sweep needs; serializable to/from JSON."""

    scene: Scene
    source_paths: tuple[str, ...]
    stft: StftConfig = StftConfig()
    methods: tuple[str, ...] = METHODS
    k_grid: tuple[int, ...] = (10, 20, 30, 40, 50)
    tau_grid: tuple[float, ...] = tuple(np.geomspace(1e-4, 1.0, 12))
    mu_grid: tuple[float, ...] = (1.0, 10.0, 100.0, 1000.0)
    n_seeds: int = 10
    iterations: int = 100
    warmup_iterations: int = 50
    master_seed: int = 0
    out_dir: str = "results"
    workers: int = 1
    timeout_s: float = 600.0
    filter_taps: int = 512

    def __post_init__(self):
        if len(self.source_paths) != self.scene.n_sources:
            raise ValueError(
                f"scene has {self.scene.n_sources} sources, config lists "
                f"{len(self.source_paths)} paths"
            )
        if self.stft.sample_rate != self.scene.sample_rate:
            raise ValueError(
                f"stft.sample_rate {self.stft.sample_rate} Hz differs from "
                f"scene.sample_rate {self.scene.sample_rate} Hz")
        if not self.methods:
            raise ValueError("no methods selected")
        for m in self.methods:
            if m not in METHODS:
                raise ValueError(f"unknown method {m!r}")
        if self.n_seeds < 1:
            raise ValueError("n_seeds must be >= 1")
        RegularizationSchedule(0.0, self.warmup_iterations, self.iterations)
        needs_k = {"nmf", "ntf"} & set(self.methods)
        if needs_k and not self.k_grid:
            raise ValueError("K grid is empty but nmf/ntf selected")
        if "nmf" in self.methods and not self.tau_grid:
            raise ValueError("tau grid is empty but nmf selected")
        if "ntf" in self.methods and not self.mu_grid:
            raise ValueError("mu grid is empty but ntf selected")
        if any(k < 1 for k in self.k_grid):
            raise ValueError("K must be >= 1")
        for t in self.tau_grid:
            check_tau(t)
        for m in self.mu_grid:
            RegularizationSchedule(m)
        # a repeat reruns rows of one fit, which the summary counts as more
        # samples; taus and mus compare as floats, since 1 and 1.0 are one
        # threshold and one `_fit_key`
        for name, grid in (("methods", self.methods), ("k_grid", self.k_grid),
                           ("tau_grid", [float(t) for t in self.tau_grid]),
                           ("mu_grid", [float(m) for m in self.mu_grid])):
            repeated = sorted({v for v in grid if grid.count(v) > 1})
            if repeated:
                raise ValueError(f"{name} repeats "
                                 f"{', '.join(map(str, repeated))}")
        if self.filter_taps < 1:
            raise ValueError("filter_taps must be >= 1")
        if self.workers < 1:
            raise ValueError(f"workers must be >= 1, got {self.workers}")
        # setitimer cannot take more than about 9e9 s on a 64-bit clock
        if not 0 < self.timeout_s <= 1e9:
            raise ValueError(f"timeout_s must be a number of seconds in "
                             f"(0, 1e9], got {self.timeout_s}")

    def to_dict(self) -> dict:
        """`asdict` in the shape JSON reads back: tuples become lists."""
        return json.loads(json.dumps(asdict(self)))

    @classmethod
    def from_dict(cls, d: dict) -> "ExperimentConfig":
        """The inverse of `to_dict`; `from_json` says what it rejects."""
        return from_json(cls, d)

    def save(self, path) -> None:
        Path(path).write_text(json.dumps(self.to_dict(), indent=1))

    @classmethod
    def load(cls, path) -> "ExperimentConfig":
        return cls.from_dict(json.loads(Path(path).read_text()))


@dataclass
class ResultRow:
    """One scored run; failed rows carry a reason and NaN scores."""

    method: str
    n_arrays: int
    t60: float = field(metadata={"format": "g"})
    k: int
    tau_or_mu: float = field(metadata={"format": ".9g"})
    seed: int
    sdr_filtered_db: float = field(metadata={"format": ".6f"})
    sdr_si_db: float = field(metadata={"format": ".6f"})
    runtime_ms: float = field(metadata={"format": ".3f"})
    status: str = "ok"
    reason: str = ""

    def sort_key(self):
        return (self.method, self.k, self.tau_or_mu, self.seed)


@dataclass
class PipelineState:
    """Seed-independent stages shared by every run of a sweep.

    `prepared[a]` is the target's image at array a's reference mic, prepared
    for `filtered_sdr` at the config's filter_taps, so its spectrum and
    autocorrelation are computed once per sweep instead of once per row.
    """

    rirs: object
    bf_tensor: ComplexSpectrogram
    bf_waves: list[Waveform]
    prepared: list[PreparedReference]

    @property
    def references(self) -> list[Waveform]:
        """The reference waveforms, one per array."""
        return [p.waveform for p in self.prepared]


def _fit_key(method: str, k: int, hyper: float, seed_index: int) -> str:
    """What a row's fit depends on besides the config.

    tau acts only after the NMF fit, so nmf rows leave it out; mu shapes the
    NTF fit and enters as repr(float(mu)), so 100, 100.0 and np.float64(100.0)
    name the same fit.  Rows with equal keys share one fit.
    """
    if method == "nmf":
        return f"nmf|{k}|{seed_index}"
    return f"{method}|{k}|{float(hyper)!r}|{seed_index}"


def derive_seed(master_seed: int, method: str, k: int, hyper: float,
                seed_index: int) -> int:
    """Stable per-fit stream seed; documented in the run manifest."""
    key = f"{master_seed}|{_fit_key(method, k, hyper, seed_index)}".encode()
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "little")


def load_sources(cfg: ExperimentConfig) -> list[Waveform]:
    """Dry sources, resampled to the scene rate and set to unit energy."""
    rate = cfg.scene.sample_rate
    out = []
    for p in cfg.source_paths:
        wav = read_wav(p)
        if wav.sample_rate != rate:
            wav = resample(wav, rate)
        try:
            out.append(normalize_energy(wav))
        except ValueError as exc:
            raise ValueError(f"{p}: {exc}") from exc
    return out


def prepare_pipeline(cfg: ExperimentConfig) -> PipelineState:
    """Simulate, render, and beamform once for the whole sweep."""
    sources = load_sources(cfg)
    rirs = simulate_rirs(cfg.scene)
    obs = render_observations(sources, rirs)
    tgt = cfg.scene.target_index
    # copied: a view would keep the whole images tensor alive for the sweep
    prepared = [
        prepare_reference(Waveform(obs.images[tgt, a, 0].copy(),
                                   obs.sample_rate), cfg.filter_taps)
        for a in range(cfg.scene.n_arrays)
    ]
    obs = replace(obs, images=None)  # room for every mic's STFT frames
    d, R = oracle_quantities(rirs, cfg.scene, cfg.stft)
    Y = mvdr(obs, d, R)
    bf_waves = [Waveform(y, cfg.stft.sample_rate) for y in istft(Y)]
    return PipelineState(rirs, Y, bf_waves, prepared)


def separate(Y: ComplexSpectrogram, method: str, k: int, hyper: float,
             seed: int, iterations: int, warmup: int
             ) -> tuple[list[Waveform], Waveform]:
    """Extract the target from beamformer outputs; returns (per-array, fused).

    Fits the method's model with stream seed `seed`, masks the target bases
    (threshold tau for nmf, the target class for ntf under weight mu),
    applies the masked Wiener gain to every array, resynthesizes each at
    `Y.n_samples` samples, and fuses by delay-and-sum.  The `spotform`
    command runs this; the sweep runs its two stages, `_fit` and `_extract`,
    so that rows sharing a fit share it.  `_fit` checks the arguments.
    """
    fit = _fit(Y, method, k, hyper, seed, iterations, warmup)
    return _extract(Y, method, fit, hyper)


def _fit(Y: ComplexSpectrogram, method: str, k: int, hyper: float,
         seed: int, iterations: int, warmup: int):
    """The seeded stage of `separate`: the NMF model, or the NTF model and
    its class assignment.  mu weights the NTF penalty.  Every fit comes here,
    so a bad tau, iteration count, warmup or mu is refused before any tensor
    is built: in `separate`, in a sweep row and in `run_single`."""
    if method == "nmf":
        check_tau(hyper)
        RegularizationSchedule(0.0, 0, iterations)
        return fit_nmf(build_concat(Y), k, iterations, seed)
    if method == "ntf":
        schedule = RegularizationSchedule(hyper, warmup, iterations)
        return fit_ntf(build_prop_tensor(Y), k, schedule, seed)
    raise ValueError(f"unknown method {method!r}")


def _extract(Y: ComplexSpectrogram, method: str, fit, hyper: float
             ) -> tuple[list[Waveform], Waveform]:
    """The per-hyper stage of `separate` on a `_fit` result: mask (threshold
    tau for nmf), Wiener gain, iSTFT and delay-and-sum.  The fit is only read."""
    if method == "nmf":
        mask = threshold_mask(fit, Y.values.shape[0], Y.n_frames, hyper)
        spec = nmf_wiener(fit, mask, Y)
    else:
        spec = ntf_wiener(*fit, Y)
    waves = [Waveform(y, Y.config.sample_rate) for y in istft(spec)]
    return waves, delay_and_sum(waves)


def _run_task(cfg: ExperimentConfig, state: PipelineState,
              task: tuple[str, int, float, int], fits: dict | None = None,
              ) -> tuple[ResultRow, list[Waveform], Waveform | None]:
    """Run and score one row; returns (row, per-array estimates, fused).

    A bf-only row scores array `hyper`'s beamformer output against that
    array's reference.  An nmf or ntf row extracts from the `_fit` result
    that `fits` holds under `_fit_key`, made and stored if missing, and
    scores the fused output against array 0's reference.  Rows given the
    same `fits` dict share their fit: the row that makes it carries its time
    in runtime_ms, and if the fit raised, every row fails with its reason."""
    method, k, hyper, seed_index = task
    fits = {} if fits is None else fits
    waves: list[Waveform] = []
    fused = None
    start = time.perf_counter()
    try:
        if method == "bf-only":
            if not (float(hyper).is_integer()
                    and 0 <= hyper < cfg.scene.n_arrays):
                raise ValueError(
                    f"bf-only hyper must be an array index, got {hyper}")
            fused = state.bf_waves[int(hyper)]
            waves, reference = [fused], state.prepared[int(hyper)]
        else:
            key = _fit_key(method, k, hyper, seed_index)
            if key not in fits:
                seed = derive_seed(cfg.master_seed, method, k, hyper,
                                   seed_index)
                try:
                    fits[key] = _fit(state.bf_tensor, method, k, hyper, seed,
                                     cfg.iterations, cfg.warmup_iterations)
                except Exception as exc:  # noqa: BLE001 - reraised for every row
                    fits[key] = exc
            if isinstance(fits[key], Exception):
                raise fits[key]
            waves, fused = _extract(state.bf_tensor, method, fits[key], hyper)
            reference = state.prepared[0]
        f_db = filtered_sdr(fused, reference, cfg.filter_taps)
        s_db = si_sdr(fused, reference.waveform)
        status, reason = "ok", ""
    except Exception as exc:  # noqa: BLE001 - row-level fault isolation
        f_db = s_db = float("nan")
        status, reason = "failed", f"{type(exc).__name__}: {exc}"
    runtime_ms = (time.perf_counter() - start) * 1000.0
    row = ResultRow(method, cfg.scene.n_arrays, cfg.scene.t60, k, hyper,
                    seed_index, f_db, s_db, runtime_ms, status, reason)
    return row, waves, fused


def run_single(cfg: ExperimentConfig, method: str, k: int, hyper: float,
               seed_index: int, state: PipelineState | None = None,
               ) -> tuple[list[Path], ResultRow]:
    """Run one combination and write its estimate WAVs.

    Emits one WAV per array plus the fused output, named after the run, and
    returns their paths with the scored row.  A bf-only run depends on no
    seed, so its directory names none.
    """
    if state is None:
        state = prepare_pipeline(cfg)
    row, waves, fused = _run_task(cfg, state, (method, k, hyper, seed_index))
    paths: list[Path] = []
    if row.status == "ok":
        tag = f"{method}_K{k}_h{hyper:g}"
        if method != "bf-only":
            tag += f"_s{seed_index}"
        d = Path(cfg.out_dir) / "wavs" / tag
        d.mkdir(parents=True, exist_ok=True)
        for a, w in enumerate(waves):
            paths.append(d / f"array{a}.wav")
            write_wav(paths[-1], w)
        paths.append(d / "fused.wav")
        write_wav(paths[-1], fused)
    return paths, row


def enumerate_tasks(cfg: ExperimentConfig) -> list[tuple[str, int, float, int]]:
    """Sweep grid in deterministic order; bf-only sweeps the array index.

    A bf-only row depends on no seed, so each array gets one, at seed 0.
    Rows that share a fit are adjacent: nmf sweeps tau innermost.
    """
    tasks = []
    for method in cfg.methods:
        if method == "bf-only":
            tasks += [(method, 0, float(a), 0)
                      for a in range(cfg.scene.n_arrays)]
        elif method == "nmf":
            tasks += [(method, k, float(t), s) for k in cfg.k_grid
                      for s in range(cfg.n_seeds) for t in cfg.tau_grid]
        else:
            tasks += [(method, k, float(m), s) for k in cfg.k_grid
                      for m in cfg.mu_grid for s in range(cfg.n_seeds)]
    return tasks


def _group_tasks(tasks: list[tuple[str, int, float, int]]
                 ) -> list[list[tuple[str, int, float, int]]]:
    """Runs of adjacent tasks with one `_fit_key`: the sweep's units of work."""
    return [list(g) for _, g in itertools.groupby(
        tasks, key=lambda t: _fit_key(*t))]


_WORKER_CFG: ExperimentConfig | None = None
_WORKER_STATE: PipelineState | None = None


def _init_worker(cfg: ExperimentConfig, state: PipelineState) -> None:
    """Hold the sweep's config and state, and end this worker when the
    sweep's process ends: a daemon thread waits on the parent's sentinel,
    so a killed `spotform run` leaves no worker computing on."""
    import multiprocessing
    import multiprocessing.connection
    import os
    import threading

    global _WORKER_CFG, _WORKER_STATE
    _WORKER_CFG = cfg
    _WORKER_STATE = state
    sentinel = multiprocessing.parent_process().sentinel

    def end_with_parent():
        multiprocessing.connection.wait([sentinel])
        os._exit(1)

    threading.Thread(target=end_with_parent, daemon=True).start()


def _failed_rows(cfg: ExperimentConfig,
                 tasks: list[tuple[str, int, float, int]],
                 reason: str) -> list[ResultRow]:
    """Rows of `tasks` that failed with `reason` before a score or a runtime
    was measured: both SDRs and runtime_ms are NaN."""
    nan = float("nan")
    return [ResultRow(method, cfg.scene.n_arrays, cfg.scene.t60, k, hyper, s,
                      nan, nan, nan, "failed", reason)
            for method, k, hyper, s in tasks]


class _Deadline(BaseException):
    """A fit group outlived its timeout_s.  Not an `Exception`, so that the
    fit and row handlers of `_run_task` let it through."""


def _run_group(cfg: ExperimentConfig, state: PipelineState,
               group: list[tuple[str, int, float, int]]) -> list[ResultRow]:
    """Rows of one fit: the first row fits, every row extracts its hyper.

    The group must finish within cfg.timeout_s of its start.  A SIGALRM
    timer stops it there: rows done by then keep their scores, and the row
    running and every later one fail as "timeout" with runtime_ms NaN.
    """
    fits: dict = {}
    rows: list[ResultRow] = []
    running = True

    def on_alarm(signum, frame):
        if running:  # an alarm after the last row changes nothing
            raise _Deadline

    previous = signal.signal(signal.SIGALRM, on_alarm)
    try:
        signal.setitimer(signal.ITIMER_REAL, cfg.timeout_s)
        for t in group:
            rows.append(_run_task(cfg, state, t, fits=fits)[0])
        running = False
    except _Deadline:
        rows += _failed_rows(cfg, group[len(rows):], "timeout")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    return rows


def _worker_run(group: list[tuple[str, int, float, int]]) -> list[ResultRow]:
    return _run_group(_WORKER_CFG, _WORKER_STATE, group)


def run_experiment(cfg: ExperimentConfig
                   ) -> tuple[list[ResultRow], dict[tuple, AggregateStats]]:
    """Run the full sweep; writes results.csv, summary.csv and manifest.json.

    out_dir is created after `prepare_pipeline`, so a setup error (a source
    that cannot be read, an unreachable t60) leaves no directory behind.
    The unit of work is one fit: the rows sharing a `_fit_key` form a group,
    so each (K, seed index) fits NMF once and thresholds every tau on it,
    and each ntf row is a group of its own.  With workers = 1 the groups run
    inline, otherwise one pool task each; either way `_run_group` gives each
    group timeout_s from its start.  Past that, the rows already done keep
    their scores, the rest fail as "timeout" with runtime_ms NaN, and the
    sweep goes on.  The deadline is a SIGALRM timer, so the sweep must run
    in the main thread on a POSIX system, and it takes over SIGALRM and
    ITIMER_REAL while a group runs.  If a pool worker dies, the pool breaks:
    the groups whose rows arrived keep them, and every row of the others
    fails as "worker died (BrokenProcessPool)" with runtime_ms NaN.
    """
    state = prepare_pipeline(cfg)
    out = Path(cfg.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    groups = _group_tasks(enumerate_tasks(cfg))
    if cfg.workers == 1:
        done = [_run_group(cfg, state, g) for g in groups]
    else:
        # loaded here: inline sweeps and the other commands never need it
        from concurrent.futures import ProcessPoolExecutor
        from concurrent.futures.process import BrokenProcessPool

        with ProcessPoolExecutor(max_workers=cfg.workers,
                                 initializer=_init_worker,
                                 initargs=(cfg, state)) as pool:
            futures = [pool.submit(_worker_run, g) for g in groups]
            done = []
            for g, f in zip(groups, futures):
                try:
                    done.append(f.result())
                except BrokenProcessPool:
                    done.append(_failed_rows(
                        cfg, g, "worker died (BrokenProcessPool)"))
    rows = [r for g in done for r in g]
    rows.sort(key=ResultRow.sort_key)
    stats = _aggregate_rows(rows)
    write_results_csv(out / "results.csv", rows)
    write_summary_csv(out / "summary.csv", stats)
    _write_manifest(out / "manifest.json", cfg, rows)
    return rows, stats


def _aggregate_rows(rows: list[ResultRow]) -> dict[tuple, AggregateStats]:
    """Stats over seeds of the ok rows, keyed (method, variant, K, tau-or-mu)."""
    groups: dict[tuple, list[float]] = {}
    for r in rows:
        if r.status != "ok":
            continue
        for variant, sdr in (("filtered-sdr", r.sdr_filtered_db),
                             ("si-sdr", r.sdr_si_db)):
            groups.setdefault((r.method, variant, r.k, r.tau_or_mu),
                              []).append(sdr)
    return aggregate(groups)


def write_results_csv(path, rows: list[ResultRow]) -> None:
    columns = [(c.name, c.metadata.get("format", ""))
               for c in fields(ResultRow)]
    with open(path, "w", newline="") as f:
        f.write(f"# schema: {RESULTS_SCHEMA}\n")
        w = csv.writer(f)
        w.writerow([name for name, _ in columns])
        for r in rows:
            w.writerow([format(getattr(r, name), spec)
                        for name, spec in columns])


def write_summary_csv(path, stats: dict[tuple, AggregateStats]) -> None:
    with open(path, "w", newline="") as f:
        f.write(f"# schema: {SUMMARY_SCHEMA}\n")
        w = csv.writer(f)
        w.writerow(["method", "variant", "k", "tau_or_mu", "n",
                    "mean_db", "std_db"])
        for key in sorted(stats):
            method, variant, k, hyper = key
            st = stats[key]
            w.writerow([method, variant, k, f"{hyper:.9g}", st.n,
                        f"{st.mean_db:.6f}", f"{st.std_db:.6f}"])


def _write_manifest(path, cfg: ExperimentConfig, rows: list[ResultRow]) -> None:
    """The config, schemas, seed scheme, failed rows, and the (method, K,
    tau-or-mu) combinations without an ok row; `rows` come in sort_key order."""
    failed = [
        {"method": r.method, "k": r.k, "tau_or_mu": r.tau_or_mu,
         "seed": r.seed, "reason": r.reason}
        for r in rows if r.status != "ok"
    ]
    missing = [
        list(combo) for combo, group in itertools.groupby(
            rows, key=lambda r: (r.method, r.k, r.tau_or_mu))
        if all(r.status != "ok" for r in group)
    ]
    doc = {
        "config": cfg.to_dict(),
        "schemas": {"results": RESULTS_SCHEMA, "summary": SUMMARY_SCHEMA},
        "seed_scheme": {
            "bf-only": "no seed; one row per array, at seed 0",
            "nmf": "first 8 bytes, little-endian, of "
                   "sha256(f'{master}|nmf|{K}|{seed index}'); one fit serves "
                   "every tau",
            "ntf": "first 8 bytes, little-endian, of "
                   "sha256(f'{master}|ntf|{K}|{float(mu)!r}|{seed index}')",
        },
        "n_rows": len(rows),
        "n_failed": len(failed),
        "failed": failed,
        "missing_combinations": missing,
    }
    Path(path).write_text(json.dumps(doc, indent=1))
