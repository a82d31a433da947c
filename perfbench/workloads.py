"""The three workloads, their generated inputs, and their correctness checks.

Each workload is a closed loop with one client: the benchmark makes the next
call only after the previous one returned.  All inputs are generated from the
workload seed and written to files before any timing starts, so the program
sees only files.

reference-sweep  the A05 sweep (one seed) through `harness.run_experiment`
                 with 2 workers: bf-only, nmf and ntf rows.
separate-clip    repeated in-process `cli.main(["spotform", bf0, bf1, bf2,
                 "--method", "ntf", ...])` on beamformer-output WAVs.
scenes           `prepare_pipeline` then one bf-only `run_single` per array
                 on six (arrays, t60) conditions with 10 s sources.  Not in
                 BENCHMARK.json (see run.py); run it by name as the bypass
                 check for a factorization change.
"""

from __future__ import annotations

import contextlib
import hashlib
import itertools
import json
import math
import os
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spotform import cli, harness
from spotform.evaluate import filtered_sdr, si_sdr
from spotform.roomsim import default_scene
from spotform.signal import read_wav, write_wav
from spotform.synth import write_demo_sources

import layers
from tracing import Tracer

WORKERS = 2
RATE = 16000
PERCENTILES = (50, 75, 90, 95, 99, 99.9)

# Full size is the benchmark; smoke is the minimum size that still reaches
# every code path, for the benchmark's own test.
SIZES = {
    "full": {
        "sweep_source_s": 2.5, "k_grid": (10, 30, 50), "tau_points": 12,
        "iterations": 100, "warmup": 50,
        "clip_source_s": 2.5, "clip_k": 30,
        "scene_source_s": 10.0, "scene_t60s": (0.0, 0.3, 0.6),
        "setup_reps": 25, "import_reps": 5, "min_calls": 3, "min_scene_passes": 2,
    },
    "smoke": {
        "sweep_source_s": 0.5, "k_grid": (10,), "tau_points": 2,
        "iterations": 4, "warmup": 2,
        "clip_source_s": 0.5, "clip_k": 10,
        "scene_source_s": 1.0, "scene_t60s": (0.0, 0.3),
        "setup_reps": 2, "import_reps": 1, "min_calls": 2, "min_scene_passes": 2,
    },
}


@dataclass
class Run:
    """Counts, checks and measurements of one benchmark invocation."""

    seed: int
    size: dict
    work: Path
    src: Path
    expect_path: Path
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)
    detail: dict = field(default_factory=dict)
    _expected: dict | None = None

    def check(self, what: str, ok: bool, ops: int) -> bool:
        """Record a check; a failed one counts its `ops` operations failed."""
        self.checks.append({"check": what, "ok": bool(ok), "ops": ops})
        if not ok:
            self.failed += ops
        return ok

    def expect(self, key: str, value, ops: int) -> None:
        """Value must equal that of every earlier run of the same code and seed."""
        if self._expected is None:
            self._expected = (json.loads(self.expect_path.read_text())
                              if self.expect_path.exists() else {})
        if key in self._expected:
            self.check(f"{key} same as earlier runs", self._expected[key] == value,
                       ops)
        else:
            self._expected[key] = value
            self.expect_path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.expect_path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self._expected, indent=1, sort_keys=True))
            os.replace(tmp, self.expect_path)

    @property
    def failed_ops(self) -> int:
        """Failed operations; a check covering ops already counted failed
        adds none beyond them."""
        return min(self.failed, self.attempted)

    @property
    def correct(self) -> bool:
        return all(c["ok"] for c in self.checks) and self.failed == 0


def code_hash(src: Path) -> str:
    h = hashlib.sha256()
    for p in sorted(src.rglob("*.py")):
        h.update(str(p.relative_to(src)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()[:16]


def latency_summary(ms: list[float]) -> dict:
    """Median, sample count, and the highest percentile with >= 10 beyond it."""
    ms = sorted(ms)
    n = len(ms)
    out = {"n": n, "p50_ms": statistics.median(ms) if ms else None,
           "tail": None}
    for p in PERCENTILES:
        if n * (1 - p / 100) >= 10:
            out["tail"] = {"p": p, "ms": float(np.percentile(ms, p))}
    return out


def _finite(*xs) -> bool:
    return all(math.isfinite(x) for x in xs)


def repeat(seconds: float, min_count: int, once) -> list:
    """Call `once()` at least `min_count` times, then while the next call is
    expected (at the median duration so far) to end within `seconds`."""
    results, took = [], []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        results.append(once())
        took.append(time.perf_counter() - t0)
        elapsed = time.perf_counter() - start
        if (len(results) >= min_count
                and elapsed + statistics.median(took) > seconds):
            return results


# ---------------------------------------------------------------- reference-sweep

def _sweep_inputs(run: Run) -> tuple:
    s = run.size
    paths = write_demo_sources(run.work / "sources", 3, s["sweep_source_s"],
                               RATE, seed=run.seed)
    tau_grid = tuple(np.geomspace(1e-4, 1.0, s["tau_points"]))
    return tuple(str(p) for p in paths), tau_grid


def _sweep_cfg(run: Run, inputs, out: str, workers: int):
    paths, tau_grid = inputs
    s = run.size
    return harness.ExperimentConfig(
        scene=default_scene(2, t60=0.0), source_paths=paths,
        methods=("bf-only", "nmf", "ntf"), k_grid=s["k_grid"],
        tau_grid=tau_grid, mu_grid=(100.0,), n_seeds=1,
        iterations=s["iterations"], warmup_iterations=s["warmup"],
        master_seed=run.seed, out_dir=out, workers=workers)


def _normalized_csv(path: Path) -> str:
    """results.csv with the runtime_ms column blanked, hashed."""
    lines = path.read_text().splitlines()
    header = lines[1].split(",")
    col = header.index("runtime_ms")
    out = lines[:2]
    for line in lines[2:]:
        cells = line.split(",")
        cells[col] = ""
        out.append(",".join(cells))
    return hashlib.sha256("\n".join(out).encode()).hexdigest()


def _sweep_pass(run: Run, inputs, tag: str, workers: int,
                tracer: Tracer | None = None) -> dict:
    cfg = _sweep_cfg(run, inputs, str(run.work / tag), workers)
    t0 = time.perf_counter()
    rows, stats = harness.run_experiment(cfg)
    wall = time.perf_counter() - t0
    if tracer is not None:
        for r in rows:
            tracer.adopt(getattr(r, "trace_spans", []))
    n = len(rows)
    run.attempted += n
    run.failed += sum(r.status != "ok" for r in rows)
    run.check(f"{tag}: every row ok", all(r.status == "ok" for r in rows), 0)
    bad = sum(r.status == "ok" and not _finite(r.sdr_filtered_db, r.sdr_si_db)
              for r in rows)
    run.check(f"{tag}: SDRs finite", bad == 0, bad)
    k_head = 30 if 30 in cfg.k_grid else cfg.k_grid[0]
    head = stats.get(("ntf", "filtered-sdr", k_head, 100.0))
    nmf = [st.mean_db for (m, v, k, h), st in stats.items()
           if m == "nmf" and v == "filtered-sdr"]
    ok = run.check(f"{tag}: ntf K={k_head} and nmf scored",
                   head is not None and bool(nmf), n)
    sdr_ntf = head.mean_db if ok else float("nan")
    sdr_nmf = max(nmf) if ok else float("nan")
    busy_ms = sum(r.runtime_ms for r in rows)
    scores = {(r.method, r.k, r.tau_or_mu, r.seed): (r.sdr_filtered_db, r.sdr_si_db)
              for r in rows}
    return {"wall_s": wall, "rows": n, "runtime_ms": [r.runtime_ms for r in rows],
            "scores": scores,
            "busy_s": busy_ms / 1000.0,
            "pool_idle_frac": 1.0 - busy_ms / 1000.0 / (workers * wall),
            "csv": _normalized_csv(Path(cfg.out_dir) / "results.csv"),
            "sdr_ntf_db": sdr_ntf, "sdr_nmf_best_db": sdr_nmf}


def _sweep_consistency(run: Run, passes: list[dict]) -> None:
    rows = passes[0]["rows"]
    for key in ("csv", "sdr_ntf_db", "sdr_nmf_best_db"):
        values = {p[key] for p in passes}
        run.check(f"{key} identical across passes", len(values) == 1, rows)
        run.expect(key, passes[0][key], rows)


def _sweep_replay(run: Run, inputs, swept: dict) -> None:
    """Reproduce one bf-only, one nmf and one ntf row with `run_single`.

    Untimed.  A single pass fills a run, so this is the in-run check that
    the sweep is deterministic; its rows must score exactly as swept.
    """
    cfg = _sweep_cfg(run, inputs, str(run.work / "replay"), 1)
    state = harness.prepare_pipeline(cfg)
    k = min(cfg.k_grid)
    for method, hyper in (("bf-only", 0.0),
                          ("nmf", float(cfg.tau_grid[len(cfg.tau_grid) // 2])),
                          ("ntf", 100.0)):
        kk = 0 if method == "bf-only" else k
        _, row = harness.run_single(cfg, method, kk, hyper, 0, state=state)
        want = swept["scores"].get((method, kk, hyper, 0))
        run.check(f"{method} K={kk} row reproduced by run_single",
                  row.status == "ok"
                  and (row.sdr_filtered_db, row.sdr_si_db) == want, 1)


def sweep_measure(run: Run, seconds: float) -> dict:
    inputs = _sweep_inputs(run)
    cfg = _sweep_cfg(run, inputs, str(run.work / "setup"), WORKERS)
    setup = []
    for _ in range(run.size["setup_reps"]):
        t0 = time.perf_counter()
        harness.prepare_pipeline(cfg)
        setup.append(time.perf_counter() - t0)
    count = itertools.count()
    passes = repeat(seconds, 1, lambda: _sweep_pass(
        run, inputs, f"sweep{next(count)}", WORKERS))
    _sweep_consistency(run, passes)
    _sweep_replay(run, inputs, passes[0])
    runtimes = [ms for p in passes for ms in p["runtime_ms"]]
    first = passes[0]
    run.detail.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": setup,
        "row_latency": latency_summary(runtimes),
        "pool_idle_frac": [p["pool_idle_frac"] for p in passes],
    })
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "sdr_ntf_db": (first["sdr_ntf_db"], "dB"),
        "sdr_nmf_best_db": (first["sdr_nmf_best_db"], "dB"),
    }


def sweep_trace(run: Run, tracer: Tracer) -> dict:
    """An untraced and a traced sweep, both with 2 pool workers."""
    inputs = _sweep_inputs(run)
    plain = _sweep_pass(run, inputs, "untraced", WORKERS)
    with tracing(tracer):
        traced = _sweep_pass(run, inputs, "traced", WORKERS, tracer)
    _sweep_consistency(run, [plain, traced])
    row_busy = sum(s.ms for s in tracer.spans if s.name == "harness.row")
    runtime = traced["busy_s"] * 1000.0
    run.detail.update({
        "wall_s": {"untraced": plain["wall_s"], "traced": traced["wall_s"]},
        # the rows' span time against the harness's own runtime_ms column
        "row_span_ms_sum": row_busy,
        "runtime_ms_sum": runtime,
        "row_span_vs_runtime_frac": row_busy / runtime - 1.0,
    })
    return {"pool_idle_frac": plain["pool_idle_frac"],
            "overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
            "traced_wall_ms": traced["wall_s"] * 1000.0}


# ---------------------------------------------------------------- separate-clip

def _clip_inputs(run: Run) -> dict:
    """Beamformer-output WAVs of a 3-array t60=0.3 scene, written untimed."""
    s = run.size
    paths = write_demo_sources(run.work / "sources", 4, s["clip_source_s"],
                               RATE, seed=run.seed)
    cfg = harness.ExperimentConfig(
        scene=default_scene(3, t60=0.3),
        source_paths=tuple(str(p) for p in paths), out_dir=str(run.work))
    state = harness.prepare_pipeline(cfg)
    bf = []
    for a, wave in enumerate(state.bf_waves):
        bf.append(str(run.work / f"bf{a}.wav"))
        write_wav(bf[-1], wave)
    reference = state.references[0]
    return {"bf": bf, "reference": reference,
            "n": min(len(read_wav(p)) for p in bf)}


def _clip_argv(run: Run, inputs: dict, out: Path) -> list[str]:
    return ["spotform", *inputs["bf"], "--method", "ntf",
            "--k", str(run.size["clip_k"]), "--hyper", "100",
            "--iterations", str(run.size["iterations"]),
            "--warmup", str(run.size["warmup"]), "--out", str(out)]


def _clip_call(run: Run, inputs: dict, i: int) -> tuple[float, dict]:
    out = run.work / f"call{i}"
    argv = _clip_argv(run, inputs, out)
    run.attempted += 1
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(sys.stderr):
            rc = cli.main(argv)
    except Exception as exc:  # noqa: BLE001 - a failing call is counted, not fatal
        rc = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if not run.check(f"call{i}: exit code 0", rc == 0, 1):
        return elapsed, {"sdr_separate_db": float("nan"),
                         "si_sdr_separate_db": float("nan")}
    fused = read_wav(out / "estimate_fused.wav")
    run.check(f"call{i}: fused WAV has the input length",
              len(fused) == inputs["n"], 1)
    score = {"sdr_separate_db": filtered_sdr(fused, inputs["reference"]),
             "si_sdr_separate_db": si_sdr(fused, inputs["reference"])}
    run.check(f"call{i}: SDRs finite", _finite(*score.values()), 1)
    return elapsed, score


def _clip_consistency(run: Run, scores: list[dict]) -> None:
    for key in ("sdr_separate_db", "si_sdr_separate_db"):
        values = {s[key] for s in scores}
        run.check(f"{key} identical across calls", len(values) == 1, len(scores))
        run.expect(key, scores[0][key], len(scores))


def _cold_import_s(src: Path) -> float:
    """Fresh interpreter start plus `import spotform.cli`, seen from outside."""
    env = dict(os.environ, PYTHONPATH=str(src))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import spotform.cli"], env=env,
                   check=True, timeout=120)
    return time.perf_counter() - t0


def clip_measure(run: Run, seconds: float) -> dict:
    inputs = _clip_inputs(run)
    # the cold imports are measured within the run's seconds
    setup = [_cold_import_s(run.src) for _ in range(run.size["import_reps"])]
    count = itertools.count()
    calls, scores = zip(*repeat(seconds - sum(setup), run.size["min_calls"],
                                lambda: _clip_call(run, inputs, next(count))))
    _clip_consistency(run, scores)
    steady_ms = [c * 1000.0 for c in calls[1:]]
    setup_s = statistics.median(setup)
    p50_ms = statistics.median(steady_ms)
    run.detail.update({
        "calls": len(calls),
        "call_ms": [c * 1000.0 for c in calls],
        "setup_samples_s": setup,
        "separate_latency": latency_summary(steady_ms),
        "wall_s_definition": "setup_s + separate_p50_ms: one CLI run's "
                             "interpreter start and import, then one call",
    })
    return {
        "wall_s": (setup_s + p50_ms / 1000.0, "s"),
        "setup_s": (setup_s, "s"),
        "separate_p50_ms": (p50_ms, "ms"),
        "sdr_separate_db": (scores[0]["sdr_separate_db"], "dB"),
    }


def clip_trace(run: Run, tracer: Tracer) -> dict:
    inputs = _clip_inputs(run)
    _, warm = _clip_call(run, inputs, 0)
    untraced, plain = _clip_call(run, inputs, 1)
    with tracing(tracer):
        traced, score = _clip_call(run, inputs, 2)
    _clip_consistency(run, [warm, plain, score])
    run.detail.update({"wall_s": {"untraced": untraced, "traced": traced}})
    return {"pool_idle_frac": 0.0, "overhead_frac": traced / untraced - 1.0,
            "traced_wall_ms": traced * 1000.0}


# ---------------------------------------------------------------- scenes

def _scene_inputs(run: Run) -> list[str]:
    paths = write_demo_sources(run.work / "sources", 4,
                               run.size["scene_source_s"], RATE, seed=run.seed)
    return [str(p) for p in paths]


def _scene_pass(run: Run, sources: list[str], tag: str) -> dict:
    setup, calls, scores = 0.0, [], {}
    t_pass = time.perf_counter()
    for A in (2, 3):
        for t60 in run.size["scene_t60s"]:
            cond = f"A{A}_t60_{t60:g}"
            cfg = harness.ExperimentConfig(
                scene=default_scene(A, t60=t60),
                source_paths=tuple(sources[:A + 1]), methods=("bf-only",),
                out_dir=str(run.work / tag / cond))
            t0 = time.perf_counter()
            state = harness.prepare_pipeline(cfg)
            setup += time.perf_counter() - t0
            for a in range(A):
                run.attempted += 1
                t0 = time.perf_counter()
                paths, row = harness.run_single(cfg, "bf-only", 0, a, 0,
                                                state=state)
                calls.append(time.perf_counter() - t0)
                if row.status != "ok":
                    run.failed += 1
                    continue
                run.check(f"{tag} {cond} array {a}: SDRs finite and WAV "
                          "written", _finite(row.sdr_filtered_db, row.sdr_si_db)
                          and all(p.is_file() for p in paths), 1)
                scores[f"{cond}_a{a}"] = (row.sdr_filtered_db, row.sdr_si_db)
    return {"wall_s": time.perf_counter() - t_pass, "setup_s": setup,
            "calls_ms": [c * 1000.0 for c in calls], "scores": scores}


def _scene_consistency(run: Run, passes: list[dict]) -> None:
    n = len(passes[0]["calls_ms"])
    same = all(p["scores"] == passes[0]["scores"] for p in passes)
    run.check("bf-only SDRs identical across passes", same, n)
    run.expect("scores", {k: list(v) for k, v in passes[0]["scores"].items()}, n)


def _scene_sdr(scores: dict) -> tuple[float, float]:
    f = [v[0] for v in scores.values()]
    s = [v[1] for v in scores.values()]
    if not f:
        return float("nan"), float("nan")
    return statistics.fmean(f), statistics.fmean(s)


def scenes_measure(run: Run, seconds: float) -> dict:
    sources = _scene_inputs(run)
    count = itertools.count()
    passes = repeat(seconds, run.size["min_scene_passes"],
                    lambda: _scene_pass(run, sources, f"pass{next(count)}"))
    _scene_consistency(run, passes)
    calls_ms = [c for p in passes for c in p["calls_ms"]]
    sdr_bf, si_bf = _scene_sdr(passes[0]["scores"])
    run.check("bf-only mean SDR finite", _finite(sdr_bf, si_bf), 1)
    run.detail.update({
        "passes": len(passes),
        "pass_wall_s": [p["wall_s"] for p in passes],
        "setup_samples_s": [p["setup_s"] for p in passes],
        "run_single_latency": latency_summary(calls_ms),
        "si_sdr_bf_db": si_bf,
    })
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "setup_s": (statistics.median(p["setup_s"] for p in passes), "s"),
        "sdr_bf_db": (sdr_bf, "dB"),
    }


def scenes_trace(run: Run, tracer: Tracer) -> dict:
    sources = _scene_inputs(run)
    plain = _scene_pass(run, sources, "untraced")
    with tracing(tracer):
        traced = _scene_pass(run, sources, "traced")
    _scene_consistency(run, [plain, traced])
    run.detail.update({"wall_s": {"untraced": plain["wall_s"],
                                  "traced": traced["wall_s"]}})
    return {"pool_idle_frac": 0.0,
            "overhead_frac": traced["wall_s"] / plain["wall_s"] - 1.0,
            "traced_wall_ms": traced["wall_s"] * 1000.0}


# ---------------------------------------------------------------- dispatch

@contextlib.contextmanager
def tracing(tracer: Tracer):
    tracer.install(layers.TARGETS)
    try:
        yield tracer
    finally:
        tracer.uninstall()


WORKLOADS = {
    "reference-sweep": (sweep_measure, sweep_trace),
    "separate-clip": (clip_measure, clip_trace),
    "scenes": (scenes_measure, scenes_trace),
}
