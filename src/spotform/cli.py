"""Command-line front end.

Subcommands mirror the pipeline stages:

  simulate   scene -> RIRs and rendered microphone observations
  run        full sweep from a JSON experiment config
  spotform   one method applied to already-beamformed per-array WAVs: the
             WAVs are cut to the shortest, analysed with the default STFT
             and handed to `harness.separate`, the sweep's own path
  eval       score an estimate WAV against a reference WAV

`main` is the one error boundary: an `OSError` or `ValueError` from any
command, an unwritable `--out` included, ends as one `spotform: <error>` line
and exit status 1.  An `--out` (or `run`'s config `out_dir`) that exists and
is not a directory is refused before the command does any work.
"""

from __future__ import annotations

import argparse
import json
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np

from spotform.evaluate import filtered_sdr, si_sdr
from spotform.harness import (
    ExperimentConfig,
    load_sources,
    run_experiment,
    separate,
)
from spotform.roomsim import default_scene, render_observations, save_rirs, simulate_rirs
from spotform.signal import StftConfig, Waveform, read_wav, stft, write_wav
from spotform.synth import check_voice_args, write_demo_sources


def _load(load, path):
    """`load(path)`, ending an unreadable or invalid file with its message."""
    try:
        return load(path)
    except (OSError, ValueError) as exc:
        raise SystemExit(f"spotform: {path}: {exc}") from exc


def _check_out(out, name: str = "--out") -> None:
    """Refuse an output directory that exists as something else, before any
    command reads, simulates or fits."""
    if out is not None and Path(out).exists() and not Path(out).is_dir():
        raise SystemExit(f"spotform: {name} {out} is not a directory")


def _cmd_simulate(args) -> int:
    out = Path(args.out)
    if args.config:
        cfg = _load(ExperimentConfig.load, args.config)
        scene = cfg.scene
    else:
        scene = default_scene(n_arrays=args.arrays, t60=args.t60)
        check_voice_args(scene.n_sources, args.duration, args.seed)
    # before the sources are written: a t60 the room cannot reach
    # leaves nothing under --out
    rirs = simulate_rirs(scene)
    if not args.config:
        paths = write_demo_sources(out / "sources", scene.n_sources,
                                   args.duration, scene.sample_rate,
                                   seed=args.seed)
        cfg = ExperimentConfig(scene=scene,
                               source_paths=tuple(str(p) for p in paths),
                               out_dir=str(out))
    obs = render_observations(load_sources(cfg), rirs)
    out.mkdir(parents=True, exist_ok=True)
    save_rirs(out / "rirs.npz", rirs)
    for a in range(scene.n_arrays):
        for m in range(obs.mixture.shape[1]):
            write_wav(out / f"obs_a{a}m{m}.wav",
                      Waveform(obs.mixture[a, m], obs.sample_rate))
    manifest = {
        "scene": scene.to_dict(),
        "source_paths": list(cfg.source_paths),
        "rirs": "rirs.npz",
        "n_arrays": scene.n_arrays,
        "n_mics": obs.mixture.shape[1],
        "n_samples": obs.n_samples,
    }
    (out / "simulate_manifest.json").write_text(json.dumps(manifest, indent=1))
    print(f"wrote RIRs and {scene.n_arrays}x{obs.mixture.shape[1]} "
          f"observation WAVs to {out}")
    return 0


def _cmd_run(args) -> int:
    cfg = _load(ExperimentConfig.load, args.config)
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.workers is not None:
        overrides["workers"] = args.workers
    if args.out is not None:
        overrides["out_dir"] = args.out
    cfg = replace(cfg, **overrides)
    if args.out is None:
        _check_out(cfg.out_dir, f"{args.config}: out_dir")
    rows, _ = run_experiment(cfg)
    failed = sum(r.status != "ok" for r in rows)
    print(f"{len(rows)} rows ({failed} failed) -> {cfg.out_dir}/results.csv")
    return 0 if failed == 0 else 1


def _check_spotform_args(args) -> None:
    """Refuse numbers the fit would reject, before any WAV is read."""
    if args.k < 1:
        raise SystemExit(f"spotform: --k must be >= 1, got {args.k}")
    if not (np.isfinite(args.hyper) and args.hyper >= 0):
        raise SystemExit(f"spotform: --hyper must be a finite number >= 0, "
                         f"got {args.hyper}")
    if args.iterations < 1:
        raise SystemExit(f"spotform: --iterations must be >= 1, "
                         f"got {args.iterations}")
    if args.seed < 0:
        raise SystemExit(f"spotform: --seed must be >= 0, got {args.seed}")
    # only the ntf schedule has a warmup
    if args.method == "ntf" and not 0 <= args.warmup <= args.iterations:
        raise SystemExit(f"spotform: --warmup must lie in 0..--iterations "
                         f"({args.iterations}), got {args.warmup}")


def _cmd_spotform(args) -> int:
    _check_spotform_args(args)
    waves = [_load(read_wav, p) for p in args.bf_wavs]
    for p, w in zip(args.bf_wavs, waves):
        if len(w) == 0:
            raise SystemExit(f"spotform: {p} has no samples")
    rate = waves[0].sample_rate
    if any(w.sample_rate != rate for w in waves):
        rates = ", ".join(f"{w.sample_rate} Hz" for w in waves)
        raise SystemExit(f"spotform: the BF WAVs must share one sample rate, "
                         f"got {rates}; resample them to one rate")
    n = min(len(w) for w in waves)
    try:
        cfg = StftConfig(sample_rate=rate)
    except ValueError as exc:
        raise SystemExit(f"spotform: {rate} Hz WAVs are not supported ({exc}); "
                         "resample them, e.g. to 16000 Hz") from exc
    Y = stft(np.stack([w.samples[:n] for w in waves]), cfg)
    estimates, fused = separate(Y, args.method, args.k, args.hyper, args.seed,
                                args.iterations, args.warmup)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for a, w in enumerate(estimates):
        write_wav(out / f"estimate_array{a}.wav", w)
    write_wav(out / "estimate_fused.wav", fused)
    print(f"wrote {len(estimates) + 1} WAVs to {out}")
    if not np.any(fused.samples):
        silent = [p for p, Y_a in zip(args.bf_wavs, Y.values) if not np.any(Y_a)]
        why = (f"silent input: {', '.join(silent)}" if silent
               else "no basis was kept for the target class")
        raise SystemExit(f"spotform: the fused estimate is all zero; {why}")
    return 0


def _cmd_eval(args) -> int:
    if args.taps < 1:
        raise SystemExit(f"spotform: --taps must be >= 1, got {args.taps}")
    est = _load(read_wav, args.estimate)
    ref = _load(read_wav, args.reference)
    f_db, s_db = filtered_sdr(est, ref, args.taps), si_sdr(est, ref)
    print(f"filtered_sdr_db={f_db:.4f}")
    print(f"si_sdr_db={s_db:.4f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="spotform",
                                description="multi-array target extraction")
    sub = p.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="simulate RIRs and observations")
    sim.add_argument("--config", help="experiment config JSON")
    sim.add_argument("--arrays", type=int, default=2,
                     help="arrays in the default scene (no --config)")
    sim.add_argument("--t60", type=float, default=0.0,
                     help="reverberation time for the default scene")
    sim.add_argument("--duration", type=float, default=2.5,
                     help="synthetic source length in seconds (no --config)")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--out", default="simulated")
    sim.set_defaults(func=_cmd_simulate)

    run = sub.add_parser("run", help="run a full experiment sweep")
    run.add_argument("--config", required=True)
    run.add_argument("--seed", type=int, default=None,
                     help="override the master seed")
    run.add_argument("--workers", type=int, default=None)
    run.add_argument("--out", default=None)
    run.set_defaults(func=_cmd_run)

    spot = sub.add_parser("spotform",
                          help="extract the common component of BF outputs")
    spot.add_argument("bf_wavs", nargs="+",
                      help="one beamformed WAV per array")
    spot.add_argument("--method", choices=("nmf", "ntf"), required=True)
    spot.add_argument("--k", type=int, default=30)
    spot.add_argument("--hyper", type=float, required=True,
                      help="threshold tau (nmf) or weight mu (ntf)")
    spot.add_argument("--seed", type=int, default=0)
    spot.add_argument("--iterations", type=int, default=100)
    spot.add_argument("--warmup", type=int, default=50)
    spot.add_argument("--out", default="spotformed")
    spot.set_defaults(func=_cmd_spotform)

    ev = sub.add_parser("eval", help="score an estimate against a reference")
    ev.add_argument("estimate")
    ev.add_argument("reference")
    ev.add_argument("--taps", type=int, default=512)
    ev.set_defaults(func=_cmd_eval)
    return p


def main(argv=None) -> int:
    """Run one command; each distinct warning prints once, as it arrives."""
    args = build_parser().parse_args(argv)
    _check_out(getattr(args, "out", None))
    seen = set()

    def show(message, *_):
        if str(message) not in seen:
            seen.add(str(message))
            print(f"spotform: warning: {message}", file=sys.stderr)

    with warnings.catch_warnings():
        warnings.showwarning = show
        try:
            return args.func(args)
        except (OSError, ValueError) as exc:
            raise SystemExit(f"spotform: {exc}") from exc


if __name__ == "__main__":
    sys.exit(main())
