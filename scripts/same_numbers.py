#!/usr/bin/env python3
"""Expected outputs of two small sweeps, for the same-numbers test.

Runs the two sweeps that tests/test_same_numbers.py reruns: two arrays at
t60 0 and three arrays at t60 0.3, each with bf-only, nmf and ntf at K 10,
2 seeds and a 20-iteration schedule on 1 s synthetic voices.  For each it
writes the sweep's summary.csv, its results.csv without the runtime_ms
column, and spotform_scores.csv: the filtered and scale-invariant SDRs of
every WAV the `spotform spotform` command writes from the sweep's
beamformer WAVs, against the reference the sweep scores with.

Regenerate the checked-in files only in a change that means to alter the
numbers, and list the old and new means in CHANGES.md:

    python scripts/same_numbers.py --out tests/data/same_numbers
"""

import argparse
import csv
import shutil
import sys
import tempfile
from pathlib import Path

from spotform import cli
from spotform.evaluate import filtered_sdr, si_sdr
from spotform.harness import ExperimentConfig, prepare_pipeline, run_experiment
from spotform.roomsim import default_scene
from spotform.signal import read_wav, write_wav
from spotform.synth import write_demo_sources

# sweep name -> (n_arrays, t60)
SWEEPS = {"a2_t0": (2, 0.0), "a3_t0.3": (3, 0.3)}
# (method, hyper) of each `spotform spotform` run on the beamformer WAVs
COMMANDS = (("nmf", 0.05), ("ntf", 1.0))
K, ITERATIONS, WARMUP = 10, 20, 10
FILES = ("summary.csv", "results.csv", "spotform_scores.csv")


def _config(n_arrays: int, t60: float, work: Path) -> ExperimentConfig:
    scene = default_scene(n_arrays, t60=t60)
    paths = write_demo_sources(work / "sources", scene.n_sources, 1.0,
                               scene.sample_rate, seed=0)
    return ExperimentConfig(
        scene=scene, source_paths=tuple(str(p) for p in paths),
        methods=("bf-only", "nmf", "ntf"), k_grid=(K,),
        tau_grid=(0.05, 0.2), mu_grid=(0.0, 1.0, 100.0), n_seeds=2,
        iterations=ITERATIONS, warmup_iterations=WARMUP,
        out_dir=str(work / "sweep"))


def _drop_runtime(src: Path, dst: Path) -> None:
    """Copy a results.csv without its runtime_ms column."""
    lines = src.read_text().splitlines(keepends=True)
    rows = list(csv.reader(lines[1:]))
    col = rows[0].index("runtime_ms")
    with open(dst, "w", newline="") as f:
        f.write(lines[0])
        csv.writer(f).writerows(r[:col] + r[col + 1:] for r in rows)


def _command_scores(cfg: ExperimentConfig, work: Path, dst: Path) -> None:
    """Score the `spotform spotform` outputs on the sweep's beamformer WAVs."""
    state = prepare_pipeline(cfg)
    bf = [str(work / f"bf_array{a}.wav") for a in range(len(state.bf_waves))]
    for path, wave in zip(bf, state.bf_waves):
        write_wav(path, wave)
    reference = state.prepared[0]
    with open(dst, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["method", "hyper", "wav", "sdr_filtered_db", "sdr_si_db"])
        for method, hyper in COMMANDS:
            out = work / f"cli_{method}"
            cli.main(["spotform", *bf, "--method", method, "--k", str(K),
                      "--hyper", str(hyper), "--iterations", str(ITERATIONS),
                      "--warmup", str(WARMUP), "--out", str(out)])
            for wav in sorted(out.glob("*.wav")):
                est = read_wav(wav)
                w.writerow([method, f"{hyper:g}", wav.name,
                            repr(filtered_sdr(est, reference, cfg.filter_taps)),
                            repr(si_sdr(est, reference.waveform))])


def generate(out: Path, work: Path) -> None:
    """Write `FILES` for every sweep to out/<sweep name>/, using `work`."""
    for name, (n_arrays, t60) in SWEEPS.items():
        dst, scratch = out / name, work / name
        dst.mkdir(parents=True, exist_ok=True)
        cfg = _config(n_arrays, t60, scratch)
        run_experiment(cfg)
        sweep = Path(cfg.out_dir)
        shutil.copyfile(sweep / "summary.csv", dst / "summary.csv")
        _drop_runtime(sweep / "results.csv", dst / "results.csv")
        _command_scores(cfg, scratch, dst / "spotform_scores.csv")


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawTextHelpFormatter)
    p.add_argument("--out", default="tests/data/same_numbers")
    args = p.parse_args()
    with tempfile.TemporaryDirectory() as work:
        generate(Path(args.out), Path(work))
    print(f"wrote {', '.join(FILES)} for {', '.join(SWEEPS)} under {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
