#!/usr/bin/env python3
"""Reproduce the reference sweep on the two-array anechoic scene.

Synthesizes three voices (or takes --sources), runs bf-only / nmf / ntf over
the hyperparameter grids, and prints the per-method means that the sweep's
summary.csv also records. The default configuration is the one the acceptance
suite checks: K in {10, 30, 50}, mu = 100, a 12-point tau grid, 10 seeds.
Takes a few minutes; --quick shrinks everything for a smoke run. Exits 1
when any row failed.
"""

import argparse
import sys
from pathlib import Path

from spotform.harness import ExperimentConfig, run_experiment
from spotform.roomsim import default_scene
from spotform.synth import write_demo_sources


def parse_args():
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--out", default="results/reference")
    p.add_argument("--sources", nargs="*", default=None,
                   help="three WAV paths (target first); default: synthesize")
    p.add_argument("--arrays", type=int, default=2)
    p.add_argument("--t60", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=2.5,
                   help="synthesized source length in seconds")
    p.add_argument("--seeds", type=int, default=10)
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--quick", action="store_true",
                   help="tiny grids and 2 seeds, for a fast end-to-end check")
    return p.parse_args()


def main():
    args = parse_args()
    out = Path(args.out)
    scene = default_scene(args.arrays, t60=args.t60)
    if args.sources:
        paths = args.sources
    else:
        paths = [str(p) for p in write_demo_sources(
            out / "sources", scene.n_sources, args.duration,
            scene.sample_rate, seed=0)]
    grids = dict(k_grid=(10, 30, 50), mu_grid=(100.0,))
    if args.quick:
        grids = dict(k_grid=(10,), mu_grid=(100.0,),
                     tau_grid=(0.05, 0.2), iterations=30,
                     warmup_iterations=15)
    cfg = ExperimentConfig(
        scene=scene,
        source_paths=tuple(paths),
        n_seeds=2 if args.quick else args.seeds,
        workers=args.workers,
        out_dir=str(out),
        **grids,
    )
    rows, stats = run_experiment(cfg)
    failed = sum(r.status != "ok" for r in rows)
    print(f"{len(rows)} rows ({failed} failed) -> {out}/results.csv")

    def show(label, db):
        print(f"{label:<28s}{db:6.2f} dB")

    for a in range(scene.n_arrays):
        st = stats.get(("bf-only", "filtered-sdr", 0, float(a)))
        if st:
            show(f"bf-only array {a}", st.mean_db)
    best_nmf = max(
        ((st.mean_db, k, h) for (m, v, k, h), st in stats.items()
         if m == "nmf" and v == "filtered-sdr"), default=None)
    if best_nmf:
        db, k, tau = best_nmf
        show(f"nmf best (K={k}, tau={tau:.3g})", db)
    for k in cfg.k_grid:
        for mu in cfg.mu_grid:
            st = stats.get(("ntf", "filtered-sdr", k, float(mu)))
            if st:
                show(f"ntf (K={k}, mu={mu:g})", st.mean_db)
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
