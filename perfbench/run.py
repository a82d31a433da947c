"""Benchmark spotform end to end (untraced) or per layer (traced).

Run from the root of a checkout:

    python3 perfbench/run.py --workload reference-sweep --seed 1 --seconds 20 --trace 0

Workloads: reference-sweep, separate-clip, scenes (see workloads.py).
BENCHMARK.json lists only the first two: on a 2-core shared host a run needs
about a minute of measurement to be steady, and the time for all runs allows
that for two workloads.  scenes stays runnable by name.  With
--trace 0 the last stdout line holds the end-to-end metrics, measured for
about --seconds after set-up.  With --trace 1 it holds the per-layer metrics
(see layers.py) of one traced unit of the workload, run after an untraced
one for the tracing overhead; --seconds is not used.  The line before it
is a detail block: the environment, the samples behind each median, the
correctness checks, and under "named_metrics" every end-to-end figure of the
workload with its unit, including those that vary with the seed's inputs
(the SDRs) or exist on one workload only (separate_p50_ms).  Both also go to .bench_out/results/.  --smoke runs at
minimum size to check that every metric is emitted.  The exit code is 0 only
when every correctness check passed.
"""

import os

# BLAS gets one thread per process, set before numpy loads: the sweep uses 2
# worker processes on a 2-core machine, so processes never exceed cores.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

# the end-to-end metrics; see BENCHMARK.json for their units and bounds
END_TO_END = ("wall_s", "setup_s", "peak_rss_mb")


def environment(workers: int) -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "max_worker_processes": workers,
    }


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=("reference-sweep", "separate-clip", "scenes"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true",
                   help="minimum size: checks that every metric is emitted")
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spotform" / "__init__.py").is_file():
        print(f"spotform sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    import layers
    import workloads
    from tracing import Tracer

    mode = "smoke" if args.smoke else "full"
    tag = f"{args.workload}-{mode}-s{args.seed}-t{args.trace}"
    run = workloads.Run(
        seed=args.seed, size=workloads.SIZES[mode],
        work=OUT / "work" / f"{tag}-{os.getpid()}", src=SRC,
        expect_path=OUT / "expect" / (
            f"{args.workload}-{mode}-s{args.seed}-"
            f"{workloads.code_hash(SRC)}.json"))
    measure, trace = workloads.WORKLOADS[args.workload]
    try:
        run.work.mkdir(parents=True, exist_ok=True)
        if args.trace:
            tracer = Tracer()
            values, layer_detail = layers.per_layer(tracer, **trace(run, tracer))
            metrics = {name: {"value": float(values[name]), "unit": unit}
                       for name, unit in layers.metric_names()}
            run.detail["layers"] = layer_detail
        else:
            tracer = None
            named = measure(run, args.seconds)
            named["peak_rss_mb"] = (peak_rss_mb(), "MB")
            named["failed_frac"] = (run.failed_ops / max(run.attempted, 1),
                                    "frac")
            named = {k: {"value": float(v), "unit": u}
                     for k, (v, u) in named.items()}
            run.detail["named_metrics"] = named
            metrics = {name: named[name] for name in END_TO_END}
    finally:
        shutil.rmtree(run.work, ignore_errors=True)

    result = {"correct": run.correct, "attempted": run.attempted,
              "failed": run.failed_ops, "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace, "mode": mode,
              "environment": environment(workloads.WORKERS),
              "checks": run.checks, **run.detail}
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{tag}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1))
    if tracer is not None:
        with open(results / f"{tag}-spans.jsonl", "w") as f:
            for record in tracer.to_records():
                f.write(json.dumps(record) + "\n")
    print("detail " + json.dumps(detail))
    print(json.dumps(result))
    return 0 if run.correct else 1


if __name__ == "__main__":
    sys.exit(main())
