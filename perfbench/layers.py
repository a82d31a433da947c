"""Trace targets, computed kernel counts, and the per-layer metrics.

Layers are spotform's modules.  `synth` only generates inputs and is not
traced.  Each per-layer metric below is emitted on every workload; a layer
that a workload never reaches reads 0, and a target missing from the program
reads 0 and is listed under "absent" in the run's detail block.
"""

from __future__ import annotations

import statistics

LAYERS = ("harness", "roomsim", "beamform", "signal", "nmf", "ntf", "gkl",
          "evaluate", "cli")
K_GRID = (10, 30, 50)
T60_GRID = (0.0, 0.3, 0.6)


def _nmf_step_attrs(model, C, *args, **kwargs):
    I, N = C.values.shape
    return {"A": C.n_arrays, "I": I, "J": N // C.n_arrays,
            "K": model.T.shape[1]}


def _nmf_fit_attrs(C, K, iterations=100, *args, **kwargs):
    I, N = C.values.shape
    return {"A": C.n_arrays, "I": I, "J": N // C.n_arrays, "K": int(K),
            "iterations": int(kwargs.get("iterations", iterations))}


def _ntf_step_attrs(model, C, *args, **kwargs):
    A, I, J = C.values.shape
    return {"A": A, "I": I, "J": J, "K": model.Z.shape[1]}


def _ntf_fit_attrs(C, K, schedule, *args, **kwargs):
    A, I, J = C.values.shape
    return {"A": A, "I": I, "J": J, "K": int(K),
            "iterations": int(schedule.total_iterations)}


def _row_attrs(cfg, state, task, *args, **kwargs):
    method, k, hyper, seed_index = task
    return {"method": method, "K": int(k)}


def _rirs_attrs(scene, *args, **kwargs):
    return {"t60": float(scene.t60)}


def _ship_row(result, records):
    # _run_task returns (row, waves, fused); a pool worker sends only the row
    result[0].trace_spans = records


def _fn(module, attr, describe=None, name=None, ship=None):
    return (f"spotform.{module}", attr, name or f"{module}.{attr}", describe,
            ship)


TARGETS = (
    _fn("harness", "run_experiment"),
    _fn("harness", "run_single"),
    _fn("harness", "_run_task", _row_attrs, name="harness.row", ship=_ship_row),
    _fn("harness", "prepare_pipeline"),
    _fn("harness", "load_sources"),
    _fn("roomsim", "simulate_rirs", _rirs_attrs),
    _fn("roomsim", "render_observations"),
    _fn("beamform", "oracle_quantities"),
    _fn("beamform", "mvdr"),
    _fn("beamform", "delay_and_sum"),
    _fn("signal", "stft"),
    _fn("signal", "istft"),
    _fn("signal", "read_wav"),
    _fn("signal", "write_wav"),
    _fn("signal", "resample"),
    _fn("signal", "normalize_energy"),
    _fn("nmf", "build_concat"),
    _fn("nmf", "fit_nmf", _nmf_fit_attrs),
    _fn("nmf", "update_step", _nmf_step_attrs),
    _fn("nmf", "threshold_mask"),
    _fn("nmf", "nmf_wiener"),
    _fn("ntf", "build_prop_tensor"),
    _fn("ntf", "fit_ntf", _ntf_fit_attrs),
    _fn("ntf", "update_step", _ntf_step_attrs),
    _fn("ntf", "evaluate_cost"),
    _fn("ntf", "assign_attractors"),
    _fn("ntf", "ntf_wiener"),
    _fn("gkl", "gkl_divergence"),
    _fn("gkl", "gkl_elementwise"),
    _fn("evaluate", "filtered_sdr"),
    _fn("evaluate", "si_sdr"),
    _fn("cli", "main"),
)


def step_flops(A: int, I: int, J: int, K: int) -> int:
    """Computed flops of one composite update step (NMF or NTF).

    Formula (computed, not counted by hardware): 12*A*I*J*K + 6*A*I*J.
    Each step updates three factors.  Each factor update forms the model
    once (a GEMM over K: 2*A*I*J*K), takes the floored ratio data/model
    (2*A*I*J), and contracts the ratio against the other two factors (one
    MTTKRP or GEMM: 2*A*I*J*K).  NMF is the same count with its concatenated
    I x (A*J) matrix.  Lower-order (A+I+J)*K terms are left out.
    """
    X = A * I * J
    return 12 * X * K + 6 * X


def step_bytes(A: int, I: int, J: int, K: int) -> int:
    """Computed bytes of one update step under a streaming model.

    Formula (computed): 8 * (9*A*I*J + 6*(A*I + A*J + I + J)*K).  Per factor
    update: read the data, write then read the ratio (3 passes over A*I*J
    float64), and read plus write the factors; nothing stays in cache.
    """
    return 8 * (9 * A * I * J + 6 * (A * I + A * J + I + J) * K)


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in output order."""
    names = [(f"{layer}.self_ms", "ms") for layer in LAYERS]
    names += [
        ("harness.prepare_pipeline.ms", "ms"),
        ("harness.row_self.ms", "ms"),
        ("harness.pool_idle_frac", "frac"),
    ]
    names += [(f"roomsim.simulate_rirs.t60_{t:g}.ms", "ms") for t in T60_GRID]
    names += [
        ("roomsim.render_observations.ms", "ms"),
        ("beamform.oracle_quantities.ms", "ms"),
        ("beamform.mvdr.ms", "ms"),
        ("beamform.delay_and_sum.ms", "ms"),
        ("signal.stft.ms", "ms"),
        ("signal.istft.ms", "ms"),
        ("signal.read_wav.ms", "ms"),
        ("signal.write_wav.ms", "ms"),
    ]
    for method, fit in (("nmf", "fit_nmf"), ("ntf", "fit_ntf")):
        for k in K_GRID:
            names += [
                (f"{method}.{fit}.K{k}.ms", "ms"),
                (f"{method}.update_step.K{k}.ms", "ms"),
                (f"{method}.update_step.K{k}.gflops", "GFLOP/s"),
                (f"{method}.iter.K{k}.gflops", "GFLOP/s"),
            ]
        names += [
            (f"{method}.cost_share", "frac"),
            (f"{method}.fits_per_row", "count"),
        ]
    names += [
        ("nmf.mask_wiener.ms", "ms"),
        ("ntf.ntf_wiener.ms", "ms"),
        ("evaluate.filtered_sdr.ms", "ms"),
        ("evaluate.si_sdr.ms", "ms"),
        ("cli.self.ms", "ms"),
        ("trace.overhead_frac", "frac"),
    ]
    return names


def _median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else 0.0


def per_layer(tracer, pool_idle_frac: float, overhead_frac: float,
              traced_wall_ms: float) -> tuple[dict[str, float], dict]:
    """Per-layer metric values from one traced pass, plus detail figures.

    A layer's share is its self time over the busy time of all processes
    (the sum of all self times): the most an optimisation of that layer
    alone can save on this workload.
    """
    spans = tracer.spans
    self_ms = tracer.self_ms()
    by_name: dict[str, list] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)

    def med(name, pred=lambda s: True):
        return _median(s.ms for s in by_name.get(name, ()) if pred(s))

    v: dict[str, float] = {}
    layer_self = {layer: 0.0 for layer in LAYERS}
    for s in spans:
        layer_self[s.name.split(".")[0]] += self_ms[s.id]
    for layer in LAYERS:
        v[f"{layer}.self_ms"] = layer_self[layer]

    rows = by_name.get("harness.row", [])
    v["harness.prepare_pipeline.ms"] = med("harness.prepare_pipeline")
    v["harness.row_self.ms"] = sum(self_ms[s.id] for s in rows)
    v["harness.pool_idle_frac"] = pool_idle_frac
    for t in T60_GRID:
        v[f"roomsim.simulate_rirs.t60_{t:g}.ms"] = med(
            "roomsim.simulate_rirs", lambda s, t=t: s.attrs.get("t60") == t)
    for name in ("roomsim.render_observations", "beamform.oracle_quantities",
                 "beamform.mvdr", "beamform.delay_and_sum", "signal.stft",
                 "signal.istft", "signal.read_wav", "signal.write_wav"):
        v[f"{name}.ms"] = med(name)

    kernels = {}
    for method, fit, cost in (("nmf", "fit_nmf", "gkl.gkl_divergence"),
                              ("ntf", "fit_ntf", "ntf.evaluate_cost")):
        fits = by_name.get(f"{method}.{fit}", [])
        steps = by_name.get(f"{method}.update_step", [])
        for k in K_GRID:
            fk = [s for s in fits if s.attrs.get("K") == k]
            sk = [s for s in steps if s.attrs.get("K") == k]
            step_ms = _median(s.ms for s in sk)
            iter_ms = _median(s.ms / s.attrs["iterations"] for s in fk
                              if "iterations" in s.attrs)
            shape = next((s.attrs for s in sk + fk if "I" in s.attrs), None)
            flops = step_flops(shape["A"], shape["I"], shape["J"], k) if shape else 0
            v[f"{method}.{fit}.K{k}.ms"] = _median(s.ms for s in fk)
            v[f"{method}.update_step.K{k}.ms"] = step_ms
            v[f"{method}.update_step.K{k}.gflops"] = (
                flops / (step_ms * 1e6) if step_ms else 0.0)
            v[f"{method}.iter.K{k}.gflops"] = (
                flops / (iter_ms * 1e6) if iter_ms else 0.0)
            if shape:
                kernels[f"{method}.K{k}"] = {
                    "shape": {d: shape[d] for d in "AIJ"},
                    "flops_per_step_computed": flops,
                    "bytes_per_step_computed": step_bytes(
                        shape["A"], shape["I"], shape["J"], k),
                    "update_step_ms": step_ms, "iter_ms": iter_ms,
                    "steps": len(sk), "fits": len(fk),
                }
        fit_total = sum(s.ms for s in fits)
        cost_in_fit = sum(s.ms for s in by_name.get(cost, [])
                          if tracer.ancestor(s, f"{method}.{fit}") is not None)
        v[f"{method}.cost_share"] = cost_in_fit / fit_total if fit_total else 0.0
        method_rows = [r for r in rows if r.attrs.get("method") == method]
        v[f"{method}.fits_per_row"] = (
            len(fits) / len(method_rows) if method_rows else 0.0)

    v["nmf.mask_wiener.ms"] = _median(
        r_mask + r_wiener for r_mask, r_wiener in zip(
            (s.ms for s in by_name.get("nmf.threshold_mask", [])),
            (s.ms for s in by_name.get("nmf.nmf_wiener", []))))
    v["ntf.ntf_wiener.ms"] = med("ntf.ntf_wiener")
    v["evaluate.filtered_sdr.ms"] = med("evaluate.filtered_sdr")
    v["evaluate.si_sdr.ms"] = med("evaluate.si_sdr")
    v["cli.self.ms"] = _median(self_ms[s.id] for s in by_name.get("cli.main", []))
    v["trace.overhead_frac"] = overhead_frac

    top = [s for s in spans if s.parent is None]
    busy_ms = sum(self_ms.values())
    detail = {
        "spans": len(spans),
        "absent": list(tracer.absent),
        "layer_self_ms": layer_self,
        "layer_share": {layer: ms / busy_ms if busy_ms else 0.0
                        for layer, ms in layer_self.items()},
        "busy_ms": busy_ms,
        "traced_wall_ms": traced_wall_ms,
        "outside_spans_ms": traced_wall_ms - sum(s.ms for s in top),
        "row_busy_ms": sum(s.ms for s in rows),
        "kernels": kernels,
        "kernel_formulas": {
            "flops_per_step": "12*A*I*J*K + 6*A*I*J (computed)",
            "bytes_per_step": "8*(9*A*I*J + 6*(A*I + A*J + I + J)*K) (computed)",
        },
    }
    return v, detail
