"""Generalized Kullback-Leibler divergence, the NTF cost's divergence.

Only `ntf` imports it; NMF runs the tensor step, so it needs nothing here.

Convention: d(b | a) = b*log(b/a) + a - b.  The zero cases matter here
because the attractor vectors contain genuine zeros: d(0 | a) = a, and
d(b | 0) = +inf for b > 0.
"""

from __future__ import annotations

import numpy as np

EPS = 1e-12


def gkl_divergence(data: np.ndarray, model: np.ndarray) -> float:
    """Total GKL divergence of `data` from `model`, model floored at EPS."""
    d = np.asarray(data, dtype=np.float64)
    m = np.maximum(np.asarray(model, dtype=np.float64), EPS)
    safe = np.where(d > 0, d, 1.0)
    terms = np.where(d > 0, d * np.log(safe / m) - d + m, m)
    return float(np.sum(terms))


def gkl_elementwise(b: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Entrywise d(b | a) with the exact zero conventions (no flooring)."""
    b = np.asarray(b, dtype=np.float64)
    a = np.asarray(a, dtype=np.float64)
    shape = np.broadcast(b, a).shape
    b, a = np.broadcast_to(b, shape), np.broadcast_to(a, shape)
    zero_b = b == 0
    zero_a = a == 0
    # log difference instead of log of ratio: no overflow for tiny a
    logb = np.log(np.where(zero_b, 1.0, b))
    loga = np.log(np.where(zero_a, 1.0, a))
    out = np.where(zero_b, a, b * (logb - loga) - b + a)
    return np.where(~zero_b & zero_a, np.inf, out)
