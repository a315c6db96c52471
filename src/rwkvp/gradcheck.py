"""Central finite-difference oracle for analytic gradients.

Runs in float64; the analytic path under test is the ordinary backward
pass, the oracle is (f(x+eps) - f(x-eps)) / 2 eps per trainable coordinate.
Frozen coordinates are skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rwkvp import autograd as ag
from rwkvp.params import FreezeMask, ParamStore


@dataclass
class GradCheckResult:
    max_rel_error: float
    coords_checked: int


def finite_diff_check(f, store: ParamStore, mask: FreezeMask,
                      epsilon: float = 1e-5) -> GradCheckResult:
    """Compare backward() gradients of the scalar f(store) against central
    differences over every trainable coordinate."""
    if epsilon <= 0:
        raise ValueError(f"epsilon must be > 0, got {epsilon}")
    if store[store.names()[0]].data.dtype != np.float64:
        raise ValueError("finite_diff_check requires a float64 store "
                         "(use store.astype(np.float64))")

    store.zero_grad()
    loss = f(store)
    loss.backward()
    grad = store.collect_grads(mask)

    max_err = 0.0
    count = 0
    for name in mask.trainable_names():
        flat = store[name].data.reshape(-1)
        # count is where this leaf's segment of the flat gradient starts
        analytic = grad[count:count + flat.size]
        for idx in range(flat.size):
            orig = flat[idx]
            with ag.no_grad():
                flat[idx] = orig + epsilon
                fp = f(store).item()
                flat[idx] = orig - epsilon
                fm = f(store).item()
            flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ag.NonFiniteError(f"f non-finite at perturbed {name}[{idx}]")
            cd = (fp - fm) / (2.0 * epsilon)
            an = analytic[idx]
            err = abs(an - cd) / max(abs(an), abs(cd), 1e-8)
            max_err = max(max_err, err)
            count += 1
    return GradCheckResult(max_rel_error=max_err, coords_checked=count)
