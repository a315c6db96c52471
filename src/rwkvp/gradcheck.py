"""Central finite-difference oracle for analytic gradients.

Runs in float64; the analytic path under test is the ordinary backward
pass, the oracle is (f(x+eps) - f(x-eps)) / 2 eps per trainable coordinate,
eps = EPSILON. Frozen coordinates are skipped entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from rwkvp import autograd as ag
from rwkvp import model as m
from rwkvp import perspectives, training
from rwkvp.params import FreezeMask, ParamStore

EPSILON = 1e-5


@dataclass
class GradCheckResult:
    max_rel_error: float
    coords_checked: int


def finite_diff_check(f, store: ParamStore, mask: FreezeMask) -> GradCheckResult:
    """Compare backward() gradients of the scalar f(store) against central
    differences over every trainable coordinate."""
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
                flat[idx] = orig + EPSILON
                fp = f(store).item()
                flat[idx] = orig - EPSILON
                fm = f(store).item()
            flat[idx] = orig
            if not (np.isfinite(fp) and np.isfinite(fm)):
                raise ag.NonFiniteError(f"f non-finite at perturbed {name}[{idx}]")
            cd = (fp - fm) / (2.0 * EPSILON)
            an = analytic[idx]
            err = abs(an - cd) / max(abs(an), abs(cd), 1e-8)
            max_err = max(max_err, err)
            count += 1
    return GradCheckResult(max_rel_error=max_err, coords_checked=count)


def model_gradcheck(seed: int) -> GradCheckResult:
    """finite_diff_check of the next-token loss of a float64 model: L=2, d=8,
    V=11, n=3 perspectives with the selector head, over 5 random tokens."""
    cfg = m.ModelConfig(n_layers=2, d_model=8, vocab_size=11, context_length=8)
    store, _ = m.init_base_params(cfg, seed=seed)
    ft_cfg, ft_store, ft_mask = perspectives.extend_to_perspectives(store, cfg, 3)
    # move off the symmetric start: identical perspectives make the selector
    # gradient exactly zero, which the FD noise floor cannot resolve
    training.inject_selector_noise(ft_store, 0.05, 0.0, seed=seed)
    training.inject_temporal_noise(ft_store, ft_cfg, 0.02, 0.0, seed=seed + 1)
    ft_store = ft_store.astype(np.float64)     # keeps each leaf's requires_grad
    tokens = np.random.default_rng(seed).integers(0, cfg.vocab_size, 6)

    def loss_fn(s):
        logits, _, _ = m.Model(ft_cfg, s, ft_mask).forward(tokens[:-1])
        return ag.cross_entropy(logits, tokens[1:])

    return finite_diff_check(loss_fn, ft_store, ft_mask)
