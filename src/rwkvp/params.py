"""Flat named-tensor store with a freeze mask.

The mask partitions the store into trainable and frozen entries. Freezing is
hard: frozen tensors carry requires_grad=False, so backward never records a
gradient for them and optimizers never see them.
"""

from __future__ import annotations

import hashlib

import numpy as np

from rwkvp.autograd import Tensor


class FreezeMask(dict):
    """name -> trainable flag; must cover every parameter in the store."""

    @classmethod
    def all_trainable(cls, names) -> "FreezeMask":
        return cls({n: True for n in names})

    def trainable_names(self):
        return [n for n, flag in self.items() if flag]

    def frozen_names(self):
        return [n for n, flag in self.items() if not flag]


class ParamStore:
    """Insertion-ordered mapping of parameter name to Tensor leaf."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, requires_grad: bool = True,
            dtype=None) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        from rwkvp import autograd as ag
        t = Tensor(np.asarray(data, dtype=dtype or ag.get_default_dtype()),
                   requires_grad=requires_grad)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def __contains__(self, name: str) -> bool:
        return name in self._params

    def __len__(self) -> int:
        return len(self._params)

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def total_size(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def copy(self) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data.copy(), t.requires_grad, dtype=t.data.dtype)
        return out

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data, t.requires_grad, dtype=dtype)
        return out

    def apply_freeze(self, mask: FreezeMask) -> None:
        """Set requires_grad from the mask; mask must cover the store exactly."""
        if set(mask) != set(self._params):
            missing = set(self._params) ^ set(mask)
            raise KeyError(f"freeze mask does not match store; mismatched: {sorted(missing)}")
        for name, flag in mask.items():
            self._params[name].requires_grad = bool(flag)

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def collect_grads(self, mask: FreezeMask) -> dict[str, np.ndarray]:
        """Gradients for trainable parameters only (hard exclusion of frozen)."""
        grads = {}
        for name in mask.trainable_names():
            t = self._params[name]
            if t.grad is not None:
                grads[name] = t.grad
        for name in mask.frozen_names():
            if self._params[name].grad is not None:
                raise AssertionError(f"frozen parameter {name!r} received a gradient")
        return grads

    def digest(self, names=None) -> str:
        """SHA-256 over the raw bytes of the selected parameters (sorted by name)."""
        h = hashlib.sha256()
        for name in sorted(names if names is not None else self._params):
            h.update(name.encode())
            h.update(self._params[name].data.tobytes())
        return h.hexdigest()
