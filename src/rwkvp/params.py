"""Flat named-tensor store with a freeze mask.

The mask partitions the store into trainable and frozen entries. It is a
plain dict of name -> flag, so FreezeMask.fromkeys(names, True) makes every
named parameter trainable. Freezing is hard: frozen tensors carry
requires_grad=False, so backward never records a gradient for them and
optimizers never see them.

Training keeps the trainable leaves in one contiguous buffer (`flatten`):
each leaf's data is a reshaped view of its segment, in mask order, and the
gradient comes back as one flat array in the same order (`collect_grads`),
so the optimizer and the gradient clip run as whole-buffer array ops. The
optimizer updates the buffer in place, which every leaf view sees at once;
frozen leaves keep their own arrays.
"""

from __future__ import annotations

import hashlib

import numpy as np

from rwkvp.autograd import Tensor


class FreezeMask(dict):
    """name -> trainable flag; must cover every parameter in the store."""

    def trainable_names(self):
        return [n for n, flag in self.items() if flag]

    def frozen_names(self):
        return [n for n, flag in self.items() if not flag]


class ParamStore:
    """Insertion-ordered mapping of parameter name to Tensor leaf."""

    def __init__(self):
        self._params: dict[str, Tensor] = {}

    def add(self, name: str, data: np.ndarray, requires_grad: bool = True,
            dtype=np.float32) -> Tensor:
        if name in self._params:
            raise KeyError(f"duplicate parameter {name!r}")
        t = Tensor(np.asarray(data, dtype=dtype), requires_grad=requires_grad)
        self._params[name] = t
        return t

    def __getitem__(self, name: str) -> Tensor:
        return self._params[name]

    def names(self):
        return list(self._params)

    def items(self):
        return self._params.items()

    def arrays(self) -> dict[str, np.ndarray]:
        """Each leaf's array by name, as bound now: what a forward under
        no_grad reads. Read it once per forward and never keep it, since
        flatten and the noise injections rebind a leaf's array."""
        return {name: t.data for name, t in self._params.items()}

    def total_size(self) -> int:
        return sum(t.data.size for t in self._params.values())

    def astype(self, dtype) -> "ParamStore":
        out = ParamStore()
        for name, t in self._params.items():
            out.add(name, t.data, t.requires_grad, dtype=dtype)
        return out

    def flatten(self, names) -> np.ndarray:
        """Copy the named leaves, in order, into one contiguous buffer and
        rebind each leaf's data to a reshaped view of its segment.

        Returns the buffer; writing to it updates the leaves. All leaves must
        share one dtype, which the buffer takes.
        """
        leaves = [self._params[name] for name in names]
        dtypes = {t.data.dtype for t in leaves}
        if len(dtypes) > 1:
            raise TypeError(f"cannot flatten leaves of mixed dtypes {sorted(map(str, dtypes))}")
        flat = np.concatenate([t.data.reshape(-1) for t in leaves])
        start = 0
        for t in leaves:
            stop = start + t.data.size
            t.data = flat[start:stop].reshape(t.data.shape)
            start = stop
        return flat

    def zero_grad(self) -> None:
        for t in self._params.values():
            t.grad = None

    def collect_grads(self, mask: FreezeMask) -> np.ndarray:
        """The trainable parameters' gradients as one flat array in
        mask.trainable_names() order (the layout of `flatten`); a trainable
        leaf without a gradient gets a zero segment. Raises if a frozen leaf
        holds a gradient (hard exclusion of frozen)."""
        for name in mask.frozen_names():
            if self._params[name].grad is not None:
                raise AssertionError(f"frozen parameter {name!r} received a gradient")
        parts = []
        for name in mask.trainable_names():
            t = self._params[name]
            parts.append((t.grad if t.grad is not None else np.zeros_like(t.data)).reshape(-1))
        return np.concatenate(parts)

    def digest(self, names=None) -> str:
        """SHA-256 over the raw bytes of the selected parameters (sorted by name)."""
        h = hashlib.sha256()
        for name in sorted(names if names is not None else self._params):
            h.update(name.encode())
            h.update(self._params[name].data.tobytes())
        return h.hexdigest()
