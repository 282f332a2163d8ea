"""AdamW and the cosine learning-rate schedule used by all trainers."""

from __future__ import annotations

import math

import numpy as np

from .tensor import Tensor


class AdamW:
    """Decoupled-weight-decay Adam over a named parameter dict.

    Parameters with ``grad is None`` at step time are skipped entirely:
    no moment update, no decay. That keeps unused parameter groups
    bit-for-bit untouched, which the ablation equivalence tests rely on.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8  # Adam's usual constants

    def __init__(
        self,
        params: dict[str, Tensor],
        lr: float = 3e-4,
        weight_decay: float = 0.0,
        lr_scale: dict[str, float] | None = None,
    ):
        self.params = dict(params)
        self.lr = lr
        self.weight_decay = weight_decay
        scale = lr_scale or {}  # a name's lr multiplier is that of its first prefix here
        self._mult = {k: next((s for pre, s in scale.items() if k.startswith(pre)), 1.0)
                      for k in self.params}
        self._m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self._t = {k: 0 for k in self.params}

    def step(self, lr: float | None = None):
        base = self.lr if lr is None else lr
        for name, p in self.params.items():
            if p.grad is None:
                continue
            g = p.grad
            self._t[name] += 1
            t = self._t[name]
            m = self._m[name]
            v = self._v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            mhat = m / (1.0 - self.beta1**t)
            vhat = v / (1.0 - self.beta2**t)
            eta = base * self._mult[name]
            p.data -= eta * (mhat / (np.sqrt(vhat) + self.eps) + self.weight_decay * p.data)

    def zero_grad(self):
        for p in self.params.values():
            p.grad = None


def cosine_warmup_lr(
    step: int,
    total_steps: int,
    base_lr: float,
    final_lr: float,
    warmup_steps: int,
) -> float:
    """Linear warm-up to ``base_lr`` then cosine decay to ``final_lr``."""
    if warmup_steps > 0 and step < warmup_steps:
        return base_lr * (step + 1) / warmup_steps
    span = max(1, total_steps - warmup_steps)
    frac = min(1.0, max(0.0, (step - warmup_steps) / span))
    return final_lr + 0.5 * (base_lr - final_lr) * (1.0 + math.cos(math.pi * frac))
