"""Adam optimizer over named Parameter dicts."""

from __future__ import annotations

import numpy as np

from .layers import Parameter

BETA1 = 0.9
BETA2 = 0.999
EPS = 1e-8


class Adam:
    """Standard Adam with bias correction; only the learning rate is set,
    the moment decays and epsilon are the usual BETA1, BETA2 and EPS.

    Moments mirror parameter shapes and stay FP32, like the parameters.
    """

    def __init__(self, params: dict[str, Parameter], lr: float = 1e-3):
        if lr <= 0.0:
            raise ValueError("learning rate must be positive")
        self.params = params
        self.lr = lr
        self.step_count = 0
        self._m = {name: np.zeros_like(p.value) for name, p in params.items()}
        self._v = {name: np.zeros_like(p.value) for name, p in params.items()}

    def step(self):
        self.step_count += 1
        t = self.step_count
        bc1 = 1.0 - BETA1 ** t
        bc2 = 1.0 - BETA2 ** t
        for name, p in self.params.items():
            g = p.grad
            if g.shape != p.value.shape:
                raise ValueError(f"gradient shape mismatch for {name}")
            m = self._m[name]
            v = self._v[name]
            m *= BETA1
            m += (1.0 - BETA1) * g
            v *= BETA2
            v += (1.0 - BETA2) * (g * g)
            p.value -= self.lr * (m / bc1) / (np.sqrt(v / bc2) + EPS)
