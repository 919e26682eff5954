"""Adam with bias correction; parameters are updated in place."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch


class Adam:
    """Moment estimates live in the optimizer, shaped like the parameters.

    Update per step t (after t <- t+1):
        m <- b1*m + (1-b1)*g        mhat = m / (1 - b1^t)
        v <- b2*v + (1-b2)*g^2      vhat = v / (1 - b2^t)
        p <- p - lr * mhat / (sqrt(vhat) + eps)
    """

    def __init__(
        self,
        learning_rate: float = 1e-3,
        b1: float = 0.9,
        b2: float = 0.999,
        eps: float = 1e-8,
    ):
        self.learning_rate = learning_rate
        self.b1 = b1
        self.b2 = b2
        self.eps = eps
        self.t = 0
        self.m: list[np.ndarray] | None = None
        self.v: list[np.ndarray] | None = None

    def step(self, params: list[np.ndarray], grads: list[np.ndarray]) -> None:
        if len(params) != len(grads):
            raise ShapeMismatch(f"{len(params)} params vs {len(grads)} grads")
        for p, g in zip(params, grads):
            if g is None or p.shape != g.shape:
                raise ShapeMismatch(
                    f"param shape {p.shape} vs grad shape {None if g is None else g.shape}"
                )
        if self.m is None:
            self.m = [np.zeros_like(p) for p in params]
            self.v = [np.zeros_like(p) for p in params]
        elif len(self.m) != len(params) or any(
            m.shape != p.shape for m, p in zip(self.m, params)
        ):
            raise ShapeMismatch("optimizer state does not match parameter list")

        self.t += 1
        bc1 = 1.0 - self.b1**self.t
        bc2 = 1.0 - self.b2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= self.b1
            m += (1.0 - self.b1) * g
            v *= self.b2
            v += (1.0 - self.b2) * (g * g)
            # lr * mhat / (sqrt(vhat) + eps), in that order, in two buffers
            step = m / bc1
            step *= self.learning_rate
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += self.eps
            step /= denom
            p -= step
