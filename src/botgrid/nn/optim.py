"""Adam with bias correction; parameters are updated in place."""

from __future__ import annotations

import numpy as np

from ..errors import ShapeMismatch

B1 = 0.9
B2 = 0.999
EPS = 1e-8


class Adam:
    """Moment estimates live in the optimizer, shaped like the parameters.

    Update per step t (after t <- t+1), with B1, B2 and EPS above:
        m <- B1*m + (1-B1)*g        mhat = m / (1 - B1^t)
        v <- B2*v + (1-B2)*g^2      vhat = v / (1 - B2^t)
        p <- p - lr * mhat / (sqrt(vhat) + EPS)
    """

    def __init__(self, learning_rate: float = 1e-3):
        self.learning_rate = learning_rate
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
        bc1 = 1.0 - B1**self.t
        bc2 = 1.0 - B2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m *= B1
            m += (1.0 - B1) * g
            v *= B2
            v += (1.0 - B2) * (g * g)
            # lr * mhat / (sqrt(vhat) + EPS), in that order, in two buffers
            step = m / bc1
            step *= self.learning_rate
            denom = v / bc2
            np.sqrt(denom, out=denom)
            denom += EPS
            step /= denom
            p -= step
