"""The sampled frame track along a striction curve, and the canonical frame."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lorentz import Vec3


@dataclass
class SampledSurface:
    """Striction curve, frame and curvatures sampled along arc length.

    One struct of arrays serves explicit and synthesized surfaces alike:
    row i holds arc length ``s``, the striction point ``c``, the frame
    (``q``, ``h``, ``a``), the curvatures ``k1`` and ``k2`` and the hyperbolic
    angle ``theta`` between striction tangent and ruling.  ``theta`` is NaN
    where the striction tangent is not timelike.  ``c2`` and ``hprime``
    optionally carry d2c/ds2 and dh/ds computed symbolically by the producer.

    ``track[i]`` is the single-point view: the same class holding row i.
    """

    s: np.ndarray
    c: np.ndarray
    q: np.ndarray
    h: np.ndarray
    a: np.ndarray
    k1: np.ndarray
    k2: np.ndarray
    theta: np.ndarray
    epsilon: int
    c2: np.ndarray | None = None
    hprime: np.ndarray | None = None

    def __len__(self) -> int:
        return self.s.shape[0]

    def __getitem__(self, i) -> SampledSurface:
        def row(x):
            return None if x is None else x[i]

        return SampledSurface(
            self.s[i], self.c[i], self.q[i], self.h[i], self.a[i], self.k1[i], self.k2[i],
            self.theta[i], self.epsilon, row(self.c2), row(self.hprime),
        )

    @property
    def step(self) -> float:
        return float(self.s[1] - self.s[0])

    def frames(self) -> SampledSurface:
        """The track itself (``bench/tracing.py`` traces this call by name)."""
        return self


def canonical_frame() -> tuple[Vec3, Vec3, Vec3]:
    """Default initial frame: q, h, a with h = a*q and det(q, h, a) = -1."""
    return (
        np.array([1.0, 0.0, 0.0]),
        np.array([0.0, 1.0, 0.0]),
        np.array([0.0, 0.0, -1.0]),
    )
