"""Central-cut ellipsoid primitives.

An ellipsoid is {x : (x-c)^T B^{-1} (x-c) <= 1} with B symmetric positive
definite.  ``update`` replaces it by the minimum-volume ellipsoid covering
the half {x : g.x >= g.c}, shrinking volume by the fixed central-cut
factor (D/(D+1)) * (D^2/(D^2-1))^((D-1)/2), which is at most
exp(-1/(2(D+1))).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Ellipsoid",
    "NumericBreakdown",
    "central_cut_volume_ratio",
    "unit_ball_log_volume",
]


class NumericBreakdown(RuntimeError):
    """The shape matrix lost positive definiteness beyond repair."""


def unit_ball_log_volume(dim: int) -> float:
    return (dim / 2.0) * math.log(math.pi) - math.lgamma(dim / 2.0 + 1.0)


def central_cut_volume_ratio(dim: int) -> float:
    """Exact volume ratio of one central cut in the given dimension."""
    if dim == 1:
        return 0.5
    return (dim / (dim + 1.0)) * (dim * dim / (dim * dim - 1.0)) ** ((dim - 1) / 2.0)


@dataclass(frozen=True)
class Ellipsoid:
    center: np.ndarray
    shape: np.ndarray  # B, symmetric positive definite

    def __post_init__(self) -> None:
        c = np.asarray(self.center, dtype=float).reshape(-1)
        B = np.asarray(self.shape, dtype=float)
        if B.shape != (c.size, c.size):
            raise ValueError("shape matrix does not match the center dimension")
        object.__setattr__(self, "center", c)
        object.__setattr__(self, "shape", 0.5 * (B + B.T))

    @property
    def dim(self) -> int:
        return self.center.size

    @classmethod
    def ball(cls, center, radius: float) -> "Ellipsoid":
        c = np.asarray(center, dtype=float).reshape(-1)
        return cls(c, (radius * radius) * np.eye(c.size))

    @classmethod
    def circumscribing_box(cls, lo, hi) -> "Ellipsoid":
        """Smallest ball containing the axis-aligned box [lo, hi]."""
        lo = np.asarray(lo, dtype=float).reshape(-1)
        hi = np.asarray(hi, dtype=float).reshape(-1)
        center = 0.5 * (lo + hi)
        radius = 0.5 * float(np.linalg.norm(hi - lo))
        return cls.ball(center, max(radius, 1e-12))

    def log_volume(self) -> float:
        sign, logdet = np.linalg.slogdet(self.shape)
        if sign <= 0:
            raise NumericBreakdown("shape matrix is not positive definite")
        return unit_ball_log_volume(self.dim) + 0.5 * logdet

    def contains(self, x, tol: float = 1e-9) -> bool:
        d = np.asarray(x, dtype=float).reshape(-1) - self.center
        try:
            y = np.linalg.solve(self.shape, d)
        except np.linalg.LinAlgError:
            y = np.linalg.lstsq(self.shape, d, rcond=None)[0]
        return float(np.dot(d, y)) <= 1.0 + tol

    def update(self, g) -> "Ellipsoid":
        """Minimum-volume ellipsoid containing {x in E : g.x >= g.center}."""
        g = np.asarray(g, dtype=float).reshape(-1)
        if g.shape != self.center.shape:
            raise ValueError("cut normal dimension mismatch")
        if not np.any(g != 0.0):
            raise ValueError("cut normal must be nonzero")
        D = self.dim
        if D == 1:
            half = math.sqrt(max(self.shape[0, 0], 0.0))
            sgn = 1.0 if g[0] > 0 else -1.0
            return Ellipsoid(
                self.center + sgn * 0.5 * half, np.array([[self.shape[0, 0] / 4.0]])
            )
        Bg = self.shape @ g
        gBg = float(np.dot(g, Bg))
        if gBg <= 0.0 or not math.isfinite(gBg):
            raise NumericBreakdown("cut direction has nonpositive B-norm")
        step = Bg / math.sqrt(gBg)
        center = self.center + step / (D + 1.0)
        # exactly symmetric, as shape and outer(Bg, Bg) are, so the
        # constructor's symmetrization would return it unchanged
        B = (D * D / (D * D - 1.0)) * (
            self.shape - (2.0 / (D + 1.0)) * np.outer(Bg, Bg) / gBg
        )
        updated = object.__new__(Ellipsoid)
        object.__setattr__(updated, "center", center)
        object.__setattr__(updated, "shape", B)
        return updated
