"""Minmod slope reconstruction and its mesh-dependent modification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np


class LimiterKind(Enum):
    ZERO = "zero"
    MINMOD = "minmod"
    MINMOD_MODIFIED = "minmod-modified"


@dataclass(frozen=True)
class LimiterConfig:
    """Slope limiter selection.

    The modified variant appends sign(forward jump) * k_tilde * dx**alpha as
    a fourth minmod argument, capping every slope at k_tilde * dx**alpha;
    alpha must lie strictly inside (2/3, 1).
    """

    kind: LimiterKind = LimiterKind.MINMOD
    k_tilde: float = 1.0
    alpha: float = 0.75

    def __post_init__(self):
        if not 0 < self.k_tilde < math.inf:
            raise ValueError("k_tilde must be positive and finite")
        if self.kind is LimiterKind.MINMOD_MODIFIED and not (2.0 / 3.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly in (2/3, 1) for the modified limiter")


def minmod(args: Sequence[float]) -> float:
    """Smallest-magnitude argument if all share a strict sign, else 0."""
    if len(args) == 0:
        raise ValueError("minmod needs at least one argument")
    if all(a > 0 for a in args):
        return min(args)
    if all(a < 0 for a in args):
        return max(args)
    return 0.0


def slopes(values: np.ndarray, dx: float, cfg: LimiterConfig) -> np.ndarray:
    """Limited slopes per cell (first and last entries are 0).

    Interior slopes are minmod(u[j+1]-u[j], (u[j+1]-u[j-1])/2, u[j]-u[j-1]);
    callers supply ghost cells when boundary slopes matter.  Only the one-sided
    differences are taken: where they share a strict sign, u[j+1]-u[j-1] rounds to at
    least twice the smaller one, and halving is monotone, so the central one never decides.
    """
    values = np.asarray(values, dtype=float)
    if len(values) < 3:
        raise ValueError("need at least 3 values for interior slopes")
    if not 0 < dx < math.inf:
        raise ValueError("dx must be positive and finite")
    out = np.zeros(len(values))
    if cfg.kind is LimiterKind.ZERO:
        return out
    d = values[1:] - values[:-1]  # fwd = d[1:], bwd = d[:-1]
    a = np.abs(d)
    mags = np.minimum(a[1:], a[:-1])
    if cfg.kind is LimiterKind.MINMOD_MODIFIED:
        np.minimum(mags, cfg.k_tilde * dx**cfg.alpha, out=mags)
    # Nonzero only where fwd and bwd share a strict sign (signs sum to +-2); else +0.0.
    sd, inner = np.sign(d), out[1:-1]
    t = sd[1:] + sd[:-1]
    np.copyto(inner, mags, where=t == 2.0)
    np.subtract(inner, mags, out=inner, where=t == -2.0)
    return out
