"""Minmod slope reconstruction and its mesh-dependent modification."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

_ZERO = np.zeros(())  # a 0-d operand (see `slopes`)


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


def slopes(values: np.ndarray, dx: float, cfg: LimiterConfig) -> np.ndarray:
    """Limited slopes per cell (first and last entries are 0).

    Interior slopes are minmod(u[j+1]-u[j], (u[j+1]-u[j-1])/2, u[j]-u[j-1]);
    callers supply ghost cells when boundary slopes matter.  Only the one-sided
    differences are taken: where they share a strict sign, u[j+1]-u[j-1] rounds to at
    least twice the smaller one, and halving is monotone, so the central one never decides.
    minmod is the smaller of the two where it is positive, the larger where that is negative,
    else +0.0 (NaN included), both clipped first by the modified cap.  The cap and 0 are 0-d
    arrays: numpy takes a Python float operand 0.2-0.35 us slower per call.
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
    lo, hi = np.minimum(d[1:], d[:-1]), np.maximum(d[1:], d[:-1])
    if cfg.kind is LimiterKind.MINMOD_MODIFIED:
        cap = cfg.k_tilde * dx**cfg.alpha
        np.minimum(lo, np.array(cap), out=lo)
        np.maximum(hi, np.array(-cap), out=hi)
    inner = out[1:-1]
    np.copyto(inner, lo, where=lo > _ZERO)
    np.copyto(inner, hi, where=hi < _ZERO)
    return out
