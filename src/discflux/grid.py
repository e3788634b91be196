"""Uniform mesh, staggered-parity states, and exact cell averaging.

The solution alternates between two grids: Base-parity states hold one
average per mesh cell [x_min + j*dx, x_min + (j+1)*dx); Half-parity states
hold averages over the shifted cells whose centers are the interior base
interfaces.  A Base state on an n-cell mesh has n entries, a Half state
has n - 1.  Absorbing (zero-gradient) boundaries are realized by ghost
replication of the edge entries.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from enum import Enum
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .flux_model import Coefficient


class Parity(Enum):
    BASE = "base"
    HALF = "half"


@dataclass(frozen=True)
class Mesh:
    x_min: float
    x_max: float
    dx: float
    n_cells: int

    def __post_init__(self):
        if self.n_cells < 1 or self.dx <= 0:
            raise ValueError("mesh needs n_cells >= 1 and dx > 0")
        closure = self.x_min + self.n_cells * self.dx
        if abs(closure - self.x_max) > 1e-12 * max(1.0, abs(self.x_max), abs(self.x_min)):
            raise ValueError("x_min + n_cells*dx must equal x_max")

    @classmethod
    def from_cells(cls, x_min: float, x_max: float, n_cells: int) -> "Mesh":
        return cls(x_min, x_max, (x_max - x_min) / n_cells, n_cells)

    def n_values(self, parity: Parity) -> int:
        return self.n_cells if parity is Parity.BASE else self.n_cells - 1

    def centers(self, parity: Parity) -> np.ndarray:
        """Cell centers for the given parity."""
        if parity is Parity.BASE:
            return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx
        return self.x_min + np.arange(1, self.n_cells) * self.dx

    def cell_edges(self, parity: Parity) -> np.ndarray:
        """Cell boundaries for the given parity (n_values + 1 entries)."""
        if parity is Parity.BASE:
            return self.x_min + np.arange(self.n_cells + 1) * self.dx
        return self.x_min + (np.arange(self.n_cells) + 0.5) * self.dx

    def interface_positions(self, parity: Parity) -> np.ndarray:
        """Positions of the jumps between consecutive values of a state."""
        c = self.centers(parity)
        return 0.5 * (c[:-1] + c[1:])


@dataclass(frozen=True)
class StaggeredState:
    """Cell averages at one time level, together with the matching averaged coefficient."""

    mesh: Mesh
    values: np.ndarray
    kbar: np.ndarray
    parity: Parity
    time: float
    step_index: int

    def __post_init__(self):
        if len(self.values) != len(self.kbar):
            raise ValueError("values and kbar must have equal length")
        if len(self.values) != self.mesh.n_values(self.parity):
            raise ValueError(f"{self.parity.value} state on {self.mesh.n_cells} cells "
                             f"needs {self.mesh.n_values(self.parity)} values")
        if (self.step_index % 2 == 0) != (self.parity is Parity.BASE):
            raise ValueError("parity must be Base exactly on even step indices")
        if self.time < 0 or self.step_index < 0:
            raise ValueError("time and step_index must be nonnegative")

    def with_values(self, values: np.ndarray) -> "StaggeredState":
        return replace(self, values=values)


def _split_points(a: float, b: float, jumps: Sequence[float]) -> list[float]:
    pts = [a] + [x for x in jumps if a < x < b] + [b]
    return pts


def _average_on(a: float, b: float, fn: Callable, const: float | None, quad_points: int) -> float:
    """Integral mean of fn over [a, b]; exact for constants, composite midpoint otherwise."""
    if const is not None:
        return const
    xs = a + (np.arange(quad_points) + 0.5) * (b - a) / quad_points
    return float(np.mean(fn(xs)))


def cell_average_initial(mesh: Mesh, u0: Callable[[np.ndarray], np.ndarray],
                         quad_points: int = 8, jumps: Sequence[float] = ()) -> np.ndarray:
    """Per-cell averages of the initial data on the Base grid.

    Cells are split at the supplied jump locations, so piecewise-constant
    data is averaged exactly; smooth pieces use the composite midpoint rule
    with `quad_points` subintervals.
    """
    if quad_points < 1:
        raise ValueError("quad_points must be >= 1")
    edges = mesh.cell_edges(Parity.BASE)
    out = np.empty(mesh.n_cells)
    for j in range(mesh.n_cells):
        a, b = edges[j], edges[j + 1]
        pts = _split_points(a, b, jumps)
        acc = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            acc += (hi - lo) * _average_on(lo, hi, u0, None, quad_points)
        out[j] = acc / (b - a)
    return out


def cell_average_coefficient(mesh: Mesh, coeff: Coefficient, parity: Parity,
                             quad_points: int = 8) -> np.ndarray:
    """Exact cell averages of the coefficient at the given parity.

    Cells are split analytically at the coefficient's discontinuities;
    constant pieces integrate exactly, smooth pieces use the midpoint rule.
    The coefficient is time-independent, so results are cached per
    (mesh, coefficient, parity); callers receive a fresh copy.
    """
    return _cached_coefficient_average(mesh, coeff, parity, quad_points).copy()


@lru_cache(maxsize=64)
def _cached_coefficient_average(mesh: Mesh, coeff: Coefficient, parity: Parity,
                                quad_points: int) -> np.ndarray:
    edges = mesh.cell_edges(parity)
    out = np.empty(len(edges) - 1)
    for j in range(len(out)):
        a, b = edges[j], edges[j + 1]
        acc = 0.0
        pts = _split_points(a, b, coeff.breaks)
        for lo, hi in zip(pts[:-1], pts[1:]):
            i = coeff.piece_index(0.5 * (lo + hi))
            acc += (hi - lo) * _average_on(lo, hi, coeff.funcs[i],
                                           coeff.const_values[i], quad_points)
        out[j] = acc / (b - a)
    return out


def extend_absorbing(state: StaggeredState, ghost: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad values and kbar with `ghost` copies of the edge entries on each side."""
    if ghost < 1:
        raise ValueError("ghost must be >= 1")
    if len(state.values) == 0:
        raise ValueError("cannot extend an empty state")
    return (_replicate(state.values, ghost), _replicate(state.kbar, ghost))


def _replicate(arr: np.ndarray, ghost: int) -> np.ndarray:
    return np.concatenate([arr[:1].repeat(ghost), arr, arr[-1:].repeat(ghost)])


def initial_state(mesh: Mesh, coeff: Coefficient, u0: Callable,
                  quad_points: int = 8, jumps: Sequence[float] = ()) -> StaggeredState:
    """Discretize initial data and coefficient on the Base grid at t = 0."""
    return StaggeredState(
        mesh=mesh,
        values=cell_average_initial(mesh, u0, quad_points=quad_points, jumps=jumps),
        kbar=cell_average_coefficient(mesh, coeff, Parity.BASE, quad_points=quad_points),
        parity=Parity.BASE,
        time=0.0,
        step_index=0,
    )


def state_csv_text(state: StaggeredState) -> str:
    """Solution dump: header x,u then one full-precision row per cell center."""
    xs = state.mesh.centers(state.parity)
    lines = ["x,u"]
    lines += [f"{x:.16e},{u:.16e}" for x, u in zip(xs, state.values)]
    return "\n".join(lines) + "\n"


def write_state_csv(state: StaggeredState, path) -> None:
    with open(path, "w") as fh:
        fh.write(state_csv_text(state))
