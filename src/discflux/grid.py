"""Uniform mesh, staggered-parity states, and exact cell averaging.

The solution alternates between two grids: Base-parity states hold one
average per mesh cell [x_min + j*dx, x_min + (j+1)*dx); Half-parity states
hold averages over the shifted cells whose centers are the interior base
interfaces.  A Base state on an n-cell mesh has n entries, a Half state
has n - 1.  Boundaries absorb (zero gradient): a ghost cell repeats its
edge entry.  The march keeps a ghost slot at each end of its Half rows; the
single steps pad a Half state, and `predictor_corrector_step` (the reference
of the `identity` suite) every state, through `extend_absorbing`.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
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
        finite = np.isfinite((self.x_min, self.x_max, self.dx)).all()
        if self.n_cells < 1 or self.dx <= 0 or not finite:
            raise ValueError("mesh needs n_cells >= 1 and finite x_min, x_max and dx > 0")
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


def _cell_averages(edges: np.ndarray, jumps: Sequence[float], pieces: tuple,
                   quad_points: int) -> np.ndarray:
    """Means over the cells between consecutive `edges`.

    Each cell is split at the `jumps` strictly inside it, in increasing order.
    `pieces` is (breaks, funcs, const_values) as in Coefficient: a sub-interval
    takes the piece its midpoint falls in; constant pieces are exact, the others
    use the composite midpoint rule with `quad_points` nodes.  Sub-interval
    integrals are summed per cell in order and divided by the cell width.
    """
    if quad_points < 1:
        raise ValueError("quad_points must be >= 1")
    inner = sorted(x for x in jumps if edges[0] < x < edges[-1] and x not in edges)
    at = np.searchsorted(edges, inner)
    pts = np.insert(edges, at, inner)
    owner = np.insert(np.arange(len(edges) - 1), at, at - 1)
    lo, width = pts[:-1], np.diff(pts)
    breaks, funcs, const_values = pieces
    piece = np.searchsorted(breaks, 0.5 * (lo + pts[1:]), side="right")
    means = np.empty(len(lo))
    for i, (fn, const) in enumerate(zip(funcs, const_values)):
        on = piece == i
        if const is not None:
            means[on] = const
        elif on.any():
            xs = (np.arange(quad_points) + 0.5) * width[on][:, None]
            xs /= quad_points
            xs += lo[on][:, None]
            means[on] = np.mean(fn(xs), axis=1)
    sums = np.bincount(owner, weights=width * means, minlength=len(edges) - 1)
    return sums / np.diff(edges)


def cell_average_initial(mesh: Mesh, u0: Callable[[np.ndarray], np.ndarray],
                         quad_points: int = 8, jumps: Sequence[float] = ()) -> np.ndarray:
    """Per-cell averages of the initial data on the Base grid.

    Cells are split at the supplied jump locations, so piecewise-constant
    data is averaged exactly; smooth pieces use the composite midpoint rule
    with `quad_points` subintervals.  `u0` is called once on a 2-D array of
    nodes, so it must act elementwise.
    """
    return _cell_averages(mesh.cell_edges(Parity.BASE), jumps, ((), (u0,), (None,)),
                          quad_points)


def cell_average_coefficient(mesh: Mesh, coeff: Coefficient, parity: Parity,
                             quad_points: int = 8) -> np.ndarray:
    """Exact cell averages of the coefficient at the given parity.

    Cells are split analytically at the coefficient's discontinuities;
    constant pieces integrate exactly, smooth pieces use the midpoint rule.
    """
    return _cell_averages(mesh.cell_edges(parity), coeff.breaks,
                          (coeff.breaks, coeff.funcs, coeff.const_values), quad_points)


def extend_absorbing(state: StaggeredState, ghost: int) -> tuple[np.ndarray, np.ndarray]:
    """Pad values and kbar with `ghost` copies of the edge entries on each side."""
    if ghost < 1:
        raise ValueError("ghost must be >= 1")
    if len(state.values) == 0:
        raise ValueError("cannot extend an empty state")
    return tuple(np.concatenate([a[:1].repeat(ghost), a, a[-1:].repeat(ghost)])
                 for a in (state.values, state.kbar))


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


def write_state_csv(state: StaggeredState, path) -> None:
    """Solution dump: header x,u then one full-precision row per cell center, formatted 1024
    rows at a time: the file's text, never held whole, would set a fine run's peak memory."""
    rows = np.column_stack((state.mesh.centers(state.parity), state.values))
    with open(path, "w") as fh:
        fh.write("x,u\n")
        for chunk in np.split(rows, range(1024, len(rows), 1024)):
            fh.write("%.16e,%.16e\n" * len(chunk) % tuple(chunk.ravel().tolist()))
