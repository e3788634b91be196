import bisect

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from discflux import (Coefficient, Mesh, Parity, StaggeredState,
                      builtin_multiplicative, cell_average_coefficient,
                      cell_average_initial, extend_absorbing, initial_state)
from discflux.grid import state_csv_text


@pytest.fixture
def step_coeff():
    return Coefficient.piecewise_constant([0.0], [3.0, 1.0])


class TestMesh:
    def test_from_cells(self):
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        assert mesh.dx == pytest.approx(0.04)
        assert mesh.n_cells == 50

    def test_closure_validated(self):
        with pytest.raises(ValueError):
            Mesh(0.0, 1.0, 0.1, 5)

    def test_centers(self):
        mesh = Mesh.from_cells(0.0, 1.0, 4)
        assert mesh.centers(Parity.BASE) == pytest.approx([0.125, 0.375, 0.625, 0.875])
        assert mesh.centers(Parity.HALF) == pytest.approx([0.25, 0.5, 0.75])
        assert mesh.n_values(Parity.HALF) == 3


class TestCellAverageInitial:
    def test_constant_is_exact(self):
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        vals = cell_average_initial(mesh, lambda x: np.full_like(x, 0.15))
        assert np.all(vals == 0.15)

    def test_step_split_exactly(self):
        # cell [-0.08, 0.08) straddles the jump symmetrically
        mesh = Mesh.from_cells(-0.08, 0.08, 1)
        u0 = lambda x: np.where(x <= 0.0, 0.9, 0.2)
        vals = cell_average_initial(mesh, u0, jumps=(0.0,))
        assert vals[0] == pytest.approx(0.55, abs=1e-15)

    def test_linear_cell(self):
        mesh = Mesh.from_cells(0.0, 1.0, 1)
        vals = cell_average_initial(mesh, lambda x: x, quad_points=1)
        assert vals[0] == pytest.approx(0.5, abs=1e-15)

    def test_quad_points_validated(self):
        mesh = Mesh.from_cells(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            cell_average_initial(mesh, lambda x: x, quad_points=0)


class TestCellAverageCoefficient:
    def test_base_parity_around_jump(self, step_coeff):
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        kb = cell_average_coefficient(mesh, step_coeff, Parity.BASE)
        assert kb[24] == 3.0  # cell [-0.04, 0)
        assert kb[25] == 1.0  # cell [0, 0.04)

    def test_half_parity_straddling_cell(self, step_coeff):
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        kh = cell_average_coefficient(mesh, step_coeff, Parity.HALF)
        assert kh[24] == pytest.approx(2.0, abs=1e-15)  # cell [-0.02, 0.02)

    def test_constant_coefficient_both_parities(self):
        coeff = Coefficient.piecewise_constant([], [2.5])
        mesh = Mesh.from_cells(0.0, 1.0, 8)
        for parity in Parity:
            assert np.all(cell_average_coefficient(mesh, coeff, parity) == 2.5)

    def test_half_is_neighbor_average_for_interface_jumps(self, step_coeff):
        # piecewise constant with jumps only at base interfaces
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        kb = cell_average_coefficient(mesh, step_coeff, Parity.BASE)
        kh = cell_average_coefficient(mesh, step_coeff, Parity.HALF)
        assert kh == pytest.approx(0.5 * (kb[:-1] + kb[1:]), abs=1e-15)

    def test_smooth_piece_quadrature(self):
        coeff = Coefficient(breaks=(), funcs=(np.sin,), const_values=(None,),
                            bv_norm=2.0, sup_norm=1.0)
        mesh = Mesh.from_cells(0.0, np.pi, 16)
        kb = cell_average_coefficient(mesh, coeff, Parity.BASE, quad_points=64)
        edges = mesh.cell_edges(Parity.BASE)
        exact = (np.cos(edges[:-1]) - np.cos(edges[1:])) / mesh.dx
        assert kb == pytest.approx(exact, abs=1e-6)


def _split_points_oracle(a, b, jumps):
    return [a] + [x for x in jumps if a < x < b] + [b]


def _average_on_oracle(a, b, fn, const, quad_points):
    if const is not None:
        return const
    xs = a + (np.arange(quad_points) + 0.5) * (b - a) / quad_points
    return float(np.mean(fn(xs)))


def _cell_average_initial_oracle(mesh, u0, quad_points, jumps):
    """The per-cell loop as first written, kept to pin the vectorized form bit for bit."""
    edges = mesh.cell_edges(Parity.BASE)
    out = np.empty(mesh.n_cells)
    for j in range(mesh.n_cells):
        a, b = edges[j], edges[j + 1]
        pts = _split_points_oracle(a, b, jumps)
        acc = 0.0
        for lo, hi in zip(pts[:-1], pts[1:]):
            acc += (hi - lo) * _average_on_oracle(lo, hi, u0, None, quad_points)
        out[j] = acc / (b - a)
    return out


def _cell_average_coefficient_oracle(mesh, coeff, parity, quad_points):
    """The per-cell loop as first written, kept to pin the vectorized form bit for bit."""
    edges = mesh.cell_edges(parity)
    out = np.empty(len(edges) - 1)
    for j in range(len(out)):
        a, b = edges[j], edges[j + 1]
        acc = 0.0
        pts = _split_points_oracle(a, b, coeff.breaks)
        for lo, hi in zip(pts[:-1], pts[1:]):
            i = bisect.bisect_right(coeff.breaks, 0.5 * (lo + hi))
            acc += (hi - lo) * _average_on_oracle(lo, hi, coeff.funcs[i],
                                                  coeff.const_values[i], quad_points)
        out[j] = acc / (b - a)
    return out


INITIAL_DATA = [
    lambda x: np.full_like(np.asarray(x, dtype=float), 0.15),
    lambda x: np.where(np.asarray(x) <= 0.1, 0.9, 0.2),
    lambda x: np.sin(3.0 * x) + 0.5 * (x > -0.2),
]


@st.composite
def meshes_and_jumps(draw):
    """A mesh on [-1, 1] and jumps that are unsorted, repeated, share a cell, lie on
    edges or lie outside."""
    mesh = Mesh.from_cells(-1.0, 1.0, draw(st.integers(min_value=1, max_value=400)))
    edges = mesh.cell_edges(Parity.BASE)
    cell = draw(st.integers(min_value=0, max_value=mesh.n_cells - 1))
    anywhere = st.floats(min_value=-1.5, max_value=1.5, allow_nan=False)
    in_one_cell = st.floats(min_value=edges[cell], max_value=edges[cell + 1])
    on_edge = st.sampled_from(list(edges) + list(mesh.cell_edges(Parity.HALF)))
    jumps = draw(st.lists(st.one_of(anywhere, in_one_cell, on_edge), max_size=6))
    return mesh, jumps


@st.composite
def coefficients(draw, jumps):
    """Constant, multi-break constant, smooth, or multi-break with smooth pieces."""
    kind = draw(st.sampled_from(["constant", "multi-break", "smooth", "mixed"]))
    if kind == "constant":
        return Coefficient.piecewise_constant([], [2.5])
    if kind == "smooth":
        return Coefficient(breaks=(), funcs=(np.sin,), const_values=(None,),
                           bv_norm=2.0, sup_norm=1.0)
    breaks = sorted(set(jumps))
    values = draw(st.lists(st.floats(min_value=0.0, max_value=4.0),
                           min_size=len(breaks) + 1, max_size=len(breaks) + 1))
    if kind == "multi-break":
        return Coefficient.piecewise_constant(breaks, values)
    consts = tuple(v if i % 2 else None for i, v in enumerate(values))
    funcs = tuple((lambda x, v=v: np.full_like(x, v)) if c is not None
                  else (lambda x, v=v: v + np.cos(3.0 * x)) for v, c in zip(values, consts))
    return Coefficient(breaks=tuple(breaks), funcs=funcs, const_values=consts,
                       bv_norm=1.0, sup_norm=5.0)


class TestVectorizedAveragesEqualTheirLoops:
    @given(meshes_and_jumps(), st.sampled_from(INITIAL_DATA), st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=150, deadline=None)
    def test_initial(self, mesh_jumps, u0, quad_points):
        mesh, jumps = mesh_jumps
        got = cell_average_initial(mesh, u0, quad_points=quad_points, jumps=jumps)
        want = _cell_average_initial_oracle(mesh, u0, quad_points, jumps)
        assert got.tobytes() == want.tobytes()

    @given(st.data(), meshes_and_jumps(), st.sampled_from(list(Parity)),
           st.sampled_from([1, 3, 8, 64]))
    @settings(max_examples=150, deadline=None)
    def test_coefficient(self, data, mesh_jumps, parity, quad_points):
        mesh, jumps = mesh_jumps
        coeff = data.draw(coefficients(jumps))
        got = cell_average_coefficient(mesh, coeff, parity, quad_points=quad_points)
        want = _cell_average_coefficient_oracle(mesh, coeff, parity, quad_points)
        assert got.tobytes() == want.tobytes()


class TestExtendAbsorbing:
    def test_values_and_kbar_replicated(self):
        mesh = Mesh.from_cells(0.0, 3.0, 3)
        state = StaggeredState(mesh=mesh, values=np.array([1.0, 2.0, 3.0]),
                               kbar=np.array([3.0, 3.0, 1.0]),
                               parity=Parity.BASE, time=0.0, step_index=0)
        ev, ek = extend_absorbing(state, 2)
        assert ev.tolist() == [1.0, 1.0, 1.0, 2.0, 3.0, 3.0, 3.0]
        assert ek.tolist() == [3.0, 3.0, 3.0, 3.0, 1.0, 1.0, 1.0]

    def test_ghost_count_validated(self):
        mesh = Mesh.from_cells(0.0, 3.0, 3)
        state = StaggeredState(mesh=mesh, values=np.ones(3), kbar=np.ones(3),
                               parity=Parity.BASE, time=0.0, step_index=0)
        with pytest.raises(ValueError):
            extend_absorbing(state, 0)

    def test_empty_state_rejected(self):
        mesh = Mesh.from_cells(0.0, 1.0, 1)
        empty = StaggeredState(mesh=mesh, values=np.empty(0), kbar=np.empty(0),
                               parity=Parity.HALF, time=0.1, step_index=1)
        with pytest.raises(ValueError):
            extend_absorbing(empty, 2)


class TestStaggeredState:
    def test_length_must_match_parity(self):
        mesh = Mesh.from_cells(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            StaggeredState(mesh=mesh, values=np.ones(4), kbar=np.ones(4),
                           parity=Parity.HALF, time=0.0, step_index=1)

    def test_parity_tracks_step_index(self):
        mesh = Mesh.from_cells(0.0, 1.0, 4)
        with pytest.raises(ValueError):
            StaggeredState(mesh=mesh, values=np.ones(4), kbar=np.ones(4),
                           parity=Parity.BASE, time=0.0, step_index=1)

    def test_initial_state(self):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 50)
        state = initial_state(mesh, coeff, lambda x: np.full_like(x, 0.15))
        assert state.parity is Parity.BASE
        assert state.time == 0.0
        assert np.all(state.values == 0.15)
        assert state.kbar[0] == 3.0 and state.kbar[-1] == 1.0


class TestCsvDump:
    def test_header_and_full_precision(self):
        mesh = Mesh.from_cells(0.0, 1.0, 2)
        state = StaggeredState(mesh=mesh, values=np.array([1 / 3, 2 / 3]),
                               kbar=np.ones(2), parity=Parity.BASE,
                               time=0.0, step_index=0)
        text = state_csv_text(state)
        lines = text.strip().split("\n")
        assert lines[0] == "x,u"
        assert len(lines) == 3
        x, u = lines[1].split(",")
        assert float(x) == 0.25
        assert float(u) == 1 / 3  # 17 significant digits round-trip exactly
