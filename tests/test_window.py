"""A march without a collector steps only the cells that can differ from the plateaus of its
initial data.

A plateau is a maximal run of cells whose value and coefficient equal both neighbours', an
absorbing ghost repeating each edge cell.  Between the plateaus that reach an edge or span at
least `schemes._PLATEAU` cells, and that a step maps to themselves, lie the ranges of cells
that can differ.  A march of piecewise-constant data steps them span by span, each range
with R = E + 1 plateau cells on each side, joined into one row, and redraws each
range to the outermost cell whose bits differ from its plateau's; one whole Base row holds its
state between spans.  It must give the same bits as chained public steps, which step the whole
mesh, and the same report as a march that steps the whole mesh.  A march with a collector
steps every cell, since the collector reads every cell of every row.
"""

import dataclasses
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import discflux.diagnostics as diagnostics
import discflux.schemes as schemes
from discflux import (LimiterConfig, LimiterKind, Mesh, Parity, Scheme, SchemeConfig,
                      StaggeredState, builtin_burgers_const_k, builtin_multiplicative,
                      cell_average_coefficient, example_1, example_2, lf_step, march, nt_step,
                      reference_run, refinement_study, run_experiment)
from discflux.cli import RunConfig, load_config, parse_config_text

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "tests" / "golden"
FAR_SPECIAL = [0.0, -0.0, 5e-324, 1e308, math.inf, -math.inf, math.nan]
MODELS = [lambda: builtin_multiplicative(3.0, 1.0), builtin_burgers_const_k]


def _riemann(model_coeff, levels, starts, n_cells):
    """A Base state on [-1, 1] holding levels[i] from cell starts[i - 1] on."""
    model, coeff = model_coeff
    mesh = Mesh.from_cells(-1.0, 1.0, n_cells)
    values = np.asarray(levels)[np.searchsorted(starts, np.arange(n_cells), side="right")]
    state = StaggeredState(mesh, values, cell_average_coefficient(mesh, coeff, Parity.BASE),
                           Parity.BASE, 0.0, 0)
    return model, coeff, state


class _Widths:
    """Records the number of cells each step of a march takes (the strip checks aside): the
    values of a row stepped from, without a Half row's two ghost slots."""

    def __init__(self, mp):
        self.widths, strips = [], []
        step, check = schemes._Stepper.step, schemes._maps_to_itself

        def recorded(stepper, kbar, views):
            u, _, _, v, inner, _ = views
            if not strips:
                self.widths.append(len(u) - 2 * (inner is v))  # from Half: minus the slots
            return step(stepper, kbar, views)

        def unrecorded(*args):
            strips.append(None)
            try:
                return check(*args)
            finally:
                strips.pop()

        mp.setattr(schemes._Stepper, "step", recorded)
        mp.setattr(schemes, "_maps_to_itself", unrecorded)


def _plateau(mp, cells):
    """Cut out interior plateaus of at least `cells` cells (None: the default)."""
    if cells is not None:
        mp.setattr(schemes, "_PLATEAU", cells)


def _ranges(model, coeff, initial, cfg, plateau=None):
    """The ranges a march of `initial` starts from, None when it steps the whole mesh."""
    with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
        _plateau(mp, plateau)
        limiter = cfg.limiter if cfg.scheme is Scheme.NESSYAHU_TADMOR else None
        stepper = schemes._Stepper(model, coeff, initial.mesh, cfg.lam, limiter)
        found = schemes._far_fields(stepper, initial.values)
    return None if found is None else found[0]


def _march(initial, model, coeff, cfg, t_end, rows=None, windowed=True, plateau=None, **kwargs):
    """`march` with blocks of `rows` pairs of steps, with or without a collector (None: the
    default sizes), stepping the whole mesh unless `windowed`, cutting out the plateaus of at
    least `plateau` cells (None: the default)."""
    with pytest.MonkeyPatch.context() as mp:
        if rows is not None:
            for name in ("_BLOCK_VALUES", "_FOLD_VALUES"):
                mp.setattr(schemes, name, rows * initial.mesh.n_cells)
        if not windowed:
            mp.setattr(schemes, "_far_fields", lambda *args: None)
        _plateau(mp, plateau)
        return march(initial, model, coeff, cfg, t_end, **kwargs)


def _hex(x):
    return (float(x).hex(), math.copysign(1.0, x)) if isinstance(x, float) else x


def _report_bits(report):
    """Every field of the report, floats as their hex and sign (the hex of a NaN drops it)."""
    return {k: _hex(v) for k, v in dataclasses.asdict(report).items()}


def _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, steps, rows=None,
                                         wanted=(), report=True, plateau=None):
    """A windowed march of `steps` steps (cutting out plateaus of at least `plateau` cells)
    gives the states, the snapshots at the `wanted` step indices and the report of a march
    that steps the whole mesh, bit for bit, and the states of chained public steps, which it
    returns."""
    t_end = steps * cfg.lam * initial.mesh.dx
    with np.errstate(all="ignore"):
        snapshots = dict.fromkeys(wanted)
        final, rep = _march(initial, model, coeff, cfg, t_end, rows, snapshots=snapshots,
                            report=report, plateau=plateau)
        whole, whole_rep = _march(initial, model, coeff, cfg, t_end, rows, windowed=False,
                                  report=report)
        chained = [initial]  # the public steps step the whole mesh
        for _ in range(steps):
            chained.append(nt_step(chained[-1], model, coeff, cfg)[0]
                           if cfg.scheme is Scheme.NESSYAHU_TADMOR
                           else lf_step(chained[-1], model, coeff, cfg.lam))
    assert rep.steps == steps
    assert final.values.tobytes() == chained[-1].values.tobytes() == whole.values.tobytes()
    for n in wanted:
        assert snapshots[n].values.tobytes() == chained[n].values.tobytes()
    assert _report_bits(rep) == _report_bits(whole_rep)
    return chained


def _collect(report, data):
    """The `collect_diagnostics` of a march: drawn from False and "all" with a report, since
    only a march without a collector steps a window."""
    return data.draw(st.sampled_from([False, "all"])) if report else False


class TestWindowedMarchEqualsWholeMesh:
    @given(st.sampled_from(MODELS), st.sampled_from(list(Scheme)),
           st.sampled_from([LimiterKind.MINMOD, LimiterKind.MINMOD_MODIFIED]),
           st.lists(st.one_of(st.sampled_from(FAR_SPECIAL), st.floats(0.0, 1.0)),
                    min_size=2, max_size=2),
           st.lists(st.floats(0.0, 1.0), max_size=2), st.integers(min_value=8, max_value=80),
           st.integers(min_value=1, max_value=20), st.booleans(),
           st.sampled_from([None, 1, 2, 3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_states_and_report_bitwise(self, model_coeff, scheme, kind, far, middle, n_cells,
                                       pairs, report, rows, data):
        levels = [far[0], *middle, far[1]]
        starts = np.sort(data.draw(st.lists(st.integers(1, n_cells - 1), min_size=len(levels) - 1,
                                            max_size=len(levels) - 1, unique=True)))
        model, coeff, initial = _riemann(model_coeff(), levels, starts, n_cells)
        limiter = LimiterConfig(kind=kind, k_tilde=data.draw(st.floats(0.01, 2.0)))
        lam = 0.5 * 0.2 / model.sup_fu
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=lam,
                           collect_diagnostics=_collect(report, data))
        steps = 2 * pairs
        wanted = [data.draw(st.integers(0, pairs - 1)) * 2 + 1,  # a Half state
                  *data.draw(st.lists(st.integers(0, steps), max_size=3))]
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, steps, rows, wanted,
                                             report)


class TestSeveralRangesEqualWholeMesh:
    @given(st.sampled_from(MODELS), st.sampled_from(list(Scheme)),
           st.sampled_from([LimiterKind.MINMOD, LimiterKind.MINMOD_MODIFIED]),
           st.integers(min_value=6, max_value=10), st.integers(min_value=1, max_value=20),
           st.booleans(), st.sampled_from([None, 1, 2, 3]), st.data())
    @settings(max_examples=200, deadline=None)
    def test_states_and_report_bitwise(self, model_coeff, scheme, kind, plateau, pairs, report,
                                       rows, data):
        # piecewise-constant data on 20 to 120 cells with a level between the far fields that
        # spans at least `plateau` + 2 cells, so that it can be cut out of the steps
        level = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1.0))
        levels = data.draw(st.lists(level, min_size=3, max_size=5))
        long = data.draw(st.integers(1, len(levels) - 2))
        cells = [data.draw(st.integers(plateau + 2, 40) if i == long else
                           st.integers(1, 25 if i in (0, len(levels) - 1) else 15))
                 for i in range(len(levels))]
        cells[-1] += max(20 - sum(cells), 0)
        model, coeff, initial = _riemann(model_coeff(), levels, np.cumsum(cells)[:-1],
                                         sum(cells))
        limiter = LimiterConfig(kind=kind, k_tilde=data.draw(st.floats(0.01, 2.0)))
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=0.5 * 0.2 / model.sup_fu,
                           collect_diagnostics=_collect(report, data))
        ranges = _ranges(model, coeff, initial, cfg, plateau)
        assume(ranges is not None and len(ranges) >= 2)  # a level beside it may be its equal
        steps = 2 * pairs
        wanted = data.draw(st.lists(st.integers(0, steps), max_size=4))
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, steps, rows, wanted,
                                             report, plateau)


class _Folds:
    """Counts the spans a march joins."""

    def __init__(self, mp):
        self.spans, redrawn = 0, schemes._redrawn

        def counted(*args):
            self.spans += 1
            return redrawn(*args)

        mp.setattr(schemes, "_redrawn", counted)


def _fronts(model_coeff, levels, cells):
    """`_riemann` data of levels[i] on cells[i] cells, on their total."""
    return _riemann(model_coeff, levels, np.cumsum(cells)[:-1], sum(cells))


class TestJoinedSpans:
    @given(st.sampled_from(MODELS), st.sampled_from(list(Scheme)),
           st.sampled_from([LimiterKind.MINMOD, LimiterKind.MINMOD_MODIFIED]),
           st.integers(min_value=1, max_value=20), st.booleans(),
           st.sampled_from([None, 1, 2, 3]), st.data())
    @settings(max_examples=150, deadline=None)
    def test_states_and_report_bitwise(self, model_coeff, scheme, kind, pairs, report, rows,
                                       data):
        # 2 or 3 fronts of 1 to 3 levels between the far fields, with plateaus of 30 to 60
        # cells between them: longer than 2R = 2 * (3 + 1) cells, so that they stay apart
        # through blocks of up to 3 pairs, and merge in the longer spans of the default block
        level = st.one_of(st.sampled_from([0.0, -0.0, 5e-324]), st.floats(0.0, 1.0))
        levels, cells = [data.draw(level)], [data.draw(st.integers(1, 30))]
        fronts = data.draw(st.integers(2, 3))
        for front in range(fronts):
            for _ in range(data.draw(st.integers(1, 3))):
                levels.append(data.draw(level))
                cells.append(data.draw(st.integers(1, 3)))
            levels.append(data.draw(level))
            cells.append(data.draw(st.integers(30, 60) if front < fronts - 1 else
                                   st.integers(1, 30)))
        model, coeff, initial = _fronts(model_coeff(), levels, cells)
        limiter = LimiterConfig(kind=kind, k_tilde=data.draw(st.floats(0.01, 2.0)))
        cfg = SchemeConfig(scheme=scheme, limiter=limiter, lam=0.5 * 0.2 / model.sup_fu,
                           collect_diagnostics=_collect(report, data))
        ranges = _ranges(model, coeff, initial, cfg, 10)
        assume(ranges is not None and len(ranges) >= 2)  # a front may equal its neighbours
        steps = 2 * pairs
        wanted = [data.draw(st.integers(0, pairs - 1)) * 2 + 1,  # a Half state
                  *data.draw(st.lists(st.integers(0, steps), max_size=3))]
        with pytest.MonkeyPatch.context() as mp:
            folds = _Folds(mp)
            _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, steps, rows,
                                                 wanted, report, 10)
        assume(folds.spans >= 1)  # short far fields may make one slice over the ranges cheaper

    # a NaN inside a range, NaNs of both signs, and a -0.0 range beside +0.0 plateaus: the bits
    # a reduction gives depend on where those values lie, so the report gives them as values,
    # the per-step fold of chained public steps with +0.0 for a zero and math.nan for a NaN
    PICKED = {"a NaN in a range": [0.3, 0.6, 0.2, math.nan, 0.2, 0.5],
              "NaNs of both signs": [0.3, -math.nan, 0.2, math.nan, 0.2, 0.5],
              "-0.0 beside +0.0": [0.3, 0.6, 0.0, -0.0, 0.0, 0.5]}

    @pytest.mark.parametrize("levels", PICKED.values(), ids=PICKED.keys())
    @pytest.mark.parametrize("rows", [None, 1, 2, 3])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_extremes_picked_by_position_fold_whole_rows(self, levels, rows, scheme):
        model, coeff, initial = _fronts(builtin_burgers_const_k(), levels, [15, 3, 42, 2, 43, 15])
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        assert len(_ranges(model, coeff, initial, cfg, 10)) == 3
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            folds = _Folds(mp)
            _, rep = _march(initial, model, coeff, cfg, 24 * cfg.lam * initial.mesh.dx, rows,
                            plateau=10)
        assert folds.spans >= 1
        chained = _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 24, rows,
                                                       (1, 7, 13), plateau=10)
        low, high = math.inf, -math.inf
        for state in chained:
            lo, hi = np.min(state.values), np.max(state.values)
            low = lo if lo < low or lo != lo else low
            high = hi if hi > high or hi != hi else high
        want = [0.0 if x == 0 else math.nan if x != x else float(x) for x in (low, high)]
        assert [_hex(rep.u_min), _hex(rep.u_max)] == [_hex(x) for x in want]

    @pytest.mark.parametrize("rows", [1, 2, 3])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_span_joins_R_plateau_cells_beside_each_range(self, rows, scheme):
        # R = E + 1, E the block's pairs: beside a plateau a slope is 0, so under either scheme
        # the cells that differ spread by 1 cell a pair on each side
        model, coeff, initial = _fronts(builtin_burgers_const_k(), [0.3, 0.6, 0.2, 0.9, 0.2],
                                        [40, 3, 60, 2, 60])
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        assert _ranges(model, coeff, initial, cfg, 10) == [(39, 44), (102, 106)]
        r = rows + 1
        with pytest.MonkeyPatch.context() as mp:
            widths, folds = _Widths(mp), _Folds(mp)
            _march(initial, model, coeff, cfg, 2 * rows * cfg.lam * initial.mesh.dx, rows,
                   plateau=10)
        assert widths.widths[0] == 5 + 4 + 4 * r and folds.spans == 1


# cells whose bits the value check must tell from the far field's: far-field values with a
# value beside them that differs in its last bit or only in its sign, and the least subnormal
NEXT = float(np.nextafter(0.9, 1.0))
VALUE_CHECKED = {
    "1 ulp off at the window edge": [0.9, NEXT, 0.5, NEXT, 0.9],
    "-0.0 beside a +0.0 far field": [0.0, -0.0, 0.5, -0.0, 0.0],
    "+0.0 beside a -0.0 far field": [-0.0, 0.0, 0.5, 0.0, -0.0],
    "a 5e-324 far field": [5e-324, 0.0, 0.5, 0.0, 5e-324],
}


class TestValueCheckedWindow:
    @pytest.mark.parametrize("levels", VALUE_CHECKED.values(), ids=VALUE_CHECKED.keys())
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("model_coeff", MODELS, ids=["multiplicative", "burgers"])
    def test_states_and_report_bitwise(self, levels, scheme, model_coeff):
        model, coeff, initial = _riemann(model_coeff(), levels, [19, 20, 40, 41], 60)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 24, wanted=(1, 2, 7))


# an interior plateau (cells 21 to 58, split at the multiplicative model's coefficient jump at
# cell 40) with a value beside it that differs in its last bit or only in its sign, and the
# least subnormal plateau
PLATEAU_CHECKED = {
    "1 ulp off at a plateau's edge": (0.9, NEXT),
    "-0.0 beside a +0.0 plateau": (0.0, -0.0),
    "+0.0 beside a -0.0 plateau": (-0.0, 0.0),
    "a 5e-324 plateau": (5e-324, 0.0),
}


def _plateau_riemann(model_coeff, value, beside):
    return _riemann(model_coeff, [0.3, 0.6, beside, value, beside, 0.6, 0.3],
                    [10, 20, 21, 59, 60, 70], 80)


class TestValueCheckedPlateau:
    @pytest.mark.parametrize("value, beside", PLATEAU_CHECKED.values(),
                             ids=PLATEAU_CHECKED.keys())
    @pytest.mark.parametrize("scheme", list(Scheme))
    @pytest.mark.parametrize("model_coeff", MODELS, ids=["multiplicative", "burgers"])
    def test_states_and_report_bitwise(self, value, beside, scheme, model_coeff):
        model, coeff, initial = _plateau_riemann(model_coeff(), value, beside)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        assert len(_ranges(model, coeff, initial, cfg, 10)) >= 2
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 24, wanted=(1, 2, 7),
                                             plateau=10)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf, 1e308])
    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_plateau_a_step_changes_is_not_cut_out(self, value, scheme):
        model, coeff, initial = _plateau_riemann(builtin_multiplicative(3.0, 1.0), value, 0.5)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        assert _ranges(model, coeff, initial, cfg, 10) == [(9, 71)]
        assert len(_ranges(*_plateau_riemann(builtin_multiplicative(3.0, 1.0), 0.9, 0.5)[:3],
                           cfg, 10)) == 3  # a finite plateau, cut out on each side of x = 0
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 24, wanted=(1, 2, 7),
                                             plateau=10)


    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_half_coefficient_that_changes_splits_a_plateau(self, scheme):
        # Base averages that hold one value around a Half average that does not (no builtin
        # coefficient gives such averages): the plateau is cut out on each side of that value
        model, coeff, initial = _plateau_riemann(builtin_burgers_const_k(), 0.9, 0.5)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        real = schemes.cell_average_coefficient

        def bumped(mesh, coeff, parity):
            k = real(mesh, coeff, parity)
            k[40] += 0.5 * (parity is Parity.HALF)
            return k

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "cell_average_coefficient", bumped)
            assert _ranges(model, coeff, initial, cfg, 10) == [(9, 22), (40, 42), (58, 71)]
            _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 24,
                                                 wanted=(1, 2, 7), plateau=10)


class TestWholeRowCollector:
    @staticmethod
    def _observed(model, coeff, initial, cfg, plateau=None):
        """The arrays each `observe` of a windowed march and of a march of the whole mesh
        receives, and the cells each steps, keyed by windowed."""
        observed, stepped, real = {}, {}, diagnostics.DiagnosticsCollector.observe
        for windowed in (True, False):
            calls = observed[windowed] = []

            def recorded(self, a, b, sig):
                arrays = (a, b, *(sig or ()))
                calls.append([(x.shape, x.tobytes()) for x in arrays])  # the blocks are reused
                return real(self, a, b, sig)

            with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
                mp.setattr(diagnostics.DiagnosticsCollector, "observe", recorded)
                widths = _Widths(mp)
                _march(initial, model, coeff, cfg, 8 * cfg.lam * initial.mesh.dx, rows=2,
                       windowed=windowed, plateau=plateau)
            stepped[windowed] = sum(widths.widths)
        return observed, stepped

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_observes_the_rows_of_a_whole_mesh_march(self, scheme):
        # the collector reads every cell of every row, so a march with one steps every cell
        # and hands it the bits that a march stepping the whole mesh hands it
        model, coeff, initial = _riemann(builtin_multiplicative(3.0, 1.0), [0.9, 0.5, 0.2],
                                         [20, 30], 60)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics="all")
        observed, stepped = self._observed(model, coeff, initial, cfg)
        assert stepped[True] == stepped[False] == 4 * (60 + 59)
        assert len(observed[True]) == 2 and all(c[0][0] == (3, 60) for c in observed[True])
        assert observed[True] == observed[False]

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_observes_the_rows_of_a_march_of_several_ranges(self, scheme):
        # data of several ranges too: with a collector no plateau is cut out
        model, coeff, initial = _plateau_riemann(builtin_multiplicative(3.0, 1.0), 0.9, 0.5)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics="all")
        assert len(_ranges(model, coeff, initial, cfg, 10)) == 3
        observed, stepped = self._observed(model, coeff, initial, cfg, plateau=10)
        one_range = self._observed(model, coeff, initial, cfg)[1][True]
        assert stepped[True] == one_range == stepped[False] == 4 * (80 + 79)
        assert len(observed[True]) == 2 and all(c[0][0] == (3, 80) for c in observed[True])
        assert observed[True] == observed[False]


def _plateau_rule(stepper, u):
    """What `_far_fields` returns, by its definition, cell by cell."""
    n = len(u)
    if n <= schemes._STRIP:
        return None
    k_base, k_half = stepper.kbar[Parity.BASE], stepper.kbar[Parity.HALF]

    def at(a, j):  # a ghost beyond each edge repeats the edge entry
        return a[min(max(j, 0), len(a) - 1)]

    def bits(a, j):
        return int(np.float64(at(a, j)).view(np.uint64))

    def flat(j):  # cell j's neighbours hold its value and coefficients, Half ones at j-1 and j
        return (all(bits(a, j + d) == bits(a, j) for a in (u, k_base) for d in (-1, 1))
                and bits(k_half, j - 1) == bits(k_half, j))

    cut, start = [False] * n, 0
    while start < n:
        end = start
        while end < n and flat(end):
            end += 1
        edge_or_long = start == 0 or end == n or end - start >= schemes._PLATEAU
        if end > start and edge_or_long and all(
                schemes._maps_to_itself(stepper, u[start], k, parity)
                for parity, k in ((Parity.BASE, k_base[start]), (Parity.HALF, at(k_half, start)))):
            cut[start:end] = [True] * (end - start)
        start = max(end, start + 1)
    ranges = []
    for j in range(n):
        if not cut[j]:
            if ranges and ranges[-1][1] == j:
                ranges[-1] = (ranges[-1][0], j + 1)
            else:
                ranges.append((j, j + 1))
    ranges = ranges or [(0, 1)]  # a plateau that covers the mesh leaves its first cell
    return ranges, [bits(u, lo - 1) for lo, _ in ranges] + [bits(u, ranges[-1][1])]


class TestPlateauRule:
    @given(st.sampled_from([None, LimiterConfig()]), st.integers(2, 40), st.integers(2, 8),
           st.data())
    @settings(max_examples=300, deadline=None)
    def test_far_fields_equal_the_rule_cell_by_cell(self, limiter, n_cells, plateau, data):
        # piecewise-constant u and averaged coefficients of both parities, the Half ones drawn
        # apart from the Base ones, with values that a step does not map to themselves
        def drawn(values, size):
            out = []
            while len(out) < size:
                out += [data.draw(st.sampled_from(values))] * data.draw(st.integers(1, 8))
            return np.array(out[:size])

        model, coeff = builtin_multiplicative(3.0, 1.0)
        stepper = schemes._Stepper(model, coeff, Mesh.from_cells(-1.0, 1.0, n_cells), 0.05,
                                   limiter)
        stepper.kbar[Parity.BASE] = drawn([1.0, 3.0], n_cells)
        stepper.kbar[Parity.HALF] = drawn([1.0, 3.0, 2.5], n_cells - 1)
        u = drawn([0.0, -0.0, 0.2, 0.9, math.nan, math.inf, 1e308], n_cells)
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            _plateau(mp, plateau)
            assert schemes._far_fields(stepper, u) == _plateau_rule(stepper, u)


class TestWindow:
    def _riemann_march(self, far_left, scheme=Scheme.NESSYAHU_TADMOR, n_cells=60):
        model, coeff, initial = _riemann(builtin_multiplicative(3.0, 1.0),
                                         [far_left, 0.5, 0.2], [20, 30], n_cells)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        with pytest.MonkeyPatch.context() as mp, np.errstate(all="ignore"):
            widths = _Widths(mp)
            final, report = march(initial, model, coeff, cfg, 8 * cfg.lam * initial.mesh.dx)
        whole = {Parity.BASE: n_cells, Parity.HALF: n_cells - 1}
        return widths.widths, [whole[Parity.BASE], whole[Parity.HALF]] * (report.steps // 2)

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_riemann_data_steps_a_growing_window(self, scheme):
        widths, whole = self._riemann_march(0.9, scheme)
        assert len(widths) == len(whole) == 8
        assert all(w < n for w, n in zip(widths, whole))
        # one span of E = 4 pairs: the range's 12 cells and R = E + 1 cells on each side
        assert all(w <= 12 + 2 * (4 + 1) for w in widths)
        assert widths == [22, 21] * 4

    @pytest.mark.parametrize("far", [math.nan, math.inf, -math.inf, 1e308])
    def test_a_far_field_a_step_does_not_keep_is_stepped_with_its_range(self, far):
        # the left far field is stepped like the cells beside it, the right one still cut out:
        # the range [0, 31) and R = E + 1 = 5 cells on its right
        widths, whole = self._riemann_march(far)
        assert widths == [36, 35] * 4 and all(w < n for w, n in zip(widths, whole))

    @pytest.mark.parametrize("far", [math.nan, math.inf, -math.inf, 1e308])
    def test_far_field_check_fails(self, far):
        model, coeff = builtin_multiplicative(3.0, 1.0)
        mesh = Mesh.from_cells(-1.0, 1.0, 60)
        stepper = schemes._Stepper(model, coeff, mesh, 0.05, LimiterConfig())
        k = stepper.kbar[Parity.BASE]
        with np.errstate(all="ignore"):
            assert not schemes._maps_to_itself(stepper, far, k[0], Parity.BASE)
        u = np.where(np.arange(60) < 20, far, 0.2)
        bits = [int(np.float64(x).view(np.uint64)) for x in (far, 0.2, 0.9)]
        # the left far field is stepped; the right one starts a cell after the coefficient's jump
        assert schemes._far_fields(stepper, u) == ([(0, 31)], bits[:2])
        assert (schemes._far_fields(stepper, np.where(np.arange(60) < 20, 0.9, 0.2))
                == ([(19, 31)], bits[2:0:-1]))
        _assert_windowed_march_is_whole_mesh(
            model, coeff, StaggeredState(mesh, u, k, Parity.BASE, 0.0, 0),
            SchemeConfig(lam=0.05, collect_diagnostics=False), 8, wanted=(1, 2, 7))

    @pytest.mark.parametrize("scheme", list(Scheme))
    def test_a_plateau_over_the_whole_mesh_steps_its_first_cell(self, scheme):
        # the range [0, 1) and R = E + 1 = 5 cells on its right, not the whole mesh
        model, coeff, initial = _riemann(builtin_burgers_const_k(), [0.5], [], 60)
        cfg = SchemeConfig(scheme=scheme, lam=0.05, collect_diagnostics=False)
        assert _ranges(model, coeff, initial, cfg) == [(0, 1)]
        with pytest.MonkeyPatch.context() as mp:
            widths = _Widths(mp)
            march(initial, model, coeff, cfg, 8 * cfg.lam * initial.mesh.dx)
        assert widths.widths == [6, 5] * 4
        _assert_windowed_march_is_whole_mesh(model, coeff, initial, cfg, 8, wanted=(1, 2, 7))

    def test_an_initial_kbar_of_its_own_is_refused(self):
        # march steps the coefficient's averages only: it refuses a state with other bits
        # before it looks for far fields, and takes a distinct array with the same bits
        model, coeff, initial = _riemann(builtin_multiplicative(3.0, 1.0), [0.9, 0.2], [20], 60)
        cfg = SchemeConfig(lam=0.05, collect_diagnostics=False)
        own = initial.kbar.copy()
        own[5] = 2.0
        asked = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(schemes, "_far_fields", lambda *args: asked.append(args))
            with pytest.raises(ValueError, match="kbar"):
                march(dataclasses.replace(initial, kbar=own), model, coeff, cfg, 0.1)
        assert asked == []
        same = dataclasses.replace(initial, kbar=initial.kbar.copy())
        assert (march(same, model, coeff, cfg, 0.1)[0].values.tobytes()
                == march(initial, model, coeff, cfg, 0.1)[0].values.tobytes())


def test_fine_run_steps_fewer_cells_than_the_mesh():
    config = load_config(str(GOLDEN / "fine_run.cfg"))
    with pytest.MonkeyPatch.context() as mp:
        widths = _Widths(mp)
        run = run_experiment(config.spec, config.scheme)
    n_cells, steps = run.final.mesh.n_cells, run.report.steps
    assert (n_cells, steps, len(widths.widths)) == (8000, 600, 600)
    # the window holds the 2000 cells between the jumps of u and k, at most 3 more per step
    # pair (0.363 of the cell-steps), and the cells that differ gain 1 per pair (0.275); the
    # plateau u = 0.2, k = 3 between them is cut out, so the two fronts alone are stepped (0.037)
    assert sum(widths.widths) < 0.4 * n_cells * steps
    assert sum(widths.widths) < 0.3 * n_cells * steps
    assert sum(widths.widths) < 0.04 * n_cells * steps


def test_example_2_reference_steps_fewer_cells_than_the_mesh():
    with pytest.MonkeyPatch.context() as mp:
        widths = _Widths(mp)
        run = reference_run(example_2())
    n_cells, steps = run.final.mesh.n_cells, run.report.steps
    assert (n_cells, steps, len(widths.widths)) == (2000, 10000, 10000)
    # 0.900 of the cell-steps when the window grows by the stencil's reach, 0.678 by value
    assert sum(widths.widths) < 0.75 * n_cells * steps


def _study():
    """`study --halvings 4` on bench/run.py's study config at its seed-0 value."""
    spec = importlib.util.spec_from_file_location("bench_run", ROOT / "bench" / "run.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    entries = parse_config_text(bench.STUDY_CFG.format(value="0.15"))
    config = RunConfig.from_entries(entries)
    refinement_study(config.spec, config.scheme, 4)


def _reproduce(example):
    spec = example()
    for scheme in (Scheme.NESSYAHU_TADMOR, Scheme.LAX_FRIEDRICHS):
        run_experiment(spec, scheme)
    reference_run(spec)


# (steps, summed widths) of each march in the order run: none of these marches has a plateau of
# _PLATEAU cells away from the edges, so each steps one range span by span (the 50-cell NT
# marches step the whole mesh: their first span's piece covers it; the 50-cell LF marches
# collect the entropy residual, so they step every cell)
SINGLE_FRONT = {
    "reproduce 1": (lambda: _reproduce(example_1),
                    [(1200, 59400), (1200, 59400), (24000, 23505952)]),
    "reproduce 2": (lambda: _reproduce(example_2),
                    [(250, 12375), (250, 12375), (10000, 13627128)]),
    "study": (_study, [(38400, 117763200), (600, 29700), (1200, 119400), (2400, 473292),
                       (4800, 1854400)]),
}


@pytest.mark.parametrize("name", SINGLE_FRONT)
def test_marches_of_one_range_step_the_cells_they_stepped_before(name):
    run, expected = SINGLE_FRONT[name]
    with pytest.MonkeyPatch.context() as mp:
        widths = _Widths(mp)
        run()
    sums, at = [], 0
    for steps, _ in expected:
        sums.append((steps, sum(widths.widths[at:at + steps])))
        at += steps
    assert at == len(widths.widths)
    assert sums == expected


def test_a_march_of_one_range_steps_joined_spans():
    # example 1's 1000-cell LF reference has one range between its far fields: it is stepped
    # span by span like a window of several ranges, not step by step
    found, real = [], schemes._far_fields
    with pytest.MonkeyPatch.context() as mp:
        folds = _Folds(mp)
        mp.setattr(schemes, "_far_fields", lambda *args: found.append(real(*args)) or found[-1])
        run = reference_run(example_1())
    assert run.final.mesh.n_cells == 1000 and len(found) == 1 and len(found[0][0]) == 1
    assert folds.spans >= 1
