"""The direct HiGHS path against its oracle, ``scipy.optimize.linprog``.

``CompiledLP.solve`` with the ``highs`` backend hands scipy's bundled
HiGHS bindings the model ``linprog(method="highs")`` would build, and
must keep linprog's contract.  Four layers:

* **the model HiGHS receives** — every LP that Figure 4's schemes and
  the workload set-up solve on three zoo networks (plus the link-based
  LP on gts-like) reaches HiGHS with the same options, row layout,
  column-wise matrix and bounds under both backends, and solves to the
  same ``x`` and objective, bit for bit;
* **edge cases** — no rows, one row sense only, mixed senses in any
  order, infeasible, unbounded and non-finite input;
* **the feasibility check** — a stubbed solver that reports a point off
  the model by more than the tolerance is rejected;
* **cached structure** — payload edits reuse the layout, structural
  edits rebuild it.
"""

from __future__ import annotations

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from repro.experiments import telemetry
from repro.lp import CompiledLP, InfeasibleError, UnboundedError
from repro.lp.model import FEASIBILITY_TOL, HIGHS_MODULE

DATA = Path(__file__).resolve().parent / "data"

core = pytest.importorskip(HIGHS_MODULE)


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def _snapshot(compiled: CompiledLP):
    return (
        compiled._a.copy(),
        compiled._senses.copy(),
        compiled._rhs.copy(),
        compiled._c.copy(),
        compiled._lower.copy(),
        compiled._upper.copy(),
    )


def _rebuild(snapshot) -> CompiledLP:
    return CompiledLP(*[part.copy() for part in snapshot])


def _outcome(compiled: CompiledLP, backend: str):
    """``(x bytes, objective)`` or the exception type a solve ends in."""
    try:
        solution = compiled.solve(backend)
    except Exception as exc:  # compared across backends
        return type(exc)
    return solution.x.tobytes(), solution.objective


def _option_values(options) -> dict:
    return {
        name: getattr(options, name)
        for name in dir(options)
        if not name.startswith("_") and not callable(getattr(options, name))
    }


def _floats(values) -> bytes:
    return np.asarray(values, dtype=np.float64).tobytes()


def _ints(values) -> list:
    return np.asarray(values, dtype=np.int64).tolist()


class _Recording:
    """A ``_Highs`` that records the options and model it is given."""

    calls: list = []

    def __init__(self) -> None:
        self._highs = _REAL_HIGHS()
        self._call: dict = {}
        _Recording.calls.append(self._call)

    def passOptions(self, options):
        self._call["options"] = _option_values(options)
        return self._highs.passOptions(options)

    def passModel(self, *args):
        if len(args) == 1:  # linprog: one HighsLp
            lp = args[0]
            matrix = lp.a_matrix_
            self._call["model"] = (
                lp.num_col_, lp.num_row_, int(matrix.format_),
                int(lp.sense_), lp.offset_,
                _floats(lp.col_cost_), _floats(lp.col_lower_),
                _floats(lp.col_upper_), _floats(lp.row_lower_),
                _floats(lp.row_upper_), _ints(matrix.start_),
                _ints(matrix.index_), _floats(matrix.value_),
            )
        else:  # the direct path: the array overload
            (n_col, n_row, _nnz, a_format, sense, offset, cost, lower,
             upper, row_lower, row_upper, start, index, value,
             integrality) = args
            assert not np.any(integrality)
            self._call["model"] = (
                n_col, n_row, a_format, sense, offset,
                _floats(cost), _floats(lower), _floats(upper),
                _floats(row_lower), _floats(row_upper), _ints(start),
                _ints(index), _floats(value),
            )
        return self._highs.passModel(*args)

    def __getattr__(self, name):
        return getattr(self._highs, name)


_REAL_HIGHS = core._Highs


def _received(compiled: CompiledLP, backend: str, monkeypatch) -> dict:
    """The options and model HiGHS receives for one solve."""
    _Recording.calls = []
    with monkeypatch.context() as patch:
        patch.setattr(core, "_Highs", _Recording)
        _outcome(compiled, backend)
    assert len(_Recording.calls) == 1
    return _Recording.calls[0]


def _assert_parity(snapshot, monkeypatch) -> None:
    via_linprog = _received(_rebuild(snapshot), "scipy", monkeypatch)
    direct = _received(_rebuild(snapshot), "highs", monkeypatch)
    assert direct["options"] == via_linprog["options"]
    assert direct["model"] == via_linprog["model"]
    assert _outcome(_rebuild(snapshot), "highs") == _outcome(
        _rebuild(snapshot), "scipy"
    )


def _random_lp(seed: int, senses: str) -> CompiledLP:
    """A feasible, bounded LP; ``senses`` spells its rows in ``<>=``."""
    rng = np.random.default_rng(seed)
    n_rows, n_cols = len(senses), 6
    a = rng.normal(size=(n_rows, n_cols))
    a[rng.random(a.shape) < 0.3] = 0.0
    x0 = rng.uniform(0.5, 2.0, n_cols)
    slack = rng.uniform(0.1, 1.0, n_rows)
    codes = np.array([{"<": 0, ">": 1, "=": 2}[s] for s in senses],
                     dtype=np.int8)
    rhs = a @ x0 + np.where(codes == 0, slack, np.where(codes == 1, -slack, 0))
    rows, cols = np.nonzero(a)
    return CompiledLP.from_coo(
        n_cols, a[rows, cols], rows, cols, codes, rhs,
        rng.normal(size=n_cols), np.zeros(n_cols), np.full(n_cols, 10.0),
    )


# ----------------------------------------------------------------------
# Every LP of the Figure 4 schemes and their set-up
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def corpus():
    from repro.experiments.figures import fig04_schemes
    from repro.experiments.workloads import build_zoo_workload
    from repro.net.zoo import gts_like
    from repro.routing.linkbased import LinkBasedOptimalRouting
    from tests.conftest import loaded_gts_tm

    captured = []
    solve = CompiledLP.solve

    def capture(self, backend=None):
        captured.append(_snapshot(self))
        return solve(self, backend)

    patch = pytest.MonkeyPatch()
    patch.setattr(CompiledLP, "solve", capture)
    try:
        workload = build_zoo_workload(
            n_networks=3, n_matrices=1, include_named=False, seed=0
        )
        n_setup = len(captured)
        fig04_schemes(workload)
        n_fig04 = len(captured)
        gts = gts_like()
        LinkBasedOptimalRouting().place(gts, loaded_gts_tm(gts))
    finally:
        patch.undo()
    assert n_setup > 0  # max_scale_flows and apply_locality
    assert n_fig04 > n_setup  # latency LP and both MinMax stages
    assert len(captured) > n_fig04  # the link-based LP
    return captured


def test_corpus_reaches_highs_identically(corpus, monkeypatch):
    assert len(corpus) >= 40
    for snapshot in corpus:
        _assert_parity(snapshot, monkeypatch)


@pytest.mark.parametrize("senses", [
    "<<<<", ">>>>", "====", "=<>=<", "><=>=<=", ">=<<==>>",
])
@pytest.mark.parametrize("seed", range(4))
def test_mixed_senses_reach_highs_identically(senses, seed, monkeypatch):
    _assert_parity(_snapshot(_random_lp(seed, senses)), monkeypatch)


# ----------------------------------------------------------------------
# Edge cases, each against linprog
# ----------------------------------------------------------------------
def _from_dense(a, senses, rhs, c, lower=None, upper=None) -> CompiledLP:
    a = np.atleast_2d(np.asarray(a, dtype=np.float64)).reshape(len(rhs), len(c))
    rows, cols = np.nonzero(a)
    codes = np.array([{"<=": 0, ">=": 1, "==": 2}[s] for s in senses],
                     dtype=np.int8)
    n = len(c)
    return CompiledLP.from_coo(
        n, a[rows, cols], rows, cols, codes, np.asarray(rhs, dtype=float),
        np.asarray(c, dtype=float),
        np.zeros(n) if lower is None else np.asarray(lower, dtype=float),
        np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=float),
    )


EDGE_CASES = {
    "no_rows": lambda: _from_dense(
        np.zeros((0, 3)), [], [], [1.0, -1.0, 0.0], upper=[5.0, 5.0, 5.0]
    ),
    "no_rows_free_column": lambda: _from_dense(
        np.zeros((0, 2)), [], [], [1.0, 0.0],
        lower=[0.0, -np.inf], upper=[1.0, np.inf],
    ),
    "eq_only": lambda: _from_dense(
        [[1.0, 1.0, 0.0], [0.0, 1.0, -1.0]], ["==", "=="], [3.0, 0.5],
        [1.0, 2.0, 3.0],
    ),
    "ge_only": lambda: _from_dense(
        [[1.0, 1.0], [1.0, 3.0]], [">=", ">="], [2.0, 3.0], [2.0, 1.0]
    ),
    "rows_without_entries": lambda: _from_dense(
        [[0.0, 0.0], [1.0, 0.0]], ["<=", "=="], [1.0, 0.5], [1.0, 1.0]
    ),
    "nan_bounds_mean_unbounded": lambda: _from_dense(
        [[1.0, 1.0]], [">="], [1.0], [1.0, 2.0],
        lower=[np.nan, 0.0], upper=[3.0, np.nan],
    ),
    "infeasible": lambda: _from_dense(
        [[1.0], [1.0]], [">=", "<="], [2.0, 1.0], [1.0]
    ),
    "infeasible_bounds": lambda: _from_dense(
        [[1.0]], ["<="], [5.0], [1.0], lower=[2.0], upper=[1.0]
    ),
    "unbounded": lambda: _from_dense(
        [[1.0, -1.0]], ["<="], [1.0], [-1.0, 0.0]
    ),
    "unbounded_no_rows": lambda: _from_dense(
        np.zeros((0, 1)), [], [], [-1.0]
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_edge_case_matches_linprog(case, monkeypatch):
    direct = _outcome(EDGE_CASES[case](), "highs")
    assert direct == _outcome(EDGE_CASES[case](), "scipy")
    if case.startswith("infeasible"):
        assert direct is InfeasibleError
    elif case.startswith("unbounded"):
        assert direct is UnboundedError
    else:
        assert isinstance(direct, tuple)
        _assert_parity(_snapshot(EDGE_CASES[case]()), monkeypatch)


@pytest.mark.parametrize("where", ["objective", "coefficient", "rhs"])
@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("backend", ["highs", "scipy"])
def test_non_finite_input_is_rejected(where, value, backend):
    c = [1.0, value] if where == "objective" else [1.0, 1.0]
    a = [[1.0, value]] if where == "coefficient" else [[1.0, 1.0]]
    rhs = [value] if where == "rhs" else [1.0]
    with pytest.raises(ValueError):
        _from_dense(a, [">="], rhs, c).solve(backend)


@pytest.mark.parametrize("backend", ["highs", "scipy"])
def test_no_variables_is_rejected(backend):
    with pytest.raises(ValueError):
        _from_dense(np.zeros((1, 0)), ["<="], [1.0], []).solve(backend)


# ----------------------------------------------------------------------
# The feasibility check, against a stubbed solver
# ----------------------------------------------------------------------
def _checked_lp() -> CompiledLP:
    """min x + y  s.t.  x + y >= 2,  x - y == 0,  0 <= x, y <= 10.

    HiGHS rows: ``-x - y <= -2`` (row 0), ``x - y == 0`` (row 1); the
    optimum is x = y = 1.
    """
    return _from_dense(
        [[1.0, 1.0], [1.0, -1.0]], [">=", "=="], [2.0, 0.0], [1.0, 1.0],
        upper=[10.0, 10.0],
    )


def _solve_reporting(monkeypatch, col_shift=None, row_shift=None):
    """Solve ``_checked_lp`` with HiGHS's reported point shifted."""

    class Shifted:
        def __init__(self) -> None:
            self._highs = _REAL_HIGHS()

        def getSolution(self):
            real = self._highs.getSolution()
            col = np.array(real.col_value) + (col_shift or 0.0)
            row = np.array(real.row_value) + (row_shift or 0.0)
            return SimpleNamespace(col_value=col.tolist(),
                                   row_value=row.tolist())

        def __getattr__(self, name):
            return getattr(self._highs, name)

    with monkeypatch.context() as patch:
        patch.setattr(core, "_Highs", Shifted)
        return _checked_lp().solve("highs")


def test_unshifted_stub_solves(monkeypatch):
    solution = _solve_reporting(monkeypatch)
    assert solution.x.tolist() == pytest.approx([1.0, 1.0])


@pytest.mark.parametrize("col_shift, row_shift", [
    ([-2.0, 0.0], None),  # x below its lower bound
    ([0.0, 10.0], None),  # y above its upper bound
    (None, [1.0, 0.0]),  # the inequality row loses its slack
    (None, [0.0, 2 * FEASIBILITY_TOL]),  # the equality row is off
    (None, [0.0, -2 * FEASIBILITY_TOL]),
    ([np.nan, 0.0], None),
    (None, [np.nan, 0.0]),
    (None, [0.0, np.nan]),
])
def test_violated_solution_is_rejected(monkeypatch, col_shift, row_shift):
    with pytest.raises(RuntimeError, match="violates"):
        _solve_reporting(monkeypatch, col_shift, row_shift)


@pytest.mark.parametrize("col_shift, row_shift", [
    ([-0.5 * FEASIBILITY_TOL - 1.0, 0.0], None),
    (None, [0.5 * FEASIBILITY_TOL, 0.5 * FEASIBILITY_TOL]),
    (None, [-1.0, -0.5 * FEASIBILITY_TOL]),
])
def test_violation_within_tolerance_is_accepted(
    monkeypatch, col_shift, row_shift
):
    _solve_reporting(monkeypatch, col_shift, row_shift)


def test_tolerance_is_linprogs():
    assert FEASIBILITY_TOL == np.sqrt(1e-9) * 10


# ----------------------------------------------------------------------
# Cached structure
# ----------------------------------------------------------------------
def test_payload_resolve_reuses_layout_and_matches_fresh():
    compiled = _checked_lp()
    compiled.solve("highs")
    layout = compiled._layout
    compiled.set_rhs([0], [3.0])
    compiled.set_objective(None, [2.0, 1.0])
    compiled.set_variable_bounds([1], upper=1.5)
    moved = compiled.solve("highs")
    assert compiled._layout is layout
    fresh = _rebuild(_snapshot(compiled))
    assert _outcome(fresh, "scipy") == (moved.x.tobytes(), moved.objective)
    assert moved.x.tolist() == pytest.approx([1.5, 1.5])


@pytest.mark.parametrize("edit", ["add_rows", "add_columns", "scale_columns"])
def test_structural_edit_rebuilds_layout(edit, monkeypatch):
    compiled = _checked_lp()
    compiled.solve("highs")
    if edit == "add_rows":
        compiled.add_rows([1.0, 2.0], [0, 1], [0, 1], ["<=", ">="],
                          [5.0, 3.0])
    elif edit == "add_columns":
        compiled.add_columns(1, upper=1.0, objective=-1.0,
                             data=[1.0], rows=[1], cols=[0])
    else:
        compiled.scale_columns([0], [3.0])
    assert compiled._layout is None
    edited = compiled.solve("highs")
    snapshot = _snapshot(compiled)
    assert (edited.x.tobytes(), edited.objective) == _outcome(
        _rebuild(snapshot), "scipy"
    )
    _assert_parity(snapshot, monkeypatch)


def test_explicit_zero_after_scaling_matches_linprog(monkeypatch):
    compiled = _random_lp(1, "=<>=<")
    compiled.scale_columns([2], [0.0])
    _assert_parity(_snapshot(compiled), monkeypatch)


# ----------------------------------------------------------------------
# Telemetry
# ----------------------------------------------------------------------
@pytest.mark.parametrize("backend", ["highs", "scipy"])
def test_solve_records_simplex_iterations(tmp_path, backend):
    compiled = _random_lp(2, "><=>=<=")
    telemetry.configure(tmp_path)
    try:
        compiled.solve(backend)
        compiled.solve(backend)
    finally:
        telemetry.disable()
    trace = telemetry.load_trace(tmp_path)
    spans = trace.by_name("lp_solve")
    assert len(spans) == 2
    iterations = [span.attrs["iterations"] for span in spans]
    assert iterations[0] > 0 and iterations[0] == iterations[1]
    assert trace.counters["lp.simplex_iterations"] == sum(iterations)


def test_iterations_agree_across_backends(tmp_path):
    counts = {}
    for backend in ("highs", "scipy"):
        telemetry.configure(tmp_path / backend)
        try:
            _random_lp(3, ">=<<==>>").solve(backend)
        finally:
            telemetry.disable()
        trace = telemetry.load_trace(tmp_path / backend)
        counts[backend] = trace.counters["lp.simplex_iterations"]
    assert counts["highs"] == counts["scipy"] > 0


# ----------------------------------------------------------------------
# Figure 4, end to end
# ----------------------------------------------------------------------
def test_fig04_matches_golden(capsys):
    from repro.experiments.__main__ import main

    assert main(["fig04", "--networks", "4", "--tms", "1"]) == 0
    out = capsys.readouterr().out
    assert out == (DATA / "fig04_n4_t1.txt").read_text()
