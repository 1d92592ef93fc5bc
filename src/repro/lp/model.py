"""A minimal LP modelling layer with reusable compiled models.

Design goals, in order: correctness, fast model assembly (sparse matrices
built from coordinate arrays, no per-coefficient Python object churn
beyond plain tuples), and a small, explicit API::

    lp = LinearProgram()
    x = lp.variable("x", lower=0.0)
    y = lp.variable("y", lower=0.0)
    lp.add_constraint(LinExpr({x: 1.0, y: 2.0}), "<=", 10.0)
    lp.minimize(LinExpr({x: -1.0, y: -1.0}))
    solution = lp.solve()
    solution.value(x)

Only what the routing formulations need is implemented: continuous
variables, <= / >= / == constraints and a linear objective (minimization).

Two layers:

* :class:`LinearProgram` is the builder.  Incremental, name-carrying,
  accepts both :class:`LinExpr` rows and bulk coordinate blocks
  (:meth:`LinearProgram.add_variables` / :meth:`LinearProgram.add_rows`),
  and compiles to —
* :class:`CompiledLP`, the solver-ready form: one canonical CSR matrix
  plus senses, rhs, objective and bounds arrays.  The numeric payload
  (rhs, objective, bounds, column scales) can be mutated in place and the
  model re-solved without re-assembly; rows and columns can also be
  appended.  The solver's view of the structure (row layout and
  column-wise matrix) is built once and kept until a structural edit, so
  a payload-only re-solve rebuilds only the bound vectors.  Every solve
  starts HiGHS cold: results depend on the model alone, never on what
  was solved before.

Backends
--------
Both backends run the same HiGHS on the same model, so their results are
bit-identical.  ``REPRO_LP_BACKEND`` selects one:

* ``highs`` — scipy's bundled HiGHS bindings
  (``scipy.optimize._highspy._core``), called directly.  The model is the
  one ``linprog(method="highs")`` builds from the same inputs: ``<=`` and
  ``>=`` rows first in insertion order with ``>=`` rows negated, then the
  ``==`` rows; the matrix column-wise; row lower bounds of ``-inf`` on
  the inequality rows; and linprog's options (presolve on, dual simplex,
  no debug checks, no output).  Like linprog, it rejects non-finite
  objective, matrix or rhs entries (:class:`ValueError`) and checks an
  optimal point against bounds, inequality slack and equality residuals
  to within ``10 * sqrt(1e-9)`` (:class:`RuntimeError` otherwise).
* ``scipy`` — :func:`scipy.optimize.linprog` ``method="highs"``: the
  fallback for a scipy that moves the private module, and the reference
  the direct path is tested against.
* ``auto`` (default) — ``highs`` when its module imports, else ``scipy``.
"""

from __future__ import annotations

import importlib
import os
from dataclasses import dataclass
from types import ModuleType
from typing import (
    Any,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
    cast,
)

import numpy as np
import numpy.typing as npt
from scipy import sparse
from scipy.optimize import linprog

FloatArray = npt.NDArray[np.float64]
IntArray = npt.NDArray[np.int64]

#: Lazily bound telemetry module (a module-level import would drag the
#: whole experiments package into every LP import; see
#: :mod:`repro.net.paths` for the same idiom).
_telemetry: Optional[ModuleType] = None


def _recorder() -> Any:
    global _telemetry
    if _telemetry is None:
        from repro.experiments import telemetry

        _telemetry = telemetry
    return _telemetry.recorder()


# ----------------------------------------------------------------------
# Backend selection
# ----------------------------------------------------------------------
#: Environment variable selecting the LP backend: auto | scipy | highs.
BACKEND_ENV = "REPRO_LP_BACKEND"

#: The HiGHS bindings scipy ships for ``linprog(method="highs")``.  The
#: module is private to scipy, so it is probed rather than imported.
HIGHS_MODULE = "scipy.optimize._highspy._core"

_highs_module: Any = None
_highs_probed = False


def _highs_core() -> Any:
    """scipy's bundled HiGHS bindings when importable, else ``None``."""
    global _highs_module, _highs_probed
    if not _highs_probed:
        _highs_probed = True
        try:
            _highs_module = importlib.import_module(HIGHS_MODULE)
        except ImportError:
            _highs_module = None
    return _highs_module


def available_backends() -> Tuple[str, ...]:
    """Backends usable in this environment, preferred first."""
    if _highs_core() is not None:
        return ("highs", "scipy")
    return ("scipy",)


def resolve_backend(name: Optional[str] = None) -> str:
    """Resolve a backend request (or ``$REPRO_LP_BACKEND``) to a name.

    Returns ``"scipy"`` or ``"highs"``.  ``auto`` (the default) prefers
    scipy's bundled HiGHS bindings, called directly, and falls back to
    :func:`scipy.optimize.linprog` when a scipy release has moved them;
    an explicit ``highs`` request without them is an error rather than
    a silent fallback.
    """
    value = name if name is not None else os.environ.get(BACKEND_ENV, "auto")
    value = value.strip().lower()
    if value in ("", "auto"):
        return "highs" if _highs_core() is not None else "scipy"
    if value == "scipy":
        return "scipy"
    if value == "highs":
        if _highs_core() is None:
            raise RuntimeError(
                "LP backend 'highs' requested (REPRO_LP_BACKEND or call "
                f"site) but {HIGHS_MODULE} is not importable in this "
                "scipy; use 'scipy' or 'auto' instead"
            )
        return "highs"
    raise ValueError(
        f"unknown LP backend {value!r}; choose 'auto', 'scipy' or 'highs'"
    )


class InfeasibleError(Exception):
    """The LP has no feasible point."""


class UnboundedError(Exception):
    """The LP objective is unbounded below."""


@dataclass(frozen=True)
class Variable:
    """A handle to one LP column."""

    index: int
    name: str

    def __mul__(self, coefficient: float) -> "LinExpr":
        return LinExpr({self: float(coefficient)})

    __rmul__ = __mul__

    def __add__(self, other: Union["Variable", "LinExpr"]) -> "LinExpr":
        return LinExpr({self: 1.0}) + other


class LinExpr:
    """A linear expression: a mapping from variables to coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Variable, float]] = None) -> None:
        self.terms: Dict[Variable, float] = dict(terms) if terms else {}

    def add_term(self, variable: Variable, coefficient: float) -> "LinExpr":
        """Accumulate ``coefficient * variable`` in place (returns self)."""
        self.terms[variable] = self.terms.get(variable, 0.0) + float(coefficient)
        return self

    def __add__(self, other: Union["LinExpr", Variable]) -> "LinExpr":
        result = LinExpr(self.terms)
        if isinstance(other, Variable):
            result.add_term(other, 1.0)
        else:
            for variable, coefficient in other.terms.items():
                result.add_term(variable, coefficient)
        return result

    def __mul__(self, scalar: float) -> "LinExpr":
        return LinExpr(
            {variable: coefficient * scalar for variable, coefficient in self.terms.items()}
        )

    __rmul__ = __mul__

    def __len__(self) -> int:
        return len(self.terms)

    def __repr__(self) -> str:
        parts = [f"{coef:+g}*{var.name}" for var, coef in self.terms.items()]
        return " ".join(parts) if parts else "0"


@dataclass
class Constraint:
    """One row of the LP: ``expr sense rhs``."""

    expr: LinExpr
    sense: str
    rhs: float

    def __post_init__(self) -> None:
        if self.sense not in ("<=", ">=", "=="):
            raise ValueError(f"unknown constraint sense {self.sense!r}")


@dataclass
class Solution:
    """A solved LP: objective value plus the primal point."""

    objective: float
    _values: FloatArray

    @property
    def x(self) -> FloatArray:
        """The full primal point as one float64 array (do not mutate)."""
        return self._values

    def value(self, variable: Variable) -> float:
        return float(self._values[variable.index])

    def values(self, variables: Iterable[Variable]) -> List[float]:
        """Primal values for ``variables`` via one fancy index."""
        index = np.fromiter(
            (variable.index for variable in variables), dtype=np.int64
        )
        if index.size == 0:
            return []
        return cast(List[float], self._values[index].tolist())


# Sense codes used by the compiled form (one int8 per row).
SENSE_LE = 0
SENSE_GE = 1
SENSE_EQ = 2

_SENSE_CODE = {"<=": SENSE_LE, ">=": SENSE_GE, "==": SENSE_EQ}

#: How far an optimal point may violate a bound, an inequality row or an
#: equality row before the solve is rejected (linprog's ``10 * sqrt(tol)``
#: at its default ``tol=1e-9``).
FEASIBILITY_TOL = float(np.sqrt(1e-9) * 10)

_highs_options_cache: Any = None


def _highs_options(core: Any) -> Any:
    """The options ``linprog(method="highs")`` sets, and no others."""
    global _highs_options_cache
    if _highs_options_cache is None:
        options = core.HighsOptions()
        options.presolve = "on"
        options.highs_debug_level = core.HighsDebugLevel.kHighsDebugLevelNone
        options.log_to_console = False
        options.output_flag = False
        options.simplex_strategy = (
            core.simplex_constants.SimplexStrategy.kSimplexStrategyDual
        )
        _highs_options_cache = options
    return _highs_options_cache


@dataclass(frozen=True)
class _HighsLayout:
    """A model's structure as HiGHS receives it.

    HiGHS row ``i`` is original row ``rows[i]``: the ``<=``/``>=`` rows
    in insertion order, then the ``==`` rows.  ``signs`` (in HiGHS row
    order) negates the ``>=`` rows; the column-wise matrix
    (``start``/``index``/``value``) has the signs applied.
    """

    rows: IntArray
    n_ub: int
    signs: FloatArray
    start: npt.NDArray[np.int32]
    index: npt.NDArray[np.int32]
    value: FloatArray


def _as_float_array(values: Union[Sequence[float], FloatArray]) -> FloatArray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.float64))


def _as_index_array(values: Union[Sequence[int], IntArray]) -> IntArray:
    return np.ascontiguousarray(np.asarray(values, dtype=np.int64))


def sense_codes(
    senses: Union[str, Sequence[str], npt.NDArray[np.int8]], n_rows: int
) -> npt.NDArray[np.int8]:
    """Normalize a sense spec (one string, strings, or codes) to int8."""
    if isinstance(senses, str):
        if senses not in _SENSE_CODE:
            raise ValueError(f"unknown constraint sense {senses!r}")
        return np.full(n_rows, _SENSE_CODE[senses], dtype=np.int8)
    if isinstance(senses, np.ndarray) and senses.dtype == np.int8:
        if senses.shape != (n_rows,):
            raise ValueError(
                f"senses shape {senses.shape} != ({n_rows},)"
            )
        return np.ascontiguousarray(senses)
    codes = np.empty(n_rows, dtype=np.int8)
    items = list(cast(Sequence[str], senses))
    if len(items) != n_rows:
        raise ValueError(f"{len(items)} senses for {n_rows} rows")
    for i, sense in enumerate(items):
        if sense not in _SENSE_CODE:
            raise ValueError(f"unknown constraint sense {sense!r}")
        codes[i] = _SENSE_CODE[sense]
    return codes


class CompiledLP:
    """A solver-ready LP: canonical CSR matrix plus numeric payload.

    The matrix holds every row in insertion order with its *original*
    sense (no ``>=`` negation baked in); each backend's view of it (the
    HiGHS row layout, scipy's ``A_ub``/``A_eq`` split) is derived lazily
    and cached.  Payload mutators (:meth:`set_rhs`,
    :meth:`set_objective`, :meth:`set_variable_bounds`) keep the matrix
    and the derived views; structural mutators (:meth:`scale_columns`,
    :meth:`add_rows`, :meth:`add_columns`) invalidate the views.

    A model that has been solved once is *warm*: repeat solves reuse the
    derived view.  The solver itself always starts cold.
    """

    def __init__(
        self,
        matrix: Any,
        senses: npt.NDArray[np.int8],
        rhs: FloatArray,
        c: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
    ) -> None:
        self._a = matrix.tocsr()
        self._a.sum_duplicates()
        n_rows, n_cols = self._a.shape
        self._senses = np.ascontiguousarray(senses, dtype=np.int8)
        self._rhs = _as_float_array(rhs)
        self._c = _as_float_array(c)
        self._lower = _as_float_array(lower)
        self._upper = _as_float_array(upper)
        if self._senses.shape[0] != n_rows or self._rhs.shape[0] != n_rows:
            raise ValueError("senses/rhs length != matrix row count")
        if (
            self._c.shape[0] != n_cols
            or self._lower.shape[0] != n_cols
            or self._upper.shape[0] != n_cols
        ):
            raise ValueError("c/bounds length != matrix column count")
        # Lazily derived views of the structure, one per backend.
        self._layout: Optional[_HighsLayout] = None
        self._split: Optional[Tuple[IntArray, IntArray, Any, Any]] = None
        self._solved = False

    # ------------------------------------------------------------------
    @classmethod
    def from_coo(
        cls,
        n_variables: int,
        data: FloatArray,
        rows: IntArray,
        cols: IntArray,
        senses: npt.NDArray[np.int8],
        rhs: FloatArray,
        c: FloatArray,
        lower: FloatArray,
        upper: FloatArray,
    ) -> "CompiledLP":
        """Build from coordinate arrays (exact zeros are dropped)."""
        data = _as_float_array(data)
        rows = _as_index_array(rows)
        cols = _as_index_array(cols)
        keep = data != 0.0
        if not bool(keep.all()):
            data, rows, cols = data[keep], rows[keep], cols[keep]
        matrix = sparse.csr_matrix(
            (data, (rows, cols)), shape=(len(rhs), n_variables)
        )
        return cls(matrix, senses, rhs, c, lower, upper)

    # ------------------------------------------------------------------
    @property
    def n_variables(self) -> int:
        return int(self._a.shape[1])

    @property
    def n_rows(self) -> int:
        return int(self._a.shape[0])

    @property
    def warm(self) -> bool:
        """Whether this model has been solved at least once."""
        return self._solved

    @property
    def c(self) -> FloatArray:
        """The objective vector (mutable in place)."""
        return self._c

    @property
    def rhs(self) -> FloatArray:
        """The right-hand-side vector (mutable in place)."""
        return self._rhs

    # ------------------------------------------------------------------
    # Payload mutators: keep the matrix and its derived views.
    # ------------------------------------------------------------------
    def set_rhs(
        self,
        rows: Union[Sequence[int], IntArray, None],
        values: Union[float, Sequence[float], FloatArray],
    ) -> None:
        """Overwrite rhs entries (``rows=None`` addresses every row)."""
        if rows is None:
            self._rhs[:] = np.asarray(values, dtype=np.float64)
        else:
            self._rhs[_as_index_array(rows)] = np.asarray(
                values, dtype=np.float64
            )

    def set_objective(
        self,
        cols: Union[Sequence[int], IntArray, None],
        values: Union[float, Sequence[float], FloatArray],
    ) -> None:
        """Overwrite objective entries (``cols=None`` addresses all)."""
        if cols is None:
            self._c[:] = np.asarray(values, dtype=np.float64)
        else:
            self._c[_as_index_array(cols)] = np.asarray(
                values, dtype=np.float64
            )

    def set_variable_bounds(
        self,
        cols: Union[Sequence[int], IntArray, None],
        lower: Union[float, Sequence[float], FloatArray, None] = None,
        upper: Union[float, Sequence[float], FloatArray, None] = None,
    ) -> None:
        """Overwrite variable bounds (``cols=None`` addresses all)."""
        index: Union[slice, IntArray]
        index = slice(None) if cols is None else _as_index_array(cols)
        if lower is not None:
            self._lower[index] = np.asarray(lower, dtype=np.float64)
        if upper is not None:
            self._upper[index] = np.asarray(upper, dtype=np.float64)

    # ------------------------------------------------------------------
    # Structural mutators: invalidate the derived views.
    # ------------------------------------------------------------------
    def _touch_structure(self) -> None:
        self._layout = None
        self._split = None
        self._solved = False

    def scale_columns(
        self,
        cols: Union[Sequence[int], IntArray],
        factors: Union[float, Sequence[float], FloatArray],
    ) -> None:
        """Multiply whole columns of the matrix by per-column factors."""
        scale = np.ones(self.n_variables, dtype=np.float64)
        scale[_as_index_array(cols)] = np.asarray(factors, dtype=np.float64)
        self._a.data *= scale[self._a.indices]
        self._touch_structure()

    def add_rows(
        self,
        data: Union[Sequence[float], FloatArray],
        rows: Union[Sequence[int], IntArray],
        cols: Union[Sequence[int], IntArray],
        senses: Union[str, Sequence[str], npt.NDArray[np.int8]],
        rhs: Union[Sequence[float], FloatArray],
    ) -> None:
        """Append rows given as local-coordinate COO arrays."""
        rhs_arr = _as_float_array(rhs)
        n_new = rhs_arr.shape[0]
        codes = sense_codes(senses, n_new)
        data_arr = _as_float_array(data)
        rows_arr = _as_index_array(rows)
        cols_arr = _as_index_array(cols)
        keep = data_arr != 0.0
        if not bool(keep.all()):
            data_arr = data_arr[keep]
            rows_arr = rows_arr[keep]
            cols_arr = cols_arr[keep]
        block = sparse.csr_matrix(
            (data_arr, (rows_arr, cols_arr)),
            shape=(n_new, self.n_variables),
        )
        self._a = sparse.vstack([self._a, block], format="csr")
        self._a.sum_duplicates()
        self._senses = np.concatenate([self._senses, codes])
        self._rhs = np.concatenate([self._rhs, rhs_arr])
        self._touch_structure()

    def add_columns(
        self,
        count: int,
        lower: Union[float, Sequence[float], FloatArray] = 0.0,
        upper: Union[float, Sequence[float], FloatArray] = np.inf,
        objective: Union[float, Sequence[float], FloatArray] = 0.0,
        data: Union[Sequence[float], FloatArray, None] = None,
        rows: Union[Sequence[int], IntArray, None] = None,
        cols: Union[Sequence[int], IntArray, None] = None,
    ) -> int:
        """Append ``count`` columns; returns the first new column index.

        ``data``/``rows``/``cols`` (optional) populate existing rows at
        the new columns, with ``cols`` local to the new block (0-based).
        """
        start = self.n_variables
        n_rows = self.n_rows
        if data is None:
            block = sparse.csr_matrix((n_rows, count))
        else:
            if rows is None or cols is None:
                raise ValueError("data requires rows and cols")
            block = sparse.csr_matrix(
                (
                    _as_float_array(data),
                    (_as_index_array(rows), _as_index_array(cols)),
                ),
                shape=(n_rows, count),
            )
        self._a = sparse.hstack([self._a, block], format="csr")
        self._a.sum_duplicates()
        self._c = np.concatenate(
            [self._c, np.broadcast_to(np.asarray(objective, dtype=np.float64), (count,))]
        )
        self._lower = np.concatenate(
            [self._lower, np.broadcast_to(np.asarray(lower, dtype=np.float64), (count,))]
        )
        self._upper = np.concatenate(
            [self._upper, np.broadcast_to(np.asarray(upper, dtype=np.float64), (count,))]
        )
        self._touch_structure()
        return start

    # ------------------------------------------------------------------
    # Solving
    # ------------------------------------------------------------------
    def _ensure_layout(self) -> _HighsLayout:
        """The cached HiGHS view of the structure (built on first use)."""
        if self._layout is None:
            if self.n_variables == 0:
                raise ValueError("an LP needs at least one variable")
            a = self._a
            if not bool(np.isfinite(a.data).all()):
                raise ValueError("LP matrix must not contain inf or nan")
            n_rows, n_cols = self.n_rows, self.n_variables
            equality = self._senses == SENSE_EQ
            rows = np.concatenate(
                [np.flatnonzero(~equality), np.flatnonzero(equality)]
            )
            position = np.empty(n_rows, dtype=np.int64)
            position[rows] = np.arange(n_rows)
            signs = np.where(self._senses == SENSE_GE, -1.0, 1.0)
            # CSR -> CSC of the reordered rows: entries sorted by (column,
            # new row), as linprog's conversion of the stacked matrix
            # leaves them.  The keys are unique, so any sort gives this.
            counts = np.diff(a.indptr)
            entry_row = np.repeat(position, counts)
            order = np.argsort(a.indices.astype(np.int64) * n_rows + entry_row)
            start = np.zeros(n_cols + 1, dtype=np.int32)
            np.cumsum(np.bincount(a.indices, minlength=n_cols), out=start[1:])
            self._layout = _HighsLayout(
                rows=cast(IntArray, rows),
                n_ub=n_rows - int(np.count_nonzero(equality)),
                signs=signs[rows],
                start=start,
                index=entry_row[order].astype(np.int32),
                value=(a.data * np.repeat(signs, counts))[order],
            )
        return self._layout

    def _ensure_split(self) -> Tuple[IntArray, IntArray, Any, Any]:
        """The cached scipy view: ub/eq row ids + sign-applied slices."""
        if self._split is None:
            ub_idx = cast(
                IntArray, np.flatnonzero(self._senses != SENSE_EQ).astype(np.int64)
            )
            eq_idx = cast(
                IntArray, np.flatnonzero(self._senses == SENSE_EQ).astype(np.int64)
            )
            a_ub = None
            if ub_idx.size:
                a_ub = self._a[ub_idx]
                signs = np.where(
                    self._senses[ub_idx] == SENSE_GE, -1.0, 1.0
                )
                a_ub.data *= np.repeat(signs, np.diff(a_ub.indptr))
            a_eq = self._a[eq_idx] if eq_idx.size else None
            self._split = (ub_idx, eq_idx, a_ub, a_eq)
        return self._split

    def _span_attrs(
        self, backend: str, warm: bool
    ) -> Optional[Dict[str, object]]:
        recorder = _recorder()
        if not recorder.enabled:
            return None
        return {
            "backend": backend,
            "warm": warm,
            "n_variables": self.n_variables,
            "n_constraints": self.n_rows,
        }

    def solve(self, backend: Optional[str] = None) -> Solution:
        """Solve; raises on infeasible/unbounded models.

        The result is backend-independent, bit for bit; only wall time
        differs.
        """
        resolved = resolve_backend(backend)
        warm = self._solved
        recorder = _recorder()
        attrs = self._span_attrs(resolved, warm)
        if resolved == "highs":
            solution = self._solve_highs(recorder, attrs)
        else:
            solution = self._solve_scipy(recorder, attrs)
        self._solved = True
        return solution

    def _solve_highs(
        self, recorder: Any, attrs: Optional[Dict[str, object]]
    ) -> Solution:
        core = _highs_core()
        with recorder.span("lp_assemble", attrs):
            layout = self._ensure_layout()
            if not bool(np.isfinite(self._c).all()):
                raise ValueError("LP objective must not contain inf or nan")
            if not bool(np.isfinite(self._rhs).all()):
                raise ValueError("LP right-hand side must not contain inf or nan")
            n_ub = layout.n_ub
            row_upper = self._rhs[layout.rows] * layout.signs
            row_lower = row_upper.copy()
            row_lower[:n_ub] = -np.inf
            # linprog reads a NaN bound as "no bound".
            lower = np.where(np.isnan(self._lower), -np.inf, self._lower)
            upper = np.where(np.isnan(self._upper), np.inf, self._upper)
        with recorder.span("lp_solve", attrs):
            highs = core._Highs()
            if highs.passOptions(_highs_options(core)) == core.HighsStatus.kError:
                raise RuntimeError("HiGHS rejected the solver options")
            # The array overload of passModel copies the buffers without
            # a per-element conversion.  It requires an integrality
            # vector; all-continuous is what HiGHS assumes without one.
            passed = highs.passModel(
                self.n_variables,
                self.n_rows,
                int(layout.value.shape[0]),
                int(core.MatrixFormat.kColwise),
                int(core.ObjSense.kMinimize),
                0.0,
                self._c,
                lower,
                upper,
                row_lower,
                row_upper,
                layout.start,
                layout.index,
                layout.value,
                np.zeros(self.n_variables, dtype=np.int32),
            )
            if passed == core.HighsStatus.kError:
                status = core.HighsModelStatus.kModelError
                ran = False
            else:
                ran = highs.run() != core.HighsStatus.kError
                status = highs.getModelStatus()
            info = highs.getInfo()
            iterations = int(info.simplex_iteration_count)
            if attrs is not None:
                attrs["iterations"] = iterations
        recorder.counter("lp.simplex_iterations", iterations)
        statuses = core.HighsModelStatus
        if status == statuses.kOptimal and ran:
            solution = highs.getSolution()
            x = np.array(solution.col_value)
            objective = float(info.objective_function_value)
            residual = row_upper - np.array(solution.row_value)
            # Written so that a NaN anywhere fails a comparison.
            feasible = (
                not np.isnan(objective)
                and bool(np.all(x >= lower - FEASIBILITY_TOL))
                and bool(np.all(x <= upper + FEASIBILITY_TOL))
                and bool(np.all(residual[:n_ub] >= -FEASIBILITY_TOL))
                and bool(np.all(np.abs(residual[n_ub:]) <= FEASIBILITY_TOL))
            )
            if not feasible:
                raise RuntimeError(
                    "HiGHS reported an optimum that violates the model "
                    f"by more than {FEASIBILITY_TOL:.2e}"
                )
            return Solution(objective, x)
        if status in (statuses.kInfeasible, statuses.kModelError):
            raise InfeasibleError("LP is infeasible")
        if status == statuses.kUnbounded:
            raise UnboundedError("LP is unbounded")
        raise RuntimeError(f"HiGHS terminated with model status {status.name}")

    def _solve_scipy(
        self, recorder: Any, attrs: Optional[Dict[str, object]]
    ) -> Solution:
        with recorder.span("lp_assemble", attrs):
            ub_idx, eq_idx, a_ub, a_eq = self._ensure_split()
            b_ub = None
            if ub_idx.size:
                signs = np.where(self._senses[ub_idx] == SENSE_GE, -1.0, 1.0)
                b_ub = signs * self._rhs[ub_idx]
            b_eq = self._rhs[eq_idx] if eq_idx.size else None
            bounds = np.column_stack([self._lower, self._upper])
        with recorder.span("lp_solve", attrs):
            result = linprog(
                self._c,
                A_ub=a_ub,
                b_ub=b_ub,
                A_eq=a_eq,
                b_eq=b_eq,
                bounds=bounds,
                method="highs",
            )
            if attrs is not None:
                attrs["iterations"] = int(result.nit)
        recorder.counter("lp.simplex_iterations", int(result.nit))
        if result.status == 2:
            raise InfeasibleError("LP is infeasible")
        if result.status == 3:
            raise UnboundedError("LP is unbounded")
        if not result.success:
            raise RuntimeError(f"solver failed: {result.message}")
        return Solution(float(result.fun), np.asarray(result.x))


@dataclass
class _RowBlock:
    """A bulk batch of rows held in local-coordinate COO form."""

    data: FloatArray
    rows: IntArray
    cols: IntArray
    senses: npt.NDArray[np.int8]
    rhs: FloatArray

    @property
    def n_rows(self) -> int:
        return int(self.rhs.shape[0])


class LinearProgram:
    """An LP under construction.

    Variables default to being non-negative and unbounded above, which is
    the natural domain for flow fractions, loads and overloads.

    ``solve()`` compiles to a :class:`CompiledLP` and caches it; repeat
    solves without intervening edits reuse the compiled model (and its
    cached solver layout).  Call :meth:`compile` for a standalone compiled
    model to mutate and re-solve directly.
    """

    def __init__(self) -> None:
        self._names: List[Optional[str]] = []
        self._lower: List[float] = []
        self._upper: List[Optional[float]] = []
        self._rows: List[Union[Constraint, _RowBlock]] = []
        self._objective: Optional[LinExpr] = None
        self._objective_vector: Optional[FloatArray] = None
        self._compiled: Optional[CompiledLP] = None

    # ------------------------------------------------------------------
    # Model building
    # ------------------------------------------------------------------
    def _invalidate(self) -> None:
        self._compiled = None

    def variable(
        self,
        name: str,
        lower: float = 0.0,
        upper: Optional[float] = None,
    ) -> Variable:
        """Create a continuous variable with the given bounds."""
        if upper is not None and upper < lower:
            raise ValueError(f"variable {name!r}: upper {upper} < lower {lower}")
        index = len(self._names)
        self._names.append(name)
        self._lower.append(float(lower))
        self._upper.append(None if upper is None else float(upper))
        self._invalidate()
        return Variable(index, name)

    def variables(
        self, prefix: str, count: int, lower: float = 0.0, upper: Optional[float] = None
    ) -> List[Variable]:
        """Create ``count`` variables named ``prefix[i]``."""
        return [self.variable(f"{prefix}[{i}]", lower, upper) for i in range(count)]

    def add_variables(
        self,
        count: int,
        lower: float = 0.0,
        upper: Optional[float] = None,
    ) -> int:
        """Bulk-create ``count`` anonymous columns; returns the first index.

        No :class:`Variable` handles (or names) are materialized — address
        the columns by index in bulk rows/objective arrays.
        """
        start = len(self._names)
        self._names.extend([None] * count)
        self._lower.extend([float(lower)] * count)
        self._upper.extend(
            [None if upper is None else float(upper)] * count
        )
        self._invalidate()
        return start

    def add_constraint(
        self, expr: Union[LinExpr, Variable], sense: str, rhs: float
    ) -> Constraint:
        if isinstance(expr, Variable):
            expr = LinExpr({expr: 1.0})
        constraint = Constraint(expr, sense, float(rhs))
        self._rows.append(constraint)
        self._invalidate()
        return constraint

    def add_rows(
        self,
        data: Union[Sequence[float], FloatArray],
        rows: Union[Sequence[int], IntArray],
        cols: Union[Sequence[int], IntArray],
        senses: Union[str, Sequence[str], npt.NDArray[np.int8]],
        rhs: Union[Sequence[float], FloatArray],
    ) -> None:
        """Bulk-append rows as COO arrays (``rows`` local to this batch)."""
        rhs_arr = _as_float_array(rhs)
        block = _RowBlock(
            data=_as_float_array(data),
            rows=_as_index_array(rows),
            cols=_as_index_array(cols),
            senses=sense_codes(senses, rhs_arr.shape[0]),
            rhs=rhs_arr,
        )
        self._rows.append(block)
        self._invalidate()

    def minimize(self, expr: LinExpr) -> None:
        self._objective = expr
        self._objective_vector = None
        self._invalidate()

    def minimize_coefficients(
        self, c: Union[Sequence[float], FloatArray]
    ) -> None:
        """Set the objective as one dense coefficient vector."""
        self._objective_vector = _as_float_array(c)
        self._objective = None
        self._invalidate()

    @property
    def num_variables(self) -> int:
        return len(self._names)

    @property
    def num_constraints(self) -> int:
        return sum(
            1 if isinstance(row, Constraint) else row.n_rows
            for row in self._rows
        )

    # ------------------------------------------------------------------
    # Compiling / solving
    # ------------------------------------------------------------------
    def compile(self) -> CompiledLP:
        """Assemble the compiled (solver-ready, reusable) form."""
        n = self.num_variables
        if self._objective_vector is not None:
            if self._objective_vector.shape[0] != n:
                raise ValueError(
                    f"objective vector has {self._objective_vector.shape[0]} "
                    f"coefficients for {n} variables"
                )
            c = self._objective_vector.copy()
        elif self._objective is not None:
            c = np.zeros(n)
            for variable, coefficient in self._objective.terms.items():
                c[variable.index] += coefficient
        else:
            raise ValueError("no objective set; call minimize() first")

        data_parts: List[FloatArray] = []
        row_parts: List[IntArray] = []
        col_parts: List[IntArray] = []
        sense_parts: List[npt.NDArray[np.int8]] = []
        rhs_parts: List[FloatArray] = []
        offset = 0
        for row in self._rows:
            if isinstance(row, Constraint):
                terms = row.expr.terms
                cols = np.fromiter(
                    (variable.index for variable in terms), dtype=np.int64,
                    count=len(terms),
                )
                vals = np.fromiter(
                    (coefficient for coefficient in terms.values()),
                    dtype=np.float64, count=len(terms),
                )
                data_parts.append(vals)
                col_parts.append(cols)
                row_parts.append(np.full(len(terms), offset, dtype=np.int64))
                sense_parts.append(
                    np.array([_SENSE_CODE[row.sense]], dtype=np.int8)
                )
                rhs_parts.append(np.array([row.rhs], dtype=np.float64))
                offset += 1
            else:
                data_parts.append(row.data)
                col_parts.append(row.cols)
                row_parts.append(row.rows + offset)
                sense_parts.append(row.senses)
                rhs_parts.append(row.rhs)
                offset += row.n_rows

        def _concat_f(parts: List[FloatArray]) -> FloatArray:
            return np.concatenate(parts) if parts else np.empty(0)

        lower = np.asarray(self._lower, dtype=np.float64)
        upper = np.asarray(
            [np.inf if u is None else u for u in self._upper],
            dtype=np.float64,
        )
        return CompiledLP.from_coo(
            n_variables=n,
            data=_concat_f(data_parts),
            rows=(
                np.concatenate(row_parts)
                if row_parts
                else np.empty(0, dtype=np.int64)
            ),
            cols=(
                np.concatenate(col_parts)
                if col_parts
                else np.empty(0, dtype=np.int64)
            ),
            senses=(
                np.concatenate(sense_parts)
                if sense_parts
                else np.empty(0, dtype=np.int8)
            ),
            rhs=_concat_f(rhs_parts),
            c=c,
            lower=lower,
            upper=upper,
        )

    def solve(self, backend: Optional[str] = None) -> Solution:
        """Solve (compiling if needed); raises on infeasible/unbounded."""
        if self._compiled is None:
            recorder = _recorder()
            attrs: Optional[Dict[str, object]] = None
            if recorder.enabled:
                attrs = {
                    "backend": resolve_backend(backend),
                    "warm": False,
                    "n_variables": self.num_variables,
                    "n_constraints": self.num_constraints,
                }
            with recorder.span("lp_assemble", attrs):
                self._compiled = self.compile()
        return self._compiled.solve(backend)
