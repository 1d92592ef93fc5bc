"""Linear programming substrate.

A small modelling layer over the HiGHS solver — called directly through
the bindings scipy ships, or through :func:`scipy.optimize.linprog`,
selected by ``REPRO_LP_BACKEND`` (both give bit-identical results).  The
paper's optimizations — the latency-optimal path LP (its Figure 12), the
MinMax two-stage LPs, the locality redistribution LP and the
traffic-matrix scaler — are all built on this.  :class:`CompiledLP` is
the reusable solver-ready form: vectorized assembly once, in-place
payload mutation and re-solves that reuse the structure after.
"""

from repro.lp.model import (
    BACKEND_ENV,
    CompiledLP,
    Constraint,
    InfeasibleError,
    LinearProgram,
    LinExpr,
    Solution,
    UnboundedError,
    Variable,
    available_backends,
    resolve_backend,
)

__all__ = [
    "BACKEND_ENV",
    "CompiledLP",
    "Constraint",
    "InfeasibleError",
    "LinearProgram",
    "LinExpr",
    "Solution",
    "UnboundedError",
    "Variable",
    "available_backends",
    "resolve_backend",
]
