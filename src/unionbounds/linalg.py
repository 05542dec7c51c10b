"""Minimal dense linear-algebra and LP kernel.

Two jobs only, both at desk scale:

* solve symmetric linear systems (the optimal-quadratic-weighting vector
  comes from one), in a least-squares sense when singular, and
* solve dense LPs in equality standard form (min/max c.x subject to
  A x = b, x >= 0) with a deterministic two-phase revised simplex.  It is
  built for few rows and many columns, the shape of the in-class LP
  (2n rows, 2^n - 1 atom columns, Prekopa's union-bound LPs): it keeps
  the explicit inverse of the m x m basis and prices every column with
  one matrix-vector product per pivot, and only a run of degenerate
  pivots switches it to Bland's rule, which cannot cycle.

Matrices are plain 2-D float numpy arrays (row-major dense storage).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ArgumentError, DimensionMismatch, InconsistentInfo
from .space import PartialInfo, WeightVector, membership_matrix

# Feasibility tolerance used across the LP code.  Atom sums carry roughly
# 1e-12 of rounding; a margin of 1e3 keeps checks robust.
FEAS_TOL = 1e-9

_PIVOT_TOL = 1e-11

MAX_LP_VARS = 1 << 20
MAX_LP_CONS = 64


class LinearSolution(NamedTuple):
    x: np.ndarray
    residual: float  # Euclidean norm of a x - b


def solve_linear_system(a: np.ndarray, b: Sequence[float] | np.ndarray) -> LinearSolution:
    """Solve a x = b, falling back to least squares when rank-deficient.

    The primary path is Gaussian elimination with partial pivoting.  If a
    pivot collapses (singular or nearly singular matrix), the minimum-norm
    least-squares pseudo-solution is returned instead; either way the
    residual norm is reported alongside the solution.
    """
    a = np.array(a, dtype=float)
    b = np.array(b, dtype=float).ravel()
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise DimensionMismatch(f"matrix must be square, got shape {a.shape}")
    if b.shape[0] != a.shape[0]:
        raise DimensionMismatch(
            f"rhs has length {b.shape[0]}, matrix is {a.shape[0]}x{a.shape[1]}"
        )
    n = a.shape[0]
    scale = np.max(np.abs(a)) if a.size else 0.0
    u = a.copy()
    y = b.copy()
    singular = scale == 0.0
    if not singular:
        for k in range(n):
            p = k + int(np.argmax(np.abs(u[k:, k])))
            if abs(u[p, k]) <= _PIVOT_TOL * scale:
                singular = True
                break
            if p != k:
                u[[k, p]] = u[[p, k]]
                y[[k, p]] = y[[p, k]]
            factors = u[k + 1 :, k] / u[k, k]
            u[k + 1 :, k:] -= factors[:, None] * u[k, k:]
            y[k + 1 :] -= factors * y[k]
    if singular:
        x = np.linalg.lstsq(a, b, rcond=None)[0]
    else:
        x = np.zeros(n)
        for k in range(n - 1, -1, -1):
            x[k] = (y[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
    residual = float(np.linalg.norm(a @ x - b))
    return LinearSolution(x=x, residual=residual)


@dataclass(frozen=True)
class LpProblem:
    """min or max objective.x subject to eq_matrix x = eq_rhs, x >= 0."""

    objective: np.ndarray
    eq_matrix: np.ndarray
    eq_rhs: np.ndarray
    sense: str = "min"

    def __post_init__(self) -> None:
        obj = np.asarray(self.objective, dtype=float).ravel()
        mat = np.asarray(self.eq_matrix, dtype=float)
        rhs = np.asarray(self.eq_rhs, dtype=float).ravel()
        if self.sense not in ("min", "max"):
            raise ArgumentError(f"sense must be 'min' or 'max', got {self.sense!r}")
        if mat.ndim != 2:
            raise DimensionMismatch(f"eq_matrix must be 2-D, got shape {mat.shape}")
        m, nv = mat.shape
        if obj.shape[0] != nv or rhs.shape[0] != m:
            raise DimensionMismatch(
                f"inconsistent LP dimensions: matrix {mat.shape}, "
                f"objective {obj.shape[0]}, rhs {rhs.shape[0]}"
            )
        if nv > MAX_LP_VARS or m > MAX_LP_CONS:
            raise ArgumentError(
                f"problem size {m}x{nv} exceeds caps {MAX_LP_CONS}x{MAX_LP_VARS}"
            )
        if not (
            np.all(np.isfinite(obj)) and np.all(np.isfinite(mat)) and np.all(np.isfinite(rhs))
        ):
            raise ArgumentError("LP data must be finite")
        for name, arr in (("objective", obj), ("eq_matrix", mat), ("eq_rhs", rhs)):
            arr = arr.copy()
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


@dataclass(frozen=True)
class LpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded"
    value: float
    primal: np.ndarray
    pivots: tuple[int, int] = (0, 0)  # phase 1 (artificials driven out too), phase 2

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


class _Basis:
    """Basis of the phase-1 columns [A | I], artificial column nv + r being
    the unit vector of row r.

    ``cols[r]`` is the column basic in row r, ``mat`` the m x m basis
    matrix, ``inv`` its explicit inverse, kept by rank-one updates and
    refactorized from ``mat`` every ``REFACTOR_EVERY`` pivots, and ``x``
    the basic values.  ``active`` marks the rows still in the problem:
    rows found redundant after phase 1 keep their artificial basic at cost
    zero and never leave.
    """

    # Refactorizing this often keeps the rounding drift of the rank-one
    # updates small, so columns and prices are read from the inverse as is.
    REFACTOR_EVERY = 16

    def __init__(self, a: np.ndarray, b: np.ndarray) -> None:
        m, nv = a.shape
        self.a, self.b, self.nv = a, b, nv
        self.cols = np.arange(nv, nv + m)
        self.mat = np.eye(m)
        self.inv = np.eye(m)
        self.x = b.copy()
        self.active = np.ones(m, dtype=bool)
        self.pivots = 0

    def source(self, j: int) -> np.ndarray:
        """Column j of [A | I]."""
        if j < self.nv:
            return self.a[:, j]
        unit = np.zeros(self.cols.size)
        unit[j - self.nv] = 1.0
        return unit

    def column(self, j: int) -> np.ndarray:
        """Column j of [A | I] in the current basis, B^-1 a_j."""
        return self.inv @ self.source(j)

    def pivot(self, r: int, j: int, alpha: np.ndarray) -> None:
        """Column j enters in row r; alpha is ``column(j)``."""
        theta = self.x[r] / alpha[r]
        self.x -= theta * alpha
        self.x[r] = theta
        row = self.inv[r] / alpha[r]
        self.inv -= np.outer(alpha, row)
        self.inv[r] = row
        self.cols[r] = j
        self.mat[:, r] = self.source(j)
        self.pivots += 1
        if self.pivots % self.REFACTOR_EVERY == 0:
            try:
                self.inv = np.linalg.inv(self.mat)
                self.x = self.inv @ self.b
            except np.linalg.LinAlgError:
                pass  # numerically singular: keep the updated inverse
        # Basic values cannot be negative in exact arithmetic; rounding
        # residue there would feed negative ratios into later ratio tests
        # and defeat Bland's termination argument at degenerate vertices.
        np.maximum(self.x, 0.0, out=self.x, where=self.x > -FEAS_TOL)


def _run_phase(basis: _Basis, cost: np.ndarray, ncols: int) -> str:
    """Minimize cost.x over the first ncols columns of [A | I], starting
    from the current basis; returns "optimal" or "unbounded".

    Every column is priced at once, d = cost - y [A | I] with
    y = cost_B B^-1.  Pivoting is deterministic: the most negative reduced
    cost enters (first index on ties) and the minimum ratio leaves
    (smallest basic column on ties).  A pivot that lowers the objective by
    1e-12 or more resets a stall counter; once more than 2(m + 1) pivots
    in a row do not, the entering rule switches for good to Bland's (first
    negative index), which cannot cycle.
    """
    a, nv = basis.a, basis.nv
    m = int(np.count_nonzero(basis.active))
    bland = False
    stall = 0
    max_iter = 10_000 + 200 * (m + 1)
    for _ in range(max_iter):
        y = cost[basis.cols] @ basis.inv
        d = cost[:ncols] - np.concatenate([y @ a, y[: ncols - nv]])
        if bland:
            neg = np.flatnonzero(d < -FEAS_TOL)
            if neg.size == 0:
                return "optimal"
            enter = int(neg[0])
        else:
            enter = int(d.argmin())
            if d[enter] >= -FEAS_TOL:
                return "optimal"
        alpha = basis.column(enter)
        rows = np.flatnonzero((alpha > _PIVOT_TOL) & basis.active)
        if rows.size == 0:
            return "unbounded"
        ratios = basis.x[rows] / alpha[rows]
        tied = rows[ratios <= ratios.min() + 1e-12]
        leave = int(tied[basis.cols[tied].argmin()])
        gain = -d[enter] * basis.x[leave] / alpha[leave]
        basis.pivot(leave, enter, alpha)
        if not bland:
            stall = stall + 1 if gain < 1e-12 else 0
            bland = stall > 2 * (m + 1)
    raise RuntimeError(f"simplex failed to converge within {max_iter} iterations")


def solve_lp(p: LpProblem) -> LpSolution:
    """Two-phase revised simplex, deterministic, with Bland anti-cycling.

    Optimal solutions are basic feasible solutions.  Infeasible and
    unbounded problems come back as statuses, not exceptions.
    """
    c = np.array(p.objective, dtype=float)
    if p.sense == "max":
        c = -c
    m, nv = p.eq_matrix.shape

    # Rows with a negative rhs are negated, so the artificials start >= 0.
    flip = p.eq_rhs < 0
    a = p.eq_matrix
    if flip.any():
        a = a * np.where(flip, -1.0, 1.0)[:, None]
    b = np.abs(p.eq_rhs)

    # Phase 1: artificial variables form the starting basis.
    basis = _Basis(a, b)
    cost = np.concatenate([np.zeros(nv), np.ones(m)])
    status = _run_phase(basis, cost, nv + m)
    if status != "optimal" or float(cost[basis.cols] @ basis.x) > FEAS_TOL:
        return LpSolution(status="infeasible", value=np.nan, primal=np.zeros(nv),
                          pivots=(basis.pivots, 0))

    # Drive leftover artificials out of the basis; rows that cannot pivot
    # on an original column are redundant constraints.
    for r in np.flatnonzero(basis.cols >= nv):
        pivot_cols = np.flatnonzero(np.abs(basis.inv[r] @ a) > 1e-7)
        if pivot_cols.size == 0:
            basis.active[r] = False
            continue
        j = int(pivot_cols[0])
        basis.pivot(int(r), j, basis.column(j))
    phase1 = basis.pivots

    # Phase 2: the real objective over the original columns.
    cost = np.concatenate([c, np.zeros(m)])
    status = _run_phase(basis, cost, nv)
    pivots = (phase1, basis.pivots - phase1)
    if status == "unbounded":
        return LpSolution(status="unbounded", value=np.nan, primal=np.zeros(nv),
                          pivots=pivots)

    # Recompute the basic solution for the final basis straight from the
    # constraint data, leaving out the redundant rows: on heavily
    # degenerate problems the pivots leave rounding drift in the updates.
    rows = np.flatnonzero(basis.active)
    cols = basis.cols[rows]
    x = np.zeros(nv)
    sub = a[np.ix_(rows, cols)]
    rhs_kept = b[rows]
    try:
        x_basic = np.linalg.solve(sub, rhs_kept)
    except np.linalg.LinAlgError:
        x_basic = np.linalg.lstsq(sub, rhs_kept, rcond=None)[0]
    if not np.all(np.isfinite(x_basic)):
        x_basic = np.linalg.lstsq(sub, rhs_kept, rcond=None)[0]
    x[cols] = x_basic
    np.clip(x, 0.0, None, out=x)
    value = float(np.asarray(p.objective) @ x)
    return LpSolution(status="optimal", value=value, primal=x, pivots=pivots)


def optimal_inclass_bound(info: PartialInfo, w: WeightVector, sense: str) -> float:
    """Best bound obtainable from exactly this information, by LP.

    Optimizes the union mass sum(p_B) over all p >= 0 matching, for each
    event i, both its probability and its weighted pairwise sum.  "lower"
    minimizes, "upper" maximizes.  Every closed-form bound consuming the
    same (alpha, gamma(c)) information is dominated by this value.
    """
    if sense not in ("lower", "upper"):
        raise ArgumentError(f"sense must be 'lower' or 'upper', got {sense!r}")
    n = info.n
    if n > 20:
        raise ArgumentError(f"optimal in-class bound needs n <= 20, got {n}")
    if not w.is_valid:
        raise ArgumentError("weight vector must satisfy the nonzero-subset-sum condition")
    if w.n != n:
        raise DimensionMismatch(f"weights have n={w.n}, info has n={n}")
    masks = np.arange(1, 1 << n, dtype=np.int64)
    eq = np.empty((2 * n, masks.size))
    mem = eq[:n]
    mem[:] = membership_matrix(n, masks)
    np.multiply(mem, w.c @ mem, out=eq[n:])
    rhs = np.concatenate([info.alpha, info.gamma_vector(w)])
    prob = LpProblem(
        objective=np.ones(masks.size),
        eq_matrix=eq,
        eq_rhs=rhs,
        sense="min" if sense == "lower" else "max",
    )
    sol = solve_lp(prob)
    if sol.status == "infeasible":
        raise InconsistentInfo(
            "no probability space realizes the given (alpha, pairwise) under these weights"
        )
    if not sol.optimal:
        raise InconsistentInfo(f"in-class LP ended with status {sol.status}")
    return sol.value
