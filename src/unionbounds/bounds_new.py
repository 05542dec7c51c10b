"""Selection-based bound classes parameterized by a weight vector.

For each event i the available information is its probability a_i and the
weighted pairwise sum g_i(c) = sum_k c_k P(A_i inter A_k).  The mass that
event i contributes to the union, reweighted by c, is then at least the
optimum of a tiny linear program whose variables are the atom masses
inside A_i.  That LP always has a two-atom optimal support, so it reduces
to choosing two subsets B1, B2 containing i whose weight-sum ratios

    b1 = s(B1)/c_i,   b2 = s(B2)/c_i,   s(B) = sum_{k in B} c_k

bracket the event's ratio b = g_i(c) / (c_i a_i), minimizing

    a_i * (1/b1 + 1/b2 - b/(b1*b2)).

Which constrained selections are optimal depends on the signs of b and of
the achievable ratios (four cases).  In exact mode every selection of
every event reads one :class:`~unionbounds.subset_opt.SubsetTable` of the
2^n subset sums, built once per bound call and sorted by (sum, mask):
each bracket end is one binary search, ties keep the smallest mask, and a
negative c_i reverses the ratio order.  The table takes 16 * 2^n bytes
(16 MiB at n = 20, 256 MiB at the cap n = 24) and is dropped when the call
returns.  With ``fptas_eps`` and positive weights the brackets come from
the trim-based approximation scheme instead, which needs no table.
The sum over events is the first bound class (:func:`lnew3`).  With unit
weights it collapses to the floor/ceiling closed form (kat_bound).

The second class (:func:`lnew4`) additionally forces every event's LP to
share one value x for the all-events atom: x is certified to be at least
delta_tilde (the positive part of a window condition), each per-event
problem is re-solved over proper subsets only with (a_i, g_i) shifted by
x, and x plus the sum of the shifted optima is a sharper lower bound.
The map x -> x + sum_i ell_i'(c, x) is non-decreasing on the feasibility
window, so its left endpoint is optimal.

A note on that window: the per-event shifted problem is solvable iff the
shifted ratio g_i'(x)/a_i'(x) lies between the smallest and largest
weight sums achievable by proper subsets containing i, which are c_i and
sum(c) - min_{k != i} c_k.  The aggregated window used by delta_tilde
replaces both ends with bounds that ignore which event is involved
(min over all k), which is slightly wider.  For inputs coming from a real
space the left endpoint of the exact per-event window is still a certified
lower bound on the all-events atom mass, so :func:`lnew4` evaluates there;
the two endpoints coincide whenever all weights share their minimum (unit
weights in particular).  :func:`feasible_x_window` exposes the exact
window.

Upper bounds: maximizing instead of minimizing the same per-event LPs
gives closed forms with no subset search, since the extreme ratios are
attained at the cheapest component and the full set.  :func:`unew4` uses
the all-subsets family, :func:`unew5` the proper-subsets family plus the
certified overlap term, and is never weaker.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

import numpy as np

from .bounds_classic import BoundValue, _require_positive
from .errors import (
    ArgumentError,
    DegenerateWeights,
    InconsistentInfo,
    InfeasibleX,
    InvalidWeights,
    NoFeasibleSubset,
)
from .space import PartialInfo, WeightVector, gamma
from .subset_opt import Direction, SelectionQuery, SubsetSelection, SubsetTable, \
    select_dp, select_fptas  # select_dp is re-exported, no longer called here

# Relative tolerance when clamping a ratio into its achievable range;
# beyond it the inputs are declared inconsistent rather than repaired.
CLAMP_TOL = 1e-9

_TINY_MASS = 1e-15
_TINY_GAMMA = 1e-12


@dataclass(frozen=True)
class PerEventSolution:
    """One event's contribution: its ratio, the bracketing ratios, and the
    objective value.  ``selections`` is None when the event is vacuous."""

    i: int
    b: float
    b1: float
    b2: float
    selections: tuple[SubsetSelection, SubsetSelection] | None
    ell: float


@dataclass(frozen=True)
class Delta:
    """Certified lower bound on the all-events atom mass, with the right
    end of the aggregated feasibility window for the shared overlap x."""

    value: float
    upper_limit: float


def _objective(a: float, b: float, b1: float, b2: float) -> float:
    return a * (1.0 / b1 + 1.0 / b2 - b / (b1 * b2))


def _vacuous(i: int) -> PerEventSolution:
    return PerEventSolution(i=i, b=0.0, b1=math.nan, b2=math.nan,
                            selections=None, ell=0.0)


def _ratio_extremes(w: WeightVector, i: int, entries: SubsetTable | None,
                    exclude_full: bool,
                    ) -> tuple[float, SubsetSelection, float, SubsetSelection]:
    """Smallest and largest achievable ratios over subsets containing i."""
    ci = float(w.c[i])
    c = w.c
    n = w.n
    if w.all_positive:
        lo_sel = SubsetSelection(mask=1 << i, weight_sum=ci, exact=True)
        if exclude_full:
            others = [k for k in range(n) if k != i]
            drop = min(others, key=lambda k: (c[k], k))
            mask = ((1 << n) - 1) ^ (1 << drop)
            hi_sel = SubsetSelection(mask=mask, weight_sum=float(np.sum(c) - c[drop]),
                                     exact=True)
        else:
            hi_sel = SubsetSelection(mask=(1 << n) - 1, weight_sum=float(np.sum(c)),
                                     exact=True)
        return 1.0, lo_sel, hi_sel.weight_sum / ci, hi_sel
    ends = (entries.select(Direction.MIN_ALL), entries.select(Direction.MAX_ALL))
    lo, hi = sorted(ends, key=lambda sel: sel.weight_sum / ci)
    return lo.weight_sum / ci, lo, hi.weight_sum / ci, hi


def _clamp_ratio(b: float, rmin: float, rmax: float, what: str,
                 exc: type[Exception]) -> float:
    tol = CLAMP_TOL * max(1.0, abs(rmin), abs(rmax))
    if b < rmin - tol or b > rmax + tol:
        raise exc(
            f"{what}={b} outside the achievable ratio range [{rmin}, {rmax}]"
        )
    return min(max(b, rmin), rmax)


def _table(w: WeightVector, fptas_eps: float | None) -> SubsetTable | None:
    """The subset-sum table behind every exact selection at ``w``; None on
    the approximation path, which needs no table."""
    return None if fptas_eps is not None and w.all_positive else SubsetTable.of(w.c)


def _select(w: WeightVector, i: int, entries: SubsetTable | None, d: Direction,
            t: float, exclude_full: bool, fptas_eps: float | None,
            ) -> SubsetSelection | None:
    """Exact selection from the event's table entries, or the approximation
    scheme when there are none; None when no subset qualifies."""
    if entries is not None:
        return entries.select(d, t)
    try:
        return select_fptas(SelectionQuery(n=w.n, i=i, c=w, direction=d, t=t,
                                           exclude_full_set=exclude_full),
                            fptas_eps)  # type: ignore[arg-type]
    except NoFeasibleSubset:
        return None


def _solve_two_atom(w: WeightVector, i: int, a: float, g: float,
                    exclude_full: bool, fptas_eps: float | None,
                    table: SubsetTable | None, exc: type[Exception],
                    ) -> PerEventSolution:
    """Common core of ell_i and ell_i_prime: case dispatch plus objective.

    ``a`` and ``g`` are the (possibly shifted) event probability and
    weighted pairwise sum; ``exc`` is the error to raise when the inputs
    are not realizable.  ``table`` is :func:`_table` of ``w``.
    """
    ci = float(w.c[i])
    b = g / (ci * a)
    t_sum = g / a  # threshold in sum units, identical for either sign of c_i
    entries = None if table is None else table.containing(i, exclude_full)
    rmin, lo_sel, rmax, hi_sel = _ratio_extremes(w, i, entries, exclude_full)
    b = _clamp_ratio(b, rmin, rmax, "event ratio", exc)

    adjusted = False
    if rmin < 0.0:
        # Mixed signs: find the largest negative ratio.  For c_i < 0 that is
        # the smallest positive sum; no subset sums to zero for a valid
        # vector, so a weak inequality at 0 is safe.
        sel_neg = entries.select(Direction.MAX_NEGATIVE) if ci > 0 else \
            entries.select(Direction.MIN_ABOVE, 0.0)
        if b >= 0.0:
            sel1, sel2 = sel_neg, hi_sel
        elif b < sel_neg.weight_sum / ci:
            sel1, sel2 = sel_neg, lo_sel
        else:
            # no ratio lies between the largest negative one and b < 0,
            # so that subset is the largest ratio not above b
            sel1, sel2 = hi_sel, sel_neg
    elif b <= rmin:
        sel1 = sel2 = lo_sel
    elif b >= rmax:
        sel1 = sel2 = hi_sel
    else:
        # Ratios are sums divided by c_i, so a negative c_i reverses their
        # order.  b lies strictly inside the achievable range, so a missing
        # bracket end can only be rounding at that end of the range.
        below, above = Direction.MAX_BELOW, Direction.MIN_ABOVE
        if ci < 0:
            below, above = above, below
        sel1 = _select(w, i, entries, below, t_sum, exclude_full, fptas_eps) or lo_sel
        sel2 = _select(w, i, entries, above, t_sum, exclude_full, fptas_eps) or hi_sel
        adjusted = entries is None

    s1, s2 = sel1.weight_sum, sel2.weight_sum
    if adjusted:
        # Guaranteed one-sided approximation: widen the bracket so the
        # result can only underestimate the exact per-event optimum.
        eps = float(fptas_eps)  # type: ignore[arg-type]
        s1 = min(s1 / (1.0 - eps), t_sum)
        s2 = max(s2 / (1.0 + eps), t_sum)
    b1, b2 = s1 / ci, s2 / ci
    return PerEventSolution(i=i, b=b, b1=b1, b2=b2, selections=(sel1, sel2),
                            ell=_objective(a, b, b1, b2))


def ell_i(info: PartialInfo, w: WeightVector, i: int,
          fptas_eps: float | None = None) -> PerEventSolution:
    """Per-event optimum over all subsets containing i.

    ``fptas_eps`` of None means exact selections; a value in (0, 1) uses
    the approximation scheme (positive weights only) and returns the
    certified lower approximation of the exact optimum.
    """
    return _ell_i(info, w, i, fptas_eps, _table(w, fptas_eps))


def _ell_i(info: PartialInfo, w: WeightVector, i: int, fptas_eps: float | None,
           table: SubsetTable | None) -> PerEventSolution:
    if not w.is_valid:
        raise InvalidWeights("weight vector has a zero-sum subset")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    if not 0 <= i < info.n:
        raise ArgumentError(f"event index {i} out of range for n={info.n}")
    a = float(info.alpha[i])
    g = gamma(info, w, i)
    if a < _TINY_MASS:
        # vacuous event: the a -> 0 limit of every formula contributes 0,
        # and its pairwise row must vanish with it
        if abs(g) < _TINY_GAMMA:
            return _vacuous(i)
        raise InconsistentInfo(
            f"event {i} has zero mass but weighted pairwise sum {g}"
        )
    return _solve_two_atom(w, i, a, g, exclude_full=False, fptas_eps=fptas_eps,
                           table=table, exc=InconsistentInfo)


def lnew3(info: PartialInfo, w: WeightVector,
          fptas_eps: float | None = None) -> BoundValue:
    """First selection-based bound class: sum of per-event optima."""
    table = _table(w, fptas_eps)
    parts = [_ell_i(info, w, i, fptas_eps, table) for i in range(info.n)]
    notes: dict[str, Any] = {"mode": "exact" if fptas_eps is None else "fptas",
                             "per_event": [p.ell for p in parts]}
    if fptas_eps is not None:
        notes["epsilon"] = fptas_eps
    return BoundValue(name="lnew3", value=math.fsum(p.ell for p in parts),
                      kind="lower", weights_used=w, notes=notes)


def delta_tilde(info: PartialInfo, w: WeightVector) -> Delta:
    """Certified lower bound on the all-events atom mass.

    value = max_i [ (g_i - (sum(c) - min(c)) a_i) / min(c) ]+, and
    upper_limit = min_i (g_i - min(c) a_i) / (sum(c) - min(c)) is the right
    end of the aggregated window; value beyond it certifies that no space
    realizes the inputs.
    """
    c = _require_positive(w, "delta_tilde")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    mc = float(np.min(c))
    total = float(np.sum(c))
    if total - mc <= 0.0:
        raise DegenerateWeights("the shared-overlap construction needs n >= 2")
    g = info.gamma_vector(w)
    value = float(np.max((g - (total - mc) * info.alpha) / mc))
    value = max(value, 0.0)
    upper = float(np.min((g - mc * info.alpha) / (total - mc)))
    if value > upper + CLAMP_TOL:
        raise InconsistentInfo(
            f"overlap window is empty: certified mass {value} exceeds "
            f"upper limit {upper}"
        )
    return Delta(value=value, upper_limit=upper)


def feasible_x_window(info: PartialInfo, w: WeightVector) -> tuple[float, float]:
    """Exact window of x values for which every shifted per-event problem
    is solvable: the per-event achievable weight sums over proper subsets
    containing i are [c_i, sum(c) - min_{k != i} c_k]."""
    c = _require_positive(w, "feasible_x_window")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    n = info.n
    if n < 2:
        raise DegenerateWeights("the shared-overlap construction needs n >= 2")
    total = float(np.sum(c))
    order = np.argsort(c, kind="stable")
    m1 = float(c[order[0]])
    m2 = float(c[order[1]])
    min_other = np.full(n, m1)
    min_other[order[0]] = m2
    g = info.gamma_vector(w)
    lo = float(np.max((g - (total - min_other) * info.alpha) / min_other))
    lo = max(lo, 0.0)
    hi = float(np.min((g - c * info.alpha) / (total - c)))
    return lo, hi


def ell_i_prime(info: PartialInfo, w: WeightVector, i: int, x: float,
                fptas_eps: float | None = None) -> PerEventSolution:
    """Per-event optimum over proper subsets, with overlap mass x removed.

    Both the event probability and its weighted pairwise sum are shifted
    by x before the two-atom solve.  An event whose whole mass is the
    shared overlap contributes zero (its shifted weighted sum must vanish
    too, otherwise the inputs are inconsistent).
    """
    return _ell_i_prime(info, w, i, x, fptas_eps, _table(w, fptas_eps))


def _ell_i_prime(info: PartialInfo, w: WeightVector, i: int, x: float,
                 fptas_eps: float | None, table: SubsetTable | None,
                 ) -> PerEventSolution:
    c = _require_positive(w, "ell_i_prime")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    if not 0 <= i < info.n:
        raise ArgumentError(f"event index {i} out of range for n={info.n}")
    if info.n < 2:
        raise DegenerateWeights("the shared-overlap construction needs n >= 2")
    if not math.isfinite(x) or x < -1e-12:
        raise InfeasibleX(f"overlap mass x={x} is negative")
    a = float(info.alpha[i]) - x
    if a < -1e-12:
        raise InfeasibleX(f"overlap mass x={x} exceeds alpha[{i}]={info.alpha[i]}")
    ci = float(c[i])
    total = float(np.sum(c))
    g = gamma(info, w, i) - x * total
    if a <= 1e-12:
        if abs(g) <= CLAMP_TOL:
            return _vacuous(i)
        raise InconsistentInfo(
            f"event {i} has no residual mass but residual weighted sum {g}"
        )
    mc = float(np.min(c))
    b = g / (ci * a)
    tol = CLAMP_TOL * max(1.0, (total - mc) / abs(ci))
    if b < mc / ci - tol or b > (total - mc) / ci + tol:
        raise InfeasibleX(
            f"x={x} puts event {i} outside the aggregated window: "
            f"ratio {b} not in [{mc / ci}, {(total - mc) / ci}]"
        )
    return _solve_two_atom(w, i, a, g, exclude_full=True, fptas_eps=fptas_eps,
                           table=table, exc=InfeasibleX)


def lnew4(info: PartialInfo, w: WeightVector,
          fptas_eps: float | None = None) -> BoundValue:
    """Second selection-based bound class: certified overlap plus shifted
    per-event optima, evaluated at the left end of the exact feasibility
    window (the objective is non-decreasing in x, so that end is optimal).
    """
    _require_positive(w, "lnew4")
    d = delta_tilde(info, w)
    lo, hi = feasible_x_window(info, w)
    x = max(d.value, lo)
    if x > hi + CLAMP_TOL:
        raise InconsistentInfo(
            f"overlap window is empty: left endpoint {x} exceeds right "
            f"endpoint {hi}"
        )
    x = max(0.0, min(x, hi))
    table = _table(w, fptas_eps)
    parts = [_ell_i_prime(info, w, i, x, fptas_eps, table) for i in range(info.n)]
    value = x + math.fsum(p.ell for p in parts)
    notes: dict[str, Any] = {
        "mode": "exact" if fptas_eps is None else "fptas",
        "delta": d.value,
        "x_used": x,
        "window": (lo, hi),
    }
    if fptas_eps is not None:
        notes["epsilon"] = fptas_eps
    return BoundValue(name="lnew4", value=value, kind="lower", weights_used=w,
                      notes=notes)


def unew4(info: PartialInfo, w: WeightVector) -> BoundValue:
    """Upper bound from maximizing the per-event problems over all subsets.

    Closed form: (1/min(c) + 1/sum(c)) * sum_i c_i a_i
                 - (min(c) sum(c))^-1 * c' Sigma c.
    """
    c = _require_positive(w, "unew4")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    mc = float(np.min(c))
    total = float(np.sum(c))
    lin = float(c @ info.alpha)
    quad = float(c @ info.pairwise @ c)
    value = (1.0 / mc + 1.0 / total) * lin - quad / (mc * total)
    return BoundValue(name="unew4", value=value, kind="upper", weights_used=w)


def unew5(info: PartialInfo, w: WeightVector) -> BoundValue:
    """Sharper upper bound from the proper-subsets family plus the largest
    overlap mass the window allows; never weaker than :func:`unew4`."""
    c = _require_positive(w, "unew5")
    if w.n != info.n:
        raise ArgumentError(f"weights have n={w.n}, info has n={info.n}")
    mc = float(np.min(c))
    total = float(np.sum(c))
    if total - mc <= 0.0:
        raise DegenerateWeights("upper bound over proper subsets needs n >= 2")
    g = info.gamma_vector(w)
    head = float(np.min((g - mc * info.alpha) / (total - mc)))
    lin = float(c @ info.alpha)
    quad = float(c @ info.pairwise @ c)
    value = head + (1.0 / mc + 1.0 / (total - mc)) * lin - quad / (mc * (total - mc))
    return BoundValue(name="unew5", value=value, kind="upper", weights_used=w)
