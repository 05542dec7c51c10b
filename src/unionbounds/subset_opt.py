"""Constrained subset selection over weighted index sets.

All selection problems here share one shape: over the subsets B of
{0..n-1} that contain a mandatory index i (optionally excluding the full
set), optimize the weight sum s(B) = sum_{k in B} c_k subject to a
threshold constraint.  Four solvers are provided:

* :class:`SubsetTable` holds all 2^n subset sums of one weight vector,
  sorted once by (sum, mask).  Every exact selection of every index i
  then reads the entries whose mask contains i and answers with one
  binary search, for any sign pattern.  The selection bounds build one
  table per weight vector and use it for all their exact selections.  It
  stores a float64 sum and an int64 mask per subset: 16 * 2^n bytes,
  256 MiB at the cap n = 24, and building or filtering it briefly needs
  about as much again;
* :func:`select_exhaustive` enumerates all 2^(n-1) candidates and is the
  reference for every weight sign pattern;
* :func:`select_dp` is the classic 0/1 knapsack dynamic program (mass
  equals value) on weights quantized to a resolution, exact for the
  quantized problem and pseudo-polynomial in sum(c)/resolution.  It
  requires strictly positive weights;
* :func:`select_fptas` is a trim-based fully polynomial approximation
  scheme, also for positive weights, with the guarantees
  (1-eps)*OPT <= result <= OPT for MaxBelow and
  OPT <= result <= (1+eps)*OPT for MinAbove.  It is the selection behind
  ``fptas_eps`` in the bounds, and the only solver not capped at
  n <= max_atom_n(): its work is polynomial in n and 1/eps.

Minimize-above-threshold is reduced to maximize-below on the complement
ground set: B runs over supersets of {i} exactly when its complement B'
runs over subsets of the other indices, with s(B) = sum(c) - s(B').

Ties are broken toward the smallest bitmask, so results are reproducible.
Selections never require the weight vector to satisfy the nonzero-sum
validity condition; they operate on raw components.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, NoFeasibleSubset, ResolutionTooCoarse
from .space import WeightVector, bit_indices, max_atom_n, subset_sums


class Direction(enum.Enum):
    MAX_BELOW = "max_below"      # maximize s(B) subject to s(B) <= t
    MIN_ABOVE = "min_above"      # minimize s(B) subject to s(B) >= t
    MAX_ALL = "max_all"          # maximize s(B), unconstrained
    MIN_ALL = "min_all"          # minimize s(B), unconstrained
    MAX_NEGATIVE = "max_negative"  # maximize s(B) subject to s(B) < 0 (strict)


_NEEDS_T = (Direction.MAX_BELOW, Direction.MIN_ABOVE)


@dataclass(frozen=True)
class SelectionQuery:
    """One selection problem: mandatory index, direction, threshold."""

    n: int
    i: int
    c: WeightVector
    direction: Direction
    t: float | None = None
    exclude_full_set: bool = False

    def __post_init__(self) -> None:
        if not 0 <= self.i < self.n:
            raise ArgumentError(f"index i={self.i} out of range for n={self.n}")
        if self.c.n != self.n:
            raise ArgumentError(f"weights have n={self.c.n}, query has n={self.n}")
        if self.direction in _NEEDS_T:
            if self.t is None or not math.isfinite(self.t):
                raise ArgumentError(f"{self.direction.value} requires a finite threshold")


@dataclass(frozen=True)
class SubsetSelection:
    """A chosen subset with its weight sum and provenance.

    ``weight_sum`` is recomputed from the mask (exactly-rounded sum of the
    chosen components).  ``exact`` is True for the table, enumeration and
    quantized DP, False for the approximation scheme; ``resolution``
    records the DP quantization when one was used.
    """

    mask: int
    weight_sum: float
    exact: bool
    epsilon: float | None = None
    resolution: float | None = None


def _mask_sum(c: np.ndarray, mask: int) -> float:
    return math.fsum(float(c[k]) for k in bit_indices(mask))


def _enumeration_table(c: np.ndarray, i: int) -> tuple[np.ndarray, np.ndarray]:
    """Sums and masks of every subset containing i, mask-ascending.

    Built by doubling over the other indices in increasing order, which
    makes the mask sequence strictly increasing; the final entry is the
    full set.
    """
    sums = np.array([c[i]])
    masks = np.array([1 << i], dtype=np.int64)
    for k in range(c.size):
        if k == i:
            continue
        sums = np.concatenate([sums, sums + c[k]])
        masks = np.concatenate([masks, masks | (1 << k)])
    return sums, masks


def _check_n(n: int) -> None:
    if n > max_atom_n():
        raise ArgumentError(f"selection needs n <= {max_atom_n()}, got {n}")


@dataclass(frozen=True)
class SubsetTable:
    """Subset sums of ``c`` with their masks, ascending by (sum, mask).

    Build it with :meth:`of`; :meth:`containing` keeps the entries of one
    mandatory index and :meth:`select` answers a selection on them.  Sums
    are accumulated in bit order; a chosen subset's ``weight_sum`` is
    recomputed from its mask.
    """

    c: np.ndarray
    sums: np.ndarray
    masks: np.ndarray

    @classmethod
    def of(cls, c: np.ndarray) -> "SubsetTable":
        _check_n(c.size)
        sums = subset_sums(c)
        # sums is indexed by mask, so a stable sort keeps equal sums in
        # mask order and the sort permutation is the mask column itself
        masks = np.argsort(sums, kind="stable")
        return cls(c, sums[masks], masks)

    def containing(self, i: int, exclude_full_set: bool = False) -> "SubsetTable":
        keep = (self.masks & (1 << i)) != 0
        if exclude_full_set:
            keep &= self.masks != (1 << self.c.size) - 1
        return SubsetTable(self.c, self.sums[keep], self.masks[keep])

    def select(self, direction: Direction, t: float | None = None,
               ) -> SubsetSelection | None:
        """Optimum with the same comparisons as :func:`select_exhaustive`;
        None when no entry qualifies."""
        s = self.sums
        if direction is Direction.MIN_ALL:
            k = 0
        elif direction is Direction.MAX_ALL:
            k = s.size - 1
        elif direction is Direction.MIN_ABOVE:
            k = int(s.searchsorted(t, "left"))
        elif direction is Direction.MAX_BELOW:
            k = int(s.searchsorted(t, "right")) - 1
        else:
            k = int(s.searchsorted(0.0, "left")) - 1
        if not 0 <= k < s.size:
            return None
        # the first entry with this sum carries the smallest mask
        mask = int(self.masks[s.searchsorted(s[k], "left")])
        return SubsetSelection(mask=mask, weight_sum=_mask_sum(self.c, mask),
                               exact=True)


def select_exhaustive(q: SelectionQuery) -> SubsetSelection:
    """Exact optimum by enumerating every subset containing i.

    Handles any sign pattern.  Threshold comparisons are exact: <= / >= for
    MaxBelow / MinAbove, strictly < 0 for MaxNegative.
    """
    _check_n(q.n)
    sums, masks = _enumeration_table(q.c.c, q.i)
    if q.exclude_full_set:
        sums, masks = sums[:-1], masks[:-1]
        if sums.size == 0:
            raise NoFeasibleSubset("no proper subset contains the mandatory index")
    d = q.direction
    if d is Direction.MAX_ALL:
        feasible = np.ones(sums.size, dtype=bool)
        maximize = True
    elif d is Direction.MIN_ALL:
        feasible = np.ones(sums.size, dtype=bool)
        maximize = False
    elif d is Direction.MAX_BELOW:
        feasible = sums <= q.t
        maximize = True
    elif d is Direction.MIN_ABOVE:
        feasible = sums >= q.t
        maximize = False
    else:
        feasible = sums < 0.0
        maximize = True
    idx = np.flatnonzero(feasible)
    if idx.size == 0:
        raise NoFeasibleSubset(f"no subset containing {q.i} satisfies {d.value}")
    # argmax/argmin return the first optimum; masks ascend with position,
    # so this is the smallest-bitmask tie-break.
    pos = idx[int(np.argmax(sums[idx]))] if maximize else idx[int(np.argmin(sums[idx]))]
    mask = int(masks[pos])
    return SubsetSelection(mask=mask, weight_sum=_mask_sum(q.c.c, mask), exact=True)


def _require_positive(q: SelectionQuery, who: str) -> np.ndarray:
    c = q.c.c
    if not np.all(c > 0):
        raise ArgumentError(f"{who} requires strictly positive weights")
    return c


def _dp_reach(units: np.ndarray, bits: list[int], start_sum: int, start_mask: int,
              keep_max_mask: bool) -> tuple[np.ndarray, np.ndarray]:
    """Sparse reachability DP: distinct quantized sums (ascending) with one
    representative mask each.

    Items must arrive in increasing bit order; then keeping the min (or
    max) mask per sum at every merge yields the min (or max) mask over all
    subsets attaining that sum.
    """
    sums = np.array([start_sum], dtype=np.int64)
    masks = np.array([start_mask], dtype=np.int64)
    for u, bit in zip(units, bits):
        ns = np.concatenate([sums, sums + u])
        nm = np.concatenate([masks, masks | (1 << bit)])
        order = np.lexsort((-nm if keep_max_mask else nm, ns))
        ns, nm = ns[order], nm[order]
        fresh = np.ones(ns.size, dtype=bool)
        fresh[1:] = ns[1:] != ns[:-1]
        sums, masks = ns[fresh], nm[fresh]
    return sums, masks


def select_dp(q: SelectionQuery, resolution: float) -> SubsetSelection:
    """Exact optimum for weights quantized to multiples of ``resolution``.

    MinAbove is solved through the complement transform.  If the chosen
    subset violates the original (unquantized) threshold comparison, the
    quantization was too coarse and :class:`ResolutionTooCoarse` is raised.
    """
    _check_n(q.n)
    if not (isinstance(resolution, (int, float)) and resolution > 0):
        raise ArgumentError(f"resolution must be positive, got {resolution!r}")
    if q.direction not in _NEEDS_T:
        raise ArgumentError(f"select_dp supports MaxBelow/MinAbove, not {q.direction.value}")
    c = _require_positive(q, "select_dp")
    n, i, t = q.n, q.i, float(q.t)  # type: ignore[arg-type]
    if max(float(np.max(c)), abs(t)) / resolution > 2**52:
        raise ArgumentError(
            f"resolution {resolution} is too fine for these magnitudes"
        )
    units = np.rint(c / resolution).astype(np.int64)
    others = [k for k in range(n) if k != i]
    full_mask = (1 << n) - 1

    if q.direction is Direction.MAX_BELOW:
        cap = math.floor(t / resolution + 1e-9)
        sums, masks = _dp_reach(units[others], others, int(units[i]), 1 << i,
                                keep_max_mask=False)
        feasible = sums <= cap
        if q.exclude_full_set:
            feasible &= masks != full_mask
        idx = np.flatnonzero(feasible)
        if idx.size == 0:
            raise NoFeasibleSubset(f"no subset containing {i} has quantized sum <= {cap}")
        mask = int(masks[idx[-1]])  # sums ascend: last feasible is the max
        true_sum = _mask_sum(c, mask)
        if true_sum > t:
            err = ResolutionTooCoarse(
                f"mask {mask} has sum {true_sum} > {t}; quantization at "
                f"{resolution} flipped feasibility"
            )
            err.mask, err.weight_sum = mask, true_sum  # let callers inspect
            raise err
    else:
        need = math.ceil(t / resolution - 1e-9)
        cap = int(np.sum(units)) - need
        if cap < 0:
            raise NoFeasibleSubset(f"even the full set falls short of {t}")
        sums, masks = _dp_reach(units[others], others, 0, 0, keep_max_mask=True)
        feasible = sums <= cap
        if q.exclude_full_set:
            feasible &= masks != 0
        idx = np.flatnonzero(feasible)
        if idx.size == 0:
            raise NoFeasibleSubset(
                f"no proper subset containing {i} has quantized sum >= {need}"
            )
        mask = full_mask ^ int(masks[idx[-1]])
        true_sum = _mask_sum(c, mask)
        if true_sum < t:
            err = ResolutionTooCoarse(
                f"mask {mask} has sum {true_sum} < {t}; quantization at "
                f"{resolution} flipped feasibility"
            )
            err.mask, err.weight_sum = mask, true_sum
            raise err
    return SubsetSelection(mask=mask, weight_sum=true_sum, exact=True,
                           resolution=resolution)


def _merge_trim(left: list[tuple[float, int]], right: list[tuple[float, int]],
                delta: float) -> list[tuple[float, int]]:
    """Merge two sum-sorted candidate lists and drop near-duplicates.

    Keeps an entry only if its sum exceeds the last kept sum by the
    relative factor (1 + delta); the kept representative of each dropped
    cluster is the smaller one, so the final value underestimates by at
    most that factor per merge round.
    """
    merged: list[tuple[float, int]] = []
    a = b = 0
    while a < len(left) or b < len(right):
        if b >= len(right) or (a < len(left) and left[a] <= right[b]):
            cand = left[a]
            a += 1
        else:
            cand = right[b]
            b += 1
        if not merged or cand[0] > merged[-1][0] * (1.0 + delta):
            merged.append(cand)
    return merged


def _trim_max_below(base: tuple[float, int], items: list[tuple[float, int]],
                    t: float, eps: float) -> tuple[float, int] | None:
    """Approximate max subset sum <= t over base plus optional items."""
    if base[0] > t:
        return None
    delta = eps / (2.0 * max(1, len(items)))
    level: list[tuple[float, int]] = [base]
    for ck, bit in items:
        shifted = [(s + ck, m | (1 << bit)) for s, m in level if s + ck <= t]
        level = _merge_trim(level, shifted, delta)
    return level[-1]


def select_fptas(q: SelectionQuery, epsilon: float) -> SubsetSelection:
    """Approximation scheme for positive weights, at any n.

    MaxBelow returns a subset within factor (1-epsilon) of the optimum;
    MinAbove within (1+epsilon), via the complement transform run at an
    adjusted internal tolerance so the multiplicative guarantee transfers.
    Feasibility is always exact: candidate sums are true subset sums.
    Excluding the full set costs no extra trim run (see the branches).
    """
    if not (0.0 < epsilon < 1.0):
        raise ArgumentError(f"epsilon must be in (0, 1), got {epsilon!r}")
    c = _require_positive(q, "select_fptas")
    n, i = q.n, q.i
    others = [k for k in range(n) if k != i]
    items = [(float(c[k]), k) for k in others]
    full_mask = (1 << n) - 1
    d = q.direction

    def best_proper() -> SubsetSelection:
        # with positive weights the heaviest proper subset containing i
        # is the full set minus its cheapest other index
        if not others:
            raise NoFeasibleSubset("no proper subset contains the mandatory index")
        drop = min(others, key=lambda k: (c[k], k))
        mask = full_mask ^ (1 << drop)
        return SubsetSelection(mask=mask, weight_sum=_mask_sum(c, mask), exact=False,
                               epsilon=epsilon)

    if d is Direction.MAX_NEGATIVE:
        raise NoFeasibleSubset("positive weights admit no negative subset sum")
    if d is Direction.MIN_ALL:
        return SubsetSelection(mask=1 << i, weight_sum=float(c[i]), exact=False,
                               epsilon=epsilon)
    if d is Direction.MAX_ALL:
        if q.exclude_full_set:
            return best_proper()
        return SubsetSelection(mask=full_mask, weight_sum=_mask_sum(c, full_mask),
                               exact=False, epsilon=epsilon)

    t = float(q.t)  # type: ignore[arg-type]
    if d is Direction.MAX_BELOW:
        best = _trim_max_below((float(c[i]), 1 << i), items, t, epsilon)
        if best is None:
            raise NoFeasibleSubset(f"no subset containing {i} has sum <= {t}")
        if q.exclude_full_set and best[1] == full_mask:
            # the full set fits under t, so every subset does and the
            # best proper one is known exactly; otherwise the full set is
            # infeasible and the ordinary run never returns it
            return best_proper()
        return SubsetSelection(mask=best[1], weight_sum=_mask_sum(c, best[1]),
                               exact=False, epsilon=epsilon)

    # MIN_ABOVE by complement: minimize sum(c) - s(B') with s(B') <= cap.
    sum_all = _mask_sum(c, full_mask)
    cap = sum_all - t
    if cap < 0:
        raise NoFeasibleSubset(f"even the full set falls short of {t}")
    lower_opt = max(t, float(c[i]))  # OPT >= t and OPT >= c_i
    slack = sum_all - lower_opt
    if q.exclude_full_set and not any(ck <= cap for ck, _ in items):
        # a proper B needs a nonempty complement within the cap
        raise NoFeasibleSubset(f"no proper subset containing {i} has sum >= {t}")
    if slack <= 0:
        # Only the full set can be feasible.
        return SubsetSelection(mask=full_mask, weight_sum=sum_all, exact=False,
                               epsilon=epsilon)
    # result <= OPT + eps_inner * slack <= (1 + epsilon) * OPT.  When the
    # full set is excluded, some single index fits under the cap, so the
    # run keeps a nonempty complement and its result is a proper subset.
    eps_inner = min(0.9, epsilon * lower_opt / slack)
    best = _trim_max_below((0.0, 0), items, cap, eps_inner)  # cap >= 0: never None
    mask = full_mask ^ best[1]  # type: ignore[index]
    return SubsetSelection(mask=mask, weight_sum=_mask_sum(c, mask), exact=False,
                           epsilon=epsilon)
