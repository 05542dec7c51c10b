"""References computed without the package's bound code.

Everything here works from atom masses, weights, or the partial
information derived by this module itself:

* the exact union as ``math.fsum`` of the atom masses;
* event probabilities and pairwise intersections by summing atoms;
* the first selection bound class (``lnew3``) by enumerating every pair
  of subsets whose weight-sum ratios bracket each event's ratio;
* the in-class LP, built here from the atoms' membership matrix and
  solved by scipy's HiGHS (scipy is imported only when that check runs);
* the budget of the approximation scheme.
"""

from __future__ import annotations

import math
from typing import Mapping

import numpy as np

_ORACLE_BLOCK = 256  # rows per block in the pair enumeration

# At its default feasibility tolerances (1e-7) HiGHS stops up to 2.3e-9
# short of the optimum on n = 12 problems; at 1e-10 it agrees with the
# package's simplex to within 2.1e-11.
HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}


def exact_union(atoms: Mapping[int, float]) -> float:
    return math.fsum(atoms.values())


def membership(n: int, masks: np.ndarray) -> np.ndarray:
    """(len(masks), n) 0/1 matrix: row j says which events atom masks[j] is in."""
    return ((masks[:, None] >> np.arange(n)) & 1).astype(float)


def partial_info(n: int, atoms: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """alpha[i] = sum of masses containing i; pairwise[i, j] = sum of
    masses containing i and j."""
    masks = np.fromiter(atoms.keys(), dtype=np.int64, count=len(atoms))
    probs = np.fromiter(atoms.values(), dtype=float, count=len(atoms))
    mem = membership(n, masks)
    pairwise = (mem * probs[:, None]).T @ mem
    return np.diag(pairwise).copy(), pairwise


def subset_sums(c: np.ndarray) -> np.ndarray:
    """Weight sum of every subset, indexed by bitmask."""
    n = c.size
    return membership(n, np.arange(1 << n, dtype=np.int64)) @ c


def _per_event_optimum(a: float, b: float, ratios: np.ndarray) -> float:
    """min over ratio pairs (r1, r2) bracketing b of a(1/r1 + 1/r2 - b/(r1 r2)).

    ``b`` is first moved into [min(ratios), max(ratios)], as the bound does
    for ratios that sit on the range's ends up to rounding.
    """
    b = min(max(b, float(ratios.min())), float(ratios.max()))
    best = math.inf
    r2 = ratios[None, :]
    for lo in range(0, ratios.size, _ORACLE_BLOCK):
        r1 = ratios[lo:lo + _ORACLE_BLOCK, None]
        objective = a * (1.0 / r1 + 1.0 / r2 - b / (r1 * r2))
        objective[(r1 - b) * (r2 - b) > 0] = math.inf
        best = min(best, float(objective.min()))
    return best


def lnew3(alpha: np.ndarray, pairwise: np.ndarray, c: np.ndarray) -> float:
    """The first selection bound class by pair enumeration, for any valid c."""
    c = np.asarray(c, dtype=float)
    n = c.size
    sums = subset_sums(c)
    masks = np.arange(1 << n)
    gamma = pairwise @ c
    parts = []
    for i in range(n):
        a = float(alpha[i])
        if a <= 0.0:
            continue
        ratios = sums[(masks >> i) & 1 == 1] / c[i]
        parts.append(_per_event_optimum(a, float(gamma[i]) / (c[i] * a), ratios))
    return math.fsum(parts)


def inclass_lp(alpha: np.ndarray, pairwise: np.ndarray, c: np.ndarray,
               sense: str) -> float:
    """min ("lower") or max ("upper") of sum(p_B) over p >= 0 with, for
    every event i, sum_{B ∋ i} p_B = alpha_i and
    sum_{B ∋ i} s(B) p_B = (pairwise @ c)_i, solved by HiGHS."""
    from scipy.optimize import linprog

    c = np.asarray(c, dtype=float)
    n = c.size
    mem = membership(n, np.arange(1, 1 << n, dtype=np.int64)).T
    sums = c @ mem
    eq = np.vstack([mem, mem * sums])
    rhs = np.concatenate([alpha, pairwise @ c])
    sign = 1.0 if sense == "lower" else -1.0
    res = linprog(sign * np.ones(mem.shape[1]), A_eq=eq, b_eq=rhs,
                  bounds=(0, None), method="highs", options=HIGHS_OPTIONS)
    if res.status != 0:
        raise RuntimeError(f"reference LP did not solve: {res.message}")
    return sign * float(res.fun)


def fptas_budget(alpha: np.ndarray, eps: float) -> float:
    """Largest amount by which the approximation scheme may undercut the
    exact selection bound, for lnew3 and lnew4 alike.

    Per event the scheme moves the lower bracket b1 up by at most a factor
    1/(1 - eps) and the upper bracket b2 down by at most 1 + eps.  The
    objective a(1/b1 + 1/b2 - b/(b1 b2)) is k/b1 plus a constant in b1
    and -k'/b2 plus a constant in b2, with k/b1 <= a and k'/b2 <= a for
    positive weights (b1, b2 >= 1), so the two moves cost at most
    a eps/(1 - eps) and a eps.  lnew4's shifted masses a_i - x are at most
    a_i, so the same sum covers it.
    """
    return eps * (1.0 + 1.0 / (1.0 - eps)) * math.fsum(map(float, alpha))
