"""Shared fixtures and independent oracles.

The oracles here deliberately avoid the package's closed-form paths:
per-event optima are recomputed by enumerating all bracketing subset
pairs and by a from-scratch LP formulation, and small LPs are checked by
brute-force vertex enumeration.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

import unionbounds as ub
from unionbounds.space import membership_matrix, subset_sums

# Hand-checked two-event reference: atoms {1}=0.3, {2}=0.2, {1,2}=0.2.
N2_ATOMS = {1: 0.3, 2: 0.2, 3: 0.2}


@pytest.fixture
def n2_space() -> ub.EventSpace:
    return ub.EventSpace(n=2, atom_probs=dict(N2_ATOMS))


@pytest.fixture
def n2_info(n2_space) -> ub.PartialInfo:
    return ub.derive_partial_info(n2_space)


def random_space(rng: np.random.Generator, n: int, trial: int) -> ub.EventSpace:
    """Alternate between dense dirichlet and sparse atom layouts."""
    seed = int(rng.integers(0, 2**31))
    if trial % 2 == 0:
        return ub.generate_random_space(n, seed, "dirichlet")
    k = int(rng.integers(1, 1 << n))
    return ub.generate_random_space(n, seed, f"sparse:{k}")


def draw_positive_weights(rng: np.random.Generator, n: int) -> ub.WeightVector:
    return ub.WeightVector.from_components(1.0 - rng.random(n))


def draw_mixed_weights(rng: np.random.Generator, n: int,
                       min_gap: float = 0.05) -> ub.WeightVector:
    """Mixed-sign vector with dyadic components and well-separated subset
    sums.  Dyadic components make subset sums exact in binary floating
    point, and the separation keeps every 1/sum well conditioned, which
    the tightest identity tolerances rely on.
    """
    while True:
        c = np.round(rng.uniform(-1.0, 1.0, n) * (1 << 20)) / (1 << 20)
        if np.any(c == 0.0) or np.all(c > 0):
            continue
        if np.min(np.abs(subset_sums(c)[1:])) >= min_gap:
            return ub.WeightVector.from_components(c)


def two_atom_oracle(info: ub.PartialInfo, w: ub.WeightVector, i: int) -> float:
    """Brute-force per-event optimum: minimize over every subset pair
    whose weight-sum ratios bracket the event ratio."""
    n = info.n
    c = w.c
    a = float(info.alpha[i])
    if a <= 0.0:
        return 0.0
    g = ub.gamma(info, w, i)
    b = g / (c[i] * a)
    masks = [m for m in range(1, 1 << n) if m & (1 << i)]
    ratios = np.array([math.fsum(c[k] for k in range(n) if m >> k & 1)
                       for m in masks]) / c[i]
    b = min(max(b, ratios.min()), ratios.max())
    r1 = ratios[:, None]
    r2 = ratios[None, :]
    feasible = (r1 - b) * (r2 - b) <= 0
    objective = a * (1.0 / r1 + 1.0 / r2 - b / (r1 * r2))
    return float(np.min(objective[feasible]))


def per_event_lp(info: ub.PartialInfo, w: ub.WeightVector, i: int) -> ub.LpProblem:
    """The per-event problem as a raw LP over atom masses inside A_i."""
    n = info.n
    c = w.c
    masks = np.array([m for m in range(1, 1 << n) if m & (1 << i)], dtype=np.int64)
    mem = membership_matrix(n, masks)
    s = c @ mem
    a = float(info.alpha[i])
    g = ub.gamma(info, w, i)
    return ub.LpProblem(
        objective=c[i] / s,
        eq_matrix=np.vstack([np.ones(masks.size), s / c[i]]),
        eq_rhs=np.array([a, g / c[i]]),
        sense="min",
    )


def inclass_lp(info: ub.PartialInfo, w: ub.WeightVector, sense: str) -> ub.LpProblem:
    """The in-class LP as a raw LP over all 2^n - 1 atom masses: for each
    event i, sum_{B ∋ i} p_B = alpha_i, then for each event
    sum_{B ∋ i} s(B) p_B = gamma_i; minimize ("lower") or maximize
    ("upper") sum_B p_B."""
    n = info.n
    masks = np.arange(1, 1 << n, dtype=np.int64)
    mem = ((masks[None, :] >> np.arange(n, dtype=np.int64)[:, None]) & 1).astype(float)
    s = w.c @ mem
    return ub.LpProblem(
        objective=np.ones(masks.size),
        eq_matrix=np.vstack([mem, mem * s[None, :]]),
        eq_rhs=np.concatenate([info.alpha, info.pairwise @ w.c]),
        sense="min" if sense == "lower" else "max",
    )


def lp_vertex_oracle(p: ub.LpProblem) -> tuple[str, float]:
    """Solve a small standard-form LP by enumerating basic solutions."""
    a = np.asarray(p.eq_matrix)
    b = np.asarray(p.eq_rhs)
    obj = np.asarray(p.objective)
    m, n = a.shape
    best = None
    feasible_seen = False
    for cols in itertools.combinations(range(n), min(m, n)):
        sub = a[:, cols]
        if np.linalg.matrix_rank(sub) < min(m, n):
            continue
        try:
            x_basic, res, *_ = np.linalg.lstsq(sub, b, rcond=None)
        except np.linalg.LinAlgError:
            continue
        if np.linalg.norm(sub @ x_basic - b) > 1e-8:
            continue
        if np.any(x_basic < -1e-9):
            continue
        feasible_seen = True
        x = np.zeros(n)
        x[list(cols)] = np.clip(x_basic, 0.0, None)
        val = float(obj @ x)
        if best is None or (val < best if p.sense == "min" else val > best):
            best = val
    if not feasible_seen:
        return "infeasible", math.nan
    return "optimal", best
