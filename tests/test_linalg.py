import numpy as np
import pytest

import unionbounds as ub
from unionbounds.errors import DimensionMismatch
from unionbounds.linalg import LpProblem, solve_linear_system, solve_lp

from conftest import draw_mixed_weights, draw_positive_weights, inclass_lp, \
    lp_vertex_oracle, per_event_lp


class TestSolveLinearSystem:
    def test_identity(self):
        sol = solve_linear_system(np.eye(2), [1.0, 2.0])
        assert sol.x == pytest.approx([1.0, 2.0], abs=1e-14)
        assert sol.residual <= 1e-14

    def test_hand_2x2(self):
        a = np.array([[0.5, 0.2], [0.2, 0.4]])
        sol = solve_linear_system(a, [0.5, 0.4])
        assert sol.x == pytest.approx([0.75, 0.625], abs=1e-12)

    def test_rank_one_system(self):
        # identical events: all-q matrix; any x with sum(x)=1 works
        q = 0.3
        n = 4
        a = np.full((n, n), q)
        sol = solve_linear_system(a, np.full(n, q))
        assert sol.residual <= 1e-9
        assert np.sum(sol.x) == pytest.approx(1.0, abs=1e-9)

    def test_random_symmetric_residuals(self):
        rng = np.random.default_rng(42)
        for _ in range(30):
            n = int(rng.integers(2, 9))
            m = rng.normal(size=(n, n))
            a = m @ m.T + n * np.eye(n)  # well conditioned SPD
            b = rng.normal(size=n)
            sol = solve_linear_system(a, b)
            assert sol.residual <= 1e-9

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            solve_linear_system(np.eye(2), [1.0, 2.0, 3.0])
        with pytest.raises(DimensionMismatch):
            solve_linear_system(np.ones((2, 3)), [1.0, 2.0])


class TestSolveLp:
    def test_fixed_sum(self):
        p = LpProblem(objective=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                      sense="min")
        sol = solve_lp(p)
        assert sol.optimal
        assert sol.value == pytest.approx(1.0, abs=1e-12)

    def test_per_event_problem_n2(self, n2_info):
        sol = solve_lp(per_event_lp(n2_info, ub.WeightVector.ones(2), 0))
        assert sol.optimal
        assert sol.value == pytest.approx(0.4, abs=1e-12)

    def test_infeasible_sign(self):
        p = LpProblem(objective=[1.0, 1.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[-1.0],
                      sense="min")
        sol = solve_lp(p)
        assert sol.status == "infeasible"
        assert sol.pivots[1] == 0  # phase 2 never starts

    def test_unbounded(self):
        p = LpProblem(objective=[-1.0, 0.0], eq_matrix=[[0.0, 1.0]], eq_rhs=[1.0],
                      sense="min")
        assert solve_lp(p).status == "unbounded"

    def test_max_sense(self):
        p = LpProblem(objective=[1.0, 2.0], eq_matrix=[[1.0, 1.0]], eq_rhs=[1.0],
                      sense="max")
        sol = solve_lp(p)
        assert sol.optimal
        assert sol.value == pytest.approx(2.0, abs=1e-12)

    def test_primal_consistency(self):
        p = LpProblem(objective=[3.0, 1.0, 2.0],
                      eq_matrix=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                      eq_rhs=[1.0, 1.5], sense="min")
        sol = solve_lp(p)
        assert sol.optimal
        assert np.asarray(p.eq_matrix) @ sol.primal == pytest.approx(
            np.asarray(p.eq_rhs), abs=1e-9)
        assert sol.value == pytest.approx(float(np.dot(p.objective, sol.primal)),
                                          abs=1e-9)

    def test_beale_cycling_example(self):
        # Beale's LP, on which Dantzig's rule without anti-cycling cycles
        # through degenerate bases; x1..x3 are the classic slacks.
        p = LpProblem(objective=[0.0, 0.0, 0.0, -0.75, 20.0, -0.5, 6.0],
                      eq_matrix=[[1.0, 0.0, 0.0, 0.25, -8.0, -1.0, 9.0],
                                 [0.0, 1.0, 0.0, 0.5, -12.0, -0.5, 3.0],
                                 [0.0, 0.0, 1.0, 0.0, 0.0, 1.0, 0.0]],
                      eq_rhs=[0.0, 0.0, 1.0], sense="min")
        sol = solve_lp(p)
        assert sol.optimal
        assert sol.value == pytest.approx(-1.25, abs=1e-12)
        assert np.asarray(p.eq_matrix) @ sol.primal == pytest.approx([0.0, 0.0, 1.0],
                                                                     abs=1e-12)

    @pytest.mark.parametrize("sense, value, pivots", [("min", 2.0, (2, 0)),
                                                       ("max", 6.0, (2, 1))])
    def test_pivots_per_phase(self, sense, value, pivots):
        # x1 + x2 = 1, x2 + x3 = 1.5: phase 1 swaps both artificials for
        # x2 and x3, where the minimum already is; the maximum needs x1 in.
        p = LpProblem(objective=[3.0, 1.0, 2.0],
                      eq_matrix=[[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]],
                      eq_rhs=[1.0, 1.5], sense=sense)
        sol = solve_lp(p)
        assert sol.value == pytest.approx(value, abs=1e-12)
        assert sol.pivots == pivots

    def test_vertex_enumeration_oracle(self):
        rng = np.random.default_rng(7)
        agreements = 0
        for _ in range(60):
            nv = int(rng.integers(2, 7))
            m = int(rng.integers(1, min(nv, 4)))
            a = rng.normal(size=(m, nv))
            x0 = rng.random(nv)  # known feasible point keeps the LP feasible
            sense = "min" if rng.random() < 0.5 else "max"
            # sign-aligned objective keeps the LP bounded in either sense
            obj = rng.random(nv) + 0.1
            p = LpProblem(objective=obj if sense == "min" else -obj,
                          eq_matrix=a, eq_rhs=a @ x0, sense=sense)
            got = solve_lp(p)
            want_status, want_value = lp_vertex_oracle(p)
            assert got.status == want_status == "optimal"
            assert got.value == pytest.approx(want_value, abs=1e-8)
            agreements += 1
        assert agreements == 60

    def test_vertex_oracle_flags_infeasible(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            nv = int(rng.integers(2, 6))
            a = np.vstack([rng.normal(size=nv), np.zeros(nv)])
            b = np.array([rng.normal(), 1.0])  # 0 = 1 is unsatisfiable
            p = LpProblem(objective=rng.normal(size=nv), eq_matrix=a, eq_rhs=b,
                          sense="min")
            assert solve_lp(p).status == "infeasible"
            assert lp_vertex_oracle(p)[0] == "infeasible"


class TestOptimalInclassBound:
    def test_brackets_exact_union(self):
        rng = np.random.default_rng(3)
        for trial in range(15):
            n = int(rng.integers(2, 7))
            sp = ub.generate_random_space(n, int(rng.integers(0, 10**6)),
                                          "dirichlet")
            info = ub.derive_partial_info(sp)
            exact = ub.exact_union(sp)
            w = ub.WeightVector.from_components(1.0 - rng.random(n))
            lo = ub.optimal_inclass_bound(info, w, "lower")
            hi = ub.optimal_inclass_bound(info, w, "upper")
            assert lo <= exact + 1e-9
            assert exact <= hi + 1e-9

    def test_disjoint_pins_union(self):
        sp = ub.EventSpace(n=3, atom_probs={1: 0.2, 2: 0.3, 4: 0.1})
        info = ub.derive_partial_info(sp)
        ones = ub.WeightVector.ones(3)
        assert ub.optimal_inclass_bound(info, ones, "lower") == \
            pytest.approx(0.6, abs=1e-10)
        assert ub.optimal_inclass_bound(info, ones, "upper") == \
            pytest.approx(0.6, abs=1e-10)

    def test_n2_is_determined(self, n2_info):
        ones = ub.WeightVector.ones(2)
        assert ub.optimal_inclass_bound(n2_info, ones, "lower") == \
            pytest.approx(0.7, abs=1e-10)

    def test_unrealizable_info_is_flagged(self):
        # pairwise sums too large for these marginals to allow any space
        info = ub.PartialInfo(
            n=3,
            alpha=np.array([0.3, 0.3, 0.3]),
            pairwise=np.array([
                [0.3, 0.3, 0.3],
                [0.3, 0.3, 0.0],
                [0.3, 0.0, 0.3],
            ]),
        )
        with pytest.raises(ub.InconsistentInfo):
            ub.optimal_inclass_bound(info, ub.WeightVector.ones(3), "lower")


class TestInclassPivotWork:
    """Counts pivots, not wall time.  The stall counter once read every
    improving pivot as a stall, so each LP switched to Bland's rule after
    2(m + 1) pivots: these eight LPs then took 81 to 3297 pivots, five of
    them more than 400; with the counter right they take at most 274."""

    @pytest.mark.parametrize("model", ["sparse:96", "dirichlet"])
    def test_n12_takes_few_pivots(self, model):
        rng = np.random.default_rng(12)
        sp = ub.generate_random_space(12, int(rng.integers(0, 2**31)), model)
        info = ub.derive_partial_info(sp)
        for w in (ub.WeightVector.ones(12), draw_positive_weights(rng, 12)):
            for sense in ("lower", "upper"):
                sol = solve_lp(inclass_lp(info, w, sense))
                assert sol.optimal
                assert sum(sol.pivots) <= 400, sol.pivots
                # the helper's LP is the package's own
                assert sol.value == ub.optimal_inclass_bound(info, w, sense)


class TestInclassRankDeficient:
    """Spaces whose in-class rows are linearly dependent: the redundant
    rows are dropped after phase 1, and the union is pinned by the info."""

    @pytest.mark.parametrize("space", [
        ub.EventSpace(n=5, atom_probs={31: 0.37}),  # identical events
        ub.EventSpace(n=5, atom_probs={1: 0.1, 2: 0.15, 4: 0.2, 8: 0.05, 16: 0.3}),
        ub.generate_random_space(6, 123, "sparse:1"),
        ub.generate_random_space(8, 7, "sparse:1"),
    ], ids=["identical", "disjoint", "sparse1-n6", "sparse1-n8"])
    def test_pinned_union(self, space):
        rng = np.random.default_rng(space.n)
        info = ub.derive_partial_info(space)
        exact = ub.exact_union(space)
        weights = [ub.WeightVector.ones(space.n)]
        weights += [draw_positive_weights(rng, space.n) for _ in range(20)]
        for w in weights:
            for sense in ("lower", "upper"):
                sol = solve_lp(inclass_lp(info, w, sense))
                assert sol.optimal
                assert sol.value == pytest.approx(exact, abs=1e-10)


class TestInclassAgainstHighs:
    """HiGHS (scipy) as an independent LP solver, at feasibility tolerances
    of 1e-10: at its defaults it stops up to 2.3e-9 short at n = 12."""

    OPTIONS = {"primal_feasibility_tolerance": 1e-10,
               "dual_feasibility_tolerance": 1e-10}

    @pytest.mark.parametrize("n", range(6, 11))
    def test_matches_highs(self, n):
        linprog = pytest.importorskip("scipy.optimize").linprog
        rng = np.random.default_rng(600 + n)
        for model in ("dirichlet", f"sparse:{4 * n}"):
            sp = ub.generate_random_space(n, int(rng.integers(0, 2**31)), model)
            info = ub.derive_partial_info(sp)
            weights = (ub.WeightVector.ones(n), draw_positive_weights(rng, n),
                       draw_mixed_weights(rng, n, 0.05 * 2.0 ** min(0, 6 - n)))
            for w in weights:
                for sense in ("lower", "upper"):
                    p = inclass_lp(info, w, sense)
                    sign = 1.0 if sense == "lower" else -1.0
                    ref = linprog(sign * np.asarray(p.objective), A_eq=p.eq_matrix,
                                  b_eq=p.eq_rhs, bounds=(0, None), method="highs",
                                  options=self.OPTIONS)
                    assert ref.status == 0, ref.message
                    got = ub.optimal_inclass_bound(info, w, sense)
                    assert got == pytest.approx(sign * ref.fun, abs=1e-9)
