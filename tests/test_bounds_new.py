import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import unionbounds as ub
import unionbounds.bounds_new as bounds_new
import unionbounds.subset_opt as subset_opt
from unionbounds.bounds_new import feasible_x_window
from unionbounds.errors import ArgumentError, DegenerateWeights, InconsistentInfo, \
    InfeasibleX, InvalidWeights, NoFeasibleSubset
from unionbounds.subset_opt import Direction as D, SelectionQuery, SubsetTable, \
    select_exhaustive

from conftest import draw_mixed_weights, draw_positive_weights, per_event_lp, \
    random_space, two_atom_oracle


def disjoint_info(masses):
    sp = ub.EventSpace(n=len(masses),
                       atom_probs={1 << k: m for k, m in enumerate(masses)})
    return ub.derive_partial_info(sp)


def identical_info(n, qmass):
    return ub.derive_partial_info(
        ub.EventSpace(n=n, atom_probs={(1 << n) - 1: qmass}))


class TestEllI:
    def test_n2_hand_values(self, n2_info):
        ones = ub.WeightVector.ones(2)
        got = ub.ell_i(n2_info, ones, 0)
        assert got.b == pytest.approx(1.4, abs=1e-12)
        assert (got.b1, got.b2) == (1.0, 2.0)
        assert got.ell == pytest.approx(0.4, abs=1e-12)
        assert ub.ell_i(n2_info, ones, 1).ell == pytest.approx(0.3, abs=1e-12)

    def test_disjoint_contribution_is_marginal(self):
        info = disjoint_info([0.2, 0.3, 0.1])
        w = ub.WeightVector.from_components([0.4, 1.1, 0.6])
        for i in range(3):
            got = ub.ell_i(info, w, i)
            assert got.b == pytest.approx(1.0, abs=1e-12)
            assert got.ell == pytest.approx(info.alpha[i], abs=1e-12)

    def test_zero_probability_event(self):
        sp = ub.EventSpace(n=2, atom_probs={1: 0.5})
        info = ub.derive_partial_info(sp)
        got = ub.ell_i(info, ub.WeightVector.ones(2), 1)
        assert got.ell == 0.0
        assert got.selections is None

    def test_invalid_weights_rejected(self, n2_info):
        with pytest.raises(InvalidWeights):
            ub.ell_i(n2_info, ub.WeightVector.from_components([1.0, -1.0]), 0)

    def test_matches_pair_enumeration_mixed_signs(self):
        rng = np.random.default_rng(47)
        for trial in range(120):
            n = int(rng.integers(2, 8))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_mixed_weights(rng, n) if trial % 2 else \
                draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            got = ub.ell_i(info, w, i).ell
            assert got == pytest.approx(two_atom_oracle(info, w, i), abs=1e-9)

    def test_matches_lp_oracle(self, n2_info):
        sol = ub.solve_lp(per_event_lp(n2_info, ub.WeightVector.ones(2), 0))
        assert sol.optimal
        assert ub.ell_i(n2_info, ub.WeightVector.ones(2), 0).ell == \
            pytest.approx(sol.value, abs=1e-9)

    def test_invariant_objective_form(self):
        rng = np.random.default_rng(53)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            s = ub.ell_i(info, w, i)
            if s.selections is None:
                continue
            a = float(info.alpha[i])
            want = a * (1 / s.b1 + 1 / s.b2 - s.b / (s.b1 * s.b2))
            assert s.ell == pytest.approx(want, abs=1e-12)


class TestLnew3:
    def test_n2_exact(self, n2_info):
        assert ub.lnew3(n2_info, ub.WeightVector.ones(2)).value == \
            pytest.approx(0.7, abs=1e-12)

    def test_unit_weight_scale_invariance(self):
        rng = np.random.default_rng(59)
        for trial in range(25):
            n = int(rng.integers(2, 8))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            vals = [ub.lnew3(info, ub.WeightVector.from_components(
                np.full(n, kappa))).value for kappa in (0.5, 1.0, 2.0)]
            assert max(vals) - min(vals) <= 1e-12
            assert vals[1] == pytest.approx(ub.kat_bound(info).value, abs=1e-12)

    def test_general_scale_invariance(self):
        rng = np.random.default_rng(61)
        sp = random_space(rng, 5, 1)
        info = ub.derive_partial_info(sp)
        w = draw_positive_weights(rng, 5)
        base = ub.lnew3(info, w).value
        for kappa in (0.25, 4.0):
            scaled = ub.WeightVector.from_components(w.c * kappa)
            assert ub.lnew3(info, scaled).value == pytest.approx(base, abs=1e-9)

    def test_fptas_is_lower_and_converges(self):
        rng = np.random.default_rng(67)
        sp = random_space(rng, 7, 0)
        info = ub.derive_partial_info(sp)
        w = draw_positive_weights(rng, 7)
        exact = ub.lnew3(info, w).value
        prev_gap = math.inf
        for eps in (0.5, 0.1, 1e-3, 1e-6):
            approx = ub.lnew3(info, w, fptas_eps=eps).value
            assert approx <= exact + 1e-12
            gap = exact - approx
            assert gap <= prev_gap + 1e-12
            prev_gap = gap
        assert prev_gap <= 1e-6

    def test_dominates_cauchy_schwarz_chain(self):
        rng = np.random.default_rng(71)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            l3 = ub.lnew3(info, w).value
            pc = ub.cs_percomponent_bound(info, w).value
            assert l3 >= pc - 1e-9

    def test_dominated_by_inclass_optimum(self):
        # the LP sees exactly the same information, so no closed form
        # using it may exceed the LP value
        rng = np.random.default_rng(101)
        for trial in range(40):
            n = int(rng.integers(2, 7))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_mixed_weights(rng, n) if trial % 3 == 0 else \
                draw_positive_weights(rng, n)
            opt = ub.optimal_inclass_bound(info, w, "lower")
            assert ub.lnew3(info, w).value <= opt + 1e-9
            if w.all_positive:
                assert ub.lnew4(info, w).value <= opt + 1e-9


class TestDeltaTilde:
    def test_disjoint_clips_to_zero(self):
        info = disjoint_info([0.2, 0.3, 0.1])
        assert ub.delta_tilde(info, ub.WeightVector.ones(3)).value == 0.0

    def test_identical_recovers_overlap(self):
        info = identical_info(4, 0.3)
        d = ub.delta_tilde(info, ub.WeightVector.ones(4))
        assert d.value == pytest.approx(0.3, abs=1e-12)

    def test_n2_recovers_intersection(self, n2_info):
        d = ub.delta_tilde(n2_info, ub.WeightVector.ones(2))
        assert d.value == pytest.approx(0.2, abs=1e-12)
        assert d.upper_limit == pytest.approx(0.2, abs=1e-12)

    def test_never_exceeds_true_overlap(self):
        rng = np.random.default_rng(73)
        for trial in range(60):
            n = int(rng.integers(2, 8))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            d = ub.delta_tilde(info, w)
            true_overlap = sp.atom_probs.get((1 << n) - 1, 0.0)
            assert d.value <= true_overlap + 1e-9
            assert d.value <= d.upper_limit + 1e-9

    def test_inconsistent_window_detected(self):
        info = ub.PartialInfo(
            n=3,
            alpha=np.array([0.3, 0.3, 0.3]),
            pairwise=np.array([
                [0.3, 0.3, 0.3],
                [0.3, 0.3, 0.0],
                [0.3, 0.0, 0.3],
            ]),
        )
        with pytest.raises(InconsistentInfo):
            ub.delta_tilde(info, ub.WeightVector.ones(3))

    def test_requires_positive(self, n2_info):
        with pytest.raises(InvalidWeights):
            ub.delta_tilde(n2_info, ub.WeightVector.from_components([1.0, -0.5]))


class TestEllIPrime:
    def test_x_zero_matches_ell_i_when_full_set_unused(self):
        info = disjoint_info([0.2, 0.3, 0.1])
        w = ub.WeightVector.from_components([0.9, 1.2, 0.4])
        for i in range(3):
            assert ub.ell_i_prime(info, w, i, 0.0).ell == \
                pytest.approx(ub.ell_i(info, w, i).ell, abs=1e-12)

    def test_identical_events_zero_branch(self):
        info = identical_info(3, 0.25)
        got = ub.ell_i_prime(info, ub.WeightVector.ones(3), 1, 0.25)
        assert got.ell == 0.0

    def test_n2_hand_value(self, n2_info):
        ones = ub.WeightVector.ones(2)
        got = ub.ell_i_prime(n2_info, ones, 0, 0.2)
        assert got.b == pytest.approx(1.0, abs=1e-9)
        assert got.ell == pytest.approx(0.3, abs=1e-12)
        got = ub.ell_i_prime(n2_info, ones, 1, 0.2)
        assert got.ell == pytest.approx(0.2, abs=1e-12)

    def test_x_outside_window_raises(self, n2_info):
        ones = ub.WeightVector.ones(2)
        with pytest.raises(InfeasibleX):
            ub.ell_i_prime(n2_info, ones, 0, -0.05)
        with pytest.raises(InfeasibleX):
            ub.ell_i_prime(n2_info, ones, 0, 0.45)


class TestLnew4:
    def test_n2_exact(self, n2_info):
        got = ub.lnew4(n2_info, ub.WeightVector.ones(2))
        assert got.value == pytest.approx(0.7, abs=1e-12)
        assert got.notes["delta"] == pytest.approx(0.2, abs=1e-12)

    def test_unit_weight_scale_invariance_matches_yat2(self):
        rng = np.random.default_rng(79)
        for trial in range(20):
            n = int(rng.integers(2, 7))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            vals = [ub.lnew4(info, ub.WeightVector.from_components(
                np.full(n, kappa))).value for kappa in (0.5, 1.0, 3.0)]
            assert max(vals) - min(vals) <= 1e-12

    def test_dominates_lnew3(self):
        rng = np.random.default_rng(83)
        for trial in range(80):
            n = int(rng.integers(2, 9))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            l3 = ub.lnew3(info, w).value
            l4 = ub.lnew4(info, w).value
            assert l4 >= l3 - 1e-9
            assert l4 <= ub.exact_union(sp) + 1e-9

    def test_requires_positive(self, n2_info):
        with pytest.raises(InvalidWeights):
            ub.lnew4(n2_info, ub.WeightVector.from_components([1.0, -0.5]))

    def test_overlap_heavy_corner_stays_valid(self):
        # the aggregated window is loose for the unique cheapest weight;
        # the bound must evaluate at the exact window instead of failing
        eps = 0.05
        sp = ub.EventSpace(n=3, atom_probs={7: 0.3, 3: 0.3 * eps**2,
                                            5: 0.3 * eps**2, 1: 1e-6})
        info = ub.derive_partial_info(sp)
        w = ub.WeightVector.from_components([eps, 1.0, 1.0])
        lo, hi = feasible_x_window(info, w)
        d = ub.delta_tilde(info, w)
        assert d.value < lo  # the aggregated left endpoint is infeasible here
        with pytest.raises(InfeasibleX):
            ub.ell_i_prime(info, w, 0, d.value)
        got = ub.lnew4(info, w)
        exact = ub.exact_union(sp)
        assert got.value <= exact + 1e-9
        assert got.value >= ub.lnew3(info, w).value - 1e-9

    def test_monotone_in_x_on_window(self):
        rng = np.random.default_rng(89)
        for trial in range(25):
            n = int(rng.integers(2, 7))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            lo, hi = feasible_x_window(info, w)
            hi = max(hi, lo)
            xs = np.linspace(lo, hi, 20)
            vals = [x + math.fsum(ub.ell_i_prime(info, w, i, float(x)).ell
                                  for i in range(n)) for x in xs]
            for a, b in zip(vals, vals[1:]):
                assert b >= a - 1e-10


class TestUpperBounds:
    def test_unew4_n2_exact(self, n2_info):
        assert ub.unew4(n2_info, ub.WeightVector.ones(2)).value == \
            pytest.approx(0.7, abs=1e-12)

    def test_unew5_n2_exact(self, n2_info):
        assert ub.unew5(n2_info, ub.WeightVector.ones(2)).value == \
            pytest.approx(0.7, abs=1e-12)

    def test_disjoint_exact(self):
        info = disjoint_info([0.2, 0.3, 0.1])
        ones = ub.WeightVector.ones(3)
        assert ub.unew4(info, ones).value == pytest.approx(0.6, abs=1e-13)
        assert ub.unew5(info, ones).value == pytest.approx(0.6, abs=1e-13)

    def test_identical_exact(self):
        info = identical_info(5, 0.4)
        ones = ub.WeightVector.ones(5)
        assert ub.unew4(info, ones).value == pytest.approx(0.4, abs=1e-12)
        assert ub.unew5(info, ones).value == pytest.approx(0.4, abs=1e-12)

    def test_unew5_never_weaker(self):
        rng = np.random.default_rng(97)
        for trial in range(100):
            n = int(rng.integers(2, 9))
            sp = random_space(rng, n, trial)
            info = ub.derive_partial_info(sp)
            w = draw_positive_weights(rng, n)
            u4 = ub.unew4(info, w).value
            u5 = ub.unew5(info, w).value
            assert u5 <= u4 + 1e-12
            assert ub.exact_union(sp) <= u5 + 1e-9

    def test_unew5_needs_two_events(self):
        sp = ub.EventSpace(n=1, atom_probs={1: 0.4})
        info = ub.derive_partial_info(sp)
        with pytest.raises(DegenerateWeights):
            ub.unew5(info, ub.WeightVector.ones(1))

    def test_requires_positive(self, n2_info):
        w = ub.WeightVector.from_components([1.0, -0.5])
        with pytest.raises(InvalidWeights):
            ub.unew4(n2_info, w)
        with pytest.raises(InvalidWeights):
            ub.unew5(n2_info, w)


def exhaustive_bracket(w, i, b, exclude_full):
    """Bracket sums of the two-atom solution, chosen case by case with
    select_exhaustive.  Ratios are sums over c_i, so a negative c_i turns
    each ratio-space query into the opposite sum-space one."""
    ci = float(w.c[i])
    up = ci > 0

    def best(d, t=None):
        return select_exhaustive(SelectionQuery(
            n=w.n, i=i, c=w, direction=d, t=t, exclude_full_set=exclude_full)
        ).weight_sum

    lowest = best(D.MIN_ALL if up else D.MAX_ALL)
    highest = best(D.MAX_ALL if up else D.MIN_ALL)
    if lowest / ci < 0:
        neg = best(D.MAX_NEGATIVE) if up else best(D.MIN_ABOVE, 0.0)
        if b >= 0:
            return neg, highest
        return (neg, lowest) if b < neg / ci else (highest, neg)
    if b <= lowest / ci:
        return lowest, lowest
    if b >= highest / ci:
        return highest, highest
    return (best(D.MAX_BELOW if up else D.MIN_ABOVE, b * ci),
            best(D.MIN_ABOVE if up else D.MAX_BELOW, b * ci))


def assert_bracket_matches_exhaustive(sol, w, exclude_full):
    if sol.selections is None:
        return
    ci = float(w.c[sol.i])
    got = [sel.weight_sum for sel in sol.selections]
    try:
        want = exhaustive_bracket(w, sol.i, sol.b, exclude_full)
    except NoFeasibleSubset:
        want = (math.nan, math.nan)  # the threshold rounded past an extreme
    on_b = [abs(s / ci - sol.b) <= 1e-9 * max(1.0, abs(sol.b)) for s in got]
    for s, t in zip(got, want):
        # where one end sits on b the objective ignores the other end, so
        # rounding may pick either neighbour there
        assert s == pytest.approx(t, rel=1e-12, abs=1e-15) or any(on_b), \
            (sol, want)


MODELS = ["dirichlet", "sparse:1", "sparse:2", "sparse:3", "disjoint", "identical"]


def model_info(n, seed, model):
    if model == "disjoint":
        masses = np.random.default_rng(seed).dirichlet(np.ones(n + 1))[:n]
        return disjoint_info(list(masses))
    if model == "identical":
        return identical_info(n, 0.1 + 0.8 * (seed % 97) / 97)
    return ub.derive_partial_info(ub.generate_random_space(n, seed, model))


class TestTableSelection:
    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10**6),
           model=st.sampled_from(MODELS), mixed=st.booleans())
    def test_ell_i_bracket_and_oracle(self, n, seed, model, mixed):
        info = model_info(n, seed, model)
        rng = np.random.default_rng(seed)
        w = draw_mixed_weights(rng, n) if mixed else draw_positive_weights(rng, n)
        for i in range(n):
            sol = ub.ell_i(info, w, i)
            assert_bracket_matches_exhaustive(sol, w, exclude_full=False)
            assert sol.ell == pytest.approx(two_atom_oracle(info, w, i), abs=1e-9)

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(2, 8), seed=st.integers(0, 10**6),
           model=st.sampled_from(MODELS), where=st.floats(0.0, 1.0))
    def test_ell_i_prime_bracket(self, n, seed, model, where):
        info = model_info(n, seed, model)
        w = draw_positive_weights(np.random.default_rng(seed), n)
        lo, hi = feasible_x_window(info, w)
        x = lo + where * max(hi - lo, 0.0)
        for i in range(n):
            assert_bracket_matches_exhaustive(ub.ell_i_prime(info, w, i, x), w,
                                              exclude_full=True)

    @pytest.mark.parametrize("model", ["disjoint", "identical", "sparse:1",
                                       "sparse:2"])
    def test_ratio_on_subset_ratio(self, model):
        # the event ratio equals an achievable ratio: b = 1 for disjoint
        # events, the full set's ratio for identical ones, and some subset
        # ratio for every event of a one- or two-atom space
        rng = np.random.default_rng(41)
        for trial in range(30):
            n = int(rng.integers(2, 9))
            info = model_info(n, int(rng.integers(0, 10**6)), model)
            w = draw_mixed_weights(rng, n) if trial % 2 else \
                draw_positive_weights(rng, n)
            for i in range(n):
                sol = ub.ell_i(info, w, i)
                assert_bracket_matches_exhaustive(sol, w, exclude_full=False)
                assert sol.ell == pytest.approx(two_atom_oracle(info, w, i), abs=1e-9)
            if w.all_positive:
                for i in range(n):
                    sol = ub.ell_i_prime(info, w, i, feasible_x_window(info, w)[0])
                    assert_bracket_matches_exhaustive(sol, w, exclude_full=True)

    def test_unit_weights_keep_smallest_mask(self):
        # events 0 and 3 have degree-2 and degree-3 atoms of equal mass, so
        # b = 2.5; several subsets containing each sum to 2 and to 3
        info = ub.derive_partial_info(
            ub.EventSpace(n=4, atom_probs={0b1100: 0.15, 0b0011: 0.15,
                                           0b1101: 0.15}))
        ones = ub.WeightVector.ones(4)
        sol = ub.ell_i(info, ones, 0)
        assert sol.b == pytest.approx(2.5, abs=1e-12)
        assert [sel.mask for sel in sol.selections] == [0b0011, 0b0111]
        sol = ub.ell_i(info, ones, 3)
        assert sol.b == pytest.approx(2.5, abs=1e-12)
        assert [sel.mask for sel in sol.selections] == [0b1001, 0b1011]
        sol = ub.ell_i_prime(info, ones, 3, 0.0)
        assert [sel.mask for sel in sol.selections] == [0b1001, 0b1011]


class TestWorkCounts:
    def test_one_table_per_call_and_no_dp(self, monkeypatch):
        builds, dp_calls = [], []
        build = SubsetTable.of.__func__

        def counting_build(cls, c):
            builds.append(c.size)
            return build(cls, c)

        def counting_dp(*args, **kwargs):
            dp_calls.append(args)
            raise AssertionError("the knapsack DP ran on the bound path")

        monkeypatch.setattr(SubsetTable, "of", classmethod(counting_build))
        monkeypatch.setattr(subset_opt, "_dp_reach", counting_dp)
        monkeypatch.setattr(subset_opt, "select_dp", counting_dp)
        monkeypatch.setattr(bounds_new, "select_dp", counting_dp)
        rng = np.random.default_rng(43)
        info = ub.derive_partial_info(ub.generate_random_space(7, 5, "dirichlet"))
        w = draw_positive_weights(rng, 7)
        ub.lnew3(info, w)
        assert builds == [7]
        ub.lnew4(info, w)
        assert builds == [7, 7]
        ub.lnew3(info, w, fptas_eps=0.01)
        ub.lnew4(info, w, fptas_eps=0.01)
        assert builds == [7, 7]
        assert dp_calls == []


def independent_info(n, seed):
    a = np.random.default_rng(seed).uniform(0.01, 0.2, n)
    pairwise = np.outer(a, a)
    np.fill_diagonal(pairwise, a)
    return ub.PartialInfo(n=n, alpha=a, pairwise=pairwise), 1.0 - np.prod(1.0 - a)


class TestBeyondTheAtomCap:
    def test_fptas_runs_at_n30(self):
        info, union = independent_info(30, 7)
        ones = ub.WeightVector.ones(30)
        l3 = ub.lnew3(info, ones, fptas_eps=0.01).value
        l4 = ub.lnew4(info, ones, fptas_eps=0.01).value
        assert 0.0 < l3 <= union + 1e-9
        assert l3 - 1e-9 <= l4 <= union + 1e-9

    def test_exact_mode_keeps_the_cap(self):
        info, _ = independent_info(30, 7)
        ones = ub.WeightVector.ones(30)
        with pytest.raises(ArgumentError):
            ub.lnew3(info, ones)
        with pytest.raises(ArgumentError):
            ub.lnew4(info, ones)
