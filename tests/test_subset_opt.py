import numpy as np
import pytest

import unionbounds as ub
from unionbounds.errors import ArgumentError, NoFeasibleSubset, ResolutionTooCoarse
from unionbounds.space import max_atom_n
from unionbounds.subset_opt import Direction, SelectionQuery, SubsetTable, \
    select_dp, select_exhaustive, select_fptas

from conftest import draw_mixed_weights, draw_positive_weights


def q(c, i, direction, t=None, exclude_full=False):
    w = ub.WeightVector.from_components(c)
    return SelectionQuery(n=len(c), i=i, c=w, direction=direction, t=t,
                          exclude_full_set=exclude_full)


class TestExhaustive:
    def test_max_below(self):
        sel = select_exhaustive(q([1.0, 1.0], 0, Direction.MAX_BELOW, t=1.4))
        assert (sel.mask, sel.weight_sum) == (0b01, 1.0)

    def test_min_above(self):
        sel = select_exhaustive(q([1.0, 1.0], 0, Direction.MIN_ABOVE, t=1.4))
        assert (sel.mask, sel.weight_sum) == (0b11, 2.0)

    def test_max_negative(self):
        # subsets with index 0: {0}:1, {0,1}:-1, {0,2}:2, {0,1,2}:0
        sel = select_exhaustive(q([1.0, -2.0, 1.0], 0, Direction.MAX_NEGATIVE))
        assert (sel.mask, sel.weight_sum) == (0b011, -1.0)

    def test_extremes(self):
        sel = select_exhaustive(q([1.0, -2.0, 1.0], 0, Direction.MIN_ALL))
        assert sel.weight_sum == -1.0
        sel = select_exhaustive(q([1.0, -2.0, 1.0], 0, Direction.MAX_ALL))
        assert sel.weight_sum == 2.0

    def test_exclude_full_set(self):
        sel = select_exhaustive(q([1.0, 1.0, 1.0], 0, Direction.MAX_ALL,
                                  exclude_full=True))
        assert sel.weight_sum == 2.0
        assert sel.mask != 0b111

    def test_tie_breaks_to_smallest_mask(self):
        # {0,1} and {0,2} both sum to 2
        sel = select_exhaustive(q([1.0, 1.0, 1.0], 0, Direction.MIN_ABOVE, t=2.0))
        assert sel.mask == 0b011

    def test_infeasible(self):
        with pytest.raises(NoFeasibleSubset):
            select_exhaustive(q([1.0, 1.0], 0, Direction.MAX_BELOW, t=0.5))

    def test_strict_negative_constraint(self):
        with pytest.raises(NoFeasibleSubset):
            select_exhaustive(q([1.0, 1.0], 0, Direction.MAX_NEGATIVE))


class TestSubsetTable:
    def test_sorted_by_sum_then_mask(self):
        table = SubsetTable.of(np.array([1.0, 1.0, 2.0]))
        assert list(table.sums) == [0.0, 1.0, 1.0, 2.0, 2.0, 3.0, 3.0, 4.0]
        assert list(table.masks) == [0, 1, 2, 3, 4, 5, 6, 7]

    def test_containing_keeps_mandatory_index(self):
        table = SubsetTable.of(np.array([1.0, 1.0, 2.0])).containing(1, True)
        assert list(table.masks) == [0b010, 0b011, 0b110]

    def test_infeasible_is_none(self):
        table = SubsetTable.of(np.array([1.0, 1.0])).containing(0)
        assert table.select(Direction.MAX_BELOW, 0.5) is None
        assert table.select(Direction.MIN_ABOVE, 2.5) is None
        assert table.select(Direction.MAX_NEGATIVE) is None

    def test_n_cap(self):
        with pytest.raises(ArgumentError):
            SubsetTable.of(np.ones(max_atom_n() + 1))

    @pytest.mark.parametrize("mixed", [False, True])
    def test_matches_exhaustive_every_direction(self, mixed):
        rng = np.random.default_rng(21 + mixed)
        for trial in range(150):
            n = int(rng.integers(2, 9))
            w = draw_mixed_weights(rng, n) if mixed else draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            exclude_full = trial % 3 == 0
            entries = SubsetTable.of(w.c).containing(i, exclude_full)
            sums = entries.sums
            t = float(rng.uniform(sums[0] - 0.1, sums[-1] + 0.1))
            if trial % 4 == 0:  # a threshold on a subset sum
                t = float(sums[int(rng.integers(0, sums.size))])
            for d in Direction:
                query = SelectionQuery(n=n, i=i, c=w, direction=d, t=t,
                                       exclude_full_set=exclude_full)
                got = entries.select(d, t)
                try:
                    want = select_exhaustive(query)
                except NoFeasibleSubset:
                    assert got is None
                    continue
                assert (got.mask, got.weight_sum) == (want.mask, want.weight_sum)


class TestDp:
    def test_integer_weights(self):
        sel = select_dp(q([3.0, 1.0, 4.0, 2.0], 0, Direction.MAX_BELOW, t=7.0), 1e-6)
        assert sel.weight_sum == pytest.approx(7.0, abs=1e-9)
        assert sel.mask == 0b0101  # indices {0, 2}

    def test_threshold_above_total(self):
        sel = select_dp(q([1.0, 2.0], 0, Direction.MAX_BELOW, t=10.0), 1e-6)
        assert sel.mask == 0b11
        sel = select_dp(q([1.0, 2.0], 0, Direction.MAX_BELOW, t=10.0,
                          exclude_full=True), 1e-6)
        assert sel.mask == 0b01

    def test_min_above_complement(self):
        sel = select_dp(q([1.0, 1.0], 0, Direction.MIN_ABOVE, t=1.4), 1e-6)
        assert (sel.mask, sel.weight_sum) == (0b11, 2.0)

    def test_requires_positive_weights(self):
        with pytest.raises(ArgumentError):
            select_dp(q([1.0, -1.0, 0.5], 0, Direction.MAX_BELOW, t=1.0), 1e-6)

    def test_requires_threshold_direction(self):
        with pytest.raises(ArgumentError):
            select_dp(q([1.0, 1.0], 0, Direction.MAX_ALL), 1e-6)

    def test_resolution_too_coarse(self):
        # quantized at 1.0 both weights become 1; {0,1} looks <= 2.5 but
        # its true sum 2.8 is not
        with pytest.raises(ResolutionTooCoarse):
            select_dp(q([1.4, 1.4], 0, Direction.MAX_BELOW, t=2.5), 1.0)

    def test_matches_exhaustive_randomized(self):
        rng = np.random.default_rng(20)
        for trial in range(300):
            n = int(rng.integers(2, 13))
            w = draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            t = float(rng.uniform(0, float(np.sum(w.c)) * 1.05))
            d = Direction.MAX_BELOW if trial % 2 else Direction.MIN_ABOVE
            query = SelectionQuery(n=n, i=i, c=w, direction=d, t=t,
                                   exclude_full_set=trial % 7 == 0)
            try:
                want = select_exhaustive(query)
            except NoFeasibleSubset:
                with pytest.raises(NoFeasibleSubset):
                    select_dp(query, 1e-9)
                continue
            got = select_dp(query, 1e-9)
            assert got.weight_sum == pytest.approx(want.weight_sum, abs=1e-6)

    def test_scale_invariance_of_value_ratio(self):
        rng = np.random.default_rng(8)
        base = draw_positive_weights(rng, 6)
        t = 1.7
        a = select_dp(SelectionQuery(n=6, i=2, c=base, direction=Direction.MAX_BELOW,
                                     t=t), 1e-9)
        scaled = ub.WeightVector.from_components(base.c * 3.0)
        b = select_dp(SelectionQuery(n=6, i=2, c=scaled,
                                     direction=Direction.MAX_BELOW, t=3.0 * t), 1e-9)
        assert b.weight_sum == pytest.approx(3.0 * a.weight_sum, rel=1e-9)


class TestFptas:
    @pytest.mark.parametrize("eps", [0.5, 0.1, 1e-2])
    def test_factor_guarantee(self, eps):
        rng = np.random.default_rng(13)
        for trial in range(120):
            n = int(rng.integers(2, 10))
            w = draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            t = float(rng.uniform(0, float(np.sum(w.c)) * 1.05))
            d = Direction.MAX_BELOW if trial % 2 else Direction.MIN_ABOVE
            query = SelectionQuery(n=n, i=i, c=w, direction=d, t=t,
                                   exclude_full_set=trial % 5 == 0)
            try:
                want = select_exhaustive(query)
            except NoFeasibleSubset:
                with pytest.raises(NoFeasibleSubset):
                    select_fptas(query, eps)
                continue
            got = select_fptas(query, eps)
            assert not got.exact
            if d is Direction.MAX_BELOW:
                assert got.weight_sum <= t
                assert got.weight_sum >= (1 - eps) * want.weight_sum - 1e-12
                assert got.weight_sum <= want.weight_sum + 1e-12
            else:
                assert got.weight_sum >= t
                assert got.weight_sum <= (1 + eps) * want.weight_sum + 1e-12
                assert got.weight_sum >= want.weight_sum - 1e-12

    def test_tiny_epsilon_is_exact(self):
        rng = np.random.default_rng(31)
        w = draw_positive_weights(rng, 10)
        query = SelectionQuery(n=10, i=3, c=w, direction=Direction.MAX_BELOW,
                               t=float(np.sum(w.c)) * 0.6)
        want = select_exhaustive(query)
        got = select_fptas(query, 1e-6)
        assert got.weight_sum == pytest.approx(want.weight_sum, abs=1e-9)

    def test_single_candidate_exact(self):
        # only {0} is feasible below t
        got = select_fptas(q([1.0, 5.0, 5.0], 0, Direction.MAX_BELOW, t=2.0), 0.9)
        assert (got.mask, got.weight_sum) == (0b001, 1.0)

    @pytest.mark.parametrize("d", [Direction.MAX_BELOW, Direction.MIN_ABOVE])
    def test_exclude_full_set_guarantee(self, d):
        # excluding the full set takes one trim run, not one per index;
        # thresholds above the full set's sum exercise the closed form
        rng = np.random.default_rng(37)
        feasible = 0
        for trial in range(240):
            n = int(rng.integers(2, 15))
            w = draw_positive_weights(rng, n)
            i = int(rng.integers(0, n))
            t = float(rng.uniform(0, float(np.sum(w.c)) * 1.1))
            query = SelectionQuery(n=n, i=i, c=w, direction=d, t=t,
                                   exclude_full_set=True)
            for eps in (0.1, 0.01, 1e-4):
                try:
                    want = select_exhaustive(query)
                except NoFeasibleSubset:
                    with pytest.raises(NoFeasibleSubset):
                        select_fptas(query, eps)
                    continue
                feasible += 1
                got = select_fptas(query, eps)
                assert got.mask != (1 << n) - 1 and got.mask >> i & 1
                if d is Direction.MAX_BELOW:
                    assert want.weight_sum * (1 - eps) - 1e-12 <= got.weight_sum
                    assert got.weight_sum <= min(t, want.weight_sum + 1e-12)
                else:
                    assert max(t, want.weight_sum - 1e-12) <= got.weight_sum
                    assert got.weight_sum <= want.weight_sum * (1 + eps) + 1e-12
        assert feasible >= 300

    def test_no_n_cap(self):
        n = max_atom_n() + 6
        w = ub.WeightVector.ones(n)
        got = select_fptas(SelectionQuery(n=n, i=0, c=w, direction=Direction.MIN_ABOVE,
                                          t=2.5, exclude_full_set=True), 0.01)
        assert got.weight_sum == 3.0

    def test_epsilon_range(self):
        with pytest.raises(ArgumentError):
            select_fptas(q([1.0, 1.0], 0, Direction.MAX_BELOW, t=1.0), 1.5)
