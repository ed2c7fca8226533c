import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import stochflow.finite_oracle as fo
from stochflow.dyadic import dyadic
from stochflow.errors import (
    ConfigError,
    EnumerationLimitError,
    MeasurabilityError,
    UnsupportedCaseError,
)
from stochflow.esm import PullbackSchedule, esm_mean, pullback_measure, pullback_point
from stochflow.flow_core import evolve_ensemble
from stochflow.keyed import chain
from stochflow.measure import EmpiricalMeasure
from stochflow.wiener import NoiseRealization, RealizationStream
from support import ConstantFamily, evolve, ff_select_trajectory, per_word_scenario

F = Fraction
HALF = F(1, 2)
# a shift of the time index by a step or two changes which bank acts
PERIOD_THREE = fo.FiniteFlow(3, (F(1, 3), F(2, 3)), (((0, 0, 1), (1, 2, 2)),
                                                     ((2, 0, 1), (0, 1, 1)),
                                                     ((1, 1, 0), (2, 0, 2))), period=3)
# a time-periodic family that the flow does not keep: nonzero residuals and gaps
DRIFTING = fo.EsmSolution(True, (fo.ExactMeasure.uniform(3), fo.ExactMeasure.point(3, 0),
                                 fo.ExactMeasure((HALF, HALF, F(0)))), (), "not stationary")


@pytest.fixture
def pushed(monkeypatch):
    """The maps passed to ``ExactMeasure.pushforward`` from here on, in call order."""
    push, maps = fo.ExactMeasure.pushforward, []
    monkeypatch.setattr(fo.ExactMeasure, "pushforward",
                        lambda mu, comp: maps.append(comp) or push(mu, comp))
    return maps


class TestConstruction:
    def test_probabilities_must_sum_to_one(self):
        with pytest.raises(ConfigError):
            fo.FiniteFlow(2, (HALF, F(1, 3)), (((0, 1), (1, 0)),))

    def test_maps_must_be_total(self):
        for image in (5, 2, -1):  # 2: one past the last state
            with pytest.raises(ConfigError, match="total on the state set"):
                fo.FiniteFlow(2, (HALF, HALF), (((0, image), (1, 0)),))

    def test_exact_measure_validation(self):
        with pytest.raises(ConfigError):
            fo.ExactMeasure((HALF, HALF, HALF))
        mu = fo.ExactMeasure.uniform(4)
        assert sum(mu.masses) == 1

    def test_integral_is_exact_for_fraction_and_int_values(self):
        mu = fo.ExactMeasure((F(1, 3), F(2, 3)))
        assert mu.integral((F(1, 7), F(3, 5))) == F(1, 21) + F(2, 5)
        value = mu.integral((3, -1))  # Fraction times int stays exact
        assert type(value) is Fraction and value == F(1, 3)
        assert fo.ExactMeasure.point(3, 2).integral(iter((F(9), F(8), F(7)))) == 7

    def test_period_below_one_is_refused(self):
        for period in (0, -1):
            with pytest.raises(ConfigError, match=f"period {period} "):
                fo.FiniteFlow(2, (1,), (), period=period)

    def test_operands_on_other_state_counts_are_refused(self):
        mu = fo.ExactMeasure((F(1), F(0)))
        for other in (fo.ExactMeasure((F(1), F(0), F(0))), fo.ExactMeasure((F(1),))):
            n = len(other.masses)
            with pytest.raises(ConfigError, match=f"{n} values for 2 states"):
                mu.tv_distance(other)
            with pytest.raises(ConfigError, match=f"2 values for {n} states"):
                other.tv_distance(mu)
        for f in ((F(1),), (F(1), F(2), F(3)), iter((F(1),))):
            with pytest.raises(ConfigError, match="values for 2 states"):
                mu.integral(f)


class TestEvolve:
    def test_empty_word_is_identity(self):
        flow = fo.two_state_noisy()
        assert fo.compose_word_map(flow, (), 3, 3)[1] == 1

    def test_identity_maps(self):
        flow = fo.identity_finite_flow(3)
        assert fo.compose_word_map(flow, (0, 0, 0), 0, 3)[2] == 2

    def test_synchronizing_constant_maps(self):
        flow = fo.synchronizing_pair()
        # symbol 0 sends everything to 0, symbol 1 to 1
        for start in (0, 1):
            assert fo.compose_word_map(flow, (0,), 0, 1)[start] == 0
            assert fo.compose_word_map(flow, (1,), 0, 1)[start] == 1

    def test_word_too_short(self):
        with pytest.raises(ConfigError):
            fo.compose_word_map(fo.two_state_noisy(), (0,), 0, 2)[0]

    def test_word_map_reads_the_span_and_refuses_a_short_word(self):
        flow = fo.two_state_noisy()  # symbol 0 holds, 1 swaps
        assert fo.compose_word_map(flow, (1, 0, 1), 0, 2) == (1, 0)
        assert fo.compose_word_map(flow, (1, 0, 1), 5, 8) == (0, 1)
        assert fo.compose_word_map(flow, (), 4, 4) == (0, 1)
        with pytest.raises(ConfigError, match="covering"):
            fo.compose_word_map(flow, (1,), 0, 2)
        with pytest.raises(ConfigError, match="s <= t"):
            fo.compose_word_map(flow, (1, 1), 2, 1)


def _words(flow, depth):
    return itertools.product(range(flow.n_symbols), repeat=depth)


def _pushed(flow, family, word, t):
    """The family at t - len(word) pushed through the word's map to t."""
    return family.at(t - len(word)).pushforward(fo.compose_word_map(flow, word, t - len(word), t))


def _pullback_by_words(flow, t, depth, family):
    """``ff_pullback``'s map measures and gap, word by word: each map's words
    summed, and the gap over every word and its suffix one symbol shorter."""
    measures, gap = {}, F(0)
    for word in _words(flow, depth):
        comp, mu = fo.compose_word_map(flow, word, t - depth, t), _pushed(flow, family, word, t)
        measures[comp] = (measures.get(comp, (F(0),))[0] + fo._word_prob(flow, word), mu)
        gap = max(gap, mu.tv_distance(_pushed(flow, family, word[1:], t)))
    return measures, gap


def _martingale_by_words(flow, t, f, depth, family):
    """``ff_martingale_check``'s residual, cylinder by cylinder: the largest gap
    between the integral of f against a suffix word's measure and its average
    over one more symbol of history."""
    def value(word):
        return _pushed(flow, family, word, t).integral(f)
    return max(abs(sum(p * value((a,) + w) for a, p in enumerate(flow.probs)) - value(w))
               for d in range(depth) for w in _words(flow, d))


class TestMapLaw:
    FLOWS = (fo.period_two_alternating(),
             fo.FiniteFlow(3, (F(1, 5), F(0), F(4, 5)), (((1, 2, 0), (0, 0, 2), (2, 2, 1)),)),
             PERIOD_THREE)

    @pytest.mark.parametrize("flow", FLOWS)
    def test_each_map_weighs_the_words_that_compose_to_it(self, flow):
        t, depth, n = 3, 4, flow.n_symbols
        laws = list(fo.map_law(flow, t, depth))
        assert len(laws) == depth + 1
        for d, law in enumerate(laws):
            # every word of d symbols, a word of probability 0 included
            want = {}
            for word in itertools.product(range(n), repeat=d):
                comp = fo.compose_word_map(flow, word, t - d, t)
                want[comp] = want.get(comp, F(0)) + fo._word_prob(flow, word)
            assert law == want

    def test_each_depth_is_a_law(self):
        for flow in self.FLOWS + (fo.two_state_noisy(),):
            laws = list(fo.map_law(flow, 0, 4))
            assert len(laws) == 5
            assert all(sum(law.values()) == 1 for law in laws)

    def test_limit_is_checked_before_any_map(self, monkeypatch):
        flow = fo.two_state_noisy()
        assert len(list(fo.map_law(flow, 0, 16))) == 17  # 2**16 words: at the limit
        # one symbol: one map at every depth, so no depth exceeds the limit
        assert [len(law) for law in fo.map_law(fo.identity_finite_flow(2), 0, 40)] == [1] * 41
        monkeypatch.setattr(fo, "_after_step", lambda *a: pytest.fail("a map was built"))
        for depth in (17, 10**18):  # the power is never formed in full
            with pytest.raises(EnumerationLimitError):
                next(fo.map_law(flow, 0, depth))
            with pytest.raises(EnumerationLimitError):
                fo.ff_pullback(flow, 0, depth)
            with pytest.raises(EnumerationLimitError):
                fo.ff_martingale_check(flow, 0, (F(0), F(1)), depth)
        with pytest.raises(ConfigError):
            next(fo.map_law(flow, 0, -1))

    def test_depth_zero_is_the_identity_alone(self):
        for flow in self.FLOWS:
            assert list(fo.map_law(flow, 0, 0)) == [{tuple(range(flow.n_states)): 1}]


class TestKernels:
    def test_hold_swap_kernel(self):
        k = fo.one_step_kernel(fo.two_state_noisy(), 0)
        assert k == ((HALF, HALF), (HALF, HALF))

    def test_deterministic_alphabet_permutation(self):
        flow = fo.identity_finite_flow(3)
        k = fo.kernel_between(flow, 0, 5)
        assert k == tuple(tuple(F(int(i == j)) for j in range(3)) for i in range(3))

    def test_chapman_exact(self):
        for flow in (fo.two_state_noisy(), fo.period_two_alternating(),
                     fo.cyclic_doubly_stochastic(4)):
            assert fo.chapman_check(flow, -3, 1, 5)

    def test_pushforward_words_and_mean(self):
        flow = fo.two_state_noisy()
        mu = fo.ExactMeasure((F(1, 3), F(2, 3)))
        # total mass of the word average equals the kernel transport, exactly
        mean = [fo.ZERO, fo.ZERO]
        for word in itertools.product(range(2), repeat=2):
            nu = mu.pushforward(fo.compose_word_map(flow, word, 0, 2))
            p = HALF * HALF
            for x in range(2):
                mean[x] += p * nu.masses[x]
        assert fo.ExactMeasure(tuple(mean)) == fo.apply_kernel(mu, fo.kernel_between(flow, 0, 2))

    def test_kernel_rows_need_one_weight_each(self):
        three = fo.one_step_kernel(fo.cyclic_doubly_stochastic(3), 0)
        two = fo.one_step_kernel(fo.two_state_noisy(), 0)
        with pytest.raises(ConfigError, match="2 weights for 3 rows"):
            fo.apply_kernel(fo.ExactMeasure.uniform(2), three)
        with pytest.raises(ConfigError, match="3 weights for 2 rows"):
            fo.kernel_product(three, two)

    def test_ragged_rows_are_refused_not_truncated(self):
        identity = ((F(1), F(0)), (F(0), F(1)))
        with pytest.raises(ConfigError, match="rows of unequal lengths 2, 3"):
            fo.kernel_product(identity, ((1, 0, 0), (0, 1)))
        with pytest.raises(ConfigError, match="rows of unequal lengths 1, 2"):
            fo.apply_kernel(fo.ExactMeasure.uniform(2), ((F(1),), (F(0), F(1))))

    def test_depth_limit(self):
        with pytest.raises(EnumerationLimitError):
            fo.ff_pullback(fo.two_state_noisy(), 0, 40)


class TestEsmSolve:
    def test_doubly_stochastic_gives_uniform(self):
        sol = fo.ff_esm_solve(fo.cyclic_doubly_stochastic(3))
        assert sol.unique
        assert sol.family[0] == fo.ExactMeasure.uniform(3)

    def test_period_two_family_propagates_exactly(self):
        flow = fo.period_two_alternating()
        sol = fo.ff_esm_solve(flow)
        assert sol.unique and len(sol.family) == 2
        assert fo.apply_kernel(sol.family[0], fo.one_step_kernel(flow, 0)) == sol.family[1]
        assert fo.apply_kernel(sol.family[1], fo.one_step_kernel(flow, 1)) == sol.family[0]
        # stationarity of the period map, exact
        period_map = fo.kernel_between(flow, 0, 2)
        assert fo.apply_kernel(sol.family[0], period_map) == sol.family[0]

    def test_identity_reports_full_simplex(self):
        sol = fo.ff_esm_solve(fo.identity_finite_flow(3))
        assert not sol.unique
        assert len(sol.extremes) == 3
        points = {tuple(e.masses) for e in sol.extremes}
        for x in range(3):
            assert tuple(F(int(i == x)) for i in range(3)) in points
        with pytest.raises(UnsupportedCaseError):
            sol.at(0)


class TestConditionalExpectation:
    def test_independent_scenario_residual_zero(self):
        flow = fo.two_state_noisy()
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
        rep = fo.conditional_expectation_check(probs, part, meas, ftab)
        assert rep.independence_ok
        assert rep.max_residual == 0

    def test_three_state_two_symbol_random_integrand(self):
        flow = fo.FiniteFlow(
            3, (F(1, 3), F(2, 3)),
            (((1, 2, 0), (0, 0, 2)),),
        )
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2, f_seed=9)
        rep = fo.conditional_expectation_check(probs, part, meas, ftab)
        assert rep.independence_ok and rep.max_residual == 0

    def test_indicator_integrand_equals_indicator_times_mass(self):
        # f(w, x) = 1_block(w) 1_A(x): conditional average on the block is the
        # averaged mass of A, and zero on other blocks
        flow = fo.two_state_noisy()
        probs, part, meas, _ = fo.independence_scenario_from_flow(flow, 4, 2)
        target_block = 1
        a_set = (0,)
        n_pts = len(meas[0].masses)
        ftab = []
        n_out = len(probs)
        block_of = {}
        for b, blk in enumerate(part):
            for w in blk:
                block_of[w] = b
        for w in range(n_out):
            ind = F(int(block_of[w] == target_block))
            ftab.append(tuple(ind * F(int(x in a_set)) for x in range(n_pts)))
        rep = fo.conditional_expectation_check(probs, part, meas, tuple(ftab))
        assert rep.independence_ok and rep.max_residual == 0
        rho_a = sum(probs[w] * meas[w].masses[0] for w in range(n_out))
        lhs_on_block = sum(
            probs[w] * meas[w].masses[0] for w in part[target_block]
        ) / sum(probs[w] for w in part[target_block])
        assert lhs_on_block == rho_a

    def test_trivial_partition_reduces_to_plain_average(self):
        flow = fo.two_state_noisy()
        probs, _, meas, _ = fo.independence_scenario_from_flow(flow, 4, 2)
        trivial = (tuple(range(len(probs))),)
        const_f = (tuple(F(1, 3) for _ in meas[0].masses),) * len(probs)
        rep = fo.conditional_expectation_check(probs, trivial, meas, const_f)
        assert rep.independence_ok and rep.max_residual == 0

    def test_dependence_reported_with_block(self):
        flow = fo.two_state_noisy()
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
        # sabotage: make the measure depend on the first symbol
        meas = list(meas)
        meas[0] = fo.ExactMeasure.point(len(meas[0].masses), 0)
        rep = fo.conditional_expectation_check(probs, part, tuple(meas), ftab)
        assert not rep.independence_ok
        assert rep.failing_block is not None

    def test_dependence_is_reported_before_any_integrand_is_read(self):
        # every block's mean-independence is checked before any block's
        # integrand, so a dependent block is reported, not a MeasurabilityError
        flow = fo.two_state_noisy()  # bijections: every measure is uniform
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)

        def non_measurable_on(b):
            bad = [list(row) for row in ftab]
            bad[part[b][0]][0] += 1
            return tuple(map(tuple, bad))

        for b in (0, 1):
            with pytest.raises(MeasurabilityError) as err:
                fo.conditional_expectation_check(probs, part, meas, non_measurable_on(b))
            assert err.value.block == b
        # block 0 made dependent, block 1's integrand not measurable
        dependent = list(meas)
        dependent[part[0][0]] = fo.ExactMeasure.point(2, 0)
        rep = fo.conditional_expectation_check(probs, part, tuple(dependent),
                                               non_measurable_on(1))
        assert not rep.independence_ok and rep.failing_block == 0
        assert rep.max_residual == 0 and rep.block_residuals == ()
        # blocks 1 and 2 moved apart, so the averaged measure and block 0's
        # conditional mean stay uniform; block 0's integrand is not measurable
        dependent = list(meas)
        dependent[part[1][0]] = fo.ExactMeasure.point(2, 0)
        dependent[part[2][0]] = fo.ExactMeasure.point(2, 1)
        rep = fo.conditional_expectation_check(probs, part, tuple(dependent),
                                               non_measurable_on(0))
        assert not rep.independence_ok and rep.failing_block == 1

    def test_outcome_probabilities_must_be_a_law(self):
        meas = (fo.ExactMeasure.point(2, 0), fo.ExactMeasure.point(2, 1))
        f_table = ((F(1), F(2)),) * 2
        for probs in ((F(1, 2), F(1, 3)), (F(3, 2), F(-1, 2))):
            with pytest.raises(ConfigError, match="nonnegative and sum to 1"):
                fo.conditional_expectation_check(probs, ((0,), (1,)), meas, f_table)

    def test_scenario_blocks_run_through_suffix_maps(self):
        flow = fo.period_two_alternating()
        depth, split = 5, 2
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, depth, split)
        *_, law = fo.map_law(flow, depth, depth - split)  # the maps phi(5, 2)
        prefixes = list(itertools.product(range(2), repeat=split))
        size = len(law)
        assert 1 < size < 2 ** (depth - split)  # fewer maps than suffix words
        assert probs == [fo._word_prob(flow, w) * q for w in prefixes for q in law.values()]
        assert part == tuple(tuple(range(i * size, (i + 1) * size)) for i in range(len(prefixes)))
        assert meas == tuple(fo.ExactMeasure.uniform(3).pushforward(c) for c in law) * len(prefixes)
        assert ftab == tuple(tuple(F(1 + (chain(5, *w, x) % 7), 8) for x in range(3))
                             for w in prefixes for _ in law)

    @pytest.mark.parametrize("flow", [fo.two_state_noisy(), fo.period_two_alternating(),
                                      fo.synchronizing_pair()], ids=["noisy", "period2", "sync"])
    def test_scenario_matches_per_word_report(self, flow, monkeypatch):
        # the reference has one outcome per word and composes each suffix on
        # its own; the scenario composes no word at all
        monkeypatch.setattr(fo, "compose_word_map", lambda *a: pytest.fail("a word was composed"))
        for depth in range(3, 9):
            for split in range(1, depth):
                want = fo.conditional_expectation_check(*per_word_scenario(flow, depth, split))
                got = fo.independence_scenario_from_flow(flow, depth, split)
                assert fo.conditional_expectation_check(*got) == want
                assert want.independence_ok and want.max_residual == 0

    def test_split_must_cut_the_word_interior(self):
        for split in (0, 4, -1):
            with pytest.raises(ConfigError, match="interior"):
                fo.independence_scenario_from_flow(fo.two_state_noisy(), 4, split)

    def test_scenario_past_the_limit_is_refused_before_any_word(self, monkeypatch):
        # 2**17 words: refused at once, as the map law refuses them
        monkeypatch.setattr(itertools, "product",
                            lambda *args, **kwargs: pytest.fail("words were enumerated"))
        with pytest.raises(EnumerationLimitError):
            fo.independence_scenario_from_flow(fo.two_state_noisy(), 17, 2)

    def test_non_measurable_integrand_rejected(self):
        flow = fo.two_state_noisy()
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
        bad = list(map(list, ftab))
        w = part[0][0]
        bad[w][0] = bad[w][0] + 1
        with pytest.raises(MeasurabilityError):
            fo.conditional_expectation_check(probs, part, meas,
                                             tuple(tuple(r) for r in bad))

    def test_measures_and_integrand_rows_need_one_per_outcome(self):
        flow = fo.two_state_noisy()
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
        n = len(probs)
        with pytest.raises(ConfigError, match=f"{n - 1} measures for {n} outcomes"):
            fo.conditional_expectation_check(probs, part, meas[:-1], ftab)
        with pytest.raises(ConfigError, match=f"{n - 1} integrand rows for {n} outcomes"):
            fo.conditional_expectation_check(probs, part, meas, ftab[:-1])

    def test_integrand_needs_one_value_per_state(self):
        flow = fo.two_state_noisy()
        probs, part, meas, ftab = fo.independence_scenario_from_flow(flow, 4, 2)
        with pytest.raises(ConfigError, match="1 values for 2 states"):
            fo.conditional_expectation_check(probs, part, meas, tuple(f[:1] for f in ftab))


class TestMartingale:
    def test_deterministic_flow_constant(self):
        flow = fo.identity_finite_flow(2)
        # single closed class? identity has none unique: build a deterministic
        # synchronizing flow instead
        det = fo.FiniteFlow(2, (F(1),), (((0, 0),),))
        verdict = fo.ff_martingale_check(det, 0, (F(0), F(1)), 4)
        assert verdict.ok

    def test_two_state_depth_four_all_cylinders(self):
        verdict = fo.ff_martingale_check(fo.two_state_noisy(), 0, (F(0), F(1)), 4)
        assert verdict.ok
        assert verdict.cylinders_checked == 1 + 2 + 4 + 8

    def test_depth_twelve(self):
        verdict = fo.ff_martingale_check(fo.two_state_noisy(), 0, (F(1, 7), F(3, 5)), 12)
        assert verdict.ok
        assert verdict.max_residual == 0

    def test_period_two_flow(self):
        verdict = fo.ff_martingale_check(fo.period_two_alternating(), 1,
                                         (F(0), F(1), F(1, 2)), 8)
        assert verdict.ok

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_period_three_flow_matches_the_cylinders_word_by_word(self, t):
        f, depth = (F(0), F(1), F(1, 2)), 5
        for family in (fo.ff_esm_solve(PERIOD_THREE), DRIFTING):
            verdict = fo.ff_martingale_check(PERIOD_THREE, t, f, depth, family=family)
            assert verdict.max_residual == _martingale_by_words(PERIOD_THREE, t, f, depth, family)
            assert verdict.ok == (family is not DRIFTING)
            assert verdict.cylinders_checked == 2**depth - 1

    def test_one_pushed_measure_per_depth_and_map(self, pushed):
        flow = fo.period_two_alternating()
        sol = fo.ff_esm_solve(flow)
        verdict = fo.ff_martingale_check(flow, 1, (F(0), F(1), F(1, 2)), 6, family=sol)
        assert verdict.ok
        assert pushed == [comp for law in fo.map_law(flow, 1, 6) for comp in law]

    def test_f_needs_one_value_per_state(self):
        for f_values in ((F(0),), (F(0), F(1), F(2))):
            with pytest.raises(ConfigError, match="values for 2 states"):
                fo.ff_martingale_check(fo.two_state_noisy(), 0, f_values, 4)

    def test_needs_one_symbol_of_history(self):
        with pytest.raises(ConfigError):
            fo.ff_martingale_check(fo.two_state_noisy(), 0, (F(0), F(1)), 0)
        with pytest.raises(EnumerationLimitError):
            fo.ff_martingale_check(fo.two_state_noisy(), 0, (F(0), F(1)), 17)


class TestPullbackRoundTrip:
    def test_bijective_flow_stabilizes_with_zero_gap(self):
        rep = fo.ff_pullback(fo.two_state_noisy(), 0, 10)
        assert not rep.all_synchronized  # hold/swap are bijections
        assert rep.tv_gap == 0
        assert rep.stabilized
        assert rep.mean_matches_family

    def test_synchronizing_flow_fully_synchronizes(self):
        rep = fo.ff_pullback(fo.synchronizing_pair(), 3, 6)
        assert rep.all_synchronized and rep.stabilized
        assert rep.mean_matches_family
        # each map's measure is the point mass at the constant map's value
        for _, mu in rep.map_measures.values():
            assert set(mu.masses) <= {fo.ZERO, fo.ONE}

    def test_period_two_round_trip(self):
        rep = fo.ff_pullback(fo.period_two_alternating(), 1, 8)
        assert rep.mean_matches_family

    def test_word_measures_are_the_family_pulled_through_each_word(self):
        flow = fo.period_two_alternating()
        sol = fo.ff_esm_solve(flow)
        rep = fo.ff_pullback(flow, 1, 5)
        law = {}
        for word in itertools.product(range(2), repeat=5):
            comp = fo.compose_word_map(flow, word, -4, 1)
            assert rep.map_measures[comp][1] == sol.at(1 - 5).pushforward(comp)
            law[comp] = law.get(comp, F(0)) + fo._word_prob(flow, word)
        # one entry per map that some word composes to, weighted by its words
        assert {comp: p for comp, (p, _) in rep.map_measures.items()} == law

    def test_one_measure_per_map_at_the_last_two_depths(self, pushed):
        flow = fo.period_two_alternating()
        sol = fo.ff_esm_solve(flow)
        assert fo.ff_pullback(flow, 1, 6, family=sol).mean_matches_family
        *_, shallow, deep = fo.map_law(flow, 1, 6)
        assert pushed == list(deep) + list(shallow)

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_period_three_flow_matches_the_words(self, t):
        depth = 5
        for family in (fo.ff_esm_solve(PERIOD_THREE), DRIFTING):
            rep = fo.ff_pullback(PERIOD_THREE, t, depth, family=family)
            measures, gap = _pullback_by_words(PERIOD_THREE, t, depth, family)
            assert rep.map_measures == measures
            assert rep.tv_gap == gap > 0
            assert rep.all_synchronized == all(len(set(comp)) == 1 for comp in measures)
            assert rep.mean_matches_family == (family is not DRIFTING)

    def test_needs_one_symbol_of_history(self):
        with pytest.raises(ConfigError):
            fo.ff_pullback(fo.two_state_noisy(), 0, 0)


class TestAttractorAndSelection:
    def test_attractor_sets_flow_invariant(self):
        # the image of the whole state set at each time, from one history start
        flow = fo.synchronizing_pair()
        word = (0, 1, 1, 0, 1, 0, 0, 1)
        sets = {t: frozenset(fo.compose_word_map(flow, word, -4, t)) for t in (0, 2, 4)}
        for t in (0, 2, 4):
            assert len(sets[t]) == 1
        # invariance: evolving the earlier set forward gives the later set
        s0 = next(iter(sets[0]))
        assert fo.compose_word_map(flow, word[4:6], 0, 2)[s0] in sets[2]

    def test_selection_consistency_exact(self):
        flow = fo.synchronizing_pair()
        word = (1, 0, 0, 1, 1, 0, 1, 0, 0, 1)
        states = ff_select_trajectory(flow, word, -5, [0, 2, 5])
        assert fo.compose_word_map(flow, word[5:7], 0, 2)[states[0]] == states[1]
        assert fo.compose_word_map(flow, word[7:10], 2, 5)[states[1]] == states[2]

    def test_words_short_of_the_span_are_refused(self):
        flow = fo.synchronizing_pair()
        with pytest.raises(ConfigError):  # covers 2 of the 8 steps to time 4
            fo.compose_word_map(flow, (0, 1), -4, 4)
        with pytest.raises(ConfigError):  # 1 of the 4 steps to time 0
            ff_select_trajectory(flow, (1,), -4, [0])
        with pytest.raises(ConfigError):
            fo.compose_word_map(flow, (0, 1) * 4, 0, -1)

    def test_selection_requires_synchronization(self):
        flow = fo.two_state_noisy()  # bijections never synchronize
        with pytest.raises(UnsupportedCaseError):
            ff_select_trajectory(flow, (0, 1) * 6, -6, [0, 2])


class TestCounterexamples:
    def test_catalog_names_and_verdicts(self):
        cats = fo.counterexamples()
        assert set(cats) == {"remark-attractor", "remark-shift", "remark-identity"}
        for name, report in cats.items():
            assert report.ok, name

    def test_attractor_scenario_details(self):
        rep = fo.counterexamples()["remark-attractor"]
        assert rep.details["family_is_flow_invariant"]
        assert rep.details["family_off_attractor_everywhere"]

    def test_identity_scenario_shares_semigroup_family(self):
        rep = fo.counterexamples()["remark-identity"]
        assert rep.details["families_distinct"]
        assert rep.details["shared_semigroup_family"]


class TestLift:
    def test_identity_law_and_determinism(self):
        lift = fo.FiniteFlowLift(fo.two_state_noisy())
        om = NoiseRealization(5, 9)
        out1 = evolve(lift, om, dyadic(-3), dyadic(2), [1.0])
        out2 = evolve(lift, om, dyadic(-3), dyadic(2), [1.0])
        assert np.array_equal(out1, out2)
        assert evolve(lift, om, dyadic(4), dyadic(4), [0.0])[0] == 0.0

    def test_word_is_the_scalar_keyed_inversion(self):
        # symbol at tau: the first whose cumulative probability is at least the
        # uniform of key chain(seed, index, tag, tau)
        flow = fo.FiniteFlow(3, (F(1, 5), F(0), F(4, 5)), (((1, 2, 0), (0, 0, 2), (2, 2, 1)),))
        cum = [float(c) for c in itertools.accumulate(flow.probs)]
        lift = fo.FiniteFlowLift(flow)
        for om in (NoiseRealization(7, 3), NoiseRealization(-2, 40)):
            word = lift.word_for(om, -30, 30)
            assert all(type(s) is int for s in word)
            for tau, sigma in zip(range(-30, 30), word, strict=True):
                key = chain(om.master_seed, om.realization_index, fo._TAG_SYMBOL, tau)
                u = ((key >> 11) + 0.5) * 2.0**-53
                assert sigma == next(k for k, c in enumerate(cum) if u <= c)
            assert set(word) == {0, 2}
            assert lift.word_for(om, 5, 5) == ()

    def test_rows_follow_the_one_composed_word(self):
        flow = fo.period_two_alternating()
        lift = fo.FiniteFlowLift(flow)
        om = NoiseRealization(4, 1)
        comp = fo.compose_word_map(flow, lift.word_for(om, -3, 4), -3, 4)
        out = lift.evolve_batch(om, dyadic(-3), dyadic(4), np.array([[2.0], [0.0], [1.0], [2.0]]))
        assert out[:, 0].tolist() == [comp[2], comp[0], comp[1], comp[2]]

    def test_rows_round_half_to_even(self):
        lift = fo.FiniteFlowLift(fo.cyclic_doubly_stochastic(3))
        out = lift.evolve_batch(NoiseRealization(1, 0), dyadic(4), dyadic(4),
                                np.array([[0.5], [1.5], [2.5]]))
        assert out.shape == (3, 1) and out[:, 0].tolist() == [0.0, 2.0, 2.0]

    def test_first_invalid_row_is_named(self):
        lift = fo.FiniteFlowLift(fo.cyclic_doubly_stochastic(3))
        rows = np.array([[0.0], [-0.4], [2.4], [2.6], [-0.7]])
        with pytest.raises(ConfigError, match=r"^state 2\.6 is not a valid state index$"):
            lift.evolve_batch(NoiseRealization(1, 0), dyadic(0), dyadic(2), rows)

    def test_batch_matches_the_row_by_row_rounding(self):
        flow = fo.period_two_alternating()
        lift = fo.FiniteFlowLift(flow)
        om = NoiseRealization(8, 2)
        rows = np.random.default_rng(5).uniform(-0.49, 2.49, size=(300, 1))
        rows[:6, 0] = [0.5, 1.5, 2.5, -0.5, 0.0, 2.0]
        comp = fo.compose_word_map(flow, lift.word_for(om, -3, 4), -3, 4)
        expected = [[float(comp[int(round(x))])] for x in rows[:, 0]]
        assert lift.evolve_batch(om, dyadic(-3), dyadic(4), rows).tolist() == expected

    def test_mc_agrees_with_exact_kernel(self):
        flow = fo.FiniteFlow(2, (F(1, 4), F(3, 4)), (((0, 1), (1, 0)),))
        lift = fo.FiniteFlowLift(flow)
        kernel = fo.kernel_between(flow, 0, 3)
        exact = float(kernel[0][1])
        # the transition mean from state 0 over 4000 fresh realizations
        n = 4000
        ends = evolve_ensemble(lift, RealizationStream(55).take(n), dyadic(0), dyadic(3),
                               np.zeros((n, 1, 1)))[:, 0, 0]
        est, se = ends.mean(), ends.std(ddof=1) / np.sqrt(n)
        assert abs(est - exact) <= 4 * se

    def test_exact_selection_through_esm_interface(self):
        flow = fo.synchronizing_pair()
        lift = fo.FiniteFlowLift(flow)
        times = [dyadic(0), dyadic(2), dyadic(3)]
        sched = PullbackSchedule.geometric(dyadic(0), 4, 2)
        start = sched.starts[-1].at_level(0)
        for r in range(8):  # the selected point carried forward is the exact trajectory
            om = NoiseRealization(21, r)
            states = [pullback_point(lift, om, sched)]
            for a, b in zip(times, times[1:]):
                states.append(evolve(lift, om, a, b, states[-1]))
            word = lift.word_for(om, start, 3)
            assert [x for (x,) in states] == ff_select_trajectory(flow, word, start, [0, 2, 3])

    def test_pullback_measure_on_lift_reproduces_exact_family(self):
        # synchronizing lift: the pullback measure collapses to the exact
        # selected point for every realization, and the ensemble mean matches
        # the exact averaged family within Monte Carlo error
        flow = fo.synchronizing_pair()
        lift = fo.FiniteFlowLift(flow)
        sol = fo.ff_esm_solve(flow)
        assert sol.unique
        exact_p1 = float(sol.family[0].masses[1])
        sched = PullbackSchedule.geometric(dyadic(0), 3, 2)
        source = ConstantFamily(EmpiricalMeasure.equal_weight([[0.0], [1.0]]))
        n = 800
        members = []
        for i in range(n):
            om = NoiseRealization(33, i)
            mu, diag = pullback_measure(lift, om, sched, source, 2)
            assert diag.converged
            # synchronization collapses the measure to one exact point
            assert np.all(mu.particles == mu.particles[0])
            members.append(mu)
        mean = esm_mean(members)
        p1_hat = float(np.sum(mean.weights[mean.particles[:, 0] == 1.0]))
        stderr = np.sqrt(exact_p1 * (1 - exact_p1) / n)
        assert abs(p1_hat - exact_p1) <= 4 * stderr


# -- flow and semigroup on random small flows -------------------------------------

@st.composite
def _small_flows(draw):
    n = draw(st.integers(1, 3))
    k = draw(st.integers(1, 3))
    period = draw(st.integers(1, 2))
    weights = draw(st.lists(st.integers(0, 4), min_size=k, max_size=k))
    weights[0] += sum(weights) == 0
    state_map = st.tuples(*[st.integers(0, n - 1)] * n)
    banks = draw(st.lists(st.lists(state_map, min_size=k, max_size=k),
                          min_size=period, max_size=period))
    probs = tuple(F(w, sum(weights)) for w in weights)
    return fo.FiniteFlow(n, probs, tuple(map(tuple, banks)), period)


# derandomized: the same examples on every run, so the suite stays reproducible
@settings(max_examples=150, deadline=None, derandomize=True)
@given(flow=_small_flows(), data=st.data())
def test_flow_and_semigroup_agree_on_random_small_flows(flow, data):
    n = flow.n_states
    s = data.draw(st.integers(-3, 3), label="s")
    t = s + data.draw(st.integers(0, 4), label="t - s")
    u = t + data.draw(st.integers(0, 3), label="u - t")
    weights = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n), label="mu")
    weights[-1] += sum(weights) == 0
    mu = fo.ExactMeasure(tuple(F(w, sum(weights)) for w in weights))

    # the flow side, summed here term by term: each word's image of mu,
    # weighted by the word's probability, is the semigroup's transport of mu
    mean = [F(0)] * n
    for word in itertools.product(range(flow.n_symbols), repeat=t - s):
        nu = mu.pushforward(fo.compose_word_map(flow, word, s, t))
        p_word = math.prod((flow.probs[sym] for sym in word), start=F(1))
        for x in range(n):
            mean[x] += p_word * nu.masses[x]
    kernel = fo.kernel_between(flow, s, t)
    assert tuple(mean) == fo.apply_kernel(mu, kernel).masses
    assert all(sum(row) == 1 for row in kernel)
    assert fo.chapman_check(flow, s, t, u)

    sol = fo.ff_esm_solve(flow)
    if sol.unique:
        depth = max(t - s, 1)
        assert fo.ff_pullback(flow, t, depth, sol).mean_matches_family
        assert fo.ff_martingale_check(flow, t, tuple(F(x + 1, 3) for x in range(n)), depth, sol).ok
