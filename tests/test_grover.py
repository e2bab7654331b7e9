import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from qkinopt import qsim
from qkinopt.encoding import ParamGrid, ParamSpec, decode, encode
from qkinopt.grover import (
    AmplifiedState,
    NoSolutionError,
    SearchResult,
    amplified_state,
    count_solutions,
    iteration_count,
    minimal_epsilon,
    search_with_state,
    shrink_schedule,
    threshold_ladder,
    verify,
)
from qkinopt.harness import _actual_error_table
from qkinopt.kinematics import OneLink, PoseTarget, PoseWeights, fk_one
from reference import (
    StateVector,
    apply_diffusion,
    apply_oracle,
    dense_rounds,
    success_probability,
    uniform_superposition,
)
from tests_support import TWO_PI, verification_cases


def flat_grid(n_total):
    """Single linear parameter spanning n_total qubits; index k decodes monotonically."""
    return ParamGrid((ParamSpec("x", 0.0, 1.0, n_total),))


def costs_with_marks(M, marked):
    costs = np.ones(M)
    costs[list(marked)] = 0.0
    return costs


def mask(M, marked):
    return costs_with_marks(M, marked) <= 0.5


def search(grid, costs, epsilon, shots=10000, seed=0):
    """The search result alone, marking {k : costs[k] <= epsilon} as `run_case` does."""
    return search_with_state(grid, np.flatnonzero(costs <= epsilon), epsilon, shots, seed)[0]


class TestCountSolutions:
    def test_direct_count(self):
        assert count_solutions(np.array([0.5, 0.01, 0.7, 0.02]), 0.05) == 2

    def test_below_minimum(self):
        assert count_solutions(np.array([0.5, 0.01, 0.7, 0.02]), 0.001) == 0

    def test_at_or_above_maximum(self):
        assert count_solutions(np.array([0.5, 0.01, 0.7, 0.02]), 0.7) == 4

    def test_boundary_inclusive(self):
        assert count_solutions(np.array([0.3, 0.1]), 0.1) == 1


class TestIterationCount:
    def test_eight_one(self):
        assert iteration_count(8, 1) == 2

    def test_four_one(self):
        assert iteration_count(4, 1) == 1

    def test_all_marked_degenerate(self):
        assert iteration_count(8, 8) == 0

    def test_no_solutions(self):
        with pytest.raises(NoSolutionError):
            iteration_count(8, 0)

    def test_at_least_one_below_half(self):
        for M in (16, 64, 1024):
            for m in range(1, M // 2):
                assert iteration_count(M, m) >= 1

    def test_zero_exactly_above_half(self):
        for M in (16, 256):
            for m in range(1, M + 1):
                assert (iteration_count(M, m) == 0) == (m > M / 2), (M, m)

    def test_search_runs_the_scheduled_rounds(self):
        # the K the sweep reports is the K a search runs, for every m
        for n in (4, 8):
            M = 1 << n
            grid = flat_grid(n)
            for m in range(1, M + 1):
                result = search(grid, costs_with_marks(M, range(m)), 0.5, shots=1)
                assert result.queries == iteration_count(M, m), (M, m)

    def test_query_count_law(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            M = 1 << int(rng.integers(2, 12))
            m = int(rng.integers(1, M + 1))
            assert iteration_count(M, m) <= math.pi / 4 * math.sqrt(M / m) + 1


class TestSuccessProbability:
    def test_eight_one_two(self):
        assert amplified_state(3, np.array([0]), 2).p_marked == pytest.approx(0.9453, abs=1e-4)

    def test_four_one_one_is_certain(self):
        assert amplified_state(2, np.array([1]), 1).p_marked >= 1.0 - 1e-9

    def test_zero_iterations_is_uniform(self):
        assert amplified_state(6, np.array([0, 9, 40]), 0).p_marked == pytest.approx(3 / 64)

    def test_matches_simulated_amplification(self):
        # independent check: the gate-level rounds' marked mass, and the formula's
        rng = np.random.default_rng(1)
        for _ in range(10):
            n = int(rng.integers(2, 7))
            M = 1 << n
            m = int(rng.integers(1, M // 2 + 1))
            K = int(rng.integers(0, 4))
            marked = np.zeros(M, dtype=bool)
            marked[rng.choice(M, m, replace=False)] = True
            state = amplified_state(n, np.flatnonzero(marked), K)
            simulated = float((np.abs(dense_rounds(n, marked, K).amps[marked]) ** 2).sum())
            assert state.p_marked == pytest.approx(simulated, abs=1e-12)
            assert state.p_marked == pytest.approx(success_probability(M, m, K), abs=1e-12)

    def test_empirical_probability_within_three_sigma(self):
        # shot-level check at the scheduled iteration count over sampled (M, m)
        rng = np.random.default_rng(13)
        shots = 10000
        for _ in range(8):
            n = int(rng.integers(3, 13))
            M = 1 << n
            m = int(rng.integers(1, max(2, M // 8)))
            costs = np.ones(M)
            costs[rng.choice(M, m, replace=False)] = 0.0
            result, state = search_with_state(flat_grid(n), np.flatnonzero(costs <= 0.5), 0.5,
                                              shots, seed=77)
            p = state.p_marked
            assert p == pytest.approx(success_probability(M, m, result.queries), abs=1e-12)
            sigma = math.sqrt(p * (1 - p) / shots)
            assert abs(result.marked_probability - p) <= 3 * sigma + 1e-12


class TestOracle:
    def test_sign_flip_on_marked(self):
        out = apply_oracle(uniform_superposition(2), mask(4, [2]))
        np.testing.assert_allclose(out.amps, [0.5, 0.5, -0.5, 0.5], atol=1e-15)

    def test_nothing_marked_is_identity(self):
        state = uniform_superposition(2)
        np.testing.assert_array_equal(apply_oracle(state, mask(4, [])).amps, state.amps)

    def test_involution(self):
        oracle = mask(8, [1, 5])
        state = uniform_superposition(3)
        out = apply_oracle(apply_oracle(state, oracle), oracle)
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)
        assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12

    def test_shape_error(self):
        with pytest.raises(ValueError):
            apply_oracle(uniform_superposition(2), mask(8, []))

    def test_zero_epsilon_marks_exact_solutions(self):
        costs = costs_with_marks(4, [3]) * 1e-300  # the least positive cost stays unmarked
        result = search(flat_grid(2), costs, 0.0, shots=100)
        assert (result.solutions, result.index) == (1, 3)

    def test_negative_epsilon_rejected(self):
        # a search reads no threshold; a negative one is refused by the ladder
        with pytest.raises(NoSolutionError, match="marks no configuration"):
            threshold_ladder(np.zeros(4), -0.1, 0.5)


class TestDiffusion:
    def test_uniform_is_fixed_point(self):
        state = uniform_superposition(3)
        np.testing.assert_allclose(apply_diffusion(state).amps, state.amps, atol=1e-15)

    def test_single_round_on_four_states(self):
        # sin^2(3 arcsin(1/2)) = 1: one oracle+diffusion round is exact for M=4
        state = amplified_state(2, np.array([2]), 1)
        assert state.amps[2] ** 2 == pytest.approx(1.0, abs=1e-12)

    def test_involution(self):
        rng = np.random.default_rng(2)
        amps = rng.normal(size=8) + 1j * rng.normal(size=8)
        amps /= np.linalg.norm(amps)
        state = StateVector(3, amps)
        out = apply_diffusion(apply_diffusion(state))
        np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)
        assert abs(np.linalg.norm(out.amps) - 1.0) <= 1e-12


@st.composite
def marked_rounds(draw):
    """(n, marked mask, K) with m from 0 to M and K up to twice the schedule plus 2."""
    n = draw(st.integers(1, 10))
    M = 1 << n
    m = draw(st.sampled_from([0, M]) | st.integers(0, M))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    marked = np.zeros(M, dtype=bool)
    marked[rng.choice(M, m, replace=False)] = True
    K = draw(st.integers(0, 2 * iteration_count(M, max(m, 1)) + 2))
    return n, marked, K


class TestClosedForm:
    @settings(max_examples=200, deadline=None)
    @given(marked_rounds())
    def test_matches_gate_level_rounds(self, case):
        n, marked, K = case
        state = amplified_state(n, np.flatnonzero(marked), K)
        assert state.amps.dtype == np.float64
        np.testing.assert_allclose(state.amps, dense_rounds(n, marked, K).amps,
                                   rtol=0, atol=1e-12)

    def test_large_register(self):
        n, M = 22, 1 << 22
        marked = np.zeros(M, dtype=bool)
        marked[np.random.default_rng(4).choice(M, 5, replace=False)] = True
        K = iteration_count(M, 5)
        state = amplified_state(n, np.flatnonzero(marked), K)
        assert np.linalg.norm(state.amps) == pytest.approx(1.0, abs=1e-12)
        assert float((state.amps[marked] ** 2).sum()) == pytest.approx(state.p_marked, abs=1e-12)
        assert state.p_marked == pytest.approx(success_probability(M, 5, K), abs=1e-12)

    def test_repr_and_equality_build_no_dense_state(self):
        state = amplified_state(24, np.array([5, 9]), 3)
        tracemalloc.start()
        try:
            text = repr(state)
            same = state == state and state == amplified_state(24, np.array([5, 9]), 3)
            other = state == amplified_state(24, np.array([5, 10]), 3)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20
        assert text == (f"AmplifiedState(n_qubits=24, m=2, a={state.a!r}, b={state.b!r}, "
                        f"p_marked={state.p_marked!r})")
        assert same and not other
        assert state != amplified_state(24, np.array([5, 9]), 2)
        assert state != uniform_superposition(3)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            amplified_state(2, np.array([4]), 1)  # an index of 3 qubits' grid
        with pytest.raises(ValueError):
            amplified_state(2, np.array([], dtype=np.int64), -1)
        with pytest.raises(qsim.CapacityError):
            amplified_state(25, np.arange(2), 1)

    @pytest.mark.parametrize("marked", [
        np.array([[0, 1], [2, 3]]), np.array([-1, 2]), np.array([8]), np.array([0, 3, 9]),
        np.array([5, 2]), np.ones(8, dtype=bool), np.array([0.0, 1.0]),
    ], ids=["two_axes", "negative", "index_M", "last_above_M", "reversed_ends", "bool_mask",
            "float"])
    def test_refuses_indices_that_are_not_a_marked_set(self, marked):
        with pytest.raises(ValueError, match=r"sorted integer indices in \[0, 8\)"):
            amplified_state(3, marked, 1)


def pooled(counts, probs, marked, min_expected):
    """Counts and probabilities summed over ranges of consecutive marked, and of
    consecutive unmarked, indices, each range holding at least min_expected."""
    out = []
    for part in (marked, ~marked):
        c, p = counts[part], probs[part]
        if p.size == 0:
            continue
        starts, mass = [0], 0.0
        for k, pk in enumerate(p[:-1]):
            mass += pk
            if mass >= min_expected:
                starts.append(k + 1)
                mass = 0.0
        if mass + p[-1] < min_expected and len(starts) > 1:
            starts.pop()  # the short last range joins the one before it
        out.append((np.add.reduceat(c, starts), np.add.reduceat(p, starts)))
    return np.concatenate([c for c, _ in out]), np.concatenate([p for _, p in out])


def sampler_cases():
    """(n, marked, K) at N <= 12: one marked state at the scheduled K, a majority
    marked (K = 0), everything marked, and random marks at off-schedule K."""
    rng = np.random.default_rng(2024)
    cases = []
    for n, m in [(6, 1), (10, 1), (5, 20), (8, 200), (3, 8), (7, 128)]:
        cases.append((n, m, iteration_count(1 << n, m)))
    for _ in range(8):
        n = int(rng.integers(3, 13))
        M = 1 << n
        m = int(rng.integers(1, M + 1))
        cases.append((n, m, int(rng.integers(0, iteration_count(M, m) + 3))))
    out = []
    for i, (n, m, K) in enumerate(cases):
        marked = np.zeros(1 << n, dtype=bool)
        marked[np.random.default_rng(i).choice(1 << n, m, replace=False)] = True
        out.append((n, marked, K))
    return out


class TestSampler:
    """The two-value sampler and expectation against the dense reference."""

    @pytest.mark.parametrize("case", sampler_cases())
    def test_histogram_matches_dense_measure(self, case):
        n, marked, K = case
        M, shots = 1 << n, 20000
        state = amplified_state(n, np.flatnonzero(marked), K)
        probs = state.amps ** 2  # the distribution qsim.measure draws from
        sampled = np.bincount(state.sample(shots, seed=5)[0], minlength=M)
        dense = np.zeros(M, dtype=np.int64)
        for k, count in qsim.measure(state, shots, seed=5).items():
            dense[k] = count
        sampled, p = pooled(sampled, probs, marked, 10.0 / shots)
        dense, _ = pooled(dense, probs, marked, 10.0 / shots)
        assert p.size > 1
        for observed in (sampled, dense):
            assert scipy.stats.chisquare(observed, shots * p).pvalue > 1e-3
        assert scipy.stats.chi2_contingency([sampled, dense]).pvalue > 1e-3

    @settings(max_examples=200, deadline=None)
    @given(marked_rounds(), st.integers(0, 2**32 - 1))
    def test_expectation_matches_dense(self, case, seed):
        n, marked, K = case
        costs = np.random.default_rng(seed).uniform(0.0, 10.0, 1 << n) ** 3
        state = amplified_state(n, np.flatnonzero(marked), K)
        assert state.expectation(costs, float(costs.sum())) == pytest.approx(
            qsim.expectation_diagonal(state, costs), rel=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(marked_rounds(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_picks_lie_in_range_and_in_their_part(self, case, shots, seed):
        n, marked, K = case
        M, m = 1 << n, int(np.count_nonzero(marked))
        state = amplified_state(n, np.flatnonzero(marked), K)
        picks, hits = state.sample(shots, seed)
        assert picks.shape == (shots,) and picks.min() >= 0 and picks.max() < M
        assert hits == np.count_nonzero(marked[picks])
        # forced to one part, every pick lands in it
        if m < M:
            unmarked, hits = AmplifiedState(n, state.marked, state.a, state.b,
                                            0.0).sample(shots, seed)
            assert not marked[unmarked].any() and hits == 0
            if shots >= 20 * (M - m):
                assert np.unique(unmarked).size == M - m  # reaches every unmarked index
        if m > 0:
            picks, hits = AmplifiedState(n, state.marked, state.a, state.b,
                                         1.0).sample(shots, seed)
            assert marked[picks].all() and hits == shots

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 10), st.data(), st.integers(1, 3000), st.integers(0, 2**32 - 1))
    def test_search_counts_its_marked_hits(self, n, data, shots, seed):
        M = 1 << n
        m = data.draw(st.sampled_from([1, M // 2 + 1, M]) | st.integers(1, M))
        chosen = np.random.default_rng(seed).choice(M, m, replace=False)
        costs = costs_with_marks(M, chosen)
        result, state = search_with_state(flat_grid(n), np.sort(chosen), 0.5, shots, seed)
        picks, _ = state.sample(shots, seed)  # the draw the search took
        assert result.marked_probability == np.count_nonzero(costs[picks] <= 0.5) / shots
        outcomes, counts = np.unique(picks, return_counts=True)
        assert result.index == outcomes[counts == counts.max()].min()
        if m == M:
            assert result.marked_probability == 1.0


class TestGroverSearch:
    def test_single_marked_in_sixteen(self):
        grid = flat_grid(4)
        result = search(grid, costs_with_marks(16, [11]), 0.5, seed=5)
        assert result.queries == 3
        assert result.index == 11
        # analytic success is 0.9614; binomial noise at 1e4 shots stays inside 0.02
        assert abs(result.marked_probability - 0.961) <= 0.02

    def test_all_marked_samples_uniform(self):
        grid = flat_grid(3)
        result = search(grid, np.zeros(8), 0.5, shots=4096, seed=3)
        assert result.queries == 0
        assert result.marked_probability == 1.0

    def test_fixed_seed_reproducible(self):
        grid = flat_grid(4)
        costs = costs_with_marks(16, [7])
        r1 = search(grid, costs, 0.5, shots=2000, seed=11)
        r2 = search(grid, costs, 0.5, shots=2000, seed=11)
        assert (r1.index, r1.bitstring, r1.queries, r1.marked_probability) == \
               (r2.index, r2.bitstring, r2.queries, r2.marked_probability)
        np.testing.assert_array_equal(r1.params, r2.params)

    def test_no_solutions_raises(self):
        grid = flat_grid(3)
        with pytest.raises(NoSolutionError):
            search(grid, np.ones(8), 0.5)

    def test_bad_arguments_rejected(self):
        grid = flat_grid(2)
        with pytest.raises(ValueError, match="shots"):
            search(grid, np.zeros(4), 0.5, shots=0)
        with pytest.raises(ValueError, match=r"in \[0, 4\)"):
            search_with_state(grid, np.array([0, 5]), 0.5, 100, 0)  # a marked set of 3 qubits

    def test_majority_marked_short_circuits(self):
        grid = flat_grid(3)
        costs = np.zeros(8)
        costs[:3] = 1.0  # 5 of 8 marked
        result = search(grid, costs, 0.5, seed=1)
        assert result.queries == 0

    def test_decoded_params_match_index(self):
        grid = ParamGrid((
            ParamSpec("l1", 0.1, 2.0, 2),
            ParamSpec("theta1", 0.0, TWO_PI, 2, angular=True),
        ))
        result = search(grid, costs_with_marks(16, [9]), 0.5, shots=500, seed=2)
        np.testing.assert_array_equal(result.params, decode(grid, 9))


def ladder_search(grid, costs, epsilon0, shrink, shots, seed):
    """One search at the last threshold of the ladder."""
    levels = threshold_ladder(costs, epsilon0, shrink)
    return search(grid, costs, levels[-1], shots, seed)


class TestAdaptiveSearch:
    def test_shrinks_to_final_level(self):
        grid = flat_grid(2)
        costs = np.array([0.5, 0.2, 0.05, 0.9])
        # 0.6 halves to 0.075, the last geometric step that marks a state, then the floor
        assert threshold_ladder(costs, 0.6, 0.5) == [0.6, 0.3, 0.15, 0.075, 0.05]
        result = ladder_search(grid, costs, epsilon0=0.6, shrink=0.5, shots=5000, seed=4)
        assert result.epsilon == 0.05
        assert result.solutions == 1
        assert result.index == 2

    def test_tight_epsilon_no_shrinking(self):
        grid = flat_grid(2)
        costs = np.array([0.5, 0.2, 0.05, 0.9])
        assert threshold_ladder(costs, 0.08, 0.5) == [0.08, 0.05]
        result = ladder_search(grid, costs, epsilon0=0.08, shrink=0.5, shots=5000, seed=4)
        assert result.epsilon == 0.05
        assert result.solutions == 1

    def test_final_epsilon_never_exceeds_initial(self):
        grid = flat_grid(3)
        rng = np.random.default_rng(6)
        for _ in range(10):
            costs = rng.uniform(0.0, 1.0, 8)
            eps0 = costs.min() + rng.uniform(0.01, 2.0)
            result = ladder_search(grid, costs, eps0, 0.5, 200, 0)
            assert result.epsilon <= eps0

    def test_default_start_is_ten_times_floor(self):
        costs = np.array([0.5, 0.2, 0.05, 0.9])
        assert threshold_ladder(costs, None, 0.5) == [0.5, 0.25, 0.125, 0.0625, 0.05]
        assert threshold_ladder(np.array([0.0, 1.0]), None, 0.5) == [0.0]

    def test_refine_ends_at_minimal_epsilon(self):
        costs = np.array([0.5, 0.2, 0.05, 0.9])
        levels = threshold_ladder(costs, 0.6, 0.5)
        assert levels[:-1] == shrink_schedule(float(costs.min()), 0.6, 0.5)
        assert levels[-1] == minimal_epsilon(float(costs.min()), 0.075)
        assert count_solutions(costs, levels[-1]) == 1 and levels[-1] < 0.075

    def test_start_below_floor_is_no_solution(self):
        with pytest.raises(NoSolutionError, match="raise epsilon"):
            threshold_ladder(np.array([0.5, 0.4]), 0.1, 0.5)

    def test_epsilon0_below_floor_rejected(self):
        with pytest.raises(ValueError):
            shrink_schedule(0.4, 0.1, 0.5)  # the floor of [0.5, 0.4]

    def test_equal_costs_terminate(self):
        # all costs identical: the next shrink always empties the marked set
        levels = shrink_schedule(0.3, 0.3, 0.5)
        assert levels == [0.3]


    def test_non_finite_start_refused(self):
        costs = np.array([0.5, 0.2])
        for start in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                threshold_ladder(costs, start, 0.5)
        with pytest.raises(ValueError):
            shrink_schedule(float(costs.min()), math.nan, 0.5)  # would never reach the floor


# The table-walking ladder that the floor-only one replaced, kept as the
# reference: it counts the marked states of the whole table at each step.

def walking_shrink_schedule(costs, epsilon0, shrink):
    costs = np.asarray(costs, dtype=float)
    if epsilon0 < costs.min():
        raise ValueError("epsilon0 must be at least the minimum cost")
    levels = [epsilon0]
    eps = epsilon0
    while True:
        nxt = eps * shrink
        if nxt == eps or count_solutions(costs, nxt) < 1:
            return levels
        levels.append(nxt)
        eps = nxt


def bisected_minimal_epsilon(costs, epsilon_hi):
    costs = np.asarray(costs, dtype=float)
    if count_solutions(costs, epsilon_hi) < 1:
        raise NoSolutionError("refinement started from an empty threshold")
    lo = np.nextafter(costs.min(), -np.inf)  # strictly below the minimum
    hi = epsilon_hi
    while True:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            return hi
        if count_solutions(costs, mid) >= 1:
            hi = mid
        else:
            lo = mid


def walking_ladder(costs, epsilon0, shrink):
    floor = float(costs.min())
    if epsilon0 is None:
        epsilon0 = 10.0 * floor if floor > 0 else 0.0
    if floor > 0:
        levels = walking_shrink_schedule(costs, epsilon0, shrink)
    else:
        # a zero floor is marked at every threshold, so the walk counts the
        # positive costs and stops above the least of them
        positive = costs[costs > 0]
        levels = [epsilon0]
        while levels[-1] * shrink != levels[-1] and \
                count_solutions(positive, levels[-1] * shrink) >= 1:
            levels.append(levels[-1] * shrink)
    refined = bisected_minimal_epsilon(costs, levels[-1])
    if refined < levels[-1]:
        levels.append(refined)
    return levels


def bits(values):
    """Exact bit patterns, so that 0.0 and -0.0 differ."""
    return [float(v).hex() for v in values]


@st.composite
def ladder_cases(draw):
    """A finite non-negative table (ties, zero floors and 1e-6-scale costs
    included), a start at or above its floor (None: the default) and a shrink
    factor."""
    scale = draw(st.sampled_from([1e-6, 1e-3, 1.0, 1e3]))
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 0.25, 1.0]) | st.floats(0.0, 10.0),
                           min_size=1, max_size=40))
    costs = np.array(values) * scale
    floor = float(costs.min())
    start = draw(st.none() | st.just(floor)
                 | st.floats(floor, floor + 20.0 * scale, allow_subnormal=False))
    return costs, start, draw(st.floats(0.05, 0.95))


class TestFloorOnlyLadder:
    @settings(max_examples=400, deadline=None)
    @given(case=ladder_cases())
    def test_equals_table_walking_ladder(self, case):
        costs, start, shrink = case
        assert bits(threshold_ladder(costs, start, shrink)) == bits(
            walking_ladder(costs, start, shrink))

    @settings(max_examples=200, deadline=None)
    @given(case=ladder_cases())
    def test_parts_equal_their_references(self, case):
        costs, start, shrink = case
        floor = float(costs.min())
        start = floor if start is None else start
        assert bits(shrink_schedule(floor, start, shrink)) == bits(
            walking_shrink_schedule(costs, start, shrink))
        assert bits([minimal_epsilon(floor, start)]) == bits(
            [bisected_minimal_epsilon(costs, start)])

    def test_ties_and_zero_floor(self):
        for costs in (np.array([0.3, 0.1, 0.1, 0.7]), np.array([0.0, 0.0, 2.0]),
                      np.array([0.0, 1e-6, 3e-6])):
            for start in (None, 0.5, 1.0):
                assert bits(threshold_ladder(costs, start, 0.5)) == bits(
                    walking_ladder(costs, start, 0.5))


# The mask-based search that the index form replaced, kept as the reference: it
# compares the whole table with its threshold, counts the mask, and looks each
# pick up in it.

def mask_search_with_state(grid, costs, epsilon, shots, seed):
    N, M = grid.total_qubits, grid.size
    marked = np.asarray(costs, dtype=float) <= epsilon
    K = iteration_count(M, int(np.count_nonzero(marked)))
    state = amplified_state(N, np.flatnonzero(marked), K)
    picks, _ = state.sample(shots, seed)
    outcomes, counts = np.unique(picks, return_counts=True)
    best = int(outcomes[np.argmax(counts)])
    return SearchResult(
        index=best,
        bitstring=format(best, f"0{N}b"),
        params=decode(grid, best),
        marked_probability=int(np.count_nonzero(marked[picks])) / shots,
        queries=K,
        epsilon=epsilon,
        solutions=state.marked.size,
    ), state


@st.composite
def narrowing_cases(draw):
    """A 2^n-entry table of up to six values (so ties are common; zero floors and
    1e-6-scale costs included), a start from the floor to past the maximum (so
    majority- and all-marked levels occur), a shrink factor, shots and a seed.
    Each level runs two searches, so positive costs stay within 1e4 of each
    other, and a zero floor under a positive start, which shrinks down through
    the subnormals (about 1075 / -log2(shrink) levels), gets a shrink <= 0.1."""
    n = draw(st.integers(1, 8))
    scale = draw(st.sampled_from([1e-6, 1.0, 1e3]))
    values = draw(st.lists(st.sampled_from([0.0, 0.25, 1.0]) | st.floats(1e-3, 10.0),
                           min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    costs = rng.choice(values, 1 << n) * scale
    start = draw(st.none() | st.sampled_from([costs.min(), np.median(costs), costs.max()])
                 | st.floats(float(costs.min()), 2.0 * float(costs.max()) + scale,
                             allow_subnormal=False))
    start = None if start is None else float(start)
    shrink = draw(st.floats(0.05, 0.1 if costs.min() == 0 and start else 0.95))
    return n, costs, start, shrink, draw(st.integers(1, 500)), draw(st.integers(0, 2**32 - 1))


class TestNarrowedMarkedSets:
    @settings(max_examples=200, deadline=None)
    @given(case=narrowing_cases())
    def test_each_level_equals_the_mask_search(self, case):
        n, costs, start, shrink, shots, seed = case
        grid, total = flat_grid(n), float(costs.sum())
        levels = threshold_ladder(costs, start, shrink)
        marked = np.flatnonzero(costs <= levels[0])
        for eps in levels:  # narrowed as run_case narrows it
            marked = marked[costs[marked] <= eps]
            assert marked.dtype == np.int64
            np.testing.assert_array_equal(marked, np.flatnonzero(costs <= eps))
            result, state = search_with_state(grid, marked, eps, shots, seed)
            ref, ref_state = mask_search_with_state(grid, costs, eps, shots, seed)
            assert (result.index, result.solutions, result.queries) == \
                (ref.index, ref.solutions, ref.queries)
            assert bits([result.marked_probability, state.expectation(costs, total)]) == \
                bits([ref.marked_probability, ref_state.expectation(costs, total)])


class TestMinimalEpsilon:
    def test_isolates_exact_minimum(self):
        costs = np.array([3.0, 1.0, 2.0, 1.0 + 1e-13])
        eps = minimal_epsilon(float(costs.min()), 3.0)
        assert count_solutions(costs, eps) == 1
        assert costs[1] <= eps < 1.0 + 1e-13

    def test_keeps_bit_exact_ties(self):
        costs = np.array([0.7, 0.2, 0.9, 0.2])
        eps = minimal_epsilon(float(costs.min()), 0.9)
        assert count_solutions(costs, eps) == 2

    def test_empty_start_rejected(self):
        with pytest.raises(NoSolutionError):
            minimal_epsilon(1.0, 0.5)  # the floor of [1.0, 2.0]


class TestVerify:
    def grid(self):
        return ParamGrid((
            ParamSpec("l1", 0.1, 2.0, 4),
            ParamSpec("theta1", 0.0, TWO_PI, 4, angular=True),
        ))

    def test_exact_hit_accepted(self):
        grid = self.grid()
        k = encode(grid, [1.0, 1.0])
        target = fk_one(*decode(grid, k))
        task = PoseTarget(tuple(target), tolerance=1e-9)
        e, accepted = verify(k, grid, OneLink(), task, PoseWeights(1.0, 0.0))
        assert e == pytest.approx(0.0, abs=1e-12)
        assert accepted

    def test_far_configuration_rejected(self):
        grid = self.grid()
        task = PoseTarget((2.0, 0.0), tolerance=0.05)
        k = encode(grid, [0.1, math.pi])  # points the wrong way
        e, accepted = verify(k, grid, OneLink(), task, PoseWeights(1.0, 0.0))
        assert e > 0.05
        assert not accepted

    def test_missing_tolerance_raises(self):
        grid = self.grid()
        with pytest.raises(ValueError):
            verify(0, grid, OneLink(), PoseTarget((0.5, 0.5)), PoseWeights(1.0, 0.0))

    def test_accepted_implies_error_within_tolerance(self):
        grid = self.grid()
        rng = np.random.default_rng(7)
        task = PoseTarget((0.8, 0.6), tolerance=0.2)
        for _ in range(30):
            k = int(rng.integers(0, grid.size))
            e, accepted = verify(k, grid, OneLink(), task, PoseWeights(1.0, 0.0))
            if accepted:
                assert e <= 0.2


class TestVerifyMatchesErrorTable:
    @settings(max_examples=150, deadline=None)
    @given(case=verification_cases())
    def test_verify_error_is_table_entry_bit_for_bit(self, case):
        grid, model, task, weights = case
        table = _actual_error_table(grid, model, task, weights)
        for k in range(grid.size):
            e, accepted = verify(k, grid, model, task, weights)
            assert e == table[k], k
            assert accepted == (e <= task.tolerance)


class TestResultRecord:
    def test_verified_copy(self):
        r = SearchResult(3, "011", np.array([0.5]), 0.9, 2, 0.1, 1)
        v = r.verified(0.05, True)
        assert v.e_actual == 0.05 and v.accepted is True
        assert r.e_actual is None  # original untouched
