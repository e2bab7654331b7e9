"""Amplitude-amplification search over the discretized configuration space.

A marked set is the sorted indices of the basis states whose cost is within
the threshold (boundary inclusive, so an exact zero-cost solution is marked
even at epsilon = 0); its size m is exact, not estimated by quantum
counting. The oracle flips their amplitude signs and diffusion reflects
amplitudes about their mean; this module runs both only in closed form.
`iteration_count` is the one rule for the
rounds K, which the search runs and the sweep reports: K = floor(pi/4 *
sqrt(M/m)) while m <= M/2 (so K >= 1), and K = 0 once m > M/2, where
amplification degenerates and the uniform state is sampled directly.

`search_with_state` is the one search entry point; it takes a marked set,
never the cost table, and returns the run report's "result" dict.
`adaptive_search` is the one loop over thresholds: it reads the table, marks
at the first threshold, narrows the marked set level by level, and builds the
report's step rows. `amplified_state` gives the state after K rounds in
closed form as two amplitude values and the marked probability
sin^2((2K+1) theta), which the search samples and takes <C> from without
building a 2^N array. The state builds its dense `amps` only when they are
read: perfbench's query counter reads them, and the tests' gate-level oracle
and diffusion check them.

`threshold_ladder` is the one threshold schedule; it reads the cost floor
(on a zero floor also the least positive cost). `verify` checks the answer's
analytic error, one row of the kinematics, against the task tolerance.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from . import qsim
from .encoding import ParamGrid, decode
from .kinematics import PoseWeights
from .qml import configuration_errors


class NoSolutionError(RuntimeError):
    """No basis state satisfies the threshold; raise epsilon and retry."""


STEP_KEYS = ("step", "epsilon", "solutions", "iterations", "expectation", "best_index",
             "best_cost")  # of each report "steps" row, one per threshold step


def count_solutions(costs: np.ndarray, epsilon: float) -> int:
    """Exact cardinality of {k : costs[k] <= epsilon}."""
    return int(np.count_nonzero(np.asarray(costs) <= epsilon))


def iteration_count(M: int, m: int) -> int:
    """K = floor(pi/4 * sqrt(M/m)), which is >= 1 while m <= M/2; 0 once m > M/2."""
    if m == 0:
        raise NoSolutionError("no marked states; raise epsilon")
    if not 1 <= m <= M:
        raise ValueError(f"need 1 <= m <= M, got m={m}, M={M}")
    if m > M / 2:
        return 0  # amplification degenerates; sample the uniform state directly
    return math.floor(math.pi / 4 * math.sqrt(M / m))


class AmplifiedState:
    """A Grover state as two amplitude values: `a` on each of the m sorted
    `marked` indices, `b` on the M - m others; a marked index is hit with
    probability `p_marked`. Its dense `amps` are built on each read."""

    def __init__(self, n_qubits: int, marked: np.ndarray, a: float, b: float,
                 p_marked: float):
        self.n_qubits, self.marked, self.a, self.b = n_qubits, marked, a, b
        self.p_marked = p_marked

    @property
    def dim(self) -> int:
        return 1 << self.n_qubits

    @property
    def amps(self) -> np.ndarray:
        amps = np.full(self.dim, self.b)
        amps[self.marked] = self.a
        return amps

    def __repr__(self) -> str:  # builds no `amps`, nor does ==
        return (f"AmplifiedState(n_qubits={self.n_qubits}, m={self.marked.size}, "
                f"a={self.a!r}, b={self.b!r}, p_marked={self.p_marked!r})")

    def __eq__(self, other) -> bool:
        return (isinstance(other, AmplifiedState) and repr(self) == repr(other)
                and np.array_equal(self.marked, other.marked))

    def sample(self, shots: int, seed: int) -> Tuple[np.ndarray, int]:
        """`shots` basis indices drawn from |amplitude|^2 (seeded PCG64) and how
        many are marked: a binomial count of hits, uniform over the marked
        indices, then uniform ranks k < M - m among the unmarked, where rank k is
        index k plus the count of marked j with marked[j] - j (unmarked below it) <= k."""
        if shots < 1:
            raise ValueError("shots must be >= 1")
        rng, m = np.random.default_rng(seed), self.marked.size
        hits = rng.binomial(shots, self.p_marked)
        ranks = rng.integers(0, self.dim - m, shots - hits)
        unmarked = np.searchsorted(self.marked - np.arange(m), ranks, side="right") + ranks
        return np.concatenate([self.marked[rng.integers(0, m, hits)], unmarked]), int(hits)

    def expectation(self, costs: np.ndarray, total: float) -> float:
        """<C> = a^2 sum_marked c + b^2 (total - sum_marked c), where `total` is
        costs.sum(), which a caller that searches one table often sums once."""
        marked = float(np.sum(costs[self.marked]))
        return self.a * self.a * marked + self.b * self.b * (total - marked)


def amplified_state(n_qubits: int, marked: np.ndarray, iterations: int) -> AmplifiedState:
    """Uniform superposition after `iterations` rounds marking `marked`, in closed form.

    The rounds never leave the plane of the uniform marked and uniform unmarked
    states, so the result holds two amplitude values. With sin(theta) =
    sqrt(m/M), K rounds leave sin((2K+1) theta)/sqrt(m) on every marked index
    and cos((2K+1) theta)/sqrt(M-m) on every unmarked one (Boyer, Brassard,
    Hoyer and Tapp 1998). With nothing marked the state stays uniform; with
    everything marked each round negates it.
    """
    qsim.check_capacity(n_qubits)
    M, m = 1 << n_qubits, marked.size
    # sorted, so its ends bound every index; a boolean mask is refused
    if marked.ndim != 1 or marked.dtype.kind != "i" or \
            m and not 0 <= marked[0] <= marked[-1] < M:
        raise ValueError(f"marked must be sorted integer indices in [0, {M}) on one axis")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    angle = (2 * iterations + 1) * math.asin(math.sqrt(m / M))
    # m = 0 or M leaves one part empty: its value is the other's, and at m = M
    # sin((2K+1) pi/2) rounds to (-1)^K
    a = math.sin(angle) / math.sqrt(m) if m else 1.0 / math.sqrt(M)
    b = math.cos(angle) / math.sqrt(M - m) if m < M else a
    return AmplifiedState(n_qubits, marked, a, b, math.sin(angle) ** 2)


def search_with_state(grid: ParamGrid, marked: np.ndarray, epsilon: float, shots: int,
                      seed: int) -> Tuple[dict, AmplifiedState]:
    """Amplify the sorted indices `marked`, those of {k : costs[k] <= epsilon},
    for `iteration_count` rounds and sample; returns the report's "result" dict of
    the modal outcome (highest count, then lowest index) and the two-value state,
    whose `expectation` gives the step's <C>. `epsilon` is only recorded."""
    N, K = grid.total_qubits, iteration_count(grid.size, marked.size)
    state = amplified_state(N, marked, K)
    picks, hits = state.sample(shots, seed)
    outcomes, counts = np.unique(picks, return_counts=True)
    best = int(outcomes[np.argmax(counts)])
    return {"index": best, "bitstring": format(best, f"0{N}b"),
            "params": decode(grid, best).tolist(), "marked_probability": hits / shots,
            "queries": K, "epsilon": epsilon, "solutions": marked.size}, state


def adaptive_search(grid: ParamGrid, costs: np.ndarray, levels: list, shots: int,
                    seed: int) -> Tuple[list, dict]:
    """One search per threshold of `levels`, loosest first, each marking the
    sorted indices of {k : costs[k] <= level}, narrowed from the level before.

    Returns the step rows, keyed by STEP_KEYS (step 0 is the uniform state, then
    one row per search), and the last search's result dict. The table is
    compared with a threshold once, at `levels[0]`, and summed once for <C>.
    """
    marked = np.flatnonzero(costs <= levels[0])  # the table's one threshold read
    total = float(costs.sum())  # each step's <C> reuses it
    steps = [dict(zip(STEP_KEYS, (0, levels[0], marked.size, 0, total / grid.size, None,
                                  None)))]
    for j, eps in enumerate(levels, start=1):
        marked = marked[costs[marked] <= eps]  # each level narrows the one before
        result, state = search_with_state(grid, marked, eps, shots, seed)
        steps.append(dict(zip(STEP_KEYS, (j, eps, result["solutions"], result["queries"],
                                          state.expectation(costs, total), result["index"],
                                          float(costs[result["index"]])))))
    return steps, result


def shrink_schedule(floor: float, epsilon0: float, shrink: float) -> list:
    """Geometric threshold ladder: shrink until the next step falls below the
    cost table's floor."""
    if not 0 < shrink < 1:
        raise ValueError("shrink factor must be in (0, 1)")
    if not epsilon0 >= floor:
        raise ValueError("epsilon0 must be at least the minimum cost")
    levels = [epsilon0]
    while True:
        nxt = levels[-1] * shrink
        if nxt == levels[-1] or nxt < floor:
            return levels
        levels.append(nxt)


def minimal_epsilon(floor: float, epsilon_hi: float) -> float:
    """The smallest threshold still marking a state: the cost table's floor,
    and the last step of `threshold_ladder`, which isolates the bit-exact
    minimum-cost set below the geometric steps."""
    if not epsilon_hi >= floor:
        raise NoSolutionError("refinement started from an empty threshold")
    return floor


def threshold_ladder(costs: np.ndarray, epsilon0: Optional[float], shrink: float) -> list:
    """Thresholds of the adaptive search, loosest first.

    Starts at epsilon0 (None: 10x the table floor), shrinks geometrically
    while a state stays marked, and ends at the table floor, the smallest
    threshold that still marks a state (`minimal_epsilon`), so the last search
    marks exactly the grid minimum. Only the floor of the table is read, once,
    and on a zero floor the least positive cost, where the halving stops. A
    floor, or a default start, that is not finite raises NoSolutionError.
    """
    floor = float(np.min(costs))
    if not math.isfinite(10.0 * floor if epsilon0 is None else floor):
        raise NoSolutionError(f"cost floor {floor} leaves no finite threshold; move the target")
    if epsilon0 is None:
        epsilon0 = 10.0 * floor if floor > 0 else 0.0
    if not math.isfinite(epsilon0):
        raise ValueError(f"epsilon0 must be finite, got {epsilon0!r}")
    if epsilon0 < floor:
        raise NoSolutionError(
            f"epsilon0={epsilon0} marks no configuration (cost floor {floor}); "
            "raise epsilon, coarsen the grid, or retrain the surrogate")
    lowest = floor if floor > 0 else float(np.min(costs, where=costs > 0, initial=math.inf))
    levels = shrink_schedule(min(lowest, epsilon0), epsilon0, shrink)
    last = minimal_epsilon(floor, levels[-1])
    if last < levels[-1]:
        levels.append(last)
    return levels


def verify(index: int, grid: ParamGrid, model, task, weights: PoseWeights) -> Tuple[float, bool]:
    """Validate a measured bitstring against the analytical kinematics, on its row of
    Python floats. Returns (e_actual, accepted); rejection is a result, not an error.
    The task must carry its verification tolerance."""
    if task.tolerance is None:
        raise ValueError("task has no verification tolerance set")
    e = float(configuration_errors(model, grid.names(), decode(grid, index), task, weights))
    return e, bool(e <= task.tolerance)
