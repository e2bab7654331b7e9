"""Amplitude-amplification search over the discretized configuration space.

The oracle is a diagonal phase operator driven by the cost table: basis
states whose cost is within the threshold (boundary inclusive, so an exact
zero-cost solution is marked even at epsilon = 0) get their amplitude sign
flipped. Diffusion reflects amplitudes about their mean. The solution count
m is read exactly off the cost table rather than estimated by quantum
counting. `iteration_count` is the one rule for the rounds K, which the
search runs and the sweep reports: K = floor(pi/4 * sqrt(M/m)) while
m <= M/2 (so K >= 1), and K = 0 once m > M/2, where amplification
degenerates and the uniform state is sampled directly.

`search_with_state` is the one search entry point. It computes the amplified
state in closed form (`amplified_state`): K rounds cost O(M), not O(K * M).
`apply_oracle` and `apply_diffusion` are the gate-level rounds, kept as the
reference that the tests check the closed form against; no pipeline path
calls them.

`threshold_ladder` is the one adaptive threshold schedule and reads only the
cost floor; `verify` uses the analytic error that the harness tabulates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Tuple

import numpy as np

from . import qsim
from .encoding import ParamGrid, decode
from .kinematics import PoseWeights
from .qml import configuration_errors


class NoSolutionError(RuntimeError):
    """No basis state satisfies the threshold; raise epsilon and retry."""


@dataclass(frozen=True)
class SearchResult:
    index: int
    bitstring: str
    params: Optional[np.ndarray]
    marked_probability: float
    queries: int
    epsilon: float
    solutions: int
    e_actual: Optional[float] = None
    accepted: Optional[bool] = None

    def verified(self, e_actual: float, accepted: bool) -> "SearchResult":
        return replace(self, e_actual=e_actual, accepted=accepted)


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


def success_probability_analytic(M: int, m: int, K: int) -> float:
    """sin^2((2K + 1) * arcsin(sqrt(m / M)))."""
    if not 1 <= m <= M:
        raise ValueError(f"need 1 <= m <= M, got m={m}, M={M}")
    theta = math.asin(math.sqrt(m / M))
    return math.sin((2 * K + 1) * theta) ** 2


def apply_oracle(state: qsim.StateVector, marked: np.ndarray) -> qsim.StateVector:
    """Flip the amplitude sign on marked indices (the diagonal phase oracle)."""
    if np.shape(marked) != (state.dim,):
        raise ValueError(
            f"marked mask of shape {np.shape(marked)} does not match state dim {state.dim}"
        )
    return qsim.StateVector(state.n_qubits, np.where(marked, -state.amps, state.amps))


def apply_diffusion(state: qsim.StateVector) -> qsim.StateVector:
    """Reflect amplitudes about their mean: a_k <- 2*mean(a) - a_k."""
    amps = state.amps
    return qsim.StateVector(state.n_qubits, 2.0 * amps.mean() - amps)


def amplified_state(n_qubits: int, marked: np.ndarray, iterations: int) -> qsim.StateVector:
    """Uniform superposition after `iterations` oracle+diffusion rounds, in closed form.

    The rounds never leave the plane of the uniform marked and uniform unmarked
    states, so the result holds two amplitude values. With sin(theta) =
    sqrt(m/M), K rounds leave sin((2K+1) theta)/sqrt(m) on every marked index
    and cos((2K+1) theta)/sqrt(M-m) on every unmarked one (Boyer, Brassard,
    Hoyer and Tapp 1998). With nothing marked the state stays uniform; with
    everything marked each round negates it. The amplitudes are real and are
    stored as float64. `apply_oracle` and `apply_diffusion` are the gate-level
    reference that the tests compare this against.
    """
    qsim.check_capacity(n_qubits)
    M = 1 << n_qubits
    marked = np.asarray(marked, dtype=bool)
    if marked.shape != (M,):
        raise ValueError(f"marked mask of shape {marked.shape} does not match {M} states")
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    m = int(np.count_nonzero(marked))
    if m == 0:
        a = b = 1.0 / math.sqrt(M)
    elif m == M:
        a = b = (-1.0) ** iterations / math.sqrt(M)
    else:
        angle = (2 * iterations + 1) * math.asin(math.sqrt(m / M))
        a = math.sin(angle) / math.sqrt(m)
        b = math.cos(angle) / math.sqrt(M - m)
    return qsim.StateVector(n_qubits, np.where(marked, a, b))


def _best_outcome(counts: dict) -> int:
    """Highest count, ties broken by lowest index."""
    return min(counts, key=lambda k: (-counts[k], k))


def search_with_state(grid: ParamGrid, costs: np.ndarray, epsilon: float, shots: int,
                      seed: int) -> Tuple[SearchResult, qsim.StateVector]:
    """Mark {k : costs[k] <= epsilon}, amplify for `iteration_count` rounds and
    measure; returns the modal outcome and the pre-measurement state."""
    grid.check_capacity()
    N, M = grid.total_qubits, grid.size
    costs = np.asarray(costs, dtype=float)
    if costs.shape != (M,):
        raise ValueError(f"cost table must have length {M}")
    if epsilon < 0:
        raise ValueError("epsilon must be non-negative")
    marked = costs <= epsilon
    m = int(np.count_nonzero(marked))
    K = iteration_count(M, m)
    state = amplified_state(N, marked, K)
    counts = qsim.measure(state, shots, seed)
    best = _best_outcome(counts)
    marked_hits = sum(c for k, c in counts.items() if marked[k])
    result = SearchResult(
        index=best,
        bitstring=format(best, f"0{N}b"),
        params=decode(grid, best),
        marked_probability=marked_hits / shots,
        queries=K,
        epsilon=epsilon,
        solutions=m,
    )
    return result, state


def shrink_schedule(costs: np.ndarray, epsilon0: float, shrink: float) -> list:
    """Geometric threshold ladder: shrink until the next step falls below the floor."""
    if not 0 < shrink < 1:
        raise ValueError("shrink factor must be in (0, 1)")
    floor = float(np.min(costs))
    if not epsilon0 >= floor:
        raise ValueError("epsilon0 must be at least the minimum cost")
    levels = [epsilon0]
    while True:
        nxt = levels[-1] * shrink
        if nxt == levels[-1] or nxt < floor:
            return levels
        levels.append(nxt)


def minimal_epsilon(costs: np.ndarray, epsilon_hi: float) -> float:
    """The smallest threshold still marking a state: the table floor, and the
    last step of `threshold_ladder`, which isolates the bit-exact minimum-cost
    set below the geometric steps."""
    floor = float(np.min(costs))
    if not epsilon_hi >= floor:
        raise NoSolutionError("refinement started from an empty threshold")
    return floor


def threshold_ladder(costs: np.ndarray, epsilon0: Optional[float], shrink: float) -> list:
    """Thresholds of the adaptive search, loosest first.

    Starts at epsilon0 (None: 10x the table floor), shrinks geometrically
    while a state stays marked, and ends at the table floor, the smallest
    threshold that still marks a state (`minimal_epsilon`), so the last search
    marks exactly the grid minimum. Only the floor of the table is read.
    """
    floor = float(np.min(costs))
    if epsilon0 is None:
        epsilon0 = 10.0 * floor if floor > 0 else 0.0
    if not math.isfinite(epsilon0):
        raise ValueError(f"epsilon0 must be finite, got {epsilon0!r}")
    if epsilon0 < floor:
        raise NoSolutionError(
            f"epsilon0={epsilon0} marks no configuration (cost floor {floor}); "
            "raise epsilon, coarsen the grid, or retrain the surrogate"
        )
    levels = shrink_schedule(costs, epsilon0, shrink)
    last = minimal_epsilon(costs, levels[-1])
    if last < levels[-1]:
        levels.append(last)
    return levels


def verify(index: int, grid: ParamGrid, model, task,
           weights: PoseWeights) -> Tuple[float, bool]:
    """Validate a measured bitstring against the analytical kinematics.

    Returns (e_actual, accepted); rejection is a result, not an error. The
    task must carry its verification tolerance.
    """
    if task.tolerance is None:
        raise ValueError("task has no verification tolerance set")
    z = decode(grid, index)
    e = float(configuration_errors(model, grid.names(), z[None, :], task, weights)[0])
    return e, bool(e <= task.tolerance)
