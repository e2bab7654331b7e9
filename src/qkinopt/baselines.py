"""Classical optimizers over the continuous objectives, instrumented with
exact evaluation counts for query-based comparison against the quantum search.

The objective holds the box, and every optimizer's points, PSO's swarm
included, go through `Objective.project`: an angular coordinate whose range is
one full period is wrapped modulo 2*pi, every other one is clamped. Every
evaluation increments the counter exactly once. Local methods (simplex,
quasi-Newton) are meant to run multi-start on the multimodal landscapes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .encoding import ParamGrid, decode_all, full_turn, grid_blocks

SIMPLEX_DIAMETER_TOL, SIMPLEX_SPREAD_TOL = 1e-8, 1e-10
GRAD_TOL, FD_STEP, ARMIJO_C = 1e-8, 1e-6, 1e-4
PSO_INERTIA, PSO_COGNITIVE, PSO_SOCIAL = 0.7, 1.5, 1.5


class Objective:
    """Counting wrapper around a cost function on a box domain."""

    def __init__(self, bounds: Sequence[Tuple[float, float]],
                 fn: Callable[[np.ndarray], float],
                 angular: Optional[Sequence[bool]] = None):
        self.lo, self.hi = np.array(bounds, dtype=float).reshape(-1, 2).T
        self.fn = fn
        angular = np.zeros(self.lo.size, bool) if angular is None else np.array(angular, bool)
        if angular.shape != self.lo.shape:
            raise ValueError("angular flags must match bounds")
        self.evaluations = 0
        # built once for `project`: full-period angular coordinates wrap (clamp bounds +-inf)
        self._wrap = angular & full_turn(self.lo, self.hi)
        self._clamp_lo = np.where(self._wrap, -math.inf, self.lo)
        self._clamp_hi = np.where(self._wrap, math.inf, self.hi)

    def project(self, x: np.ndarray) -> np.ndarray:
        """Wrap full-period angular coordinates into one period, clamp the rest to the box,
        for one point or a (..., d) batch: bit for bit lo + np.mod(x - lo, 2 pi) and
        min(max(x, lo), hi) (np.clip may give 0.0 for -0.0)."""
        out = np.array(x, dtype=float)
        np.copyto(out, self._clamp_lo, where=self._clamp_lo > out)
        np.copyto(out, self._clamp_hi, where=self._clamp_hi < out)
        wrapped = out - self.lo
        np.mod(wrapped, math.tau, out=wrapped)
        np.copyto(out, wrapped + self.lo, where=self._wrap)
        return out

    def evaluate(self, x: np.ndarray) -> float:
        self.evaluations += 1
        return float(self.fn(self.project(x)))

    def random_start(self, rng: np.random.Generator) -> np.ndarray:
        return rng.uniform(self.lo, self.hi)


@dataclass
class OptRun:
    method: str
    best_x: np.ndarray
    best_cost: float
    evaluations: int
    trace: List[float] = field(default_factory=list)
    converged: bool = False


def nelder_mead(obj: Objective, start: Sequence[float], max_evals: int) -> OptRun:
    """Downhill simplex with reflection/expansion/contraction/shrink
    coefficients (1, 2, 0.5, 0.5).

    Stops once the simplex diameter and the cost spread are both below
    SIMPLEX_DIAMETER_TOL and SIMPLEX_SPREAD_TOL (the spread alone can trigger
    ~1e-5 parameter error on flat quadratics), or when the evaluation budget
    runs out.
    """
    d = obj.lo.size
    x0 = np.asarray(start, dtype=float)
    start_evals = obj.evaluations

    simplex = [x0]
    for i in range(d):
        step = 0.05 * (obj.hi[i] - obj.lo[i])
        vertex = x0.copy()
        vertex[i] += step if step > 0 else 0.05
        simplex.append(vertex)
    simplex = np.array(simplex)
    values = np.array([obj.evaluate(v) for v in simplex])

    trace = [float(values.min())]
    converged = False
    while obj.evaluations - start_evals < max_evals:
        order = np.argsort(values, kind="stable")
        simplex, values = simplex[order], values[order]
        diameter = max(np.linalg.norm(v - simplex[0]) for v in simplex[1:])
        if diameter < SIMPLEX_DIAMETER_TOL and values[-1] - values[0] < SIMPLEX_SPREAD_TOL:
            converged = True
            break

        centroid = simplex[:-1].mean(axis=0)
        worst = simplex[-1]
        reflected = centroid + 1.0 * (centroid - worst)
        f_r = obj.evaluate(reflected)
        if f_r < values[0]:
            expanded = centroid + 2.0 * (centroid - worst)
            f_e = obj.evaluate(expanded)
            if f_e < f_r:
                simplex[-1], values[-1] = expanded, f_e
            else:
                simplex[-1], values[-1] = reflected, f_r
        elif f_r < values[-2]:
            simplex[-1], values[-1] = reflected, f_r
        else:
            contracted = centroid + 0.5 * (worst - centroid)
            f_c = obj.evaluate(contracted)
            if f_c < values[-1]:
                simplex[-1], values[-1] = contracted, f_c
            else:
                for i in range(1, d + 1):
                    simplex[i] = simplex[0] + 0.5 * (simplex[i] - simplex[0])
                    values[i] = obj.evaluate(simplex[i])
        trace.append(min(trace[-1], float(values.min())))

    best = int(np.argmin(values))
    return OptRun("nelder_mead", obj.project(simplex[best]), float(values[best]),
                  obj.evaluations - start_evals, trace, converged)


def _fd_gradient(obj: Objective, x: np.ndarray) -> np.ndarray:
    g = np.empty(x.size)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = FD_STEP
        g[i] = (obj.evaluate(x + e) - obj.evaluate(x - e)) / (2 * FD_STEP)
    return g


def quasi_newton(obj: Objective, start: Sequence[float], max_evals: int) -> OptRun:
    """BFGS with central-finite-difference gradients (FD_STEP) and a backtracking
    (Armijo ARMIJO_C, step-halving) line search. Stops on gradient norm (GRAD_TOL) or budget."""
    x = np.asarray(start, dtype=float)
    d = x.size
    start_evals = obj.evaluations
    H = np.eye(d)
    f = obj.evaluate(x)
    g = _fd_gradient(obj, x)
    trace = [f]
    converged = False
    while obj.evaluations - start_evals < max_evals:
        if np.linalg.norm(g) < GRAD_TOL:
            converged = True
            break
        p = -H @ g
        slope = float(g @ p)
        if slope >= 0:  # stale curvature; reset to steepest descent
            H = np.eye(d)
            p = -g
            slope = float(g @ p)
        t = 1.0
        f_new, x_new = f, x
        for _ in range(40):
            x_new = x + t * p
            f_new = obj.evaluate(x_new)
            if f_new <= f + ARMIJO_C * t * slope:
                break
            t *= 0.5
            if obj.evaluations - start_evals >= max_evals:
                break
        if f_new >= f:
            converged = np.linalg.norm(g) < 1e2 * GRAD_TOL
            break
        g_new = _fd_gradient(obj, x_new)
        s = x_new - x
        y = g_new - g
        sy = float(s @ y)
        if sy > 1e-12:
            rho = 1.0 / sy
            I = np.eye(d)
            H = (I - rho * np.outer(s, y)) @ H @ (I - rho * np.outer(y, s)) \
                + rho * np.outer(s, s)
        x, f, g = x_new, f_new, g_new
        trace.append(min(trace[-1], f))
    return OptRun("quasi_newton", obj.project(x), f,
                  obj.evaluations - start_evals, trace, converged)


def pso(obj: Objective, swarm_size: int = 30, iterations: int = 200,
        seed: int = 0) -> OptRun:
    """Particle swarm moved through `Objective.project`, which wraps full turns; deterministic
    per seed. Runs every iteration, swarm_size * (iterations + 1) evaluations in all."""
    if swarm_size < 2:
        raise ValueError("swarm must have at least 2 particles")
    rng = np.random.default_rng(seed)
    d = obj.lo.size
    start_evals = obj.evaluations

    x = rng.uniform(obj.lo, obj.hi, size=(swarm_size, d))
    v = np.zeros_like(x)
    pbest = x.copy()
    pcost = np.array([obj.evaluate(xi) for xi in x])
    gbest_i = int(np.argmin(pcost))
    gbest, gcost = pbest[gbest_i].copy(), float(pcost[gbest_i])
    trace = [gcost]
    for _ in range(iterations):
        r1 = rng.random((swarm_size, d))
        r2 = rng.random((swarm_size, d))
        v = (PSO_INERTIA * v + PSO_COGNITIVE * r1 * (pbest - x)
             + PSO_SOCIAL * r2 * (gbest - x))
        x = obj.project(x + v)
        for i in range(swarm_size):
            c = obj.evaluate(x[i])
            if c < pcost[i]:
                pbest[i], pcost[i] = x[i].copy(), c
                if c < gcost:
                    gbest, gcost = x[i].copy(), float(c)
        trace.append(gcost)
    return OptRun("pso", obj.project(gbest), gcost,
                  obj.evaluations - start_evals, trace, True)


def multi_start(method: Callable[..., OptRun], obj: Objective, n_starts: int = 5,
                seed: int = 0, **kwargs) -> OptRun:
    """Run a local method from seeded uniform-random starts; report the pooled
    running best with summed evaluation counts."""
    rng = np.random.default_rng(seed)
    best: Optional[OptRun] = None
    trace: List[float] = []
    total_evals = 0
    converged = False
    name = ""
    for _ in range(n_starts):
        run = method(obj, obj.random_start(rng), **kwargs)
        name = run.method
        total_evals += run.evaluations
        converged = converged or run.converged
        for value in run.trace:
            trace.append(value if not trace else min(trace[-1], value))
        if best is None or run.best_cost < best.best_cost:
            best = run
    assert best is not None
    return OptRun(name, best.best_x, best.best_cost, total_evals, trace, converged)


def exhaustive_scan(grid: ParamGrid,
                    cost_fn: Callable[[np.ndarray], np.ndarray]) -> Tuple[int, float, int]:
    """Exact argmin over all 2^N grid configurations, one `grid_blocks` block at
    a time; ties go to the lowest index. Returns (index, min cost, 2^N evaluations).
    Raises CapacityError past the qubit cap, before any row is decoded."""
    grid.check_capacity()
    best, best_cost = 0, math.inf
    for start, stop, _ in grid_blocks(grid):
        costs = np.asarray(cost_fn(decode_all(grid, np.arange(start, stop))), dtype=float)
        if costs.shape != (stop - start,):
            raise ValueError("cost function must return one cost per configuration")
        k = int(np.argmin(costs))
        if start == 0 or costs[k] < best_cost:  # an equal later cost keeps the lower index
            best, best_cost = start + k, float(costs[k])
    return best, best_cost, grid.size
