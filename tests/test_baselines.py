import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkinopt import baselines, encoding, harness, qsim
from qkinopt.baselines import (
    Objective,
    OptRun,
    exhaustive_scan,
    multi_start,
    nelder_mead,
    pso,
    quasi_newton,
)
from qkinopt.encoding import ParamGrid, ParamSpec, decode
from qkinopt.kinematics import PoseTarget
from reference import nelder_mead as reference_nelder_mead
from tests_support import CONFIGS, shipped_case

BOX = [(-5.0, 5.0), (-5.0, 5.0)]


def shifted_sphere(x):
    return float((x[0] - 1.0) ** 2 + (x[1] - 1.0) ** 2)


def make_objective(fn=shifted_sphere, bounds=BOX, angular=None):
    return Objective(bounds, fn, angular)


class TestObjective:
    def test_counter_increments_exactly_once_per_call(self):
        calls = []

        def fn(x):
            calls.append(x.copy())
            return float(x @ x)

        obj = make_objective(fn)
        for i in range(7):
            obj.evaluate(np.array([0.1 * i, -0.2]))
        assert obj.evaluations == 7 == len(calls)

    def test_clamps_non_angular(self):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return 0.0

        obj = make_objective(fn, bounds=[(0.0, 1.0)])
        obj.evaluate(np.array([4.2]))
        obj.evaluate(np.array([-3.0]))
        assert seen[0][0] == 1.0 and seen[1][0] == 0.0

    def test_wraps_angular(self):
        seen = []

        def fn(x):
            seen.append(float(x[0]))
            return 0.0

        obj = Objective([(0.0, 2 * math.pi)], fn, angular=[True])
        obj.evaluate(np.array([2 * math.pi + 0.3]))
        obj.evaluate(np.array([-0.3]))
        assert seen[0] == pytest.approx(0.3)
        assert seen[1] == pytest.approx(2 * math.pi - 0.3)

    def test_angular_flags_length_checked(self):
        with pytest.raises(ValueError):
            Objective(BOX, shifted_sphere, angular=[True])


def reference_project(bounds, angular, x):
    """The per-coordinate projection that the array form replaced: an angular
    coordinate wraps only when its range is one full period."""
    out = np.array(x, dtype=float)
    for i, ((lo, hi), ang) in enumerate(zip(bounds, angular)):
        if ang and abs(hi - lo - math.tau) <= 1e-12:
            out[i] = lo + np.mod(out[i] - lo, math.tau)
        else:
            out[i] = min(max(out[i], lo), hi)
    return out


def draw_box(data, d):
    """Bounds (reversed boxes and signed zeros among them) and angular flags."""
    bounds = []
    for _ in range(d):
        lo = data.draw(st.floats(-10.0, 10.0) | st.sampled_from([0.0, -0.0, -math.pi]))
        hi = lo + data.draw(st.floats(1e-3, math.tau) | st.sampled_from([math.tau, -1.0]))
        bounds.append((lo, hi))
    return bounds, data.draw(st.lists(st.booleans(), min_size=d, max_size=d))


def draw_point(data, bounds):
    # inside, at and just beyond each bound (by 1e-9, by 1e-20, by one ulp), signed zeros,
    # subnormals, far out up to the largest float, inf and NaN: where Python's float % and
    # comparisons could part from numpy's
    return [data.draw(st.floats(-1e4, 1e4) | st.sampled_from(
        [lo, hi, -0.0, 0.0, lo - 1e-9, hi + 1e-9, lo - 1e-20, np.nextafter(hi, math.inf),
         5e-324, -5e-324, 1e300, -1e300, sys.float_info.max, -sys.float_info.max,
         math.inf, -math.inf, math.nan]))
        for lo, hi in bounds]


class TestProjectMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(st.data(), st.integers(0, 6))
    def test_bit_equal(self, data, d):
        bounds, angular = draw_box(data, d)
        x = draw_point(data, bounds)
        obj = Objective(bounds, lambda z: 0.0, angular)
        given_x = np.array(x)
        with np.errstate(invalid="ignore"):  # an infinite angle wraps to NaN
            actual = obj.project(given_x)
            expected = reference_project(bounds, angular, x)
        assert actual.tobytes() == expected.tobytes()
        assert given_x.tobytes() == np.array(x).tobytes()  # the input is not written

    @settings(max_examples=200, deadline=None)
    @given(st.data(), st.integers(0, 6), st.integers(0, 5))
    def test_batch_is_row_by_row(self, data, d, rows):
        bounds, angular = draw_box(data, d)
        batch = [draw_point(data, bounds) for _ in range(rows)]
        obj = Objective(bounds, lambda z: 0.0, angular)
        given_x = np.array(batch).reshape(rows, d)
        with np.errstate(invalid="ignore"):
            actual = obj.project(given_x)
            expected = [reference_project(bounds, angular, x) for x in batch]
        assert actual.shape == (rows, d)
        assert actual.tobytes() == np.array(expected).reshape(rows, d).tobytes()
        assert given_x.tobytes() == np.array(batch).reshape(rows, d).tobytes()


@pytest.mark.parametrize("bounds, x", [
    ([(0.0, 1.0)], [0.5, 0.2]),  # one lower and upper bound would broadcast over both
    (BOX, [0.5]),
    (BOX, [0.5, 0.2, 0.1]),
])
def test_wrong_length_point_is_refused(bounds, x):
    with pytest.raises(ValueError):
        Objective(bounds, lambda z: 0.0).project(np.array(x))


def test_full_turn_seam_is_not_idempotent():
    # -1e-20 wraps to -1e-20 + 2 pi, which rounds to 2 pi itself, and that wraps to 0.0:
    # so PSO's particles, projected as a batch, must be projected again when evaluated,
    # or a particle on the seam would be evaluated at 2 pi rather than at 0.0
    obj = Objective([(0.0, math.tau)], lambda z: 0.0, angular=[True])
    once = obj.project(np.array([-1e-20]))
    assert once.tolist() == [math.tau]
    assert obj.project(once).tolist() == [0.0]


def assert_within_box(points, bounds):
    for p in points:
        for v, (lo, hi) in zip(p, bounds):
            assert lo - 1e-12 <= v <= hi + 1e-12


def test_baselines_stay_on_a_partial_arc():
    # theta1 covers a quarter turn and the target lies outside it: wrapping the arc
    # modulo 2 pi would reach theta1 = 3.785, outside the box, at a cost below its minimum
    config = shipped_case("one_dof")
    grid = ParamGrid((config.grid.specs[0],
                      ParamSpec("theta1", 0.0, math.pi / 2, 5, angular=True)))
    config = harness.CaseConfig(grid, config.model, PoseTarget((-0.8, -0.6)))
    runs = harness.run_baselines(config)
    assert_within_box([run.best_x for run in runs], [(s.lo, s.hi) for s in grid.specs])
    scan = runs[-1]
    assert scan.method == "exhaustive"
    assert all(run.best_cost >= scan.best_cost - 1e-9 for run in runs)


class TestNelderMead:
    def test_finds_quadratic_minimum(self):
        obj = make_objective()
        run = nelder_mead(obj, [0.0, 0.0], max_evals=2000)
        assert np.max(np.abs(run.best_x - [1.0, 1.0])) <= 1e-6
        assert run.converged

    def test_start_at_optimum(self):
        obj = make_objective()
        run = nelder_mead(obj, [1.0, 1.0], max_evals=2000)
        assert run.best_cost == 0.0
        assert run.converged
        assert run.evaluations <= 200

    def test_trace_non_increasing(self):
        obj = make_objective(lambda x: float(np.cos(3 * x[0]) + (x[1] - 0.5) ** 2))
        run = nelder_mead(obj, [2.0, -2.0], max_evals=2000)
        assert all(a >= b for a, b in zip(run.trace, run.trace[1:]))

    def test_budget_exhaustion_flags_unconverged(self):
        obj = make_objective()
        run = nelder_mead(obj, [4.0, -4.0], max_evals=10)
        assert not run.converged
        assert run.evaluations <= 10 + 3  # initial simplex may finish its row

    def test_points_respect_bounds(self):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return shifted_sphere(x)

        run = nelder_mead(make_objective(fn), [4.9, 4.9], max_evals=2000)
        assert_within_box(seen, BOX)
        assert run.evaluations == len(seen)


class RecordingObjective(Objective):
    """An objective that records the bytes of every point it is given, each an ndarray."""

    def __init__(self, *args):
        super().__init__(*args)
        self.points = []

    def evaluate(self, x):
        assert isinstance(x, np.ndarray)
        self.points.append(x.tobytes())
        return super().evaluate(x)


@st.composite
def simplex_cases(draw):
    """(bounds, angular, cost, start, budget) of a Nelder-Mead run on 1 to 4 coordinates
    of a `draw_box` box, full turns and partial arcs among them.

    The cost has plateaus (its value floored to a step), ties at signed zero near its
    center, and, in three cases of four, a NaN or infinite region: a half-space or
    stripes across the diagonal, so that several vertices can lie in it. The budget may
    run out anywhere, a shrink included. A seeded generator draws the center, the
    region's edge and a random start, which hypothesis' floats keep near round numbers."""
    d = draw(st.integers(1, 4))
    bounds, angular = draw_box(draw(st.data()), d)
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    center = rng.uniform(-6.0, 6.0, d).tolist()
    step = draw(st.sampled_from([0.0, 0.25, 1.0, 100.0]))
    zero_radius = draw(st.sampled_from([0.0, 0.5, 4.0]))
    edge = rng.uniform(-6.0, 6.0) if draw(st.integers(0, 3)) else None
    stripe = draw(st.sampled_from([None, 0.01, 0.1, 0.3]))
    edge_value = draw(st.sampled_from([math.nan, math.nan, math.nan, math.inf]))

    def cost(x):
        x = x.tolist()
        height = sum(x)  # the region's coordinate: vertices beside the start share it
        if edge is not None and (height > edge if stripe is None else
                                 (height - edge) % stripe < stripe / 2):
            return edge_value
        r = sum((v - c) ** 2 for v, c in zip(x, center))
        if r < zero_radius:
            return math.copysign(0.0, x[-1])
        return float(np.floor(r / step) * step) if step else r

    start = (rng.uniform(-12.0, 12.0, d).tolist() if draw(st.booleans())
             else draw_point(draw(st.data()), bounds))
    return bounds, angular, cost, start, draw(st.integers(0, 120))


def assert_runs_match(bounds, angular, make_cost, start, max_evals):
    """`nelder_mead` and the numpy reference, each on a fresh objective with a fresh
    cost, evaluate the same points in the same order and return bit-equal `OptRun`
    fields."""
    runs = []
    for method in (nelder_mead, reference_nelder_mead):
        obj = RecordingObjective(bounds, make_cost(), angular)
        with np.errstate(invalid="ignore", over="ignore"):
            runs.append((method(obj, start, max_evals), obj.points))
    (run, points), (expected, expected_points) = runs
    assert points == expected_points
    assert run.best_x.tobytes() == expected.best_x.tobytes()
    assert np.float64(run.best_cost).tobytes() == np.float64(expected.best_cost).tobytes()
    assert run.evaluations == expected.evaluations
    assert np.array(run.trace).tobytes() == np.array(expected.trace).tobytes()
    assert run.converged == expected.converged


class TestNelderMeadMatchesReference:
    """The float-list simplex keeps every `OptRun` field of the numpy one, bit for
    bit, and evaluates the same points in the same order."""

    @settings(max_examples=600, deadline=None)
    @given(simplex_cases())
    def test_bit_equal(self, case):
        bounds, angular, cost, start, max_evals = case
        assert_runs_match(bounds, angular, lambda: cost, start, max_evals)

    # costs in evaluation order, d = 2: the start simplex, a reflection and a failed
    # contraction (5.0, 4.0), then a shrink's two points, and after them 1.5, 2.5, ...
    @pytest.mark.parametrize("script", [
        [1.0, 2.0, 3.0, 5.0, 4.0, 0.0, -0.0],  # a least value tied at signed zero:
        [1.0, 2.0, 3.0, 5.0, 4.0, -0.0, 0.0],  # values.min() takes the last of them
        [1.0, 2.0, 3.0, 5.0, 4.0, 0.5, math.nan],  # a NaN beside a new least value
        [1.0, 2.0, 3.0, 5.0, 4.0, math.nan, math.nan, 0.5, 0.25],  # a NaN kept a step
        [math.nan, 1.0, 2.0, 0.5],  # a NaN in the start simplex
        [2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0],  # all tied: the stable order
        [1.0, math.inf, math.inf, math.inf, math.inf, math.inf, math.nan],
    ])
    def test_scripted_costs(self, script):
        def scripted():
            values = iter(script + [k + 0.5 for k in range(1, 100)])
            return lambda x: next(values)

        for max_evals in range(len(script) + 3):
            assert_runs_match(BOX, None, scripted, [0.5, -0.5], max_evals)


class TestQuasiNewton:
    def test_convex_quadratic_converges_quickly(self):
        A = np.array([[2.0, 0.5], [0.5, 1.0]])

        def fn(x):
            return float(x @ A @ x)

        obj = make_objective(fn)
        run = quasi_newton(obj, [3.0, -2.0], max_evals=2000)
        assert run.converged
        assert len(run.trace) <= 26  # quadratic termination well inside 25 iterations
        assert np.max(np.abs(run.best_x)) <= 1e-6

    def test_gradient_small_at_solution(self):
        obj = make_objective()
        run = quasi_newton(obj, [-3.0, 4.0], max_evals=2000)
        h = 1e-6
        g = np.array([
            (shifted_sphere(run.best_x + [h, 0]) - shifted_sphere(run.best_x - [h, 0])) / (2 * h),
            (shifted_sphere(run.best_x + [0, h]) - shifted_sphere(run.best_x - [0, h])) / (2 * h),
        ])
        assert np.linalg.norm(g) < 1e-6

    def test_start_at_optimum_immediate(self):
        obj = make_objective()
        run = quasi_newton(obj, [1.0, 1.0], max_evals=2000)
        assert run.converged
        assert run.best_cost == 0.0
        assert run.evaluations == 5  # f(x) plus one central-difference gradient

    def test_trace_non_increasing(self):
        obj = make_objective(lambda x: float((x[0] - 0.3) ** 4 + x[1] ** 2))
        run = quasi_newton(obj, [2.0, 2.0], max_evals=2000)
        assert all(a >= b for a, b in zip(run.trace, run.trace[1:]))

    def test_budget_exhaustion(self):
        obj = make_objective()
        run = quasi_newton(obj, [4.0, 4.0], max_evals=8)
        assert run.evaluations <= 8 + 5


class TestPso:
    def test_sphere_two_dimensional(self):
        obj = make_objective(lambda x: float(x @ x))
        run = pso(obj, iterations=200, seed=0)
        assert run.best_cost < 1e-4

    def test_identical_seeds_identical_runs(self):
        r1 = pso(make_objective(), iterations=50, seed=9)
        r2 = pso(make_objective(), iterations=50, seed=9)
        assert r1.trace == r2.trace
        np.testing.assert_array_equal(r1.best_x, r2.best_x)
        assert r1.evaluations == r2.evaluations

    def test_global_best_trace_non_increasing(self):
        obj = make_objective(lambda x: float(np.sin(5 * x[0]) + x[1] ** 2))
        run = pso(obj, iterations=80, seed=4)
        assert all(a >= b for a, b in zip(run.trace, run.trace[1:]))

    def test_positions_respect_bounds(self):
        seen = []

        def fn(x):
            seen.append(x.copy())
            return float(x @ x)

        pso(make_objective(fn), iterations=30, seed=2)
        assert_within_box(seen, BOX)

    def test_swarm_crosses_the_full_turn_seam(self):
        # the shipped dual_arm case at its baseline settings: clamping full-turn angles
        # at the 0 / 2 pi seam stalled this swarm at cost 0.475, above the grid floor 0.0431
        config = harness.load_config(CONFIGS / "dual_arm.json")
        settings = config.baselines
        run = pso(harness.case_objective(config), swarm_size=settings.swarm_size,
                  iterations=settings.pso_iterations, seed=settings.seed)
        assert run.best_cost < 0.0431

    def test_swarm_size_validation(self):
        with pytest.raises(ValueError):
            pso(make_objective(), swarm_size=1)

    def test_runs_every_iteration(self):
        run = pso(make_objective(), swarm_size=10, iterations=5, seed=0)
        assert (run.evaluations, len(run.trace), run.converged) == (60, 6, True)


class TestExhaustiveScan:
    def grid(self):
        return ParamGrid((ParamSpec("a", 0.0, 1.0, 3), ParamSpec("b", 0.0, 1.0, 2)))

    def test_constructed_zero_at_index_seven(self):
        grid = self.grid()
        target = decode(grid, 7)

        def cost_fn(Z):
            return np.sum((Z - target) ** 2, axis=1)

        idx, best, evals = exhaustive_scan(grid, cost_fn)
        assert (idx, best, evals) == (7, 0.0, 32)

    def test_evaluation_count_is_space_size(self):
        _, _, evals = exhaustive_scan(self.grid(), lambda Z: np.ones(len(Z)))
        assert evals == 32

    def test_ties_broken_by_lowest_index(self):
        idx, _, _ = exhaustive_scan(self.grid(), lambda Z: np.ones(len(Z)))
        assert idx == 0

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            exhaustive_scan(self.grid(), lambda Z: np.ones(3))

    def test_tie_across_block_boundary_keeps_lowest_index(self, monkeypatch):
        monkeypatch.setattr(encoding, "BLOCK_BITS", 2)
        table = np.full(32, 2.0)
        table[[6, 9, 30]] = 1.0  # the minimum in three blocks, first in the second
        grid = ParamGrid((ParamSpec("k", 0.0, 31.0, 5),))  # row k decodes to about k
        assert exhaustive_scan(grid, lambda Z: table[np.rint(Z[:, 0]).astype(int)]) == (6, 1.0, 32)

    def test_capacity_error_before_any_row(self, monkeypatch):
        grid = ParamGrid((ParamSpec("a", 0.0, 1.0, 13), ParamSpec("b", 0.0, 1.0, 13)))
        assert grid.total_qubits == 26

        def decoded(*args):
            raise AssertionError("a row was decoded")

        monkeypatch.setattr(baselines, "decode_all", decoded)
        with pytest.raises(qsim.CapacityError):
            exhaustive_scan(grid, decoded)

    @settings(max_examples=150, deadline=None)
    @given(values=st.lists(st.integers(0, 3), min_size=32, max_size=32),
           block_bits=st.integers(0, 5))
    def test_streamed_scan_is_one_shot_argmin(self, values, block_bits):
        table = np.array(values, dtype=float)
        grid = ParamGrid((ParamSpec("k", 0.0, 31.0, 5),))
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "BLOCK_BITS", block_bits)
            found = exhaustive_scan(grid, lambda Z: table[np.rint(Z[:, 0]).astype(int)])
        assert found == (int(np.argmin(table)), table.min(), 32)


class TestMultiStart:
    def test_pools_runs(self):
        obj = make_objective(lambda x: float(np.cos(3 * x[0]) * np.cos(2 * x[1]) + x @ x / 30))
        run = multi_start(nelder_mead, obj, n_starts=5, seed=0, max_evals=400)
        assert isinstance(run, OptRun)
        assert all(a >= b for a, b in zip(run.trace, run.trace[1:]))
        assert run.evaluations == obj.evaluations
        assert run.evaluations >= len(run.trace)

    def test_seeded_starts_reproducible(self):
        r1 = multi_start(nelder_mead, make_objective(), n_starts=3, seed=5, max_evals=2000)
        r2 = multi_start(nelder_mead, make_objective(), n_starts=3, seed=5, max_evals=2000)
        assert r1.best_cost == r2.best_cost
        assert r1.evaluations == r2.evaluations

    def test_first_of_tied_starts_wins_and_trace_pools_the_running_minimum(self):
        # a stub method: each start returns its canned run, tagged with its start point
        canned = [(2.0, [5.0, 2.0], 3, False), (1.0, [4.0, 3.0, 1.0], 4, False),
                  (1.0, [0.5, 1.0], 2, True), (3.0, [3.0], 1, False)]
        starts = []

        def stub(obj, x0):
            cost, trace, evals, converged = canned[len(starts)]
            starts.append(x0)
            return OptRun("stub", x0, cost, evals, trace, converged)

        run = multi_start(stub, make_objective(), n_starts=4, seed=3)
        assert run.method == "stub" and run.best_cost == 1.0
        assert run.best_x is starts[1]  # the second start ties the third and comes first
        assert run.trace == [5.0, 2.0, 2.0, 2.0, 1.0, 0.5, 0.5, 0.5]
        assert (run.evaluations, run.converged) == (10, True)
