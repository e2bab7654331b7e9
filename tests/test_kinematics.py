import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qkinopt import qml
from qkinopt.encoding import ParamGrid, ParamSpec, decode_all
from qkinopt.kinematics import (
    DualArm,
    GraspTask,
    OneLink,
    PoseTarget,
    PoseWeights,
    TwoLink,
    antipodal_points,
    fk_dual,
    fk_one,
    fk_two,
    squared_deviation,
    task_cost,
    task_error,
    wrapped_angle_distance,
)
from qkinopt.qml import configuration_positions, workspace_box


def row_pose_cost(p, p_target, weights, phi=None, phi_target=None):
    """task_cost of one tip position, through a one-row array."""
    phis = None if phi is None else np.array([phi])
    task = PoseTarget(tuple(p_target), phi_target)
    d2 = squared_deviation(task, np.asarray(p, dtype=float)[None, :])
    return float(task_cost(task, d2, phis, weights)[0])


def row_grasp_cost(p1, p2, task):
    """task_cost of one pair of tips, through a one-row array."""
    tips = np.concatenate([p1, p2]).astype(float)[None, :]
    return float(task_cost(task, squared_deviation(task, tips), None, PoseWeights())[0])


class TestFkOne:
    def test_unit_link_zero_angle(self):
        np.testing.assert_allclose(fk_one(1.0, 0.0), [1.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(fk_one(1.0, math.pi / 2), [0.0, 1.0], atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(fk_one(0.5, math.pi), [-0.5, 0.0], atol=1e-15)

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            fk_one(0.0, 1.0)

    def test_broadcasts(self):
        out = fk_one(np.array([1.0, 2.0]), np.array([0.0, 0.0]))
        np.testing.assert_allclose(out, [[1, 0], [2, 0]])


class TestFkTwo:
    def test_straight_arm(self):
        np.testing.assert_allclose(fk_two(1, 1, 0, 0), [2.0, 0.0], atol=1e-15)

    def test_elbow_bend(self):
        # hand evaluation: (cos 90 + cos 0, sin 90 + sin 0) = (1, 1)
        np.testing.assert_allclose(
            fk_two(1, 1, math.pi / 2, -math.pi / 2), [1.0, 1.0], atol=1e-15
        )

    def test_folded(self):
        np.testing.assert_allclose(fk_two(1, 1, 0, math.pi), [0.0, 0.0], atol=1e-12)

    def test_workspace_annulus(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            l1, l2 = rng.uniform(0.1, 2.0, 2)
            r = np.linalg.norm(fk_two(l1, l2, *rng.uniform(0, 2 * math.pi, 2)))
            assert abs(l1 - l2) - 1e-12 <= r <= l1 + l2 + 1e-12

    def test_nonpositive_length(self):
        with pytest.raises(ValueError):
            fk_two(1.0, -0.1, 0.0, 0.0)

    def test_reduces_to_single_link_as_l2_vanishes(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            l1 = rng.uniform(0.2, 2.0)
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            two = fk_two(l1, 1e-15, t1, t2)
            one = fk_one(l1, t1)
            assert np.max(np.abs(two - one)) <= 2e-15


class TestFkDual:
    def test_zero_angles(self):
        model = DualArm()
        p1, p2 = np.split(fk_dual(model, 0.0, 0.0, 0.0, 0.0), 2)
        np.testing.assert_allclose(p1, [-0.8 + 2.0, 0.0])
        np.testing.assert_allclose(p2, [0.8 + 2.0, 0.0])

    def test_mirrored_angles_give_mirrored_tips(self):
        model = DualArm()
        rng = np.random.default_rng(1)
        for _ in range(20):
            ta, tb = rng.uniform(0, 2 * math.pi, 2)
            p1, p2 = np.split(fk_dual(model, ta, tb, math.pi - ta, -tb), 2)
            np.testing.assert_allclose(p2, [-p1[0], p1[1]], atol=1e-12)

    def test_composes_from_fk_two(self):
        model = DualArm(base1=(-1.0, 0.2), base2=(0.7, -0.1),
                        links1=(0.9, 1.1), links2=(1.3, 0.6))
        rng = np.random.default_rng(2)
        q1, q2 = rng.uniform(0, 2 * math.pi, 2), rng.uniform(0, 2 * math.pi, 2)
        p1, p2 = np.split(fk_dual(model, *q1, *q2), 2)
        np.testing.assert_allclose(p1, np.array([-1.0, 0.2]) + fk_two(0.9, 1.1, *q1))
        np.testing.assert_allclose(p2, np.array([0.7, -0.1]) + fk_two(1.3, 0.6, *q2))


class TestOrientationGeodesic:
    """wrapped_angle_distance is the geodesic distance on SO(2)."""

    def test_identical_rotations(self):
        assert wrapped_angle_distance(0.4, 0.4) == 0.0

    def test_half_turn(self):
        assert wrapped_angle_distance(math.pi, 0.0) == pytest.approx(math.pi)

    def test_known_angle(self):
        assert wrapped_angle_distance(0.3, 0.0) == pytest.approx(0.3, abs=1e-12)
        assert wrapped_angle_distance(0.0, 2 * math.pi - 0.3) == pytest.approx(0.3, abs=1e-12)

    def test_symmetry_and_triangle_inequality(self):
        rng = np.random.default_rng(6)
        a, b, c = rng.uniform(-10.0, 10.0, (3, 200))
        d_ab = wrapped_angle_distance(a, b)
        assert np.all(np.abs(d_ab - wrapped_angle_distance(b, a)) <= 1e-12)
        assert np.all((0.0 <= d_ab) & (d_ab <= math.pi))
        assert np.all(wrapped_angle_distance(a, c)
                      <= d_ab + wrapped_angle_distance(b, c) + 1e-12)

    def test_agrees_with_planar_distance_on_so2(self):
        # the SO(3) geodesic arccos((Tr(R1^T R2) - 1) / 2) of two z rotations
        rng = np.random.default_rng(7)
        a, b = rng.uniform(0, 2 * math.pi, (2, 50))
        np.testing.assert_allclose(wrapped_angle_distance(a, b), np.arccos(np.cos(a - b)),
                                   atol=1e-7)


class TestPoseCost:
    def test_zero_at_target(self):
        w = PoseWeights(1.0, 0.0)
        assert row_pose_cost([0.3, 0.4], [0.3, 0.4], w) == 0.0

    def test_unit_offset(self):
        w = PoseWeights(1.0, 0.0)
        assert row_pose_cost([1.0, 0.0], [0.0, 0.0], w) == pytest.approx(1.0)

    def test_combined_position_orientation(self):
        w = PoseWeights(1.0, 1.0)
        # position error^2 = 0.04, angle error 0.1 rad -> 0.04 + 0.01
        assert row_pose_cost([0.2, 0.0], [0.0, 0.0], w, phi=0.1, phi_target=0.0) == pytest.approx(0.05)

    def test_missing_orientation_contract(self):
        with pytest.raises(ValueError):
            row_pose_cost([0, 0], [0, 0], PoseWeights(1.0, 1.0))

    def test_error_is_euclidean_with_orientation_in_quadrature(self):
        tips = np.array([[0.3, 0.4]])
        task = PoseTarget((0.0, 0.0), phi=0.0)
        d2 = squared_deviation(task, tips)
        assert task_error(task, d2, np.array([0.1]), PoseWeights(1.0, 0.0))[0] == 0.5
        assert task_error(task, d2, np.array([1.2]), PoseWeights(1.0, 2.0))[0] \
            == pytest.approx(math.sqrt(0.25 + 1.44))
        # no orientation target: orientation weight and angles are ignored
        untargeted = PoseTarget((0.0, 0.0))
        assert task_error(untargeted, squared_deviation(untargeted, tips), None,
                          PoseWeights(1.0, 2.0))[0] == 0.5

    def test_weights_validation(self):
        with pytest.raises(ValueError):
            PoseWeights(0.0, 0.0)
        with pytest.raises(ValueError):
            PoseWeights(1.0, -0.5)
        with pytest.raises(ValueError):
            PoseWeights(1.0, 0.0, epsilon=0.0)


class TestGraspCost:
    def test_zero_at_ideal_contacts(self):
        task = GraspTask((0.0, 1.2), 0.3)
        assert row_grasp_cost(task.c_ideal1, task.c_ideal2, task) == 0.0

    def test_tenth_meter_offsets(self):
        task = GraspTask((0.0, 1.2), 0.3)
        p1 = np.asarray(task.c_ideal1) + [0.1, 0.0]
        p2 = np.asarray(task.c_ideal2) + [0.0, 0.1]
        assert row_grasp_cost(p1, p2, task) == pytest.approx(0.02)

    def test_composes_from_pose_costs(self):
        task = GraspTask((0.2, 1.5), 0.4, axis=0.3)
        w = PoseWeights(1.0, 0.0)
        rng = np.random.default_rng(8)
        p1, p2 = rng.normal(size=2), rng.normal(size=2)
        expected = row_pose_cost(p1, task.c_ideal1, w) + row_pose_cost(p2, task.c_ideal2, w)
        assert row_grasp_cost(p1, p2, task) == pytest.approx(expected, rel=1e-12)

    def test_error_equals_cost(self):
        task = GraspTask((0.2, 1.5), 0.4, axis=0.3)
        d2 = squared_deviation(task, np.random.default_rng(9).normal(size=(5, 4)))
        np.testing.assert_array_equal(task_error(task, d2, None, PoseWeights()),
                                      task_cost(task, d2, None, PoseWeights()))

    def test_swap_invariance(self):
        task = GraspTask((0.0, 1.2), 0.3, axis=0.0)
        flipped = GraspTask((0.0, 1.2), 0.3, axis=math.pi)
        np.testing.assert_allclose(flipped.c_ideal1, task.c_ideal2, atol=1e-15)
        p1, p2 = np.array([0.1, 1.0]), np.array([-0.2, 1.4])
        assert row_grasp_cost(p1, p2, task) == pytest.approx(row_grasp_cost(p2, p1, flipped))


class TestAntipodalPoints:
    def test_horizontal_axis(self):
        c1, c2 = antipodal_points((0.0, 1.5), 0.5, 0.0)
        np.testing.assert_allclose(c1, [-0.5, 1.5], atol=1e-15)
        np.testing.assert_allclose(c2, [0.5, 1.5], atol=1e-15)

    def test_midpoint_is_center(self):
        c1, c2 = antipodal_points((0.3, -0.2), 0.7, 1.1)
        np.testing.assert_allclose((c1 + c2) / 2, [0.3, -0.2], atol=1e-15)

    def test_separation_is_diameter(self):
        c1, c2 = antipodal_points((0.0, 0.0), 0.45, 2.2)
        assert np.linalg.norm(c2 - c1) == pytest.approx(0.9)

    def test_radius_validation(self):
        with pytest.raises(ValueError):
            antipodal_points((0, 0), 0.0, 0.0)


class TestModels:
    def test_length_validation(self):
        with pytest.raises(ValueError):
            OneLink(0.0)
        with pytest.raises(ValueError):
            TwoLink(1.0, -1.0)
        with pytest.raises(ValueError):
            DualArm(links1=(0.0, 1.0))


# --- the stacking FK these functions replaced, kept as the bit-exact reference ---

def reference_fk_one(l1, theta1):
    l1 = np.asarray(l1, dtype=float)
    if np.any(l1 <= 0):
        raise ValueError("link length must be positive")
    theta1 = np.asarray(theta1, dtype=float)
    return np.stack(np.broadcast_arrays(l1 * np.cos(theta1), l1 * np.sin(theta1)), axis=-1)


def reference_fk_two(l1, l2, theta1, theta2):
    l1 = np.asarray(l1, dtype=float)
    l2 = np.asarray(l2, dtype=float)
    if np.any(l1 <= 0) or np.any(l2 <= 0):
        raise ValueError("link lengths must be positive")
    t1 = np.asarray(theta1, dtype=float)
    t12 = t1 + np.asarray(theta2, dtype=float)
    return np.stack(np.broadcast_arrays(l1 * np.cos(t1) + l2 * np.cos(t12),
                                        l1 * np.sin(t1) + l2 * np.sin(t12)), axis=-1)


def reference_fk_dual(model, q1, q2):
    """Tips of both arms from (theta_a, theta_b) joint pairs, as two arrays."""
    q1 = np.asarray(q1, dtype=float)
    q2 = np.asarray(q2, dtype=float)
    p1 = np.asarray(model.base1) + reference_fk_two(*model.links1, q1[..., 0], q1[..., 1])
    p2 = np.asarray(model.base2) + reference_fk_two(*model.links2, q2[..., 0], q2[..., 1])
    return p1, p2


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):  # inf and NaN inputs
            return fn(*args)
    except ValueError as exc:
        return type(exc)


def assert_same_bits(actual, expected):
    """Equal shape, dtype and bytes (so -0.0 and NaN payloads count), or the
    same exception type on both sides."""
    if isinstance(expected, type) or isinstance(actual, type):
        assert actual is expected
        return
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.shape == expected.shape and actual.dtype == expected.dtype
    assert actual.tobytes() == expected.tobytes()


# angles and lengths in range, at their boundaries, negative and out of range
ANGLES = (st.floats(-1e3, 1e3)
          | st.sampled_from([0.0, -0.0, math.pi, -math.pi, math.tau, 2.5 * math.tau, 1e-300]))
LENGTHS = (st.floats(0.05, 3.0)
           | st.sampled_from([0.0, -0.0, -0.5, 1e-15, math.nan, math.inf, 2.0]))
# scalars, 0-d, one-row, block, empty and broadcasting shapes
SHAPES = st.sampled_from([(), (1,), (5,), (0,), (3, 1), (1, 5), (2, 3, 1)])


def batch(elements):
    return elements | hnp.arrays(float, SHAPES, elements=elements)


class TestLeanFkMatchesReference:
    """The lean FK returns the bits of the stacking FK, raises where it
    raises, and stays one code path for every batch size."""

    @settings(max_examples=300, deadline=None)
    @given(batch(LENGTHS), batch(ANGLES))
    def test_fk_one(self, l1, theta1):
        assert_same_bits(outcome(fk_one, l1, theta1), outcome(reference_fk_one, l1, theta1))

    @settings(max_examples=300, deadline=None)
    @given(batch(LENGTHS), batch(LENGTHS), batch(ANGLES), batch(ANGLES))
    def test_fk_two(self, l1, l2, theta1, theta2):
        assert_same_bits(outcome(fk_two, l1, l2, theta1, theta2),
                         outcome(reference_fk_two, l1, l2, theta1, theta2))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.tuples(*[st.floats(0.1, 2.0)] * 4),
           st.lists(batch(ANGLES), min_size=4, max_size=4))
    def test_fk_dual(self, bases, links, angles):
        model = DualArm(bases[:2], bases[2:], links[:2], links[2:])
        try:
            shape = np.broadcast(*angles).shape
        except ValueError:
            with pytest.raises(ValueError):
                fk_dual(model, *angles)
            return
        q1 = np.stack(np.broadcast_arrays(*angles[:2]), axis=-1)
        q2 = np.stack(np.broadcast_arrays(*angles[2:]), axis=-1)
        p1, p2 = outcome(reference_fk_dual, model, q1, q2)
        expected = np.concatenate([np.broadcast_to(p1, shape + (2,)),
                                   np.broadcast_to(p2, shape + (2,))], axis=-1)
        assert_same_bits(outcome(fk_dual, model, *angles), expected)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.data(), st.sampled_from([0.0, -0.0, -1e-300, -3.0]),
           st.booleans())
    def test_nonpositive_length_anywhere_raises(self, rows, data, bad, second):
        lengths = np.full(rows, 1.0)
        if rows > 1:  # a NaN elsewhere must not hide it
            lengths[data.draw(st.integers(0, rows - 1))] = math.nan
        lengths[data.draw(st.integers(0, rows - 1))] = bad
        theta = np.zeros(rows)
        with pytest.raises(ValueError):
            fk_one(lengths, theta)
        l1, l2 = (np.ones(rows), lengths) if second else (lengths, np.ones(rows))
        with pytest.raises(ValueError):
            fk_two(l1, l2, theta, theta)


class TestConfigurationPositionsCallsFkOnce:
    @pytest.mark.parametrize("model, names", [
        (OneLink(), ("l1", "theta1")),
        (OneLink(0.7), ("theta1",)),
        (TwoLink(), ("theta1", "theta2", "l1", "l2")),
        (TwoLink(0.4, 1.3), ("theta2", "theta1")),
        (DualArm(), ("theta11", "theta12", "theta21", "theta22")),
        (DualArm(), ("theta22", "theta11", "theta21", "theta12")),
    ])
    @pytest.mark.parametrize("rows", [1, 6])
    def test_one_fk_call(self, monkeypatch, model, names, rows):
        calls = []
        for name in ("fk_one", "fk_two", "fk_dual"):
            fn = getattr(qml, name)
            monkeypatch.setattr(qml, name,
                                lambda *a, _fn=fn, _name=name: calls.append(_name) or _fn(*a))
        Z = np.random.default_rng(rows).uniform(0.1, 2.0, (rows, len(names)))
        tips = configuration_positions(model, dict(zip(names, Z.T)))
        assert len(calls) == 1
        assert tips.shape == (rows, 4 if isinstance(model, DualArm) else 2)

    def test_dual_arm_columns_bind_by_name(self):
        names = ("theta22", "theta11", "theta21", "theta12")
        Z = np.random.default_rng(3).uniform(-7.0, 7.0, (9, 4))
        col = {name: Z[:, i] for i, name in enumerate(names)}
        q1 = np.stack([col["theta11"], col["theta12"]], axis=-1)
        q2 = np.stack([col["theta21"], col["theta22"]], axis=-1)
        expected = np.concatenate(reference_fk_dual(DualArm(), q1, q2), axis=-1)
        assert_same_bits(configuration_positions(DualArm(), dict(zip(names, Z.T))), expected)


@st.composite
def models_on_grids(draw):
    """A robot model with drawn fields, on a grid over its JOINTS and a drawn subset of
    its LINKS (the rest stay fields), in drawn order, with full-turn or partial arcs."""
    kind = draw(st.sampled_from([OneLink, TwoLink, DualArm]))
    length, coord = st.floats(0.05, 3.0), st.floats(-2.0, 2.0)
    if kind is DualArm:
        model = DualArm(*[(draw(f), draw(f)) for f in (coord, coord, length, length)])
    else:
        model = kind(*[draw(length) for _ in kind.LINKS])
    specs = []
    for name in kind.LINKS:
        if draw(st.booleans()):
            lo = draw(st.floats(0.05, 2.0))
            specs.append(ParamSpec(name, lo, lo + draw(st.floats(0.01, 2.0)),
                                   draw(st.integers(1, 3))))
    for name in kind.JOINTS:
        lo = draw(st.floats(-math.tau, math.tau))
        width = draw(st.sampled_from([math.tau]) | st.floats(0.01, math.tau))
        specs.append(ParamSpec(name, lo, lo + width, draw(st.integers(1, 3)), angular=True))
    return model, ParamGrid(tuple(draw(st.permutations(specs))))


class TestDeclaredNames:
    """`qml` reads a model only through its declared LINKS and JOINTS."""

    @settings(max_examples=200, deadline=None)
    @given(models_on_grids(), st.integers(0, 2**31))
    def test_lengths_from_grid_or_fields(self, model_grid, seed):
        model, grid = model_grid
        Z = decode_all(grid, np.random.default_rng(seed).integers(0, grid.size, 7))
        col = dict(zip(grid.names(), Z.T))
        got = configuration_positions(model, col)
        if isinstance(model, DualArm):
            q1 = np.stack([col["theta11"], col["theta12"]], axis=-1)
            q2 = np.stack([col["theta21"], col["theta22"]], axis=-1)
            expected = np.concatenate(reference_fk_dual(model, q1, q2), axis=-1)
        else:
            lengths = [col[name] if name in col else getattr(model, name)
                       for name in ("l1", "l2") if hasattr(model, name)]
            expected = (reference_fk_two(*lengths, col["theta1"], col["theta2"])
                        if isinstance(model, TwoLink)
                        else reference_fk_one(*lengths, col["theta1"]))
        assert_same_bits(got, np.broadcast_to(expected, got.shape))

    @settings(max_examples=200, deadline=None)
    @given(models_on_grids(), st.integers(0, 2**31))
    def test_box_is_base_plus_minus_summed_maximum_lengths(self, model_grid, seed):
        model, grid = model_grid
        specs = dict(zip(grid.names(), grid.specs))
        if isinstance(model, DualArm):
            arms = [(model.base1, model.links1[0] + model.links1[1]),
                    (model.base2, model.links2[0] + model.links2[1])]
        else:
            hi = [specs[name].hi if name in specs else getattr(model, name)
                  for name in ("l1", "l2") if hasattr(model, name)]
            arms = [((0.0, 0.0), hi[0] + hi[1] if len(hi) == 2 else hi[0])]
        expected = [(c - r, c + r) for base, r in arms for c in base]
        box = workspace_box(model, grid)
        assert_same_bits(np.array(box), np.array(expected))
        # and it holds every analytic tip, exactly
        Z = decode_all(grid, np.random.default_rng(seed).integers(0, grid.size, 50))
        tips = configuration_positions(model, dict(zip(grid.names(), Z.T)))
        lo, hi = np.array(box).T
        assert np.all((lo <= tips) & (tips <= hi))

    def test_other_objects_are_named(self):
        with pytest.raises(TypeError, match="unknown robot model 'arm'"):
            configuration_positions("arm", {"theta1": np.zeros(1)})
