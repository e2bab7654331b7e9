import dataclasses
import functools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from qkinopt import kinematics, qml
from qkinopt.encoding import ParamGrid, ParamSpec, decode_all
from qkinopt.harness import CaseConfig
from qkinopt.kinematics import (
    DualArm,
    GraspTask,
    OneLink,
    PoseTarget,
    PoseWeights,
    TwoLink,
    antipodal_points,
    arm_trig,
    fk_dual,
    fk_one,
    fk_two,
    squared_deviation,
    task_cost,
    task_error,
    wrapped_angle_distance,
)
from qkinopt.qml import configuration_positions, workspace_box
from reference import stacked_fk_dual, stacked_fk_one, stacked_fk_two


def stacked(planes):
    """FK planes as one (..., k) array, coordinates last."""
    return np.stack(np.broadcast_arrays(*planes), axis=-1)


def row_pose_cost(p, p_target, weights, phi=None, phi_target=None):
    """task_cost of one tip position, through a one-row array."""
    phis = None if phi is None else np.array([phi])
    task = PoseTarget(tuple(p_target), phi_target)
    d2 = squared_deviation(task, np.asarray(p, dtype=float)[:, None])
    return float(task_cost(task, d2, phis, weights)[0])


def row_grasp_cost(p1, p2, task):
    """task_cost of one pair of tips, through a one-row array."""
    planes = np.concatenate([p1, p2]).astype(float)[:, None]
    return float(task_cost(task, squared_deviation(task, planes), None, PoseWeights())[0])


class TestFkOne:
    def test_unit_link_zero_angle(self):
        np.testing.assert_allclose(fk_one(1.0, 0.0), [1.0, 0.0], atol=1e-15)

    def test_quarter_turn(self):
        np.testing.assert_allclose(fk_one(1.0, math.pi / 2), [0.0, 1.0], atol=1e-15)

    def test_half_turn(self):
        np.testing.assert_allclose(fk_one(0.5, math.pi), [-0.5, 0.0], atol=1e-15)

    def test_broadcasts(self):
        out = stacked(fk_one(np.array([1.0, 2.0]), np.array([0.0, 0.0])))
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

    def test_reduces_to_single_link_as_l2_vanishes(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            l1 = rng.uniform(0.2, 2.0)
            t1, t2 = rng.uniform(0, 2 * math.pi, 2)
            two = stacked(fk_two(l1, 1e-15, t1, t2))
            one = stacked(fk_one(l1, t1))
            assert np.max(np.abs(two - one)) <= 2e-15


class TestFkDual:
    def test_zero_angles(self):
        model = DualArm()
        p1, p2 = np.split(stacked(fk_dual(model, 0.0, 0.0, 0.0, 0.0)), 2)
        np.testing.assert_allclose(p1, [-0.8 + 2.0, 0.0])
        np.testing.assert_allclose(p2, [0.8 + 2.0, 0.0])

    def test_mirrored_angles_give_mirrored_tips(self):
        model = DualArm()
        rng = np.random.default_rng(1)
        for _ in range(20):
            ta, tb = rng.uniform(0, 2 * math.pi, 2)
            p1, p2 = np.split(stacked(fk_dual(model, ta, tb, math.pi - ta, -tb)), 2)
            np.testing.assert_allclose(p2, [-p1[0], p1[1]], atol=1e-12)

    def test_composes_from_fk_two(self):
        model = DualArm(base1=(-1.0, 0.2), base2=(0.7, -0.1),
                        links1=(0.9, 1.1), links2=(1.3, 0.6))
        rng = np.random.default_rng(2)
        q1, q2 = rng.uniform(0, 2 * math.pi, 2), rng.uniform(0, 2 * math.pi, 2)
        p1, p2 = np.split(stacked(fk_dual(model, *q1, *q2)), 2)
        np.testing.assert_allclose(p1, np.array([-1.0, 0.2]) + stacked(fk_two(0.9, 1.1, *q1)))
        np.testing.assert_allclose(p2, np.array([0.7, -0.1]) + stacked(fk_two(1.3, 0.6, *q2)))


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
        tips = np.array([[0.3], [0.4]])  # x and y planes of one row
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
        d2 = squared_deviation(task, np.random.default_rng(9).normal(size=(5, 4)).T)
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

    @pytest.mark.parametrize("bad", [0.0, -0.0, -1e-300, -3.0])
    @pytest.mark.parametrize("build", [
        lambda bad: OneLink(bad),
        lambda bad: TwoLink(bad, 1.0),
        lambda bad: TwoLink(1.0, bad),
        lambda bad: DualArm(links1=(bad, 1.0)),
        lambda bad: DualArm(links1=(1.0, bad)),
        lambda bad: DualArm(links2=(bad, 1.0)),
        lambda bad: DualArm(links2=(1.0, bad)),
    ], ids=["one_l1", "two_l1", "two_l2", "dual_links1_0", "dual_links1_1", "dual_links2_0",
            "dual_links2_1"])
    def test_every_nonpositive_field_refused(self, build, bad):
        with pytest.raises(ValueError, match="must be positive"):
            build(bad)


def outcome(fn, *args):
    """fn's result, or the type of the exception it raised."""
    try:
        with np.errstate(all="ignore"):  # inf and NaN inputs
            return fn(*args)
    except ValueError as exc:
        return type(exc)


def stacked_outcome(fk, *args):
    """`outcome` of fk's planes stacked coordinates last."""
    return outcome(lambda *a: stacked(fk(*a)), *args)


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
    """The FK planes, stacked, give the bits of the stacking FK, raise where
    it raises, and stay one code path for every batch size. Lengths are not
    checked here: a config refuses nonpositive ones when it loads."""

    @settings(max_examples=300, deadline=None)
    @given(batch(LENGTHS), batch(ANGLES))
    def test_fk_one(self, l1, theta1):
        assert_same_bits(stacked_outcome(fk_one, l1, theta1),
                         outcome(stacked_fk_one, l1, theta1))

    @settings(max_examples=300, deadline=None)
    @given(batch(LENGTHS), batch(LENGTHS), batch(ANGLES), batch(ANGLES))
    def test_fk_two(self, l1, l2, theta1, theta2):
        assert_same_bits(stacked_outcome(fk_two, l1, l2, theta1, theta2),
                         outcome(stacked_fk_two, l1, l2, theta1, theta2))

    @settings(max_examples=200, deadline=None)
    @given(st.tuples(*[st.floats(-2.0, 2.0)] * 4), st.tuples(*[st.floats(0.1, 2.0)] * 4),
           st.lists(batch(ANGLES), min_size=4, max_size=4))
    def test_fk_dual(self, bases, links, angles):
        model = DualArm(bases[:2], bases[2:], links[:2], links[2:])
        assert_same_bits(stacked_outcome(fk_dual, model, *angles),
                         outcome(stacked_fk_dual, model, *angles))


# any float: signed zeros, a huge value, infinities and NaN among the rest
ANY_FLOAT = st.floats() | st.sampled_from([0.0, -0.0, 1e300, -1e300, math.inf, -math.inf,
                                           math.nan])


# a positive length, or one that the models' `length <= 0` checks let through
FIELD_LENGTH = (st.floats(min_value=5e-324)
                | st.sampled_from([5e-324, 1e300, math.inf, math.nan]))
# a base coordinate: any float but NaN, which a config refuses; where a NaN base met
# a NaN plane, numpy's loops returned either NaN
BASE = ANY_FLOAT.filter(lambda v: not math.isnan(v))


@st.composite
def fk_arguments(draw, count):
    """A layout name and `count` FK arguments of `ANY_FLOAT` values in it: floats
    and 0-d arrays ("0-d"), 1-D columns of one length ("1-D"), or broadcast block
    tensors shaped like a grid block's, each argument on an axis of its own ("block")."""
    layout = draw(st.sampled_from(["0-d", "1-D", "block"]))
    if layout == "0-d":
        return layout, [draw(ANY_FLOAT | hnp.arrays(float, (), elements=ANY_FLOAT))
                        for _ in range(count)]
    if layout == "1-D":
        rows = draw(st.integers(1, 5))
        return layout, [draw(hnp.arrays(float, rows, elements=ANY_FLOAT))
                        for _ in range(count)]
    sizes = [draw(st.integers(1, 3)) for _ in range(count)]
    return layout, [draw(hnp.arrays(float, tuple(n if j == i else 1 for j in range(count)),
                                    elements=ANY_FLOAT)) for i, n in enumerate(sizes)]


def assert_planes_keep_bits(layout, fk, reference, *args):
    """fk's stacked planes have the bits of the reference's (..., k) tips. On one
    row the planes are numpy scalars, whose arithmetic may return either NaN
    operand where two meet in one operation, so there a NaN keeps only its NaN-ness."""
    actual, expected = stacked_outcome(fk, *args), outcome(reference, *args)
    if layout == "0-d" and not isinstance(expected, type):
        actual, expected = (np.where(np.isnan(a), math.nan, a) for a in (actual, expected))
    assert_same_bits(actual, expected)


class TestPlanesMatchStackedFk:
    """Each plane runs the ufuncs of the stacked FK on the same operands, so the
    planes, stacked, keep its bits on any float: signed zeros, +-1e300, +-inf, NaN."""

    @settings(max_examples=300, deadline=None)
    @given(fk_arguments(2))
    def test_fk_one(self, case):
        layout, args = case
        assert_planes_keep_bits(layout, fk_one, stacked_fk_one, *args)

    @settings(max_examples=300, deadline=None)
    @given(fk_arguments(4))
    def test_fk_two(self, case):
        layout, args = case
        assert_planes_keep_bits(layout, fk_two, stacked_fk_two, *args)

    @settings(max_examples=300, deadline=None)
    @given(st.tuples(*[BASE] * 4), st.tuples(*[FIELD_LENGTH] * 4), fk_arguments(4))
    def test_fk_dual(self, bases, links, case):
        model, (layout, args) = DualArm(bases[:2], bases[2:], links[:2], links[2:]), case
        assert_planes_keep_bits(layout, functools.partial(fk_dual, model),
                                functools.partial(stacked_fk_dual, model), *args)


class TestArmTrig:
    """A 2R chain from `arm_trig` and the link sum keeps the bits of the one
    expression that computed both, and FK given the trig keeps FK's bits."""

    @settings(max_examples=300, deadline=None)
    @given(batch(ANY_FLOAT), batch(ANY_FLOAT), batch(ANY_FLOAT), batch(ANY_FLOAT))
    def test_split_keeps_the_bits(self, l1, l2, theta1, theta2):
        def one_expression(l1, l2, theta1, theta2):
            t1 = np.asarray(theta1, dtype=float)
            t12 = t1 + np.asarray(theta2, dtype=float)
            return np.asarray((l1 * np.cos(t1) + l2 * np.cos(t12),
                               l1 * np.sin(t1) + l2 * np.sin(t12)))

        def split(l1, l2, theta1, theta2):
            return np.asarray(kinematics._two_link(l1, l2, *arm_trig(theta1, theta2)))

        assert_same_bits(outcome(split, l1, l2, theta1, theta2),
                         outcome(one_expression, l1, l2, theta1, theta2))
        trig = outcome(arm_trig, theta1, theta2)
        if not isinstance(trig, type):  # the angles broadcast together
            assert_same_bits(stacked_outcome(fk_two, l1, l2, theta1, theta2, [trig]),
                             stacked_outcome(fk_two, l1, l2, theta1, theta2))
            model = DualArm(links1=(0.5, 1.5))
            assert_same_bits(stacked_outcome(fk_dual, model, theta1, theta2, theta2, theta1,
                                             [trig, outcome(arm_trig, theta2, theta1)]),
                             stacked_outcome(fk_dual, model, theta1, theta2, theta2, theta1))


def reference_squared_deviation(task, tips):
    """The (..., k) form on a C-contiguous copy: subtract the goal from every
    row, square in place, and add the planes in the same pairs."""
    grasp = isinstance(task, GraspTask)
    d = np.ascontiguousarray(tips) - ((*task.c_ideal1, *task.c_ideal2) if grasp
                                      else task.position)
    d *= d
    d2 = d[..., 0] + d[..., 1]
    return d2 + (d[..., 2] + d[..., 3]) if grasp else d2


# coordinates in range, signed zeros, tiny, and squares past the float range, inf and NaN
COORDS = (st.floats(-1e3, 1e3)
          | st.sampled_from([0.0, -0.0, 1e-300, 1e200, -math.inf, math.nan]))
TIPS_LAYOUTS = ("1-D", "C-order", "coordinate-major", "strided", "broadcast")


@st.composite
def tasks_and_tips(draw):
    """A pose or grasp task and tips of its width k in one of TIPS_LAYOUTS: one
    row's (k,), a C-order (B, k) batch, a (B, k) view of a (k, B) array, every
    other row and column of a larger array, and a (1, a, b, k) broadcast view
    shaped like a grid block's."""
    point = st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0))
    task = draw(st.builds(PoseTarget, point)
                | st.builds(GraspTask, point, st.floats(0.01, 2.0), st.floats(-7.0, 7.0)))
    k, rows = (4 if isinstance(task, GraspTask) else 2), draw(st.integers(1, 5))
    layout = draw(st.sampled_from(TIPS_LAYOUTS))
    if layout == "1-D":
        return task, draw(hnp.arrays(float, k, elements=COORDS))
    if layout == "C-order":
        return task, draw(hnp.arrays(float, (rows, k), elements=COORDS))
    if layout == "coordinate-major":
        return task, np.moveaxis(draw(hnp.arrays(float, (k, rows), elements=COORDS)), 0, -1)
    if layout == "strided":
        return task, draw(hnp.arrays(float, (2 * rows, 2 * k + 1), elements=COORDS))[::2, 1::2]
    block = draw(hnp.arrays(float, (rows, k), elements=COORDS))
    return task, np.broadcast_to(block, (1, draw(st.integers(1, 3)), rows, k))


class TestSquaredDeviationLayouts:
    """The coordinate planes of tips give the bits, shape and type of the
    (..., k) form, whatever the layout of the tips, and leave them unchanged.
    On 1-D tips the planes are scalars, so squaring them in place would return
    unsquared deviations."""

    @settings(max_examples=300, deadline=None)
    @given(case=tasks_and_tips())
    def test_bits_match_c_order_reference(self, case):
        task, tips = case
        before = np.array(tips)
        with np.errstate(all="ignore"):
            actual = squared_deviation(task, np.moveaxis(tips, -1, 0))
            expected = reference_squared_deviation(task, tips)
        assert type(actual) is type(expected)
        assert_same_bits(actual, expected)
        assert_same_bits(tips, before)


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
        tips = stacked(configuration_positions(model, dict(zip(names, Z.T))))
        assert len(calls) == 1
        assert tips.shape == (rows, 4 if isinstance(model, DualArm) else 2)

    def test_dual_arm_columns_bind_by_name(self):
        names = ("theta22", "theta11", "theta21", "theta12")
        Z = np.random.default_rng(3).uniform(-7.0, 7.0, (9, 4))
        col = {name: Z[:, i] for i, name in enumerate(names)}
        expected = stacked_fk_dual(DualArm(), *(col[name] for name in DualArm.JOINTS))
        assert_same_bits(stacked(configuration_positions(DualArm(), dict(zip(names, Z.T)))),
                         expected)


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
        got = stacked(configuration_positions(model, col))
        if isinstance(model, DualArm):
            expected = stacked_fk_dual(model, *(col[name] for name in DualArm.JOINTS))
        else:
            lengths = [col[name] if name in col else getattr(model, name)
                       for name in ("l1", "l2") if hasattr(model, name)]
            expected = (stacked_fk_two(*lengths, col["theta1"], col["theta2"])
                        if isinstance(model, TwoLink)
                        else stacked_fk_one(*lengths, col["theta1"]))
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
        tips = stacked(configuration_positions(model, dict(zip(grid.names(), Z.T))))
        lo, hi = np.array(box).T
        assert np.all((lo <= tips) & (tips <= hi))

    def test_other_objects_are_named(self):
        with pytest.raises(TypeError, match="unknown robot model 'arm'"):
            configuration_positions("arm", {"theta1": np.zeros(1)})


class TestLinkLengthsCheckedAtLoad:
    """FK takes any length, so a config refuses a nonpositive one when it loads:
    its model checks its own fields, and the config checks the min of each grid
    parameter named in the model's LINKS, as no bin decodes below its min."""

    @settings(max_examples=100, deadline=None)
    @given(models_on_grids(), st.data(), st.sampled_from([0.0, -0.0, -1e-300, -3.0]))
    def test_nonpositive_min_of_any_grid_length_refused(self, model_grid, data, bad):
        model, grid = model_grid
        lengths = [i for i, spec in enumerate(grid.specs) if spec.name in model.LINKS]
        assume(lengths)
        config = CaseConfig(grid, model, PoseTarget((0.5, 0.5)))
        i, specs = data.draw(st.sampled_from(lengths)), list(grid.specs)
        specs[i] = dataclasses.replace(specs[i], lo=bad, hi=bad + (specs[i].hi - specs[i].lo))
        with pytest.raises(ValueError, match="must be positive"):
            dataclasses.replace(config, grid=ParamGrid(tuple(specs)))

    def test_fk_computes_a_zero_length(self):
        assert_same_bits(stacked(fk_one(0.0, 1.0)), [0.0, 0.0])
        assert_same_bits(stacked(fk_two(1.0, -0.0, 0.0, 0.0)), [1.0, 0.0])
