"""Analytical planar kinematics: robot models, tasks, FK, and the task model.

A single configuration enters as Python floats, and a set of them as numpy arrays. FK
broadcasts and returns coordinate planes, (x, y) per tip: floats for a row (`cos_sin`:
math's trig, with numpy's bits), arrays for a batch. A row keeps numpy's bits for every
non-NaN value, and only NaN-ness where two NaNs meet. FK neither converts nor checks its
arguments; a config refuses a nonpositive link length when it loads. A grid block passes
each parameter's bin values on an axis of its own, so a plane spans only the axes it
reads (a dual arm's two arms meet first in `squared_deviation`), and the pass keeps a 2R
arm's `arm_trig` while its joints' sub-ranges repeat: cos(theta1 + theta2) runs once per
pass per arm (N = 24: a 2^14-row block takes 122-131 us on two_dof, 7-8 ns a row, and
80-83 us on dual_arm). `task_cost` (the oracle cost) and `task_error` (the verification
error) are the one implementation of each, on the `squared_deviation` of a row or batch
of tips, from the analytic FK or the QML surrogate, and the tip orientations.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


# --- robot models -----------------------------------------------------------

@dataclass(frozen=True)
class OneLink:
    """Single revolute joint; link length may instead come from the search grid."""

    # a model's fk_* arguments in call order: link lengths, each a field, then joint angles
    LINKS, JOINTS = ("l1",), ("theta1",)
    l1: float = 1.0

    def __post_init__(self):
        if self.l1 <= 0:
            raise ValueError("link length must be positive")


@dataclass(frozen=True)
class TwoLink:
    LINKS, JOINTS = ("l1", "l2"), ("theta1", "theta2")
    l1: float = 1.0
    l2: float = 1.0

    def __post_init__(self):
        if self.l1 <= 0 or self.l2 <= 0:
            raise ValueError("link lengths must be positive")


@dataclass(frozen=True)
class DualArm:
    """Two planar 2R arms with fixed link lengths and base offsets."""

    LINKS, JOINTS = (), ("theta11", "theta12", "theta21", "theta22")
    base1: Tuple[float, float] = (-0.8, 0.0)
    base2: Tuple[float, float] = (0.8, 0.0)
    links1: Tuple[float, float] = (1.0, 1.0)
    links2: Tuple[float, float] = (1.0, 1.0)

    def __post_init__(self):
        if min(self.links1) <= 0 or min(self.links2) <= 0:
            raise ValueError("link lengths must be positive")


# --- tasks and weights --------------------------------------------------------

@dataclass(frozen=True)
class PoseTarget:
    """Target end-effector position, optional planar orientation, and the
    verification tolerance on the actual (analytic) error."""

    position: Tuple[float, float]
    phi: Optional[float] = None
    tolerance: Optional[float] = None


def antipodal_points(center, radius: float, axis: float):
    """Contact pair center -+ radius*(cos axis, sin axis) on a circular object."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    c = np.asarray(center, dtype=float)
    u = np.array([math.cos(axis), math.sin(axis)])
    return c - radius * u, c + radius * u


@dataclass(frozen=True)
class GraspTask:
    """Grasp of a circular object; its two contacts derive from the center,
    radius and axis."""

    center: Tuple[float, float]
    radius: float
    axis: float = 0.0
    tolerance: Optional[float] = None
    c_ideal1: Tuple[float, float] = field(init=False)
    c_ideal2: Tuple[float, float] = field(init=False)

    def __post_init__(self):
        c1, c2 = antipodal_points(self.center, self.radius, self.axis)
        object.__setattr__(self, "c_ideal1", tuple(c1.tolist()))
        object.__setattr__(self, "c_ideal2", tuple(c2.tolist()))


@dataclass(frozen=True)
class PoseWeights:
    """Position and orientation error weights.

    epsilon is a retired config key that must stay null: the search's start
    threshold is the config's search.epsilon0.
    """

    alpha_p: float = 1.0
    alpha_R: float = 0.0
    epsilon: Optional[float] = None

    def __post_init__(self):
        if self.alpha_p < 0 or self.alpha_R < 0:
            raise ValueError("weights must be non-negative")
        if self.alpha_p == 0 and self.alpha_R == 0:
            raise ValueError("at least one weight must be positive")
        if self.epsilon is not None:
            raise ValueError("config key 'weights.epsilon' must be null; use 'search.epsilon0'")


# --- forward kinematics -------------------------------------------------------

def cos_sin(t) -> Tuple[np.ndarray, np.ndarray]:
    """(cos t, sin t): `math`'s, which has numpy's bits, for a finite Python float, and
    numpy's for anything else (arrays, numpy scalars, and inf and NaN, where math raises)."""
    if type(t) is float and math.isfinite(t):
        return math.cos(t), math.sin(t)
    return np.cos(t), np.sin(t)


def arm_trig(theta1, theta2) -> Tuple[np.ndarray, ...]:
    """(cos t1, cos t12, sin t1, sin t12) of a planar 2R arm, t12 = t1 + t2: the one
    trig of every 2R FK, so a grid pass that reuses it keeps a single row's bits."""
    (c1, s1), (c12, s12) = cos_sin(theta1), cos_sin(theta1 + theta2)
    return c1, c12, s1, s12


def _two_link(l1, l2, c1, c12, s1, s12) -> Tuple[np.ndarray, np.ndarray]:
    """x and y of a planar 2R chain from its `arm_trig`: (l1 c1 + l2 c12, l1 s1 + l2 s12)."""
    return l1 * c1 + l2 * c12, l1 * s1 + l2 * s12


def fk_one(l1, theta1) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) = (l1 cos t1, l1 sin t1)."""
    c1, s1 = cos_sin(theta1)
    return l1 * c1, l1 * s1


def fk_two(l1, l2, theta1, theta2, arms=None) -> Tuple[np.ndarray, np.ndarray]:
    """Planar 2R chain: (x, y) = (l1 c1 + l2 c12, l1 s1 + l2 s12). `arms`, if given,
    holds the joints' `arm_trig`, which the angles then need not compute again."""
    return _two_link(l1, l2, *(arms[0] if arms else arm_trig(theta1, theta2)))


def fk_dual(model: DualArm, theta11, theta12, theta21, theta22,
            arms=None) -> Tuple[np.ndarray, ...]:
    """Tips (x1, y1, x2, y2) of arm 1 at joints (theta11, theta12) and arm 2 at (theta21,
    theta22), or each arm's `arm_trig` in `arms`, each plus its base coordinate."""
    arm1, arm2 = arms or (arm_trig(theta11, theta12), arm_trig(theta21, theta22))
    planes = (*_two_link(*model.links1, *arm1), *_two_link(*model.links2, *arm2))
    return tuple(map(operator.add, planes, (*model.base1, *model.base2)))


# --- task cost and verification error ----------------------------------------

def wrapped_angle_distance(phi1, phi2) -> np.ndarray:
    """|phi1 - phi2| wrapped into [0, pi], the planar orientation metric.
    Broadcasts, so a table and a single row get bit-identical distances."""
    d = np.mod(np.asarray(phi1, dtype=float) - phi2, math.tau)
    return np.where(d > math.pi, math.tau - d, d)


def squared_deviation(task, planes) -> np.ndarray:
    """Squared distance of the tips, given as coordinate planes (x, y), from the
    pose target, or of both tips (x1, y1, x2, y2) from the grasp contacts, summed:
    the term `task_cost` and `task_error` both take, so a pass that needs both
    computes it once. The planes broadcast together, so a 2R arm's planes on a
    grid block span only its own joints' axes until the contacts' sum."""
    if isinstance(task, GraspTask):
        (x1, y1, x2, y2), (a1, b1), (a2, b2) = planes, task.c_ideal1, task.c_ideal2
        dx1, dy1, dx2, dy2 = x1 - a1, y1 - b1, x2 - a2, y2 - b2
        return dx1 * dx1 + dy1 * dy1 + (dx2 * dx2 + dy2 * dy2)
    (x, y), (a, b) = planes, task.position
    dx, dy = x - a, y - b
    return dx * dx + dy * dy


def task_cost(task, d2: np.ndarray, phis: Optional[np.ndarray],
              weights: PoseWeights) -> np.ndarray:
    """Oracle cost of each row whose `squared_deviation` is d2.

    A pose task costs alpha_p ||p - p_target||^2 + alpha_R d(phi, phi_target)^2;
    `phis` (tip orientations) is read only when alpha_R > 0. A grasp task
    costs d2, the summed squared deviation of both tips from its contacts.
    """
    if isinstance(task, GraspTask):
        return d2
    costs = weights.alpha_p * d2
    if weights.alpha_R > 0:
        if task.phi is None or phis is None:
            raise ValueError("orientation weight is positive but angles are missing")
        costs = costs + weights.alpha_R * wrapped_angle_distance(phis, task.phi) ** 2
    return costs


def task_error(task, d2: np.ndarray, phis: Optional[np.ndarray],
               weights: PoseWeights) -> np.ndarray:
    """Verification error of each row whose `squared_deviation` is d2, checked
    against the task tolerance.

    A pose task uses the Euclidean tip error, with the orientation error in
    quadrature when the task sets an orientation and alpha_R > 0. A grasp
    task uses its cost, d2.
    """
    if isinstance(task, GraspTask):
        return d2
    if task.phi is not None and weights.alpha_R > 0:
        d2 = d2 + wrapped_angle_distance(phis, task.phi) ** 2
    return np.sqrt(d2)
