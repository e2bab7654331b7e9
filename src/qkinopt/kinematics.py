"""Analytical planar kinematics: robot models, tasks, FK, and the task model.

All FK functions broadcast and fill one tips array, coordinates last. A grid
block passes each parameter's bin values on an axis of its own, so cos(theta1
+ theta2) runs once per pair of bins, not once per row as on a batch of rows.
`task_cost` (the oracle cost) and `task_error` (the verification error) are
the one implementation of each; they take the `squared_deviation` of a batch
of tip positions, whether from the analytic FK or from the QML surrogate, and
the tip orientations.
"""

from __future__ import annotations

import math
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
        object.__setattr__(self, "c_ideal1", tuple(c1))
        object.__setattr__(self, "c_ideal2", tuple(c2))


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

def _columns(*cols) -> np.ndarray:
    """Stack arrays that broadcast together as the last axis of one array."""
    out = np.empty(np.broadcast(*cols).shape + (len(cols),))
    for i, col in enumerate(cols):
        out[..., i] = col
    return out


def _two_link(l1, l2, theta1, theta2) -> Tuple[np.ndarray, np.ndarray]:
    """x and y of a planar 2R chain: (l1 c1 + l2 c12, l1 s1 + l2 s12)."""
    t1 = np.asarray(theta1, dtype=float)
    t12 = t1 + np.asarray(theta2, dtype=float)
    return l1 * np.cos(t1) + l2 * np.cos(t12), l1 * np.sin(t1) + l2 * np.sin(t12)


def fk_one(l1, theta1) -> np.ndarray:
    """p = (l1 cos t1, l1 sin t1). A length array's NaN-ignoring minimum
    (np.fmin.reduce) is nonpositive exactly when np.any(l <= 0)."""
    l1 = np.asarray(l1, dtype=float)
    if np.fmin.reduce(l1, axis=None, initial=math.inf) <= 0:
        raise ValueError("link length must be positive")
    theta1 = np.asarray(theta1, dtype=float)
    return _columns(l1 * np.cos(theta1), l1 * np.sin(theta1))


def fk_two(l1, l2, theta1, theta2) -> np.ndarray:
    """Planar 2R chain: p = (l1 c1 + l2 c12, l1 s1 + l2 s12)."""
    l1, l2 = np.asarray(l1, dtype=float), np.asarray(l2, dtype=float)
    if min(np.fmin.reduce(l1, axis=None, initial=math.inf),
           np.fmin.reduce(l2, axis=None, initial=math.inf)) <= 0:
        raise ValueError("link lengths must be positive")
    return _columns(*_two_link(l1, l2, theta1, theta2))


def fk_dual(model: DualArm, theta11, theta12, theta21, theta22) -> np.ndarray:
    """Tips (x1, y1, x2, y2) of arm 1 at joints (theta11, theta12) and arm 2
    at (theta21, theta22); the model checked its link lengths when built."""
    tips = _columns(*_two_link(*model.links1, theta11, theta12),
                    *_two_link(*model.links2, theta21, theta22))
    tips += (*model.base1, *model.base2)
    return tips


# --- task cost and verification error ----------------------------------------

def wrapped_angle_distance(phi1, phi2) -> np.ndarray:
    """|phi1 - phi2| wrapped into [0, pi], the planar orientation metric.
    Broadcasts, so a table and a single row get bit-identical distances."""
    d = np.mod(np.asarray(phi1, dtype=float) - phi2, math.tau)
    return np.where(d > math.pi, math.tau - d, d)


def squared_deviation(task, tips: np.ndarray) -> np.ndarray:
    """Squared distance of each row of tips from the pose target, or of both
    tips (B, 4) from the grasp contacts, summed: the term `task_cost` and
    `task_error` both take, so a pass that needs both computes it once."""
    grasp = isinstance(task, GraspTask)
    d = tips - ((*task.c_ideal1, *task.c_ideal2) if grasp else task.position)
    d *= d  # np.sum(d**2, axis=-1) without the slow short-axis reduction
    d2 = d[..., 0] + d[..., 1]
    return d2 + (d[..., 2] + d[..., 3]) if grasp else d2


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
