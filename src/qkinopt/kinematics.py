"""Analytical planar kinematics: robot models, tasks, FK, and the task model.

Every model is a tuple of planar serial chains, and `fk_chain` is the one FK. It checks no
argument (a model refuses a nonpositive link length) and broadcasts: a configuration as
Python floats gets float planes with numpy's bits (`cos_sin`; where two NaNs meet, only
NaN-ness), and a grid pass keeps a chain's `chain_trig` while its joints' sub-ranges
repeat. `task_cost` and `task_error` are the one oracle cost and verification error.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Optional, Tuple

import numpy as np


# --- robot models -----------------------------------------------------------

class ChainModel:
    """A planar robot model: `chains`, built once (no dataclass field), each (base or None,
    links, joint names); a link is (name, length), its length replaced by a grid parameter."""

    LINKS = property(lambda self: tuple(n for _, links, _ in self.chains for n, _ in links if n))
    JOINTS = property(lambda self: tuple(n for *_, joints in self.chains for n in joints))

    def __post_init__(self):
        object.__setattr__(self, "chains", self._chains())
        if any(length <= 0 for _, links, _ in self.chains for _, length in links):
            raise ValueError("link lengths must be positive")


@dataclass(frozen=True)
class OneLink(ChainModel):
    """Single revolute joint; link length may instead come from the search grid."""

    l1: float = 1.0

    def _chains(self):
        return ((None, (("l1", self.l1),), ("theta1",)),)


@dataclass(frozen=True)
class TwoLink(ChainModel):
    l1: float = 1.0
    l2: float = 1.0

    def _chains(self):
        return ((None, (("l1", self.l1), ("l2", self.l2)), ("theta1", "theta2")),)


@dataclass(frozen=True)
class DualArm(ChainModel):
    """Two planar 2R arms with fixed link lengths and base offsets."""

    base1: Tuple[float, float] = (-0.8, 0.0)
    base2: Tuple[float, float] = (0.8, 0.0)
    links1: Tuple[float, float] = (1.0, 1.0)
    links2: Tuple[float, float] = (1.0, 1.0)

    def _chains(self):
        return ((self.base1, tuple((None, v) for v in self.links1), ("theta11", "theta12")),
                (self.base2, tuple((None, v) for v in self.links2), ("theta21", "theta22")))


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
    """(cos t, sin t): math's, with numpy's bits, for a finite Python float, else numpy's."""
    if type(t) is float and math.isfinite(t):
        return math.cos(t), math.sin(t)
    return np.cos(t), np.sin(t)


def chain_trig(angles) -> list:
    """(cos t, sin t) of each link's angle t, the joint angles summed left to right."""
    return [cos_sin(t) for t in itertools.accumulate(angles)]


def fk_chain(lengths, angles, base=None, trig=None) -> Tuple[np.ndarray, np.ndarray]:
    """(x, y) = sum_i l_i (cos t_i, sin t_i), t_i = theta_1 + ... + theta_i, links summed in
    order, then plus the base, if any; `trig`, if given, is the angles' `chain_trig`."""
    for i, length in enumerate(lengths):  # one loop, no trig list: one-row evaluations run it
        if trig is None:
            t = angles[0] if i == 0 else t + angles[i]
            c, s = cos_sin(t)
        else:
            c, s = trig[i]
        if i:
            x, y = x + length * c, y + length * s
        else:
            x, y = length * c, length * s
    return (x, y) if base is None else (x + base[0], y + base[1])


def fk_one(l1, theta1) -> Tuple[np.ndarray, np.ndarray]:
    return fk_chain((l1,), (theta1,))


def fk_two(l1, l2, theta1, theta2) -> Tuple[np.ndarray, np.ndarray]:
    return fk_chain((l1, l2), (theta1, theta2))


def fk_dual(model: DualArm, theta11, theta12, theta21, theta22) -> Tuple[np.ndarray, ...]:
    return (*fk_chain(model.links1, (theta11, theta12), model.base1),
            *fk_chain(model.links2, (theta21, theta22), model.base2))


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
