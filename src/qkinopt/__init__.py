"""qkinopt: quantum-search optimization of planar manipulator kinematics.

Simulates the full pipeline at desk scale: discretize manipulator parameters
into qubit registers, optionally train a parameterized-circuit surrogate of
the forward kinematics, build a diagonal cost oracle, amplify low-cost
configurations with Grover iterations, and verify the measured solution
against the analytical model. Classical optimizers run on the same
objectives for query-count comparison.
"""

from .encoding import ParamGrid, ParamSpec, bin_width, decode, encode
from .grover import (
    NoSolutionError,
    SearchResult,
    iteration_count,
    success_probability_analytic,
    verify,
)
from .harness import (
    CaseConfig,
    RunReport,
    compare,
    emit_report,
    load_config,
    run_baselines,
    run_case,
)
from .kinematics import (
    DualArm,
    GraspTask,
    OneLink,
    PoseTarget,
    PoseWeights,
    TwoLink,
)
from .qml import Ansatz, Surrogate, TrainingSet, build_cost_table, make_surrogate, train
from .qsim import CapacityError, StateVector, measure, uniform_superposition

__version__ = "0.1.0"

__all__ = [
    "Ansatz",
    "CapacityError",
    "CaseConfig",
    "DualArm",
    "GraspTask",
    "NoSolutionError",
    "OneLink",
    "ParamGrid",
    "ParamSpec",
    "PoseTarget",
    "PoseWeights",
    "RunReport",
    "SearchResult",
    "StateVector",
    "Surrogate",
    "TrainingSet",
    "TwoLink",
    "bin_width",
    "build_cost_table",
    "compare",
    "decode",
    "emit_report",
    "encode",
    "iteration_count",
    "load_config",
    "make_surrogate",
    "measure",
    "run_baselines",
    "run_case",
    "success_probability_analytic",
    "train",
    "uniform_superposition",
    "verify",
]
