"""Dense gate-level reference that the tests check the program against.

- `StateVector`, `new_zero_state`, `uniform_superposition` and `apply_circuit`: a
  dense statevector simulator over `qsim`'s kernels. A gate is the pair that
  a kernel takes: (2x2 matrix, target) for `qsim.apply_single_qubit`, and
  (control, target) for `qsim.apply_cnot`. It is the reference for the
  simulator algebra of criterion 7 and, through `encode_input` and
  `ansatz_gates`, for the surrogate's input states and layer unitaries.
- `apply_oracle` and `apply_diffusion`: one Grover round gate by gate, the
  reference for `grover.amplified_state`'s closed form and its sampler.
- `success_probability`: sin^2((2K+1) arcsin(sqrt(m/M))) (Boyer, Brassard,
  Hoyer and Tapp 1998), the formula that `AmplifiedState.p_marked` and the
  sampled marked rate are checked against.
- `random_gate_stream`: seeded random circuits for the norm-drift checks.
- `stacked_chain`, and `stacked_fk_one`, `stacked_fk_two` and `stacked_fk_dual`
  on it: planar serial-chain forward kinematics that fills one (..., k) tips
  array, coordinates last, the form whose planes `kinematics.fk_chain` and the
  `fk_*` return. Link lengths are checked when a config loads, so these take
  any float.
- `nelder_mead`: the downhill simplex on numpy arrays (argsort, mean(axis=0),
  values.min()), whose every `OptRun` field `baselines.nelder_mead`, on Python
  float lists, must reproduce bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from qkinopt import qml, qsim
from qkinopt.baselines import SIMPLEX_DIAMETER_TOL, SIMPLEX_SPREAD_TOL, OptRun

H = np.array([[1, 1], [1, -1]], dtype=np.complex128) / math.sqrt(2)
rx, ry = qsim._rx_matrix, qsim._ry_matrix


def rz(angle):
    e = np.exp(-0.5j * angle)
    return np.array([[e, 0], [0, e.conjugate()]], dtype=np.complex128)


@dataclass
class StateVector:
    n_qubits: int
    amps: np.ndarray


def new_zero_state(n_qubits):
    """|0...0>: amplitude 1 at index 0."""
    qsim.check_capacity(n_qubits)
    amps = np.zeros(1 << n_qubits, dtype=np.complex128)
    amps[0] = 1.0
    return StateVector(n_qubits, amps)


def uniform_superposition(n_qubits):
    """Equal real amplitude 1/sqrt(2^n) on every basis index."""
    qsim.check_capacity(n_qubits)
    dim = 1 << n_qubits
    return StateVector(n_qubits, np.full(dim, 1.0 / math.sqrt(dim), dtype=np.complex128))


def apply_circuit(state, gates):
    """Apply the gates in order; returns a new StateVector. A gate on a qubit
    outside the state's register raises IndexError."""
    out = state.amps.copy()
    for first, target in gates:
        if np.ndim(first) == 2:
            qsim.apply_single_qubit(out, first, target, state.n_qubits)
        else:
            qsim.apply_cnot(out, first, target, state.n_qubits)
    return StateVector(state.n_qubits, out)


def encode_input(surrogate, z):
    """The uploads of one row: an RY per input parameter on each qubit of its block."""
    z = np.asarray(z, dtype=float)
    if z.shape != (surrogate.n_inputs,):
        raise ValueError(f"expected {surrogate.n_inputs} inputs, got {z.shape}")
    angles = qml.input_angles(surrogate, z)
    return [(ry(a), qubit) for (qubits, *_), a in zip(surrogate.input_map, angles)
            for qubit in qubits]


def ansatz_gates(ansatz, params):
    """`qml.Ansatz` gate by gate: per layer, RX then RY on each qubit, then the
    CNOT ring i -> i+1."""
    gates = []
    for layer in ansatz.angles(params):
        for q, (a, b) in enumerate(layer):
            gates += [(rx(a), q), (ry(b), q)]
        gates += [(q, (q + 1) % ansatz.n_qubits) for q in range(ansatz.n_qubits)]
    return gates


def apply_oracle(state, marked):
    """Flip the amplitude sign on a boolean mask of marked indices."""
    if np.shape(marked) != state.amps.shape:
        raise ValueError(f"marked mask of shape {np.shape(marked)} does not match the state")
    return StateVector(state.n_qubits, np.where(marked, -state.amps, state.amps))


def apply_diffusion(state):
    """Reflect amplitudes about their mean: a_k <- 2*mean(a) - a_k."""
    return StateVector(state.n_qubits, 2.0 * state.amps.mean() - state.amps)


def dense_rounds(n, marked, K):
    """K rounds of apply_oracle then apply_diffusion from the uniform state."""
    state = uniform_superposition(n)
    for _ in range(K):
        state = apply_diffusion(apply_oracle(state, marked))
    return state


def success_probability(M, m, K):
    return math.sin((2 * K + 1) * math.asin(math.sqrt(m / M))) ** 2


def random_gate_stream(count, n_qubits, seed):
    """Seeded stream of random H, RX, RY, RZ and CNOT gates."""
    rng = np.random.default_rng(seed)
    for _ in range(count):
        kind = rng.integers(0, 5)
        q = int(rng.integers(0, n_qubits))
        angle = float(rng.uniform(-math.pi, math.pi))
        if kind < 4:
            yield ((lambda _: H), rx, ry, rz)[kind](angle), q
        else:
            c = int(rng.integers(0, n_qubits))
            yield (c, (c + 1 + int(rng.integers(0, n_qubits - 1))) % n_qubits)


def _columns(*cols):
    """Stack arrays that broadcast together as the last axis of one array."""
    out = np.empty(np.broadcast(*cols).shape + (len(cols),))
    for i, col in enumerate(cols):
        out[..., i] = col
    return out


def _stacked_planes(lengths, angles):
    """x and y planes of a planar chain: the angles summed left to right, each link's
    l (cos t, sin t) added in order."""
    t = x = y = None
    for length, theta in zip(lengths, angles):
        length, theta = np.asarray(length, dtype=float), np.asarray(theta, dtype=float)
        t = theta if t is None else t + theta
        dx, dy = length * np.cos(t), length * np.sin(t)
        x, y = (dx, dy) if x is None else (x + dx, y + dy)
    return x, y


def stacked_chain(lengths, angles, base=None):
    tips = _columns(*_stacked_planes(lengths, angles))
    if base is not None:
        tips += base
    return tips


def stacked_fk_one(l1, theta1):
    return stacked_chain((l1,), (theta1,))


def stacked_fk_two(l1, l2, theta1, theta2):
    return stacked_chain((l1, l2), (theta1, theta2))


def stacked_fk_dual(model, theta11, theta12, theta21, theta22):
    tips = _columns(*_stacked_planes(model.links1, (theta11, theta12)),
                    *_stacked_planes(model.links2, (theta21, theta22)))
    tips += (*model.base1, *model.base2)
    return tips


def nelder_mead(obj, start, max_evals):
    """Downhill simplex with coefficients (1, 2, 0.5, 0.5) on numpy arrays, stopping
    on simplex diameter and cost spread, or when the evaluation budget runs out."""
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
        if values[-1] - values[0] < SIMPLEX_SPREAD_TOL and max(
                np.linalg.norm(v - simplex[0]) for v in simplex[1:]) < SIMPLEX_DIAMETER_TOL:
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
