"""Bijective mapping between continuous manipulator parameters and basis indices.

Each parameter gets its own qubit register; registers are packed into one
basis index with spec order = ascending bit significance (the first spec
occupies the least significant bits, matching the simulator's little-endian
amplitude layout).

Bin k decodes to ``min + k/(2^n - 1) * (max - min)``, so the reported bin
width is ``range / (2^n - 1)``. A value falls in the last bin whose decoded
value does not exceed it, so encode(decode(k)) = k holds exactly wherever
adjacent bins decode to distinct floats.

Out-of-range angular values wrap modulo one period (2*pi) into the modeled
arc before binning; values already inside ``[min, max]`` are binned as-is
(the top angular bin decodes to max, one period above min).

`decode_all` is the one map from basis indices to parameter rows; `decode`
is its one-row case. Streamed passes walk aligned blocks of 2^BLOCK_BITS rows
(`grid_blocks`), each with one column of bin values per parameter that
broadcasts onto the block's rows. Only `decode_all` of the whole grid, for
the full training set and the reference error table, builds a (2^N, d) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .qsim import QUBIT_CAP, CapacityError


# how far a value may stray outside its range and still fall in the end bin
_BOUNDARY_EPS = 1e-9
# how far an angular range may stray from one period and still be a full turn
_TURN_EPS = 1e-12
# log2 of the rows per block of a full-grid pass: a block's tips and temporaries
# stay in cache, and no (2^N, dimension) array is ever built
BLOCK_BITS = 14


@dataclass(frozen=True)
class ParamSpec:
    name: str
    lo: float
    hi: float
    n_qubits: int
    angular: bool = False

    def __post_init__(self):
        if not 0 < self.hi - self.lo < math.inf:  # a width past the float range decodes to NaN
            raise ValueError(f"{self.name}: min must be < max, and max - min finite")
        if not 1 <= self.n_qubits <= QUBIT_CAP:  # no grid with more can run
            raise ValueError(f"{self.name}: n_qubits must be from 1 to {QUBIT_CAP}, the qubit cap")
        if self.angular and self.hi - self.lo > math.tau + _TURN_EPS:
            raise ValueError(f"{self.name}: angular range exceeds one period")

    @property
    def levels(self) -> int:
        return 1 << self.n_qubits

    def bin_value(self, k):
        """Value of bin k, a sub-index or an array of them: lo + k / (2^n - 1) * (hi - lo)."""
        return self.lo + k / (self.levels - 1) * (self.hi - self.lo)


def full_turn(lo, hi):
    """Whether [lo, hi] (scalars or arrays) spans one period, whose ends are one angle."""
    return abs(hi - lo - math.tau) <= _TURN_EPS


def bin_width(spec: ParamSpec) -> float:
    """Grid resolution: (max - min) / (2^n - 1)."""
    return (spec.hi - spec.lo) / (spec.levels - 1)


@dataclass(frozen=True)
class ParamGrid:
    specs: Tuple[ParamSpec, ...]

    def __post_init__(self):
        if not self.specs:
            raise ValueError("grid needs at least one parameter")
        object.__setattr__(self, "specs", tuple(self.specs))
        names = self.names()
        if len(set(names)) < len(names):
            raise ValueError(f"duplicate parameter name {max(names, key=names.count)!r}")

    @property
    def total_qubits(self) -> int:
        return sum(s.n_qubits for s in self.specs)

    @property
    def size(self) -> int:
        return 1 << self.total_qubits

    @property
    def dimension(self) -> int:
        return len(self.specs)

    @property
    def shifts(self) -> Tuple[int, ...]:
        out, acc = [], 0
        for s in self.specs:
            out.append(acc)
            acc += s.n_qubits
        return tuple(out)

    def names(self) -> Tuple[str, ...]:
        return tuple(s.name for s in self.specs)

    def check_capacity(self) -> None:
        if self.total_qubits > QUBIT_CAP:
            raise CapacityError(
                f"grid needs {self.total_qubits} qubits, cap is {QUBIT_CAP}; "
                "reduce qubits per parameter"
            )


def _bin_of(spec: ParamSpec, value: float) -> int:
    if not math.isfinite(value):
        raise ValueError(f"{spec.name}: non-finite value {value}")
    if spec.angular:
        if not spec.lo <= value <= spec.hi:  # exact max stays in the top bin
            value = spec.lo + (value - spec.lo) % math.tau
        if value > spec.hi + _BOUNDARY_EPS:
            raise ValueError(
                f"{spec.name}: {value} outside angular range after wrapping"
            )
    elif value < spec.lo - _BOUNDARY_EPS or value > spec.hi + _BOUNDARY_EPS:
        raise ValueError(f"{spec.name}: {value} outside [{spec.lo}, {spec.hi}]")
    # the last bin whose decoded value is <= value, found by bisection, as bin values
    # never decrease: exact for every decoded value, however far lo is from zero
    k, top = 0, spec.levels - 1
    while k < top:
        mid = (k + top + 1) // 2
        k, top = (mid, top) if spec.bin_value(mid) <= value else (k, mid - 1)
    return k


def encode(grid: ParamGrid, values: Sequence[float]) -> int:
    """Map a parameter vector to its basis index.

    Non-angular values are clamped at the exact bounds; out-of-range values
    raise. Angular values are wrapped into one period before binning.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.dimension,):
        raise ValueError(f"expected {grid.dimension} values, got {values.shape}")
    return sum(_bin_of(s, v) << shift for s, v, shift in zip(grid.specs, values, grid.shifts))


def decode(grid: ParamGrid, index: int) -> np.ndarray:
    """Map a basis index to its parameter vector (exact inverse of encode): `decode_all`'s row,
    bit for bit, from `bin_value` on Python ints; no qubit cap is checked."""
    if not 0 <= index < grid.size:
        raise ValueError(f"index {index} out of range for grid of size {grid.size}")
    return np.array([spec.bin_value((index >> shift) & (spec.levels - 1))
                     for spec, shift in zip(grid.specs, grid.shifts)])


def grid_blocks(grid: ParamGrid):
    """(start, stop, columns) of each aligned block of 2^min(BLOCK_BITS, N) rows, in
    order. In a block, spec i's sub-index runs over one range, whose bin values lie
    on axis d-1-i of the block's C-order tensor of rows."""
    bits = min(BLOCK_BITS, grid.total_qubits)
    for start in range(0, grid.size, 1 << bits):
        cols = []
        for i, (spec, shift) in enumerate(zip(grid.specs, grid.shifts)):
            count = 1 << min(max(bits - shift, 0), spec.n_qubits)
            ks = ((start >> shift) & (spec.levels - 1)) + np.arange(count)
            cols.append(spec.bin_value(ks).reshape((-1,) + (1,) * i))
        yield start, start + (1 << bits), cols


def decode_all(grid: ParamGrid, indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Parameter rows (len(indices), dimension) of the basis `indices`, or of the whole
    grid; only the whole grid checks the qubit cap."""
    if indices is None:
        grid.check_capacity()
        indices = np.arange(grid.size)
    out = np.empty((indices.size, grid.dimension))
    for i, (spec, shift) in enumerate(zip(grid.specs, grid.shifts)):
        out[:, i] = spec.bin_value((indices >> shift) & (spec.levels - 1))
    return out
