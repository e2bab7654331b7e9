"""Bijective mapping between continuous manipulator parameters and basis indices.

Each parameter gets its own qubit register; registers are packed into one
basis index with spec order = ascending bit significance (the first spec
occupies the least significant bits, matching the simulator's little-endian
amplitude layout).

Binning uses ``k = floor((z - min)/(max - min) * (2^n - 1))`` and decoding
inverts it with the same ``2^n - 1`` denominator, so the reported bin width
is ``range / (2^n - 1)``.

Out-of-range angular values wrap modulo one period (2*pi) into the modeled
arc before binning; values already inside ``[min, max]`` are binned as-is,
which keeps encode(decode(k)) = k an exact identity for every index (the
top angular bin decodes to max, one period above min).

Full-grid passes walk aligned blocks of 2^BLOCK_BITS rows (`grid_blocks`),
each with one column of bin values per parameter that broadcasts onto the
block's rows, so no pass builds a (2^N, dimension) array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .qsim import QUBIT_CAP, CapacityError


# snap-to-boundary guard for encode(decode(k)) round trips; floating point can
# land floor() one ulp under an exact integer
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
        if not self.lo < self.hi:
            raise ValueError(f"{self.name}: min must be < max")
        if self.n_qubits < 1:
            raise ValueError(f"{self.name}: n_qubits must be >= 1")
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
    t = (value - spec.lo) / (spec.hi - spec.lo) * (spec.levels - 1)
    k = math.floor(t)
    if t - k >= 1.0 - _BOUNDARY_EPS:  # snap when floor sits one ulp under an integer
        k += 1
    return min(max(k, 0), spec.levels - 1)


def pack_indices(grid: ParamGrid, ks: Sequence[int]) -> int:
    """Pack per-parameter sub-indices into one basis index."""
    if len(ks) != grid.dimension:
        raise ValueError(f"expected {grid.dimension} sub-indices, got {len(ks)}")
    out = 0
    for spec, shift, k in zip(grid.specs, grid.shifts, ks):
        if not 0 <= k < spec.levels:
            raise ValueError(f"{spec.name}: sub-index {k} out of range")
        out |= int(k) << shift
    return out


def unpack_index(grid: ParamGrid, index: int) -> Tuple[int, ...]:
    """Split a basis index into per-parameter sub-indices."""
    if not 0 <= index < grid.size:
        raise ValueError(f"index {index} out of range for grid of size {grid.size}")
    return tuple(
        (index >> shift) & (spec.levels - 1)
        for spec, shift in zip(grid.specs, grid.shifts)
    )


def encode(grid: ParamGrid, values: Sequence[float]) -> int:
    """Map a parameter vector to its basis index.

    Non-angular values are clamped at the exact bounds; out-of-range values
    raise. Angular values are wrapped into one period before binning.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (grid.dimension,):
        raise ValueError(f"expected {grid.dimension} values, got {values.shape}")
    return pack_indices(grid, [_bin_of(s, v) for s, v in zip(grid.specs, values)])


def decode(grid: ParamGrid, index: int) -> np.ndarray:
    """Map a basis index to its parameter vector (exact inverse of encode).
    It reads one row, so unlike `decode_all` it checks no qubit capacity."""
    return np.array([s.bin_value(k) for s, k in zip(grid.specs, unpack_index(grid, index))])


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


def decode_all(grid: ParamGrid, start: int = 0, stop: Optional[int] = None,
               indices: Optional[np.ndarray] = None) -> np.ndarray:
    """Decode indices start..stop-1 (default: all) or just `indices`; shape (rows, dimension)."""
    grid.check_capacity()
    idx = np.arange(start, grid.size if stop is None else stop) if indices is None else indices
    out = np.empty((idx.size, grid.dimension))
    for i, (spec, shift) in enumerate(zip(grid.specs, grid.shifts)):
        out[:, i] = spec.bin_value((idx >> shift) & (spec.levels - 1))
    return out
