import math
import pathlib
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qkinopt import encoding
from qkinopt.encoding import (
    ParamGrid,
    ParamSpec,
    bin_width,
    decode,
    decode_all,
    encode,
    grid_blocks,
)
from qkinopt.qsim import QUBIT_CAP, CapacityError

TWO_PI = 2 * math.pi


def length_spec(n=4, name="l1"):
    return ParamSpec(name, 0.1, 2.0, n)


def angle_spec(n=4, name="theta1"):
    return ParamSpec(name, 0.0, TWO_PI, n, angular=True)


class TestParamSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ParamSpec("x", 1.0, 1.0, 3)
        with pytest.raises(ValueError):
            ParamSpec("x", 0.0, 1.0, 0)
        with pytest.raises(ValueError):
            ParamSpec("x", 0.0, 3 * math.pi, 3, angular=True)
        # no grid with a parameter past the cap can run, and a huge count would make
        # the grid size a big-integer computation
        for n in (QUBIT_CAP + 1, 10**9, 10**400):
            with pytest.raises(ValueError, match=f"x: n_qubits must be from 1 to {QUBIT_CAP}"):
                ParamSpec("x", 0.0, 1.0, n)
        assert ParamSpec("x", 0.0, 1.0, QUBIT_CAP).levels == 2 ** QUBIT_CAP

    def test_angular_full_period_allowed(self):
        ParamSpec("x", -math.pi, math.pi, 5, angular=True)


class TestBinWidth:
    def test_nine_qubit_angle(self):
        spec = ParamSpec("t", 0.0, TWO_PI, 9, angular=True)
        assert bin_width(spec) == TWO_PI / 511
        assert bin_width(spec) == pytest.approx(0.0123, abs=1e-4)

    def test_one_qubit_full_range(self):
        assert bin_width(ParamSpec("x", 0.0, 3.0, 1)) == 3.0

    def test_nine_qubit_length(self):
        spec = ParamSpec("l", 0.1, 2.0, 9)
        assert bin_width(spec) == 1.9 / 511
        assert bin_width(spec) == pytest.approx(0.00372, abs=2e-5)


class TestEncode:
    def test_min_maps_to_zero(self):
        grid = ParamGrid((length_spec(),))
        assert encode(grid, [0.1]) == 0

    def test_half_turn_two_qubits(self):
        # floor((pi / 2pi) * 3) = floor(1.5) = 1
        grid = ParamGrid((angle_spec(2),))
        assert encode(grid, [math.pi]) == 1

    def test_max_maps_to_top_bin(self):
        assert encode(ParamGrid((length_spec(3),)), [2.0]) == 7
        assert encode(ParamGrid((angle_spec(3),)), [TWO_PI]) == 7

    def test_out_of_range_non_angular(self):
        grid = ParamGrid((length_spec(),))
        with pytest.raises(ValueError):
            encode(grid, [2.5])
        with pytest.raises(ValueError):
            encode(grid, [float("nan")])

    def test_angular_wraps_before_binning(self):
        grid = ParamGrid((angle_spec(4),))
        assert encode(grid, [0.3 + TWO_PI]) == encode(grid, [0.3])
        assert encode(grid, [-0.3]) == encode(grid, [TWO_PI - 0.3])

    def test_dimension_mismatch(self):
        grid = ParamGrid((length_spec(), angle_spec()))
        with pytest.raises(ValueError):
            encode(grid, [1.0])


class TestDecode:
    def test_zero_maps_to_min(self):
        grid = ParamGrid((length_spec(), angle_spec()))
        np.testing.assert_array_equal(decode(grid, 0), [0.1, 0.0])

    def test_top_angular_bin_is_full_period(self):
        # k = 3 on [0, 2pi) with n = 2 sits at the far end of the arc, one
        # full period above the minimum
        grid = ParamGrid((angle_spec(2),))
        assert decode(grid, 3)[0] == TWO_PI

    def test_round_trip_identity_exhaustive(self):
        grid = ParamGrid((length_spec(5), angle_spec(5)))
        for k in range(grid.size):
            assert encode(grid, decode(grid, k)) == k

    def test_decode_encode_within_one_bin(self):
        grid = ParamGrid((length_spec(6), angle_spec(6)))
        rng = np.random.default_rng(3)
        widths = np.array([bin_width(s) for s in grid.specs])
        for _ in range(200):
            z = np.array([rng.uniform(0.1, 2.0), rng.uniform(0.0, TWO_PI)])
            back = decode(grid, encode(grid, z))
            assert np.all(np.abs(back - z) <= widths + 1e-12)

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            decode(ParamGrid((length_spec(2),)), 4)


class TestBitLayout:
    def test_spec_order_is_ascending_significance(self):
        grid = ParamGrid((length_spec(2, "a"), length_spec(3, "b")))
        # sub-index (3, 5) -> 3 | 5 << 2
        values = [grid.specs[0].bin_value(3), grid.specs[1].bin_value(5)]
        assert encode(grid, values) == 3 | (5 << 2)
        np.testing.assert_array_equal(decode(grid, 3 | (5 << 2)), values)

    def test_pack_unpack_lossless_exhaustive(self):
        grid = ParamGrid((length_spec(3, "a"), angle_spec(2, "b"), length_spec(2, "c")))
        for k in range(grid.size):
            assert encode(grid, decode(grid, k)) == k


class TestMonotonicity:
    def test_non_angular_bins_non_decreasing(self):
        grid = ParamGrid((length_spec(6),))
        zs = np.linspace(0.1, 2.0, 500)
        bins = [encode(grid, [z]) for z in zs]
        assert all(b1 <= b2 for b1, b2 in zip(bins, bins[1:]))


class TestEnumerate:
    """decode_all enumerates the whole grid, one row per basis index."""

    def test_four_pairs_ascending(self):
        grid = ParamGrid((length_spec(1), angle_spec(1)))
        # the first spec is the least significant bit
        np.testing.assert_array_equal(
            decode_all(grid), [[0.1, 0.0], [2.0, 0.0], [0.1, TWO_PI], [2.0, TWO_PI]])

    def test_pairs_match_decode(self):
        grid = ParamGrid((length_spec(2), angle_spec(2)))
        for k, z in enumerate(decode_all(grid)):
            np.testing.assert_array_equal(z, decode(grid, k))

    def test_count_is_space_size(self):
        grid = ParamGrid((length_spec(5, "a"), length_spec(5, "b")))
        assert decode_all(grid).shape == (1024, 2)

    def test_capacity_error(self):
        grid = ParamGrid(tuple(length_spec(9, f"p{i}") for i in range(4)))
        with pytest.raises(CapacityError):
            decode_all(grid)


class TestDecodeAll:
    def test_matches_scalar_decode(self):
        grid = ParamGrid((length_spec(4), angle_spec(3)))
        table = decode_all(grid)
        for k in range(grid.size):
            np.testing.assert_array_equal(table[k], decode(grid, k))

    def test_row_range_is_slice_of_full_table(self):
        grid = ParamGrid((length_spec(3), angle_spec(2)))
        table = decode_all(grid)
        for start, stop in ((0, 32), (5, 6), (7, 20), (31, 32)):
            np.testing.assert_array_equal(decode_all(grid, np.arange(start, stop)),
                                          table[start:stop])

    def test_range_containment(self):
        grid = ParamGrid((length_spec(5), angle_spec(5)))
        table = decode_all(grid)
        for j, spec in enumerate(grid.specs):
            assert np.all(table[:, j] >= spec.lo)
            assert np.all(table[:, j] <= spec.hi)


finite = st.floats(-100.0, 100.0, allow_nan=False)


@st.composite
def grids(draw, max_qubits=6):
    specs = []
    for i in range(draw(st.integers(1, 4))):
        lo = draw(finite)
        angular = draw(st.booleans())
        span = draw(st.floats(1e-3, TWO_PI if angular else 100.0))
        specs.append(ParamSpec(f"p{i}", lo, lo + span, draw(st.integers(1, max_qubits)), angular))
    return ParamGrid(tuple(specs))


class TestRoundTrip:
    """encode(decode(k)) = k wherever adjacent bins decode to distinct floats, which on
    these grids they always do: a bin is at least 1e-3 / 4095 wide, an ulp below 200 at
    most 2.8e-14. Up to 12 qubits per parameter, because on a narrow range far from
    zero a binning that rounds a quotient goes wrong only from about 8."""

    @settings(max_examples=300, deadline=None)
    @given(grids(max_qubits=12), st.data())
    def test_encode_inverts_decode(self, grid, data):
        tops = [(spec.levels - 1) << shift for spec, shift in zip(grid.specs, grid.shifts)]
        picks = [0, grid.size - 1] + tops + data.draw(
            st.lists(st.integers(0, grid.size - 1), max_size=20))
        for k in picks:
            assert encode(grid, decode(grid, k)) == k


class TestDecodeMatchesDecodeAll:
    @settings(max_examples=200, deadline=None)
    @given(grids(), st.data())
    def test_rows_bit_for_bit(self, grid, data):
        # all-top, one top register at a time, and drawn indices
        tops = [(spec.levels - 1) << shift for spec, shift in zip(grid.specs, grid.shifts)]
        picks = [grid.size - 1, 0] + tops + data.draw(
            st.lists(st.integers(0, grid.size - 1), max_size=20))
        rows = decode_all(grid, np.array(picks))
        for k, row in zip(picks, rows):
            assert decode(grid, k).tobytes() == row.tobytes()
        for k in (-1, grid.size):
            with pytest.raises(ValueError):
                decode(grid, k)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_row_hex_matches_a_batch_of_one_up_to_the_cap(self, data):
        # one to four registers sharing up to the cap's qubits: decode's Python-int
        # bin values have the float.hex of decode_all's numpy row
        total = data.draw(st.integers(1, QUBIT_CAP))
        cuts = sorted(data.draw(st.lists(st.integers(1, total - 1), max_size=3, unique=True))
                      if total > 1 else [])
        specs = []
        for i, n in enumerate(b - a for a, b in zip([0, *cuts], [*cuts, total])):
            lo, angular = data.draw(finite), data.draw(st.booleans())
            span = data.draw(st.floats(1e-3, TWO_PI if angular else 100.0))
            specs.append(ParamSpec(f"p{i}", lo, lo + span, n, angular))
        grid = ParamGrid(tuple(specs))
        for k in (0, grid.size - 1, data.draw(st.integers(0, grid.size - 1))):
            row = decode(grid, k)
            assert type(row) is np.ndarray and row.dtype == np.float64
            assert [v.hex() for v in row.tolist()] == [
                v.hex() for v in decode_all(grid, np.array([k]))[0].tolist()]

    def test_decode_checks_no_capacity(self, monkeypatch):
        grid = ParamGrid((length_spec(13), angle_spec(13)))
        assert grid.total_qubits == 26
        with monkeypatch.context() as mp, pytest.raises(CapacityError):
            mp.setattr(np, "arange", None)  # refused before its rows' indices are built
            decode_all(grid)
        np.testing.assert_array_equal(decode(grid, grid.size - 1), [2.0, TWO_PI])
        np.testing.assert_array_equal(decode_all(grid, np.array([grid.size - 1])),
                                      [[2.0, TWO_PI]])


class TestGridColumns:
    """The per-parameter columns of each `grid_blocks` block."""

    @settings(max_examples=200, deadline=None)
    # at most 2^10 rows, so a walk in one-row blocks stays short
    @given(grids().filter(lambda grid: grid.total_qubits <= 10), st.integers(0, 4))
    def test_columns_match_decode_all_bit_for_bit(self, grid, block_bits):
        """Blocks of 2^min(BLOCK_BITS, N) rows tile [0, 2^N) in order, and the rows
        rebuilt from each block's broadcast columns are decode_all's."""
        size, at = 1 << min(block_bits, grid.total_qubits), 0
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(encoding, "BLOCK_BITS", block_bits)
            for start, stop, cols in grid_blocks(grid):
                assert (start, stop) == (at, at + size)
                rows = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(size, grid.dimension)
                assert rows.tobytes() == decode_all(grid, np.arange(start, stop)).tobytes()
                at = stop
        assert at == grid.size

    def test_block_splits_a_register(self, monkeypatch):
        # blocks of 2^7 rows over 3 + 5 + 2 qubits: spec 1's sub-index runs over 16 of
        # its 32 bins, and spec 2's is fixed
        monkeypatch.setattr(encoding, "BLOCK_BITS", 7)
        grid = ParamGrid((length_spec(3), angle_spec(5), length_spec(2, "l2")))
        blocks = list(grid_blocks(grid))
        assert [(a, b) for a, b, _ in blocks] == [(k << 7, (k + 1) << 7) for k in range(8)]
        cols = blocks[3][2]
        assert [c.shape for c in cols] == [(8,), (16, 1), (1, 1, 1)]
        np.testing.assert_array_equal(cols[1].ravel(), grid.specs[1].bin_value(np.arange(16, 32)))
        rows = np.stack(np.broadcast_arrays(*cols), axis=-1).reshape(128, grid.dimension)
        assert rows.tobytes() == decode_all(grid, np.arange(384, 512)).tobytes()


def test_import_loads_only_the_modules_encoding_uses():
    # the package namespace re-exports nothing, so a module loads only its own imports
    src = str(pathlib.Path(encoding.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import qkinopt.encoding; "
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'qkinopt'))")
    out = subprocess.run([sys.executable, "-c", code, src], capture_output=True, text=True,
                         check=True).stdout.split()
    assert out == ["qkinopt", "qkinopt.encoding", "qkinopt.qsim"]
