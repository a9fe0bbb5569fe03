"""format_rows against the reference it must reproduce: `repr` for floats,
`str` for integers, byte for byte."""

import math

import numpy as np
import pytest

from lanecast import fileio
from lanecast.fileio import format_rows
from lanecast.pipeline import CorridorShape
from lanecast.synth import SynthConfig, generate


def formatted(values):
    """Each float64 value as format_rows writes it, one per row."""
    return format_rows([np.asarray(values, np.float64)], b"", b"\n").decode("ascii").split("\n")[:-1]


def reprs(values):
    return [repr(v) for v in np.asarray(values, np.float64).tolist()]


def mismatches(values):
    got, want = formatted(values), reprs(values)
    assert len(got) == len(want)
    return [(w, g) for w, g in zip(want, got) if w != g]


EDGE = [
    0.0, 5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
    1e-4, float(np.nextafter(1e-4, 0.0)), float(np.nextafter(1e-4, 1.0)),
    1e16, float(np.nextafter(1e16, 0.0)), float(np.nextafter(1e16, 2e16)),
    *(2.0**k for k in range(-60, 61)),
    *(10.0**k for k in range(-20, 23)),
    # shortest forms of 1, 15, 16 and 17 digits
    0.1, 3.0, 7e-4, 123456789012345.0, 0.123456789012345, 98765.4321098765,
    0.1234567890123456, 1234567890123456.0, 0.30000000000000004, 2.9999999999999996,
    1 / 3, 2 / 3, 9999999999999998.0, 1234567890123455.0, 65.5, 0.5, 100.0,
]


class TestFloats:
    def test_edge_values_match_repr(self):
        values = EDGE + [-v for v in EDGE]
        assert mismatches(values) == []
        assert formatted([0.0, -0.0]) == ["0.0", "-0.0"]

    def test_non_finite_values_match_repr(self):
        assert formatted([math.nan, math.inf, -math.inf]) == ["nan", "inf", "-inf"]

    def test_random_bit_patterns_match_repr(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        assert mismatches(values) == []

    def test_data_and_weight_values_match_repr(self):
        rng = np.random.default_rng(6)
        records = generate(SynthConfig(shape=CorridorShape(10, 8, 4), days=2, seed=7))
        sets = [
            records.speed, records.volume,
            rng.standard_normal(40_000) * math.sqrt(2 / 288),  # He-scaled weights
            rng.uniform(-1e6, 1e6, 40_000),
            10 ** rng.uniform(-6, 17, 40_000),
            np.round(rng.uniform(0, 100, 40_000), 2),
            np.round(rng.uniform(0, 100, 40_000), 1),
        ]
        for values in sets:
            assert mismatches(values) == []

    def test_chunk_boundaries(self, monkeypatch):
        monkeypatch.setattr(fileio, "_CHUNK", 7)
        values = np.random.default_rng(8).uniform(0, 80, 100)
        values[[6, 7, 50]] = [0.0, 1e20, -0.0]
        assert mismatches(values) == []


class TestIntegers:
    def test_match_str(self):
        rng = np.random.default_rng(9)
        info = np.iinfo(np.int64)
        values = np.concatenate([
            [0, 1, -1, 9, 10, -10, 9999, 10000, -10000, info.max, info.min],
            rng.integers(info.min, info.max, 5000, endpoint=True),
            rng.integers(-1000, 1000, 5000),
        ]).astype(np.int64)
        got = format_rows([values], b"", b"\n").decode("ascii").split("\n")[:-1]
        assert got == [str(v) for v in values.tolist()]

    @pytest.mark.parametrize("dtype", [np.uint8, np.int32, np.uint64])
    def test_other_integer_dtypes(self, dtype):
        values = np.array([0, 7, 200], dtype)
        assert format_rows([values], b"", b";") == b"0;7;200;"

    def test_uint64_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="int64"):
            format_rows([np.array([2**63], np.uint64)], b"", b"\n")


class TestRows:
    def test_columns_separator_and_terminator(self):
        rows = format_rows([np.array([1, -20]), np.array([0.5, -3.25]), np.array([7, 8])], b", ", b"|")
        assert rows == b"1, 0.5, 7|-20, -3.25, 8|"
        # a bytes column is its own cells, NUL padding dropped
        rows = format_rows([np.array([1, -20]), np.array(["ok", "diverged"], "S"), np.array([0.5, 7.0])],
                           b",", b"\n")
        assert rows == b"1,ok,0.5\n-20,diverged,7.0\n"

    def test_empty_columns(self):
        assert format_rows([np.array([], np.int64), np.array([])], b",", b"\n") == b""

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            format_rows([np.array([1, 2]), np.array([1.0])], b",", b"\n")
