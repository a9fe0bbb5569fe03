"""format_rows against the reference it must reproduce: `repr` for floats,
`str` for integers, byte for byte; parse_rows against `float()` and `int()`,
bit for bit."""

import math
import threading
from concurrent.futures import wait
from decimal import Decimal

import numpy as np
import pytest

import lanecast.lanes
from lanecast import fileio
from lanecast.errors import DataError
from lanecast.fileio import format_rows, parse_rows
from lanecast.pipeline import CSV_HEADER, CorridorShape, read_records
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


def _cell_log(monkeypatch, name):
    """Patch fileio's `name` cell writer to log (thread, rows) of every call."""
    log = []
    cells = getattr(fileio, name)

    def logged(values, out):
        log.append((threading.get_ident(), len(values)))
        cells(values, out)

    monkeypatch.setattr(fileio, name, logged)
    return log


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

    def test_chunk_boundaries(self, monkeypatch, worker_log):
        # 100 rows in chunks of at most 7: an even 16 of 6 or 7 rows, formatted
        # on one lane and on two, the same bytes
        monkeypatch.setattr(fileio, "_CHUNK", 7)
        sizes = _cell_log(monkeypatch, "_float_cells")
        values = np.random.default_rng(8).uniform(0, 80, 100)
        values[[6, 7, 50]] = [0.0, 1e20, -0.0]
        got = {}
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            worker_log.clear()
            assert mismatches(values) == []
            sizes.clear()
            got[lanes] = format_rows([values, -values], b",", b"\n")
            # the worker ran once a call and formatted chunks itself; 12
            # chunks of 6 rows, 4 of 7, each formatting 2 columns
            assert len(worker_log) == (2 if lanes == 2 else 0)
            assert len({thread for thread, _ in sizes}) == lanes
            assert sorted(rows for _, rows in sizes) == [6] * 24 + [7] * 8
        assert got[1] == got[2]


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

    def test_empty_columns(self, monkeypatch, worker_log):
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            assert format_rows([np.array([], np.int64), np.array([])], b",", b"\n") == b""
        assert len(worker_log) == 0

    def test_worker_error_reaches_the_caller_after_both_lanes(self, monkeypatch, worker_log):
        # 8 chunks: the worker's first one raises while the caller's first
        # waits for the worker to stop; the caller then takes no other chunk
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(fileio, "_CHUNK", 5)
        caller = threading.get_ident()
        ran = []
        cells = fileio._int_cells

        def failing(values, out):
            if threading.get_ident() != caller:
                raise ValueError("the worker's chunk failed")
            assert not wait(worker_log.futures, timeout=60).not_done
            cells(values, out)
            ran.append(len(values))

        monkeypatch.setattr(fileio, "_int_cells", failing)
        with pytest.raises(ValueError, match="the worker's chunk failed"):
            format_rows([np.arange(40)], b",", b"\n")
        assert ran == [5]
        assert len(worker_log) == 1 and worker_log.futures[0].done()

    def test_misaligned_columns_rejected(self):
        with pytest.raises(ValueError, match="one length"):
            format_rows([np.array([1, 2]), np.array([1.0])], b",", b"\n")


class TestAtomicWrite:
    def test_pieces_written_in_turn(self, tmp_path):
        path = tmp_path / "out.txt"
        fileio.atomic_write_text(path, (piece for piece in (b"a, ", b"", b"b")))
        assert path.read_bytes() == b"a, b"

    def test_raising_piece_leaves_nothing(self, tmp_path):
        def pieces():
            yield b"partial"
            raise RuntimeError("stopped")

        path = tmp_path / "out.txt"
        with pytest.raises(RuntimeError, match="stopped"):
            fileio.atomic_write_text(path, pieces())
        assert list(tmp_path.iterdir()) == []


def parsed(texts, dtype=np.float64):
    """parse_rows of `texts`, one cell per row, or None."""
    columns = parse_rows("".join(t + "\n" for t in texts).encode(), [dtype])
    return None if columns is None else columns[0]


def unparsed(values, dtype=np.float64):
    """The cells mismatched by parse_rows reading back what format_rows
    wrote, against float() or int() of each cell's text: (text, got)."""
    values = np.asarray(values, dtype)
    texts = format_rows([values], b"", b"\n").decode("ascii").split("\n")[:-1]
    got = parsed(texts, dtype)
    assert got is not None and got.dtype == dtype
    want = np.array([(float if dtype == np.float64 else int)(t) for t in texts], dtype)
    return [(t, g) for t, g, w in zip(texts, got.tolist(), (got.view(np.int64) == want.view(np.int64)))
            if not w]


def midpoints(top_binade, count, seed):
    """Exact decimal midpoints between neighbouring doubles in the binades
    [2**b, 2**(b+1)) up to `top_binade`, with the decimals one unit of their
    last digit either side: those whose digits make a mantissa below 2**61."""
    rng = np.random.default_rng(seed)
    texts = []
    for b in range(50, top_binade + 1):
        doubles = np.ldexp(1.0 + rng.integers(0, 2**52, count) / 2**52, b)
        for d in [*doubles.tolist(), 2.0**b, float(np.nextafter(2.0**(b + 1), 0.0))]:
            mid = (Decimal(d) + Decimal(float(np.nextafter(d, np.inf)))) / 2
            unit = Decimal(1).scaleb(min(mid.as_tuple().exponent, -1))
            for near in (mid - unit, mid, mid + unit):
                text = f"{near:f}" if near != near.to_integral() else f"{near:f}.0"
                if int(text.replace(".", "")) < 2**61:
                    texts.append(text)
    return texts


def near_powers_of_two(count, seed):
    """Decimals of 1 to 3 fraction digits within two ulps below and one
    above 2**b, where the neighbour below is half as far as the one above."""
    rng = np.random.default_rng(seed)
    texts = []
    for b in range(50, 58):
        for t in rng.uniform(-2, 1, count):
            near = Decimal(2) ** b + Decimal(float(t)) * Decimal(2) ** (b - 53)
            for places in (1, 2, 3):
                text = f"{near.quantize(Decimal(1).scaleb(-places)):f}"
                if int(text.replace(".", "")) < 2**61:
                    texts.append(text)
    return texts


NON_REPR = [
    "9007199254740993.0", "9007199254740995.0", "9007199254740991.5", "18014398509481983.0",
    "18014398509481986.0", "90071992547409931.0", "0.30000000000000004", "0.30000000000000005",
    "12345678901234567.0", "98765432109876543.0", "0.12345678901234567", "1.2345678901234567",
    "007.50", "000.000", "0.0000000000000000000001", "000000000000000000000001.5",
    "2.000000000000000000", "1.999999999999999999", "4503599627370496.5",
    *(f"{2**53 + j}.{d}" for j in range(0, 40, 3) for d in (0, 5, 25)),
]


class TestParse:
    def test_edge_values_read_as_float(self):
        values = [v for v in EDGE + [-v for v in EDGE] if math.isfinite(v)]
        assert unparsed(values + [-0.0]) == []
        assert np.signbit(parsed(["-0.0", "0.0"])).tolist() == [True, False]

    def test_random_bit_patterns_read_as_float(self):
        rng = np.random.default_rng(5)
        values = rng.integers(0, 2**64, 200_000, dtype=np.uint64).view(np.float64)
        assert unparsed(values[np.isfinite(values)]) == []

    def test_data_and_weight_values_read_as_float(self):
        rng = np.random.default_rng(6)
        records = generate(SynthConfig(shape=CorridorShape(10, 8, 4), days=2, seed=7))
        sets = [
            records.speed, records.volume,
            rng.standard_normal(40_000) * math.sqrt(2 / 288),
            rng.uniform(-1e6, 1e6, 40_000),
            10 ** rng.uniform(-6, 17, 40_000),
            np.round(rng.uniform(0, 100, 40_000), 2),
            np.round(rng.uniform(0, 100, 40_000), 1),
        ]
        for values in sets:
            assert unparsed(values) == []

    @pytest.mark.parametrize("texts", [NON_REPR, midpoints(57, 40, 11), near_powers_of_two(30, 3)],
                             ids=["listed", "midpoints", "near_powers_of_two"])
    def test_decimals_repr_never_writes(self, texts):
        texts = texts + ["-" + t for t in texts]
        got = parsed(texts)
        assert got is not None
        want = np.array([float(t) for t in texts])
        assert [t for t, ok in zip(texts, got.view(np.int64) == want.view(np.int64)) if not ok] == []

    def test_one_step_settles_all_but_ties(self):
        # the corpus's 16- and 17-digit decimals above 2**53: each candidate
        # is right or one ulp off, so none is left for float() to read
        records = generate(SynthConfig(shape=CorridorShape(10, 8, 4), days=2, seed=7))
        texts = [repr(v) for v in np.concatenate([records.speed, records.volume]).tolist()]
        cells = [(int(t.replace(".", "")), len(t) - t.index(".") - 1, t) for t in texts if "e" not in t]
        cells = [c for c in cells if c[0] > 2**53]
        mantissa = np.array([m for m, _, _ in cells], np.uint64)
        values, unsure = fileio._nearest(mantissa, np.array([k for _, k, _ in cells]))
        assert len(cells) > 10_000 and not unsure.any()
        assert values.tolist() == [float(t) for _, _, t in cells]

    def test_integers_read_as_int(self):
        info = np.iinfo(np.int64)
        values = [0, 1, -1, 2**53 - 1, 2**53, 2**53 + 1, -(2**53 - 1), -(2**53 + 1),
                  info.max, info.min, info.max - 1, info.min + 1, 10**18, -(10**18)]
        assert unparsed(values, np.int64) == []
        rng = np.random.default_rng(9)
        assert unparsed(rng.integers(info.min, info.max, 20_000, endpoint=True), np.int64) == []
        texts = ["0007", "-0", "-0007", "0000000000000000007"]
        assert parsed(texts, np.int64).tolist() == [7, 0, -7, 7]

    @pytest.mark.parametrize("text", ["9223372036854775808", "-9223372036854775809",
                                      "99999999999999999999", "00000000000000000001"])
    def test_integers_beyond_int64_or_19_digits_refused(self, text):
        assert parsed([text], np.int64) is None

    def test_columns_across_blocks(self, monkeypatch, worker_log):
        # blocks of 64 bytes: most lines straddle a block boundary, and
        # each block's first cells load bytes before it; read on one lane
        # and on two, the same bytes
        monkeypatch.setattr(fileio, "_BLOCK", 64)
        rng = np.random.default_rng(12)
        columns = [rng.integers(-10**12, 10**12, 500), rng.uniform(0, 100, 500),
                   rng.integers(0, 9, 500), 10 ** rng.uniform(-7, 18, 500)]
        body = format_rows(columns, b",", b"\n")
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            worker_log.clear()
            got = parse_rows(body, [c.dtype for c in columns])
            assert [g.tobytes() for g in got] == [c.tobytes() for c in columns], lanes
            assert len(worker_log) == (1 if lanes == 2 else 0)
            assert parse_rows(b"1," + b"0" * 70 + b".5\n", [np.int64, np.float64]) is None

    REFUSED = [
        b"", b"1,2.5", b"1,2.5\n\n", b" 1,2.5\n", b"+1,2.5\n", b"1,+2.5\n", b"1,2.5\r\n",
        b"1,,2.5\n", b",2.5\n", b"1,\n", b"1,2.5,3\n", b"1\n", b"1.0,2.5\n", b"1,25\n",
        b"1,2.5.5\n", b"1,.5\n", b"1,5.\n", b"1,-.5\n", b"1-2,2.5\n", b"1,2-5.0\n", b"--1,2.5\n",
        b"1,2.5-\n", b"1,nan\n", b"1,inf\n", b"1,1e5\n", b"1,1E+05\n", b"1e+05,2.5\n",
        b"1,1.0e+5\n", b'"1",2.5\n', b"1;2.5\n", b"1,2/5\n", b"1,0.00000000000000000000001\n",
        b"1,2305843009213693952.0\n", b"1,0.18446744073709551617\n", b"1,2.00000000000000000000\n", b"1,0000000000000000000000001.5\n",
    ]

    @pytest.mark.parametrize("body", REFUSED)
    def test_other_text_refused(self, body):
        assert parse_rows(body, [np.int64, np.float64]) is None


def _lines(count):
    """`count` record rows of 60 bytes each, leading zeros padding the cells:
    with 128-byte blocks each block holds two, so the caller's first block
    is rows 0-1 and the worker's first rows 2-3."""
    lines = [f"{i:010d},{i % 7 + 1},1,{i + 0.5:020.3f},{2.25 * i:023.4f}\n" for i in range(count)]
    assert {len(line) for line in lines} == {60}
    return lines


class TestParseLanes:
    """A block the worker claims reads as it would on the caller."""

    DTYPES = [np.int64, np.int64, np.int64, np.float64, np.float64]

    @staticmethod
    def _block_log(monkeypatch, before=None):
        """Patch the block parser to log (thread, block text, whether it
        refused) of every block, calling `before()` first on each."""
        log = []
        block = fileio._parse_block

        def logged(buf, *args):
            if before:
                before()
            text = buf[fileio._PAD:].tobytes()
            part = block(buf, *args)
            log.append((threading.get_ident(), text, part is None))
            return part

        monkeypatch.setattr(fileio, "_parse_block", logged)
        return log

    def test_refused_text_in_the_worker_block_gives_none(self, monkeypatch, worker_log):
        # A '+' in row 2, in the worker's first of 8 blocks. The caller's
        # first block waits until the worker has stopped, then the caller
        # takes no other block.
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(fileio, "_BLOCK", 128)
        lines = _lines(16)
        lines[2] = lines[2].replace(",1,", ",+1,")
        body = "".join(lines).encode()
        caller = threading.get_ident()

        def caller_waits():
            if threading.get_ident() == caller:
                assert not wait(worker_log.futures, timeout=60).not_done

        log = self._block_log(monkeypatch, caller_waits)
        assert parse_rows(body, self.DTYPES) is None
        assert [(thread == caller, refused) for thread, _, refused in log] == [(False, True), (True, False)]
        assert b"+1" in log[0][1]
        monkeypatch.setattr(lanecast.lanes, "_LANES", 1)
        assert parse_rows(body, self.DTYPES) is None
        assert parse_rows("".join(_lines(16)).encode(), self.DTYPES) is not None

    def test_read_records_names_the_line_of_the_worker_block(self, tmp_path, monkeypatch, worker_log):
        # Row 3, in the worker's first block, is line 5 of the file (the
        # header is line 1): the line loop names it at one lane and at two.
        monkeypatch.setattr(fileio, "_BLOCK", 128)
        lines = _lines(16)
        lines[3] = lines[3].replace(f"{3.5:020.3f}", "x" * 20)
        path = tmp_path / "records.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "".join(lines))
        errors = []
        for lanes in (1, 2):
            monkeypatch.setattr(lanecast.lanes, "_LANES", lanes)
            with pytest.raises(DataError) as caught:
                read_records(path)
            errors.append(str(caught.value))
        assert errors[0] == errors[1]
        assert f"{path} line 5: could not convert string to float" in errors[0]
        assert len(worker_log) == 1

    def test_exponent_form_in_the_worker_block_read_by_float(self, monkeypatch, worker_log):
        monkeypatch.setattr(lanecast.lanes, "_LANES", 2)
        monkeypatch.setattr(fileio, "_BLOCK", 128)
        lines = _lines(16)
        lines[2] = lines[2].replace(f"{2.5:020.3f}", "1e-05")
        lines[3] = lines[3].replace(f"{2.25 * 3:023.4f}", "2.5e+16")
        body = "".join(lines).encode()
        log = self._block_log(monkeypatch)
        got = parse_rows(body, self.DTYPES)
        rows = [line.split(",") for line in lines]
        for j in (3, 4):
            assert got[j].tobytes() == np.array([float(row[j]) for row in rows]).tobytes()
        assert got[3][2] == 1e-05 and got[4][3] == 2.5e16
        assert [thread == threading.get_ident() for thread, text, _ in log if b"e" in text] == [False]
