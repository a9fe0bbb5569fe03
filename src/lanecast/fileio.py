"""Atomic file writes, and the text form of numbers in the files written.

Numbers are written as Python writes them: an integer as `str(int(v))`, a
float as `repr(float(v))`, the shortest decimal that reads back as the same
double. `format_rows` produces that text for whole numpy columns at once.
"""

import os
import tempfile

import numpy as np

# rows formatted per pass: bounds the buffers of one call
_CHUNK = 16384
_NUL, _MINUS = 0, ord("-")
# repr writes fixed notation for 1e-4 <= |x| < 1e16. These are the doubles
# 1e-4 .. 1e16: each negative power rounds up, so for any double x,
# x >= _DECADES[i] exactly when x >= 10**(i - 4).
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
# 10**k, as exact doubles for k = 0..21 and as int64 for k = 0..17
_POW10 = np.array([float(10**k) for k in range(22)])
_POW10_INT = 10 ** np.arange(18, dtype=np.int64)
_SPLITTER = 134217729.0  # 2**27 + 1


def _split(a):
    """Veltkamp: a == hi + lo exactly, each half with at most 26 significant bits."""
    c = a * _SPLITTER
    hi = c - (c - a)
    return hi, a - hi


_POW10_HI, _POW10_LO = _split(_POW10)


# the place value of each of a quad's 4 digits, first to last
_PLACE = 10 ** np.arange(3, -1, -1)


def _quads(values, shown):
    """Each of the column `values` (0..9999) as 4 ASCII digits in one
    little-endian uint32, first digit in the first byte, with NUL where
    `shown` is false."""
    digits = values // _PLACE % 10
    return np.where(shown, digits + ord("0"), 0).astype(np.uint8).view("<u4").ravel()


_R = np.arange(10000)[:, None]
_QUAD = _quads(_R, True)
# indexed by r + 10000 * (whether digits precede r): leading zeros are NUL,
# and in the units table not the last digit of a number
_QUAD_INTEGER = np.concatenate([_quads(_R, _R >= _PLACE), _QUAD])
_QUAD_UNITS = np.concatenate([_quads(_R, (_R >= _PLACE) | (_PLACE == 1)), _QUAD])
# indexed by r + 1000 * (whether digits precede r): the last 3 integer
# digits, leading zeros NUL but the units digit kept, then the point (the
# quads of 10 * r, their last digit replaced)
_TENS = 10 * np.arange(1000)[:, None]
_TRIPLE_POINT = np.concatenate([_quads(_TENS, (_TENS >= _PLACE) | (_PLACE == 10)),
                                _quads(_TENS, True)]) & 0x00FFFFFF | ord(".") << 24
# indexed by r + 10000 * (whether digits follow r): trailing zeros are NUL
_QUAD_FRACTION = np.concatenate([_quads(_R, _R % (10 * _PLACE) != 0), _QUAD])
# the bytes kept of the first fraction quad, '000d': d alone, or the zeros
# of '0.0d', '0.00d', '0.000d' too
_FIRST_QUAD_MASK = np.array([0xFF000000, 0xFFFF0000, 0xFFFFFF00, 0xFFFFFFFF], "<u4")


def atomic_write_bytes(path, data: bytes) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text) -> None:
    """Write `text` (a str, or bytes already encoded as UTF-8) atomically."""
    atomic_write_bytes(path, text if isinstance(text, bytes) else text.encode("utf-8"))


def format_rows(columns, separator: bytes, terminator: bytes) -> bytes:
    """The aligned 1-D `columns` as text rows, as ASCII bytes.

    Row i is the i-th value of every column joined by `separator` and
    followed by `terminator`. An integer column's values are written as
    `str(int(v))`, a float column's as `repr(float(v))`, byte for byte. A
    bytes (`S`) column is already its NUL-padded cells and is written as is.
    """
    columns = [np.asarray(c) for c in columns]
    n = len(columns[0]) if columns else 0
    if any(c.ndim != 1 or len(c) != n for c in columns):
        raise ValueError("format_rows needs 1-D columns of one length")
    widths = [c.itemsize if c.dtype.kind == "S" else _int_width(c) if c.dtype.kind in "iu"
              else _float_width(c) for c in columns]
    seps = [separator] * (len(columns) - 1) + [terminator]
    starts, at = [], 0
    for width, sep in zip(widths, seps):
        starts.append(at)
        at += width + len(sep)
    rows = np.zeros((min(n, _CHUNK), at), np.uint8)
    for start, width, sep in zip(starts, widths, seps):
        rows[:, start + width:start + width + len(sep)] = np.frombuffer(sep, np.uint8)
    pieces = []
    for lo in range(0, n, _CHUNK):
        block = rows[:min(_CHUNK, n - lo)]
        for column, start, width in zip(columns, starts, widths):
            cells = block[:, start:start + width]
            values = column[lo:lo + len(block)]
            if column.dtype.kind == "S":
                cells[...] = np.ascontiguousarray(values).view(np.uint8).reshape(len(block), width)
            elif column.dtype.kind in "iu":
                _int_cells(values.astype(np.int64), cells)
            else:
                _float_cells(values.astype(np.float64), cells)
        pieces.append(block[block != _NUL].tobytes())
    return b"".join(pieces)


def _int_width(column) -> int:
    """Cells wide enough for every value of an integer column, sign included."""
    if column.dtype == np.uint64 and column.size and column.max() > np.iinfo(np.int64).max:
        raise ValueError("integer values beyond the int64 range")
    if not column.size:
        return 1
    top = max(-int(column.min()), int(column.max()))
    return len(str(top)) + bool(column.min() < 0)


def _float_width(column) -> int:
    """Cells wide enough for every value of a float column: a sign, the
    integer digits, the point and 20 more (the zeros of '0.000ddd' and 17
    digits), and at least 24, the longest repr ('-2.2250738585072014e-308')."""
    a = np.abs(column)
    top = np.max(a, where=a < 1e16, initial=0.0)
    return 22 + max(2, len(str(int(top))))


def _integer_quads(u, quads, last, base) -> None:
    """The uint64 `u` in decimal, right-aligned in the uint32 columns of
    `quads` with NUL for leading zeros. The last column holds the last
    log10(base) digits, from the table `last` (_QUAD_UNITS, _TRIPLE_POINT)."""
    for j in range(quads.shape[1] - 1, -1, -1):
        q = u // base
        quads[:, j] = last[u - q * base + (q > 0) * np.uint64(base)]
        u, last, base = q, _QUAD_INTEGER, 10000


def _int_cells(v, out) -> None:
    """`str(int(v))` of each int64 `v` in NUL-padded cells."""
    quads = np.empty((len(v), -(-out.shape[1] // 4)), "<u4")
    # the absolute value as uint64 also holds -2**63
    _integer_quads(np.abs(v).view(np.uint64), quads, _QUAD_UNITS, 10000)
    out[...] = quads.view(np.uint8)[:, quads.shape[1] * 4 - out.shape[1]:]
    # a column with a negative value has one more cell than digits (_int_width)
    out[v < 0, 0] = _MINUS


def _float_cells(x, out) -> None:
    """`repr(float(v))` of each float64 `x` in NUL-padded cells.

    |x| in [1e-4, 1e16) is repr's fixed notation, and is worked out here:
    |x|*10**k, scaled to 17 integer digits, is split exactly into hi + lo
    (TwoProduct), and its nearest 15-, 16- and 17-digit roundings are tried
    in turn. The first within half an ulp of x (scaled the same way) is the
    shortest decimal that reads back as x; the interval is symmetric, so no
    other candidate of that length can be. Zeros are '0.0' and '-0.0'.
    repr itself writes the rest: |x| outside that range, a power of two
    (whose interval is asymmetric), and a candidate at an exact tie or on
    the interval's edge, where the choice depends on rounding rules.

    Each character has a fixed column: the sign, the integer digits
    right-aligned, the point, then the fraction digits left-aligned.
    """
    a = np.abs(x)
    fast = (a >= _DECADES[0]) & (a < 1e16)
    np.copyto(a, 0.5, where=~fast)
    mantissa, exponent = np.frexp(a)
    # a in [2**(exponent-1), 2**exponent) spans at most two decades
    low = (exponent - 1) * 78913 >> 18  # floor((exponent - 1) * log10(2)), exactly
    k = 16 - low - (a >= _DECADES[low + 5])  # 10**(16-k) <= a < 10**(17-k)
    scale = _POW10[k]
    hi = a * scale
    # hi + lo == a * 10**k exactly: hi is an integer >= 1e16 and |lo| <= 8;
    # both are multiples of 2**-46, since a >= 1e-4 is one of 2**-66 and k <= 20
    a_hi, a_lo = _split(a)
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((a_hi * s_hi - hi) + a_hi * s_lo + a_lo * s_hi) + a_lo * s_lo
    floor = np.floor(lo)
    whole = hi.astype(np.int64) + floor.astype(np.int64)
    frac = lo - floor  # exact: a multiple of 2**-46 in [0, 1)
    # exact: 5**k times a power of two, 2**(exponent-54) built from its bits
    half_ulp = scale * ((exponent.astype(np.int64) + 969) << 52).view(np.float64)
    # the nearest 15-, 16- and 17-digit roundings; the 17-digit one always
    # fits. No candidate is 10**17: a power of ten that reads back as x is
    # in x's own decade.
    rounded = []
    for step in (100, 10, 1):
        q = whole // step
        rest = (whole - q * step) + frac  # exact, below 100
        off = np.abs(rest - step / 2)
        dist = step / 2 - off  # to the nearer multiple of step; exact
        # a tie between two candidates, or one on the interval's edge
        edge = (off == 0.0) | (dist == half_ulp)
        rounded.append(((q + (rest > step / 2)) * step, dist <= half_ulp, edge))
    (c15, fit15, edge15), (c16, fit16, edge16), (c17, _, edge17) = rounded
    digits = c17 + fit16 * (c16 - c17)
    digits += fit15 * (c15 - digits)
    digits *= x != 0.0
    unsure = fit15 & edge15 | ~fit15 & (fit16 & edge16 | ~fit16 & edge17)
    unsure = fast & (unsure | (mantissa == 0.5)) | ~fast & (x != 0.0)
    point = 17 - k  # digits before the decimal point, if positive
    integer = np.floor(a).astype(np.uint64)
    # the fraction digits, left-aligned in 17 digits
    fraction = digits - integer.view(np.int64) * _POW10_INT[np.minimum(k, 17)]
    fraction *= _POW10_INT[np.maximum(point, 0)]
    # the integer digits and the point right-aligned in the first quads,
    # then the fraction digits left-aligned in 5 quads
    width = out.shape[1] - 1
    head = -(-(width - 20) // 4)
    quads = np.empty((len(x), head + 5), "<u4")
    _integer_quads(integer, quads[:, :head], _TRIPLE_POINT, 1000)
    follows = np.zeros(len(x), bool)
    for j in range(head + 4, head, -1):
        q = fraction // 10000
        r = fraction - q * 10000
        quads[:, j] = _QUAD_FRACTION[r + 10000 * follows]
        follows |= r != 0
        fraction = q
    quads[:, head] = _QUAD[fraction] & _FIRST_QUAD_MASK[np.clip(-point, 0, 3)]
    np.multiply(np.signbit(x), _MINUS, out=out[:, 0], casting="unsafe")
    out[:, 1:] = quads.view(np.uint8)[:, quads.shape[1] * 4 - width:]
    for i in np.flatnonzero(unsure):
        text = repr(float(x[i])).encode()
        out[i] = _NUL
        out[i, :len(text)] = np.frombuffer(text, np.uint8)
