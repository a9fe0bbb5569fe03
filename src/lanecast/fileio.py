"""Atomic file writes, and the text form of numbers in the files written.

Numbers are written as Python writes them: an integer as `str(int(v))`, a
float as `repr(float(v))`, the shortest decimal that reads back as the same
double. `format_rows` produces that text for whole numpy columns at once, and
`parse_rows` reads it back, as `int()` and `float()` would. Both work through
independent chunks of rows, or blocks of lines, which the two lanes of
`lanecast.lanes` share: the bytes and values are those of one lane.
"""

import os
import re
import tempfile

import numpy as np

from .lanes import claim_chunks, even_chunks

# rows formatted per pass, at most: bounds the buffers of one call
_CHUNK = 16384
_NUL, _MINUS = 0, ord("-")
# repr writes fixed notation for 1e-4 <= |x| < 1e16. These are the doubles
# 1e-4 .. 1e16: each negative power rounds up, so for any double x,
# x >= _DECADES[i] exactly when x >= 10**(i - 4).
_DECADES = np.array([float(f"1e{e}") for e in range(-4, 17)])
# 10**k, as exact doubles for k = 0..22 and as int64 for k = 0..17
_POW10 = np.array([float(10**k) for k in range(23)])
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


def atomic_write_bytes(path, data) -> None:
    """Write `data`, bytes or an iterable of bytes pieces written in turn,
    atomically: if a piece raises, `path` is left as it was and no
    temporary file remains."""
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-")
    try:
        with os.fdopen(fd, "wb") as fh:
            if isinstance(data, bytes):
                fh.write(data)
            else:
                fh.writelines(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def atomic_write_text(path, text) -> None:
    """Write `text` (a str, or bytes already encoded as UTF-8, or an
    iterable of such bytes) atomically."""
    atomic_write_bytes(path, text.encode("utf-8") if isinstance(text, str) else text)


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
    chunks = even_chunks(n, _CHUNK)
    rows_per_chunk = max(hi - lo for lo, hi in chunks)

    def new_rows():
        rows = np.zeros((rows_per_chunk, at), np.uint8)
        for start, width, sep in zip(starts, widths, seps):
            rows[:, start + width:start + width + len(sep)] = np.frombuffer(sep, np.uint8)
        return (rows,)

    def format_chunk(chunk, rows):
        lo, hi = chunk
        block = rows[:hi - lo]
        for column, start, width in zip(columns, starts, widths):
            cells = block[:, start:start + width]
            values = column[lo:hi]
            if column.dtype.kind == "S":
                cells[...] = np.ascontiguousarray(values).view(np.uint8).reshape(len(block), width)
            elif column.dtype.kind in "iu":
                _int_cells(values.astype(np.int64), cells)
            else:
                _float_cells(values.astype(np.float64), cells)
        return block[block != _NUL].tobytes()

    return b"".join(claim_chunks(chunks, format_chunk, new_rows))


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


# -- reading: the inverse of format_rows -----------------------------------------

# body bytes parsed per pass: bounds the buffers of one call
_BLOCK = 1 << 20
# bytes before a block in its buffer, so that the loads of every digit run's
# three 8-byte chunks start inside the buffer
_PAD = 24
_COMMA, _NEWLINE, _POINT = ord(","), ord("\n"), ord(".")
# _DIGIT_BITS[n]: the digit value bits of the last n bytes of a little-endian word
_DIGIT_BITS = np.array([0x0F0F0F0F0F0F0F0F >> 8 * (8 - n) << 8 * (8 - n) for n in range(9)], np.uint64)
# 10**p modulo 2**64; exact for p <= 19
_POW10_U64 = np.array([10**p % 2**64 for p in range(23)], np.uint64)
# repr's exponent form: one digit, perhaps a point and more, then e, a sign and 2 or 3 digits
_EXPONENT_FORM = re.compile(rb"-?[1-9](?:\.[0-9]+)?e[-+][0-9]{2,3}")


class _Refused(Exception):
    """A block holds text that parse_rows does not read."""


def parse_rows(body: bytes, dtypes) -> list | None:
    """The columns of `body`, rows as format_rows(columns, b",", b"\n")
    writes them, or None when it holds any other text.

    Column j has `dtypes[j]`, int64 or float64. Its cells must read
    `-?digits` (at most 19, within int64) or `-?digits.digits`, or else
    repr's exponent form. Every value is what `int()` or `float()` gives for
    its cell: a float with mantissa m <= 2**53 and k <= 22 fraction digits is
    m / 10**k, one correctly rounded division (Clinger); any other is a
    candidate corrected by at most one ulp, tested exactly. An exact tie,
    and a cell in exponent form, is read by `float()` itself. None for
    anything else: an empty body or a last line without a newline, other
    bytes (spaces, `+`, CR), empty cells, a wrong cell count, more digits or
    a larger mantissa than that (2**61), a line longer than a block (1 MB).
    """
    if not body.endswith(b"\n"):
        return None
    is_float = [np.dtype(t) == np.float64 for t in dtypes]
    # the marks of a row without signs: a point in each float cell, a comma
    # after each cell but the last, which ends in a newline
    row = np.array([mark for f in is_float for mark in ([_POINT] if f else []) + [_COMMA]], np.uint8)
    row[-1] = _NEWLINE
    spans, at = [], 0
    while at < len(body):
        end = body.rfind(b"\n", at, at + _BLOCK) + 1
        if end <= at:  # a line longer than a block
            return None
        spans.append((at, end))
        at = end

    def new_buffers():
        buf = np.full(_PAD + max(stop - start for start, stop in spans), _NEWLINE, np.uint8)
        # the 8 bytes from each index, as one little-endian word
        words = np.ndarray((len(buf) - 7,), "<u8", buffer=buf, strides=(1,))
        return buf, words

    def parse_block(span, buf, words):
        at, end = span
        buf[_PAD:_PAD + end - at] = np.frombuffer(body, np.uint8, end - at, at)
        part = _parse_block(buf[:_PAD + end - at], words, is_float, row)
        if part is None:
            raise _Refused
        return part

    try:
        parts = claim_chunks(spans, parse_block, new_buffers)
    except _Refused:
        return None
    return [np.concatenate(column) for column in zip(*parts)]


def _parse_block(buf, words, is_float, row) -> list | None:
    """The columns of the whole lines in buf[_PAD:], or None."""
    text = buf[_PAD:]
    exponents = _exponent_cells(buf) if text.max() > ord("9") else []
    if exponents is None:
        return None
    # separators, signs and points, and any other byte below the digits
    marks = np.flatnonzero(text < ord("0")) + _PAD
    kinds = buf[marks]
    signs = marks[kinds == ord("-")]
    if signs.size:  # each must open its cell
        before = buf[signs - 1]
        if not ((before == _COMMA) | (before == _NEWLINE)).all():
            return None
        unsigned = kinds != ord("-")
        marks, kinds = marks[unsigned], kinds[unsigned]
    rows = len(marks) // len(row)
    if len(marks) != rows * len(row) or not (kinds.reshape(rows, -1) == row).all():
        return None
    # one row per column: the cells' ends (their separators), their points
    marks = marks.reshape(rows, -1).T
    ends, points = marks[(row == _COMMA) | (row == _NEWLINE)], marks[row == _POINT]
    first = np.empty_like(ends)
    first[1:] = ends[:-1] + 1
    first[0, 1:] = ends[-1, :-1] + 1
    first[0, 0] = _PAD
    negative = np.zeros(ends.shape, bool)
    negative[_cells(ends, signs)] = True
    first += negative
    columns = []
    for j, f in enumerate(is_float):
        if f:
            column = _float_column(buf, words, first[j], points[sum(is_float[:j])], ends[j], negative[j])
        else:
            column = _int_column(words, first[j], ends[j], negative[j])
        if column is None:
            return None
        columns.append(column)
    if exponents:
        starts, values = zip(*exponents)
        for j, r, value in zip(*_cells(ends, starts), values):
            columns[j][r] = value
    return columns


def _cells(ends, positions):
    """(column, row) indices of the cells holding the buffer `positions`."""
    rows = np.searchsorted(ends[-1], positions)
    return (ends[:, rows] < positions).sum(axis=0), rows


def _exponent_cells(buf) -> list | None:
    """(its start, its value) for each cell of buf[_PAD:] that holds a
    letter, or None unless each is in repr's exponent form. Each is read by
    `float()`, then overwritten in buf by zeros of its own width after its
    sign ('0.000'), which parse as a float cell."""
    data = buf.tobytes()
    cells = []
    for letter in np.flatnonzero(buf[_PAD:] > ord("9")) + _PAD:
        start = max(data.rfind(b",", 0, letter), data.rfind(b"\n", 0, letter)) + 1
        end = data.find(b"\n", letter)
        comma = data.find(b",", letter, end)
        end = end if comma < 0 else comma
        text = data[start:end]
        if not _EXPONENT_FORM.fullmatch(text):
            return None
        cells.append((start, float(text)))
        digits = start + text.startswith(b"-")
        buf[digits:end] = ord("0")
        buf[digits + 1] = _POINT
    return cells


def _int_column(words, first, ends, negative) -> np.ndarray | None:
    """The int64 cells whose digits span [first, ends), or None."""
    count = ends - first
    if not ((count >= 1) & (count <= 19)).all():
        return None
    value = _digit_run(words, ends, count)
    # int64 holds -2**63 .. 2**63 - 1
    if (value > np.uint64(2**63 - 1) + negative).any():
        return None
    np.negative(value, out=value, where=negative)  # two's complement
    return value.view(np.int64)


def _float_column(buf, words, first, points, ends, negative) -> np.ndarray | None:
    """The float64 cells whose digits 'digits.digits' span [first, ends)
    with the point at `points`, negated where `negative`, or None."""
    whole, k = points - first, ends - points - 1
    if not ((whole >= 1) & (whole <= 24) & (k >= 1) & (k <= 22)).all():
        return None
    integer, fraction = _digit_run(words, points, whole), _digit_run(words, ends, k)
    if integer is None or fraction is None:
        return None
    scale = _POW10[k]
    # the mantissa is exact in uint64 below 2**61: 18 digits always are, and
    # a longer cell is estimated in float64 and refused at 2**61 or above
    long = np.flatnonzero(whole + k > 18)
    if long.size and (integer[long] * scale[long] + fraction[long].astype(np.float64) >= 2.0**61).any():
        return None
    mantissa = integer * _POW10_U64[k] + fraction
    values = mantissa.astype(np.float64) / scale
    slow = np.flatnonzero(mantissa > 2**53)
    if slow.size:
        values[slow], unsure = _nearest(mantissa[slow], k[slow])
        for i in slow[unsure]:
            values[i] = float(buf[first[i]:ends[i]].tobytes())
    np.negative(values, out=values, where=negative)
    return values


def _digit_run(words, ends, count) -> np.ndarray | None:
    """The uint64 value of the `count` (1..24) digits before each index
    `ends` of the buffer, or None if one could reach 2**64."""
    value = _eight_digits(words, ends, np.minimum(count, 8))
    for j in (1, 2):
        if not (count > 8 * j).any():
            break
        chunk = _eight_digits(words, ends - 8 * j, np.clip(count - 8 * j, 0, 8))
        if j == 2 and (chunk >= 1844).any():  # 1844 * 10**16 + 10**16 > 2**64
            return None
        chunk *= _POW10_U64[8 * j]
        value += chunk
    return value


def _eight_digits(words, ends, count) -> np.ndarray:
    """The `count` (0..8) digits before each index `ends`, as integers: the
    8 bytes up to it in one little-endian load, bytes before the digits
    cleared, then three multiply-shifts that join digit pairs, quads and
    octets (Langdale & Lemire's SWAR conversion)."""
    w = words[ends - 8]
    w &= _DIGIT_BITS[count]
    w *= 2561  # 10 * 2**8 + 1
    w >>= 8
    w &= 0x00FF00FF00FF00FF
    w *= 6553601  # 100 * 2**16 + 1
    w >>= 16
    w &= 0x0000FFFF0000FFFF
    w *= 42949672960001  # 10000 * 2**32 + 1
    w >>= 32
    return w


def _nearest(mantissa, k):
    """(m / 10**k correctly rounded, whether it is unsure) for each uint64
    m in (2**53, 2**62) and k <= 22. m is split exactly into hi + lo, and
    hi / 10**k + lo / 10**k, rounded, is within an ulp and a hair of the
    quotient; the exact test moves it one ulp where it must. Unsure are
    exact ties and what one step did not settle, for the caller to read."""
    scale = _POW10[k]
    hi = mantissa.astype(np.float64)
    lo = (mantissa - hi.astype(np.uint64)).view(np.int64).astype(np.float64)
    x = hi / scale + lo / scale
    excess, limit = _error(x, mantissa, k)
    beyond = np.flatnonzero(np.abs(excess) > limit)
    x[beyond] = np.nextafter(x[beyond], np.where(excess[beyond] > 0, -np.inf, np.inf))
    excess[beyond], limit[beyond] = _error(x[beyond], mantissa[beyond], k[beyond])
    return x, np.abs(excess) >= limit


def _error(x, mantissa, k):
    """(x * 10**k - m, half the gap from x to its neighbour on that side,
    times 10**k), both exact. x * 10**k is hi + lo exactly (TwoProduct), hi
    an integer near m; the difference is an exact double, since x is within
    an ulp or two of m / 10**k, which is above 2**53 / 10**22."""
    hi = x * _POW10[k]
    x_hi, x_lo = _split(x)
    s_hi, s_lo = _POW10_HI[k], _POW10_LO[k]
    lo = ((x_hi * s_hi - hi) + x_hi * s_lo + x_lo * s_hi) + x_lo * s_lo
    excess = (hi.astype(np.int64) - mantissa.view(np.int64)).astype(np.float64) + lo
    fraction, exponent = np.frexp(x)
    half = np.ldexp(_POW10[k], exponent - 54)  # half an ulp of x, times 10**k
    # below a power of two, the neighbour is half as far
    return excess, np.where((excess > 0) & (fraction == 0.5), half / 2, half)
