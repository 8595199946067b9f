"""CSV text of numpy columns, with the bytes that `repr` and `str` give.

`format_rows` writes the rows of float64, integer and `range` columns a
block of rows at a time.  A block is one array of little-endian 64-bit
words: every value has a fixed-width cell of NUL-padded ASCII ending in its
`,` or `\\n`, and a boolean mask over the bytes drops the NULs, into the
text of the whole call.  The cells, the mask, the text and the per-value
arrays of a block (a `_Workspace`: rows of 64-bit words, 64 KiB each at
BLOCK_ROWS rows, each shared by names whose lives do not overlap) are
allocated once per call, and every block computes into them through
`out=`.  A block
still allocates its pieces of text, the text of the values left to `repr`
or `str`, and the digit counts of an integer column (`searchsorted` takes
no `out=`).

A float is certified, or left to `repr`.  `|x|` is scaled by a power of ten,
as a double-double product, to `z = |x|·10^k` in [10^16, 10^17).  The
digits `repr` prints are those of the roundest integer closer to `z` than
half an ulp of `x` times 10^k; of several as round, the one nearest `z`.
A value is certified only when every comparison that picks them clears a
margin far above the error of the product, and when it is finite, nonzero,
not a power of two (whose interval is not symmetric) and within the range of
the power-of-ten table (1e-20 <= |x| < 1e21).  Every other value, and every
integer of 18 digits or more, is printed by `repr` or `str`.

The tables are built on first use, not on import.
"""

from __future__ import annotations

import functools

import numpy as np

# the powers of ten held: |x|·10^k in [1e16, 1e17) for 1e-20 <= |x| < 1e21,
# so the decimal exponent E = 16 - k of a certified value is in [-20, 20]
_K_MIN, _K_MAX = -4, 36
_E_MAX = 16 - _K_MIN
# far above the error of the scaled value (below 1e-14 at z < 1e17)
_MARGIN = 1e-9
# Dekker's splitting constant for doubles, 2^27 + 1
_SPLIT = 134217729.0
_POW10 = 10 ** np.arange(1, 18, dtype=np.int64)
_WORD = np.dtype("<u8")
_EXP_BITS = np.uint64(0x7FF0000000000000)
_FRAC_BITS = np.uint64(0x000FFFFFFFFFFFFF)
_ZEROS = np.uint64(0x3030303030303030)

# rows whose cells are filled at once: each per-value array of a block
# (64 KiB) stays in cache
BLOCK_ROWS = 8192
# bytes of cells whose NULs are dropped at once
_PIECE_BYTES = 1 << 16

# Cells, in words.  A float: sign and "0.000" prefix in word 0, then 18
# bytes of digits with their dot, "e±XX" and the separator in the last byte.
# An integer: sign, 17 digits and the separator.  Each is wide enough for
# any repr or str it is left to.
_FLOAT_WORDS = 4
_INT_WORDS = 3


@functools.cache
def _tables():
    """10^k for k in [_K_MIN, _K_MAX] as hi + lo pairs (hi also in two
    halves), and the ASCII text of 0000..9999 in bytes 0-3 of words."""
    hi, lo = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        # int / int and int -> float round correctly: hi is 10^k rounded,
        # lo the rest rounded
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        hi.append(num / den)
        m, s = hi[-1].as_integer_ratio()
        lo.append((num * s - m * den) / (den * s))
    hi, lo = np.array(hi), np.array(lo)
    c = _SPLIT * hi
    hi_hi = c - (c - hi)
    digit = np.arange(ord("0"), ord("9") + 1, dtype=np.uint8)
    text = np.stack([np.tile(np.repeat(digit, 10**j), 10**(3 - j)) for j in (3, 2, 1, 0)], axis=1)
    return hi, hi_hi, hi - hi_hi, lo, text.view("<u4").ravel().astype(np.uint64)


def _words(cells: list) -> np.ndarray:
    """Byte strings of one length as little-endian words: row j holds word j
    of every string."""
    return np.frombuffer(b"".join(cells), _WORD).reshape(len(cells), -1).T.copy()


def _low(m: int) -> bytes:
    """24 bytes: m bytes 0xFF, then NUL."""
    return b"\xff" * m + b"\0" * (24 - m)


@functools.cache
def _layouts():
    """Per float layout key = E + _E_MAX + (2 _E_MAX + 1)·(d == 1): the
    fewest digits shown, the constant words of the cell, and the masks of
    body words 1-3 that keep the unshifted digits (before the dot) and the
    digits shifted one byte on (after it).  Per digit count kept, the masks
    of the 17 digits in body words 1-3."""
    least, const, before, after = [], [], [], []
    for single in (False, True):
        for E in range(-_E_MAX, _E_MAX + 1):
            small = -4 <= E < 0
            whole = 0 <= E < 16
            sci = not (small or whole)
            dot = E + 1 if whole else 0 if small else 1
            body = bytearray(24)
            if whole or (sci and not single):
                body[dot] = ord(".")
            if sci:
                body[18:22] = b"e%+03d" % E
            prefix = b"0." + b"0" * (-E - 1) if small else b""
            const.append(b"\0" + prefix.ljust(7, b"\0") + bytes(body))
            before.append(_low(dot))
            after.append(bytes(a & ~b for a, b in zip(_low(18), _low(dot + 1))))
            # a whole number shows its integer digits and one after the dot
            least.append(E + 2 if whole else 0)
    keep = [_low(m) for m in range(18)]
    return np.array(least), _words(const), _words(before), _words(after), _words(keep)


# The arrays a block computes besides its cells, by name and dtype, in rows
# of 64-bit words, few enough to stay in cache: the names of one row are
# never live at once.  certify's come first, then _digit_words', then the
# rest of _float_cells' or _int_cells'; every flag has its own row.
_ROWS = [
    {"a": np.float64, "f10": np.float64, "q1": np.int64, "d": np.intp},
    {"a_hi": np.float64, "zr": np.float64, "q2": np.int64, "e": np.intc},
    {"a_lo": np.float64, "zf": np.float64, "q3": np.int64, "key": np.intp},
    {"hi": np.float64, "up": np.float64, "q4": np.int64, "least": np.int64},
    {"hi_hi": np.float64, "h": np.float64, "r": np.int64, "u1": np.uint64},
    {"hi_lo": np.float64, "down": np.float64, "u0": np.uint64},
    {"lo": np.float64, "Z": np.int64, "s1": np.uint64},
    {"p": np.float64, "i0": np.int64, "w1": np.uint64},
    {"t": np.float64, "Hi": np.int64, "w2": np.uint64},
    {"x": np.float64, "Lo": np.int64, "w3": np.uint64},
    {"zh": np.float64, "q100": np.int64, "s2": np.uint64},
    {"i": np.intp, "range": np.int64, "int64": np.int64},
    {"f0": np.float64, "abs": np.int64},
    {"off": np.intp, "q10": np.int64, "s3": np.uint64},
]
_FLAGS = ["ok", "b0", "above", "below", "has10", "near", "hit"]


class _Workspace:
    """The _ROWS and _FLAGS arrays for blocks of up to `rows` values,
    allocated once and reused by every block: attribute `name` is a view of
    the first `n` values of its row, n being the size of the current block."""

    def __init__(self, rows: int):
        self._words = np.empty((len(_ROWS), rows), np.uint64)
        self._flags = np.empty((len(_FLAGS), rows), bool)
        self.n = None
        self.resize(rows)

    def resize(self, n: int):
        """Views of the first n values, for a block of n."""
        if n != self.n:
            for row, names in zip(self._words, _ROWS):
                for name, dtype in names.items():
                    setattr(self, name, row.view(dtype)[:n])
            for row, name in zip(self._flags, _FLAGS):
                setattr(self, name, row[:n])
            self.n = n


def _scaled(a, a_hi, a_lo, i, ws):
    """a·10^k as hi + lo, and 10^k's hi, for k = i + _K_MIN (i clipped to the
    table): Dekker's exact product of a and the high part of 10^k, plus a
    times its low part."""
    hi, hh, hl, lo = (t.take(i, out=w, mode="clip") for t, w in zip(_tables(), (ws.hi, ws.hi_hi, ws.hi_lo, ws.lo)))
    p = np.multiply(a, hi, out=ws.p)
    t = np.multiply(a_hi, hh, out=ws.t)
    t -= p
    x = ws.x
    t += np.multiply(a_hi, hl, out=x)
    t += np.multiply(a_lo, hh, out=x)
    t += np.multiply(a_lo, hl, out=x)
    t += np.multiply(a, lo, out=x)
    zh = np.add(p, t, out=ws.zh)
    t -= np.subtract(zh, p, out=p)
    return zh, t, hi


def _off_scale(zh, zl, ws):
    """+1 where zh + zl >= 10^17, -1 where it is below 10^16, else 0."""
    t = ws.b0
    above = np.equal(zh, 1e17, out=ws.above)
    above &= np.greater_equal(zl, 0, out=t)
    above |= np.greater(zh, 1e17, out=t)
    below = np.equal(zh, 1e16, out=ws.below)
    below &= np.less(zl, 0, out=t)
    below |= np.less(zh, 1e16, out=t)
    off = ws.off
    np.copyto(off, above)
    off -= below
    return off


def _far(f, ws):
    """Whether the reals f clear the margin from every integer."""
    r = np.rint(f, out=ws.f0)
    np.subtract(f, r, out=r)
    return np.greater(np.abs(r, out=r), _MARGIN, out=ws.b0)


def certify(v, ws=None):
    """(ok, C, E) for a float64 array: where ok, repr(abs(v)) shows the
    digits of the integer C in [10^16, 10^17) without its trailing zeros,
    with the decimal exponent E.  Elsewhere C is 0, and E is in the range
    of a certified one.  The arrays are computed in the workspace ws, or
    in a fresh one."""
    if ws is None:
        ws = _Workspace(v.size)
    b0 = ws.b0
    a = np.abs(v, out=ws.a)
    ok = np.greater_equal(a, 1e-20, out=ws.ok)
    ok &= np.less(a, 1e21, out=b0)
    np.copyto(a, 1.0, where=np.logical_not(ok, out=b0))
    bits = a.view(np.uint64)
    ok &= np.not_equal(np.bitwise_and(bits, _FRAC_BITS, out=ws.u0), 0, out=b0)
    # Dekker's split of a: c = _SPLIT·a, a_hi = c - (c - a), a_lo = a - a_hi
    a_hi = np.multiply(a, _SPLIT, out=ws.a_hi)
    a_lo = np.subtract(a_hi, a, out=ws.a_lo)
    np.subtract(a_hi, a_lo, out=a_hi)
    np.subtract(a, a_hi, out=a_lo)
    # log10 misplaces values just below a power of ten by one: test and redo
    i = ws.i
    np.copyto(i, np.floor(np.log10(a, out=ws.f0), out=ws.f0), casting="unsafe")
    np.subtract(_E_MAX, i, out=i)
    zh, zl, ph = _scaled(a, a_hi, a_lo, i, ws)
    off = _off_scale(zh, zl, ws)
    if off.any():
        i -= off
        zh, zl, ph = _scaled(a, a_hi, a_lo, i, ws)
        ok &= np.equal(_off_scale(zh, zl, ws), 0, out=b0)
    np.clip(i, 0, _K_MAX - _K_MIN, out=i)
    # z = Z + zf (to the product's error) with |zf| <= 1/2; Z is exact in
    # int64, and so is every integer below
    zr = np.rint(zl, out=ws.zr)
    Z, t = ws.Z, ws.i0
    np.copyto(Z, zh, casting="unsafe")
    np.copyto(t, zr, casting="unsafe")
    Z += t
    zf = np.subtract(zl, zr, out=ws.zf)
    # half an ulp of a, 2^(e-54) for a = m·2^e, scaled: the reals within it
    # of z read back as a (the ends are left to repr)
    h = np.multiply(ph, 2.0**-53, out=ws.h)
    np.multiply(np.bitwise_and(bits, _EXP_BITS, out=ws.u0).view(np.float64), h, out=h)
    up = np.add(zf, h, out=ws.up)
    down = np.subtract(zf, h, out=ws.down)
    ok &= _far(down, ws)
    ok &= _far(up, ws)
    # the integers Lo..Hi within it: at most 23, so at most one multiple
    # of 100, which is then the roundest of them
    Hi, Lo = ws.Hi, ws.Lo
    np.copyto(Hi, np.floor(up, out=up), casting="unsafe")
    Hi += Z
    np.copyto(Lo, np.ceil(down, out=down), casting="unsafe")
    Lo += Z
    q100 = np.floor_divide(Hi, 100, out=ws.q100)
    q100 *= 100
    np.floor_divide(Hi, 10, out=t)
    t *= 10
    has10 = np.greater_equal(t, Lo, out=ws.has10)
    # else the nearest multiple of 10, or with none, the nearest integer
    q10 = np.floor_divide(Z, 10, out=ws.q10)
    np.multiply(q10, 10, out=t)
    f10 = np.add(np.subtract(Z, t, out=t), zf, out=ws.f10)
    near = np.less(np.abs(zf, out=ws.f0), 0.5 - _MARGIN, out=ws.near)
    d5 = np.subtract(f10, 5.0, out=ws.f0)
    np.copyto(near, np.greater(np.abs(d5, out=d5), _MARGIN, out=b0), where=has10)
    hit = np.greater_equal(q100, Lo, out=ws.hit)
    near |= hit
    ok &= near
    q10 += np.greater(f10, 5.0, out=b0)
    q10 *= 10
    C = Z
    np.copyto(C, q10, where=has10)
    np.copyto(C, q100, where=hit)
    ok &= np.greater_equal(C, 10**16, out=b0)
    ok &= np.less(C, 10**17, out=b0)
    np.copyto(C, 0, where=np.logical_not(ok, out=b0))
    return ok, C, np.subtract(_E_MAX, i, out=i)


def _rem4(q, upper, r):
    """r <- q - upper·10^4: the 4 digits of q below those of upper."""
    np.multiply(upper, 10**4, out=r)
    return np.subtract(q, r, out=r)


def _digit_words(C, ws):
    """The 17 ASCII digits of C in [0, 10^17): bytes 0-7, 8-15 and 16 of
    three words."""
    quad = _tables()[4]
    q1 = np.floor_divide(C, 10, out=ws.q1)
    q2 = np.floor_divide(q1, 10**4, out=ws.q2)
    q3 = np.floor_divide(q2, 10**4, out=ws.q3)
    q4 = np.floor_divide(q3, 10**4, out=ws.q4)
    r, u = ws.r, ws.u0
    w1 = quad.take(q4, out=ws.w1, mode="clip")
    w1 |= np.left_shift(quad.take(_rem4(q3, q4, r), out=u, mode="clip"), 32, out=u)
    w2 = quad.take(_rem4(q2, q3, r), out=ws.w2, mode="clip")
    w2 |= np.left_shift(quad.take(_rem4(q1, q2, r), out=u, mode="clip"), 32, out=u)
    np.multiply(q1, 10, out=r)
    np.subtract(C, r, out=r)
    r += ord("0")
    w3 = ws.w3
    np.copyto(w3, r, casting="unsafe")
    return w1, w2, w3


def _shifted(u1, u2, u3, ws):
    """Three words of bytes moved one byte on."""
    t = ws.u0
    s1 = np.left_shift(u1, 8, out=ws.s1)
    s2 = np.left_shift(u2, 8, out=ws.s2)
    s2 |= np.right_shift(u1, 56, out=t)
    s3 = np.left_shift(u3, 8, out=ws.s3)
    s3 |= np.right_shift(u2, 56, out=t)
    return s1, s2, s3


def _top_byte(y, ws):
    """The index of the highest nonzero byte of each word y, whose bytes are
    each below 16 (so its float keeps the top byte), or -1 where y is 0."""
    f, e = ws.f0, ws.e
    np.copyto(f, y)
    np.frexp(f, out=(f, e))
    e -= 1
    e //= 8
    return e


def _minus(v, word, ws):
    """A "-" into byte 0 of each word where v < 0."""
    np.bitwise_or(word, np.uint64(ord("-")), out=word, where=np.less(v, 0, out=ws.b0))


def _float_cells(v, cells, sep: int, ws):
    """repr of each value of the float64 array v, then the byte sep, into
    its row of the (n, _FLOAT_WORDS) word array cells."""
    least, const, before, after, keepm = _layouts()
    ok, C, E = certify(v, ws)
    w = _digit_words(C, ws)
    u, b0 = ws.u0, ws.b0
    # d significant digits: up to the last one that is not 0
    d = np.add(_top_byte(np.bitwise_xor(w[0], _ZEROS, out=u), ws), 1, out=ws.d)
    e = _top_byte(np.bitwise_xor(w[1], _ZEROS, out=u), ws)
    e += 9
    np.copyto(d, e, where=np.not_equal(w[1], _ZEROS, out=b0))
    np.copyto(d, 17, where=np.not_equal(w[2], ord("0"), out=b0))
    key = np.multiply(np.equal(d, 1, out=b0), 2 * _E_MAX + 1, out=ws.key)
    key += E
    key += _E_MAX
    keep = np.maximum(d, least.take(key, out=ws.least, mode="clip"), out=d)
    for j in range(3):
        np.bitwise_and(w[j], keepm[j].take(keep, out=u, mode="clip"), out=w[j])
    s = _shifted(*w, ws)
    word = const[0].take(key, out=u, mode="clip")
    _minus(v, word, ws)
    cells[:, 0] = word
    x = ws.u1
    for j in range(3):
        word = before[j].take(key, out=u, mode="clip")
        word &= w[j]
        word |= np.bitwise_and(s[j], after[j].take(key, out=x, mode="clip"), out=x)
        word |= const[j + 1].take(key, out=x, mode="clip")
        cells[:, j + 1] = word
    cells[:, 3] |= np.uint64(sep << 56)
    _left_to(repr, v, ok, cells)


def _int_cells(v, cells, sep: int, ws):
    """str of each value of the int64 array v, then the byte sep, into its
    row of the (n, _INT_WORDS) word array cells."""
    keepm = _layouts()[4]
    b0 = ws.b0
    a = np.abs(v, out=ws.abs)
    ok = np.less(a, 10**17, out=ws.ok)
    ok &= np.greater(v, np.iinfo(np.int64).min, out=b0)
    np.copyto(a, 0, where=np.logical_not(ok, out=b0))
    s = _shifted(*_digit_words(a, ws), ws)
    # the leading zeros dropped: the digits from 17 - width on, one byte on;
    # drop = 18 - width (searchsorted, which takes no out, gives width - 1)
    drop = np.searchsorted(_POW10, a, side="right")
    np.subtract(17, drop, out=drop)
    u = ws.u0
    for j in range(3):
        np.bitwise_and(s[j], np.invert(keepm[j].take(drop, out=u, mode="clip"), out=u), out=u)
        cells[:, j] = u
    _minus(v, cells[:, 0], ws)
    cells[:, 2] |= np.uint64(sep << 56)
    _left_to(str, v, ok, cells)


def _left_to(fn, v, ok, cells):
    """fn's text of the values not ok, over their cells up to the last byte."""
    rest = np.flatnonzero(~ok)
    if rest.size:
        width = 8 * cells.shape[1] - 1
        text = np.array([fn(x) for x in v[rest].tolist()], dtype=f"S{width}")
        sub = cells[rest]
        sub.view(np.uint8)[:, :width] = text.view(np.uint8).reshape(rest.size, width)
        cells[rest] = sub


def supported(col) -> bool:
    """Whether format_rows takes the column: a 1-D float64 or integer array,
    or a range of int64 values."""
    if isinstance(col, range):
        return all(-(1 << 63) < t < 1 << 63 for t in (col.start, col.stop, col.step))
    return isinstance(col, np.ndarray) and col.ndim == 1 and (col.dtype == np.float64 or col.dtype.kind == "i")


def _int64(part, ws):
    """The block of an integer column as int64: an int64 array as it is,
    any other one or a range in a workspace array (a range's values are the
    partial sums of start, step, step, ...; each is in int64)."""
    if isinstance(part, range):
        v = ws.range
        v.fill(part.step)
        v[0] = part.start
        return np.cumsum(v, out=v)
    if part.dtype == np.int64:
        return part
    v = ws.int64
    np.copyto(v, part)
    return v


def format_rows(columns) -> np.ndarray:
    """The CSV rows of equal-length columns (each one `supported` takes),
    BLOCK_ROWS rows at a time, as ASCII bytes: the text repr gives each
    float and str each integer.  The bytes are a uint8 view of the text
    buffer, not a copy; any writer of bytes-like objects takes it."""
    n, block_rows = len(columns[0]), BLOCK_ROWS
    floats = [isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns]
    ends = np.cumsum([_FLOAT_WORDS if f else _INT_WORDS for f in floats])
    # the workspace of every block: its cells, the mask of their non-NUL
    # bytes, the text of all the rows, and the per-value arrays
    buf = np.empty((min(block_rows, n), int(ends[-1])), _WORD)
    cell_bytes = buf.view(np.uint8).reshape(-1)
    mask = np.empty(cell_bytes.size, bool)
    text = np.empty(n * buf.shape[1] * _WORD.itemsize, np.uint8)
    ws = _Workspace(len(buf))
    size = 0
    for lo in range(0, n, block_rows):
        block = buf[:min(block_rows, n - lo)]
        ws.resize(len(block))
        for c, (col, f, end) in enumerate(zip(columns, floats, ends)):
            part = col[lo:lo + block_rows]
            sep = ord("\n") if c == len(columns) - 1 else ord(",")
            if f:
                _float_cells(part, block[:, end - _FLOAT_WORDS:end], sep, ws)
            else:
                _int_cells(_int64(part, ws), block[:, end - _INT_WORDS:end], sep, ws)
        cells = cell_bytes[:block.nbytes]
        keep = np.not_equal(cells, 0, out=mask[:cells.size])
        # the NULs dropped a piece at a time: each piece of text is a fresh
        # array below 128 KiB
        for a in range(0, cells.size, _PIECE_BYTES):
            piece = cells[a:a + _PIECE_BYTES][keep[a:a + _PIECE_BYTES]]
            text[size:size + piece.size] = piece
            size += piece.size
    return text[:size]
