"""CSV text of numpy columns, with the bytes that `repr` and `str` give.

`format_rows` writes the rows of float64, integer and `range` columns a
block of rows at a time.  A block is one array of little-endian 64-bit
words: every value has a fixed-width cell of NUL-padded ASCII ending in its
`,` or `\\n`, and a boolean mask over the bytes drops the NULs, into the
text of the whole call.  The cells, the mask and the text are allocated
once per call; at BLOCK_ROWS rows every other array of a block is at most
64 KiB.

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

# rows whose cells are filled at once: every per-value temporary of a block
# (64 KiB) stays below 128 KiB, which glibc serves from its heap rather than
# by a fresh mmap
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


def _scaled(a, a_hi, a_lo, i):
    """a·10^k as hi + lo, and 10^k's hi, for k = i + _K_MIN (i clipped to the
    table): Dekker's exact product of a and the high part of 10^k, plus a
    times its low part."""
    hi, hh, hl, lo = (np.take(t, i, mode="clip") for t in _tables()[:4])
    p = a * hi
    t = (((a_hi * hh - p) + a_hi * hl + a_lo * hh) + a_lo * hl) + a * lo
    zh = p + t
    return zh, t - (zh - p), hi


def _off_scale(zh, zl):
    """+1 where zh + zl >= 10^17, -1 where it is below 10^16, else 0."""
    above = (zh > 1e17) | ((zh == 1e17) & (zl >= 0))
    below = (zh < 1e16) | ((zh == 1e16) & (zl < 0))
    return above.astype(np.intp) - below


def _far(f):
    """Whether the reals f clear the margin from every integer."""
    return np.abs(f - np.rint(f)) > _MARGIN


def certify(v):
    """(ok, C, E) for a float64 array: where ok, repr(abs(v)) shows the
    digits of the integer C in [10^16, 10^17) without its trailing zeros,
    with the decimal exponent E.  Elsewhere C is 0, and E is in the range
    of a certified one."""
    a = np.abs(v)
    ok = (a >= 1e-20) & (a < 1e21)
    a = np.where(ok, a, 1.0)
    bits = a.view(np.uint64)
    ok &= (bits & _FRAC_BITS) != 0
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    # log10 misplaces values just below a power of ten by one: test and redo
    i = _E_MAX - np.floor(np.log10(a)).astype(np.intp)
    zh, zl, ph = _scaled(a, a_hi, a_lo, i)
    off = _off_scale(zh, zl)
    if off.any():
        i -= off
        zh, zl, ph = _scaled(a, a_hi, a_lo, i)
        ok &= _off_scale(zh, zl) == 0
    np.clip(i, 0, _K_MAX - _K_MIN, out=i)
    # z = Z + zf (to the product's error) with |zf| <= 1/2; Z is exact in
    # int64, and so is every integer below
    zr = np.rint(zl)
    Z = zh.astype(np.int64) + zr.astype(np.int64)
    zf = zl - zr
    # half an ulp of a, 2^(e-54) for a = m·2^e, scaled: the reals within it
    # of z read back as a (the ends are left to repr)
    h = (bits & _EXP_BITS).view(np.float64) * (2.0**-53 * ph)
    ok &= _far(zf - h) & _far(zf + h)
    # the integers Lo..Hi within it: at most 23, so at most one multiple
    # of 100, which is then the roundest of them
    Hi = Z + np.floor(zf + h).astype(np.int64)
    Lo = Z + np.ceil(zf - h).astype(np.int64)
    q100 = Hi // 100 * 100
    has10 = Hi // 10 * 10 >= Lo
    # else the nearest multiple of 10, or with none, the nearest integer
    q10 = Z // 10
    f10 = (Z - q10 * 10) + zf
    ok &= np.where(has10, np.abs(f10 - 5.0) > _MARGIN, np.abs(zf) < 0.5 - _MARGIN) | (q100 >= Lo)
    C = np.where(q100 >= Lo, q100, np.where(has10, (q10 + (f10 > 5.0)) * 10, Z))
    ok &= (C >= 10**16) & (C < 10**17)
    return ok, np.where(ok, C, 0), _E_MAX - i


def _digit_words(C):
    """The 17 ASCII digits of C in [0, 10^17): bytes 0-7, 8-15 and 16 of
    three words."""
    quad = _tables()[4]
    q1 = C // 10
    q2 = q1 // 10**4
    q3 = q2 // 10**4
    q4 = q3 // 10**4
    w1 = quad[q4] | (quad[q3 - q4 * 10**4] << np.uint64(32))
    w2 = quad[q2 - q3 * 10**4] | (quad[q1 - q2 * 10**4] << np.uint64(32))
    w3 = (C - q1 * 10 + ord("0")).astype(np.uint64)
    return w1, w2, w3


def _shifted(u1, u2, u3):
    """Three words of bytes moved one byte on."""
    return u1 << np.uint64(8), (u2 << np.uint64(8)) | (u1 >> np.uint64(56)), (u3 << np.uint64(8)) | (u2 >> np.uint64(56))


def _top_byte(y):
    """The index of the highest nonzero byte of each word y, whose bytes are
    each below 16 (so its float keeps the top byte), or -1 where y is 0."""
    return (np.frexp(y.astype(np.float64))[1] - 1) // 8


def _float_cells(v, cells, sep: int):
    """repr of each value of the float64 array v, then the byte sep, into
    its row of the (n, _FLOAT_WORDS) word array cells."""
    least, const, before, after, keepm = _layouts()
    ok, C, E = certify(v)
    w = _digit_words(C)
    # d significant digits: up to the last one that is not 0
    d = np.where(w[1] != _ZEROS, 9 + _top_byte(w[1] ^ _ZEROS), 1 + _top_byte(w[0] ^ _ZEROS))
    d[w[2] != ord("0")] = 17
    key = E + _E_MAX + (2 * _E_MAX + 1) * (d == 1)
    keep = np.maximum(d, least[key])
    u = [w[j] & keepm[j][keep] for j in range(3)]
    s = _shifted(*u)
    cells[:, 0] = const[0][key] | (v < 0).astype(np.uint64) * np.uint64(ord("-"))
    for j in range(3):
        cells[:, j + 1] = (u[j] & before[j][key]) | (s[j] & after[j][key]) | const[j + 1][key]
    cells[:, 3] |= np.uint64(sep << 56)
    _left_to(repr, v, ok, cells)


def _int_cells(v, cells, sep: int):
    """str of each value of the int64 array v, then the byte sep, into its
    row of the (n, _INT_WORDS) word array cells."""
    keepm = _layouts()[4]
    a = np.abs(v)
    ok = (a < 10**17) & (v > np.iinfo(np.int64).min)
    a = np.where(ok, a, 0)
    s = _shifted(*_digit_words(a))
    # the leading zeros dropped: the digits from 17 - width on, one byte on
    width = np.searchsorted(_POW10, a, side="right") + 1
    drop = 18 - width
    for j in range(3):
        cells[:, j] = s[j] & ~keepm[j][drop]
    cells[:, 0] |= (v < 0).astype(np.uint64) * np.uint64(ord("-"))
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


def format_rows(columns) -> np.ndarray:
    """The CSV rows of equal-length columns (each one `supported` takes),
    BLOCK_ROWS rows at a time, as ASCII bytes: the text repr gives each
    float and str each integer.  The bytes are a uint8 view of the text
    buffer, not a copy; any writer of bytes-like objects takes it."""
    n, block_rows = len(columns[0]), BLOCK_ROWS
    floats = [isinstance(c, np.ndarray) and c.dtype == np.float64 for c in columns]
    ends = np.cumsum([_FLOAT_WORDS if f else _INT_WORDS for f in floats])
    # the workspace of every block: its cells, the mask of their non-NUL
    # bytes, and the text of all the rows
    buf = np.empty((min(block_rows, n), int(ends[-1])), _WORD)
    cell_bytes = buf.view(np.uint8).reshape(-1)
    mask = np.empty(cell_bytes.size, bool)
    text = np.empty(n * buf.shape[1] * _WORD.itemsize, np.uint8)
    size = 0
    for lo in range(0, n, block_rows):
        block = buf[:min(block_rows, n - lo)]
        for c, (col, f, end) in enumerate(zip(columns, floats, ends)):
            part = col[lo:lo + block_rows]
            sep = ord("\n") if c == len(columns) - 1 else ord(",")
            if f:
                _float_cells(part, block[:, end - _FLOAT_WORDS:end], sep)
            else:
                if isinstance(part, range):
                    part = np.arange(part.start, part.stop, part.step, dtype=np.int64)
                _int_cells(part.astype(np.int64, copy=False), block[:, end - _INT_WORDS:end], sep)
        cells = cell_bytes[:block.nbytes]
        keep = np.not_equal(cells, 0, out=mask[:cells.size])
        # the NULs dropped a piece at a time: each piece of text is a fresh
        # array below 128 KiB
        for a in range(0, cells.size, _PIECE_BYTES):
            piece = cells[a:a + _PIECE_BYTES][keep[a:a + _PIECE_BYTES]]
            text[size:size + piece.size] = piece
            size += piece.size
    return text[:size]
