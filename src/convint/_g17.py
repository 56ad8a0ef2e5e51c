"""'%.17g' of a float64 block in arrays, exactly as C and Python print it.

format_rows(block) gives the lines np.savetxt(fmt="%.17g", delimiter=",")
writes for the block. A cell with 1e-30 <= |v| < 1e16 is formatted in
arrays where one error bound proves its digits; any other cell (+-0, inf,
nan, tiny or huge, and the few the bound leaves open) one value at a time
with '%.17g', the only other path.

The 17 significant digits are D = round-half-even(|v| 10^q), q = 16 - k
in 1..46, with k = floor(log10|v|), the decade of |v| but next to a power
of ten. 10^q is the sum of two doubles hi + lo (exact for q <= 46), and
|v| hi is a double p plus its rounding error e, by Dekker's product of
Veltkamp-split halves (T. J. Dekker, Numer. Math. 18, 1971). So
|v| 10^q = p + e + |v| lo exactly, and s = fl(e + fl(|v| lo)) lies within
2^-45 of e + |v| lo. With nf = rint(s), one bound settles everything:
wherever |s - nf| <= 1/2 - 2^-40 and 10^16 + 64 <= p + nf <= 10^17 - 64
(p + nf as a double, off by at most 8), |v| 10^q - (p + nf) lies inside
(-1/2, 1/2) and |v| 10^q in [10^16, 10^17), so D = p + nf is correctly
rounded, below 10^17, and k is its decade. Any other cell (a tie or
near-tie, a value next to a power of ten) goes to '%.17g' as well.

The digits are laid out by C's '%g' rule: fixed notation for -4 <= k < 17,
d.ddd...e-XX otherwise (k < -4 here), trailing zeros and a bare '.'
dropped. Every cell is 56 byte slots holding each piece a cell may use; a
mask, looked up by (k, last nonzero digit), keeps the slots its text uses.
The tables this needs are built per call and dropped with it.

The arithmetic is float64 but for D, an int64 that is only added,
multiplied and divided: numpy loops a solve has already run, so the first
profile pages in little new numpy code.
"""

import numpy as np

# the domain of the array path; 10^-30 <= 1e-30, so q = 16 - k <= 46
_LOW, _HIGH = 1e-30, 1e16
_K_MIN, _K_MAX = -30, 15
_VELTKAMP = 134217729.0  # 2^27 + 1: splits a double into two 26-bit halves
_CHUNK_VALUES = 2048

# a cell's 56 byte slots, as 7 little-endian words: the sign, the '0.000'
# of a fixed k < 0 and d0 (word 0), d1..d16 (words 1-2), d0 again and the
# point (end of word 3), d1..d16 again (words 4-5), 'e-XX' and the
# separator (word 6); the text of a cell is two or three runs of slots
_SIGN, _ZEROS, _INT, _D0, _POINT, _EXP, _SEP = 1, 2, 7, 30, 31, 48, 52
_SLOTS = 56
_FRAC = _POINT  # slot of d_i after the point: _FRAC + i, i >= 1
_ASCII0 = 0x3030303030303030


def _word(text: bytes) -> int:
    return int.from_bytes(text, "little")


def _split(a):
    """a as hi + lo, each with at most 26 significant bits."""
    t = a * _VELTKAMP
    hi = t - (t - a)
    return hi, a - hi


def _prod_error(a, a_parts, b, b_parts, p):
    """a b - p exactly, for p = fl(a b) (Dekker)."""
    (ah, al), (bh, bl) = a_parts, b_parts
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _powers():
    """Rows q = 0..46 of (hi, hi's two halves, lo), 10^q = hi + lo."""
    hi, lo, power = [], [], 1
    for _ in range(16 - _K_MIN + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    return np.column_stack([hi, *_split(hi), lo])


def _decimal(a, powers):
    """(D, k, exact): |v| = D 10^(k-16) correctly rounded, 10^16 <= D < 10^17,
    with k as doubles, wherever exact holds."""
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX)
    hi, hh, hl, lo = powers.take((16 - k).astype(np.intp), axis=0).T
    p = a * hi
    # |e| <= ulp(p)/2 <= 64 and |a lo| < 128
    s = _prod_error(a, _split(a), hi, (hh, hl), p) + a * lo
    nf = np.rint(s)
    approx = p + nf
    exact = (np.abs(s - nf) <= 0.5 - 2.0**-40) & (approx >= 1e16 + 64) & (approx <= 1e17 - 64)
    # p is an integer wherever exact holds, since p > 2^53 there
    return p.astype(np.int64) + nf.astype(np.int64), k, exact


def _quads():
    """The ASCII of 0000..9999, a little-endian word each."""
    digit = np.arange(ord("0"), ord("9") + 1)
    return (digit[:, None, None, None] + 256 * (digit[:, None, None] + 256 * (
        digit[:, None] + 256 * digit))).ravel()


def _digit_words(d, quads):
    """(d0, d1..d8, d9..d16) of each d in [10^16, 10^17): the first digit
    in ASCII, the others as 8 ASCII bytes in a little-endian word."""
    first = d // 10**16
    rest = d - first * 10**16
    high8 = rest // 10**8
    words = []
    for x in (high8, rest - high8 * 10**8):
        high = x // 10**4
        words.append(quads.take(high) + quads.take(x - high * 10**4) * 2**32)
    return first + ord("0"), *words


def _last_digit(d1_8, d9_16):
    """The index of the last nonzero digit, 0..16, as doubles."""
    def top_byte(w):  # the highest nonzero byte of a word of digits, or -1
        return np.floor(np.frexp((w - _ASCII0).astype(np.float64))[1] * 0.125 - 0.125)
    high, low = top_byte(d9_16), top_byte(d1_8)
    return np.where(high >= 0, 9 + high, np.where(low >= 0, 1 + low, 0))


def _keep_table():
    """The slots kept, row (k + 30) * 17 + last for each decade k in
    -30..15 and last nonzero digit 0..16; the sign slot left clear."""
    k = np.arange(_K_MIN, _K_MAX + 1.0)[:, None]
    exp = k < -4
    fixed_low = (k < 0) & ~exp
    # the last digit before the point: dk in fixed notation, d0 in d.ddde-XX
    point = np.where(exp, 0, k)
    i = np.arange(17.0)
    # by decade, the slots kept whatever the last digit and those kept up
    # to it; by last digit, the digits up to it in either copy
    always = np.zeros((k.size, _SLOTS), bool)
    always[:, _ZEROS:_ZEROS + 5] = np.arange(5.0) < np.where(fixed_low, 1 - k, 0)
    always[:, _INT:_INT + 17] = (point > 0) & (i <= point)
    always[:, _D0] = point[:, 0] == 0
    always[:, _EXP:_EXP + 4] = exp
    always[:, _SEP] = True
    upto = np.zeros((k.size, _SLOTS), bool)
    upto[:, _INT:_INT + 17] = fixed_low
    upto[:, _FRAC + 1:_FRAC + 17] = ~fixed_low & (i[1:] > point)
    by_last = np.zeros((17, _SLOTS), bool)
    by_last[:, _INT:_INT + 17] = by_last[:, _FRAC:_FRAC + 17] = i <= i[:, None]
    keep = always[:, None] | upto[:, None] & by_last
    keep[..., _POINT] = ~fixed_low & (i > point)
    return keep.reshape(-1, _SLOTS)


def _exp_words():
    """'e-XX' for each decade k in -30..15, a little-endian word each."""
    mag = np.abs(np.arange(_K_MIN, _K_MAX + 1.0))
    tens = np.floor(mag / 10)
    return (_word(b"e-00") + tens * 2**16 + (mag - 10 * tens) * 2**24).astype(np.int64)


def _text(block, tables):
    """The bytes np.savetxt(fmt="%.17g", delimiter=",") writes for a 2-D
    block; tables are (powers, quads, exp_words, keep_table)."""
    powers, quads, exp_words, keep_table = tables
    rows, cols = block.shape
    v = block.ravel()
    a = np.abs(v)
    inside = (a >= _LOW) & (a < _HIGH)
    d, k, exact = _decimal(np.where(inside, a, 1.5), powers)
    inside &= exact
    first, d1_8, d9_16 = _digit_words(d, quads)
    row = (k - _K_MIN).astype(np.intp)

    words = np.empty((rows, cols, _SLOTS // 8), np.int64)
    words[..., 0] = (_word(b"\0-0.000\0") + first * 2**56).reshape(rows, cols)
    words[..., 1] = words[..., 4] = d1_8.reshape(rows, cols)
    words[..., 2] = words[..., 5] = d9_16.reshape(rows, cols)
    words[..., 3] = (first * 2**48 + ord(".") * 2**56).reshape(rows, cols)
    words[..., 6] = exp_words.take(row).reshape(rows, cols)
    words[..., :-1, 6] += ord(",") * 2**32
    words[..., -1, 6] += ord("\n") * 2**32

    cells = words.view(np.uint8).reshape(v.size, _SLOTS)
    keep = keep_table.take(row * 17 + _last_digit(d1_8, d9_16).astype(np.intp), axis=0)
    keep[:, _SIGN] = v < 0
    for i in np.flatnonzero(~inside):
        text = np.frombuffer(b"%.17g" % v[i], np.uint8)
        cells[i, 8:8 + text.size] = text
        keep[i, :_SEP] = False
        keep[i, 8:8 + text.size] = True
    return cells[keep].tobytes()


def format_rows(block) -> list:
    """The '%.17g' text of each row of a 2-D float64 block, cells joined by
    ',': the lines np.savetxt(fmt="%.17g", delimiter=",") writes, without
    their newlines."""
    block = np.asarray(block, dtype=np.float64)
    tables = _powers(), _quads(), _exp_words(), _keep_table()
    # 2048 values at a time: every temporary stays below 128 KiB, the size
    # from which glibc maps memory of its own; larger chunks raised the
    # benchmark's peak resident memory by up to 1.9 MiB
    step = max(1, _CHUNK_VALUES // block.shape[1])
    lines = [b""] * len(block)
    for start in range(0, len(block), step):
        lines[start:start + step] = _text(block[start:start + step], tables).splitlines()
    return lines
