"""'%.17g' of a float64 block in arrays, exactly as C and Python print it.

format_rows(block) gives the lines np.savetxt(fmt="%.17g", delimiter=",")
writes for the block. A cell with 1e-30 <= |v| < 1e16 is formatted in
arrays; any other cell (+-0, inf, nan, tiny or huge) one value at a time
with '%.17g', the only other path.

The 17 significant digits are correctly rounded, computed exactly:
D = round-half-even(|v| 10^(16-k)), k the decade of |v|. With q = 16 - k
in 1..46, |v| 10^q is formed without error: 10^q is the sum of two doubles
hi + lo (exact for q <= 46), and |v| hi is a double p plus its rounding
error e, by Dekker's product of Veltkamp-split halves (T. J. Dekker,
Numer. Math. 18, 1971). p is an even integer, so D = p + n, n the integer
nearest to e + |v| lo: n = rint(s), s = fl(e + |v| lo), unless s lies
within 2^-40 of a half-integer. There the rounding errors of s and of
|v| lo (below 2^-45 together) decide, and the sign of the remainder
against 1/2 is taken from the exact sum, expanded by error-free additions;
a tie goes to the even D, as in '%.17g'.

k comes from floor(log10|v|), which can be one off near a power of ten.
It is corrected from the floor of |v| 10^q, which must lie in
[10^16, 10^17), decided exactly the same way, and never from the rounded D.
A D that rounds up to 10^17 moves to the next decade as 10^16: the '%g'
exponent is that of the rounded value.

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


def _two_sum(a, b):
    """(s, e) with s = fl(a + b) and s + e = a + b exactly."""
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _prod_error(a, a_parts, b, b_parts, p):
    """a b - p exactly, for p = fl(a b) (Dekker)."""
    (ah, al), (bh, bl) = a_parts, b_parts
    return ((ah * bh - p) + ah * bl + al * bh) + al * bl


def _sign3(a, b, c):
    """The exact sign of a + b + c, as -1.0, 0.0 or 1.0: the sign of the
    largest nonzero part of its nonoverlapping expansion (Shewchuk's
    Grow-Expansion of b + c by a)."""
    s, e = _two_sum(b, c)
    s1, e1 = _two_sum(a, e)
    s2, e2 = _two_sum(s1, s)
    return np.sign(np.where(s2 != 0, s2, np.where(e2 != 0, e2, e1)))


def _powers():
    """Rows q = 0..46 of (hi, hi's two halves, lo), 10^q = hi + lo."""
    hi, lo, power = [], [], 1
    for _ in range(16 - _K_MIN + 1):
        hi.append(float(power))
        lo.append(float(power - int(hi[-1])))
        power *= 10
    hi = np.array(hi)
    return np.column_stack([hi, *_split(hi), lo])


class _Scaled:
    """|v| 10^q = n + g + r exactly for q = 16 - k: n = p + nf an integer
    (p and nf integers as doubles), |g| <= 1/2 and |r| < 2^-45, while
    |v| 10^q < 10^18. The parts of r are kept for the few places where they
    decide."""

    def __init__(self, a, k, powers):
        hi, hh, hl, lo = powers.take((16 - k).astype(np.intp), axis=0).T
        self.lo = lo.copy()
        self.a = a
        self.a_parts = _split(a)
        self.p = a * hi
        # |e| <= ulp(p)/2 <= 64 and |a lo| < 128
        self.e = _prod_error(a, self.a_parts, hi, (hh, hl), self.p)
        self.p2 = a * self.lo
        self.s = self.e + self.p2
        self.nf = np.rint(self.s)
        self.g = self.s - self.nf
        # p is an integer once p >= 2^53; below, n < 10^16 all the same
        self.n = self.p.astype(np.int64) + self.nf.astype(np.int64)

    def remainder(self, idx):
        """(g, t, e2) at idx, r = t + e2: the rounding errors of s and of
        a lo."""
        a, lo, s, e, p2 = self.a[idx], self.lo[idx], self.s[idx], self.e[idx], self.p2[idx]
        parts = self.a_parts[0][idx], self.a_parts[1][idx]
        bb = s - e
        t = (e - (s - bb)) + (p2 - bb)
        return self.g[idx], t, _prod_error(a, parts, lo, _split(lo), p2)

    def put(self, idx, other):
        for name in ("a", "lo", "p", "e", "p2", "s", "nf", "g", "n"):
            getattr(self, name)[idx] = getattr(other, name)
        for mine, theirs in zip(self.a_parts, other.a_parts):
            mine[idx] = theirs

    def outside(self):
        """The indices where |v| 10^q may lie outside [10^16, 10^17)."""
        approx = self.p + self.nf
        return np.flatnonzero((approx < 1e16 + 64) | (approx > 1e17 - 64))

    def decade_shift(self, idx):
        """At idx: -1 where |v| 10^q < 10^16, +1 where it is >= 10^17,
        else 0."""
        beyond = _sign3(*self.remainder(idx))  # the sign of |v| 10^q - n

        def side(bound):  # the sign of |v| 10^q - bound
            # n - bound as a double: exact where small, of the right sign
            diff = (self.n[idx] - bound).astype(np.float64)
            return np.where(diff != 0, np.sign(diff), beyond)
        return np.where(side(10**16) < 0, -1.0, 0.0) + np.where(side(10**17) >= 0, 1.0, 0.0)

    def rounded(self):
        """(round-half-even(|v| 10^q) as int64, the indices where it is
        10^17)."""
        d = self.n
        near = np.flatnonzero(np.abs(self.g) > 0.5 - 2.0**-40)
        if near.size:
            g, t, e2 = self.remainder(near)
            side = np.sign(g)
            over = _sign3(np.abs(g) - 0.5, side * t, side * e2)
            # p is even, so n is odd where nf is
            up = side * ((over > 0) | ((over == 0) & (np.fmod(self.nf[near], 2.0) != 0)))
            d[near] += up.astype(np.int64)
            self.nf[near] += up
        top = np.flatnonzero(self.p + self.nf > 1e17 - 64)
        return d, top[(d[top] - 10**17).astype(np.float64) == 0]


def _decimal(a, powers):
    """(D, k): |v| = D 10^(k-16) correctly rounded, 10^16 <= D < 10^17,
    k as doubles."""
    k = np.clip(np.floor(np.log10(a)), _K_MIN, _K_MAX)
    scaled = _Scaled(a, k, powers)
    idx = scaled.outside()
    while idx.size:
        shift = scaled.decade_shift(idx)
        idx, shift = idx[shift != 0], shift[shift != 0]
        k[idx] += shift
        again = _Scaled(a[idx], k[idx], powers)
        scaled.put(idx, again)
        idx = idx[again.outside()]
    d, carry = scaled.rounded()
    d[carry] = 10**16
    k[carry] += 1
    return d, k


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
    d, k = _decimal(np.where(inside, a, 1.5), powers)
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
