"""CSV text of numpy blocks, every float written byte for byte as Python's ``repr``.

The digits come from Schubfach (R. Giulietti, "The Schubfach way to render
doubles", 2020): for v = c·2^q it picks the decimal of fewest digits inside
v's rounding interval, and of those the one nearest v (a tie goes to the even
one), which is what ``repr`` prints.  It is uint64 arithmetic only, with no
libm and no floating point, so the text does not depend on the host.  The
layout then follows ``repr``: fixed notation for -4 < decpt <= 16 (the value
is 0.d1d2... x 10^decpt), otherwise ``d.ddde±XX``, and ``0.0``, ``inf``,
``nan``; a set sign bit adds a leading ``-``, except on ``nan``.

A value's text is a cell, a row of ``WIDTH`` bytes padded with NUL anywhere:
:func:`render` gathers each cell from its value's source row through a
template picked by (digit count, layout mode).  :func:`rows` joins the cells
of a block into CSV rows and drops every NUL from their bytes.  The tables are
built on first use, so importing the package builds none, and are read-only.

Every compare is made on int64 views, no integer is floor-divided and no small
integer is cast to an index: numpy runs those through kernels of their own, which
the simulations do not use, and a simulation that writes its small tables at its
peak of memory would fault their code in on top of that peak.
"""

from __future__ import annotations

import functools
import sys
from typing import BinaryIO

import numpy as np

# the longest repr of a double, "-1.2345678901234567e-308", is 24 bytes
WIDTH = 24
# rows that write_csv renders and writes at a time
ROWS = 2048
# cells that render gathers at a time
_GATHER = 512

_M32 = np.uint64(0xFFFF_FFFF)
_M63 = np.uint64((1 << 63) - 1)
_TOP = np.uint64(1 << 63)
_HIDDEN = np.uint64(1 << 52)
_Q_MIN = -1074
# 10**j, j = 0..17; a shortest significand is below 10**17
_POW10 = np.array([10**j for j in range(18)], dtype=np.uint64)
# 5**-j modulo 2**64: a multiple of 10**j over 2**j, times it, is the quotient
_INV5 = np.array([pow(5**j, -1, 1 << 64) for j in range(18)], dtype=np.uint64)
# the byte of an intp that holds its value when the others are 0
_LOW = 0 if sys.byteorder == "little" else np.dtype(np.intp).itemsize - 1
# A value's source row, 36 bytes: the last 16 digits of its 17-digit significand in
# bytes 0..15 and the first in byte 16, its sign ('-' or NUL) in byte 17, the three
# digits of |decpt - 1| in bytes 21..23, and the constants from byte 24 on.
_LEAD, _SIGN, _EXP, _BASE = 16, 17, 20, 24
_CONST = b"\0.0e+-infa\0\0"
_SRC = _BASE + len(_CONST)
# layout modes: fixed notation with decpt = mode - 3 (-3 .. 16), the exponent forms
# (a negative or positive exponent, then + 1 for three exponent digits), the specials
_EXP_NEG, _EXP_POS, _ZERO, _INF, _NAN = 20, 22, 24, 25, 26
_MODES = 27


def _flog10pow2(e):
    # floor(e log10 2) for |e| <= 5456721
    return (e * 661_971_961_083) >> 41


def _flog2pow10(e):
    # floor(e log2 10) for |e| <= 6432162
    return (e * 913_124_641_741) >> 38


@functools.cache
def _pow10_table() -> tuple[np.ndarray, np.ndarray, int]:
    """g(k) = floor(10^-k 2^(125 - floor(-k log2 10))) + 1, in [2^125, 2^126], for every k
    that a finite double needs: its high and low 64-bit words, and the first k.  For
    k <= 0 that is the top 126 bits of 10^-k plus one; floor(-k log2 10) is one less
    than the bit length of 10^-k, and minus the bit length of 10^k for k > 0."""
    k_lo, k_hi = _flog10pow2(_Q_MIN), _flog10pow2(971)
    pow10 = [1]
    for _ in range(max(-k_lo, k_hi)):
        pow10.append(pow10[-1] * 10)
    g = [p << 126 - p.bit_length() if p.bit_length() <= 126 else p >> p.bit_length() - 126 for p in pow10[-k_lo::-1]]
    g += [(1 << 125 + p.bit_length()) // p for p in pow10[1 : k_hi + 1]]
    words = np.frombuffer(b"".join((v + 1).to_bytes(16, "little") for v in g), dtype="<u8").reshape(-1, 2)
    return words[:, 1], words[:, 0], k_lo


@functools.cache
def _templates() -> np.ndarray:
    """The source byte of each of a cell's ``WIDTH`` bytes, for every key
    (digit count - 1) * _MODES + layout mode."""
    col = {ch: bytes([_BASE + i]) for i, ch in enumerate(_CONST.decode("ascii"))}
    sign, pad = bytes([_SIGN]), col["\0"]
    cells = []
    for n in range(1, 18):
        # digit i of n sits at place 17 - n + i of the 17-digit significand
        d = bytes(_LEAD if p == 0 else p - 1 for p in range(17 - n, 17))
        frac = col["."] + d[1:] if n > 1 else b""
        lay = [
            col["0"] + col["."] + col["0"] * -p + d if p <= 0
            else d[:p] + col["."] + d[p:] if p < n
            else d + col["0"] * (p - n) + col["."] + col["0"]
            for p in range(-3, 17)
        ]
        lay += [d[:1] + frac + col["e"] + col[s] + bytes(range(_EXP + 4 - w, _EXP + 4)) for s in "-+" for w in (2, 3)]
        lay += [b"".join(col[ch] for ch in word) for word in ("0.0", "inf")]
        cells += [(sign + cell).ljust(WIDTH, pad) for cell in lay]
        cells.append(b"".join(col[ch] for ch in "nan").ljust(WIDTH, pad))
    return np.frombuffer(b"".join(cells), dtype=np.uint8).reshape(-1, WIDTH)


@functools.cache
def _groups() -> np.ndarray:
    """The ASCII of 0000 .. 9999, four bytes each, as one uint32 a number."""
    pairs = np.array([[48 + i // 10, 48 + i % 10] for i in range(100)], dtype=np.uint8)
    out = np.empty((100, 100, 4), dtype=np.uint8)
    out[:, :, :2] = pairs[:, None]
    out[:, :, 2:] = pairs[None, :]
    return np.frombuffer(out.tobytes(), dtype=np.uint32)


def _i(a: np.ndarray) -> np.ndarray:
    """The int64 view of uint64 words: its compares are those of the words when they
    are below 2^63, and its equality is theirs always."""
    return a.view(np.int64)


def _below(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a < b for uint64 words, as the int64 compare of the words with their top bits flipped."""
    return _i(a ^ _TOP) < _i(b ^ _TOP)


def _divmod(a: np.ndarray, j: int) -> tuple[np.ndarray, np.ndarray]:
    """a // 10^j and a % 10^j for uint64 a, the quotient as an exact division by multiplication."""
    r = a % _POW10[j]
    return ((a - r) >> np.uint64(j)) * _INV5[j], r


def _wide_product(gh: np.ndarray, gl: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(gh·2^64 + gl)·b for b < 2^64, as its three 64-bit words from the high one, from 32-bit halves."""
    b0, b1 = b & _M32, b >> 32
    words = []
    for a in (gl, gh):
        a0, a1 = a & _M32, a >> 32
        p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
        mid = (p00 >> 32) + (p01 & _M32) + (p10 & _M32)
        words += [(mid << 32) | (p00 & _M32), a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)]
    low, gl_hi, gh_lo, gh_hi = words
    w1 = gl_hi + gh_lo
    return gh_hi + _below(w1, gl_hi), w1, low


def _rop(w2: np.ndarray, w1: np.ndarray) -> np.ndarray:
    # the 192-bit number over 2^127 rounded to odd: its floor, with the last bit set
    # when bits 64..126 are not all 0.  The low word is not read: when the exact
    # quotient is an integer it holds only g's excess over 10^-k 2^r, times a factor
    # below 2^60, which must not count as a fraction.
    return (w2 << 1) | (w1 >> 63) | (_i(w1 & _M63) != 0)


def _end(p: tuple, gh: np.ndarray, gl: np.ndarray, shift: np.ndarray, add: bool) -> np.ndarray:
    """rop((p ± g·2^shift) / 2^127) for the 192-bit p as three words, g = gh·2^64 + gl, 0 < shift < 64."""
    p2, p1, p0 = p
    d0 = gl << shift
    d1 = (gh << shift) | (gl >> (np.uint64(64) - shift))
    d2 = gh >> (np.uint64(64) - shift)
    if add:
        w0 = p0 + d0
        w1 = p1 + d1
        carry0, carry1 = _below(w0, p0), _below(w1, p1)
        w1 += carry0
        return _rop(p2 + d2 + (carry1 | ((_i(w1) == 0) & carry0)), w1)
    borrow = _below(p0, d0)
    return _rop(p2 - d2 - (_below(p1, d1) | ((_i(p1) == _i(d1)) & borrow)), p1 - d1 - borrow)


def _shortest(c: np.ndarray, q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Schubfach: the decimal f·10^k of fewest digits nearest c·2^q, for 1 <= c < 2^53;
    its trailing zeros are not stripped."""
    g_hi, g_lo, k_lo = _pow10_table()
    # above a power of two the gap below is half the gap above
    irregular = (_i(c) == 1 << 52) & (q > _Q_MIN)
    # floor(log10 2^q), or floor(log10(3/4 2^q)) where the gap below is the narrower
    k = (q * 661_971_961_083 - np.where(irregular, 274_743_187_321, 0)) >> 41
    h = (q + _flog2pow10(-k) + 2).astype(np.uint64)
    gh, gl = g_hi.take(k - k_lo), g_lo.take(k - k_lo)
    # g·(4c·2^h), and its sum with g·2^(h+1) and difference with g·2^(h+1) (g·2^h
    # below a power of two) for the ends of the rounding interval
    p = _wide_product(gh, gl, c << (h + np.uint64(2)))
    vb = _rop(p[0], p[1])
    h += np.uint64(1)
    vbr = _end(p, gh, gl, h, add=True)
    vbl = _end(p, gh, gl, h - irregular, add=False)
    del p, gh, gl, h, irregular  # the largest temporaries of a block go first
    # the ends belong to the interval when c is even
    vbl += c & np.uint64(1)
    vbr -= c & np.uint64(1)
    # all below 2^63, so the rest is int64
    vb, vbl, vbr = _i(vb), _i(vbl), _i(vbr)
    s = vb >> 2
    s4 = s << 2
    # s·10^k or (s + 1)·10^k: the one inside, else the nearer, else the even one
    f = s + ((vbl > s4) | ((s4 + 4 <= vbr) & (vb - s4 + s % 2 >= 3)))
    # a digit fewer: the multiple of 10 just below or just above s, when only one is inside
    s -= s % 10
    upper = (s + 10) << 2 <= vbr
    return np.where((vbl <= s << 2) ^ upper, s + 10 * upper, f).view(np.uint64), k


def render(x) -> np.ndarray:
    """The ``repr`` of every float in ``x``, read as float64, as NUL-padded (size, WIDTH) uint8 rows."""
    bits = np.ascontiguousarray(x, dtype=np.float64).reshape(-1).view(np.uint64)
    m = bits.size
    sign = (bits >> np.uint64(63)).astype(np.intp)
    be = ((bits >> np.uint64(52)) & np.uint64(0x7FF)).astype(np.intp)
    frac = bits & (_HIDDEN - np.uint64(1))
    zero = _i(bits & _M63) == 0
    special = zero | (be == 0x7FF)
    # a zero, an infinity or a nan gets the digits of 1.0 and its own layout
    c = np.where(special, _HIDDEN, np.where(be != 0, frac | _HIDDEN, frac))
    q = np.where(special, -52, np.maximum(be, 1) - 1075)
    f, e = _shortest(c, q)
    # strip trailing zeros, 16, 8, 4, 2 and 1 at a time, from the significands that have any
    ten = np.flatnonzero(_i(f % np.uint64(10)) == 0)
    if ten.size:
        g, z = f[ten], e[ten]
        for p in (16, 8, 4, 2, 1):
            div, r = _divmod(g, p)
            strip = _i(r) == 0
            g = np.where(strip, div, g)
            z += np.where(strip, p, 0)
        f[ten], e[ten] = g, z
    n = np.searchsorted(_POW10, f, side="right")
    decpt = e + n
    mag = np.maximum(decpt - 1, 1 - decpt)  # |decpt - 1|
    mode = np.where((decpt > -4) & (decpt <= 16), decpt + 3, np.where(decpt > 0, _EXP_POS, _EXP_NEG) + (mag >= 100))
    if special.any():
        mode[special] = np.where(zero, _ZERO, np.where(_i(frac) == 0, _INF, _NAN))[special]
    src = np.empty((m, _SRC), dtype=np.uint8)
    words = src.view(np.uint32)
    lead, rest = _divmod(f, 16)
    halves = np.stack(_divmod(rest, 8), axis=1)
    top, bottom = _divmod(halves, 4)
    groups = _groups()
    words[:, 0:4:2] = groups.take(top)
    words[:, 1:4:2] = groups.take(bottom)
    src[:, _LEAD] = lead + np.uint64(48)
    src[:, _SIGN] = sign * 45
    words[:, _EXP // 4] = groups.take(mag)
    words[:, _BASE // 4 :] = np.frombuffer(_CONST, dtype=np.uint32)
    # one gather of the cells' bytes, a few hundred cells at a time for a small index; the
    # template bytes become indices by a copy into the low bytes of zeroed intp, not by a cast
    keys = (n - 1) * _MODES + mode
    flat, out = src.reshape(-1), np.empty((m, WIDTH), dtype=np.uint8)
    wide, at = np.zeros((2, min(m, _GATHER), WIDTH), dtype=np.intp)
    low = wide.view(np.uint8).reshape(len(wide), WIDTH, wide.itemsize)[:, :, _LOW]
    for lo in range(0, m, _GATHER):
        k = min(_GATHER, m - lo)
        low[:k] = _templates().take(keys[lo : lo + k], axis=0)
        np.add(wide[:k], np.arange(lo * _SRC, (lo + k) * _SRC, _SRC)[:, None], out=at[:k])
        flat.take(at[:k], out=out[lo : lo + k], mode="wrap")
    return out


def _integers(a: np.ndarray) -> np.ndarray:
    """Decimal text of an integer array, as NUL-padded cells of shape a.shape + (width,)."""
    neg = a < 0
    mag = a.astype(np.uint64)
    mag = np.where(neg, -mag, mag)
    width = len(str(int(mag.max(initial=0))))
    out = np.empty(a.shape + (width + 1,), dtype=np.uint8)
    out[..., 0] = neg * 45
    for j in range(width, 0, -1):
        mag, digit = _divmod(mag, 1)
        out[..., j] = digit + np.uint64(48)
    # leading zeros, but for the last digit, are padding
    digits = out[..., 1:-1]
    digits[np.logical_and.accumulate(digits == 48, axis=-1)] = 0
    return out


def _cells(column) -> np.ndarray:
    """The entries of a column that is not a float array as NUL-padded cells:
    integers in decimal, other floats as their ``repr``, anything else as its ``str``."""
    if isinstance(column, np.ndarray) and column.dtype.kind in "iu":
        return _integers(column)
    values = column.tolist() if isinstance(column, np.ndarray) else list(column)
    floats = np.array([isinstance(v, float) for v in values], dtype=bool)
    text = np.array([b"" if f else str(v).encode() for v, f in zip(values, floats)], dtype=bytes)
    out = np.zeros((len(values), max(WIDTH, text.itemsize)), dtype=np.uint8)
    out[:, : text.itemsize] = text.view(np.uint8).reshape(len(values), text.itemsize)
    if floats.any():
        out[floats, :WIDTH] = render([v for v, f in zip(values, floats) if f])
    return out


def rows(*columns) -> bytes:
    """The CSV rows of ``columns``, broadcast against each other: the cells of a row
    joined by commas and ended by a newline.  The float arrays among the columns are
    rendered in one :func:`render` call."""
    floats = [c for c in columns if isinstance(c, np.ndarray) and c.dtype.kind == "f"]
    if floats:
        text = render(np.concatenate([c.reshape(-1) for c in floats]))
        pieces = iter(np.split(text, np.cumsum([c.size for c in floats])[:-1]))
    cells = [
        next(pieces).reshape(c.shape + (WIDTH,)) if isinstance(c, np.ndarray) and c.dtype.kind == "f" else _cells(c)
        for c in columns
    ]
    out = np.empty(np.broadcast_shapes(*(c.shape[:-1] for c in cells)) + (sum(c.shape[-1] + 1 for c in cells),), np.uint8)
    at = 0
    for c in cells:
        out[..., at : at + c.shape[-1]] = c
        at += c.shape[-1]
        out[..., at] = ord(",")
        at += 1
    out[..., -1] = ord("\n")
    return out.tobytes().translate(None, b"\0")


def write_csv(fh: BinaryIO, header: str, *columns) -> None:
    """Write the header line and then the rows of the equal-length ``columns``, ``ROWS`` at a time."""
    fh.write(header.encode() + b"\n")
    size = min((len(c) for c in columns), default=0)
    for lo in range(0, size, ROWS):
        fh.write(rows(*(c[lo : min(lo + ROWS, size)] for c in columns)))
