"""CSV text of a float block, byte for byte as ``repr`` writes each value.

:func:`block_text` returns
``"".join(",".join(map(repr, row)) + "\\n" for row in block.tolist())``,
computed with numpy a slice of values at a time.  ``repr`` writes the
shortest decimal that reads back as the same double (Gay 1990).  Here that
decimal comes from x·10^s in double-double arithmetic (Dekker 1971): its
17-digit rounding and residual, then its 16- and 15-digit roundings.  The
first of those three that lies within half an ulp of x, without its trailing
zeros, is repr's decimal: a double whose shortest decimal has 15 digits or
fewer has that decimal as its 15-digit rounding.  ``repr`` stays the
definition: a value is handed to it when the error bound of that arithmetic
does not settle its digits (a rounding or a round-trip test too close to
call), and so is every zero, NaN, infinity, power of two (whose rounding
interval is not symmetric) and value outside [1e-280, 1e280].
"""

from __future__ import annotations

import numpy as np

# Values per pass.  On the four closed-form-dense tables of perfbench (1.2 M
# values), passes of 2048, 4096, 8192 and 16 384 took 0.35, 0.26, 0.31 and
# 0.32 s of CPU (Python 3.11, numpy 2.4, one core of a 2-CPU VM).
_CHUNK = 4096
# Decimal exponents floor(log10|x|) the scale table covers: |x| in
# [1e-280, 1e280], with one more on each side for a log10 that is off by one.
_E_MIN, _E_MAX = -281, 281
# A rounding or round-trip test closer to its threshold than this share of
# the threshold is left to repr.  The residuals are good to about 1e-14 of a
# unit in the last digit, and no threshold is below 0.005 of one.
_MARGIN = 1e-9
_WIDTH = 25   # the longest repr, "-1.2345678901234567e-123", and a separator


def _scale_table():
    """10^(16 - e) for e in [_E_MIN, _E_MAX] as hi + lo, hi split in halves."""
    hi, lo = [], []
    for e in range(_E_MIN, _E_MAX + 1):
        s = 16 - e
        if s >= 0:
            h = float(10 ** s)
            lo.append(float(10 ** s - int(h)))
        else:
            den = 10 ** -s
            h = 1 / den
            num, pow2 = h.as_integer_ratio()
            lo.append((pow2 - num * den) / (pow2 * den))
        hi.append(h)
    hi = np.array(hi)
    c = hi * 134217729.0   # 2^27 + 1: Dekker's split into 26-bit halves
    hh = c - (c - hi)
    return hi, hh, hi - hh, np.array(lo)


def _text_tables():
    """The ASCII digits of 0..9999, then the same with trailing zeros as NUL;
    the exponent suffix of each e in [_E_MIN, _E_MAX], padded with NUL."""
    i = np.arange(10000, dtype=np.uint16)
    digits = np.stack([i // 1000, i // 100 % 10, i // 10 % 10, i % 10], axis=1).astype(np.uint8)
    kept = np.stack([i % 1000, i % 100, i % 10, i * 0], axis=1) != 0   # a nonzero digit follows
    digits = np.concatenate([digits + ord("0"), np.where(kept | (digits > 0), digits + ord("0"), 0)])
    suffix = "".join(f"e{e:+03d}".ljust(5, "\0") for e in range(_E_MIN, _E_MAX + 1))
    return (digits.astype(np.uint8).view(np.uint32).ravel(),
            np.frombuffer(suffix.encode(), np.uint8).reshape(-1, 5))


_HI, _HI_H, _HI_L, _LO = _scale_table()
_DIGITS, _SUFFIX = _text_tables()
# Layout groups by e10: 0..15 is fixed notation with e10 + 1 digits before the
# point, 16..19 is "0." with e10 = -1..-4, 20 is exponent notation; a
# negative value's group is _SIGNED further.
_SMALL, _EXP, _SIGNED = 16, 20, 21


def _round(q, r, u):
    """(q + (r + u)/10) rounded, its residual and whether a tie is too close
    to call, for q, r = divmod(N, 10) and N + u the value at one more digit."""
    u = (r + u) / 10
    up = u >= 0.5
    return q + up, u - up, u, np.abs(u - 0.5) <= _MARGIN


def _scaled(a: np.ndarray, row: np.ndarray):
    """a*10^s, s = 16 - e10, as its nearest integer N17 and the residual d, with
    Dekker's two-product: a*hi = ph + err exactly, then the a*lo term."""
    hi, hh, hl = _HI.take(row), _HI_H.take(row), _HI_L.take(row)
    c = a * 134217729.0
    ah = c - (c - a)
    al = a - ah
    ph = a * hi
    pl = (((ah * hh - ph) + ah * hl) + al * hh) + al * hl + a * _LO.take(row)
    n = np.rint(ph)
    rem = (ph - n) + pl
    m = np.rint(rem)
    return n.astype(np.int64) + m.astype(np.int64), rem - m


def _shortest(n17: np.ndarray, d: np.ndarray, half: np.ndarray):
    """The shortest of the 17-, 16- and 15-digit roundings within ``half`` (an
    ulp of x, scaled as n17 + d) as a 17-digit integer, and where the
    arithmetic settles it (elsewhere the integer is 10^16)."""
    q, r = np.divmod(n17, 10)
    n16, d16, u16, tie16 = _round(q, r, d)
    q, r = np.divmod(q, 10)
    n15, d15, _, _ = _round(q, r, u16)   # a tie there is 0.5 away, never within h15
    h16, h15 = half / 10, half / 100
    ok16, ok15 = np.abs(d16) < h16, np.abs(d15) < h15
    # a test or a rounding too close to call matters only where it decides
    unsure = np.abs(np.abs(d15) - h15) <= _MARGIN * h15
    unsure |= ~ok15 & (np.abs(np.abs(d16) - h16) <= _MARGIN * h16)
    unsure |= ~ok15 & np.where(ok16, tie16, np.abs(np.abs(d) - 0.5) <= _MARGIN)
    # n15 = 10^15 also stands for a carry out of n16 or n17
    sure = (n17 >= 10 ** 16) & (n15 < 10 ** 15) & ~unsure
    n = np.where(ok15, n15 * 100, np.where(ok16, n16 * 10, n17))
    return np.where(sure, n, 10 ** 16), sure


def _ascii(n: np.ndarray) -> np.ndarray:
    """The 17 ASCII digits of each n in [10^16, 10^17), trailing zeros as NUL."""
    # four digits per uint32: the first holds "000" and the leading digit
    words = np.empty((len(n), 5), np.uint32)
    q, g4 = np.divmod(n, 10000)
    q, g3 = np.divmod(q, 10000)
    words[:, 0], q = np.divmod(q, 10 ** 8)
    g1, g2 = np.divmod(q, 10000)
    rest = 10000   # the groups after this one are zero: the trimmed table
    for col, g in ((4, g4), (3, g3), (2, g2), (1, g1)):
        words[:, col] = _DIGITS.take(g + rest)
        rest = rest * (g == 0)
    words[:, 0] = _DIGITS.take(words[:, 0])
    return words.view(np.uint8)[:, 3:]


def _fields(x: np.ndarray, seps: np.ndarray) -> np.ndarray:
    """(len(x), _WIDTH) bytes: the repr of each value and its separator,
    padded with NUL."""
    a = np.abs(x)
    fast = (a >= 1e-280) & (a <= 1e280) & (x.view(np.uint64) & np.uint64(2 ** 52 - 1) != 0)
    a = np.where(fast, a, 1.5)
    e10 = np.floor(np.log10(a)).astype(np.int64)
    key = np.where((e10 < -4) | (e10 > 15), _EXP, np.where(e10 < 0, _SMALL - 1 - e10, e10))
    key += _SIGNED * np.signbit(x)
    # the values sorted into layout groups, each written with constant slices
    order = np.argsort(key.astype(np.uint8), kind="stable")
    x, a, e10, key = x.take(order), a.take(order), e10.take(order), key.take(order)
    row = e10 - _E_MIN
    n17, d = _scaled(a, row)
    # half an ulp of a, scaled by 10^s; it exceeds 0.55 >= |d|, so 17 digits
    # always read back
    n, sure = _shortest(n17, d, np.ldexp(_HI.take(row), np.frexp(a)[1] - 54))
    chars = _ascii(n)
    sure &= fast.take(order)
    out = np.zeros((len(x), _WIDTH), np.uint8)
    bounds = np.searchsorted(key, np.arange(2 * _SIGNED + 1))
    for group in np.flatnonzero(np.diff(bounds)):
        rows = slice(bounds[group], bounds[group + 1])
        sign, kind = divmod(int(group), _SIGNED)
        field, digits = out[rows, sign:], chars[rows]
        if sign:
            out[rows, 0] = ord("-")
        if kind < _SMALL:   # ddd.ddd, zeros to a digit after the point at least
            field[:, :kind + 1] = np.maximum(digits[:, :kind + 1], ord("0"))
            field[:, kind + 1] = ord(".")
            field[:, kind + 2:18] = digits[:, kind + 1:]
            field[:, kind + 2] = np.maximum(digits[:, kind + 1], ord("0"))
        elif kind < _EXP:   # 0.000ddd
            zeros = kind - _SMALL + 1
            field[:, :zeros + 1] = ord("0")
            field[:, 1] = ord(".")
            field[:, zeros + 1:zeros + 18] = digits
        else:   # d.ddde-05, no point after a single digit
            field[:, 0] = digits[:, 0]
            field[:, 1] = np.where(digits[:, 1] == 0, 0, ord("."))
            field[:, 2:18] = digits[:, 1:]
            field[:, 18:23] = _SUFFIX.take(row[rows], axis=0)
    slow = ~sure
    if slow.any():
        values, index = np.unique(x[slow].view(np.uint64), return_inverse=True)
        text = "".join(repr(v).ljust(_WIDTH - 1, "\0") for v in values.view(float).tolist())
        out[slow, :-1] = np.frombuffer(text.encode(), np.uint8).reshape(-1, _WIDTH - 1)[index]
    out[:, -1] = seps.take(order)
    back = np.empty_like(order)
    back[order] = np.arange(len(order))
    return out.view(f"V{_WIDTH}").ravel().take(back)


def block_text(block: np.ndarray) -> str:
    """The CSV text of a 2-D float block: each row's values in ``repr``,
    joined by commas, each row ended by a newline."""
    block = np.asarray(block, dtype=float)
    rows, cols = block.shape
    if block.size == 0:
        return "\n" * rows
    flat = block.ravel()
    parts = []
    for start in range(0, flat.size, _CHUNK):
        x = flat[start:start + _CHUNK]
        ends = (np.arange(start + 1, start + 1 + len(x)) % cols) == 0
        seps = np.where(ends, ord("\n"), ord(",")).astype(np.uint8)
        parts.append(_fields(x, seps).tobytes().translate(None, b"\0"))
    return b"".join(parts).decode("ascii")
