"""One exact text writer for numeric columns: every CSV and OBJ number.

:func:`write_rows` writes one line per row of typed columns: floats as
``%.17g``, integers as ``%d`` and bools as ``true``/``false``, each line
``prefix + sep.join(fields) + "\\n"``.  Its bytes equal those of Python's
``%`` on every value.  The work is done by numpy, ``BLOCK_ROWS`` rows at a
time, so no Python object is made per value.

A float with 1e-4 <= |x| < 1e16 is in %g's fixed notation.  Its 17
significant digits are the integer R = round(|x| * 10**q), q = 16 - k with
k = floor(log10 |x|), rounded half to even as dtoa rounds.  As 10**q =
5**q * 2**q and 5**q is an exact double for q <= 22, Dekker's TwoProduct
(a Veltkamp split by 2**27 + 1, no fused multiply-add) holds |x| * 5**q
exactly as hi + lo, and scaling both by 2**q is exact.  hi is then an even
integer >= 2**53, so R = hi + rint(lo).  Where log10 put k one off, R falls
outside [1e16, 1e17) and is computed again with k moved by one, which also
carries a rounding up to the next decade.  Zero, -0, nan, +-inf and every
magnitude outside the range (subnormals included) take Python's ``%``, one
value at a time.

Every field is NUL-padded text in little-endian uint64 words: digits come
from a table of the 10**4 four-digit strings, the point and the "0.000"
lead are placed by word shifts and masks, and the zeros %g strips become
NULs.  One pass that drops the NULs joins a block of rows into text.
"""

from __future__ import annotations

import functools

import numpy as np

__all__ = ["BLOCK_ROWS", "write_rows"]

#: rows formatted per numpy pass; bounds the transient buffers
BLOCK_ROWS = 4096

#: smallest and first excluded magnitude of the float fast path
FAST_MIN, FAST_END = 1e-4, 1e16

_ZERO, _MINUS = ord("0"), ord("-")
_U64 = np.uint64
#: the fast path as a span of bit patterns: |x| is in it when
#: bits(|x|) - bits(FAST_MIN) < _FAST_SPAN, unsigned
_FAST_BITS = np.array(FAST_MIN).view(np.uint64)
_FAST_SPAN = np.array(FAST_END).view(np.uint64) - _FAST_BITS
#: 5**q, exact doubles for q <= 22, and their Veltkamp halves
_SPLIT = 2.0**27 + 1.0
_POW5 = np.array([5**q for q in range(23)], dtype=float)
_POW5_HI = _SPLIT * _POW5 - (_SPLIT * _POW5 - _POW5)
_POW5_LO = _POW5 - _POW5_HI
#: 10**1 .. 10**19: a magnitude's digit count is 1 + the number <= it
_POW10 = np.array([10**j for j in range(1, 20)], dtype=np.uint64)


def _words(texts, width):
    """``texts`` NUL-padded to ``width`` bytes, as rows of little-endian uint64 words."""
    return np.array(texts, dtype=f"S{width}").view("<u8").reshape(len(texts), width // 8)


def _columns(table):
    return tuple(np.ascontiguousarray(c) for c in table.T)


# A float field is three words: the sign at byte 0, the "0.000" lead of
# k < 0 at bytes 1-5, and the 17 digits from byte 6, with the point after
# digit k when k >= 0.  The tables below are indexed by k + 4, k in [-4, 16].
_K = range(-4, 17)
#: per word, the bytes before the point, and the point itself
_BEFORE = _columns(_words([b"\xff" * (k + 7 if k >= 0 else 24) for k in _K], 24))
_DOTS = _columns(_words([b"\0" * (k + 7) + b"." if k >= 0 else b"" for k in _K], 24))
#: word 0's sign and lead, by k + 4 + len(_K) * negative
_LEADS = _words([sign + ("0." + "0" * (-k - 1) if k < 0 else "")
                 for sign in ("", "-") for k in _K], 8).ravel()
#: the first digit at byte 6
_FIRST = (np.arange(10, dtype=np.uint64) + _U64(_ZERO)) << _U64(48)
#: row j keeps the first j bytes of three words
_KEEP = _words([b"\xff" * j for j in range(25)], 24)
#: the text of False and True
_BOOLS = _words(["false", "true"], 8)


@functools.cache
def _tables():
    """The ASCII of 0000 .. 9999 as one uint64 each (four chars in the low
    bytes), and the trailing decimal zeros of each (4 for 0)."""
    n = np.arange(10_000)
    chars = np.stack([n // 1000, n // 100 % 10, n // 10 % 10, n % 10], axis=1) + _ZERO
    ascii4 = chars.astype(np.uint8).view("<u4").ravel().astype(np.uint64)
    zeros = (n % 10 == 0).astype(np.int64) + (n % 100 == 0) + (n % 1000 == 0) + (n == 0)
    return ascii4, zeros


def _split(v, unit):
    """v // unit and v % unit for non-negative v."""
    high = v // unit
    return high, v - high * unit


def _scaled(a, k):
    """round(a * 10**(16 - k)) as int64, exactly and half to even.

    Exact where the product is at least 2**53 and 0 <= 16 - k <= 22.
    """
    q = 16 - k
    b = _POW5.take(q)
    b_hi, b_lo = _POW5_HI.take(q), _POW5_LO.take(q)
    p = a * b
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    err = ((a_hi * b_hi - p) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo
    q = q.astype(np.intc)  # ldexp's own exponent type, which it takes uncast
    return np.ldexp(p, q).astype(np.int64) + np.rint(np.ldexp(err, q)).astype(np.int64)


def _round17(a, k):
    """(D, k): D * 10**(k - 16) is each a in [FAST_MIN, FAST_END) rounded to
    17 significant digits, with 10**16 <= D < 10**17.

    ``k`` is an estimate of floor(log10 a), at most one off, and is updated
    in place: where D comes out at 10**17 or more, k + 1 is tried (which
    also carries a rounding up into the next decade), and under 10**16, k - 1.
    """
    d = _scaled(a, k)
    while True:
        redo = np.flatnonzero((d - 10**16).view(np.uint64) >= 9 * 10**16)
        if not len(redo):
            return d, k
        k[redo] += np.where(d[redo] < 10**16, -1, 1)
        d[redo] = _scaled(a[redo], k[redo])


def _float_field(x):
    """The %.17g text of the float64 array ``x``, NUL-padded, as three words a value."""
    ascii4, zeros = _tables()
    ax = np.abs(x)
    slow = np.flatnonzero(ax.view(np.uint64) - _FAST_BITS >= _FAST_SPAN)
    if len(slow):
        ax[slow] = 1.0
    d, k = _round17(ax, np.floor(np.log10(ax)).astype(np.int64))
    high, low = _split(d, 10**8)
    first, high = _split(high, 10**8)
    a_hi, a_lo = _split(high, 10_000)
    b_hi, b_lo = _split(low, 10_000)
    text_a = ascii4.take(a_hi) | ascii4.take(a_lo) << _U64(32)
    text_b = ascii4.take(b_hi) | ascii4.take(b_lo) << _U64(32)

    # the digits from byte 6, those after the point moved up one byte
    k4 = k + 4
    words = np.empty((len(x), 3), dtype=np.uint64)
    unpointed = (_FIRST.take(first) | text_a << _U64(56),
                 text_a >> _U64(8) | text_b << _U64(56),
                 text_b >> _U64(8))
    carry = _LEADS.take(k4 + len(_K) * np.signbit(x))
    for i, digits in enumerate(unpointed):
        before = _BEFORE[i].take(k4)
        after = digits & ~before
        words[:, i] = (digits & before) | after << _U64(8) | carry | _DOTS[i].take(k4)
        carry = after >> _U64(56)

    # %g keeps no trailing zero after the point, nor a point with no digit after it
    trailing = zeros.take(b_lo)
    short = np.flatnonzero(trailing)
    if len(short):
        a_hi, a_lo, b_hi, b_lo, k = a_hi[short], a_lo[short], b_hi[short], b_lo[short], k[short]
        last = 16 - trailing[short] - (b_lo == 0) * (zeros.take(b_hi) + (b_hi == 0) * (
            zeros.take(a_lo) + (a_lo == 0) * zeros.take(a_hi)))  # the last nonzero digit
        end = 6 + np.where(k < 0, last + 1, np.where(last > k, last + 2, k + 1))
        words[short] &= _KEEP[end]
    if len(slow):
        words[slow] = _words(["%.17g" % v for v in x[slow].tolist()], 24)
    return words


def _int_field(v):
    """The %d text of the integer array ``v``, NUL-padded, as uint64 words.

    A sign word when any value is negative, then eight digits a word.
    """
    ascii4, _ = _tables()
    neg = v < 0
    mag = v.astype(np.uint64)
    np.negative(mag, out=mag, where=neg)  # modulo 2**64: |v|, int64 min included
    ndigits = 1 + np.searchsorted(_POW10, mag, side="right")
    n_words = -(-int(ndigits.max()) // 8)
    blank = 8 * n_words - ndigits  # leading zeros, blanked to NUL
    words = np.empty((len(v), 1 + n_words), dtype=np.uint64)
    words[:, 0] = np.where(neg, _U64(_MINUS), _U64(0))
    for i in range(n_words, 0, -1):  # the lowest eight digits last
        mag, low = _split(mag, _U64(10**8))
        high, low = _split(low, _U64(10_000))
        words[:, i] = (ascii4.take(high) | ascii4.take(low) << _U64(32)) & ~_KEEP[blank, i - 1]
    return words if neg.any() else words[:, 1:]


def _bool_field(v):
    """true/false for the bool array ``v``, NUL-padded, as one word a value."""
    return _BOOLS[v.view(np.uint8)]


def _typed(column):
    """``column`` as a 1-D array and the field builder its dtype selects."""
    column = np.asarray(column)
    if column.dtype == bool:
        return column, _bool_field
    if column.dtype.kind in "iu":
        return column, _int_field
    return column.astype(np.float64, copy=False), _float_field


def write_rows(fileobj, columns, *, sep, prefix) -> None:
    """Write ``prefix + sep.join(fields) + "\\n"`` for each row of ``columns``.

    ``columns`` is a sequence of 1-D array-likes of one length.  Each is
    written by its dtype: bools as true/false, integers with %d and anything
    else as float64 with %.17g, which round-trips exactly.  ``fileobj`` is a
    text file.  ValueError, before anything is written, if the lengths differ.
    """
    typed = [_typed(c) for c in columns]
    lengths = [len(c) for c, _ in typed]
    if len(set(lengths)) > 1:
        raise ValueError(f"columns differ in length: {lengths}")
    n = lengths[0] if lengths else 0
    # a block formats the columns of one builder and dtype side by side, in
    # one call, however many columns there are
    kinds = {}
    for j, (column, field) in enumerate(typed):
        kinds.setdefault((field, column.dtype), []).append(j)
    literal = [np.frombuffer(s.encode("ascii"), dtype=np.uint8) for s in (prefix, sep, "\n")]
    for start in range(0, n, BLOCK_ROWS):
        stop = min(start + BLOCK_ROWS, n)
        text = [None] * len(typed)
        for (field, _), js in kinds.items():
            values = np.stack([typed[j][0][start:stop] for j in js], axis=1)
            words = field(values.ravel()).astype("<u8", copy=False)
            words = words.view(np.uint8).reshape(stop - start, len(js), -1)
            for m, j in enumerate(js):
                text[j] = words[:, m]
        prefix_b, sep_b, newline = (np.broadcast_to(b, (stop - start, len(b))) for b in literal)
        parts = [prefix_b]
        for j, field_text in enumerate(text):
            if j:
                parts.append(sep_b)
            parts.append(field_text)
        parts.append(newline)
        block = np.concatenate(parts, axis=1)
        fileobj.write(block[block != 0].tobytes().decode("ascii"))
