"""The array writer gives the bytes of Python's ``%`` on every value.

``write_rows`` lays numbers out with numpy; the oracle formats each value on
its own: floats with %.17g, integers with %d, bools as true/false.
"""

import io
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from berger_cgc import textout

F64 = np.finfo(np.float64)
I64 = np.iinfo(np.int64)


def written(columns, sep=",", prefix=""):
    f = io.StringIO()
    textout.write_rows(f, columns, sep=sep, prefix=prefix)
    return f.getvalue()


def oracle(columns, sep=",", prefix=""):
    """Each value formatted on its own with Python's %."""

    def text(column):
        column = np.asarray(column)
        if column.dtype == bool:
            return ["true" if v else "false" for v in column.tolist()]
        if column.dtype.kind in "iu":
            return ["%d" % v for v in column.tolist()]
        return ["%.17g" % v for v in column.astype(float).tolist()]

    return "".join(prefix + sep.join(row) + "\n" for row in zip(*map(text, columns)))


def assert_floats_match(x):
    x = np.asarray(x, dtype=float)
    got = written([x]).splitlines()
    want = ["%.17g" % v for v in x.tolist()]
    assert len(got) == len(want)
    bad = [(v, g, w) for v, g, w in zip(x.tolist(), got, want) if g != w]
    assert not bad, f"{len(bad)} mismatches, first {bad[:3]}"


def test_random_bit_patterns():
    # every class of double: the exponent is uniform, so most fall back to %
    rng = np.random.default_rng(13)
    assert_floats_match(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))


def test_random_bit_patterns_in_the_fast_range():
    # random 52-bit significands with exponents around [1e-4, 1e16)
    rng = np.random.default_rng(14)
    mantissa = rng.integers(0, 2**52, 200_000, dtype=np.uint64)
    exponent = rng.integers(1023 - 15, 1023 + 55, 200_000).astype(np.uint64)
    sign = rng.integers(0, 2, 200_000).astype(np.uint64)
    x = (sign << np.uint64(63) | exponent << np.uint64(52) | mantissa).view(np.float64)
    assert np.mean((np.abs(x) >= textout.FAST_MIN) & (np.abs(x) < textout.FAST_END)) > 0.9
    assert_floats_match(x)


def test_log_uniform_magnitudes_both_signs():
    rng = np.random.default_rng(15)
    x = 10.0 ** rng.uniform(-7, 18, 200_000) * rng.choice([-1.0, 1.0], 200_000)
    assert_floats_match(x)


def test_exact_ties_round_half_to_even():
    # n + 1/4 and n + 3/4 are exact and have 18 digits: the 17th is a tie,
    # which %g rounds to the even digit, down for 1/4 and up for 3/4
    rng = np.random.default_rng(16)
    n = rng.integers(10**15, 2**51, 100_000).astype(float)
    x = np.concatenate([n + 0.25, n + 0.75])
    assert np.all(x - np.floor(x) == np.repeat([0.25, 0.75], len(n)))
    assert_floats_match(x)
    assert_floats_match(-x)
    assert_floats_match(x * 2.0**-30)  # the same significands at other exponents


def test_neighbours_of_the_powers_of_ten():
    # log10 is least sure of k here, and 17-digit rounding may carry a
    # decade: 999..9.5 rounds up to the next power of ten
    x = []
    for e in range(-5, 18):
        p = float(f"1e{e}")
        below, above = p, p
        for _ in range(4):
            below, above = np.nextafter(below, 0.0), np.nextafter(above, math.inf)
            x += [below, above]
        x += [p, float(f"9.99999999999999995e{e - 1}")]
    x = np.array(x)
    assert_floats_match(x)
    assert_floats_match(-x)


@pytest.mark.parametrize("off", [-1, 0, 1])
def test_an_exponent_estimate_one_off_is_corrected(off):
    # log10 may put k one off near a power of ten; the digits and k come
    # out as %.16e spells them either way
    rng = np.random.default_rng(19)
    a = 10.0 ** rng.uniform(-4, 16, 10_000)
    a = a[(a >= textout.FAST_MIN) & (a < textout.FAST_END)]
    k = np.floor(np.log10(a)).astype(np.int64)
    d, k = textout._round17(a, k + off)
    mantissa, exponent = zip(*(("%.16e" % v).split("e") for v in a.tolist()))
    assert d.tolist() == [int(m.replace(".", "")) for m in mantissa]
    assert k.tolist() == [int(e) for e in exponent]


def test_special_and_extreme_values():
    x = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
         F64.tiny, F64.max, -F64.max, F64.eps,
         textout.FAST_MIN, np.nextafter(textout.FAST_MIN, 0.0),
         np.nextafter(textout.FAST_END, 0.0), textout.FAST_END, 1e17, 0.5, 1.0, 100.0]
    assert_floats_match(x)


def test_integers():
    rng = np.random.default_rng(17)
    v = np.concatenate([[I64.min, I64.max, 0, -1, 1, 9, 10, -10, 99_999_999, 100_000_000,
                         -(10**18), 10**18 - 1],
                        rng.integers(I64.min, I64.max, 100_000, endpoint=True),
                        rng.integers(-1000, 1000, 1000)])
    assert written([v]) == oracle([v])
    u = np.array([0, 1, 2**63, 2**64 - 1, 10**19, 10**19 - 1], dtype=np.uint64)
    assert written([u]) == oracle([u])
    small = np.array([-128, 0, 127], dtype=np.int8)
    assert written([small]) == "-128\n0\n127\n"


def test_bools_and_mixed_rows_across_blocks():
    # more rows than one block, every kind of column, fallback values in
    # several blocks, and each row's prefix and separator
    rng = np.random.default_rng(18)
    n = 2 * textout.BLOCK_ROWS + 7
    x = rng.normal(size=n)
    x[::997] = 0.0
    x[5::1999] = math.nan
    flags = rng.random(n) < 0.5
    ints = rng.integers(-10**6, 10**6, n)
    columns = [x, ints, flags, np.ones(n, bool), -x * 1e-3, list(range(n))]
    assert written(columns) == oracle(columns)
    assert written(columns, sep=" ", prefix="v ") == oracle(columns, sep=" ", prefix="v ")


def test_empty_columns_write_nothing():
    assert written([np.empty(0), np.arange(0), np.zeros(0, bool), []]) == ""
    assert written([]) == ""


def test_columns_of_unequal_length_are_refused_before_writing():
    f = io.StringIO()
    with pytest.raises(ValueError, match=r"\[3, 2\]"):
        textout.write_rows(f, [[1.0, 2.0, 3.0], np.array([1, 2])], sep=",", prefix="")
    assert f.getvalue() == ""


@settings(derandomize=True, max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64), min_size=1, max_size=40),
       st.lists(st.integers(I64.min, I64.max), min_size=1, max_size=40))
@example([2.5e-5, 0.0001, 9999999999999998.0, 1e-4 * (1 - 2**-52)], [I64.min])
def test_property_matches_percent_formatting(floats, ints):
    n = min(len(floats), len(ints))
    columns = [np.array(floats[:n]), np.array(ints[:n]), np.array(floats[:n]) < 0]
    assert written(columns) == oracle(columns)
