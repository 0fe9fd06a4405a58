"""The tanh-sinh kernel against the one-interval rule it replaced.

``scalar_tanhsinh`` and ``scalar_h_integrand`` are the scalar rule and the
vertical-radius integrand as they stood before the kernel evaluated many
cells at once.  The kernel must give every cell the same bits, whatever the
batch it runs in.
"""

import math

import numpy as np
import pytest

from berger_cgc import make_params, sphere
from berger_cgc.errors import AccuracyError
from berger_cgc.quadrature import (
    TANHSINH_ATOL,
    TANHSINH_MAX_LEVEL,
    CumulativeGauss,
    tanhsinh,
)

_PI_2 = math.pi / 2.0


def scalar_tanhsinh(f, a, b):
    """The one-interval rule: (value, error), or AccuracyError at the last level."""
    if not (b > a):
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    span = b - a
    half = 0.5 * span
    z_cap = 0.5 * math.log(span * 1e300)
    t_max = math.asinh(z_cap / _PI_2)

    raw_sum = 0.0
    prev = None
    est = math.nan
    err = math.inf
    for level in range(TANHSINH_MAX_LEVEL + 1):
        h = 1.0 / (1 << level)
        if level == 0:
            t = np.arange(0, int(t_max / h) + 1) * h
        else:
            t = np.arange(1, int(t_max / h) + 1, 2) * h
        z = _PI_2 * np.sinh(t)
        d_far = span / (1.0 + np.exp(2.0 * z))
        w = half * _PI_2 * np.cosh(t) / np.cosh(z) ** 2
        fp = f(b - d_far, span - d_far, d_far)
        fm = f(a + d_far, d_far, span - d_far)
        terms = w * (fp + fm)
        if level == 0:
            terms[0] *= 0.5
        raw_sum += float(np.sum(terms))
        est = raw_sum * h
        if prev is not None:
            err = abs(est - prev)
            if err <= TANHSINH_ATOL:
                return est, err
        prev = est
    raise AccuracyError("did not converge", achieved=est, error=err)


def scalar_h_integrand(params, K):
    """The vertical-radius integrand of one cell, with scalar constants; and r."""
    lam, tau = params.lam, params.tau
    sroot = math.sqrt(1.0 - 4.0 * lam / K)
    lam_u2 = (1.0 + sroot) / 2.0
    r = sphere.horizontal_radius(params, K)
    c1 = K - 3.0 * lam - 1.0
    c2 = 4.0 * lam * lam + 4.0 * lam - 2.0 * K * lam
    c3 = lam * lam * (K - 4.0)

    def f(x, d_left, d_right):
        u = np.sin(x) ** 2
        N = np.maximum(u * (c1 + u * (c2 + u * c3)), 0.0)
        Q = K * np.sin(d_right) * np.sin(2.0 * r - d_right) * (lam_u2 - lam * u)
        return np.sqrt(N) / (np.cos(x) * np.sqrt(Q)) / tau

    return f, r


def random_cells(n, seed):
    """tau log-uniform in [0.05, 20] and K/k0 - 1 log-uniform in [1e-7, 1e3],
    without the cells where h diverges (no quadrature runs there)."""
    rng = np.random.default_rng(seed)
    cells = []
    while len(cells) < n:
        p = make_params(float(np.exp(rng.uniform(np.log(0.05), np.log(20.0)))))
        K = p.k0 * (1.0 + float(np.exp(rng.uniform(np.log(1e-7), np.log(1e3)))))
        if sphere._divergence(p, K) is None:
            cells.append((p, K))
    return cells


def oracle(p, K):
    """(value, error, converged) of one cell by the scalar rule."""
    f, r = scalar_h_integrand(p, K)
    try:
        return scalar_tanhsinh(f, 0.0, r) + (True,)
    except AccuracyError as exc:
        return exc.achieved, exc.error, False


class TestBitsAgainstTheScalarRule:
    # and two cells near the tau > 1 pole that do not converge
    CELLS = random_cells(298, 11) + [(make_params(2.0), 0.2500000025),
                                     (make_params(11.49522329443677), 0.007567722988282263)]

    @pytest.fixture(scope="class")
    def want(self):
        return [oracle(p, K) for p, K in self.CELLS]

    @pytest.mark.parametrize("batch", [1, 2, 7, 64, 300])
    def test_kernel_matches_bit_for_bit(self, want, batch):
        for start in range(0, len(self.CELLS), batch):
            chunk = self.CELLS[start:start + batch]
            fac = sphere._Factors([p for p, _ in chunk], [K for _, K in chunk])
            values, errors, levels = tanhsinh(fac.dh_dx, np.zeros(len(chunk)), fac.r)
            for i, (value, error, converged) in enumerate(want[start:start + batch]):
                assert values[i] == value and errors[i] == error, chunk[i]
                assert (errors[i] <= TANHSINH_ATOL) == converged
                assert converged or levels[i] == TANHSINH_MAX_LEVEL

    def test_vertical_radii_and_radius_match(self, want):
        got = sphere.vertical_radii([p for p, _ in self.CELLS], [K for _, K in self.CELLS])
        for (p, K), h, (value, error, converged) in zip(self.CELLS, got, want):
            if converged:
                assert h == value
            else:  # the error vertical_radius raises for the cell
                assert isinstance(h, AccuracyError)
                assert (h.achieved, h.error) == (value, error)
                assert f"K={K!r}: level {TANHSINH_MAX_LEVEL}" in str(h)
        for (p, K), h in list(zip(self.CELLS, got))[::10]:
            assert sphere.vertical_radius(p, K) == h


def one(f, a, b):
    """The kernel on the single interval [a, b]: (value, error, level)."""
    return tuple(v[0] for v in tanhsinh(lambda x, d_left, d_right, rows: f(x, d_left, d_right),
                                        [a], [b]))


class TestTanhSinh:
    def test_right_endpoint_singularity(self):
        # int_0^1 dx / sqrt(1 - x) = 2, written through the distance to b
        value, err, _ = one(lambda x, d_left, d_right: 1.0 / np.sqrt(d_right), 0.0, 1.0)
        assert abs(value - 2.0) <= TANHSINH_ATOL
        assert err <= TANHSINH_ATOL

    def test_singularities_at_both_endpoints(self):
        # int_0^1 dx / sqrt(x (1 - x)) = pi
        value, err, _ = one(lambda x, d_left, d_right: 1.0 / np.sqrt(d_left * d_right), 0.0, 1.0)
        assert abs(value - math.pi) <= TANHSINH_ATOL
        assert err <= TANHSINH_ATOL

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
    def test_rejects_empty_or_reversed_interval(self, a, b):
        with pytest.raises(ValueError, match="need a < b"):
            tanhsinh(lambda x, d_left, d_right, rows: np.ones_like(x), [0.0, a], [1.0, b])

    def test_divergent_integral_returns_its_best_value_unconverged(self):
        # int_0^1 dx / x diverges: level doubling never settles
        value, err, level = one(lambda x, d_left, d_right: 1.0 / d_left, 0.0, 1.0)
        assert level == TANHSINH_MAX_LEVEL
        assert math.isfinite(value)
        assert math.isfinite(err) and err > TANHSINH_ATOL

    def test_unequal_spans_match_the_one_interval_rule(self):
        # spans over nine decades give the rows of a level different node
        # counts: each must still be summed over its own count only
        b = np.logspace(-6.0, 3.0, 10)

        def f(x, d_left, d_right):
            return np.exp(-x) / np.sqrt(d_right)

        values, errors, _ = tanhsinh(lambda x, d_left, d_right, rows: f(x, d_left, d_right),
                                     np.zeros(len(b)), b)
        for value, error, bi in zip(values, errors, b):
            assert (value, error) == scalar_tanhsinh(f, 0.0, float(bi))

    def test_cells_converge_and_drop_out_on_their_own(self):
        # the smooth cell stops early; the divergent one runs to the last level
        def f(x, d_left, d_right, rows):
            return np.where(rows[:, None] == 0, 1.0, 1.0 / d_left)

        values, errors, levels = tanhsinh(f, [0.0, 0.0], [1.0, 1.0])
        assert values[0] == pytest.approx(1.0, abs=TANHSINH_ATOL) and errors[0] <= TANHSINH_ATOL
        assert levels[0] < levels[1] == TANHSINH_MAX_LEVEL and errors[1] > TANHSINH_ATOL


class TestCumulativeGauss:
    @pytest.fixture
    def poly(self, rng):
        # degree 31: the highest a 16-node Gauss-Legendre panel integrates exactly
        return np.polynomial.Polynomial(rng.uniform(-1.0, 1.0, 32))

    def test_exact_on_degree_31_polynomial(self, poly):
        a, b = -0.5, 1.5
        cg = CumulativeGauss(poly, a, b, 4)
        antiderivative = poly.integ(lbnd=a)
        x = np.linspace(a, b, 41)
        scale = np.max(np.abs(poly(x)))
        assert np.all(np.abs(cg.value(x) - antiderivative(x)) <= 1e-13 * scale)
        assert cg.total == pytest.approx(antiderivative(b), rel=1e-13)

    def test_endpoints(self, poly):
        cg = CumulativeGauss(poly, -0.5, 1.5, 4)
        assert cg.value(-0.5) == 0.0
        assert cg.value(1.5) == pytest.approx(cg.total, rel=1e-14)

    def test_scalar_in_float_out_array_in_array_out(self, poly):
        cg = CumulativeGauss(poly, -0.5, 1.5, 4)
        assert type(cg.value(0.3)) is float
        out = cg.value(np.array([0.3, 0.7]))
        assert isinstance(out, np.ndarray) and out.shape == (2,)
        assert out[0] == cg.value(0.3)
