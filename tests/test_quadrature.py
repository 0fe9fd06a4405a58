import math

import numpy as np
import pytest

from berger_cgc.errors import AccuracyError
from berger_cgc.quadrature import TANHSINH_ATOL, CumulativeGauss, tanhsinh


class TestTanhSinh:
    def test_right_endpoint_singularity(self):
        # int_0^1 dx / sqrt(1 - x) = 2, written through the distance to b
        value, err = tanhsinh(lambda x, d_left, d_right: 1.0 / np.sqrt(d_right), 0.0, 1.0)
        assert abs(value - 2.0) <= TANHSINH_ATOL
        assert err <= TANHSINH_ATOL

    def test_singularities_at_both_endpoints(self):
        # int_0^1 dx / sqrt(x (1 - x)) = pi
        value, err = tanhsinh(
            lambda x, d_left, d_right: 1.0 / np.sqrt(d_left * d_right), 0.0, 1.0)
        assert abs(value - math.pi) <= TANHSINH_ATOL
        assert err <= TANHSINH_ATOL

    @pytest.mark.parametrize("a, b", [(1.0, 1.0), (1.0, 0.0)])
    def test_rejects_empty_or_reversed_interval(self, a, b):
        with pytest.raises(ValueError, match="need a < b"):
            tanhsinh(lambda x, d_left, d_right: np.ones_like(x), a, b)

    def test_divergent_integral_raises_with_its_best_value(self):
        # int_0^1 dx / x diverges: level doubling never settles
        with pytest.raises(AccuracyError, match="did not reach") as info:
            tanhsinh(lambda x, d_left, d_right: 1.0 / d_left, 0.0, 1.0)
        assert math.isfinite(info.value.achieved)
        assert math.isfinite(info.value.error) and info.value.error > TANHSINH_ATOL


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
