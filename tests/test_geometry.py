import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from berger_cgc import (
    AmbientPoint,
    DomainError,
    hopf_project,
    make_params,
    metric,
    sectional_curvature,
)
from berger_cgc.geometry import fiber_direction, tangent_projection

from conftest import random_ambient_point, random_tangent


class TestParams:
    def test_round_sphere(self):
        p = make_params(1.0)
        assert p.lam == 0.0
        assert p.k0 == 1.0
        assert p.kp == 1.0

    def test_tau_three_quarters(self):
        # lam = 7/16, k0 = kp = 37/16; all values are dyadic, so exact
        p = make_params(0.75)
        assert p.lam == float(Fraction(7, 16))
        assert p.k0 == float(Fraction(37, 16)) == 2.3125
        assert p.kp == 2.3125

    def test_tau_two(self):
        p = make_params(2.0)
        assert p.lam == -3.0
        assert p.k0 == 0.25
        assert p.kp == 4.0

    @pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan, 1e300, 1e-200])
    def test_rejects_bad_tau(self, bad):
        with pytest.raises(DomainError):
            make_params(bad)

    def test_tau_range_ends_where_tau_squared_or_its_inverse_is_subnormal(self):
        # tau = 2^-511 gives tau^2 = 2^-1022, and tau = 2^511 gives
        # 1/tau^2 = 2^-1022: the least normal float.  One ulp outward is rejected.
        for edge, outward in ((2.0**-511, 0.0), (2.0**511, math.inf)):
            p = make_params(edge)
            assert 0.0 < p.k0 <= p.kp < math.inf
            with pytest.raises(DomainError):
                make_params(math.nextafter(edge, outward))

    def test_threshold_order(self):
        for tau in np.linspace(0.05, 3.0, 121):
            p = make_params(float(tau))
            assert p.lam == 1.0 - tau * tau
            assert p.k0 <= p.kp
            if tau <= 1.0:
                assert p.k0 == p.kp
            else:
                assert p.k0 < p.kp


class TestAmbientTypes:
    def test_point_must_be_unit(self):
        with pytest.raises(DomainError):
            AmbientPoint(1.0 + 0j, 0.5 + 0j)
        AmbientPoint(1.0 + 0j, 0j)  # fine

    def test_tangent_must_be_orthogonal(self):
        p, params = np.array([1.0, 0.0, 0.0, 0.0]), make_params(0.75)
        normal, tangent = np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0, 0.0])
        for u, v in ((normal, tangent), (tangent, normal)):
            with pytest.raises(DomainError):
                metric(params, p, u, v)
        metric(params, p, tangent, tangent)  # fine

    def test_projection_makes_tangents(self, rng):
        p = random_ambient_point(rng, 20)
        t = tangent_projection(p, rng.normal(size=(20, 4)))
        assert np.all(np.abs(np.sum(t * p, axis=-1)) <= 1e-10)


class TestMetric:
    def test_round_metric_is_euclidean(self, rng):
        p1 = make_params(1.0)
        base = random_ambient_point(rng, 10)
        u = random_tangent(rng, base)
        v = random_tangent(rng, base)
        assert metric(p1, base, u, v) == pytest.approx(np.sum(u * v, axis=-1), abs=1e-14)

    def test_fiber_norm_is_tau_squared(self, params, rng):
        p = random_ambient_point(rng, 10)
        V = fiber_direction(p)
        assert metric(params, p, V, V) == pytest.approx(np.full(10, params.tau**2), abs=1e-12)

    def test_unit_killing_field(self, params, rng):
        # xi = V / tau has unit length in the Berger metric
        p = random_ambient_point(rng, 10)
        xi = fiber_direction(p) / params.tau
        assert np.all(np.abs(metric(params, p, xi, xi) - 1.0) <= 1e-12)

    def test_orthogonal_to_fiber(self, params, rng):
        p = random_ambient_point(rng, 10)
        V = fiber_direction(p)
        w = rng.normal(size=(10, 4))
        u = tangent_projection(p, w - np.sum(w * V, axis=-1, keepdims=True) * V)
        assert np.all(np.abs(metric(params, p, u, V)) <= 1e-12)

    def test_bilinear_symmetric_positive(self, params, rng):
        p = random_ambient_point(rng, 50)
        u = random_tangent(rng, p)
        v = random_tangent(rng, p)
        a, b = rng.normal(size=(2, 50, 1))
        assert metric(params, p, u, v) == pytest.approx(metric(params, p, v, u), abs=1e-14)
        assert metric(params, p, a * u + b * v, v) == pytest.approx(
            a[:, 0] * metric(params, p, u, v) + b[:, 0] * metric(params, p, v, v), abs=1e-12
        )
        long = np.linalg.norm(u, axis=-1) > 1e-8
        assert np.all(metric(params, p, u, u)[long] > 0.0)

    def test_mismatched_base_points(self):
        # one base array for both vectors: a vector from the tangent space of
        # another point is refused where it is not tangent at the base
        p = make_params(0.75)
        b1 = np.array([1.0, 0.0, 0.0, 0.0])
        u = np.array([0.0, 1.0, 0.0, 0.0])  # tangent at b1
        v = np.array([1.0, 0.0, 0.0, 0.0])  # tangent at (0, 0, 1, 0), not at b1
        with pytest.raises(DomainError):
            metric(p, b1, u, v)

    def test_batch_with_one_base_off_the_sphere(self, rng):
        params = make_params(0.75)
        p = random_ambient_point(rng, 8)
        u = random_tangent(rng, p)
        metric(params, p, u, u)  # fine
        for bad in (1.0 + 1e-9, math.nan):
            q = p.copy()
            q[5] *= bad
            with pytest.raises(DomainError, match="off the unit sphere"):
                metric(params, q, u, u)

    def test_batch_with_one_vector_not_tangent(self, rng):
        params = make_params(0.75)
        p = random_ambient_point(rng, 8)
        u = random_tangent(rng, p)
        w = u.copy()
        w[3] += 1e-9 * p[3]  # <w, p> = 1e-9 on row 3 only
        for args in ((w, u), (u, w)):
            with pytest.raises(DomainError, match="not tangent"):
                metric(params, p, *args)


class TestHopf:
    def test_axis_point(self):
        assert np.allclose(hopf_project([1.0, 0.0, 0.0, 0.0]), [0, 0, 0.5])

    def test_image_radius_exact_rational(self):
        # |z w_bar|^2 + (|z|^2 - |w|^2)^2 / 4 = 1/4, checked in exact arithmetic
        # on rational sphere points.
        cases = [
            ((Fraction(3, 5), Fraction(0)), (Fraction(4, 5), Fraction(0))),
            ((Fraction(3, 13), Fraction(4, 13)), (Fraction(12, 13), Fraction(0))),
            ((Fraction(1, 3), Fraction(2, 3)), (Fraction(2, 3), Fraction(0))),
            ((Fraction(8, 17), Fraction(0)), (Fraction(15, 17), Fraction(0))),
        ]
        for (za, zb), (wa, wb) in cases:
            assert za * za + zb * zb + wa * wa + wb * wb == 1
            # z w_bar = (za + i zb)(wa - i wb)
            re = za * wa + zb * wb
            im = zb * wa - za * wb
            third = (za * za + zb * zb - wa * wa - wb * wb) / 2
            assert re * re + im * im + third * third == Fraction(1, 4)

    def test_image_radius_numeric(self, rng):
        radii = np.linalg.norm(hopf_project(random_ambient_point(rng, 50)), axis=-1)
        assert radii == pytest.approx(np.full(50, 0.5), abs=1e-12)

    def test_fiber_invariance(self, rng):
        # e^{i th} (z, w) = cos(th) (z, w) + sin(th) (iz, iw)
        p = random_ambient_point(rng, 100)
        th = rng.uniform(0, 2 * math.pi, size=(100, 1))
        q = np.cos(th) * p + np.sin(th) * fiber_direction(p)
        assert np.max(np.abs(hopf_project(p) - hopf_project(q))) <= 1e-12


class TestSectionalCurvature:
    def test_values(self):
        p = make_params(0.75)
        assert sectional_curvature(p, 0.0) == pytest.approx(0.75**2, abs=1e-15)
        assert sectional_curvature(p, 1.0) == pytest.approx(4 - 3 * 0.75**2, abs=1e-15)
        assert sectional_curvature(p, -1.0) == sectional_curvature(p, 1.0)

    def test_round_sphere_constant(self):
        p = make_params(1.0)
        for nu in np.linspace(-1, 1, 21):
            assert sectional_curvature(p, float(nu)) == 1.0

    def test_max_is_kp(self):
        for tau in [0.3, 0.75, 0.99, 1.0, 1.5, 2.0, 2.5]:
            p = make_params(tau)
            nus = np.linspace(-1, 1, 2001)
            vals = [sectional_curvature(p, float(n)) for n in nus]
            assert max(vals) == p.kp
            if tau < 1:
                assert vals[0] == p.kp and vals[-1] == p.kp
            elif tau > 1:
                assert vals[1000] == p.kp

    def test_domain(self):
        p = make_params(2.0)
        with pytest.raises(DomainError):
            sectional_curvature(p, 1.5)


@given(
    tau=st.floats(0.05, 3.0),
    a=st.floats(-2, 2),
    b=st.floats(-2, 2),
)
@settings(max_examples=100, deadline=None)
def test_metric_symmetry_property(tau, a, b):
    p = make_params(tau)
    base = np.array([3 / 13, 4 / 13, 12 / 13, 0.0])
    V = fiber_direction(base)
    u = tangent_projection(base, np.array([a, b, 1.0, 0.25]))
    v = 0.5 * u + b * V
    assert metric(p, base, u, v) == pytest.approx(metric(p, base, v, u), abs=1e-13)
