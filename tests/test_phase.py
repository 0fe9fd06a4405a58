import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from berger_cgc import (
    CriticalPointError,
    contours,
    DomainError,
    LevelCurve,
    energy_gradient,
    energy_values,
    interior_critical_points,
    level_one_connects,
    make_params,
    sphere_exists,
    trace_level_curve,
    verify,
)
from berger_cgc.phase import BISECT_ITERS, SEED_SCAN, TRACE_TOL, _f_and_grad, _seeds


def exact_energy(lam: Fraction, K: Fraction, X: Fraction, Y: Fraction) -> Fraction:
    """Independent term-by-term rational evaluation of the energy."""
    w = 1 - lam * X
    q = 1 - 2 * lam * X
    return q * q / w * (1 - X) * Y * Y + K * w * X


def marching_squares(F, level):
    """Oracle: the crossings of ``level`` on the edges of the grid ``F`` as
    (row, col) points, and a component label for each.  Marching squares
    joins the two crossings of a cell, and pairs the four of a saddle cell
    as the value at its centre separates them."""
    above = F >= level
    cut_h = above[:, :-1] != above[:, 1:]  # edge (i, j) - (i, j + 1)
    cut_v = above[:-1, :] != above[1:, :]  # edge (i, j) - (i + 1, j)
    ids_h = np.where(cut_h, np.cumsum(cut_h).reshape(cut_h.shape) - 1, -1)
    ids_v = np.where(cut_v, cut_h.sum() + np.cumsum(cut_v).reshape(cut_v.shape) - 1, -1)
    i, j = np.nonzero(cut_h)
    points = [np.column_stack([i, j + (level - F[i, j]) / (F[i, j + 1] - F[i, j])])]
    i, j = np.nonzero(cut_v)
    points.append(np.column_stack([i + (level - F[i, j]) / (F[i + 1, j] - F[i, j]), j]))
    cell = np.stack([ids_h[:-1], ids_v[:, 1:], ids_h[1:], ids_v[:, :-1]], axis=-1)  # t r b l
    n_cut = (cell >= 0).sum(axis=-1)
    two = cell[n_cut == 2]
    saddle = cell[n_cut == 4]
    centre = (F[:-1, :-1] + F[:-1, 1:] + F[1:, :-1] + F[1:, 1:])[n_cut == 4] / 4 >= level
    with_top_left = (centre == above[:-1, :-1][n_cut == 4])[:, None]
    pairs = np.concatenate([
        two[two >= 0].reshape(-1, 2),
        np.where(with_top_left, saddle[:, [0, 1]], saddle[:, [0, 3]]),
        np.where(with_top_left, saddle[:, [2, 3]], saddle[:, [2, 1]]),
    ])
    n = cut_h.sum() + cut_v.sum()
    graph = coo_matrix((np.ones(len(pairs)), (pairs[:, 0], pairs[:, 1])), shape=(n, n))
    return np.concatenate(points), connected_components(graph, directed=False)[1]


class TestEnergyValue:
    def test_corner_values(self):
        for tau in [0.5, 0.75, 1.0, 2.0]:
            p = make_params(tau)
            for K in [0.3, 1.0, 5.0]:
                assert energy_values(p, K, 0.0, 1.0) == pytest.approx(1.0, abs=1e-15)
                assert energy_values(p, K, 0.0, -1.0) == pytest.approx(1.0, abs=1e-15)

    def test_far_edge(self):
        p = make_params(0.75)
        for K in [0.5, 2.0]:
            for Y in np.linspace(-1, 1, 7):
                assert energy_values(p, K, 1.0, float(Y)) == pytest.approx(
                    K * (1 - p.lam), abs=1e-14
                )

    def test_exact_rational_point(self):
        # lam = 0, K = 4 at (1/2, 0): rational oracle gives exactly 2
        assert exact_energy(Fraction(0), Fraction(4), Fraction(1, 2), Fraction(0)) == 2
        p = make_params(1.0)
        assert energy_values(p, 4.0, 0.5, 0.0) == 2.0

    def test_matches_rational_oracle_on_dyadics(self):
        # dyadic inputs are exact in binary, so the float evaluation must
        # agree with exact arithmetic to double rounding
        lam = Fraction(7, 16)
        p = make_params(0.75)
        for X in [Fraction(1, 4), Fraction(3, 8), Fraction(7, 8)]:
            for Y in [Fraction(-1, 2), Fraction(1, 4), Fraction(1)]:
                want = exact_energy(lam, Fraction(3), X, Y)
                got = energy_values(p, 3.0, float(X), float(Y))
                assert got == pytest.approx(float(want), rel=1e-15)

    def test_evenness_in_Y(self, rng):
        for tau in [0.5, 1.0, 2.0]:
            p = make_params(tau)
            for _ in range(100):
                X = rng.uniform(0, 1)
                Y = rng.uniform(0, 1)
                d = energy_values(p, 2.0, X, Y) - energy_values(p, 2.0, X, -Y)
                assert abs(d) <= 1e-14

    def test_rectangle_validation(self):
        # each start lies on its own level, so only the rectangle rejects it
        p = make_params(0.75)
        for X, Y in [(-0.1, 0.0), (0.5, 1.2)]:
            with pytest.raises(DomainError, match="outside"):
                trace_level_curve(p, 3.0, energy_values(p, 3.0, X, Y), (X, Y), 1)


class TestBoundaryIdentities:
    def test_identities_on_grids(self):
        assert verify.boundary_identities()["worst"] <= 1e-12

    def test_case_a_edge_inequality(self):
        # K >= k0 with 0 <= lam <= 1/2 forces F(X, +-1) >= 1 on [0, 1]
        X = np.linspace(0, 1, 10000)
        for tau in [0.72, 0.8, 0.9, 1.0]:
            p = make_params(tau)
            assert 0 <= p.lam <= 0.5
            for K in [p.k0, p.k0 + 0.5, p.k0 + 3]:
                F = energy_values(p, K, X, 1.0)
                assert np.min(F) >= 1.0 - 1e-12

    def test_case_a_subrectangle_inequality(self):
        # for lam > 1/2 the same holds on [0, 1/(2 lam)]
        for tau in [0.3, 0.5, 0.7]:
            p = make_params(tau)
            assert p.lam > 0.5
            X = np.linspace(0, 1 / (2 * p.lam), 10000)
            for K in [p.k0, p.k0 + 1]:
                assert np.min(energy_values(p, K, X, 1.0)) >= 1.0 - 1e-12
                assert K / (4 * p.lam) >= 1.0 - 1e-12

    def test_case_b_edge_inequality(self):
        X = np.linspace(0, 1, 10000)
        for tau in [1.2, 1.5, 2.0, 2.5]:
            p = make_params(tau)
            assert p.lam < 0
            for K in [p.k0, p.k0 + 0.3, p.k0 + 2]:
                assert np.min(energy_values(p, K, X, -1.0)) >= 1.0 - 1e-12


class TestGradient:
    def test_corner_gradient(self):
        for tau in [0.5, 0.75, 1.0, 2.0]:
            p = make_params(tau)
            for K in [0.5, 2.0, 5.0]:
                gx, gy = energy_gradient(p, K, 0.0, 1.0)
                assert gx == pytest.approx(K - (4 - 3 * tau * tau), abs=1e-13)
                assert gy == pytest.approx(2.0, abs=1e-15)

    def test_y_zero_axis(self, rng):
        p = make_params(0.6)
        for _ in range(20):
            _, gy = energy_gradient(p, 2.0, rng.uniform(0, 1), 0.0)
            assert gy == 0.0

    def test_finite_difference_oracle(self, rng):
        eps = 1e-6
        for _ in range(200):
            tau = rng.uniform(0.2, 2.5)
            K = rng.uniform(0.1, 6.0)
            p = make_params(tau)
            X = rng.uniform(2 * eps, 1 - 2 * eps)
            Y = rng.uniform(-1 + 2 * eps, 1 - 2 * eps)
            gx, gy = energy_gradient(p, K, X, Y)
            fdx = (
                energy_values(p, K, X + eps, Y)
                - energy_values(p, K, X - eps, Y)
            ) / (2 * eps)
            fdy = (
                energy_values(p, K, X, Y + eps)
                - energy_values(p, K, X, Y - eps)
            ) / (2 * eps)
            scale = max(1.0, abs(gx), abs(gy))
            assert abs(gx - fdx) <= 1e-6 * scale
            assert abs(gy - fdy) <= 1e-6 * scale


class TestCriticalPoints:
    def test_small_lambda_empty(self):
        assert interior_critical_points(make_params(0.75), 3.0) == []
        assert interior_critical_points(make_params(1.0), 2.0) == []
        assert interior_critical_points(make_params(2.0), 0.5) == []

    def test_large_lambda_segment(self):
        p = make_params(0.5)  # lam = 3/4
        xs = interior_critical_points(p, 1.0)
        assert len(xs) == 1
        assert xs[0] == pytest.approx(2.0 / 3.0, abs=1e-15)
        # the gradient really vanishes along the whole segment
        for Y in np.linspace(-0.9, 0.9, 7):
            gx, gy = energy_gradient(p, 1.0, xs[0], float(Y))
            assert abs(gx) <= 1e-13 and abs(gy) <= 1e-13

    def test_k_zero_degenerate(self):
        with pytest.raises(DomainError):
            interior_critical_points(make_params(0.5), 0.0)


class TestSphereExists:
    def test_threshold_inclusive(self):
        p = make_params(0.75)
        assert sphere_exists(p, 2.3125)
        assert not sphere_exists(p, 2.31)
        assert sphere_exists(p, 3.0)

    def test_tau_two(self):
        p = make_params(2.0)
        assert sphere_exists(p, 0.25)
        assert not sphere_exists(p, 0.249)

    def test_k_zero_goes_to_tori(self):
        # completeness with K = 0 belongs to the Clifford tori, never spheres
        for tau in [0.5, 1.0, 2.0]:
            assert not sphere_exists(make_params(tau), 0.0)


class TestTracing:
    def test_sphere_curve_connects(self):
        p = make_params(0.75)
        c = trace_level_curve(p, 3.0, 1.0, (0.0, 1.0), 1)
        assert not c.closed
        assert tuple(c.points[0]) == (0.0, 1.0)
        assert tuple(c.points[-1]) == (0.0, -1.0)
        # every traced point sits on the level
        pts = c.points
        vals = energy_values(p, 3.0, pts[:, 0], pts[:, 1])
        assert np.max(np.abs(vals - 1.0)) <= TRACE_TOL
        # consecutive points stay within the tracing step bound
        steps = np.hypot(*np.diff(pts, axis=0).T)
        assert steps.max() <= 8e-3 + 1e-12

    def test_below_threshold_does_not_connect(self):
        p = make_params(0.75)
        c = trace_level_curve(p, 2.0, 1.0, (0.0, 1.0), 1)
        X, Y = c.points[-1]
        assert not (abs(X) <= 1e-6 and abs(Y + 1) <= 1e-6)
        # it exits through Y = 1 (or returns to the start corner)
        assert Y == pytest.approx(1.0, abs=1e-6)

    def test_tau_two_connects(self):
        p = make_params(2.0)
        c = trace_level_curve(p, 0.3, 1.0, (0.0, 1.0), 1)
        assert tuple(c.points[-1]) == (0.0, -1.0)

    def test_connectivity_helper(self):
        assert level_one_connects(make_params(0.75), 3.0)
        assert not level_one_connects(make_params(0.75), 2.0)
        assert level_one_connects(make_params(2.0), 0.3)
        assert not level_one_connects(make_params(2.0), 0.2)

    def test_threshold_edge_curve_tau_greater_one(self):
        # at tau > 1, K = k0 the level-1 set meets the far edge at its
        # critical points (1, +-sqrt(K(1-lam)/(1-2lam))); the trace stops
        # there (boundary arrival or critical-point abort are both valid)
        p = make_params(2.0)
        try:
            end = trace_level_curve(p, 0.25, 1.0, (0.0, 1.0), 1).points[-1]
        except CriticalPointError as exc:
            end = exc.partial.points[-1]
        assert end[0] == pytest.approx(1.0, abs=1e-3)
        assert abs(end[1]) == pytest.approx(1 / math.sqrt(7), abs=1e-3)

    def test_start_not_on_level(self):
        p = make_params(0.75)
        with pytest.raises(DomainError):
            trace_level_curve(p, 3.0, 1.0, (0.5, 0.5), 1)

    def test_start_at_critical_point(self):
        p = make_params(0.5)  # lam = 3/4, segment X = 2/3
        K = 3.6
        level = K / (4 * p.lam)
        with pytest.raises(DomainError):
            trace_level_curve(p, K, level, (2.0 / 3.0, 0.3), 1)

    def test_direction_validation(self):
        p = make_params(0.75)
        with pytest.raises(DomainError):
            trace_level_curve(p, 3.0, 1.0, (0.0, 1.0), 2)

    def test_points_are_a_read_only_array(self):
        c = trace_level_curve(make_params(2.0), 0.3, 1.0, (0.0, 1.0), 1)
        assert c.points.dtype == float and c.points.ndim == 2 and c.points.shape[1] == 2
        assert len(c.points) > 2
        with pytest.raises(ValueError):
            c.points[0, 0] = 0.5

    def test_point_outside_rectangle_rejected(self):
        LevelCurve(1.0, False, [(0.0, 1.0), (1.0, -1.0)])  # corners are inside
        for bad in [(-1e-9, 0.0), (1.0 + 1e-9, 0.0), (0.5, 1.0 + 1e-9), (0.5, math.nan)]:
            with pytest.raises(DomainError, match="outside"):
                LevelCurve(1.0, False, [(0.0, 1.0), bad])
        with pytest.raises(DomainError, match=r"\(N, 2\)"):
            LevelCurve(1.0, False, [(0.0, 1.0, 0.0), (0.5, 0.5, 0.0)])

    def test_marching_squares_oracle(self):
        # independent connectivity oracle on a dense grid
        find_contours = pytest.importorskip("skimage.measure").find_contours
        n = 2000
        X, Y = np.meshgrid(np.linspace(0, 1, n), np.linspace(-1, 1, n))
        for tau, K, want in [(2.0, 0.3, True), (2.0, 0.2, False), (0.75, 3.0, True)]:
            p = make_params(tau)
            F = energy_values(p, K, X, Y)
            found = find_contours(F, 1.0)

            def near(c, Xt, Yt, tol=3e-3):
                Xv = c[:, 1] / (n - 1)
                Yv = c[:, 0] / (n - 1) * 2 - 1
                return np.any((np.abs(Xv - Xt) < tol) & (np.abs(Yv - Yt) < tol))

            connected = any(near(c, 0, 1) and near(c, 0, -1) for c in found)
            assert connected == want == level_one_connects(p, K)

    def test_numpy_marching_squares_oracle(self):
        # the same connectivity oracle with no skimage: some traced level-1
        # component holds crossings near both (0, 1) and (0, -1)
        n = 1001
        X, Y = np.meshgrid(np.linspace(0, 1, n), np.linspace(-1, 1, n))
        cells = [(2.0, 0.3), (2.0, 0.2), (0.75, 3.0)]
        for tau in (0.6, 1.0, 1.7):  # both sides of k0 for tau < 1, = 1, > 1
            k0 = make_params(tau).k0
            cells += [(tau, 0.95 * k0), (tau, 1.05 * k0)]
        for tau, K in cells:
            p = make_params(tau)
            points, label = marching_squares(energy_values(p, K, X, Y), 1.0)
            Xv, Yv = points[:, 1] / (n - 1), points[:, 0] / (n - 1) * 2 - 1

            def near(Yt, tol=3e-3):
                return set(label[(np.abs(Xv) < tol) & (np.abs(Yv - Yt) < tol)])

            assert near(1.0) and near(-1.0), (tau, K)
            connected = bool(near(1.0) & near(-1.0))
            assert connected == (K > p.k0) == level_one_connects(p, K), (tau, K)

    def test_sublevel_label_oracle(self):
        # independent connectivity oracle that needs only scipy: level 1
        # connects (0, 1) to (0, -1) exactly when the component of {F < 1}
        # holding (0, 0) touches neither X = 1 nor Y = +-1
        n = 1001
        X, Y = np.meshgrid(np.linspace(0, 1, n), np.linspace(-1, 1, n))
        cells = [(2.0, 0.3), (2.0, 0.2), (0.75, 3.0)]  # the marching-squares cells
        for tau in (0.6, 1.0, 1.7):  # both sides of k0 for tau < 1, = 1, > 1
            k0 = make_params(tau).k0
            cells += [(tau, 0.95 * k0), (tau, 1.05 * k0)]
        for tau, K in cells:
            p = make_params(tau)
            labels, _ = ndimage.label(energy_values(p, K, X, Y) < 1.0)
            origin = labels[n // 2, 0]
            assert origin, "(0, 0) lies in {F < 1}"
            edges = np.concatenate([labels[0, :], labels[-1, :], labels[:, -1]])
            connected = origin not in edges
            want = K > p.k0
            assert connected == want == level_one_connects(p, K) == sphere_exists(p, K), (tau, K)


def scalar_seeds(params, K, level):
    """Oracle: the seeds of one level, each crossing bisected on its own
    through scalar calls of the energy (the loop ``contours`` batches)."""

    def bisect(f, a, b, fa):
        for _ in range(BISECT_ITERS):
            m = 0.5 * (a + b)
            fm = f(m)
            if fm == 0.0:
                return m
            if (fm > 0.0) == (fa > 0.0):
                a, fa = m, fm
            else:
                b = m
        return 0.5 * (a + b)

    seeds = []
    t = np.linspace(0.0, 1.0, SEED_SCAN)

    def scan(pts_x, pts_y, make_point):
        F = energy_values(params, K, pts_x, pts_y) - level
        sign = np.sign(F)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            g = lambda v: float(energy_values(params, K, *make_point(v)) - level)
            seeds.append(make_point(bisect(g, t[i], t[i + 1], float(F[i]))))

    scan(np.zeros_like(t), 2.0 * t - 1.0, lambda v: (0.0, 2.0 * v - 1.0))
    scan(np.ones_like(t), 2.0 * t - 1.0, lambda v: (1.0, 2.0 * v - 1.0))
    scan(t, np.full_like(t, -1.0), lambda v: (v, -1.0))
    scan(t, np.ones_like(t), lambda v: (v, 1.0))
    scan(t, np.zeros_like(t), lambda v: (v, 0.0))
    return seeds


def portrait_levels(params, K):
    """The automatic levels of ``berger-cgc phase`` on a coarse grid."""
    X, Y = np.meshgrid(np.linspace(0, 1, 41), np.linspace(-1, 1, 41))
    F = energy_values(params, K, X, Y)
    return sorted(set(np.round(np.linspace(F.min(), F.max(), 13)[1:-1], 6).tolist()) | {1.0})


#: (tau, K / k0): tau below, at and above 1, K below, at and above k0
PORTRAIT_CELLS = [(tau, r) for tau in (0.3, 0.6, 1.0, 2.0, 5.0) for r in (0.5, 1.0, 1.001, 3.0)]


class TestContours:
    def test_array_seeds_equal_the_scalar_bisection_bit_for_bit(self):
        compared = 0
        for tau, ratio in PORTRAIT_CELLS:
            p = make_params(tau)
            K = ratio * p.k0
            levels = portrait_levels(p, K) + [0.0, -1.0, 0.5 * K]
            which, X, Y = _seeds(p, K, levels)
            for k, level in enumerate(levels):
                got = [(x.hex(), y.hex()) for x, y in zip(X[which == k].tolist(),
                                                          Y[which == k].tolist())]
                want = [(float(x).hex(), float(y).hex()) for x, y in scalar_seeds(p, K, level)]
                assert got == want, (tau, K, level)
                compared += len(want)
        assert compared > 500

    def test_every_point_lies_on_its_level(self):
        # measured with the tracer's own evaluation of F; the one exception
        # is an end on the edge X = 1, where F is the constant K (1 - lam)
        # and the tracer keeps the exit crossing as it is
        for tau, ratio in PORTRAIT_CELLS:
            p = make_params(tau)
            K = ratio * p.k0
            levels = portrait_levels(p, K)
            curves = contours(p, K, levels)
            assert [c.level for c in curves] == sorted(
                (c.level for c in curves), key=levels.index)
            for c in curves:
                off = [abs(_f_and_grad(p.lam, K, x, y)[0] - c.level) for x, y in c.points.tolist()]
                ends = [0, len(off) - 1]
                inner = [v for i, v in enumerate(off) if i not in ends or c.points[i, 0] != 1.0]
                assert max(inner) <= TRACE_TOL, (tau, K, c.level)

    def test_level_one_connects_the_corners_above_k0(self):
        for tau in (0.75, 2.0):
            p = make_params(tau)
            (curve,) = contours(p, 1.5 * p.k0, [1.0])
            ends = {tuple(curve.points[0]), tuple(curve.points[-1])}
            assert ends == {(0.0, 1.0), (0.0, -1.0)}

    def test_a_level_outside_the_range_of_F_gives_no_curve(self):
        p = make_params(0.75)
        assert contours(p, 3.0, [-5.0, 1e308]) == []


class TestConnectivityAgreesWithClosedForm:
    def test_small_grid(self):
        for tau in [0.6, 1.0, 1.7]:
            p = make_params(tau)
            for K in [0.2, 0.8, 1.5, 3.0, 5.0]:
                if abs(K - p.k0) < 1e-3:
                    continue
                assert level_one_connects(p, K) == sphere_exists(p, K)


@given(
    tau=st.floats(0.1, 2.8),
    K=st.floats(0.05, 6.0),
    X=st.floats(0.0, 1.0),
    Y=st.floats(0.0, 1.0),
)
@settings(max_examples=200, deadline=None)
def test_evenness_property(tau, K, X, Y):
    p = make_params(tau)
    a = energy_values(p, K, X, Y)
    b = energy_values(p, K, X, -Y)
    assert a == b


@given(tau=st.floats(0.1, 2.8), K=st.floats(0.05, 6.0), Y=st.floats(-1.0, 1.0))
@settings(max_examples=200, deadline=None)
def test_edge_values_property(tau, K, Y):
    p = make_params(tau)
    assert energy_values(p, K, 0.0, Y) == pytest.approx(Y * Y, abs=1e-12)
    assert energy_values(p, K, 1.0, Y) == pytest.approx(
        K * (1 - p.lam), rel=1e-12, abs=1e-12
    )
