import io
import math
from fractions import Fraction

import numpy as np
import pytest

from berger_cgc import (
    AccuracyError,
    BracketError,
    DomainError,
    EmbeddednessBoundaryError,
    NoSphereError,
    build_mesh,
    build_sphere,
    build_torus_mesh,
    clifford_solution,
    embeddedness_boundary,
    embedding,
    horizontal_radius,
    is_embedded,
    make_params,
    sin2_horizontal_radius,
    verify,
    vertical_radius,
)
from berger_cgc.profile import frobenius_residual
from berger_cgc.sphere import (
    SurfaceMesh,
    _HalfProfile,
    embeddedness_boundaries,
    stereographic,
    vertical_radii,
    write_obj,
)

# vertical radii computed independently with 40-digit arithmetic
H_ORACLE = {
    (0.1, 5.0): 3.256905184440012212641381351949511504907,
    (0.2, 5.0): 1.669313862541398242519469515432387207785,
    (0.75, 3.0): 0.6595339055633527424671241442047009845982,
    (0.5, 4.0): 0.7538056166396462394134511262666252385752,
    (2.0, 0.5): 2.00228954636544849204156514065326204808,
    (1.0, 2.0): 0.7853981633974483096156608458198757210493,
}
SIN2R_34_3 = 0.40514602929382535520394944766049531222
TAU_STAR_K5 = 0.1037393382655014017729148019469888998079


class TestHorizontalRadius:
    def test_round_case_quarter(self):
        p = make_params(1.0)
        assert sin2_horizontal_radius(p, 4.0) == 0.25
        assert horizontal_radius(p, 4.0) == pytest.approx(math.pi / 6, abs=1e-15)

    def test_pole_touching_exact(self):
        # tau = 2, K = 1/4: (1/(2 lam)) (1 - sqrt(1 - 4 lam / K)) = 1 exactly
        lam = Fraction(-3)
        K = Fraction(1, 4)
        disc = 1 - 4 * lam / K  # = 49, a perfect square
        root = Fraction(7)
        assert root * root == disc
        assert (1 - root) / (2 * lam) == 1
        p = make_params(2.0)
        assert sin2_horizontal_radius(p, 0.25) == pytest.approx(1.0, abs=1e-12)
        assert horizontal_radius(p, 0.25) == pytest.approx(math.pi / 2, abs=1e-8)

    def test_high_precision_value(self):
        p = make_params(0.75)
        assert sin2_horizontal_radius(p, 3.0) == pytest.approx(
            SIN2R_34_3, abs=1e-15
        )

    def test_matches_literal_branch_formula(self, rng):
        # conjugate form vs the literal quadratic-root expression
        for _ in range(200):
            tau = rng.uniform(0.2, 2.5)
            p = make_params(tau)
            if abs(p.lam) < 1e-12:
                continue
            K = p.k0 + rng.uniform(0.0, 4.0)
            lit = (1.0 - math.sqrt(1.0 - 4.0 * p.lam / K)) / (2.0 * p.lam)
            assert sin2_horizontal_radius(p, K) == pytest.approx(
                lit, rel=1e-12, abs=1e-12
            )

    def test_lambda_zero_continuity(self):
        tiny = make_params(math.sqrt(1.0 - 1e-10))
        assert abs(tiny.lam) <= 2e-10
        assert abs(sin2_horizontal_radius(tiny, 4.0) - 0.25) <= 1e-8

    def test_in_unit_interval_over_grid(self, rng):
        for _ in range(1000):
            tau = rng.uniform(0.1, 3.0)
            p = make_params(tau)
            K = p.k0 + rng.uniform(0.0, 6.0)
            u1 = sin2_horizontal_radius(p, K)
            assert 0.0 <= u1 <= 1.0

    def test_below_threshold_rejected(self):
        p = make_params(0.75)
        with pytest.raises(NoSphereError):
            sin2_horizontal_radius(p, 2.31)
        with pytest.raises(NoSphereError):
            vertical_radius(p, 2.0)


class TestVerticalRadius:
    @pytest.mark.parametrize("pair,want", sorted(H_ORACLE.items()))
    def test_oracle_values(self, pair, want):
        tau, K = pair
        assert vertical_radius(make_params(tau), K) == pytest.approx(want, abs=1e-12)

    def test_round_case_closed_form(self):
        # geodesic spheres of the round sphere: h = arcsin(1/sqrt(K))
        for K in [1.5, 2.0, 3.0, 5.0]:
            got = vertical_radius(make_params(1.0), K)
            assert got == pytest.approx(math.asin(1 / math.sqrt(K)), abs=1e-12)

    def test_figure_region_facts(self):
        assert vertical_radius(make_params(0.1), 5.0) > math.pi
        assert vertical_radius(make_params(0.2), 5.0) < math.pi
        assert vertical_radius(make_params(0.5), 5.0) < math.pi

    def test_monotone_in_tau(self):
        hs = [vertical_radius(make_params(t), 5.0) for t in (0.05, 0.1, 0.2, 0.3, 0.4, 0.5)]
        assert all(a > b for a, b in zip(hs, hs[1:]))

    def test_divergent_at_tau_gt_one_threshold(self):
        with pytest.raises(AccuracyError) as err:
            vertical_radius(make_params(2.0), 0.25)
        assert err.value.achieved == math.inf


class TestEmbedded:
    def test_examples(self):
        assert not is_embedded(make_params(0.1), 5.0)
        assert is_embedded(make_params(0.5), 5.0)
        assert is_embedded(make_params(1.0), 2.0)

    def test_boundary_band_is_explicit(self):
        with pytest.raises(EmbeddednessBoundaryError) as err:
            is_embedded(make_params(TAU_STAR_K5), 5.0)
        assert err.value.h == pytest.approx(math.pi, abs=1e-8)

    def test_divergent_case_not_embedded(self):
        assert not is_embedded(make_params(2.0), 0.25)


class TestEmbeddednessBoundary:
    def test_k5_root(self):
        tau_star = embeddedness_boundary(5.0, 0.1, 0.2)
        assert 0.1 < tau_star < 0.2
        assert tau_star == pytest.approx(TAU_STAR_K5, abs=1e-9)
        assert vertical_radius(make_params(tau_star), 5.0) == pytest.approx(
            math.pi, abs=1e-8
        )

    def test_scan_refinement_stability(self):
        # bracketing with a coarse scan, then with half the step, moves the
        # refined root by less than 1e-6
        def refined(step):
            taus = np.arange(0.05, 0.21, step)
            hs = [vertical_radius(make_params(float(t)), 10.0) - math.pi for t in taus]
            for a, b, fa, fb in zip(taus, taus[1:], hs, hs[1:]):
                if fa * fb < 0:
                    return embeddedness_boundary(10.0, float(a), float(b))
            raise AssertionError("no bracket found")

        assert abs(refined(0.02) - refined(0.01)) <= 1e-6

    def test_no_sign_change(self):
        with pytest.raises(BracketError):
            embeddedness_boundary(5.0, 0.3, 0.5)

    def test_lockstep_search_matches_one_slice_calls(self):
        # the searches of several K slices advanced together give each slice
        # the tau* a search of that slice alone gives; a failed search is
        # returned for its slice and leaves the others alone
        slices = [(4.5, 0.04, 0.097), (5.0, 0.097, 0.154), (8.0, 0.097, 0.154),
                  (0.3, 2.261, 2.318), (0.32, 2.09, 2.147), (5.0, 0.3, 0.5)]
        ends = [make_params(t) for _, lo, hi in slices for t in (lo, hi)]
        h = [v - math.pi for v in vertical_radii(ends, [K for K, _, _ in slices for _ in range(2)])]
        brackets = [(lo, h[2 * i], hi, h[2 * i + 1]) for i, (_, lo, hi) in enumerate(slices)]
        outcomes = embeddedness_boundaries([K for K, _, _ in slices], brackets, 1e-8)
        for (K, lo, hi), outcome in zip(slices[:-1], outcomes):
            tau_star, f_star = outcome
            assert tau_star == embeddedness_boundary(K, lo, hi, tol=1e-8)
            assert f_star == vertical_radius(make_params(tau_star), K) - math.pi
            assert abs(f_star) <= 1e-8
        assert isinstance(outcomes[-1], BracketError)


class TestBuildSphere:
    @pytest.mark.parametrize("tau,K", verify.PROFILE_CELLS)
    def test_profile_invariants(self, tau, K):
        p = make_params(tau)
        sol = build_sphere(p, K)
        s, x, y, a = sol.profile.arrays()
        n = len(s)
        assert n % 2 == 1
        mid = n // 2
        # endpoints and equator
        assert x[0] == 0.0 and a[0] == 0.0
        assert x[-1] == 0.0 and a[-1] == pytest.approx(math.pi, abs=1e-15)
        assert x[mid] == pytest.approx(sol.r, abs=1e-12)
        assert a[mid] == pytest.approx(math.pi / 2, abs=1e-12)
        assert y[mid] == 0.0
        # unit energy at every sample
        assert abs(sol.profile.energy0 - 1.0) <= 1e-14
        assert sol.profile.max_energy_drift <= 1e-8
        # y strictly increasing, mirror symmetry exact
        assert np.all(np.diff(y) > 0)
        assert np.max(np.abs(x - x[::-1])) == 0.0
        assert np.max(np.abs(y + y[::-1])) == 0.0
        assert np.max(np.abs(a + a[::-1] - math.pi)) <= 1e-15
        # vertical radius consistency: quadrature vs profile span
        assert abs(sol.h - 0.5 * (y[-1] - y[0])) <= 1e-7
        assert sol.h == pytest.approx(vertical_radius(p, K), abs=1e-7)
        assert sol.embedded == (sol.h < math.pi)

    def test_matches_round_geodesic_sphere(self):
        # independent classical oracle: profile of the K-curvature geodesic
        # sphere in the round 3-sphere is cos(x) cos(y - y_c) = cos(rho)
        sol = build_sphere(make_params(1.0), 2.0)
        rho = math.asin(1 / math.sqrt(2))
        assert sol.r == pytest.approx(rho, abs=1e-14)
        assert sol.h == pytest.approx(rho, abs=1e-12)
        assert sol.T == pytest.approx(math.pi / math.sqrt(2), abs=1e-11)
        s, x, y, a = sol.profile.arrays()
        mid = len(s) // 2
        want = -np.arccos(np.clip(np.cos(rho) / np.cos(x[: mid + 1]), -1, 1))
        assert np.max(np.abs(y[: mid + 1] - want)) <= 1e-10

    def test_spacing_control(self):
        sol = build_sphere(make_params(0.75), 3.0, spacing=1e-3)
        s, _, _, _ = sol.profile.arrays()
        step = np.diff(s)
        assert np.allclose(step, step[0])
        assert step[0] == pytest.approx(1e-3, rel=5e-3)

    def test_rejects_below_threshold(self):
        with pytest.raises(NoSphereError):
            build_sphere(make_params(0.75), 2.0)

    def test_degenerate_threshold_tau_le_one(self):
        # K = k0 with tau <= 1: closed forms stay valid; flagged, no trace gate
        p = make_params(0.75)
        sol = build_sphere(p, p.k0)
        assert sol.degenerate_threshold
        assert sol.profile.max_energy_drift <= 1e-8
        assert sol.r == pytest.approx(
            math.asin(math.sqrt(sin2_horizontal_radius(p, p.k0))), abs=1e-14
        )

    def test_degenerate_threshold_tau_gt_one_diverges(self):
        with pytest.raises(AccuracyError) as err:
            build_sphere(make_params(2.0), 0.25)
        assert err.value.achieved == math.inf

    def test_round_threshold_is_totally_geodesic(self):
        # tau = 1, K = 1: the pole-touching profile with zero fiber span
        sol = build_sphere(make_params(1.0), 1.0)
        assert sol.r == pytest.approx(math.pi / 2, abs=1e-12)
        assert sol.h == pytest.approx(0.0, abs=1e-12)
        assert sol.embedded

    def test_near_threshold_tau_gt_one_routes_agree(self):
        # just above the divergent corner h is large but finite and the
        # two routes still agree
        p = make_params(2.0)
        K = p.k0 + 1e-4
        sol = build_sphere(p, K)
        _, _, y, _ = sol.profile.arrays()
        assert sol.h > 10.0
        assert abs(0.5 * (y[-1] - y[0]) - vertical_radius(p, K)) <= 1e-7

    def test_arc_length_inversion_checks_its_residual(self, monkeypatch):
        half = _HalfProfile(make_params(0.75), 3.0)
        # the Newton steps come out 1000x too short
        monkeypatch.setattr(half, "_ds_dtheta", lambda t, f=half._ds_dtheta: 1e3 * f(t))
        with pytest.raises(AccuracyError, match="inversion residual"):
            half.theta_of_s(np.linspace(0.0, half.half_length, 65))

    def test_frobenius_residual_and_convergence(self):
        p = make_params(0.75)
        r1 = frobenius_residual(build_sphere(p, 3.0, spacing=1e-3).profile)
        r2 = frobenius_residual(build_sphere(p, 3.0, spacing=5e-4).profile)
        assert r1 <= 1e-5
        assert r1 / r2 >= 3.0  # second-order convergence

    def test_ode_route_cross_check(self):
        # launch the profile ODE from the axis and compare its equator
        # crossing against the level-set construction
        from scipy.interpolate import CubicSpline
        from scipy.optimize import brentq

        from berger_cgc import axis_seed, integrate

        p = make_params(0.75)
        K = 3.0
        sol = build_sphere(p, K)
        traj = integrate(p, K, axis_seed(p, K), s_max=1.2, n_samples=2001)
        s, x, y, a = traj.arrays()
        spl_a = CubicSpline(s, a)
        s_mid = brentq(lambda t: spl_a(t) - math.pi / 2, s[0], s[-1])
        assert float(CubicSpline(s, x)(s_mid)) == pytest.approx(sol.r, abs=1e-8)
        assert float(CubicSpline(s, y)(s_mid)) - y[0] == pytest.approx(
            sol.h, abs=1e-6
        )
        assert s_mid == pytest.approx(sol.T / 2, abs=1e-5)


def edge_usage(triangles):
    from collections import Counter

    directed = Counter()
    undirected = Counter()
    for tri in triangles:
        for e in ((tri[0], tri[1]), (tri[1], tri[2]), (tri[2], tri[0])):
            directed[e] += 1
            undirected[frozenset(e)] += 1
    return directed, undirected


class TestMeshes:
    def test_sphere_mesh_counts_and_topology(self):
        sol = build_sphere(make_params(0.75), 3.0, samples=128)
        mesh = build_mesh(sol, n_t=32)
        n_int = mesh.n_s
        assert len(mesh.vertices) == n_int * 32 + 2
        assert len(mesh.triangles) == 2 * n_int * 32
        directed, undirected = edge_usage(mesh.triangles)
        # closed oriented surface: every directed edge exactly once
        assert set(directed.values()) == {1}
        assert set(undirected.values()) == {2}
        V = len(mesh.vertices)
        E = len(undirected)
        F = len(mesh.triangles)
        assert V - E + F == 2

    def test_sphere_mesh_vertices_on_unit_sphere(self):
        sol = build_sphere(make_params(0.5), 4.0, samples=128)
        mesh = build_mesh(sol, n_t=16)
        v = mesh.vertices
        assert v.shape == (len(v), 4)
        assert np.max(np.abs(np.sum(v * v, axis=1) - 1.0)) <= 1e-10

    def test_builders_make_no_per_sample_objects(self, monkeypatch):
        # profiles and meshes are arrays end to end
        from berger_cgc import AmbientPoint

        def refuse(obj):
            raise AssertionError(f"{type(obj).__name__} constructed")

        monkeypatch.setattr(AmbientPoint, "__post_init__", refuse)
        mesh = build_mesh(build_sphere(make_params(0.75), 3.0, samples=128), n_t=16)
        assert mesh.vertices.shape == (mesh.n_s * 16 + 2, 4)
        assert mesh.triangles.shape == (2 * mesh.n_s * 16, 3)

    def test_vertices_are_the_embedding_of_their_samples(self):
        # bit for bit: one formula home for (e^{iy} cos x, e^{it} sin x)
        sol = build_sphere(make_params(0.75), 3.0, samples=128)
        mesh = build_mesh(sol, n_t=16)
        x, y = sol.profile.x, sol.profile.y
        inner = np.sin(x) > 1e-9
        t = np.arange(16) * (2.0 * math.pi / 16)
        assert np.array_equal(mesh.vertices[:2], embedding(0.0, y[[0, -1]], 0.0))
        rings = embedding(x[inner][:, None], y[inner][:, None], t)
        assert np.array_equal(mesh.vertices[2:], rings.reshape(-1, 4))
        p = make_params(0.75)
        torus = build_torus_mesh(p, 0.6, n_s=24, n_t=12)
        traj = clifford_solution(p, 0.6, n_samples=25)  # the last sample repeats the first
        t = np.arange(12) * (2.0 * math.pi / 12)
        rings = embedding(traj.x[:-1, None], traj.y[:-1, None], t)
        assert np.array_equal(torus.vertices, rings.reshape(-1, 4))

    def test_sphere_mesh_needs_three_rings(self):
        sol = build_sphere(make_params(0.75), 3.0, samples=128)
        with pytest.raises(DomainError):
            build_mesh(sol, n_t=2)

    def test_torus_mesh_topology(self):
        mesh = build_torus_mesh(make_params(0.75), 0.6, n_s=24, n_t=12)
        assert len(mesh.vertices) == 24 * 12
        assert len(mesh.triangles) == 2 * 24 * 12
        directed, undirected = edge_usage(mesh.triangles)
        assert set(directed.values()) == {1}
        V, E, F = len(mesh.vertices), len(undirected), len(mesh.triangles)
        assert V - E + F == 0

    def test_obj_export(self):
        sol = build_sphere(make_params(0.75), 3.0, samples=128)
        mesh = build_mesh(sol, n_t=8)
        buf = io.StringIO()
        write_obj(mesh, buf, header=("tau=0.75 K=3",))
        text = buf.getvalue().splitlines()
        comments = [l for l in text if l.startswith("#")]
        assert any("tau=0.75" in l for l in comments)
        assert any("projection" in l for l in comments)
        vs = [l for l in text if l.startswith("v ")]
        fs = [l for l in text if l.startswith("f ")]
        assert len(vs) == len(mesh.vertices)
        assert len(fs) == len(mesh.triangles)
        # faces are valid 1-based indices
        for line in fs:
            idx = [int(tok) for tok in line.split()[1:]]
            assert all(1 <= i <= len(vs) for i in idx)

    def test_stereographic_guards_pole(self):
        assert np.allclose(stereographic([1.0, 0, 0, 0]), [1, 0, 0])
        with pytest.raises(DomainError):
            stereographic([0.0, 0.0, 0.0, -1.0])
        # array-wide: one pole vertex among many is refused
        with pytest.raises(DomainError):
            stereographic([[1.0, 0, 0, 0], [0.0, 0.0, 0.0, -1.0]])
        assert np.allclose(stereographic([[1.0, 0, 0, 0], [0, 0, 1.0, 0]]), [[1, 0, 0], [0, 0, 1]])

    def test_mesh_vertices_must_be_on_unit_sphere(self):
        tri = np.array([[0, 1, 2]])
        SurfaceMesh(np.eye(4)[:3], tri, 1, 3)
        for bad in (1.0 + 1e-9, math.nan):
            v = np.eye(4)[:3].copy()
            v[1, 1] = bad
            with pytest.raises(DomainError):
                SurfaceMesh(v, tri, 1, 3)
