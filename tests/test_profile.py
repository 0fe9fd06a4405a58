import math

import numpy as np
import pytest
from scipy.interpolate import CubicSpline

from berger_cgc import (
    DomainError,
    SingularityError,
    apply_symmetry,
    axis_seed,
    clifford_solution,
    embedding,
    frobenius_residual,
    fundamental_form,
    integrate,
    make_params,
    rhs,
)
from berger_cgc.geometry import metric, tangent_projection
from berger_cgc.profile import (
    Trajectory,
    alpha_bracket,
    energy,
    geodesic_sphere_solution,
    rhs_residual,
)


def bracket_oracle(params, K, x, alpha):
    """The alpha-equation bracket over a common denominator (recoded)."""
    lam = params.lam
    u = math.sin(x) ** 2
    P = 1.0 - lam * u
    R = 1.0 - 2.0 * lam * u
    c2 = math.cos(alpha) ** 2
    return (K * P * P - c2 * ((1 - lam) * R + 4 * lam * (1 - u) * P)) / (P * R)


def round_sphere_rhs(K, x, alpha):
    """Independently coded reduction for the round case (lam = 0)."""
    return (
        math.cos(alpha),
        math.sin(alpha) / math.cos(x),
        math.tan(x) / math.sin(alpha) * (K - math.cos(alpha) ** 2),
    )


class TestRhs:
    def test_clifford_fixed_point(self):
        p = make_params(0.8)
        x0 = 0.7
        dx, dy, da = rhs(p, 0.0, x0, math.pi / 2)
        rate = math.sqrt(1 - p.lam * math.sin(x0) ** 2) / (p.tau * math.cos(x0))
        assert abs(dx) <= 1e-16
        assert dy == pytest.approx(rate, rel=1e-15)
        assert abs(da) <= 1e-15

    def test_round_case_reduction(self, rng):
        p = make_params(1.0)
        for _ in range(50):
            x = rng.uniform(0.05, 1.5)
            a = rng.uniform(0.1, math.pi - 0.1)
            K = rng.uniform(0.5, 5.0)
            got = rhs(p, K, x, a)
            want = round_sphere_rhs(K, x, a)
            for g, w in zip(got, want):
                assert g == pytest.approx(w, rel=1e-13, abs=1e-13)

    def test_bracket_oracle(self, rng):
        for _ in range(100):
            tau = rng.uniform(0.3, 2.5)
            p = make_params(tau)
            K = rng.uniform(0.1, 5.0)
            x = rng.uniform(0.05, 1.5)
            a = rng.uniform(0.1, math.pi - 0.1)
            if abs(1 - 2 * p.lam * math.sin(x) ** 2) < 1e-3:
                continue
            # dalpha * sin(alpha) * cot(x) recovers the bracket
            _, _, da = rhs(p, K, x, a)
            lhs = da * math.sin(a) * math.cos(x) / math.sin(x)
            want = bracket_oracle(p, K, x, a)
            assert lhs == pytest.approx(want, rel=1e-12, abs=1e-12)
            assert alpha_bracket(p, K, x, a) == pytest.approx(
                want, rel=1e-12, abs=1e-12
            )

    def test_rejects_non_finite_or_negative_sin_x(self):
        p = make_params(0.75)
        with pytest.raises(DomainError, match="component x"):
            rhs(p, 3.0, math.nan, 1.0)
        with pytest.raises(DomainError, match="component alpha"):
            rhs(p, 3.0, 0.4, math.nan)
        with pytest.raises(DomainError, match="sin x >= 0"):
            rhs(p, 3.0, -0.4, 1.0)

    def test_singularity_guards(self):
        p = make_params(0.5)  # lam = 3/4: the ring 1 - 2 lam sin^2 x = 0 exists
        with pytest.raises(SingularityError, match="sin\\(alpha\\)"):
            rhs(p, 1.0, 0.5, 1e-9)
        with pytest.raises(SingularityError, match="cos\\(x\\)"):
            rhs(p, 1.0, math.pi / 2 - 1e-10, 1.0)
        x_ring = math.asin(math.sqrt(1.0 / (2.0 * p.lam)))
        with pytest.raises(SingularityError, match="2 lam sin"):
            rhs(p, 1.0, x_ring, 1.0)


class TestIntegrate:
    def test_clifford_fixed_point_long_run(self):
        p = make_params(0.8)
        x0 = 0.7
        traj = integrate(
            p, 0.0, (0.0, x0, 0.0, math.pi / 2), s_max=100.0
        )
        assert traj.termination == "step_limit"
        _, x, _, a = traj.arrays()
        assert np.max(np.abs(x - x0)) <= 1e-8
        assert np.max(np.abs(a - math.pi / 2)) <= 1e-8

    def test_sphere_launch_keeps_unit_energy(self):
        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=10.0)
        assert traj.max_energy_drift <= 1e-8
        assert abs(traj.energy0 - 1.0) <= 1e-8
        _, x, _, a = traj.arrays()
        assert a.max() > math.pi / 2  # passed the equator
        # terminates back near the axis (alpha-singularity guard fires in
        # the same corridor; with energy drift eps the guard can trip at
        # sin x ~ sqrt(eps / (K - k0)))
        assert traj.termination in ("boundary_axis", "singular_alpha")
        assert math.sin(x[-1]) <= 2e-4
        # realized span agrees with the sphere's total parameter length
        assert traj.states[-1, 0] == pytest.approx(1.8137993642342183, abs=1e-3)

    def test_trajectory_points_on_unit_level(self):
        from berger_cgc.phase import energy_values

        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=10.0)
        _, x, _, a = traj.arrays()
        F = energy_values(p, 3.0, np.sin(x) ** 2, np.cos(a))
        assert np.max(np.abs(F - 1.0)) <= 1e-8

    def test_pole_event(self, pole_traj):
        assert pole_traj.termination == "boundary_pole"
        assert math.sin(pole_traj.states[-1, 1]) >= 1.0 - 1e-8
        assert pole_traj.max_energy_drift <= 1e-9

    def test_energy_budget_scales_with_tolerance(self):
        p = make_params(0.75)
        for rtol in (1e-10, 1e-6):
            traj = integrate(
                p, 3.0, axis_seed(p, 3.0), s_max=1.0, rtol=rtol, atol=rtol * 1e-2
            )
            assert traj.max_energy_drift <= 100.0 * rtol

    def test_rejects_singular_start(self):
        # an exact axis state (sin alpha = 0) is on the singular locus
        p = make_params(0.75)
        with pytest.raises(SingularityError):
            integrate(p, 3.0, (0.0, 0.3, 0.0, 0.0), s_max=1.0)

    @pytest.mark.parametrize("init, match", [
        ((0.0, math.nan, 0.0, 1.0), "component x"),
        ((0.0, 0.4, 0.0, math.inf), "component alpha"),
        ((math.nan, 0.4, 0.0, 1.0), "component s"),
        ((0.0, -0.3, 0.0, 1.0), "sin x >= 0"),
        ((0.0, 0.4, 1.0), "sequence"),
        ((0.0, 0.4, 0.0, 1.0, 0.0), "sequence"),
        (None, "sequence"),
    ])
    def test_rejects_malformed_init(self, init, match):
        with pytest.raises(DomainError, match=match):
            integrate(make_params(0.75), 3.0, init, s_max=1.0)

    def test_strictly_increasing_s(self):
        p = make_params(1.0)
        traj = integrate(p, 2.0, axis_seed(p, 2.0), s_max=1.0)
        s, _, _, _ = traj.arrays()
        assert np.all(np.diff(s) > 0)


class TestSymmetries:
    @pytest.fixture
    def traj(self):
        p = make_params(0.75)
        return integrate(p, 3.0, axis_seed(p, 3.0), s_max=0.8, n_samples=201)

    def test_y_translate_preserves_residual(self, traj):
        base = rhs_residual(traj)
        out = apply_symmetry(traj, "y_translate", y0=1.5)
        assert rhs_residual(out) <= base + 1e-12

    def test_alpha_shift(self, traj):
        out = apply_symmetry(traj, "alpha_shift", k=2)
        assert abs(rhs_residual(out) - rhs_residual(traj)) <= 1e-10
        _, _, _, a0 = traj.arrays()
        _, _, _, a1 = out.arrays()
        assert np.allclose(a1 - a0, 4 * math.pi)

    def test_reflect(self, traj):
        out = apply_symmetry(traj, "reflect", y0=0.25)
        assert abs(rhs_residual(out) - rhs_residual(traj)) <= 1e-10
        _, _, y0_, a0 = traj.arrays()
        _, _, y1_, a1 = out.arrays()
        assert np.allclose(y1_, 0.5 - y0_)
        assert np.allclose(a1, -a0)

    def test_reverse_matches_backward_integration(self):
        # interior-to-interior span (the axis corner is singular, so a
        # reversed run ending there would lose digits to the guard)
        p = make_params(0.75)
        traj = integrate(
            p, 3.0, (0.0, 0.4, 0.0, 0.9), s_max=0.8, n_samples=201
        )
        assert traj.termination == "step_limit"
        s_end = traj.states[-1, 0]
        rev = apply_symmetry(traj, "reverse", s0=s_end)
        assert rev.states[0, 0] == pytest.approx(s_end)
        again = integrate(
            p, 3.0, rev.states[0], s_max=s_end - traj.states[0, 0], n_samples=201
        )
        sa, xa, ya, aa = rev.arrays()
        sb, xb, yb, ab = again.arrays()
        assert np.max(np.abs(sa - sb)) <= 1e-12
        assert np.max(np.abs(xa - xb)) <= 1e-8
        assert np.max(np.abs(ya - yb)) <= 1e-8
        assert np.max(np.abs(aa - ab)) <= 1e-8

    def test_pole_continue(self, pole_traj):
        cont = apply_symmetry(pole_traj, "pole_continue")
        assert np.allclose(cont.y - pole_traj.y, math.pi)
        assert abs(rhs_residual(cont) - rhs_residual(pole_traj)) <= 1e-12

    def test_pole_continue_requires_pole(self, traj):
        with pytest.raises(DomainError):
            apply_symmetry(traj, "pole_continue")

    def test_unknown_symmetry(self, traj):
        with pytest.raises(DomainError):
            apply_symmetry(traj, "rotate")

    def test_turning_point_reflection(self):
        # through the equator the solution is symmetric about y = y(s1)
        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=1.7, n_samples=2001)
        s, x, y, a = traj.arrays()
        spl_x = CubicSpline(s, x)
        spl_y = CubicSpline(s, y)
        spl_a = CubicSpline(s, a)
        # locate alpha = pi/2 (monotone here)
        from scipy.optimize import brentq

        s1 = brentq(lambda t: spl_a(t) - math.pi / 2, s[0], s[-1])
        assert abs(spl_x(s1, 1)) <= 1e-7  # x'(s1) = cos(alpha(s1)) = 0
        sig_max = min(s1 - s[0], s[-1] - s1) - 1e-3
        for sig in np.linspace(0.0, sig_max, 40):
            assert abs(spl_x(s1 + sig) - spl_x(s1 - sig)) <= 1e-7
            assert abs(spl_y(s1 + sig) + spl_y(s1 - sig) - 2 * spl_y(s1)) <= 1e-7


class TestConstantSolutions:
    def test_clifford_exact(self):
        p = make_params(1.0)
        traj = clifford_solution(p, math.pi / 4)
        assert traj.K == 0.0
        assert rhs_residual(traj) <= 1e-10
        assert frobenius_residual(traj) == 0.0
        assert traj.max_energy_drift <= 1e-12

    def test_clifford_general_tau(self):
        for tau in [0.5, 0.75, 2.0]:
            p = make_params(tau)
            for x0 in [0.3, 0.7, 1.2]:
                traj = clifford_solution(p, x0)
                assert rhs_residual(traj) <= 1e-9
                assert frobenius_residual(traj) == 0.0

    def test_clifford_rejects_degenerate_colatitude(self):
        p = make_params(0.75)
        for bad in [0.0, math.pi / 2, math.pi, -math.pi / 2]:
            with pytest.raises(DomainError):
                clifford_solution(p, bad)

    def test_geodesic_sphere_round_case(self):
        p = make_params(1.0)
        traj = geodesic_sphere_solution(p, y0=0.3)
        assert traj.K == 1.0
        s, x, y, a = traj.arrays()
        assert np.allclose(x, s)
        assert np.allclose(y, 0.3)
        assert np.allclose(a, 0.0)
        # the alpha-equation bracket vanishes identically, so the singular
        # prefactor tan(x)/sin(alpha) multiplies a true zero
        for xi in np.linspace(0.05, 1.5, 30):
            assert abs(alpha_bracket(p, 1.0, float(xi), 0.0)) <= 1e-15
        assert traj.max_energy_drift <= 1e-12
        # phi = sin(s): residual is pure truncation, h^2 |phi''''| / 12
        h = s[1] - s[0]
        assert frobenius_residual(traj) <= 1.2 * h * h / 12.0

    def test_geodesic_sphere_requires_round(self):
        with pytest.raises(DomainError):
            geodesic_sphere_solution(make_params(0.75))

    def test_no_other_constant_solutions(self):
        # a constant-alpha solution with cos(alpha) != 0 forces the implied
        # curvature K(x) = cos^2(a0) (4 lam^2 u^2 - 2 lam (lam+3) u + 3 lam + 1)
        # / (1 - lam u)^2 to be x-independent, which happens only at lam = 0
        def implied_K(lam, a0, x):
            u = np.sin(x) ** 2
            return (
                math.cos(a0) ** 2
                * (4 * lam**2 * u**2 - 2 * lam * (lam + 3) * u + 3 * lam + 1)
                / (1 - lam * u) ** 2
            )

        xs = np.linspace(0.1, 1.4, 200)
        for tau in [0.4, 0.6, 0.9, 1.1, 1.6, 2.2]:
            lam = 1 - tau * tau
            for a0 in [0.0, 0.4, 1.0, 2.0]:
                vals = implied_K(lam, a0, xs)
                assert vals.max() - vals.min() > 1e-3  # never constant
        # while the round case is constant for every alpha0
        for a0 in [0.0, 0.4, 1.0]:
            vals = implied_K(0.0, a0, xs)
            assert vals.max() - vals.min() <= 1e-15


class TestFundamentalForm:
    def test_axis_and_pole_values(self):
        p = make_params(0.75)
        _, _, G = fundamental_form(p, 0.0, 1.0, 0.3)
        assert G == 0.0  # on the axis
        E, _, _ = fundamental_form(p, math.pi / 2, 0.7, 0.0)
        assert E == pytest.approx(0.49, abs=1e-12)

    def test_identity_along_unit_speed_trajectory(self):
        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=1.5, n_samples=301)
        x, a = traj.x[1:-1:10], traj.alpha[1:-1:10]
        xp = np.cos(a)
        yp = np.sqrt(1 - p.lam * np.sin(x) ** 2) / (p.tau * np.cos(x)) * np.sin(a)
        E, F, G = fundamental_form(p, x, xp, yp)
        assert np.all(np.abs(E * G - F**2 - G) <= 1e-10)

    def test_embedding_on_sphere_and_axis(self):
        pt = embedding(0.0, 1.2, 0.7)
        assert pt.shape == (4,) and np.all(pt[2:] == 0.0)  # w = 0 on the axis
        pts = embedding(np.array([[0.6], [1.1]]), -0.4, np.array([2.0, 5.0, 0.1]))
        assert pts.shape == (2, 3, 4)
        assert np.all(np.abs(np.sum(pts * pts, axis=-1) - 1) <= 1e-15)

    def test_forms_match_finite_differences_of_embedding(self, rng):
        # central differences of Phi against the closed-form E, F, G
        p = make_params(0.75)
        K = 3.0
        traj = integrate(p, K, axis_seed(p, K), s_max=1.6, n_samples=4001)
        s, x, y, a = traj.arrays()
        spl_x, spl_y = CubicSpline(s, x), CubicSpline(s, y)
        h = 1e-5
        # 100 samples (s_i, t_i), drawn in the order of one uniform(s) and one
        # uniform(t) per sample
        lo, hi = s[0] + 0.05, s[-1] - 0.05
        si, t = (np.array([lo, 0.0]) + np.array([hi - lo, 2 * math.pi])
                 * rng.uniform(size=(100, 2))).T
        E, F, G = fundamental_form(p, spl_x(si), spl_x(si, 1), spl_y(si, 1))

        def phi(sv, tv):
            return embedding(spl_x(sv), spl_y(sv), tv)

        base = phi(si, t)
        u = tangent_projection(base, (phi(si + h, t) - phi(si - h, t)) / (2 * h))
        v = tangent_projection(base, (phi(si, t + h) - phi(si, t - h)) / (2 * h))
        scale = np.max(np.abs([np.ones_like(E), E, F, G]), axis=0)
        assert np.all(np.abs(metric(p, base, u, u) - E) <= 1e-6 * scale)
        assert np.all(np.abs(metric(p, base, u, v) - F) <= 1e-6 * scale)
        assert np.all(np.abs(metric(p, base, v, v) - G) <= 1e-6 * scale)


class TestFrobenius:
    def test_needs_enough_samples(self):
        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=0.5, n_samples=10)
        with pytest.raises(DomainError):
            frobenius_residual(traj)

    def test_truncation_bound(self):
        # residual at spacing h is bounded by the second-difference
        # truncation error h^2 max|phi''''| / 12 (plus rounding floor)
        from berger_cgc import build_sphere

        p = make_params(0.75)
        sol = build_sphere(p, 3.0, spacing=1e-3)
        s, x, _, _ = sol.profile.arrays()
        u = np.sin(x) ** 2
        phi = np.sqrt((1 - p.lam * u) * u)
        d4 = np.abs(np.diff(phi, 4)).max() / (s[1] - s[0]) ** 4
        bound = (s[1] - s[0]) ** 2 * d4 / 12.0
        res = frobenius_residual(sol.profile)
        assert res <= 2.0 * bound + 1e-9


class TestTrajectoryArrays:
    def test_read_only_arrays_and_states_view(self):
        traj = clifford_solution(make_params(0.75), 0.6, n_samples=33)
        for a in traj.arrays() + (traj.energy_drifts,):
            assert a.dtype == float and a.shape == (33,)
            assert not a.flags.writeable
        states = traj.states
        assert len(states) == 33 and states.shape == (33, 4)
        assert not states.flags.writeable
        assert np.array_equal(states, np.column_stack(traj.arrays()))

    def test_energy_bookkeeping_is_derived(self):
        traj = clifford_solution(make_params(0.75), 0.6, n_samples=33)
        with pytest.raises(TypeError, match="energy0"):
            Trajectory(traj.params, traj.K, *traj.arrays(), traj.termination, energy0=0.0)
        p = make_params(0.75)
        traj = integrate(p, 3.0, axis_seed(p, 3.0), s_max=1.0, n_samples=65)
        E = energy(p, 3.0, traj.x, traj.alpha)
        assert traj.energy0 == E[0]
        assert np.array_equal(traj.energy_drifts, np.abs(E - E[0]))
        assert traj.max_energy_drift == traj.energy_drifts.max()
        assert not traj.energy_drifts.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            traj.energy_drifts[0] = 1.0

    def test_mismatched_columns_rejected(self):
        s = np.linspace(0.0, 1.0, 8)
        with pytest.raises(DomainError, match="one nonzero length"):
            Trajectory(make_params(0.75), 3.0, s, s[:-1] + 0.3, s, s + 0.5, "step_limit")

    @pytest.mark.parametrize("column", ["s", "x", "y", "alpha"])
    def test_non_finite_sample_rejected(self, column):
        cols = {c: np.linspace(0.1, 0.5, 8) for c in ("s", "x", "y", "alpha")}
        cols[column][3] = math.nan
        with pytest.raises(DomainError, match=f"component {column}"):
            Trajectory(make_params(0.75), 3.0, termination="step_limit", **cols)

    def test_negative_sin_x_rejected(self):
        s = np.linspace(0.0, 1.0, 8)
        x = np.linspace(0.1, -0.1, 8)
        with pytest.raises(DomainError, match="sin x >= 0"):
            Trajectory(make_params(0.75), 3.0, s, x, s, s, "step_limit")

    def test_s_must_increase(self):
        s = np.array([0.0, 0.1, 0.1, 0.2])
        with pytest.raises(DomainError, match="strictly increasing"):
            Trajectory(make_params(0.75), 3.0, s, s + 0.3, s, s + 0.5, "step_limit")


def loop_rhs_residual(traj):
    """rhs_residual sample by sample through the guarded scalar rhs."""
    s, x, y, a = traj.arrays()
    worst = 0.0
    for i in range(1, len(s) - 1):
        try:
            rh = rhs(traj.params, traj.K, x[i], a[i])
        except SingularityError:
            continue
        fd = [(v[i + 1] - v[i - 1]) / (s[i + 1] - s[i - 1]) for v in (x, y, a)]
        worst = max(worst, *(abs(f - r) for f, r in zip(fd, rh)))
    return worst


def _through_singular_sample(tau, x, alpha):
    """101 samples whose middle one (s = 0.5) sits on a singular locus of the rhs."""
    s = np.linspace(0.0, 1.0, 101)
    return Trajectory(make_params(tau), 3.0, s, x(s - 0.5), s, alpha(s - 0.5), "step_limit")


class TestRhsResidual:
    @pytest.mark.parametrize("make_traj", [
        # sin(alpha) = 0, cos(x) = 0 and 1 - 2 lam sin^2 x = 0 at the middle sample
        lambda: _through_singular_sample(0.75, lambda t: 0.7 + 0.5 * t, lambda t: math.pi * t),
        lambda: _through_singular_sample(0.75, lambda t: math.pi / 2 + 0.5 * t, lambda t: 1 + t),
        lambda: _through_singular_sample(
            0.5, lambda t: math.asin(math.sqrt(2.0 / 3.0)) + 0.5 * t, lambda t: 1 + t),
        lambda: integrate(make_params(0.75), 3.0, axis_seed(make_params(0.75), 3.0), s_max=10.0),
        lambda: clifford_solution(make_params(2.0), 0.7),
    ], ids=["sin_alpha", "cos_x", "lam_factor", "sphere_profile", "clifford"])
    def test_matches_the_sample_loop(self, make_traj):
        # the same arithmetic on arrays: numpy's sin and cos may differ from
        # math's in the last bit, so the bound is a few hundred ulps
        traj = make_traj()
        want = loop_rhs_residual(traj)
        assert rhs_residual(traj) == pytest.approx(want, rel=512 * np.finfo(float).eps, abs=0.0)
