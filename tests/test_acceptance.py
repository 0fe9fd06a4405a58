"""Acceptance criteria, one test per criterion.

Each test prints a single pass/fail line (visible with ``pytest -s`` or in
failure reports) and enforces the stated tolerance and runtime budget.
Expected values are either exact-arithmetic constants or were computed with
independent oracles (rational arithmetic, 40-digit quadrature, classical
round-sphere geometry); nothing is copied from the implementation under
test.

Tests 02, 05, 06 and 09 hold the worst values of the ``berger_cgc.verify``
suites, which ``berger-cgc verify`` runs too, to the bounds stated here.
"""

import math
import time
from fractions import Fraction

import numpy as np
from scipy.interpolate import CubicSpline
from scipy.optimize import brentq

from berger_cgc import (
    apply_symmetry,
    axis_seed,
    build_sphere,
    clifford_solution,
    embeddedness_boundary,
    integrate,
    level_one_connects,
    make_params,
    sin2_horizontal_radius,
    sphere_exists,
    verify,
    vertical_radius,
)
from berger_cgc.geometry import embedding, metric, tangent_projection
from berger_cgc.profile import (
    alpha_bracket,
    frobenius_residual,
    fundamental_form,
    geodesic_sphere_solution,
    rhs_residual,
)


def report(num, name, ok, detail=""):
    line = f"ACCEPTANCE {num:>2} {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    print(line)
    assert ok, line


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.time()

    @property
    def elapsed(self):
        return time.time() - self.t0

    def check(self):
        assert self.elapsed < self.limit, f"runtime {self.elapsed:.1f}s over budget"


def test_01_threshold_exactness():
    budget = Budget(1.0)
    exact = {
        Fraction(1, 2): (Fraction(13, 4), Fraction(13, 4)),
        Fraction(3, 4): (Fraction(37, 16), Fraction(37, 16)),
        Fraction(1): (Fraction(1), Fraction(1)),
        Fraction(2): (Fraction(1, 4), Fraction(4)),
    }
    ok = True
    for tau, (k0, kp) in exact.items():
        # independent rational evaluation of the closed forms
        assert k0 == (4 - 3 * tau**2 if tau <= 1 else 1 / tau**2)
        assert kp == (4 - 3 * tau**2 if tau <= 1 else tau**2)
        p = make_params(float(tau))
        ok = ok and p.k0 == float(k0) and p.kp == float(kp)
    expected_k0 = [3.25, 2.3125, 1.0, 0.25]
    expected_kp = [3.25, 2.3125, 1.0, 4.0]
    got_k0 = [make_params(t).k0 for t in (0.5, 0.75, 1.0, 2.0)]
    got_kp = [make_params(t).kp for t in (0.5, 0.75, 1.0, 2.0)]
    ok = ok and got_k0 == expected_k0 and got_kp == expected_kp
    budget.check()
    report(1, "threshold exactness", ok, f"{budget.elapsed:.2f}s")


def test_02_boundary_identities():
    budget = Budget(1.0)
    worst = verify.boundary_identities()["worst"]
    budget.check()
    report(2, "boundary identities (1e-12)", worst <= 1e-12, f"worst={worst:.2e}")


def test_03_existence_classification():
    budget = Budget(30.0)
    taus = np.linspace(0.4, 2.5, 20)
    ks = np.linspace(0.1, 6.0, 20)
    checked = 0
    mismatches = []
    for tau in taus:
        p = make_params(float(tau))
        for K in ks:
            K = float(K)
            if abs(K - p.k0) < 1e-3:
                continue
            checked += 1
            if level_one_connects(p, K) != sphere_exists(p, K):
                mismatches.append((float(tau), K))
    budget.check()
    report(
        3,
        "existence classification (20x20 grid)",
        not mismatches,
        f"{checked} cells, {budget.elapsed:.1f}s, mismatches={mismatches}",
    )


def test_04_energy_conservation():
    budget = Budget(10.0)
    worst = 0.0
    for tau, K in verify.PROFILE_CELLS:
        sol = build_sphere(make_params(tau), K)
        drift = max(abs(e - 1.0) for e in
                    (sol.profile.energy0 + d for d in sol.profile.energy_drifts))
        worst = max(worst, sol.profile.max_energy_drift, drift)
    budget.check()
    report(4, "profile energy |E-1| <= 1e-8", worst <= 1e-8, f"worst={worst:.2e}")


def test_05_frobenius():
    budget = Budget(10.0)
    worst_coarse = verify.frobenius(1e-3)["worst"]
    worst_fine = verify.frobenius(5e-4)["worst"]
    # the aggregate residual is truncation-dominated and second order;
    # individual profiles with residuals ~1e-8 sit at the eps/h^2
    # rounding floor of double precision, where no scheme can keep halving
    factor = worst_coarse / worst_fine
    ok = worst_coarse <= 1e-5 and factor >= 3.0
    budget.check()
    report(
        5,
        "frobenius residual & convergence",
        ok,
        f"worst={worst_coarse:.2e}, halving factor={factor:.2f}",
    )


def test_06_route_equivalence():
    budget = Budget(10.0)
    worst = verify.route_equivalence()["worst"]
    budget.check()
    report(6, "route equivalence (1e-7)", worst <= 1e-7, f"worst={worst:.2e}")


def test_07_embeddedness_figure():
    budget = Budget(30.0)
    h1 = vertical_radius(make_params(0.1), 5.0)
    h2 = vertical_radius(make_params(0.2), 5.0)
    tau_star = embeddedness_boundary(5.0, 0.1, 0.2, tol=1e-8)
    resid = abs(vertical_radius(make_params(tau_star), 5.0) - math.pi)
    ok = h1 > math.pi and h2 < math.pi and 0.1 < tau_star < 0.2 and resid <= 1e-8
    budget.check()
    report(
        7,
        "embeddedness region reproduction",
        ok,
        f"h(0.1,5)={h1:.6f}, h(0.2,5)={h2:.6f}, tau*={tau_star:.9f}, |h-pi|={resid:.1e}",
    )


def test_08_radius_closed_form():
    budget = Budget(5.0)
    exact_quarter = sin2_horizontal_radius(make_params(1.0), 4.0) == 0.25
    # tau = 2, K = 1/4: exact rational oracle gives sin^2 r = 1
    lam, K = Fraction(-3), Fraction(1, 4)
    assert (1 - Fraction(7)) / (2 * lam) == 1 and Fraction(7) ** 2 == 1 - 4 * lam / K
    pole = abs(sin2_horizontal_radius(make_params(2.0), 0.25) - 1.0) <= 1e-12
    tiny = make_params(math.sqrt(1.0 - 1e-10))
    gap = abs(sin2_horizontal_radius(tiny, 4.0) - 0.25)
    ok = exact_quarter and pole and gap <= 1e-8
    budget.check()
    report(8, "radius closed form", ok, f"continuity gap={gap:.2e}")


def test_09_symmetry_suite(pole_traj):
    budget = Budget(20.0)
    worst = verify.symmetry()["worst_residual_change"]
    assert pole_traj.termination == "boundary_pole"  # then the pole continuation
    cont = apply_symmetry(pole_traj, "pole_continue")
    worst = max(worst, abs(rhs_residual(cont) - rhs_residual(pole_traj)))
    # turning-point reflection (the sixth symmetry)
    p = make_params(0.75)
    long = integrate(p, 3.0, axis_seed(p, 3.0), s_max=1.7, n_samples=2001)
    s, x, y, a = long.arrays()
    spl_x, spl_y, spl_a = CubicSpline(s, x), CubicSpline(s, y), CubicSpline(s, a)
    s1 = brentq(lambda t: spl_a(t) - math.pi / 2, s[0], s[-1])
    sig = np.linspace(0.0, min(s1 - s[0], s[-1] - s1) - 1e-3, 50)
    refl = max(
        float(np.max(np.abs(spl_x(s1 + sig) - spl_x(s1 - sig)))),
        float(np.max(np.abs(spl_y(s1 + sig) + spl_y(s1 - sig) - 2 * spl_y(s1)))),
    )
    ok = worst <= 1e-8 and refl <= 1e-7
    budget.check()
    report(
        9,
        "symmetry suite",
        ok,
        f"residual change={worst:.2e}, reflection={refl:.2e}",
    )


def test_10_constant_solutions():
    budget = Budget(5.0)
    p = make_params(0.75)
    cliff = clifford_solution(p, 0.6)
    cliff_ok = (
        cliff.K == 0.0
        and rhs_residual(cliff) <= 1e-10
        and frobenius_residual(cliff) == 0.0
    )
    # totally geodesic spheres of the round case: (s, y0, 0) with K = 1
    p1 = make_params(1.0)
    geo = geodesic_sphere_solution(p1, y0=0.2)
    s, x, y, a = geo.arrays()
    geo_ok = (
        geo.K == 1.0
        and np.allclose(x, s)
        and np.allclose(y, 0.2)
        and np.allclose(a, 0.0)
        and max(abs(alpha_bracket(p1, 1.0, float(xi), 0.0)) for xi in np.linspace(0.1, 1.5, 50))
        <= 1e-15
    )
    budget.check()
    report(10, "clifford/geodesic constants", cliff_ok and geo_ok)


def test_11_fundamental_form_cross_check():
    budget = Budget(20.0)
    rng = np.random.default_rng(42)
    p = make_params(0.75)
    K = 3.0
    traj = integrate(p, K, axis_seed(p, K), s_max=1.6, n_samples=4001)
    s, x, y, a = traj.arrays()
    spl_x, spl_y, spl_a = CubicSpline(s, x), CubicSpline(s, y), CubicSpline(s, a)
    h = 1e-5
    # 100 samples (s_i, t_i), drawn in the order of one uniform(s) and one
    # uniform(t) per sample
    lo, hi = s[0] + 0.05, s[-1] - 0.05
    si, t = (np.array([lo, 0.0]) + np.array([hi - lo, 2 * math.pi])
             * rng.uniform(size=(100, 2))).T
    xi, ai = spl_x(si), spl_a(si)
    # exact unit-speed derivatives of the profile system
    xp = np.cos(ai)
    yp = np.sqrt(1 - p.lam * np.sin(xi) ** 2) / (p.tau * np.cos(xi)) * np.sin(ai)
    E, F, G = fundamental_form(p, xi, xp, yp)
    worst_id = float(np.max(np.abs(E * G - F**2 - G)))

    def phi(sv, tv):
        return embedding(spl_x(sv), spl_y(sv), tv)

    base = phi(si, t)
    du = tangent_projection(base, (phi(si + h, t) - phi(si - h, t)) / (2 * h))
    dv = tangent_projection(base, (phi(si, t + h) - phi(si, t - h)) / (2 * h))
    scale = np.max(np.abs([np.ones_like(E), E, F, G]), axis=0)
    worst_fd = float(np.max([
        np.abs(metric(p, base, du, du) - E) / scale,
        np.abs(metric(p, base, du, dv) - F) / scale,
        np.abs(metric(p, base, dv, dv) - G) / scale,
    ]))
    ok = worst_fd <= 1e-6 and worst_id <= 1e-10
    budget.check()
    report(
        11,
        "fundamental form cross-check",
        ok,
        f"fd={worst_fd:.2e}, identity={worst_id:.2e}",
    )
