"""The verification suites shared by ``berger-cgc verify`` and the acceptance tests.

Each returns its record: ``pass``, the worst value and its bound, under the names
``bench/checks.py`` reads.  It looks the library up through module attributes.
"""

import numpy as np

from . import phase, profile, sphere
from .geometry import make_params

#: cells on which profiles are integrated and spheres built
PROFILE_CELLS = ((0.75, 3.0), (0.5, 4.0), (2.0, 0.5), (1.0, 2.0))
#: cells on which F is checked against its closed forms on the boundary
BOUNDARY_CELLS = ((0.75, 3.0), (0.5, 3.5), (2.0, 0.5), (1.3, 2.0), (1.0, 2.0), (1.4, 1.0))


def boundary_identities():
    """F against its closed forms on the boundary of [0, 1] x [-1, 1], at 2500
    seeded random points and 10,000 evenly spaced ones per cell."""
    rng = np.random.default_rng(20240817)
    worst = 0.0
    for tau, K in BOUNDARY_CELLS:
        p = make_params(tau)
        Y, X = rng.uniform(-1, 1, 2500), rng.uniform(0, 1, 2500)
        for X, Y in ((X, Y), (np.linspace(0.0, 1.0, 10000), np.linspace(-1.0, 1.0, 10000))):
            errors = [
                phase.energy_values(p, K, 0.0, Y) - Y**2,
                phase.energy_values(p, K, 1.0, Y) - K * (1 - p.lam),
                phase.energy_values(p, K, X, 0.0) - K * (1 - p.lam * X) * X,
            ]
            if p.lam > 0.5:  # the segment X = 1 / (2 lam)
                errors.append(phase.energy_values(p, K, 0.5 / p.lam, Y) - K / (4.0 * p.lam))
            worst = max(worst, *(float(np.max(np.abs(e))) for e in errors))
    return {"pass": bool(worst <= 1e-12), "worst": float(worst), "tol": 1e-12}


def energy_conservation(tol):
    """Energy drift of profiles integrated from the axis at rtol ``tol``; budget 100 x tol."""
    worst = 0.0
    for tau, K in PROFILE_CELLS:
        p = make_params(tau)
        seed = profile.axis_seed(p, K)
        traj = profile.integrate(p, K, seed, s_max=10.0, rtol=tol, atol=tol * 1e-2)
        worst = max(worst, traj.max_energy_drift)
    return {"pass": bool(worst <= 100.0 * tol), "worst_drift": float(worst), "budget": 100.0 * tol}


def frobenius(spacing=1e-3):
    """Curvature residual of sphere profiles sampled at arc-length ``spacing``."""
    worst = 0.0
    for tau, K in PROFILE_CELLS:
        sol = sphere.build_sphere(make_params(tau), K, spacing=spacing)
        worst = max(worst, profile.frobenius_residual(sol.profile))
    return {"pass": bool(worst <= 1e-5), "worst": float(worst), "tol": 1e-5}


def symmetry():
    """Change of the ODE residual under the system's symmetry transforms."""
    p = make_params(0.75)
    traj = profile.integrate(p, 3.0, profile.axis_seed(p, 3.0), s_max=0.8, n_samples=201)
    base = profile.rhs_residual(traj)
    worst = 0.0
    for sym, kw in (("y_translate", {"y0": 1.5}), ("alpha_shift", {"k": 1}),
                    ("alpha_shift", {"k": 2}), ("reverse", {"s0": 0.4}),
                    ("reflect", {"y0": 0.25})):
        res = profile.rhs_residual(profile.apply_symmetry(traj, sym, **kw))
        worst = max(worst, abs(res - base))
    return {"pass": bool(worst <= 1e-8), "worst_residual_change": float(worst), "tol": 1e-8}


def route_equivalence():
    """Half the y-extent of the assembled profile against the quadrature h."""
    worst = 0.0
    for tau, K in PROFILE_CELLS:
        p = make_params(tau)
        _, _, y, _ = sphere.build_sphere(p, K).profile.arrays()
        worst = max(worst, abs(0.5 * (y[-1] - y[0]) - sphere.vertical_radius(p, K)))
    return {"pass": bool(worst <= 1e-7), "worst": float(worst), "tol": 1e-7}
