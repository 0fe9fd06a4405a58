"""Independent reference values for the checks.

Nothing here imports the program.  The formulas are the paper's, written
out again from the energy

    F(X, Y) = (1 - 2 lam X)^2 / (1 - lam X) * (1 - X) * Y^2 + K (1 - lam X) X,

with X = sin^2 x, Y = cos(alpha) and lam = 1 - tau^2.

* ``sin2_r``: the smallest root in [0, 1] of lam u^2 - u + 1/K = 0, in mpmath.
* ``h_mpmath``: the vertical radius by mpmath's adaptive tanh-sinh at
  raised precision, after the substitution x = r sin(theta).
* ``h_qaws``: the vertical radius by QUADPACK's QAWS rule, which takes the
  inverse-square-root endpoint weight (r - x)^(-1/2) out of the integrand.
  It is a different method from the program's level-doubling tanh-sinh,
  and cheap enough to run on every embeddedness boundary.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate

DPS = 30


def energy(lam: float, K: float, X, Y):
    """F(X, Y), for arrays."""
    P = 1.0 - lam * X
    R = 1.0 - 2.0 * lam * X
    return R * R / P * (1.0 - X) * Y * Y + K * P * X


def sin2_r(tau: float, K: float, exact: bool = False):
    """sin^2 of the horizontal radius: the smallest root of lam u^2 - u + 1/K in [0, 1].

    For 1/2 < lam the second root can lie in [0, 1] too; the profile leaves
    the axis at u = 0 and turns at the first root it reaches.
    """
    with mpmath.workdps(DPS):
        lam = 1 - mpmath.mpf(tau) ** 2
        K = mpmath.mpf(K)
        if lam == 0:
            return 1 / K if exact else float(1 / K)
        disc = mpmath.sqrt(1 - 4 * lam / K)
        roots = [(1 - disc) / (2 * lam), (1 + disc) / (2 * lam)]
        inside = [u for u in roots if 0 <= u <= 1]
        if not inside:
            raise ValueError(f"no root in [0, 1] at tau={tau!r}, K={K!r}")
        return min(inside) if exact else float(min(inside))


def h_mpmath(tau: float, K: float, dps: int = DPS) -> float:
    """Vertical radius by mpmath quadrature at ``dps`` digits."""
    with mpmath.workdps(dps):
        t = mpmath.mpf(tau)
        K = mpmath.mpf(K)
        lam = 1 - t * t
        r = mpmath.asin(mpmath.sqrt(sin2_r(tau, K, exact=True)))

        def dy_dtheta(theta):
            x = r * mpmath.sin(theta)
            X = mpmath.sin(x) ** 2
            P = 1 - lam * X
            R = 1 - 2 * lam * X
            c2 = mpmath.cos(x) ** 2
            g = 1 - K * P * X  # vanishes at x = r
            num = R * R * c2 - P * g
            if g <= 0 or num <= 0:
                return mpmath.mpf(0)
            return r * mpmath.cos(theta) * mpmath.sqrt(num / g) / (t * mpmath.cos(x))

        return float(mpmath.quad(dy_dtheta, [0, mpmath.pi / 4, mpmath.pi / 2]))


def h_qaws(tau: float, K: float) -> float:
    """Vertical radius by QUADPACK with the (r - x)^(-1/2) weight factored out."""
    lam = 1.0 - tau * tau
    u1 = sin2_r(tau, K)
    r = math.asin(math.sqrt(u1))
    # 1 - K P X = lam K (X1 - X)(X2 - X) with X1 = u1 and X2 = 1 / (lam K u1)
    # (for lam = 0 it is K (X1 - X)); X1 - X = sin(r - x) sin(r + x).
    if lam == 0.0:
        other = lambda X: K
    else:
        u2 = 1.0 / (lam * K * u1)
        other = lambda X: lam * K * (u2 - X)

    def g(x):
        d = r - x
        X = math.sin(x) ** 2
        P = 1.0 - lam * X
        R = 1.0 - 2.0 * lam * X
        c2 = math.cos(x) ** 2
        sd = math.sin(d)
        sinc = d / sd if sd > 0.0 else 1.0  # d / sin(d), 1 at d = 0
        diff = sd * math.sin(r + x)  # X1 - X, free of cancellation
        gval = diff * other(X)
        num = R * R * c2 - P * gval
        return math.sqrt(max(num, 0.0) * sinc / (math.sin(r + x) * other(X))) / (
            tau * math.cos(x)
        )

    value, _ = integrate.quad(
        g, 0.0, r, weight="alg", wvar=(0.0, -0.5), epsabs=1e-13, epsrel=1e-13, limit=200
    )
    return value
