"""Profile-curve ODE system for rotationally invariant surfaces.

A rotationally invariant surface is the orbit of a curve
gamma(s) = (e^{i y(s)} cos x(s), sin x(s)) in the half-sphere orbit space;
after unit-speed reparametrization the curve satisfies the first-order
system

    x' = cos(alpha),
    y' = (1/tau) sqrt(1 - lam sin^2 x) / cos x * sin(alpha),
    alpha' = tan x / sin(alpha) * [ (1 - lam sin^2 x)/(1 - 2 lam sin^2 x) K
             - cos^2(alpha) ( (1 - lam)/(1 - lam sin^2 x)
                              + 4 lam cos^2 x / (1 - 2 lam sin^2 x) ) ],

with the conserved energy

    E = (1 - 2 lam sin^2 x)^2/(1 - lam sin^2 x) cos^2 x cos^2 alpha
        + K (1 - lam sin^2 x) sin^2 x.

Integration is delegated to an adaptive embedded Runge-Kutta pair with
dense output and terminal event detection at the axis (sin x -> 0), the
pole (sin x -> 1) and the alpha singularity (sin alpha -> 0); the energy
drift is recorded per sample.  alpha is stored unwrapped.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, SingularityError
from .geometry import AmbientPoint, BergerParams

__all__ = [
    "ProfileState",
    "Trajectory",
    "FundamentalForm",
    "rhs",
    "alpha_bracket",
    "axis_seed",
    "integrate",
    "apply_symmetry",
    "clifford_solution",
    "geodesic_sphere_solution",
    "fundamental_form",
    "frobenius_residual",
    "rhs_residual",
    "embedding",
    "energy",
]

EPS_AXIS = 1e-9
EPS_POLE = 1e-9
EPS_SING = 1e-8
#: default guard under which rhs refuses to evaluate a singular factor
SINGULAR_TOL = 1e-8

TERMINATIONS = ("boundary_axis", "boundary_pole", "step_limit", "singular_alpha")


@dataclass(frozen=True)
class ProfileState:
    """(s, x, y, alpha): arc parameter and profile-curve coordinates of one
    state, as taken by :func:`rhs`, :func:`integrate` and :func:`embedding`."""

    s: float
    x: float
    y: float
    alpha: float

    def __post_init__(self):
        for name in ("s", "x", "y", "alpha"):
            if not math.isfinite(getattr(self, name)):
                raise DomainError(f"non-finite profile state component {name}")
        if math.sin(self.x) < -1e-12:
            raise DomainError(f"profile requires sin x >= 0, got x = {self.x!r}")


@dataclass(frozen=True)
class FundamentalForm:
    """First fundamental form components at one profile state."""

    E: float
    F: float
    G: float


def energy(params: BergerParams, K: float, x, alpha):
    """Conserved energy of the system at (x, alpha); vectorized."""
    lam = params.lam
    u = np.sin(x) ** 2
    P = 1.0 - lam * u
    R = 1.0 - 2.0 * lam * u
    return R * R / P * (1.0 - u) * np.cos(alpha) ** 2 + K * P * u


@dataclass(frozen=True, eq=False)
class Trajectory:
    """An ordered solution of the profile system with energy bookkeeping.

    The samples are read-only float arrays ``s``, ``x``, ``y``, ``alpha``
    and ``energy_drifts`` (|E_i - energy0| per sample), with ``s`` strictly
    increasing.  ``max_energy_drift`` is their maximum; for integrated
    trajectories it must stay within the integrator's tolerance budget
    (100 x rtol by default).
    """

    params: BergerParams
    K: float
    s: np.ndarray
    x: np.ndarray
    y: np.ndarray
    alpha: np.ndarray
    energy0: float
    max_energy_drift: float
    termination: str
    energy_drifts: np.ndarray = field(repr=False)

    def __post_init__(self):
        if self.termination not in TERMINATIONS:
            raise DomainError(f"unknown termination {self.termination!r}")
        for name in ("s", "x", "y", "alpha", "energy_drifts"):
            a = np.array(getattr(self, name), dtype=float)
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        for name in ("s", "x", "y", "alpha"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise DomainError(f"non-finite profile state component {name}")
        below = np.sin(self.x) < -1e-12
        if np.any(below):
            bad = float(self.x[below][0])
            raise DomainError(f"profile requires sin x >= 0, got x = {bad!r}")
        if not np.all(np.diff(self.s) > 0):
            raise DomainError("trajectory states must be strictly increasing in s")

    def arrays(self):
        """(s, x, y, alpha)."""
        return self.s, self.x, self.y, self.alpha

    @property
    def states(self) -> tuple:
        """The samples as ProfileState values, built from the arrays."""
        return tuple(
            map(ProfileState, self.s.tolist(), self.x.tolist(), self.y.tolist(),
                self.alpha.tolist())
        )


def _make_trajectory(params, K, s, x, y, alpha, termination) -> Trajectory:
    e = energy(params, K, np.asarray(x, float), np.asarray(alpha, float))
    e0 = float(e[0])
    drifts = np.abs(e - e0)
    return Trajectory(
        params=params,
        K=K,
        s=s,
        x=x,
        y=y,
        alpha=alpha,
        energy0=e0,
        max_energy_drift=float(drifts.max()),
        termination=termination,
        energy_drifts=drifts,
    )


def alpha_bracket(params: BergerParams, K: float, x: float, alpha: float) -> float:
    """The bracketed factor of the alpha equation.

    alpha' = tan(x)/sin(alpha) * bracket.  Exposed separately because the
    prefactor is singular where sin(alpha) = 0 while the product can have a
    finite limit (e.g. the totally geodesic spheres of the round case, for
    which the bracket vanishes identically).  The last term is written with
    cos^2 x rather than 1 - sin^2 x, which cancels near the pole.
    """
    lam = params.lam
    sx = math.sin(x)
    cx = math.cos(x)
    u = sx * sx
    P = 1.0 - lam * u
    R = 1.0 - 2.0 * lam * u
    c2 = math.cos(alpha) ** 2
    return P / R * K - c2 * ((1.0 - lam) / P + 4.0 * lam * cx * cx / R)


def _rhs_raw(params: BergerParams, K: float, x: float, alpha: float):
    """System right-hand side without singularity guards (integration core)."""
    sx = math.sin(x)
    cx = math.cos(x)
    sa = math.sin(alpha)
    P = 1.0 - params.lam * sx * sx
    dx = math.cos(alpha)
    dy = math.sqrt(P) / (params.tau * cx) * sa
    dalpha = sx / cx / sa * alpha_bracket(params, K, x, alpha)
    return dx, dy, dalpha


def rhs(
    params: BergerParams,
    K: float,
    state: ProfileState,
    *,
    singular_tol: float = SINGULAR_TOL,
):
    """(dx, dy, dalpha) of the profile system at ``state``.

    Raises SingularityError naming the offending factor when |sin alpha|,
    |cos x| or |1 - 2 lam sin^2 x| is under ``singular_tol``.
    """
    sa = math.sin(state.alpha)
    cx = math.cos(state.x)
    if abs(sa) < singular_tol:
        raise SingularityError("sin(alpha)", "rhs is singular where sin(alpha) = 0")
    if abs(cx) < singular_tol:
        raise SingularityError("cos(x)", "rhs is singular where cos(x) = 0")
    if abs(1.0 - 2.0 * params.lam * math.sin(state.x) ** 2) < singular_tol:
        raise SingularityError(
            "1 - 2*lam*sin(x)^2", "rhs is singular on 1 - 2 lam sin^2 x = 0"
        )
    return _rhs_raw(params, K, state.x, state.alpha)


def axis_seed(params: BergerParams, K: float, x_start: float = 1e-5) -> ProfileState:
    """Launch state just off the axis for a sphere-profile integration.

    The system is singular on the axis itself; balancing the alpha equation
    near (x, alpha) = (0, 0) gives the asymptotic departure
    alpha ~ sqrt(K - (4 - 3 tau^2)) x, which places the seed on the unit
    energy level to fourth order in ``x_start``.  Degenerates as K
    approaches 4 - 3 tau^2 (= k0 when tau <= 1); sphere construction near
    that threshold goes through phase-space tracing instead.
    """
    c2 = K - (3.0 * params.lam + 1.0)
    if c2 <= 0.0:
        raise DomainError(
            "axis seed undefined: it requires K > 4 - 3 tau^2 "
            f"(got K = {K!r}, threshold {3.0 * params.lam + 1.0!r})"
        )
    return ProfileState(0.0, x_start, 0.0, math.sqrt(c2) * x_start)


def integrate(
    params: BergerParams,
    K: float,
    init: ProfileState,
    *,
    s_max: float,
    n_samples: int = 513,
    rtol: float = 1e-10,
    atol: float = 1e-12,
    eps_axis: float = EPS_AXIS,
    eps_pole: float = EPS_POLE,
    eps_sing: float = EPS_SING,
) -> Trajectory:
    """Integrate the profile system forward from ``init`` over at most s_max.

    Dormand-Prince 8(5,3) with dense output; terminal events stop the run
    at sin x <= eps_axis, sin x >= 1 - eps_pole or |sin alpha| <= eps_sing
    (event roots located on the dense output).  Samples are uniform in s
    over the realized span.  Reaching s_max is reported as ``step_limit``.
    """
    if n_samples < 2:
        raise DomainError("need at least 2 samples")
    rhs(params, K, init, singular_tol=1e-13)  # init must be off the singular loci

    def fun(s, v):
        return _rhs_raw(params, K, v[0], v[2])

    def ev_axis(s, v):
        return math.sin(v[0]) - eps_axis

    def ev_pole(s, v):
        return math.sin(v[0]) - (1.0 - eps_pole)

    def ev_sing(s, v):
        return abs(math.sin(v[2])) - eps_sing

    ev_axis.terminal = True
    ev_axis.direction = -1
    ev_pole.terminal = True
    ev_pole.direction = 1
    ev_sing.terminal = True
    ev_sing.direction = -1

    sol = solve_ivp(
        fun,
        (init.s, init.s + s_max),
        [init.x, init.y, init.alpha],
        method="DOP853",
        dense_output=True,
        events=(ev_axis, ev_pole, ev_sing),
        rtol=rtol,
        atol=atol,
    )
    if sol.status == -1:
        n = len(sol.t)
        partial = None
        if n >= 2:
            ss = np.linspace(sol.t[0], sol.t[-1], min(n_samples, max(2, n)))
            vv = sol.sol(ss)
            partial = _make_trajectory(
                params, K, ss, vv[0], vv[1], vv[2], "step_limit"
            )
        raise SingularityError(
            "step-size underflow", f"integrator failed: {sol.message}", partial=partial
        )

    if sol.status == 1:
        labels = ("boundary_axis", "boundary_pole", "singular_alpha")
        hit = [
            (te[0], lab)
            for te, lab in zip(sol.t_events, labels)
            if te is not None and len(te)
        ]
        s_end, termination = min(hit)
    else:
        s_end, termination = init.s + s_max, "step_limit"

    ss = np.linspace(init.s, s_end, n_samples)
    vv = sol.sol(ss)
    return _make_trajectory(params, K, ss, vv[0], vv[1], vv[2], termination)


# ---------------------------------------------------------------------------
# symmetry transforms
# ---------------------------------------------------------------------------

SYMMETRIES = ("y_translate", "alpha_shift", "reverse", "reflect", "pole_continue")


def apply_symmetry(
    traj: Trajectory,
    sym: str,
    *,
    y0: Optional[float] = None,
    k: Optional[int] = None,
    s0: Optional[float] = None,
) -> Trajectory:
    """Apply one of the system's symmetries to a trajectory.

    sym:
      * ``y_translate``: (x, y + y0, alpha) -- vertical translation.
      * ``alpha_shift``: (x, y, alpha + 2 pi k), integer k.
      * ``reverse``: s -> 2 s0 - s with alpha -> alpha + pi.
      * ``reflect``: (x, 2 y0 - y, -alpha) -- reflection in the line y = y0.
      * ``pole_continue``: y -> y + pi; only valid when the trajectory ends
        at the pole (sin x = 1 within the pole tolerance), where this is the
        smooth continuation of the profile curve through the pole.

    The result is a valid solution with identical energy bookkeeping
    structure; energies are recomputed.
    """
    s, x, y, a = traj.arrays()
    if sym == "y_translate":
        if y0 is None:
            raise DomainError("y_translate requires y0")
        return _make_trajectory(traj.params, traj.K, s, x, y + y0, a, traj.termination)
    if sym == "alpha_shift":
        if k is None or int(k) != k:
            raise DomainError("alpha_shift requires integer k")
        return _make_trajectory(
            traj.params, traj.K, s, x, y, a + 2.0 * math.pi * int(k), traj.termination
        )
    if sym == "reverse":
        if s0 is None:
            raise DomainError("reverse requires s0")
        return _make_trajectory(
            traj.params,
            traj.K,
            (2.0 * s0 - s)[::-1],
            x[::-1],
            y[::-1],
            (a + math.pi)[::-1],
            traj.termination,
        )
    if sym == "reflect":
        if y0 is None:
            raise DomainError("reflect requires y0")
        return _make_trajectory(
            traj.params, traj.K, s, x, 2.0 * y0 - y, -a, traj.termination
        )
    if sym == "pole_continue":
        if math.sin(traj.x[-1]) < 1.0 - 10.0 * EPS_POLE:
            raise DomainError(
                "pole_continue requires the terminal state at the pole "
                f"(sin x = {math.sin(traj.x[-1])!r})"
            )
        return _make_trajectory(
            traj.params, traj.K, s, x, y + math.pi, a, traj.termination
        )
    raise DomainError(f"unknown symmetry {sym!r}; expected one of {SYMMETRIES}")


# ---------------------------------------------------------------------------
# constant solutions
# ---------------------------------------------------------------------------


def clifford_solution(
    params: BergerParams,
    x0: float,
    *,
    s_max: Optional[float] = None,
    n_samples: int = 257,
) -> Trajectory:
    """Closed-form Clifford-torus solution at constant colatitude x0.

    (x, y, alpha) = (x0, (1/tau) sqrt(1 - lam sin^2 x0)/cos x0 * s, pi/2)
    solves the system identically with K = 0; the orbit is the flat torus
    over a circle of the base sphere.  x0 must avoid multiples of pi/2
    (axis and pole degeneracies).
    """
    half_pi = math.pi / 2.0
    if min(abs(x0 % half_pi), half_pi - (x0 % half_pi)) < 1e-9:
        raise DomainError("x0 must not be an integer multiple of pi/2")
    rate = math.sqrt(1.0 - params.lam * math.sin(x0) ** 2) / (
        params.tau * math.cos(x0)
    )
    if s_max is None:
        s_max = 2.0 * math.pi / abs(rate)  # one full fiber loop
    s = np.linspace(0.0, s_max, n_samples)
    x = np.full_like(s, x0)
    y = rate * s
    a = np.full_like(s, half_pi)
    return _make_trajectory(params, 0.0, s, x, y, a, "step_limit")


def geodesic_sphere_solution(
    params: BergerParams,
    y0: float = 0.0,
    *,
    s_max: float = math.pi / 2.0,
    n_samples: int = 257,
) -> Trajectory:
    """Totally geodesic 2-sphere of the round case: (x, y, alpha) = (s, y0, 0).

    Only a solution for tau = 1 (lam = 0), where it has Gauss curvature 1.
    """
    if abs(params.lam) > 1e-14:
        raise DomainError("the totally geodesic sphere solution requires tau = 1")
    s = np.linspace(1e-6, s_max, n_samples)
    return _make_trajectory(
        params, 1.0, s, s, np.full_like(s, y0), np.zeros_like(s), "step_limit"
    )


# ---------------------------------------------------------------------------
# first fundamental form, curvature diagnostics, embedding
# ---------------------------------------------------------------------------


def fundamental_form(
    params: BergerParams,
    K: float,
    state: ProfileState,
    xprime: float,
    yprime: float,
) -> FundamentalForm:
    """Closed-form first fundamental form of the revolved surface.

    E = x'^2 + cos^2 x (1 - lam cos^2 x) y'^2,
    F = -lam sin^2 x cos^2 x y',
    G = (1 - lam sin^2 x) sin^2 x.

    Under the unit-speed normalization of the profile system these satisfy
    E G - F^2 = G.
    """
    lam = params.lam
    sx2 = math.sin(state.x) ** 2
    cx2 = math.cos(state.x) ** 2
    E = xprime * xprime + cx2 * (1.0 - lam * cx2) * yprime * yprime
    F = -lam * sx2 * cx2 * yprime
    G = (1.0 - lam * sx2) * sx2
    return FundamentalForm(E, F, G)


def frobenius_residual(traj: Trajectory) -> float:
    """Gauss-curvature residual of a trajectory via the rotational-metric
    radius phi(s) = sqrt(G(s)).

    For a constant-curvature solution phi'' + K phi = 0; the residual is
    max_i |phi''(s_i) + K phi(s_i)| over interior samples, with phi''
    from central second differences (second-order accurate on uniform or
    smoothly graded grids).
    """
    if len(traj.s) < 64:
        raise DomainError("need at least 64 samples for second differences")
    s, x, _, _ = traj.arrays()
    lam = traj.params.lam
    u = np.sin(x) ** 2
    phi = np.sqrt((1.0 - lam * u) * u)
    h1 = s[1:-1] - s[:-2]
    h2 = s[2:] - s[1:-1]
    if np.max(np.abs(h2 - h1)) <= 1e-12 * float(np.max(h1)):
        # uniform grid: the symmetric stencil cancels exactly
        h = float(np.mean(np.diff(s)))
        d2 = (phi[:-2] - 2.0 * phi[1:-1] + phi[2:]) / (h * h)
    else:
        d2 = 2.0 * (
            phi[:-2] * h2 - phi[1:-1] * (h1 + h2) + phi[2:] * h1
        ) / (h1 * h2 * (h1 + h2))
    return float(np.max(np.abs(d2 + traj.K * phi[1:-1])))


def rhs_residual(traj: Trajectory, *, singular_tol: float = SINGULAR_TOL) -> float:
    """Max deviation between centered finite differences of the trajectory
    and the system right-hand side, over interior samples.

    Samples inside the singular guard (|sin alpha| or |cos x| under
    ``singular_tol``) are skipped, since the rhs is not evaluable there.
    """
    s, x, y, a = traj.arrays()
    if len(s) < 3:
        raise DomainError("need at least 3 samples")
    worst = 0.0
    for i in range(1, len(s) - 1):
        sa = math.sin(a[i])
        cx = math.cos(x[i])
        if abs(sa) < singular_tol or abs(cx) < singular_tol:
            continue
        if abs(1.0 - 2.0 * traj.params.lam * math.sin(x[i]) ** 2) < singular_tol:
            continue
        ds = s[i + 1] - s[i - 1]
        fd = (
            (x[i + 1] - x[i - 1]) / ds,
            (y[i + 1] - y[i - 1]) / ds,
            (a[i + 1] - a[i - 1]) / ds,
        )
        rh = _rhs_raw(traj.params, traj.K, x[i], a[i])
        worst = max(worst, max(abs(fd[j] - rh[j]) for j in range(3)))
    return worst


def embedding(params: BergerParams, state: ProfileState, t: float) -> AmbientPoint:
    """Point of the revolved surface: Phi(s, t) = (e^{iy} cos x, e^{it} sin x)."""
    return AmbientPoint(
        complex(math.cos(state.y), math.sin(state.y)) * math.cos(state.x),
        complex(math.cos(t), math.sin(t)) * math.sin(state.x),
    )
