"""The conserved-energy function on the phase rectangle and its level curves.

Profile curves of rotationally invariant constant-curvature surfaces live on
level sets of

    F(X, Y) = (1 - 2 lam X)^2 / (1 - lam X) * (1 - X) * Y^2
              + K (1 - lam X) X

over (X, Y) = (sin^2 x, cos alpha) in [0, 1] x [-1, 1].  Spheres correspond
to the level-1 component joining (0, 1) to (0, -1), which exists exactly for
K >= k0.  This module provides the closed form, its analytic gradient and
critical set, and a predictor-corrector tracer delivering level curves as
ordered paths (grid contouring would smear the near-threshold curves that
hug the rectangle boundary, and the sphere builder needs an ordered path).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

from .errors import CriticalPointError, DomainError
from .geometry import BergerParams

__all__ = [
    "PhasePoint",
    "LevelCurve",
    "energy_value",
    "energy_values",
    "energy_gradient",
    "interior_critical_points",
    "trace_level_curve",
    "sphere_exists",
    "level_one_connects",
]

#: default on-level tolerance for traced curves
TRACE_TOL = 1e-9
#: points this close to the rectangle boundary are snapped onto it
SNAP_TOL = 1e-12
#: gradient norms below this abort a trace as a critical-point encounter
GRAD_TOL = 1e-12


@dataclass(frozen=True)
class PhasePoint:
    """A point of the phase rectangle [0, 1] x [-1, 1].

    ``Y = nan`` is the marker for "any Y": it denotes a whole vertical
    segment {X} x [-1, 1] (used for the degenerate critical set).
    """

    X: float
    Y: float

    def __post_init__(self):
        if not (0.0 <= self.X <= 1.0):
            raise DomainError(f"X = {self.X!r} outside [0, 1]")
        if not math.isnan(self.Y) and not (-1.0 <= self.Y <= 1.0):
            raise DomainError(f"Y = {self.Y!r} outside [-1, 1]")

    @property
    def y_free(self) -> bool:
        return math.isnan(self.Y)

    @staticmethod
    def free_y(X: float) -> "PhasePoint":
        """The vertical segment {X} x [-1, 1], as a point with free Y."""
        return PhasePoint(X, math.nan)


@dataclass(frozen=True)
class LevelCurve:
    """An ordered polyline on one level set of the energy function."""

    level: float
    points: tuple
    closed: bool
    endpoints: Optional[tuple]

    @property
    def start(self) -> PhasePoint:
        return self.points[0]

    @property
    def end(self) -> PhasePoint:
        return self.points[-1]


def _f_and_grad(lam: float, K: float, X: float, Y: float):
    """Value and analytic gradient, sharing subexpressions (hot path)."""
    w = 1.0 - lam * X
    q = 1.0 - 2.0 * lam * X
    v = 1.0 - X
    A = q * q * v / w
    F = A * Y * Y + K * w * X
    # A' = q * [(-4 lam v - q) w + lam q v] / w^2
    Ap = q * ((-4.0 * lam * v - q) * w + lam * q * v) / (w * w)
    Fx = Ap * Y * Y + K * q
    Fy = 2.0 * A * Y
    return F, Fx, Fy


def energy_values(params: BergerParams, K: float, X, Y):
    """Energy F(X, Y) in plain arithmetic: floats give a float, numpy
    arrays broadcast."""
    lam = params.lam
    w = 1.0 - lam * X
    q = 1.0 - 2.0 * lam * X
    return q * q / w * (1.0 - X) * Y * Y + K * w * X


def energy_value(params: BergerParams, K: float, p: PhasePoint) -> float:
    """Energy F(X, Y) at a phase point."""
    return energy_values(params, K, p.X, p.Y)


def energy_gradient(params: BergerParams, K: float, p: PhasePoint):
    """Analytic (dF/dX, dF/dY) at a phase point.

    At the corner (0, 1) this is (K - (4 - 3 tau^2), 2), which decides on
    which side of the level-1 plane the energy graph leaves the corner.
    """
    _, fx, fy = _f_and_grad(params.lam, K, p.X, p.Y)
    return fx, fy


def interior_critical_points(params: BergerParams, K: float):
    """Critical set of F in the open rectangle.

    Empty for lam <= 1/2.  For lam > 1/2 the gradient vanishes on the whole
    vertical segment X = 1/(2 lam) (returned as a single free-Y point):
    there the squared factor (1 - 2 lam X)^2 and its derivative both vanish.
    K = 0 is rejected as degenerate, since F then loses its X-growth term
    and the segment Y = 0 becomes critical as well.
    """
    if K == 0.0:
        raise DomainError("K = 0 is degenerate: the whole line Y = 0 is critical")
    lam = params.lam
    if lam <= 0.5:
        return []
    return [PhasePoint.free_y(1.0 / (2.0 * lam))]


def sphere_exists(params: BergerParams, K: float) -> bool:
    """Existence of the rotationally invariant constant-curvature sphere.

    Closed form: K >= k0.  The trace-based connectivity check is exposed
    separately as :func:`level_one_connects` for cross-validation.
    """
    if not math.isfinite(K):
        raise DomainError(f"K must be finite, got {K!r}")
    return K >= params.k0


# ---------------------------------------------------------------------------
# predictor-corrector level tracing
# ---------------------------------------------------------------------------


def _snap(v: float, lo: float, hi: float) -> float:
    if abs(v - lo) <= SNAP_TOL:
        return lo
    if abs(v - hi) <= SNAP_TOL:
        return hi
    return v


def _inside(X: float, Y: float) -> bool:
    return -SNAP_TOL <= X <= 1.0 + SNAP_TOL and -1.0 - SNAP_TOL <= Y <= 1.0 + SNAP_TOL


def _correct(lam, K, level, X, Y, trace_tol, max_iter=12):
    """Newton-project (X, Y) onto the level set.  Returns None on failure."""
    for _ in range(max_iter):
        F, fx, fy = _f_and_grad(lam, K, X, Y)
        resid = F - level
        if abs(resid) <= trace_tol:
            return X, Y
        g2 = fx * fx + fy * fy
        if g2 < GRAD_TOL * GRAD_TOL:
            return None
        X -= resid * fx / g2
        Y -= resid * fy / g2
    F, _, _ = _f_and_grad(lam, K, X, Y)
    if abs(F - level) <= trace_tol:
        return X, Y
    return None


def _exit_crossing(p, q):
    """First crossing of the segment p->q with the rectangle boundary.

    Returns (t, edge) with t in (0, 1] and edge in {"X0","X1","Ylo","Yhi"},
    or None if q is inside.
    """
    best = None
    (x0, y0), (x1, y1) = p, q
    for edge, val, coord in (("X0", 0.0, 0), ("X1", 1.0, 0), ("Ylo", -1.0, 1), ("Yhi", 1.0, 1)):
        a = (x0, y0)[coord]
        b = (x1, y1)[coord]
        if (b - val) * (1 if edge in ("X1", "Yhi") else -1) > SNAP_TOL and b != a:
            t = (val - a) / (b - a)
            if 0.0 <= t <= 1.0 and (best is None or t < best[0]):
                best = (t, edge, val, coord)
    return best


def _refine_on_edge(lam, K, level, edge, val, coord, Xc, Yc):
    """1D Newton along a rectangle edge to land exactly on the level set."""
    if edge == "X0":
        # F(0, Y) = Y^2: closed form
        if level < 0:
            return None
        Y = math.copysign(math.sqrt(level), Yc)
        if -1.0 <= Y <= 1.0:
            return 0.0, Y
        return None
    if edge == "X1":
        # F(1, Y) = K (1 - lam): constant edge, accept the crossing as-is
        return (1.0, min(1.0, max(-1.0, Yc)))
    # edges Y = +-1: Newton in X
    Y = val
    X = min(1.0, max(0.0, Xc))
    for _ in range(30):
        F, fx, _ = _f_and_grad(lam, K, X, Y)
        resid = F - level
        if abs(resid) <= TRACE_TOL:
            return X, Y
        if abs(fx) < GRAD_TOL:
            break
        X = min(1.0, max(0.0, X - resid / fx))
    F, _, _ = _f_and_grad(lam, K, X, Y)
    if abs(F - level) <= 1e-7:
        return X, Y
    return None


def trace_level_curve(
    params: BergerParams,
    K: float,
    level: float,
    start: PhasePoint,
    direction: int = 1,
    *,
    first_step: float = 1e-3,
    max_step: float = 4e-3,
    min_step: float = 1e-8,
    trace_tol: float = TRACE_TOL,
    max_steps: int = 50000,
) -> LevelCurve:
    """Trace one level curve of the energy by predictor-corrector continuation.

    The predictor steps along the unit tangent (orthogonal to the analytic
    gradient); the corrector Newton-projects back onto the level set.  Steps
    shrink on corrector failure and grow back towards ``max_step`` after
    clean corrections.  The trace clips to the phase rectangle: on leaving
    it, the exit segment is intersected with the boundary and the endpoint
    refined along the edge.  Termination is by boundary exit, closure of the
    curve, or ``max_steps``.

    ``direction = +1`` starts along the tangent obtained by rotating the
    gradient clockwise; at the corner (0, 1) with K > k0 this is the inward
    branch with increasing X (the branch a sphere profile follows).

    Raises CriticalPointError (with the partial curve attached) if the
    gradient norm falls under 1e-12.
    """
    lam = params.lam
    X0, Y0 = float(start.X), float(start.Y)
    F0, fx, fy = _f_and_grad(lam, K, X0, Y0)
    if abs(F0 - level) > max(trace_tol, 1e-9):
        raise DomainError(
            f"start point is not on the level set: |F - level| = {abs(F0 - level)!r}"
        )
    gnorm = math.hypot(fx, fy)
    if gnorm < GRAD_TOL:
        raise DomainError("gradient vanishes at the start point")
    if direction not in (1, -1):
        raise DomainError(f"direction must be +1 or -1, got {direction!r}")

    # clockwise rotation of the gradient for direction +1
    tx, ty = direction * fy / gnorm, -direction * fx / gnorm
    pts = [(X0, Y0)]
    h = first_step
    closed = False

    def make_curve():
        pp = tuple(PhasePoint(_snap(x, 0.0, 1.0), _snap(y, -1.0, 1.0)) for x, y in pts)
        if closed:
            return LevelCurve(level, pp, True, None)
        return LevelCurve(level, pp, False, (pp[0], pp[-1]))

    Xc, Yc = X0, Y0
    for nstep in range(max_steps):
        # predictor
        Xp, Yp = Xc + h * tx, Yc + h * ty
        res = _correct(lam, K, level, Xp, Yp, trace_tol)
        if res is not None:
            dx, dy = res[0] - Xc, res[1] - Yc
            if math.hypot(dx, dy) > 2.0 * h:
                res = None  # corrector jumped to a different branch
        if res is None:
            h *= 0.5
            if h < min_step:
                raise CriticalPointError(
                    "corrector failed at minimal step (critical point or cusp)",
                    partial=make_curve(),
                )
            continue
        Xn, Yn = res

        if not _inside(Xn, Yn):
            cross = _exit_crossing((Xc, Yc), (Xn, Yn))
            if cross is not None:
                t, edge, val, coord = cross
                Xe = Xc + t * (Xn - Xc)
                Ye = Yc + t * (Yn - Yc)
                refined = _refine_on_edge(lam, K, level, edge, val, coord, Xe, Ye)
                pts.append(refined if refined is not None else (Xe, Ye))
                return make_curve()
            Xn = min(1.0, max(0.0, Xn))
            Yn = min(1.0, max(-1.0, Yn))

        # closure: back near the start after having moved away
        if nstep > 10 and math.hypot(Xn - X0, Yn - Y0) < h:
            pts.append((X0, Y0))
            closed = True
            return make_curve()

        _, fx, fy = _f_and_grad(lam, K, Xn, Yn)
        gnorm = math.hypot(fx, fy)
        if gnorm < GRAD_TOL:
            pts.append((Xn, Yn))
            raise CriticalPointError(
                "gradient vanished during trace", partial=make_curve()
            )
        ntx, nty = fy / gnorm, -fx / gnorm
        if ntx * tx + nty * ty < 0.0:
            ntx, nty = -ntx, -nty
        tx, ty = ntx, nty
        pts.append((Xn, Yn))
        Xc, Yc = Xn, Yn
        h = min(max_step, h * 1.4)

    return make_curve()


def level_one_connects(params: BergerParams, K: float, **trace_kwargs) -> bool:
    """Trace-based check that the level-1 curve joins (0, 1) to (0, -1).

    Independent cross-validation of :func:`sphere_exists`; meaningful away
    from the degenerate threshold K = k0, where the corner (0, 1) is a
    tangential start and tracing is best-effort.
    """
    try:
        curve = trace_level_curve(params, K, 1.0, PhasePoint(0.0, 1.0), 1, **trace_kwargs)
    except CriticalPointError:
        return False
    if curve.closed:
        return False
    end = curve.end
    return abs(end.X) <= 1e-6 and abs(end.Y + 1.0) <= 1e-6
