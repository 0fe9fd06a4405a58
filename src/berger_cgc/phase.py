"""The conserved-energy function on the phase rectangle and its level curves.

Profile curves of rotationally invariant constant-curvature surfaces live on
level sets of

    F(X, Y) = (1 - 2 lam X)^2 / (1 - lam X) * (1 - X) * Y^2
              + K (1 - lam X) X

over (X, Y) = (sin^2 x, cos alpha) in [0, 1] x [-1, 1].  Spheres correspond
to the level-1 component joining (0, 1) to (0, -1), which exists exactly for
K >= k0.  This module provides the closed form, its analytic gradient and
critical set, a predictor-corrector tracer delivering level curves as
ordered paths (grid contouring would smear the near-threshold curves that
hug the rectangle boundary, and the sphere builder needs an ordered path),
and the contours of a phase portrait, traced from seeds on scan lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import CriticalPointError, DomainError
from .geometry import BergerParams

__all__ = [
    "LevelCurve",
    "energy_values",
    "energy_gradient",
    "interior_critical_points",
    "trace_level_curve",
    "contours",
    "sphere_exists",
    "level_one_connects",
]

#: on-level tolerance for traced curves
TRACE_TOL = 1e-9
#: points this close to the rectangle boundary are snapped onto it
SNAP_TOL = 1e-12
#: gradient norms below this abort a trace as a critical-point encounter
GRAD_TOL = 1e-12
#: tracer steps: the first, the cap it grows back to, the floor under which a
#: failed corrector aborts, and how many a trace may take before it is returned
FIRST_STEP, MAX_STEP, MIN_STEP, MAX_STEPS = 1e-3, 4e-3, 1e-8, 50000
#: Newton steps of one corrector projection onto the level set
CORRECT_MAX_ITER = 12
#: bisection steps that place a level crossing on a scan segment
BISECT_ITERS = 80
#: scan points per rectangle edge (and the Y = 0 axis) when seeding contours
SEED_SCAN = 800
#: the scan lines X = x0 + dx v, Y = y0 + dy v for v in [0, 1], as rows
#: (x0, dx, y0, dy): the edges X = 0, X = 1, Y = -1, Y = 1 and the axis Y = 0
SCAN_LINES = np.array([(0, 0, -1, 2), (1, 0, -1, 2), (0, 1, -1, 0), (0, 1, 1, 0), (0, 1, 0, 0)],
                      dtype=float)
#: a seed this close to a curve already traced at its level starts no trace
SEED_COVERED = 2e-2


@dataclass(frozen=True)
class LevelCurve:
    """An ordered polyline on one level set of the energy function.

    ``points`` is a read-only (N, 2) float array of (X, Y) in the phase
    rectangle; a closed curve ends where it starts.
    """

    level: float
    closed: bool
    points: np.ndarray

    def __post_init__(self):
        pts = np.array(self.points, dtype=float)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise DomainError(f"level-curve points must be (N, 2), got shape {pts.shape}")
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        outside = ~((0.0 <= pts[:, 0]) & (pts[:, 0] <= 1.0) & (np.abs(pts[:, 1]) <= 1.0))
        if np.any(outside):  # also rejects non-finite points
            bad = tuple(pts[outside][0].tolist())
            raise DomainError(f"level-curve point {bad!r} outside [0, 1] x [-1, 1]")


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


def energy_gradient(params: BergerParams, K: float, X: float, Y: float):
    """Analytic (dF/dX, dF/dY) at the phase point (X, Y).

    At the corner (0, 1) this is (K - (4 - 3 tau^2), 2), which decides on
    which side of the level-1 plane the energy graph leaves the corner.
    """
    _, fx, fy = _f_and_grad(params.lam, K, X, Y)
    return fx, fy


def interior_critical_points(params: BergerParams, K: float):
    """Critical set of F in the open rectangle, as the X of each critical
    vertical segment {X} x [-1, 1].

    Empty for lam <= 1/2.  For lam > 1/2 the gradient vanishes on the whole
    segment X = 1/(2 lam): there the squared factor (1 - 2 lam X)^2 and its
    derivative both vanish.
    K = 0 is rejected as degenerate, since F then loses its X-growth term
    and the segment Y = 0 becomes critical as well.
    """
    if K == 0.0:
        raise DomainError("K = 0 is degenerate: the whole line Y = 0 is critical")
    lam = params.lam
    if lam <= 0.5:
        return []
    return [1.0 / (2.0 * lam)]


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


def _inside(X: float, Y: float) -> bool:
    return -SNAP_TOL <= X <= 1.0 + SNAP_TOL and -1.0 - SNAP_TOL <= Y <= 1.0 + SNAP_TOL


def _correct(lam, K, level, X, Y):
    """Newton-project (X, Y) onto the level set.  Returns None on failure."""
    for _ in range(CORRECT_MAX_ITER):
        F, fx, fy = _f_and_grad(lam, K, X, Y)
        resid = F - level
        if abs(resid) <= TRACE_TOL:
            return X, Y
        g2 = fx * fx + fy * fy
        if g2 < GRAD_TOL * GRAD_TOL:
            return None
        X -= resid * fx / g2
        Y -= resid * fy / g2
    F, _, _ = _f_and_grad(lam, K, X, Y)
    if abs(F - level) <= TRACE_TOL:
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
    start: tuple[float, float],
    direction: int = 1,
) -> LevelCurve:
    """Trace one level curve of the energy by predictor-corrector continuation.

    The predictor steps along the unit tangent (orthogonal to the analytic
    gradient); the corrector Newton-projects back onto the level set.  Steps
    shrink on corrector failure and grow back towards MAX_STEP after
    clean corrections.  The trace clips to the phase rectangle: on leaving
    it, the exit segment is intersected with the boundary and the endpoint
    refined along the edge.  Termination is by boundary exit, closure of the
    curve, or MAX_STEPS.

    ``start`` is an (X, Y) pair in [0, 1] x [-1, 1] on the level set.
    ``direction = +1`` starts along the tangent obtained by rotating the
    gradient clockwise; at the corner (0, 1) with K > k0 this is the inward
    branch with increasing X (the branch a sphere profile follows).

    Raises CriticalPointError (with the partial curve attached) if the
    gradient norm falls under 1e-12.
    """
    lam = params.lam
    X0, Y0 = map(float, start)
    if not (0.0 <= X0 <= 1.0 and -1.0 <= Y0 <= 1.0):
        raise DomainError(f"start point {(X0, Y0)!r} outside [0, 1] x [-1, 1]")
    F0, fx, fy = _f_and_grad(lam, K, X0, Y0)
    if abs(F0 - level) > TRACE_TOL:
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
    h = FIRST_STEP
    closed = False

    def make_curve():
        # coordinates within SNAP_TOL of the rectangle boundary are snapped onto it
        a = np.array(pts)
        a = np.where(np.abs(a - (0.0, -1.0)) <= SNAP_TOL, (0.0, -1.0), a)
        a = np.where(np.abs(a - 1.0) <= SNAP_TOL, 1.0, a)
        return LevelCurve(level, closed, a)

    Xc, Yc = X0, Y0
    for nstep in range(MAX_STEPS):
        # predictor
        Xp, Yp = Xc + h * tx, Yc + h * ty
        res = _correct(lam, K, level, Xp, Yp)
        if res is not None:
            dx, dy = res[0] - Xc, res[1] - Yc
            if math.hypot(dx, dy) > 2.0 * h:
                res = None  # corrector jumped to a different branch
        if res is None:
            h *= 0.5
            if h < MIN_STEP:
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
        h = min(MAX_STEP, h * 1.4)

    return make_curve()


def level_one_connects(params: BergerParams, K: float) -> bool:
    """Trace-based check that the level-1 curve joins (0, 1) to (0, -1).

    Independent cross-validation of :func:`sphere_exists`; meaningful away
    from the degenerate threshold K = k0, where the corner (0, 1) is a
    tangential start and tracing is best-effort.
    """
    try:
        curve = trace_level_curve(params, K, 1.0, (0.0, 1.0), 1)
    except CriticalPointError:
        return False
    if curve.closed:
        return False
    X, Y = curve.points[-1].tolist()
    return abs(X) <= 1e-6 and abs(Y + 1.0) <= 1e-6


# ---------------------------------------------------------------------------
# contours of a phase portrait
# ---------------------------------------------------------------------------


def _seeds(params: BergerParams, K: float, levels):
    """The crossings of every level on the SCAN_LINES, as arrays
    ``(level index, X, Y)`` ordered by level, then line, then position.

    Each sign change of F - level between two of the SEED_SCAN points of a
    line is placed by BISECT_ITERS bisection steps, all seeds in lockstep;
    a midpoint where F equals the level exactly is the seed.
    """
    levels = np.asarray(levels, dtype=float)
    v = np.linspace(0.0, 1.0, SEED_SCAN)
    x0, dx, y0, dy = SCAN_LINES.T[:, :, None]
    F = energy_values(params, K, x0 + dx * v, y0 + dy * v)  # (line, v)
    sign = np.sign(F - levels[:, None, None])  # (level, line, v)
    which, line, i = np.nonzero(sign[..., :-1] * sign[..., 1:] < 0)
    level = levels[which]
    x0, dx, y0, dy = SCAN_LINES[line].T
    a, b = v[i], v[i + 1]
    above = F[line, i] - level > 0.0  # the side of the level that end a stays on
    exact = np.full(len(a), np.nan)  # the first midpoint that lands on the level
    for _ in range(BISECT_ITERS):
        m = 0.5 * (a + b)
        fm = energy_values(params, K, x0 + dx * m, y0 + dy * m) - level
        hit = (fm == 0.0) & np.isnan(exact)
        exact[hit] = m[hit]
        same = (fm > 0.0) == above
        a, b = np.where(same, m, a), np.where(same, b, m)
    v = np.where(np.isnan(exact), 0.5 * (a + b), exact)
    return which, x0 + dx * v, y0 + dy * v


def _trace_both_ways(params: BergerParams, K: float, level: float, seed):
    """The level curve through ``seed``, traced both ways, or None when
    neither way gets past the seed."""
    halves = []
    for direction in (1, -1):
        try:
            c = trace_level_curve(params, K, level, seed, direction)
        except (CriticalPointError, DomainError) as exc:
            c = getattr(exc, "partial", None)
        if c is not None and c.closed:
            return c
        if c is not None and len(c.points) > 1:
            halves.append(c.points)
    if len(halves) == 2:
        return LevelCurve(level, False, np.concatenate([halves[1][::-1], halves[0][1:]]))
    return LevelCurve(level, False, halves[0]) if halves else None


def contours(params: BergerParams, K: float, levels) -> list[LevelCurve]:
    """The level curves of F through the rectangle edges and the axis Y = 0.

    Each level is seeded where it crosses one of the SCAN_LINES and traced
    both ways from each seed that lies at least SEED_COVERED from the
    curves already traced at that level.  Curves come in the order of
    ``levels``, then of their seeds; a curve is ``closed`` when its trace
    came back to its seed.  A level that crosses no scan line gives none.
    """
    which, X, Y = _seeds(params, K, levels)
    curves = []
    for k, level in enumerate(levels):
        covered = np.empty((0, 2))
        for x, y in zip(X[which == k].tolist(), Y[which == k].tolist()):
            if covered.size and np.hypot(covered[:, 0] - x, covered[:, 1] - y).min() < SEED_COVERED:
                continue
            curve = _trace_both_ways(params, K, level, (x, y))
            if curve is not None:
                curves.append(curve)
                covered = np.vstack([covered, curve.points])
    return curves
