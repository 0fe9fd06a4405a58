"""Construction and classification of the constant-curvature spheres.

For K >= k0 the sphere's profile is the unit-energy level curve in phase
space.  Everything here is recovered from that level set in closed form:

* horizontal radius r from sin^2 r = 2 / (K (1 + sqrt(1 - 4 lam / K)))
  (the conjugate form of the quadratic root, stable through lam = 0);
* vertical radius h by double-exponential quadrature of an integrand with
  an inverse-square-root singularity at x = r;
* the full profile by substituting x = r sin(theta), which removes the
  turning-point singularity, then accumulating ds/dtheta and dy/dtheta with
  composite Gauss panels and resampling to uniform arc length by Newton
  inversion.  The second half of the profile is the exact mirror of the
  first (turning-point symmetry), and y is normalized to vanish at the
  equator.

All factors of the integrands that vanish at the endpoints are evaluated
in factored form (never by subtracting nearly equal quantities), which is
what lets the quadratures reach 1e-10 absolute accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .errors import (
    AccuracyError,
    BracketError,
    DomainError,
    EmbeddednessBoundaryError,
    NoSphereError,
)
# AmbientPoint is not called here; bench/tracing.py counts vertex objects
# by patching this binding and expects the count to stay 0
from .geometry import AmbientPoint, BergerParams, check_unit_norm, embedding  # noqa: F401
from .profile import Trajectory, clifford_solution
from .quadrature import TANHSINH_ATOL, CumulativeGauss, tanhsinh

__all__ = [
    "SphereSolution",
    "SurfaceMesh",
    "sin2_horizontal_radius",
    "horizontal_radius",
    "vertical_radii",
    "vertical_radius",
    "is_embedded",
    "embeddedness_boundaries",
    "embeddedness_boundary",
    "build_sphere",
    "build_mesh",
    "build_torus_mesh",
    "stereographic",
    "write_obj",
]

#: |h - pi| under this band makes the embeddedness verdict explicit-boundary
EMBED_BAND = 1e-8
#: K within this of k0 takes the degenerate-threshold path
DEGENERATE_K_TOL = 1e-6
#: Gauss panels of each half-profile quadrature
PROFILE_PANELS = 256
#: bisection steps of embeddedness_boundary before it gives up
BOUNDARY_MAX_ITER = 200


@dataclass(frozen=True)
class SphereSolution:
    """A classified rotationally invariant constant-curvature sphere."""

    params: BergerParams
    K: float
    r: float
    h: float
    embedded: bool
    profile: Trajectory
    T: float
    degenerate_threshold: bool = False


@dataclass(frozen=True, eq=False)
class SurfaceMesh:
    """Triangulated surface of revolution on the unit 3-sphere.

    ``vertices`` is an (N, 4) float array of points (Re z, Im z, Re w, Im w),
    each on the unit sphere within ``UNIT_NORM_TOL``; ``triangles`` is an
    (M, 3) int array of vertex indices with consistent orientation.  For
    sphere meshes the two profile endpoints on the axis are collapsed to
    single pole vertices, at indices 0 and 1.
    """

    vertices: np.ndarray
    triangles: np.ndarray
    n_s: int
    n_t: int

    def __post_init__(self):
        check_unit_norm(self.vertices, "mesh vertices")


# ---------------------------------------------------------------------------
# radii
# ---------------------------------------------------------------------------


def _check_exists(params: BergerParams, K: float):
    if not math.isfinite(K):
        raise DomainError(f"K must be finite, got {K!r}")
    if K < params.k0:
        raise NoSphereError(K, params.k0)


def sin2_horizontal_radius(params: BergerParams, K: float) -> float:
    """sin^2 of the horizontal radius.

    Equals (1 - sqrt(1 - 4 lam / K)) / (2 lam) for lam != 0 and 1/K for
    lam = 0; implemented as the conjugate form 2 / (K (1 + sqrt(...))),
    which is exact in both branches and continuous through lam = 0.
    Always in [0, 1] for K >= k0.
    """
    _check_exists(params, K)
    return 2.0 / (K * (1.0 + math.sqrt(1.0 - 4.0 * params.lam / K)))


def _divergence(params: BergerParams, K: float):
    """The AccuracyError (achieved = inf) of a cell whose h diverges, else None:
    at the threshold K = k0 for tau > 1, taken as sin^2 r >= 1 - 1e-9."""
    if sin2_horizontal_radius(params, K) >= 1.0 - 1e-9 and params.lam < 0.0:
        return AccuracyError(
            "vertical radius diverges: the profile reaches the pole at the "
            "existence threshold K = k0 for tau > 1",
            achieved=math.inf,
        )


def horizontal_radius(params: BergerParams, K: float) -> float:
    """Horizontal radius r in [0, pi/2]: the maximum colatitude of the profile."""
    return math.asin(math.sqrt(min(1.0, sin2_horizontal_radius(params, K))))


class _Factors:
    """Factored, cancellation-free pieces of the unit-energy level relation.

    With u = sin^2 x on the sphere profile (0 <= x <= r):
      N(u) = u * poly(u), the squared numerator of dy/dx times tau cos x;
      Q(d, u) = K sin(d) sin(2 r - d) * (lam_u2 - lam u), with d = r - x,
    where lam_u2 = (1 + sqrt(1 - 4 lam / K)) / 2 is lam times the second
    root of Q(u).  Q takes the distance d to the turning point directly, so
    it vanishes there without cancellation.

    The cells are (params[i], K[i]), each with K >= k0; every constant is a
    column with one entry per cell, and ``table`` holds them as its rows.
    """

    NAMES = ("lam", "tau", "K", "r", "lam_u2", "c1", "c2", "c3")

    def __init__(self, params, K):
        cells = [self.constants(p, k) for p, k in zip(params, K)]
        self.table = np.array(cells, dtype=float).reshape(-1, 8).T.copy()
        vars(self).update(zip(self.NAMES, self.table))

    @staticmethod
    def constants(params: BergerParams, K: float) -> tuple:
        """The constants of one cell, in the order of NAMES.  A K whose r is 0,
        or whose K (1 + sqrt(1 - 4 lam / K)), c1, c2 or c3 is not finite, lies
        past the float range: DomainError."""
        r = horizontal_radius(params, K)
        lam = params.lam
        sroot = math.sqrt(1.0 - 4.0 * lam / K)
        c1 = K - 3.0 * lam - 1.0
        c2 = 4.0 * lam * lam + 4.0 * lam - 2.0 * K * lam
        c3 = lam * lam * (K - 4.0)
        if r == 0.0 or not all(map(math.isfinite, (K * (1.0 + sroot), c1, c2, c3))):
            raise DomainError(f"K={K!r} is past the float range at tau={params.tau!r}: "
                              "the radius or the level-relation factors overflow")
        return (lam, params.tau, K, r, (1.0 + sroot) / 2.0, c1, c2, c3)

    def N(self, u):
        return np.maximum(u * (self.c1 + u * (self.c2 + u * self.c3)), 0.0)

    def Q(self, d, u):
        return self.K * np.sin(d) * np.sin(2.0 * self.r - d) * (self.lam_u2 - self.lam * u)

    def dh_dx(self, x, d_left, d_right, rows):
        """The integrand of h over x in [0, r], sqrt(N) / (tau cos x sqrt(Q)),
        for the cells ``rows`` (a row of x each), with d_right = r - x."""
        fac = object.__new__(_Factors)  # the constants of those cells, as columns
        vars(fac).update(zip(self.NAMES, self.table[:, rows, None]))
        u = np.sin(x) ** 2
        return np.sqrt(fac.N(u)) / (np.cos(x) * np.sqrt(fac.Q(d_right, u))) / fac.tau


def vertical_radii(params, K):
    """h of the cells (params[i], K[i]) by one tanh-sinh kernel call, each
    with the bits a one-cell call gives it.  A cell whose h diverges, or
    whose quadrature does not converge, gets the AccuracyError that
    vertical_radius raises for it; the latter names the cell, the level
    reached and the error estimate."""
    out = [_divergence(p, k) for p, k in zip(params, K)]
    finite = [i for i, h in enumerate(out) if h is None]
    fac = _Factors([params[i] for i in finite], [K[i] for i in finite])
    for i, h, err, level in zip(finite, *tanhsinh(fac.dh_dx, np.zeros(len(finite)), fac.r)):
        out[i] = float(h) if err <= TANHSINH_ATOL else AccuracyError(
            f"tanh-sinh did not reach atol={TANHSINH_ATOL!r} at tau={params[i].tau!r}, "
            f"K={K[i]!r}: level {level}, error estimate {err:.3g}",
            achieved=float(h),
            error=float(err),
        )
    return out


def vertical_radius(params: BergerParams, K: float) -> float:
    """Vertical radius h: the fiber-direction half-extent of the sphere,

        h = (1/tau) int_0^r sqrt(cos^2 x (1-2 lam s^2)^2
              - (1 - lam s^2)(1 - K (1 - lam s^2) s^2))
            / (cos x sqrt(1 - K (1 - lam s^2) s^2)) dx,   s = sin x,

    by tanh-sinh quadrature to quadrature.TANHSINH_ATOL (the integrand has
    an inverse-square-root singularity at x = r): the one-cell call of
    vertical_radii.  At the degenerate threshold K = k0 with tau > 1 the
    profile reaches the pole and h diverges logarithmically; that case
    raises AccuracyError up front, and so does an unconverged quadrature.
    """
    (h,) = vertical_radii([params], [K])
    if isinstance(h, AccuracyError):
        raise h
    return h


def is_embedded(params: BergerParams, K: float) -> bool:
    """Embeddedness of the sphere: h < pi, strictly.

    Within EMBED_BAND of the boundary h = pi the verdict is indeterminate at
    the quadrature accuracy and EmbeddednessBoundaryError is raised instead
    of silently rounding.
    """
    try:
        h = vertical_radius(params, K)
    except AccuracyError as exc:
        if exc.achieved == math.inf:
            return False  # divergent vertical radius: certainly not embedded
        raise
    if abs(h - math.pi) < EMBED_BAND:
        raise EmbeddednessBoundaryError(h, EMBED_BAND)
    return h < math.pi


def _boundary_search(lo, flo, hi, fhi, tol):
    """The root search of h(tau, K) = pi on one K slice, as a generator.

    Bisection down to a narrow bracket, then secant refinement, stopping at
    |h - pi| <= tol.  It yields each tau where it needs f = h - pi, takes f
    back by ``send`` and returns (tau*, f(tau*)).  Raises BracketError when
    f does not change sign over [lo, hi].
    """
    if flo == 0.0:
        return lo, flo
    if fhi == 0.0:
        return hi, fhi
    if flo * fhi > 0.0:
        raise BracketError(
            f"h - pi does not change sign on [{lo!r}, {hi!r}] "
            f"(values {flo!r}, {fhi!r})"
        )
    mid, fmid = lo, flo
    for _ in range(BOUNDARY_MAX_ITER):
        mid = 0.5 * (lo + hi)
        fmid = yield mid
        if abs(fmid) <= tol:
            return mid, fmid
        if (fmid > 0.0) == (flo > 0.0):
            lo, flo = mid, fmid
        else:
            hi, fhi = mid, fmid
        # secant polish once the bracket is tight
        if hi - lo < 1e-6 * max(1.0, abs(mid)):
            a, fa, b, fb = lo, flo, hi, fhi
            for _ in range(30):
                if fb == fa:
                    break
                c = b - fb * (b - a) / (fb - fa)
                if not (lo <= c <= hi):
                    break
                fc = yield c
                if abs(fc) <= tol:
                    return c, fc
                a, fa, b, fb = b, fb, c, fc
    raise AccuracyError(
        f"embeddedness boundary did not reach |h - pi| <= {tol!r}",
        achieved=mid,
        error=abs(fmid),
    )


def embeddedness_boundaries(K, brackets, tol):
    """Roots tau* of h(tau, K[i]) = pi for several K slices in lockstep.

    ``brackets[i]`` is (tau_lo, h(tau_lo) - pi, tau_hi, h(tau_hi) - pi).
    Each step evaluates h at the next tau of every live slice with one
    vertical_radii call.  Returns per slice (tau*, h(tau*) - pi), or the
    BracketError or AccuracyError that ended its search.
    """
    searches = [_boundary_search(*bracket, tol) for bracket in brackets]
    outcomes = [None] * len(searches)
    sent = dict.fromkeys(range(len(searches)))  # slice -> f, or the error of h, for its search
    while True:
        waiting = {}  # slice -> the tau its search needs f at
        for i, f in sent.items():
            try:
                step = searches[i].throw if isinstance(f, AccuracyError) else searches[i].send
                waiting[i] = step(f)
            except StopIteration as stop:
                outcomes[i] = stop.value
            except (BracketError, AccuracyError) as exc:
                outcomes[i] = exc
        if not waiting:
            return outcomes
        params = [BergerParams(tau) for tau in waiting.values()]
        hs = vertical_radii(params, [K[i] for i in waiting])
        sent = {i: h if isinstance(h, AccuracyError) else h - math.pi for i, h in zip(waiting, hs)}


def embeddedness_boundary(
    K: float,
    tau_lo: float,
    tau_hi: float,
    *,
    tol: float = 1e-8,
) -> float:
    """Root tau* of h(tau, K) = pi on [tau_lo, tau_hi]: the search of
    embeddedness_boundaries on this one slice.  Raises BracketError when
    h - pi does not change sign over the bracket.
    """
    lo, hi = BergerParams(tau_lo), BergerParams(tau_hi)
    bracket = (lo.tau, vertical_radius(lo, K) - math.pi, hi.tau, vertical_radius(hi, K) - math.pi)
    (outcome,) = embeddedness_boundaries([K], [bracket], tol)
    if isinstance(outcome, Exception):
        raise outcome
    return outcome[0]


# ---------------------------------------------------------------------------
# profile assembly
# ---------------------------------------------------------------------------


class _HalfProfile(_Factors):
    """First half of the sphere profile, parametrized by x = r sin(theta).

    The substitution cancels the square-root turning singularity at x = r,
    so ds/dtheta and dy/dtheta are smooth on [0, pi/2] and cumulative Gauss
    panels recover s(theta) and y(theta) to near machine accuracy.
    """

    def __init__(self, params: BergerParams, K: float):
        vars(self).update(zip(self.NAMES, self.constants(params, K)))
        self._s_of_theta = CumulativeGauss(self._ds_dtheta, 0.0, math.pi / 2.0, PROFILE_PANELS)
        self._y_of_theta = CumulativeGauss(self._dy_dtheta, 0.0, math.pi / 2.0, PROFILE_PANELS)
        self.half_length = self._s_of_theta.total
        self.h = self._y_of_theta.total

    def _pieces(self, theta):
        """x, u = sin^2 x, P = 1 - lam u and Q at x = r sin(theta)."""
        r = self.r
        x = r * np.sin(theta)
        d = 2.0 * r * np.sin(0.25 * math.pi - 0.5 * theta) ** 2  # r - x, stable
        u = np.sin(x) ** 2
        P = 1.0 - self.lam * u
        return x, u, P, self.Q(d, u)

    def _ds_dtheta(self, theta):
        x, u, P, Q = self._pieces(theta)
        return self.r * np.cos(theta) * (1.0 - 2.0 * self.lam * u) * np.cos(x) / np.sqrt(Q * P)

    def _dy_dtheta(self, theta):
        x, u, P, Q = self._pieces(theta)
        return self.r * np.cos(theta) * np.sqrt(self.N(u)) / (np.cos(x) * np.sqrt(Q)) / self.tau

    def theta_of_s(self, s):
        """Invert the monotone arc length s(theta) by safeguarded Newton."""
        s = np.asarray(s, dtype=float)
        cum = self._s_of_theta.cum
        edges = self._s_of_theta.edges
        theta = np.interp(s, cum, edges)
        hi = math.pi / 2.0 - 1e-9
        for _ in range(6):
            theta = np.clip(theta, 0.0, hi)
            resid = self._s_of_theta.value(theta) - s
            theta = theta - resid / self._ds_dtheta(theta)
        worst = float(np.max(np.abs(resid)))
        if worst > 1e-12 * max(1.0, self.half_length):
            raise AccuracyError(f"arc-length inversion residual {worst!r}", achieved=worst)
        return np.clip(theta, 0.0, hi)

    def cos_alpha(self, theta):
        """cos(alpha) along the half profile (the unit-energy level relation)."""
        x, u, P, Q = self._pieces(theta)
        C = np.cos(x) ** 2
        R = (1.0 - 2.0 * self.lam * u) ** 2
        return np.sqrt(np.clip(Q * P / (R * C), 0.0, 1.0))

    def y_minus_h(self, theta):
        """y normalized to vanish at the equator."""
        return self._y_of_theta.value(theta) - self.h


def build_sphere(
    params: BergerParams,
    K: float,
    samples: int = 512,
    *,
    spacing: Optional[float] = None,
) -> SphereSolution:
    """Assemble the sphere solution for curvature K >= k0.

    Existence is the closed form K >= k0 (NoSphereError below it).  Arc
    length and fiber angle are recovered along the monotone half x in
    [0, r] of the unit-energy level curve and mirrored through the turning
    point; the fiber angle is normalized to vanish at the equator, so the
    profile runs from (x, y) = (0, -h) to (0, +h).  The profile is built as
    arrays, with no per-sample objects.

    ``samples`` is rounded up to an odd count so the equator is an exact
    sample; ``spacing`` (if given) overrides it with a uniform arc-length
    step.  Within 1e-6 of the threshold K = k0 the solution is flagged
    ``degenerate_threshold``: the closed forms remain valid for tau <= 1,
    while for tau > 1 the profile reaches the pole, the vertical radius
    diverges and AccuracyError is raised.
    """
    divergence = _divergence(params, K)
    if divergence is not None:
        raise divergence
    degenerate = (K - params.k0) <= DEGENERATE_K_TOL * max(1.0, abs(params.k0))

    half = _HalfProfile(params, K)
    T = 2.0 * half.half_length
    h = half.h

    if spacing is not None:
        if spacing <= 0.0:
            raise DomainError("spacing must be positive")
        m = max(32, int(round(half.half_length / spacing)))
    else:
        if samples < 65:
            raise DomainError("need at least 65 samples")
        m = samples // 2
    n = 2 * m + 1
    s_half = np.linspace(0.0, half.half_length, m + 1)

    theta = half.theta_of_s(s_half[:-1])  # equator handled exactly below
    x_half = np.concatenate([half.r * np.sin(theta), [half.r]])
    cosa = np.concatenate([half.cos_alpha(theta), [0.0]])
    alpha_half = np.arccos(np.clip(cosa, -1.0, 1.0))
    y_half = np.concatenate([half.y_minus_h(theta), [0.0]])
    # exact endpoint on the axis
    x_half[0], alpha_half[0], y_half[0] = 0.0, 0.0, -h

    s = np.linspace(0.0, T, n)
    x = np.concatenate([x_half, x_half[-2::-1]])
    y = np.concatenate([y_half, -y_half[-2::-1]])
    alpha = np.concatenate([alpha_half, math.pi - alpha_half[-2::-1]])

    profile = Trajectory(params, K, s, x, y, alpha, "boundary_axis")
    return SphereSolution(
        params=params,
        K=K,
        r=half.r,
        h=h,
        embedded=h < math.pi,
        profile=profile,
        T=T,
        degenerate_threshold=degenerate,
    )


# ---------------------------------------------------------------------------
# meshes
# ---------------------------------------------------------------------------


def _rings(x, y, n_t: int) -> np.ndarray:
    """Ring product of profile samples (x, y) with t = 2 pi j / n_t:
    the (len(x) * n_t, 4) points (e^{iy} cos x, e^{it} sin x), ring by ring."""
    t = np.arange(n_t) * (2.0 * math.pi / n_t)
    return embedding(x[:, None], y[:, None], t).reshape(-1, 4)


def _quads(grid: np.ndarray) -> np.ndarray:
    """Quad-strip triangulation between consecutive rows of the vertex index
    grid (rows are rings, columns wrap around the axis): quad
    (a, b, c, d) = ((i, j), (i+1, j), (i+1, j+1), (i, j+1)) splits into
    (a, b, c) and (a, c, d)."""
    a, b = grid[:-1], grid[1:]
    d, c = np.roll(a, -1, axis=1), np.roll(b, -1, axis=1)
    return np.stack([a, b, c, a, c, d], axis=-1).reshape(-1, 3)


def build_mesh(sol: SphereSolution, n_t: int = 128) -> SurfaceMesh:
    """Revolve the sphere profile through t in [0, 2 pi).

    The axis endpoints (x = 0) collapse to single pole vertices; the
    triangulation is a fan at each pole plus diagonal-split quads between
    consecutive interior rings, all wound consistently.  Vertex count is
    n_interior * n_t + 2 and the Euler characteristic is 2.
    """
    if n_t < 3:
        raise DomainError("n_t must be at least 3")
    _, x, y, _ = sol.profile.arrays()
    interior = np.sin(x) > 1e-9
    n_rings = int(np.count_nonzero(interior))
    if n_rings < 3:
        raise DomainError("profile too coarse to mesh (need >= 3 interior samples)")
    # each axis endpoint is a ring at x = 0 collapsed to one vertex
    poles = _rings(np.zeros(2), y[[0, -1]], 1)
    verts = np.concatenate([poles, _rings(x[interior], y[interior], n_t)])

    grid = 2 + np.arange(n_rings * n_t).reshape(n_rings, n_t)
    first, last = grid[0], grid[-1]
    tris = np.concatenate([
        np.stack([np.zeros_like(first), first, np.roll(first, -1)], axis=-1),
        _quads(grid),
        np.stack([np.ones_like(last), np.roll(last, -1), last], axis=-1),
    ])
    return SurfaceMesh(verts, tris, n_rings, n_t)


def build_torus_mesh(
    params: BergerParams, x0: float, n_s: int = 64, n_t: int = 32
) -> SurfaceMesh:
    """Mesh of the Clifford torus at colatitude x0 (wraps in both directions)."""
    if n_s < 3 or n_t < 3:
        raise DomainError("need n_s >= 3 and n_t >= 3")
    traj = clifford_solution(params, x0, n_samples=n_s + 1)
    # the last sample repeats the first circle
    verts = _rings(traj.x[:-1], traj.y[:-1], n_t)
    grid = np.arange(n_s * n_t).reshape(n_s, n_t)
    tris = _quads(np.concatenate([grid, grid[:1]]))
    return SurfaceMesh(verts, tris, n_s, n_t)


# ---------------------------------------------------------------------------
# export
# ---------------------------------------------------------------------------

#: projection pole used for OBJ viewing, as an R^4 = (Re z, Im z, Re w, Im w) point
PROJECTION_POLE = (0.0, 0.0, 0.0, -1.0)


def stereographic(v4) -> np.ndarray:
    """Stereographic projection R^4 -> R^3 from (0, 0, 0, -1).

    Takes one point of shape (4,) or an (N, 4) array and projects along the
    last axis; DomainError if any point is at the projection pole.  A
    viewing map only: it distorts the Berger metric, and no projection is
    canonical for these surfaces.
    """
    v4 = np.asarray(v4, dtype=float)
    denom = 1.0 + v4[..., 3]
    if np.any(np.abs(denom) < 1e-12):
        raise DomainError("vertex at the projection pole (0, 0, 0, -1)")
    return v4[..., :3] / denom[..., None]


def write_obj(mesh: SurfaceMesh, fileobj, *, header=()) -> None:
    """Write the mesh as Wavefront OBJ after stereographic projection.

    Header comments record the projection pole and any caller-supplied
    context lines (tau, K, tool version).
    """
    fileobj.write("# berger-cgc surface mesh\n")
    for line in header:
        fileobj.write(f"# {line}\n")
    fileobj.write(f"# stereographic projection from pole {PROJECTION_POLE}\n")
    from . import textout  # formats numbers only when a file is written

    textout.write_rows(fileobj, stereographic(mesh.vertices).T, sep=" ", prefix="v ")
    textout.write_rows(fileobj, (mesh.triangles + 1).T, sep=" ", prefix="f ")
