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
from .geometry import UNIT_NORM_TOL, AmbientPoint, BergerParams, make_params  # noqa: F401
from .profile import Trajectory, _make_trajectory, clifford_solution
from .quadrature import CumulativeGauss, tanhsinh

__all__ = [
    "SphereSolution",
    "SurfaceMesh",
    "sin2_horizontal_radius",
    "horizontal_radius",
    "vertical_radius",
    "is_embedded",
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
        off = np.abs(np.sum(self.vertices * self.vertices, axis=1) - 1.0)
        if not np.all(off <= UNIT_NORM_TOL):  # also rejects non-finite vertices
            raise DomainError(
                f"mesh vertices off the unit sphere: ||v|^2 - 1| up to {np.max(off)!r}"
            )


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
    """

    def __init__(self, params: BergerParams, K: float):
        lam = params.lam
        self.lam, self.tau, self.K = lam, params.tau, K
        sroot = math.sqrt(1.0 - 4.0 * lam / K)
        self.lam_u2 = (1.0 + sroot) / 2.0
        self.r = horizontal_radius(params, K)
        self.c1 = K - 3.0 * lam - 1.0
        self.c2 = 4.0 * lam * lam + 4.0 * lam - 2.0 * K * lam
        self.c3 = lam * lam * (K - 4.0)

    def N(self, u):
        return np.maximum(u * (self.c1 + u * (self.c2 + u * self.c3)), 0.0)

    def Q(self, d, u):
        return self.K * np.sin(d) * np.sin(2.0 * self.r - d) * (self.lam_u2 - self.lam * u)


def _h_integrand(params: BergerParams, K: float):
    """Vectorized integrand of the vertical radius over x in [0, r],
    sqrt(N) / (tau cos x sqrt(Q)), taking d = r - x as the right-endpoint
    distance."""
    fac = _Factors(params, K)

    def f(x, d_left, d_right):
        u = np.sin(x) ** 2
        return np.sqrt(fac.N(u)) / (np.cos(x) * np.sqrt(fac.Q(d_right, u))) / fac.tau

    return f, fac.r


def vertical_radius(params: BergerParams, K: float, *, atol: float = 1e-10) -> float:
    """Vertical radius h: the fiber-direction half-extent of the sphere,

        h = (1/tau) int_0^r sqrt(cos^2 x (1-2 lam s^2)^2
              - (1 - lam s^2)(1 - K (1 - lam s^2) s^2))
            / (cos x sqrt(1 - K (1 - lam s^2) s^2)) dx,   s = sin x,

    by tanh-sinh quadrature (the integrand has an inverse-square-root
    singularity at x = r).  At the degenerate threshold K = k0 with
    tau > 1 the profile reaches the pole and h diverges logarithmically;
    that case raises AccuracyError up front.
    """
    _check_exists(params, K)
    u1 = sin2_horizontal_radius(params, K)
    if u1 >= 1.0 - 1e-9 and params.lam < 0.0:
        raise AccuracyError(
            "vertical radius diverges: the profile reaches the pole at the "
            "existence threshold K = k0 for tau > 1",
            achieved=math.inf,
        )
    f, r = _h_integrand(params, K)
    value, _ = tanhsinh(f, 0.0, r, atol=atol)
    return value


def is_embedded(params: BergerParams, K: float, *, band: float = EMBED_BAND) -> bool:
    """Embeddedness of the sphere: h < pi, strictly.

    Within ``band`` of the boundary h = pi the verdict is indeterminate at
    the quadrature accuracy and EmbeddednessBoundaryError is raised instead
    of silently rounding.
    """
    try:
        h = vertical_radius(params, K)
    except AccuracyError as exc:
        if exc.achieved == math.inf:
            return False  # divergent vertical radius: certainly not embedded
        raise
    if abs(h - math.pi) < band:
        raise EmbeddednessBoundaryError(h, band)
    return h < math.pi


def embeddedness_boundary(
    K: float,
    tau_lo: float,
    tau_hi: float,
    *,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> float:
    """Root tau* of h(tau, K) = pi on [tau_lo, tau_hi].

    Bisection down to a narrow bracket, then secant refinement, stopping at
    |h - pi| <= tol.  Raises BracketError when h - pi does not change sign
    over the bracket.
    """

    def f(tau):
        return vertical_radius(make_params(tau), K) - math.pi

    lo, hi = float(tau_lo), float(tau_hi)
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if flo * fhi > 0.0:
        raise BracketError(
            f"h - pi does not change sign on [{tau_lo!r}, {tau_hi!r}] "
            f"(values {flo!r}, {fhi!r})"
        )
    mid, fmid = lo, flo
    for _ in range(max_iter):
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if abs(fmid) <= tol:
            return mid
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
                fc = f(c)
                if abs(fc) <= tol:
                    return c
                a, fa, b, fb = b, fb, c, fc
    raise AccuracyError(
        f"embeddedness boundary did not reach |h - pi| <= {tol!r}",
        achieved=mid,
        error=abs(fmid),
    )


# ---------------------------------------------------------------------------
# profile assembly
# ---------------------------------------------------------------------------


class _HalfProfile(_Factors):
    """First half of the sphere profile, parametrized by x = r sin(theta).

    The substitution cancels the square-root turning singularity at x = r,
    so ds/dtheta and dy/dtheta are smooth on [0, pi/2] and cumulative Gauss
    panels recover s(theta) and y(theta) to near machine accuracy.
    """

    def __init__(self, params: BergerParams, K: float, n_panels: int = 256):
        super().__init__(params, K)
        self._s_of_theta = CumulativeGauss(self._ds_dtheta, 0.0, math.pi / 2.0, n_panels)
        self._y_of_theta = CumulativeGauss(self._dy_dtheta, 0.0, math.pi / 2.0, n_panels)
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
        theta = np.clip(theta, 0.0, hi)
        return theta

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
    n_panels: int = 256,
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
    _check_exists(params, K)
    u1 = sin2_horizontal_radius(params, K)
    if u1 >= 1.0 - 1e-9 and params.lam < 0.0:
        raise AccuracyError(
            "sphere profile at the tau > 1 threshold reaches the pole with "
            "divergent fiber winding; the vertical radius is infinite",
            achieved=math.inf,
        )
    degenerate = (K - params.k0) <= DEGENERATE_K_TOL * max(1.0, abs(params.k0))

    half = _HalfProfile(params, K, n_panels=n_panels)
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

    profile = _make_trajectory(params, K, s, x, y, alpha, "boundary_axis")
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
    cx, sx = np.cos(x)[:, None], np.sin(x)[:, None]
    v = np.empty((len(x), n_t, 4))
    v[..., 0] = np.cos(y)[:, None] * cx
    v[..., 1] = np.sin(y)[:, None] * cx
    v[..., 2] = np.cos(t) * sx
    v[..., 3] = np.sin(t) * sx
    return v.reshape(-1, 4)


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
    p3 = stereographic(mesh.vertices)
    fileobj.write("v %.17g %.17g %.17g\n" * len(p3) % tuple(p3.ravel().tolist()))
    faces = mesh.triangles + 1
    fileobj.write("f %d %d %d\n" * len(faces) % tuple(faces.ravel().tolist()))
