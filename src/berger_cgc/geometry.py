"""Berger-sphere ambient primitives.

The Berger sphere with fiber scaling ``tau`` is the unit 3-sphere in C^2
carrying the metric

    g_tau(u, v) = <u, v> - (1 - tau^2) <u, V> <v, V>,

where <,> is the Euclidean inner product of R^4 = C^2 and V_(z,w) = (iz, iw)
spans the Hopf-fiber direction.  tau = 1 is the round sphere.  Points and
tangent vectors are (..., 4) float arrays (Re z, Im z, Re w, Im w), and the
functions here broadcast over their leading axes.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError

__all__ = [
    "BergerParams",
    "AmbientPoint",
    "make_params",
    "embedding",
    "metric",
    "hopf_project",
    "sectional_curvature",
    "fiber_direction",
    "tangent_projection",
]

#: tolerance for |z|^2 + |w|^2 = 1 on ambient points
UNIT_NORM_TOL = 1e-12
#: tolerance for tangency (Euclidean orthogonality to the base point)
TANGENT_TOL = 1e-10


@dataclass(frozen=True)
class BergerParams:
    """Ambient geometry constants for one Berger sphere.

    Attributes
    ----------
    tau : fiber scaling, > 0.
    lam : 1 - tau^2.  Negative for tau > 1, zero for the round sphere.
    k0 : sharp existence threshold for rotationally invariant
         constant-curvature spheres.
    kp : supremum of the ambient sectional curvature (the bound entering
         Pogorelov-type existence results).  k0 <= kp, equality iff tau <= 1.
    """

    tau: float
    lam: float = field(init=False)
    k0: float = field(init=False)
    kp: float = field(init=False)

    def __post_init__(self):
        tau = self.tau
        if not (isinstance(tau, (int, float)) and math.isfinite(tau) and tau > 0):
            raise DomainError(f"tau must be a finite positive real, got {tau!r}")
        tau = float(tau)
        t2 = tau * tau
        if not (t2 >= sys.float_info.min and 1.0 / t2 >= sys.float_info.min):
            raise DomainError(f"tau^2 and 1/tau^2 must be normal floats, got tau = {tau!r}")
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "lam", 1.0 - t2)
        if tau <= 1.0:
            # 4 - 3 tau^2, written as the sectional-curvature expression at
            # nu = 1 so the threshold is bit-identical to its realized maximum
            k0 = kp = t2 + 4.0 * (1.0 - t2)
        else:
            k0 = 1.0 / t2
            kp = t2
        object.__setattr__(self, "k0", k0)
        object.__setattr__(self, "kp", kp)


def make_params(tau: float) -> BergerParams:
    """Build the derived constants for the Berger sphere with fiber scaling tau."""
    return BergerParams(tau)


@dataclass(frozen=True)
class AmbientPoint:
    """A point (z, w) of the unit 3-sphere in C^2; no library function takes one."""

    z: complex
    w: complex

    def __post_init__(self):
        check_unit_norm(np.array([self.z.real, self.z.imag, self.w.real, self.w.imag]), "(z, w)")


def check_unit_norm(p, what):
    """Raise DomainError unless every (..., 4) row of p lies on the unit
    sphere within UNIT_NORM_TOL; non-finite rows are rejected too."""
    off = np.abs(np.sum(p * p, axis=-1) - 1.0)
    if not np.all(off <= UNIT_NORM_TOL):
        raise DomainError(f"{what} off the unit sphere: ||v|^2 - 1| up to {np.max(off)!r}")


def _dot(u, v):
    return np.sum(u * v, axis=-1)


def embedding(x, y, t) -> np.ndarray:
    """Points Phi = (e^{iy} cos x, e^{it} sin x) of the surface of revolution
    of the profile (x, y), as (..., 4) arrays; x, y and t broadcast, and each
    trigonometric function runs on its input as given, before broadcasting."""
    cx, sx = np.cos(x), np.sin(x)
    v = np.empty(np.broadcast_shapes(np.shape(x), np.shape(y), np.shape(t)) + (4,))
    v[..., 0] = np.cos(y) * cx
    v[..., 1] = np.sin(y) * cx
    v[..., 2] = np.cos(t) * sx
    v[..., 3] = np.sin(t) * sx
    return v


def fiber_direction(p) -> np.ndarray:
    """The Hopf-fiber field V = (iz, iw) at the (..., 4) points p.
    g_tau(V, V) = tau^2."""
    p = np.asarray(p, dtype=float)
    return np.stack([-p[..., 1], p[..., 0], -p[..., 3], p[..., 2]], axis=-1)


def tangent_projection(p, v) -> np.ndarray:
    """Project R^4 vectors v onto the tangent spaces at the unit points p;
    both are (..., 4) arrays and broadcast."""
    p, v = np.asarray(p, dtype=float), np.asarray(v, dtype=float)
    return v - _dot(v, p)[..., None] * p


def metric(params: BergerParams, p, u, v):
    """Berger metric g_tau(u, v) of tangent vectors u and v at base points p,
    all (..., 4) arrays that broadcast.  DomainError if any p is off the unit
    sphere or any u or v is not tangent there (|<u, p>| over TANGENT_TOL)."""
    p, u, v = (np.asarray(a, dtype=float) for a in (p, u, v))
    check_unit_norm(p, "base point")
    for w in (u, v):
        if not np.all(np.abs(_dot(w, p)) <= TANGENT_TOL):
            raise DomainError("vector is not tangent to the sphere at its base point")
    V = fiber_direction(p)
    return _dot(u, v) - params.lam * _dot(u, V) * _dot(v, V)


def hopf_project(p) -> np.ndarray:
    """Hopf fibration (z, w) -> (z conj(w), (|z|^2 - |w|^2)/2) of (..., 4) points.

    The image lies on the sphere of radius 1/2; the map is a Riemannian
    submersion onto the 2-sphere of curvature 4 and is invariant under the
    fiber action (z, w) -> (e^{i t} z, e^{i t} w).
    """
    a, b, c, d = np.moveaxis(np.asarray(p, dtype=float), -1, 0)
    return np.stack([a * c + b * d, b * c - a * d, 0.5 * (a * a + b * b - c * c - d * d)], axis=-1)


def sectional_curvature(params: BergerParams, nu: float) -> float:
    """Sectional curvature of a tangent plane whose unit normal N has
    g_tau(N, xi) = nu, where xi is the unit Killing field along the fibers.

    Equals tau^2 + 4 (1 - tau^2) nu^2; its maximum over |nu| <= 1 is the
    threshold ``kp`` (attained at nu = +-1 for tau < 1, at nu = 0 for
    tau > 1).
    """
    if not (math.isfinite(nu) and abs(nu) <= 1.0):
        raise DomainError(f"nu must lie in [-1, 1], got {nu!r}")
    t2 = params.tau * params.tau
    return t2 + 4.0 * (1.0 - t2) * nu * nu
