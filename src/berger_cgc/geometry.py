"""Berger-sphere ambient primitives.

The Berger sphere with fiber scaling ``tau`` is the unit 3-sphere in C^2
carrying the metric

    g_tau(u, v) = <u, v> - (1 - tau^2) <u, V> <v, V>,

where <,> is the Euclidean inner product of R^4 = C^2 and V_(z,w) = (iz, iw)
spans the Hopf-fiber direction.  tau = 1 is the round sphere.  Everything in
this module is a pure function of immutable values.
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
    "TangentVector",
    "make_params",
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
    """A point (z, w) of the unit 3-sphere in C^2."""

    z: complex
    w: complex

    def __post_init__(self):
        n = abs(self.z) ** 2 + abs(self.w) ** 2
        if not math.isfinite(n) or abs(n - 1.0) > UNIT_NORM_TOL:
            raise DomainError(f"(z, w) not on the unit sphere: |z|^2+|w|^2 = {n!r}")

    def vec4(self) -> np.ndarray:
        """Coordinates as (Re z, Im z, Re w, Im w) in R^4."""
        return np.array(
            [self.z.real, self.z.imag, self.w.real, self.w.imag], dtype=float
        )

    @staticmethod
    def from_vec4(v) -> "AmbientPoint":
        v = np.asarray(v, dtype=float)
        return AmbientPoint(complex(v[0], v[1]), complex(v[2], v[3]))


@dataclass(frozen=True, eq=False)
class TangentVector:
    """A tangent vector to the 3-sphere, stored as a raw R^4 quadruple.

    Tangency means Euclidean orthogonality to the base point; the Berger
    metric only ever needs real inner products, so no complex structure is
    kept on the vector itself.
    """

    vec: np.ndarray
    base: AmbientPoint

    def __post_init__(self):
        v = np.asarray(self.vec, dtype=float)
        if v.shape != (4,):
            raise DomainError(f"tangent vector must have 4 components, got {v.shape}")
        object.__setattr__(self, "vec", v)
        if abs(float(v @ self.base.vec4())) > TANGENT_TOL:
            raise DomainError("vector is not tangent to the sphere at its base point")


def fiber_direction(p: AmbientPoint) -> TangentVector:
    """The Hopf-fiber field V = (iz, iw) at p.  g_tau(V, V) = tau^2."""
    z, w = p.z, p.w
    return TangentVector(np.array([-z.imag, z.real, -w.imag, w.real]), p)


def tangent_projection(p: AmbientPoint, v) -> TangentVector:
    """Project an arbitrary R^4 vector onto the tangent space at p."""
    v = np.asarray(v, dtype=float)
    b = p.vec4()
    return TangentVector(v - (v @ b) * b, p)


def _same_base(u: TangentVector, v: TangentVector) -> bool:
    return bool(np.max(np.abs(u.base.vec4() - v.base.vec4())) <= 1e-12)


def metric(params: BergerParams, u: TangentVector, v: TangentVector) -> float:
    """Berger metric g_tau(u, v) at the common base point of u and v."""
    if not _same_base(u, v):
        raise DomainError("metric arguments must share the same base point")
    V = fiber_direction(u.base).vec
    return float(u.vec @ v.vec - params.lam * (u.vec @ V) * (v.vec @ V))


def hopf_project(p: AmbientPoint) -> np.ndarray:
    """Hopf fibration (z, w) -> (z conj(w), (|z|^2 - |w|^2)/2) in R^3.

    The image lies on the sphere of radius 1/2; the map is a Riemannian
    submersion onto the 2-sphere of curvature 4 and is invariant under the
    fiber action (z, w) -> (e^{i t} z, e^{i t} w).
    """
    zw = p.z * p.w.conjugate()
    third = 0.5 * (abs(p.z) ** 2 - abs(p.w) ** 2)
    return np.array([zw.real, zw.imag, third])


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
