"""Quadrature kernels used by the sphere constructor.

Two tools live here:

* :func:`tanhsinh` -- double-exponential quadrature on a finite interval.
  It absorbs inverse-square-root endpoint singularities and its convergence
  is verified by level doubling.  The integrand receives the distances to
  both endpoints, computed from the transform without cancellation; this is
  what lets integrands like 1/sqrt(b - x) be evaluated accurately at nodes
  within 1e-300 of the endpoint.

* :class:`CumulativeGauss` -- a fixed composite Gauss-Legendre rule that
  exposes the running integral x -> int_a^x f as an evaluable function.
  Used to recover arc length and fiber angle along sphere profiles, where
  many partial integrals of a smooth integrand are needed at machine-level
  consistency with each other.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError

__all__ = ["tanhsinh", "CumulativeGauss"]

_PI_2 = math.pi / 2.0
#: Gauss-Legendre nodes per CumulativeGauss panel
GAUSS_NODES = 16
#: absolute error target of tanhsinh, met when two successive halvings agree
TANHSINH_ATOL = 1e-10
#: last halving level of tanhsinh before it gives up
TANHSINH_MAX_LEVEL = 12


def tanhsinh(f, a: float, b: float):
    """Integrate ``f`` over [a, b] by the double-exponential rule, to TANHSINH_ATOL.

    Parameters
    ----------
    f : callable
        Vectorized integrand ``f(x, d_left, d_right)`` where ``d_left`` and
        ``d_right`` are the exact distances ``x - a`` and ``b - x``.
        Integrands with endpoint singularities should be written in terms of
        the distance arguments.
    a, b : interval endpoints, a < b.

    Returns
    -------
    (value, error_estimate)

    Raises
    ------
    AccuracyError
        If level doubling has not converged at TANHSINH_MAX_LEVEL; the best
        value and its error estimate ride on the exception.
    """
    if not (b > a):
        raise ValueError(f"need a < b, got [{a!r}, {b!r}]")
    span = b - a
    half = 0.5 * span
    # cap the tail so endpoint distances stay >= ~1e-300 and exp(2z) finite
    z_cap = 0.5 * math.log(span * 1e300)
    t_max = math.asinh(z_cap / _PI_2)

    raw_sum = 0.0
    prev = None
    est = math.nan
    err = math.inf
    for level in range(TANHSINH_MAX_LEVEL + 1):
        h = 1.0 / (1 << level)
        if level == 0:
            t = np.arange(0, int(t_max / h) + 1) * h
        else:
            t = np.arange(1, int(t_max / h) + 1, 2) * h  # only the new nodes
        z = _PI_2 * np.sinh(t)
        d_far = span / (1.0 + np.exp(2.0 * z))  # distance to the far endpoint
        w = half * _PI_2 * np.cosh(t) / np.cosh(z) ** 2
        fp = f(b - d_far, span - d_far, d_far)  # nodes at +t
        fm = f(a + d_far, d_far, span - d_far)  # mirrored nodes at -t
        terms = w * (fp + fm)
        if level == 0:
            terms[0] *= 0.5  # the center node t = 0 appears in both halves
        raw_sum += float(np.sum(terms))
        est = raw_sum * h
        if prev is not None:
            err = abs(est - prev)
            if err <= TANHSINH_ATOL:
                return est, err
        prev = est
    raise AccuracyError(
        f"tanh-sinh did not reach atol={TANHSINH_ATOL!r} at level {TANHSINH_MAX_LEVEL}",
        achieved=est,
        error=err,
    )


class CumulativeGauss:
    """Running integral of a smooth vectorized integrand on [a, b].

    The interval is split into ``n_panels`` equal panels; panel-boundary
    cumulative sums use a GAUSS_NODES-point Gauss-Legendre rule, and
    :meth:`value` evaluates int_a^x with the same rule on the partial panel,
    so all returned values are mutually consistent to rule accuracy.
    """

    def __init__(self, f, a: float, b: float, n_panels: int):
        self.f = f
        self.a = float(a)
        self.b = float(b)
        self.n_panels = int(n_panels)
        nodes, weights = np.polynomial.legendre.leggauss(GAUSS_NODES)
        self._nodes = nodes  # on [-1, 1]
        self._weights = weights
        self.edges = np.linspace(self.a, self.b, self.n_panels + 1)
        width = (self.b - self.a) / self.n_panels
        # all panel integrals in one vectorized sweep
        mid = 0.5 * (self.edges[:-1] + self.edges[1:])
        pts = mid[:, None] + 0.5 * width * nodes[None, :]
        vals = self.f(pts.ravel()).reshape(pts.shape)
        panel_ints = 0.5 * width * (vals @ weights)
        self.cum = np.concatenate([[0.0], np.cumsum(panel_ints)])

    @property
    def total(self) -> float:
        """int_a^b f."""
        return float(self.cum[-1])

    def value(self, x):
        """Vectorized int_a^x f for x in [a, b]."""
        x = np.asarray(x, dtype=float)
        scalar = x.ndim == 0
        x = np.atleast_1d(x)
        idx = np.clip(
            np.searchsorted(self.edges, x, side="right") - 1, 0, self.n_panels - 1
        )
        lo = self.edges[idx]
        halfw = 0.5 * (x - lo)
        pts = (lo + halfw)[:, None] + halfw[:, None] * self._nodes[None, :]
        vals = self.f(pts.ravel()).reshape(pts.shape)
        partial = halfw * (vals @ self._weights)
        out = self.cum[idx] + partial
        return float(out[0]) if scalar else out
