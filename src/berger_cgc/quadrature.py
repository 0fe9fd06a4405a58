"""Quadrature kernels used by the sphere constructor.

Two tools live here:

* :func:`tanhsinh` -- double-exponential quadrature on many finite
  intervals at once.  It absorbs inverse-square-root endpoint singularities
  and verifies each interval's convergence by level doubling.  Every level
  builds its nodes once and evaluates the integrand on a (cells x nodes)
  array; cells that have converged drop out, and each cell's value carries
  the bits the one-interval rule gives it.  The integrand receives the
  distances to both endpoints, computed from the transform without
  cancellation; this is what lets integrands like 1/sqrt(b - x) be
  evaluated accurately at nodes within 1e-300 of the endpoint.

* :class:`CumulativeGauss` -- a fixed composite Gauss-Legendre rule that
  exposes the running integral x -> int_a^x f as an evaluable function.
  Used to recover arc length and fiber angle along sphere profiles, where
  many partial integrals of a smooth integrand are needed at machine-level
  consistency with each other.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["tanhsinh", "CumulativeGauss"]

_PI_2 = math.pi / 2.0
#: Gauss-Legendre nodes per CumulativeGauss panel
GAUSS_NODES = 16
#: absolute error target of tanhsinh, met when two successive halvings agree
TANHSINH_ATOL = 1e-10
#: last halving level of tanhsinh before it gives up
TANHSINH_MAX_LEVEL = 12


@functools.lru_cache(maxsize=64)
def _nodes(level: int, count: int):
    """The first ``count`` nodes t that a level adds, with 1 + exp(2 z), cosh t
    and cosh(z)^2 at z = pi/2 sinh t, as read-only arrays."""
    first, step = (0, 1) if level == 0 else (1, 2)  # level > 0: only the new nodes
    t = np.arange(first, first + step * count, step) * (1.0 / (1 << level))
    z = _PI_2 * np.sinh(t)
    nodes = (t, 1.0 + np.exp(2.0 * z), np.cosh(t), np.cosh(z) ** 2)
    for arr in nodes:
        arr.flags.writeable = False
    return nodes


def tanhsinh(f, a, b):
    """Integrate over the n intervals [a_i, b_i], a_i < b_i, to TANHSINH_ATOL each.

    ``f(x, d_left, d_right, rows)`` is the vectorized integrand of the cells
    ``rows`` (indices into the n), one row of x per cell; ``d_left`` and
    ``d_right`` are the exact distances ``x - a`` and ``b - x``, in which
    integrands with endpoint singularities should be written.  A row may run
    past its cell's last node: those values are not summed.

    Returns (values, errors, levels), arrays of n: each cell's value, error
    estimate and last halving level.  A cell converged when its error is at
    most TANHSINH_ATOL; one that did not stops at TANHSINH_MAX_LEVEL.
    """
    a, b = np.asarray(a, dtype=float)[:, None], np.asarray(b, dtype=float)[:, None]
    if not np.all(b > a):
        i = int(np.argmin(b > a))
        raise ValueError(f"need a < b, got {[float(a[i, 0]), float(b[i, 0])]}")
    live = np.arange(len(a))  # the cells still refining; their state is compacted alike
    span = b - a
    hw = 0.5 * span * _PI_2  # the one-interval rule's half * _PI_2
    # cap the tail so endpoint distances stay >= ~1e-300 and exp(2z) finite
    t_max = np.array([math.asinh(0.5 * math.log(s * 1e300) / _PI_2)
                      for s in span[:, 0].tolist()])
    values, errors, levels = np.zeros(len(a)), np.zeros(len(a)), np.zeros(len(a), dtype=int)
    raw_sum = prev = values
    for level in range(TANHSINH_MAX_LEVEL + 1):
        if not live.size:
            break
        last = (t_max * (1 << level)).astype(int)  # int(t_max / h), the last node index
        counts = last + 1 if level == 0 else (last + 1) // 2  # each cell's node count
        t, e, ct, cz2 = _nodes(level, int(counts.max()))
        d_far = span / e  # distance to the far endpoint
        d_near = span - d_far
        w = hw * ct / cz2
        fp = f(b - d_far, d_near, d_far, live)  # nodes at +t
        fm = f(a + d_far, d_far, d_near, live)  # mirrored nodes at -t
        terms = w * (fp + fm)
        if level == 0:
            terms[:, 0] *= 0.5  # the center node t = 0 appears in both halves
        # each row summed on its own, over its own nodes: numpy's pairwise sum
        # depends on the length, so padding would change the bits
        raw_sum = raw_sum + [np.add.reduce(row[:c]) for row, c in zip(terms, counts.tolist())]
        est = raw_sum / (1 << level)  # the one-interval rule's raw_sum * h
        err = np.abs(est - prev)
        done = (err <= TANHSINH_ATOL) & (level > 0) | (level == TANHSINH_MAX_LEVEL)
        if done.any():
            values[live[done]], errors[live[done]], levels[live[done]] = est[done], err[done], level
            live, a, b, span, hw, t_max, raw_sum, est = (
                v[~done] for v in (live, a, b, span, hw, t_max, raw_sum, est))
        prev = est
    return values, errors, levels


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
