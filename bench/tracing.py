"""Spans and counters recorded around the program's public functions.

The wrappers are installed from outside, on the name each caller looks up:
``cli`` calls ``sphere.build_sphere`` through the ``sphere`` module, while
``sphere`` calls ``tanhsinh`` and ``CumulativeGauss`` through its own
namespace, and ``profile`` calls ``solve_ivp`` through its own.  Spans are
kept in memory as (name, start, end, parent) and written out when the run
ends.  A span's self time is its duration minus the time its child spans
cover.
"""

from __future__ import annotations

import json
from collections import defaultdict
from time import perf_counter

ROOT = "cli.main"


class Tracer:
    """Collects spans (name, start, end, parent index) and named counters."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self._stack = []

    def wrap(self, name, fn, on_result=None):
        """``fn`` recorded as one span per call; ``on_result(result)`` may add counts."""

        def traced(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append(None)
            parent = self._stack[-1] if self._stack else -1
            self._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def counted(self, name, fn, size=lambda args, result: 1):
        """``fn`` with no span, adding ``size(args, result)`` to counter ``name``."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.counts[name] += size(args, result)
            return result

        return wrapper

    def dump(self, path):
        with open(path, "w") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


def install(tracer: Tracer):
    """Wrap the program's public functions where their callers look them up.

    Returns a function that restores the original bindings.
    """
    import berger_cgc.phase as phase
    import berger_cgc.profile as profile
    import berger_cgc.sphere as sphere

    saved = []

    def patch(module, attr, new):
        saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def add(counter, amount):
        tracer.counts[counter] += amount

    def states(traj):
        add("profile.states", len(traj.states))

    # phase
    patch(phase, "trace_level_curve", tracer.wrap(
        "phase.trace_level_curve", phase.trace_level_curve,
        lambda c: add("phase.trace_level_curve.points", len(c.points))))
    patch(phase, "energy_values", tracer.wrap("phase.energy_values", phase.energy_values))

    # profile
    patch(profile, "integrate", tracer.wrap("profile.integrate", profile.integrate, states))
    patch(profile, "apply_symmetry", tracer.wrap(
        "profile.apply_symmetry", profile.apply_symmetry, states))
    patch(profile, "solve_ivp", tracer.counted(
        "profile.integrate.nfev", profile.solve_ivp, lambda args, res: res.nfev))
    patch(profile, "rhs_residual", tracer.wrap("profile.rhs_residual", profile.rhs_residual))
    patch(profile, "frobenius_residual", tracer.wrap(
        "profile.frobenius_residual", profile.frobenius_residual))

    # quadrature, as bound inside sphere
    tanhsinh = sphere.tanhsinh

    def traced_tanhsinh(f, a, b, **kwargs):
        def counted_f(x, *rest):
            add("quadrature.tanhsinh.evals", x.size)
            add("quadrature.tanhsinh.halves", 1)
            return f(x, *rest)

        return tanhsinh(counted_f, a, b, **kwargs)

    patch(sphere, "tanhsinh", tracer.wrap("quadrature.tanhsinh", traced_tanhsinh))

    gauss_class = sphere.CumulativeGauss

    def traced_gauss(f, *args, **kwargs):
        def counted_f(x):
            add("quadrature.CumulativeGauss.evals", x.size)
            return f(x)

        obj = gauss_class(counted_f, *args, **kwargs)
        obj.value = tracer.wrap("quadrature.CumulativeGauss", obj.value)
        return obj

    patch(sphere, "CumulativeGauss", tracer.wrap("quadrature.CumulativeGauss", traced_gauss))

    # sphere
    patch(sphere, "vertical_radius", tracer.wrap("sphere.vertical_radius", sphere.vertical_radius))
    patch(sphere, "embeddedness_boundary", tracer.wrap(
        "sphere.embeddedness_boundary", sphere.embeddedness_boundary,
        lambda root: add("sphere.embeddedness_boundary.roots", 1)))
    patch(sphere, "build_sphere", tracer.wrap(
        "sphere.build_sphere", sphere.build_sphere, lambda sol: states(sol.profile)))
    patch(sphere, "build_mesh", tracer.wrap(
        "sphere.build_mesh", sphere.build_mesh,
        lambda mesh: add("sphere.build_mesh.vertices", len(mesh.vertices))))
    patch(sphere, "write_obj", tracer.wrap("sphere.write_obj", sphere.write_obj))

    # geometry, as bound inside sphere (the mesh builder's vertex type)
    patch(sphere, "AmbientPoint", tracer.counted("geometry.AmbientPoint.calls", sphere.AmbientPoint))

    def restore():
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)

    return restore


def summarize(tracer: Tracer, n_commands: int) -> dict:
    """Per-command layer figures from the spans and counters."""
    spans = tracer.spans
    child_time = [0.0] * len(spans)
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    vr_under_boundary = 0
    for name, start, end, parent in spans:
        if parent >= 0:
            child_time[parent] += end - start
            if name == "sphere.vertical_radius" and spans[parent][0] == "sphere.embeddedness_boundary":
                vr_under_boundary += 1
    for i, (name, start, end, _) in enumerate(spans):
        calls[name] += 1
        total[name] += end - start
        self_time[name] += end - start - child_time[i]

    counts = tracer.counts
    n = max(n_commands, 1)
    roots = counts["sphere.embeddedness_boundary.roots"]
    per = {
        "cli.self_s": self_time[ROOT],
        "geometry.AmbientPoint.calls": counts["geometry.AmbientPoint.calls"],
        "phase.trace_level_curve.calls": calls["phase.trace_level_curve"],
        "phase.trace_level_curve.s": total["phase.trace_level_curve"],
        "phase.trace_level_curve.points": counts["phase.trace_level_curve.points"],
        "phase.energy_values.calls": calls["phase.energy_values"],
        "phase.energy_values.s": total["phase.energy_values"],
        "profile.integrate.calls": calls["profile.integrate"],
        "profile.integrate.s": total["profile.integrate"],
        "profile.integrate.nfev": counts["profile.integrate.nfev"],
        "profile.rhs_residual.s": total["profile.rhs_residual"],
        "profile.frobenius_residual.s": total["profile.frobenius_residual"],
        "profile.states": counts["profile.states"],
        "quadrature.tanhsinh.calls": calls["quadrature.tanhsinh"],
        "quadrature.tanhsinh.s": total["quadrature.tanhsinh"],
        "quadrature.tanhsinh.evals": counts["quadrature.tanhsinh.evals"],
        # the rule evaluates the integrand on both halves of each level
        "quadrature.tanhsinh.levels": counts["quadrature.tanhsinh.halves"] / 2,
        "quadrature.CumulativeGauss.s": total["quadrature.CumulativeGauss"],
        "quadrature.CumulativeGauss.evals": counts["quadrature.CumulativeGauss.evals"],
        "sphere.vertical_radius.calls": calls["sphere.vertical_radius"],
        "sphere.vertical_radius.s": total["sphere.vertical_radius"],
        "sphere.embeddedness_boundary.calls": calls["sphere.embeddedness_boundary"],
        "sphere.embeddedness_boundary.s": total["sphere.embeddedness_boundary"],
        "sphere.build_sphere.calls": calls["sphere.build_sphere"],
        "sphere.build_sphere.s": total["sphere.build_sphere"],
        "sphere.build_sphere.self_s": self_time["sphere.build_sphere"],
        "sphere.build_mesh.s": total["sphere.build_mesh"],
        "sphere.build_mesh.vertices": counts["sphere.build_mesh.vertices"],
        "sphere.write_obj.s": total["sphere.write_obj"],
    }
    out = {k: v / n for k, v in per.items()}
    # a ratio over the whole section, not per command
    out["sphere.embeddedness_boundary.evals_per_root"] = vr_under_boundary / roots if roots else 0.0
    return out
