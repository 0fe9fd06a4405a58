"""Command-line surface: thresholds, phase portraits, spheres, embeddedness.

    berger-cgc thresholds --tau 0.75
    berger-cgc phase --tau 0.75 --k 3 --out out/ --format csv,svg
    berger-cgc sphere --tau 0.3 --k 5 --out out/ --format csv,obj
    berger-cgc embed-region --k-range 4:8:5 --tau-range 0.05:0.6:12 --out out/
    berger-cgc verify

CSV is the canonical output; SVG is a thin polyline renderer over the same
data.  Floats are serialized with 17 significant digits so files round-trip
exactly and identical configurations give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, phase, profile, sphere
from .errors import (
    AccuracyError,
    BracketError,
    CriticalPointError,
    DomainError,
    NoSphereError,
)
from .geometry import make_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SPHERE = 3
EXIT_ACCURACY = 4


def _write_csv(path, header, rows, row_format=None):
    """Write ``rows`` (tuples) through one %-format per row.

    ``row_format`` defaults to all-float columns; floats use %.17g, which
    round-trips exactly.  Boolean columns are passed as "true"/"false"
    strings under %s.
    """
    line = (row_format or ",".join(["%.17g"] * len(header))) + "\n"
    with open(path, "w", newline="\n") as f:
        f.write(",".join(header) + "\n")
        f.writelines(line % row for row in rows)


def _bool(v) -> str:
    return "true" if v else "false"


def _parse_range(text):
    """a:b:n -> n evenly spaced values from a to b inclusive."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise DomainError(f"bad range {text!r}, expected a:b:n") from exc
    if n < 2:
        raise DomainError("range needs at least 2 points")
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _values(args, name):
    """Merge --<name> and --<name>-range into one list."""
    vals = []
    single = getattr(args, name)
    rng = getattr(args, f"{name}_range")
    if single is not None:
        vals.extend(single)
    if rng is not None:
        vals.extend(_parse_range(rng))
    return vals


def _slug(v: float) -> str:
    return f"{v:g}".replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# SVG rendering (thin polyline layer over the CSV data)
# ---------------------------------------------------------------------------


def _svg(path, polylines, x_range, y_range, size=600, equal_aspect=False):
    """polylines: list of (points, stroke_width); maps data box to pixels."""
    x0, x1 = x_range
    y0, y1 = y_range
    w = size
    if equal_aspect:
        h = int(round(size * (y1 - y0) / (x1 - x0))) or size
    else:
        h = size

    def px(p):
        return (
            (p[0] - x0) / (x1 - x0) * w,
            h - (p[1] - y0) / (y1 - y0) * h,
        )

    with open(path, "w", newline="\n") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n'
        )
        f.write(f'<rect width="{w}" height="{h}" fill="white"/>\n')
        for points, stroke_width in polylines:
            if len(points) < 2:
                continue
            coords = " ".join(f"{a:.2f},{b:.2f}" for a, b in map(px, points))
            f.write(
                f'<polyline points="{coords}" fill="none" stroke="black" '
                f'stroke-width="{stroke_width}"/>\n'
            )
        f.write("</svg>\n")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def cmd_thresholds(args) -> int:
    taus = _values(args, "tau")
    if not taus:
        print("thresholds: need --tau or --tau-range", file=sys.stderr)
        return EXIT_CONFIG
    rows = []
    print(f"{'tau':>12} {'lambda':>12} {'K0':>12} {'KP':>12}  new-examples K")
    for tau in taus:
        p = make_params(tau)
        if tau > 1:
            gap = f"[{p.k0:.17g}, {p.kp:.17g}]"
        else:
            gap = f"{{{p.k0:.17g}}}"
        print(f"{tau:>12g} {p.lam:>12g} {p.k0:>12g} {p.kp:>12g}  {gap}")
        rows.append((tau, p.lam, p.k0, p.kp, p.k0, p.kp))
    if args.out:
        _write_csv(
            os.path.join(args.out, "thresholds.csv"),
            ("tau", "lambda", "k0", "kP", "new_lo", "new_hi"),
            rows,
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase portraits
# ---------------------------------------------------------------------------


def _bisect_on_segment(f, a, b, fa, fb, iters=80):
    for _ in range(iters):
        m = 0.5 * (a + b)
        fm = f(m)
        if fm == 0.0:
            return m
        if (fm > 0.0) == (fa > 0.0):
            a, fa = m, fm
        else:
            b, fb = m, fm
    return 0.5 * (a + b)


def _seeds_for_level(params, K, level, n_scan=800):
    """Level crossings along the rectangle edges and the Y = 0 axis."""
    seeds = []
    t = np.linspace(0.0, 1.0, n_scan)

    def scan(pts_x, pts_y, make_point):
        F = phase.energy_values(params, K, pts_x, pts_y) - level
        sign = np.sign(F)
        for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]:
            g = lambda v: float(
                phase.energy_values(params, K, *make_point(v)) - level
            )
            v = _bisect_on_segment(
                g, t[i], t[i + 1], float(F[i]), float(F[i + 1])
            )
            seeds.append(phase.PhasePoint(*make_point(v)))

    scan(np.zeros_like(t), 2.0 * t - 1.0, lambda v: (0.0, 2.0 * v - 1.0))
    scan(np.ones_like(t), 2.0 * t - 1.0, lambda v: (1.0, 2.0 * v - 1.0))
    scan(t, np.full_like(t, -1.0), lambda v: (v, -1.0))
    scan(t, np.ones_like(t), lambda v: (v, 1.0))
    scan(t, np.zeros_like(t), lambda v: (v, 0.0))
    return seeds


def _trace_both_ways(params, K, level, seed):
    halves = []
    for direction in (1, -1):
        try:
            c = phase.trace_level_curve(params, K, level, seed, direction)
        except (CriticalPointError, DomainError) as exc:
            c = getattr(exc, "partial", None)
        if c is not None and len(c.points) > 1:
            halves.append([(p.X, p.Y) for p in c.points])
        if c is not None and c.closed:
            return halves[-1]
    if len(halves) == 2:
        return halves[1][::-1] + halves[0][1:]
    if halves:
        return halves[0]
    return [(seed.X, seed.Y)]


def _contour_polylines(params, K, levels, notes=None):
    """Traced polylines per level, deduplicating seeds already covered.

    Tracing problems are collected into ``notes`` and the run continues.
    """
    out = []
    for level in levels:
        seeds = _seeds_for_level(params, K, level)
        covered = np.empty((0, 2))
        for seed in seeds:
            if covered.size:
                d = np.min(
                    np.hypot(covered[:, 0] - seed.X, covered[:, 1] - seed.Y)
                )
                if d < 2e-2:
                    continue
            try:
                pts = _trace_both_ways(params, K, level, seed)
            except Exception as exc:
                if notes is not None:
                    notes.append(f"level {level:g}: trace failed at seed: {exc}")
                continue
            if len(pts) < 2:
                continue
            out.append((level, pts))
            covered = np.vstack([covered, np.asarray(pts)])
    return out


def _phase_cell(task):
    """One (tau, K) portrait: energy grid plus traced contour polylines."""
    tau, K, n, levels_arg = task
    p = make_params(tau)
    near = abs(K - p.k0) <= 1e-9 * max(1.0, abs(p.k0))
    verdict = "boundary" if near else ("yes" if phase.sphere_exists(p, K) else "no")
    X, Y = np.meshgrid(np.linspace(0, 1, n), np.linspace(-1, 1, n))
    F = phase.energy_values(p, K, X, Y)
    if levels_arg:
        levels = [float(v) for v in levels_arg.split(",")]
    else:
        lo, hi = float(F.min()), float(F.max())
        levels = sorted(set(np.round(np.linspace(lo, hi, 13)[1:-1], 6)) | {1.0})
    notes = []
    polylines = _contour_polylines(p, K, levels, notes)
    return verdict, p.k0, X, Y, F, polylines, notes


def cmd_phase(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    if not taus or not ks:
        print("phase: need --tau/--tau-range and --k/--k-range", file=sys.stderr)
        return EXIT_CONFIG
    n = args.grid
    formats = args.format.split(",")
    tasks = [(tau, K, n, args.levels) for tau in taus for K in ks]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            cells = list(pool.map(_phase_cell, tasks))
    else:
        cells = [_phase_cell(t) for t in tasks]
    for (tau, K, _, _), (verdict, k0, X, Y, F, polylines, notes) in zip(tasks, cells):
        print(
            f"tau={tau:g} K={K:g}: K0={k0:g}, level-1 connects "
            f"(closed form): {verdict}"
        )
        for note in notes:
            print(f"  {note}")
        if not args.out:
            continue
        tag = f"tau{_slug(tau)}_K{_slug(K)}"
        if "csv" in formats:
            _write_csv(
                os.path.join(args.out, f"phase_grid_{tag}.csv"),
                ("X", "Y", "F"),
                zip(X.ravel().tolist(), Y.ravel().tolist(), F.ravel().tolist()),
            )
            rows = []
            for level, pts in polylines:
                for seq, (xv, yv) in enumerate(pts):
                    rows.append((level, seq, xv, yv))
            _write_csv(
                os.path.join(args.out, f"contours_{tag}.csv"),
                ("level", "seq", "X", "Y"),
                rows,
                "%.17g,%d,%.17g,%.17g",
            )
        if "svg" in formats:
            svg_lines = [
                (pts, 2.5 if abs(level - 1.0) < 1e-12 else 1.0)
                for level, pts in polylines
            ]
            _svg(
                os.path.join(args.out, f"phase_{tag}.svg"),
                svg_lines,
                (0.0, 1.0),
                (-1.0, 1.0),
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------


def _check_profile_energy(sol, tol=1e-8):
    drift = sol.profile.max_energy_drift
    if drift > tol:
        raise AccuracyError(
            f"profile energy drift {drift!r} exceeds {tol!r}", achieved=drift
        )


def cmd_sphere(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    if not taus or not ks:
        print("sphere: need --tau/--tau-range and --k/--k-range", file=sys.stderr)
        return EXIT_CONFIG
    formats = args.format.split(",")
    report_rows = []
    for tau in taus:
        p = make_params(tau)
        for K in ks:
            try:
                sol = sphere.build_sphere(p, K, samples=args.samples)
            except AccuracyError as exc:
                if exc.achieved == math.inf:
                    # threshold case for tau > 1: pole-touching profile
                    print(
                        f"tau={tau:g} K={K:g}: pole-touching sphere at the "
                        f"threshold (r = pi/2), vertical radius diverges"
                    )
                    report_rows.append(
                        (tau, K, math.pi / 2.0, math.inf, _bool(False), math.nan)
                    )
                    continue
                print(f"tau={tau:g} K={K:g}: accuracy failure: {exc}", file=sys.stderr)
                return EXIT_ACCURACY
            _check_profile_energy(sol)
            flag = " (threshold case)" if sol.degenerate_threshold else ""
            print(
                f"tau={tau:g} K={K:g}: r={sol.r:.12g} h={sol.h:.12g} "
                f"T={sol.T:.12g} embedded={sol.embedded}{flag}"
            )
            report_rows.append((tau, K, sol.r, sol.h, _bool(sol.embedded), sol.T))
            if not args.out:
                continue
            tag = f"tau{_slug(tau)}_K{_slug(K)}"
            s, x, y, a = sol.profile.arrays()
            if "csv" in formats:
                _write_csv(
                    os.path.join(args.out, f"profile_{tag}.csv"),
                    ("s", "x", "y", "alpha", "energy_drift"),
                    zip(s.tolist(), x.tolist(), y.tolist(), a.tolist(),
                        sol.profile.energy_drifts.tolist()),
                )
            if "svg" in formats:
                pts = list(zip(y, x))
                my = 1.05 * max(abs(y.min()), abs(y.max())) or 1.0
                _svg(
                    os.path.join(args.out, f"profile_{tag}.svg"),
                    [(pts, 1.5)],
                    (-my, my),
                    (0.0, math.pi / 2.0),
                    equal_aspect=True,
                )
            if "obj" in formats:
                mesh = sphere.build_mesh(sol, n_t=args.mesh_rings)
                with open(os.path.join(args.out, f"sphere_{tag}.obj"), "w") as f:
                    sphere.write_obj(
                        mesh,
                        f,
                        header=(
                            f"tau={tau:.17g} K={K:.17g}",
                            f"berger-cgc {__version__}",
                        ),
                    )
    if args.out and report_rows:
        _write_csv(
            os.path.join(args.out, "spheres.csv"),
            ("tau", "K", "r", "h", "embedded", "T"),
            report_rows,
            "%.17g,%.17g,%.17g,%.17g,%s,%.17g",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# embeddedness region
# ---------------------------------------------------------------------------


def _region_cell(task):
    tau, K = task
    p = make_params(tau)
    if K < p.k0:
        return None
    try:
        h = sphere.vertical_radius(p, K)
    except AccuracyError as exc:
        if exc.achieved != math.inf:
            raise  # unconverged quadrature, not a divergent vertical radius
        return (tau, K, math.inf, False)
    return (tau, K, h, h < math.pi)


def cmd_embed_region(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    if not taus or not ks:
        print(
            "embed-region: need --tau/--tau-range and --k/--k-range",
            file=sys.stderr,
        )
        return EXIT_CONFIG
    tasks = [(tau, K) for K in ks for tau in taus]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            cells = list(pool.map(_region_cell, tasks, chunksize=4))
    else:
        cells = [_region_cell(t) for t in tasks]
    rows = [c for c in cells if c is not None]

    boundary = []
    for K in ks:
        slice_cells = [c for c in cells if c is not None and c[1] == K]
        slice_cells.sort()
        bracket = None
        for (t0, _, h0, _), (t1, _, h1, _) in zip(slice_cells, slice_cells[1:]):
            if math.isfinite(h0) and math.isfinite(h1) and (h0 - math.pi) * (h1 - math.pi) < 0:
                bracket = (t0, t1)
                break
        if bracket is None:
            state = "fully embedded" if all(
                c[3] for c in slice_cells
            ) else "no crossing found"
            print(f"K={K:g}: {state} over the tau grid")
            continue
        try:
            tau_star = sphere.embeddedness_boundary(K, *bracket, tol=args.tol)
        except (BracketError, AccuracyError) as exc:
            print(f"K={K:g}: boundary refinement failed: {exc}", file=sys.stderr)
            return EXIT_ACCURACY
        h_check = sphere.vertical_radius(make_params(tau_star), K)
        if abs(h_check - math.pi) > 10.0 * args.tol:
            print(f"K={K:g}: boundary re-evaluation off target", file=sys.stderr)
            return EXIT_ACCURACY
        print(f"K={K:g}: boundary tau* = {tau_star:.12g} (h - pi = {h_check - math.pi:.3g})")
        boundary.append((K, tau_star))

    if args.out:
        _write_csv(
            os.path.join(args.out, "region.csv"),
            ("tau", "K", "h", "embedded"),
            ((t, k, h, _bool(e)) for t, k, h, e in rows),
            "%.17g,%.17g,%.17g,%s",
        )
        if boundary:
            _write_csv(
                os.path.join(args.out, "boundary.csv"),
                ("K", "tau_star"),
                boundary,
            )
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

VERIFY_PAIRS = ((0.75, 3.0), (0.5, 4.0), (2.0, 0.5), (1.0, 2.0))


def _suite_boundary_identities(rng, tol=1e-12):
    worst = 0.0
    for tau, K in ((0.75, 3.0), (0.5, 3.5), (2.0, 0.5), (1.3, 2.0)):
        p = make_params(tau)
        Y = rng.uniform(-1, 1, 2500)
        X = rng.uniform(0, 1, 2500)
        worst = max(
            worst,
            float(np.max(np.abs(phase.energy_values(p, K, 0.0, np.array([1.0, -1.0])) - 1.0))),
            float(np.max(np.abs(phase.energy_values(p, K, 1.0, Y) - K * (1 - p.lam)))),
            float(np.max(np.abs(
                phase.energy_values(p, K, X, 0.0) - K * (1 - p.lam * X) * X
            ))),
        )
        if p.lam > 0.5:
            seg = 1.0 / (2.0 * p.lam)
            worst = max(worst, float(np.max(np.abs(
                phase.energy_values(p, K, seg, Y) - K / (4.0 * p.lam)
            ))))
    return bool(worst <= tol), {"worst": float(worst), "tol": tol}


def _suite_energy(rtol):
    budget = 100.0 * rtol
    worst = 0.0
    for tau, K in VERIFY_PAIRS:
        p = make_params(tau)
        if K - (3.0 * p.lam + 1.0) <= 0.0:
            continue
        traj = profile.integrate(
            p, K, profile.axis_seed(p, K), s_max=10.0, rtol=rtol, atol=rtol * 1e-2
        )
        worst = max(worst, traj.max_energy_drift)
    return bool(worst <= budget), {"worst_drift": float(worst), "budget": budget}


def _suite_frobenius(tol=1e-5):
    worst = 0.0
    for tau, K in VERIFY_PAIRS:
        sol = sphere.build_sphere(make_params(tau), K, spacing=1e-3)
        worst = max(worst, profile.frobenius_residual(sol.profile))
    return bool(worst <= tol), {"worst": float(worst), "tol": tol}


def _suite_symmetry(tol=1e-8):
    p = make_params(0.75)
    traj = profile.integrate(p, 3.0, profile.axis_seed(p, 3.0), s_max=0.8)
    base = profile.rhs_residual(traj)
    worst = 0.0
    for sym, kw in (
        ("y_translate", {"y0": 1.5}),
        ("alpha_shift", {"k": 2}),
        ("reverse", {"s0": 0.4}),
        ("reflect", {"y0": 0.25}),
    ):
        res = profile.rhs_residual(profile.apply_symmetry(traj, sym, **kw))
        worst = max(worst, abs(res - base))
    return bool(worst <= tol), {"worst_residual_change": float(worst), "tol": tol}


def _suite_routes(tol=1e-7):
    worst = 0.0
    for tau, K in VERIFY_PAIRS:
        p = make_params(tau)
        sol = sphere.build_sphere(p, K)
        _, _, y, _ = sol.profile.arrays()
        span = 0.5 * (y[-1] - y[0])
        worst = max(worst, abs(span - sphere.vertical_radius(p, K)))
    return bool(worst <= tol), {"worst": float(worst), "tol": tol}


def cmd_verify(args) -> int:
    rng = np.random.default_rng(20240817)
    rtol = args.tol
    suites = (
        ("boundary_identities", lambda: _suite_boundary_identities(rng)),
        ("energy_conservation", lambda: _suite_energy(rtol)),
        ("frobenius", _suite_frobenius),
        ("symmetry", _suite_symmetry),
        ("route_equivalence", _suite_routes),
    )
    summary = {}
    ok = True
    for name, fn in suites:
        passed, detail = fn()
        ok = ok and passed
        summary[name] = {"pass": passed, **detail}
        print(f"{name:>22}: {'PASS' if passed else 'FAIL'}  {detail}")
    print(json.dumps({"pass": ok, "suites": summary}))
    if args.out:
        with open(os.path.join(args.out, "verify.json"), "w") as f:
            json.dump({"pass": ok, "suites": summary}, f, indent=2)
    return EXIT_OK if ok else EXIT_ACCURACY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser():
    ap = argparse.ArgumentParser(
        prog="berger-cgc",
        description="Constant-Gauss-curvature surfaces of revolution in Berger spheres",
    )
    ap.add_argument("--version", action="version", version=f"berger-cgc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--tau", type=float, action="append", help="fiber scaling (repeatable)")
        sp.add_argument("--tau-range", help="a:b:n evenly spaced tau values")
        sp.add_argument("--k", type=float, action="append", help="Gauss curvature (repeatable)")
        sp.add_argument("--k-range", help="a:b:n evenly spaced K values")
        sp.add_argument("--samples", type=int, default=512, help="profile samples")
        sp.add_argument("--tol", type=float, default=1e-8, help="accuracy target")
        sp.add_argument("--out", help="output directory")
        sp.add_argument("--format", default="csv", help="comma list from csv,svg,obj")
        sp.add_argument("--grid", type=int, default=201, help="phase grid resolution")
        sp.add_argument("--levels", help="comma list of contour levels")
        sp.add_argument("--mesh-rings", type=int, default=128, help="mesh steps around the axis")
        sp.add_argument("--workers", type=int, default=1, help="worker processes for sweeps")
        sp.add_argument("--config", help="key=value config file (flags win)")

    for name, fn in (
        ("thresholds", cmd_thresholds),
        ("phase", cmd_phase),
        ("sphere", cmd_sphere),
        ("embed-region", cmd_embed_region),
        ("verify", cmd_verify),
    ):
        sp = sub.add_parser(name)
        common(sp)
        sp.set_defaults(func=fn)
    # verify integrates at rtol 1e-10 unless --tol is given
    sub.choices["verify"].set_defaults(tol=1e-10)
    return ap


def _apply_config(args, argv):
    """Fill unset options from the key=value config file; flags win."""
    if not args.config:
        return args
    defaults = {}
    with open(args.config) as f:
        for line in f:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise DomainError(f"bad config line: {line!r}")
            key, val = (s.strip() for s in line.split("=", 1))
            defaults[key.replace("-", "_")] = val
    seen = {a.split("=")[0].lstrip("-").replace("-", "_") for a in argv if a.startswith("--")}
    for key, val in defaults.items():
        if key in seen or not hasattr(args, key):
            continue
        current = getattr(args, key)
        if key in ("tau", "k"):
            setattr(args, key, (current or []) + [float(v) for v in val.split(",")])
        elif isinstance(current, int):
            setattr(args, key, int(val))
        elif isinstance(current, float):
            setattr(args, key, float(val))
        else:
            setattr(args, key, val)
    return args


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(argv)
        args = _apply_config(args, argv)
        if args.grid < 2:
            raise DomainError("--grid must be at least 2")
        if args.tol <= 0:
            raise DomainError("--tol must be positive")
        if args.workers < 1:
            raise DomainError("--workers must be at least 1")
        if args.out:
            os.makedirs(args.out, exist_ok=True)
        return args.func(args)
    except NoSphereError as exc:  # a DomainError subclass: caught first
        print(str(exc), file=sys.stderr)
        return EXIT_NO_SPHERE
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        return EXIT_ACCURACY


if __name__ == "__main__":
    sys.exit(main())
