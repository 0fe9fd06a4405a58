"""Command-line surface: thresholds, phase portraits, spheres, embeddedness.

    berger-cgc thresholds --tau 0.75
    berger-cgc phase --tau 0.75 --k 3 --out out/ --format csv,svg
    berger-cgc sphere --tau 0.3 --k 5 --out out/ --format csv,obj
    berger-cgc embed-region --k-range 4:8:5 --tau-range 0.05:0.6:12 --out out/
    berger-cgc verify

The commands only parse, format and write: the numbers come from the
library (contours from :func:`berger_cgc.phase.contours`, spheres, radii and
boundary roots from :mod:`berger_cgc.sphere`), and every cell of a sweep is
computed before any file is written.  CSV is the canonical output, written
from typed columns by :func:`berger_cgc.textout.write_rows`, the writer the
OBJ meshes share; SVG is a thin polyline renderer over the same data.
Floats are serialized with 17 significant digits so files round-trip
exactly and identical configurations give byte-identical outputs.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

import numpy as np

from . import __version__, phase, sphere, verify
from .errors import AccuracyError, DomainError, NoSphereError
from .geometry import make_params

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NO_SPHERE = 3
EXIT_ACCURACY = 4

#: SVG width in pixels, and height unless the aspect ratio is kept
SVG_SIZE = 600
#: largest energy drift a sphere profile may carry into the outputs
PROFILE_ENERGY_TOL = 1e-8


def _write_csv(path, columns):
    """Write ``columns`` (header -> values, all of one length) as CSV rows.

    Each column's format follows its values: bools are written as
    true/false, integers with %d and floats with %.17g, which round-trips
    exactly.  :func:`berger_cgc.textout.write_rows` formats blocks of rows
    at once, and raises ValueError if the columns differ in length.
    """
    from . import textout  # formats numbers only when a file is written

    with open(path, "w", newline="\n") as f:
        f.write(",".join(columns) + "\n")
        textout.write_rows(f, columns.values(), sep=",", prefix="")


def _values(args, name):
    """Merge --<name> and --<name>-range into one list, which must not be empty."""
    vals = (getattr(args, name) or []) + (getattr(args, f"{name}_range") or [])
    if not vals:
        raise DomainError(f"need --{name} or --{name}-range")
    return vals


def _num(v: float) -> str:
    """``v`` spelled with :g where that round-trips, else in full (repr)."""
    short = f"{v:g}"
    return short if float(short) == v else repr(v)


def _slug(v: float) -> str:
    return _num(v).replace(".", "p").replace("-", "m")


# ---------------------------------------------------------------------------
# SVG rendering (thin polyline layer over the CSV data)
# ---------------------------------------------------------------------------


def _svg(path, polylines, x_range, y_range, equal_aspect=False):
    """polylines: list of ((N, 2) points, stroke_width); maps data box to pixels."""
    x0, x1 = x_range
    y0, y1 = y_range
    w = h = SVG_SIZE
    if equal_aspect:
        h = int(round(SVG_SIZE * (y1 - y0) / (x1 - x0))) or SVG_SIZE

    with open(path, "w", newline="\n") as f:
        f.write(
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}" '
            f'viewBox="0 0 {w} {h}">\n'
        )
        f.write(f'<rect width="{w}" height="{h}" fill="white"/>\n')
        for points, stroke_width in polylines:
            if len(points) < 2:
                continue
            pixels = (np.asarray(points, dtype=float) - (x0, y0)) / (x1 - x0, y1 - y0) * (w, h)
            pixels[:, 1] = h - pixels[:, 1]
            coords = " ".join(["%.2f,%.2f"] * len(pixels)) % tuple(pixels.ravel().tolist())
            f.write(
                f'<polyline points="{coords}" fill="none" stroke="black" '
                f'stroke-width="{stroke_width}"/>\n'
            )
        f.write("</svg>\n")


# ---------------------------------------------------------------------------
# thresholds
# ---------------------------------------------------------------------------


def cmd_thresholds(args) -> int:
    params = [make_params(tau) for tau in _values(args, "tau")]  # all checked first
    table = [("tau", "lambda", "K0", "KP", "new-examples K")] + [
        (*map(_num, (p.tau, p.lam, p.k0, p.kp)),
         f"[{p.k0:.17g}, {p.kp:.17g}]" if p.tau > 1 else f"{{{p.k0:.17g}}}")
        for p in params
    ]
    widths = [max(12, *(len(cells[j]) for cells in table)) for j in range(4)]
    for cells in table:
        print(" ".join(c.rjust(w) for c, w in zip(cells, widths)) + "  " + cells[4])
    if args.out:
        k0, kp = [p.k0 for p in params], [p.kp for p in params]
        _write_csv(os.path.join(args.out, "thresholds.csv"), {
            "tau": [p.tau for p in params], "lambda": [p.lam for p in params],
            "k0": k0, "kP": kp, "new_lo": k0, "new_hi": kp})
    return EXIT_OK


# ---------------------------------------------------------------------------
# phase portraits
# ---------------------------------------------------------------------------


def _phase_cell(tau, K, n, levels):
    """One (tau, K) portrait: energy grid plus traced contours."""
    p = make_params(tau)
    near = abs(K - p.k0) <= 1e-9 * max(1.0, abs(p.k0))
    verdict = "boundary" if near else ("yes" if phase.sphere_exists(p, K) else "no")
    X, Y = np.meshgrid(np.linspace(0, 1, n), np.linspace(-1, 1, n))
    with np.errstate(over="ignore", invalid="ignore"):
        F = phase.energy_values(p, K, X, Y)
    if not np.isfinite(F).all():
        raise DomainError(f"tau={_num(tau)} K={_num(K)}: the energy F is not finite "
                          "on the phase grid")
    if levels is None:
        lo, hi = float(F.min()), float(F.max())
        levels = sorted(set(np.round(np.linspace(lo, hi, 13)[1:-1], 6).tolist()) | {1.0})
    return verdict, p.k0, X, Y, F, levels, phase.contours(p, K, levels)


def cmd_phase(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    # every cell before any output: a bad tau or K exits 2 having written nothing
    cells = [(tau, K, *_phase_cell(tau, K, args.grid, args.levels)) for tau in taus for K in ks]
    for tau, K, verdict, k0, X, Y, F, levels, curves in cells:
        print(f"tau={_num(tau)} K={_num(K)}: K0={k0:g}, level-1 connects "
              f"(closed form): {verdict}")
        traced = {c.level for c in curves}
        for level in (lv for lv in levels if lv not in traced):
            print(f"tau={_num(tau)} K={_num(K)}: no curve traced at level {_num(level)} "
                  f"(F on the grid spans [{F.min():.6g}, {F.max():.6g}])", file=sys.stderr)
        if not args.out:
            continue
        tag = f"tau{_slug(tau)}_K{_slug(K)}"
        if "csv" in args.format:
            _write_csv(os.path.join(args.out, f"phase_grid_{tag}.csv"),
                       {"X": X.ravel(), "Y": Y.ravel(), "F": F.ravel()})
            sizes = [len(c.points) for c in curves]
            points = np.concatenate([np.empty((0, 2))] + [c.points for c in curves])
            _write_csv(os.path.join(args.out, f"contours_{tag}.csv"), {
                "level": np.repeat([c.level for c in curves], sizes),
                "seq": np.concatenate([np.arange(n) for n in [0] + sizes]),
                "X": points[:, 0], "Y": points[:, 1]})
        if "svg" in args.format:  # level 1 drawn bold
            svg_lines = [(c.points, 2.5 if abs(c.level - 1.0) < 1e-12 else 1.0) for c in curves]
            _svg(os.path.join(args.out, f"phase_{tag}.svg"), svg_lines, (0.0, 1.0), (-1.0, 1.0))
    return EXIT_OK


# ---------------------------------------------------------------------------
# spheres
# ---------------------------------------------------------------------------


def _check_profile_energy(sol):
    drift = sol.profile.max_energy_drift
    if drift > PROFILE_ENERGY_TOL:
        raise AccuracyError(f"profile energy drift {drift!r} exceeds {PROFILE_ENERGY_TOL!r}",
                            achieved=drift)


def cmd_sphere(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    # every cell before any output: a bad K, a K below k0 or an accuracy
    # failure anywhere in the sweep writes nothing
    cells = []
    for tau in taus:
        p = make_params(tau)
        for K in ks:
            try:
                sol = sphere.build_sphere(p, K, samples=args.samples)
            except AccuracyError as exc:
                if exc.achieved != math.inf:
                    print(f"tau={_num(tau)} K={_num(K)}: accuracy failure: {exc}",
                          file=sys.stderr)
                    return EXIT_ACCURACY
                sol = None  # threshold case for tau > 1: pole-touching profile
            else:
                _check_profile_energy(sol)
            cells.append((tau, K, sol))
    report = []
    for tau, K, sol in cells:
        if sol is None:
            print(f"tau={_num(tau)} K={_num(K)}: pole-touching sphere at the "
                  f"threshold (r = pi/2), vertical radius diverges")
            report.append((tau, K, math.pi / 2.0, math.inf, False, math.nan))
            continue
        flag = " (threshold case)" if sol.degenerate_threshold else ""
        print(f"tau={_num(tau)} K={_num(K)}: r={sol.r:.12g} h={sol.h:.12g} "
              f"T={sol.T:.12g} embedded={sol.embedded}{flag}")
        report.append((tau, K, sol.r, sol.h, sol.embedded, sol.T))
        if not args.out:
            continue
        tag = f"tau{_slug(tau)}_K{_slug(K)}"
        s, x, y, a = sol.profile.arrays()
        if "csv" in args.format:
            _write_csv(os.path.join(args.out, f"profile_{tag}.csv"), {
                "s": s, "x": x, "y": y, "alpha": a,
                "energy_drift": sol.profile.energy_drifts})
        if "svg" in args.format:
            my = 1.05 * max(abs(y.min()), abs(y.max())) or 1.0
            _svg(os.path.join(args.out, f"profile_{tag}.svg"), [(np.column_stack([y, x]), 1.5)],
                 (-my, my), (0.0, math.pi / 2.0), equal_aspect=True)
        if "obj" in args.format:
            mesh = sphere.build_mesh(sol, n_t=args.mesh_rings)
            with open(os.path.join(args.out, f"sphere_{tag}.obj"), "w", newline="\n") as f:
                sphere.write_obj(mesh, f, header=(f"tau={tau:.17g} K={K:.17g}",
                                                  f"berger-cgc {__version__}"))
    if args.out:
        _write_csv(os.path.join(args.out, "spheres.csv"),
                   dict(zip(("tau", "K", "r", "h", "embedded", "T"), zip(*report))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# embeddedness region
# ---------------------------------------------------------------------------


def cmd_embed_region(args) -> int:
    taus = _values(args, "tau")
    ks = _values(args, "k")
    # K-major cells, all in one kernel call; a cell below k0 has no row
    cells = [(make_params(tau), K) for K in ks for tau in taus]
    cells = [(p, K) for p, K in cells if not K < p.k0]
    hs = []
    for h in sphere.vertical_radii([p for p, _ in cells], [K for _, K in cells]):
        if isinstance(h, AccuracyError):
            if h.achieved != math.inf:
                raise h  # the first unconverged cell fails the run
            h = math.inf  # a divergent h is written as inf
        hs.append(h)
    region = {"tau": [p.tau for p, _ in cells], "K": [K for _, K in cells], "h": hs,
              "embedded": [h < math.pi for h in hs]}

    slices = {K: sorted((t, h) for t, k, h in zip(region["tau"], region["K"], hs) if k == K)
              for K in ks}  # K -> its (tau, h) cells, by tau
    brackets = {}  # K -> the first tau pair of its slice across h = pi, with h - pi
    for K, pairs in slices.items():
        for (t0, h0), (t1, h1) in zip(pairs, pairs[1:]):
            if math.isfinite(h0) and math.isfinite(h1) and (h0 - math.pi) * (h1 - math.pi) < 0:
                brackets[K] = (t0, h0 - math.pi, t1, h1 - math.pi)
                break
    roots = dict(zip(brackets, sphere.embeddedness_boundaries(
        list(brackets), list(brackets.values()), args.tol)))
    boundary = []
    for K in ks:
        if K not in roots:
            if not slices[K]:
                state = "no cell at or above K0"
            elif all(h < math.pi for _, h in slices[K]):
                state = "fully embedded"
            else:
                state = "no crossing found"
            print(f"K={_num(K)}: {state} over the tau grid")
            continue
        if isinstance(roots[K], Exception):
            print(f"K={_num(K)}: boundary refinement failed: {roots[K]}", file=sys.stderr)
            return EXIT_ACCURACY
        tau_star, f_star = roots[K]
        print(f"K={_num(K)}: boundary tau* = {tau_star:.12g} (h - pi = {f_star:.3g})")
        boundary.append((K, tau_star))

    if args.out:
        _write_csv(os.path.join(args.out, "region.csv"), region)
        if boundary:
            _write_csv(os.path.join(args.out, "boundary.csv"),
                       dict(zip(("K", "tau_star"), zip(*boundary))))
    return EXIT_OK


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def cmd_verify(args) -> int:
    suites = {
        "boundary_identities": verify.boundary_identities(),
        "energy_conservation": verify.energy_conservation(args.tol),
        "frobenius": verify.frobenius(),
        "symmetry": verify.symmetry(),
        "route_equivalence": verify.route_equivalence(),
    }
    for name, record in suites.items():
        detail = {k: v for k, v in record.items() if k != "pass"}
        print(f"{name:>22}: {'PASS' if record['pass'] else 'FAIL'}  {detail}")
    summary = {"pass": all(r["pass"] for r in suites.values()), "suites": suites}
    print(json.dumps(summary))
    if args.out:
        with open(os.path.join(args.out, "verify.json"), "w") as f:
            json.dump(summary, f, indent=2)
    return EXIT_OK if summary["pass"] else EXIT_ACCURACY


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """Usage errors raise DomainError, which main reports with exit code 2."""

    def error(self, message):
        raise DomainError(f"{self.prog}: {message}")


def _checked(kind, ok, need):
    """Option type: ``kind(text)``, which must satisfy ``ok``."""

    def parse(text):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {need}, got {text!r}")
        return value

    parse.__name__ = kind.__name__  # argparse names it in "invalid int value"
    return parse


def _parse_range(text):
    """a:b:n -> n evenly spaced values from a to b inclusive."""
    try:
        a, b, n = text.split(":")
        a, b, n = float(a), float(b), int(n)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad range {text!r}, expected a:b:n") from exc
    if n < 2:
        raise argparse.ArgumentTypeError("range needs at least 2 points")
    return [a + (b - a) * i / (n - 1) for i in range(n)]


def _float_list(text):
    return [float(v) for v in text.split(",")]


def _format_flag(*writable):
    """--format: a comma list of the output formats the command writes."""
    names = ",".join(writable)
    check = _checked(lambda text: text.split(","), set(writable).issuperset, f"from {names}")
    return ("--format", dict(type=check, default="csv", help=f"comma list from {names}"))


# each flag is declared once, as (option, add_argument keywords); its type
# parses a value and enforces the bound, for flags and config lines alike
_TAU = ("--tau", dict(type=float, action="append", help="fiber scaling (repeatable)"))
_TAU_RANGE = ("--tau-range", dict(type=_parse_range, help="a:b:n evenly spaced tau values"))
_K = ("--k", dict(type=float, action="append", help="Gauss curvature (repeatable)"))
_K_RANGE = ("--k-range", dict(type=_parse_range, help="a:b:n evenly spaced K values"))
_SWEEP = (_TAU, _TAU_RANGE, _K, _K_RANGE)
_FILES = (
    ("--out", dict(help="output directory")),
    ("--config", dict(help="key=value config file (flags win)")),
)

#: subcommand -> (handler, the flags it reads besides --out and --config)
_COMMANDS = {
    "thresholds": (cmd_thresholds, (_TAU, _TAU_RANGE)),
    "phase": (cmd_phase, _SWEEP + (
        ("--grid", dict(type=_checked(int, lambda n: n >= 2, "at least 2"), default=201,
                        help="phase grid resolution")),
        ("--levels", dict(type=_checked(_float_list, lambda v: all(map(math.isfinite, v)),
                                        "finite"), help="comma list of contour levels")),
        _format_flag("csv", "svg"),
    )),
    "sphere": (cmd_sphere, _SWEEP + (
        ("--samples", dict(type=_checked(int, lambda n: n >= 65, "at least 65"), default=512,
                           help="profile samples")),
        ("--mesh-rings", dict(type=_checked(int, lambda n: n >= 3, "at least 3"), default=128,
                              help="mesh steps around the axis")),
        _format_flag("csv", "svg", "obj"),
    )),
    "embed-region": (cmd_embed_region, _SWEEP + (
        ("--tol", dict(type=_checked(float, lambda v: v > 0.0, "positive"), default=1e-8,
                       help="tolerance of the root h = pi")),
    )),
    "verify": (cmd_verify, (
        ("--tol", dict(type=_checked(float, lambda v: 1e-13 <= v <= 0.1, "in [1e-13, 0.1]"),
                       default=1e-10, help="rtol of the energy suite")),
    )),
}


@functools.cache  # parsing does not change the parser: one per process
def _build_parser():
    ap = _Parser(
        prog="berger-cgc",
        description="Constant-Gauss-curvature surfaces of revolution in Berger spheres",
    )
    ap.add_argument("--version", action="version", version=f"berger-cgc {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)
    for name, (fn, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        for option, kwargs in flags + _FILES:
            sp.add_argument(option, **kwargs)
        sp.set_defaults(func=fn)
    return ap


def _config_args(args, argv):
    """The key=value lines of the config file as option tokens.

    Each key takes the command's own declaration, so its value is checked
    like the same flag.  Keys given as flags are dropped (flags win), and
    keys that only other commands declare are skipped, so one file can
    serve several commands.
    """
    try:
        with open(args.config) as f:
            lines = f.read().splitlines()
    except OSError as exc:
        raise DomainError(f"cannot read config {args.config!r}: {exc.strerror}") from exc
    own = dict(_COMMANDS[args.command][1] + _FILES)
    declared = {option for _, flags in _COMMANDS.values() for option, _ in flags + _FILES}
    seen = {a.split("=")[0] for a in argv if a.startswith("--")}
    tokens = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise DomainError(f"bad config line: {line!r}")
        key, val = (s.strip() for s in line.split("=", 1))
        option = "--" + key.replace("_", "-")
        if option in own and option not in seen:
            values = val.split(",") if own[option].get("action") == "append" else [val]
            tokens += [f"{option}={v}" for v in values]
        elif option not in declared:
            raise DomainError(f"config key {key!r} is not an option of any command")
    return tokens


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    created = []  # the directories this run made for --out, leaf first
    try:
        args = parser.parse_args(argv)
        if args.config:  # argv[0] is the command: the top level has no other option
            args = parser.parse_args(argv[:1] + _config_args(args, argv) + argv[1:])
        if args.out and not os.path.isdir(args.out):
            missing = []
            path = os.path.normpath(args.out)
            while path and not os.path.exists(path):
                missing.append(path)
                path = os.path.dirname(path)
            try:
                os.makedirs(args.out)
            except OSError as exc:  # e.g. --out names an existing file
                raise DomainError(f"cannot create --out {args.out!r}: {exc.strerror}") from exc
            created = missing
        rc = args.func(args)
    except NoSphereError as exc:  # a DomainError subclass: caught first
        print(str(exc), file=sys.stderr)
        rc = EXIT_NO_SPHERE
    except DomainError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        rc = EXIT_CONFIG
    except AccuracyError as exc:
        print(f"accuracy failure: {exc}", file=sys.stderr)
        rc = EXIT_ACCURACY
    if rc != EXIT_OK:  # a failed run leaves behind no empty directory it made
        for path in created:
            if os.listdir(path):
                break
            os.rmdir(path)
    return rc


if __name__ == "__main__":
    sys.exit(main())
