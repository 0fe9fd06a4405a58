"""Independent checks of the CLI's output files.

Every check recomputes what it compares against, from the paper's closed
forms (``oracles``) or from properties any correct output must have; none
compares against stored copies of earlier output, and none imports the
program.  A check returns a list of problems; an empty list is a pass.

Vertical radii are collected while the files are read and compared against
the quadrature oracles afterwards, on a seeded sample (``HSample``).
"""

from __future__ import annotations

import filecmp
import json
import math
import os
import random
import re
import warnings
import xml.etree.ElementTree as ET

import numpy as np
from scipy import ndimage

import oracles
import workloads

#: |computed - reference| allowed for h (the program's quadrature targets 1e-10)
H_TOL = 1e-9
#: |sin^2 r - u| allowed for the horizontal radius root
R_TOL = 1e-13
#: |E - 1| allowed on every profile row (the CLI itself re-checks 1e-8)
ENERGY_TOL = 1e-9
#: |F - level| allowed on every contour point
CONTOUR_TOL = 1e-7
#: |vertex - expected point of the surface of revolution| in R^4
MESH_TOL = 1e-9
PROFILE_ROWS = 513
PHASE_GRID = 201
#: sublevel-set grid for the connectivity oracle (X and Y points)
LABEL_GRID = (1001, 2001)


def _csv(path):
    with open(path) as f:
        header = f.readline().strip().split(",")
        rows = [line.rstrip("\n").split(",") for line in f]
    return header, rows


def _floats(path, columns):
    header, rows = _csv(path)
    if header != list(columns):
        raise ValueError(f"{os.path.basename(path)}: header {header}")
    return np.array(rows, dtype=float).reshape(len(rows), len(columns)).T


def _bool(text):
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def _svg_ok(path):
    root = ET.parse(path).getroot()
    return root.tag.endswith("svg") and len(root.findall("{http://www.w3.org/2000/svg}polyline")) > 0


class HSample:
    """Vertical radii awaiting comparison with the quadrature oracles.

    Every collected value is checked by QUADPACK's QAWS rule when there are
    at most ``n_qaws`` of them, otherwise a seeded sample of that size is;
    a seeded sample of ``n_mpmath`` values is also checked by mpmath.
    """

    def __init__(self, seed, n_qaws=200, n_mpmath=3):
        self.rng = random.Random(f"h-sample/{seed}")
        self.items = []
        self.n_qaws = n_qaws
        self.n_mpmath = n_mpmath

    def add(self, key, tau, K, h):
        self.items.append((key, tau, K, h))

    def check(self):
        """Returns {key: [problems]} for the sampled values that disagree."""
        bad = {}
        q = self.items if len(self.items) <= self.n_qaws else self.rng.sample(self.items, self.n_qaws)
        m = self.rng.sample(self.items, min(self.n_mpmath, len(self.items)))
        for oracle, name, chosen in ((oracles.h_qaws, "qaws", q), (oracles.h_mpmath, "mpmath", m)):
            for key, tau, K, h in chosen:
                ref = oracle(tau, K)
                if not abs(h - ref) <= H_TOL:
                    bad.setdefault(key, []).append(
                        f"h({tau!r}, {K!r}) = {h!r}, {name} gives {ref!r}")
        return bad


# ---------------------------------------------------------------------------
# sphere
# ---------------------------------------------------------------------------


def check_sphere(record, hs):
    cell, out = record["cell"], record["out"]
    tau, K = cell["tau"], cell["K"]
    lam = 1.0 - tau * tau
    problems = []
    _, rows = _csv(os.path.join(out, "spheres.csv"))
    if len(rows) != 1:
        return [f"spheres.csv has {len(rows)} rows"]
    t, k, r, h, embedded, T = rows[0]
    r, h, T, embedded = float(r), float(h), float(T), _bool(embedded)
    if (float(t), float(k)) != (tau, K):
        problems.append(f"row is for ({t}, {k})")

    if cell["kind"] == "K=K0,tau>1":
        # the profile reaches the pole: r = pi/2 and h diverges
        if not (r == math.pi / 2 and h == math.inf and not embedded):
            problems.append(f"pole-touching cell reported r={r!r} h={h!r} embedded={embedded}")
        if "pole-touching" not in record["stdout"]:
            problems.append("no pole-touching report")
        if len(os.listdir(out)) != 1:
            problems.append(f"unexpected files {sorted(os.listdir(out))}")
        return problems

    u = oracles.sin2_r(tau, K)
    if not abs(math.sin(r) ** 2 - u) <= R_TOL:
        problems.append(f"sin^2 r = {math.sin(r) ** 2!r}, root of lam u^2 - u + 1/K is {u!r}")
    if tau == 1.0 and not abs(h - math.asin(1.0 / math.sqrt(K))) <= H_TOL:
        problems.append(f"tau = 1: h = {h!r}, closed form asin(1/sqrt K) = {math.asin(1 / math.sqrt(K))!r}")
    hs.add(record["key"], tau, K, h)
    if embedded != (h < math.pi):
        problems.append(f"embedded={embedded} with h={h!r}")
    flagged = "(threshold case)" in record["stdout"]
    if flagged != (cell["kind"] == "K=K0,tau<=1"):
        problems.append(f"threshold flag {flagged} for a {cell['kind']} cell")

    tag = [n for n in os.listdir(out) if n.startswith("profile_") and n.endswith(".csv")]
    if len(tag) != 1:
        return problems + [f"profile files {tag}"]
    tag = tag[0][len("profile_"):-len(".csv")]
    s, x, y, alpha, _ = _floats(
        os.path.join(out, f"profile_{tag}.csv"), ("s", "x", "y", "alpha", "energy_drift"))
    if len(s) != PROFILE_ROWS:
        return problems + [f"profile has {len(s)} rows"]
    if not (x[0] == 0.0 and x[-1] == 0.0 and abs(x.max() - r) <= 1e-13):
        problems.append("profile does not run axis - equator at r - axis")
    if not (abs(y[0] + h) <= 1e-12 and abs(y[-1] - h) <= 1e-12 and abs(s[-1] - T) <= 1e-12 * T):
        problems.append("profile ends are not at y = -h, +h and s = T")
    energy = oracles.energy(lam, K, np.sin(x) ** 2, np.cos(alpha))
    worst = float(np.max(np.abs(energy - 1.0)))
    if not worst <= ENERGY_TOL:
        problems.append(f"profile leaves the unit energy level by {worst!r}")
    problems += _frobenius(lam, K, s, x)
    problems += _check_obj(os.path.join(out, f"sphere_{tag}.obj"), s, x, y)
    if not _svg_ok(os.path.join(out, f"profile_{tag}.svg")):
        problems.append("profile svg has no polyline")
    return problems


def _frobenius(lam, K, s, x):
    """phi'' + K phi = 0 for phi = sqrt(G), with second-order convergence.

    The residual of the central second difference at step 2h must be about
    four times the residual at step h.
    """
    X = np.sin(x) ** 2
    phi = np.sqrt((1.0 - lam * X) * X)
    step = (s[-1] - s[0]) / (len(s) - 1)
    if not np.all(np.abs(np.diff(s) - step) <= 1e-12 * max(1.0, s[-1])):
        return ["profile is not uniform in s"]

    def residual(p, h):
        d2 = (p[:-2] - 2.0 * p[1:-1] + p[2:]) / (h * h)
        return float(np.max(np.abs(d2 + K * p[1:-1])))

    r1 = residual(phi, step)
    r2 = residual(phi[::2], 2.0 * step)
    if not r1 <= 1e-3:
        return [f"phi'' + K phi residual {r1!r}"]
    if r1 > 1e-9 and not 3.0 <= r2 / r1 <= 5.0:
        return [f"phi'' + K phi residual ratio {r2 / r1!r} at steps 2h : h (second order gives 4)"]
    return []


def _check_obj(path, s, x, y):
    """Closed, consistently wound sphere whose vertices lie on the revolved profile."""
    with open(path) as f:
        text = f.read()
    # comment header, then all "v x y z" lines, then all "f a b c" lines
    i, j = text.index("\nv "), text.index("\nf ")
    V = np.array(text[i:j].replace("v", "").split(), dtype=float).reshape(-1, 3)
    F = np.array(text[j:].replace("f", "").split(), dtype=np.int64).reshape(-1, 3) - 1
    n_v, n_f = len(V), len(F)
    if F.min() < 0 or F.max() >= n_v:
        return ["face index out of range"]
    directed = np.concatenate([F[:, [0, 1]], F[:, [1, 2]], F[:, [2, 0]]])
    if np.any(np.diff(np.sort(directed[:, 0] * n_v + directed[:, 1])) == 0):
        return ["faces are not consistently wound"]
    und = np.sort(directed, axis=1)
    keys = np.sort(und[:, 0] * n_v + und[:, 1])
    ends = np.flatnonzero(np.diff(keys))
    counts = np.diff(np.concatenate([[-1], ends, [len(keys) - 1]]))
    problems = []
    chi = n_v - len(counts) + n_f
    if chi != 2:
        problems.append(f"Euler characteristic {chi}")
    if not np.all(counts == 2):
        problems.append(f"{int(np.sum(counts != 2))} edges not shared by exactly two faces")

    # back from the stereographic projection from (0, 0, 0, -1)
    q = np.sum(V * V, axis=1)
    v4 = np.column_stack([2.0 * V / (1.0 + q)[:, None], (1.0 - q) / (1.0 + q)])
    off = float(np.max(np.abs(np.sum(v4 * v4, axis=1) - 1.0)))
    if not off <= 1e-12:
        problems.append(f"vertices off the unit 3-sphere by {off!r}")

    # poles, then one ring of n vertices per interior profile sample:
    # (e^{iy} cos x, e^{it} sin x) with t = 2 pi j / n
    inner = np.sin(x) > 1e-9
    xi, yi = x[inner], y[inner]
    if n_v != 2 + workloads.MESH_RINGS * len(xi):
        return problems + [f"{n_v} vertices for {len(xi)} interior samples"]
    t = np.arange(workloads.MESH_RINGS) * (2.0 * math.pi / workloads.MESH_RINGS)
    expect = np.empty((n_v, 4))
    expect[0] = (math.cos(y[0]), math.sin(y[0]), 0.0, 0.0)
    expect[1] = (math.cos(y[-1]), math.sin(y[-1]), 0.0, 0.0)
    ring = expect[2:].reshape(len(xi), workloads.MESH_RINGS, 4)
    ring[:, :, 0] = (np.cos(yi) * np.cos(xi))[:, None]
    ring[:, :, 1] = (np.sin(yi) * np.cos(xi))[:, None]
    ring[:, :, 2] = np.sin(xi)[:, None] * np.cos(t)[None, :]
    ring[:, :, 3] = np.sin(xi)[:, None] * np.sin(t)[None, :]
    dev = float(np.max(np.abs(v4 - expect)))
    if not dev <= MESH_TOL:
        problems.append(f"vertices off the revolved profile by {dev!r}")
    return problems


# ---------------------------------------------------------------------------
# embed-region
# ---------------------------------------------------------------------------

_BOUNDARY = re.compile(r"^K=\S+: boundary tau\* = ", re.M)


def check_embed(record, hs):
    grid, out = record["cell"], record["out"]
    problems = []
    _, rows = _csv(os.path.join(out, "region.csv"))
    cells = {}
    for t, k, h, e in rows:
        t, k, h, e = float(t), float(k), float(h), _bool(e)
        cells[(t, k)] = h
        if not math.isfinite(h):
            problems.append(f"h({t!r}, {k!r}) = {h!r}")
        elif e != (h < math.pi):
            problems.append(f"embedded={e} with h={h!r}")
        hs.add(record["key"], t, k, h)
    expected = {(t, K) for K in grid["ks"] for t in grid["taus"] if K >= workloads.k0(t)}
    if set(cells) != expected:
        problems.append(f"region cells differ from the existing spheres: {len(cells)} vs {len(expected)}")
        return problems

    path = os.path.join(out, "boundary.csv")
    roots = {}
    if os.path.exists(path):
        for k, t in _csv(path)[1]:
            roots[float(k)] = float(t)
    if len(_BOUNDARY.findall(record["stdout"])) != len(roots):
        problems.append("boundary report and boundary.csv disagree")
    tol = workloads.EMBED_TOL
    for K in grid["ks"]:
        taus = sorted(t for (t, k) in cells if k == K)
        sign = [cells[(t, K)] > math.pi for t in taus]
        crossings = [i for i in range(len(taus) - 1) if sign[i] != sign[i + 1]]
        if K not in roots:
            if crossings:
                problems.append(f"K={K!r}: h - pi changes sign on the grid but no boundary")
            continue
        star = roots[K]
        i = next((i for i in range(len(taus) - 1) if taus[i] < star < taus[i + 1]), None)
        if i is None:
            problems.append(f"K={K!r}: tau* = {star!r} is outside the grid")
            continue
        lo, hi = oracles.h_qaws(taus[i], K), oracles.h_qaws(taus[i + 1], K)
        if (lo - math.pi) * (hi - math.pi) >= 0.0:
            problems.append(f"K={K!r}: independent h - pi keeps its sign on [{taus[i]!r}, {taus[i + 1]!r}]")
        at = oracles.h_qaws(star, K)
        if not abs(at - math.pi) <= 10.0 * tol:
            problems.append(f"K={K!r}: independent |h(tau*) - pi| = {abs(at - math.pi)!r}")
    return problems


# ---------------------------------------------------------------------------
# phase
# ---------------------------------------------------------------------------

_VERDICT = re.compile(r"level-1 connects \(closed form\): (\w+)")


def level_one_connects(lam, K, shape=LABEL_GRID):
    """Sublevel-set oracle: the component of {F < 1} holding (0, 0) touches
    neither X = 1 nor Y = +-1 exactly when the level-1 curve joins (0, 1) to (0, -1)."""
    X, Y = np.meshgrid(np.linspace(0.0, 1.0, shape[0]), np.linspace(-1.0, 1.0, shape[1]), indexing="ij")
    labels, _ = ndimage.label(oracles.energy(lam, K, X, Y) < 1.0)
    mine = labels[0, shape[1] // 2]
    edges = np.concatenate([labels[-1, :], labels[:, 0], labels[:, -1]])
    return bool(mine) and not np.any(edges == mine)


def check_phase(record):
    cell, out = record["cell"], record["out"]
    tau, K = cell["tau"], cell["K"]
    lam = 1.0 - tau * tau
    problems = []
    m = _VERDICT.search(record["stdout"])
    verdict = m.group(1) if m else None
    if cell["kind"] == "K=K0":
        expect = "boundary"
    else:
        expect = "yes" if K >= workloads.k0(tau) else "no"
    if verdict != expect:
        problems.append(f"verdict {verdict!r}, K against K0 gives {expect!r}")

    names = os.listdir(out)
    grid = [n for n in names if n.startswith("phase_grid_")]
    if len(grid) != 1:
        return problems + [f"grid files {grid}"]
    tag = grid[0][len("phase_grid_"):-len(".csv")]
    X, Y, F = _floats(os.path.join(out, grid[0]), ("X", "Y", "F"))
    n = PHASE_GRID
    if len(X) != n * n:
        return problems + [f"grid has {len(X)} rows"]
    gx = np.linspace(0.0, 1.0, n)
    gy = np.linspace(-1.0, 1.0, n)
    if not (np.array_equal(X, np.tile(gx, n)) and np.array_equal(Y, np.repeat(gy, n))):
        problems.append("grid points are not the 201 x 201 lattice")
    ref = oracles.energy(lam, K, X, Y)
    dev = float(np.max(np.abs(F - ref) / np.maximum(1.0, np.abs(ref))))
    if not dev <= 1e-13:
        problems.append(f"grid F differs from the closed form by {dev!r}")
    corner = (X == 0.0) & (np.abs(Y) == 1.0)
    if not np.all(np.abs(F[corner] - 1.0) <= 1e-14):
        problems.append("F(0, +-1) != 1")
    edge = K * (1.0 - lam)
    if not np.all(np.abs(F[X == 1.0] - edge) <= 1e-14 * max(1.0, abs(edge))):
        problems.append("F(1, Y) != K (1 - lam)")

    level, seq, cx, cy = _floats(os.path.join(out, f"contours_{tag}.csv"), ("level", "seq", "X", "Y"))
    off = float(np.max(np.abs(oracles.energy(lam, K, cx, cy) - level))) if len(level) else 0.0
    if not off <= CONTOUR_TOL:
        problems.append(f"contour point off its level by {off!r}")
    if expect == "yes" and not np.any(level == 1.0):
        problems.append("no level-1 contour although the sphere exists")
    if expect != "boundary" and level_one_connects(lam, K) != (expect == "yes"):
        problems.append("sublevel-set oracle disagrees with the verdict")
    if not _svg_ok(os.path.join(out, f"phase_{tag}.svg")):
        problems.append("phase svg has no polyline")
    return problems


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

#: the measured value and its bound in each suite's record
SUITE_FIELDS = {
    "boundary_identities": ("worst", "tol"),
    "energy_conservation": ("worst_drift", "budget"),
    "frobenius": ("worst", "tol"),
    "symmetry": ("worst_residual_change", "tol"),
    "route_equivalence": ("worst", "tol"),
}


def check_verify(record):
    with open(os.path.join(record["out"], "verify.json")) as f:
        report = json.load(f)
    problems = []
    if set(report["suites"]) != set(SUITE_FIELDS):
        problems.append(f"suites {sorted(report['suites'])}")
    for name, (value, bound) in SUITE_FIELDS.items():
        suite = report["suites"].get(name, {})
        if not (suite.get("pass") is True and suite[value] <= suite[bound]):
            problems.append(f"{name}: {suite}")
    if report["pass"] is not True:
        problems.append("verify did not pass")
    return problems


# ---------------------------------------------------------------------------


def check_record(record, hs):
    """Problems with one command's result; an exception is a problem too."""
    if record["error"] is not None:
        return [record["error"]]
    if record["rc"] != 0:
        return [f"exit code {record['rc']}: {record['stderr'].strip()[-200:]}"]
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            kind = record["argv"][0]
            if kind == "sphere":
                return check_sphere(record, hs)
            if kind == "embed-region":
                return check_embed(record, hs)
            if kind == "phase":
                return check_phase(record)
            return check_verify(record)
    except (OSError, ValueError, KeyError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]


def same_files(dir_a, dir_b):
    """Byte-identical output directories (same names, same contents)."""
    names = sorted(os.listdir(dir_a))
    if names != sorted(os.listdir(dir_b)):
        return False
    _, mismatch, errors = filecmp.cmpfiles(dir_a, dir_b, names, shallow=False)
    return not mismatch and not errors
