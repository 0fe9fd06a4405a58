"""Seeded command inputs for the two benchmark workloads.

Nothing here imports the program: the inputs are drawn from the seed alone,
and the thresholds are the paper's closed forms written out again, so the
checks can use the same functions as an independent reference.

Every workload is a stream of *rounds*.  A round is a fixed list of
commands, so a run that attempts whole rounds always attempts the same mix
of operations, whatever its length.  Each round draws fresh (tau, K) cells,
so no seeded cell repeats within a run.
"""

from __future__ import annotations

import math
import random

WORKLOADS = ("export", "numerics")
#: the CLI commands the workloads are made of
KINDS = ("sphere", "embed-region", "phase", "verify")

#: seeded cells keep |K / K0 - 1| at least this far from the threshold, or at 0
MIN_EPS = 1e-4
#: tau is drawn on this dyadic grid, so 4 - 3 tau^2 is exact in binary floating point
TAU_GRID = 1024

#: (tau, K) inputs that exist as spheres but hit the trace-gate fault in
#: build_sphere; the CLI exits 1 with a traceback on both of them
TRACE_GATE_CELLS = ((2.0, 0.2500025), (1.0, 1.00001))

EMBED_TAUS_LOW = 12  # tau bins on [0.04, 0.64]
EMBED_TAUS_HIGH = 12  # tau bins on [1.04, 3.44]
EMBED_TOL = 1e-8


def k0(tau: float) -> float:
    """Existence threshold K0: 4 - 3 tau^2 for tau <= 1, 1 / tau^2 above."""
    return 4.0 - 3.0 * tau * tau if tau <= 1.0 else 1.0 / (tau * tau)


def kp(tau: float) -> float:
    """Supremum of the ambient sectional curvature: K0 for tau <= 1, tau^2 above."""
    return k0(tau) if tau <= 1.0 else tau * tau


def eps_ok(tau: float, K: float) -> bool:
    eps = abs(K / k0(tau) - 1.0)
    return eps == 0.0 or eps >= MIN_EPS


def _tau(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi) * TAU_GRID) / TAU_GRID


def _log_uniform(rng: random.Random, lo: float, hi: float) -> float:
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def _above_k0(rng: random.Random, tau: float, eps_lo: float, eps_hi: float) -> float:
    return k0(tau) * (1.0 + _log_uniform(rng, eps_lo, eps_hi))


def arg(v: float) -> str:
    """A float as a command-line argument that parses back to the same value."""
    return repr(float(v))


def _cell(kind: str, tau: float, K: float) -> dict:
    if not eps_ok(tau, K):
        raise ValueError(f"cell ({tau!r}, {K!r}) is inside the threshold margin")
    return {"kind": kind, "tau": tau, "K": K}


# ---------------------------------------------------------------------------
# sphere: one command per classification stratum
# ---------------------------------------------------------------------------


def sphere_strata(rng: random.Random) -> list:
    """One seeded cell per stratum of the sphere classification."""
    t1 = _tau(rng, 0.1, 0.69)
    t2 = _tau(rng, 0.72, 0.99)
    t4 = _tau(rng, 1.1, 3.0)
    t5 = _tau(rng, 1.1, 3.0)
    # new examples: K in (K0, KP) = (1/tau^2, tau^2)
    span = math.log(kp(t4) / k0(t4))
    k4 = k0(t4) * math.exp(rng.uniform(0.02, 0.98) * span)
    return [
        _cell("tau<1/sqrt2", t1, _above_k0(rng, t1, 1e-3, 2.0)),
        _cell("1/sqrt2<tau<1", t2, _above_k0(rng, t2, 1e-3, 2.0)),
        _cell("tau=1", 1.0, _above_k0(rng, 1.0, 1e-3, 4.0)),
        _cell("K0<K<KP", t4, k4),
        _cell("K>KP", t5, kp(t5) * (1.0 + _log_uniform(rng, 1e-2, 2.0))),
    ]


def sphere_round(rng: random.Random) -> list:
    cells = sphere_strata(rng)
    t_low = _tau(rng, 0.1, 0.99)
    t_high = _tau(rng, 1.1, 3.0)
    cells.append(_cell("K=K0,tau<=1", t_low, k0(t_low)))
    cells.append(_cell("K=K0,tau>1", t_high, k0(t_high)))
    cells.extend(
        {"kind": f"trace-gate-{i}", "tau": t, "K": K, "expect_fail": True}
        for i, (t, K) in enumerate(TRACE_GATE_CELLS)
    )
    return [sphere_command(c) for c in cells]


#: the CLI's default number of mesh steps around the axis (65,410 vertices a sphere)
MESH_RINGS = 128


def sphere_command(cell: dict) -> dict:
    argv = ["sphere", "--tau", arg(cell["tau"]), "--k", arg(cell["K"]), "--format", "csv,svg,obj"]
    return {"argv": argv, "cell": cell}


# ---------------------------------------------------------------------------
# embed-region: tau x K sweeps across h = pi
# ---------------------------------------------------------------------------


def _stratified(rng: random.Random, lo: float, hi: float, n: int) -> list:
    width = (hi - lo) / n
    return [_tau(rng, lo + i * width, lo + (i + 1) * width) for i in range(n)]


def embed_grid(rng: random.Random) -> dict:
    """A tau x K grid with a fixed number of tau and K values.

    The K = K_a slice crosses h = pi near tau ~ 0.1, the K = K_b slice near
    tau ~ 2.3 (just above its existence threshold tau = 1/sqrt(K_b)), and
    the K = K_c slice stays embedded.
    """
    while True:
        taus = _stratified(rng, 0.04, 0.64, EMBED_TAUS_LOW) + _stratified(
            rng, 1.04, 3.44, EMBED_TAUS_HIGH
        )
        ks = [rng.uniform(4.5, 9.0), rng.uniform(0.27, 0.34), rng.uniform(1.3, 3.5)]
        if len(set(taus)) == len(taus) and all(eps_ok(t, K) for t in taus for K in ks):
            return {"kind": "grid", "taus": taus, "ks": ks}


def embed_command(grid: dict) -> dict:
    argv = ["embed-region"]
    for t in grid["taus"]:
        argv += ["--tau", arg(t)]
    for K in grid["ks"]:
        argv += ["--k", arg(K)]
    argv += ["--tol", arg(EMBED_TOL)]
    return {"argv": argv, "cell": grid}


# ---------------------------------------------------------------------------
# phase: portraits per (tau, K) stratum
# ---------------------------------------------------------------------------


def phase_round(rng: random.Random) -> list:
    ta = _tau(rng, 0.1, 3.0)
    tb = _tau(rng, 0.1, 3.0)
    tc = _tau(rng, 1.1, 3.0)
    td = _tau(rng, 0.1, 3.0)
    te = _tau(rng, 0.1, 0.69)
    span = math.log(kp(tc) / k0(tc))
    cells = [
        _cell("K<K0", ta, k0(ta) * rng.uniform(0.3, 0.95)),
        _cell("K=K0", tb, k0(tb)),
        _cell("K0<K<KP", tc, k0(tc) * math.exp(rng.uniform(0.05, 0.95) * span)),
        _cell("K>KP", td, kp(td) * (1.0 + _log_uniform(rng, 0.05, 2.0))),
        _cell("tau<1/sqrt2", te, _above_k0(rng, te, 0.05, 2.0)),
        _cell("tau=1", 1.0, _above_k0(rng, 1.0, 0.05, 4.0)),
    ]
    return [phase_command(c) for c in cells]


def phase_command(cell: dict) -> dict:
    argv = ["phase", "--tau", arg(cell["tau"]), "--k", arg(cell["K"]), "--format", "csv,svg"]
    return {"argv": argv, "cell": cell}


# ---------------------------------------------------------------------------
# verify: the CLI's fixed self-check suites
# ---------------------------------------------------------------------------


def verify_round(rng: random.Random) -> list:
    return [{"argv": ["verify"], "cell": {"kind": "verify"}}]


# ---------------------------------------------------------------------------
# the workloads
# ---------------------------------------------------------------------------

#: embed-region sweeps in a numerics round: together about as long as its verify
EMBED_PER_ROUND = 9


def export_round(rng: random.Random) -> list:
    return sphere_round(rng) + phase_round(rng)


def numerics_round(rng: random.Random) -> list:
    return [embed_command(embed_grid(rng)) for _ in range(EMBED_PER_ROUND)] + verify_round(rng)


ROUNDS = {"export": export_round, "numerics": numerics_round}


def example(kind: str, seed: int) -> dict:
    """One seeded command of a kind: a 1/sqrt2 < tau < 1 sphere, an embed
    grid, a K0 < K < KP portrait, or verify."""
    rng = random.Random(f"{kind}/example/{seed}")
    if kind == "sphere":
        return sphere_command(sphere_strata(rng)[1])
    if kind == "embed-region":
        return embed_command(embed_grid(rng))
    if kind == "phase":
        return phase_round(rng)[2]
    return verify_round(rng)[0]


def representative(workload: str, seed: int) -> dict:
    """The command timed as a fresh process: a sphere export for export,
    verify (the only user of scipy.integrate's ODE solver) for numerics."""
    return example("sphere" if workload == "export" else "verify", seed)


def rounds(workload: str, seed: int):
    """Endless stream of rounds, each a list of {"argv", "cell"} commands."""
    rng = random.Random(f"{workload}/rounds/{seed}")
    make = ROUNDS[workload]
    while True:
        yield make(rng)
