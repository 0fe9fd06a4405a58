"""Benchmark of the berger-cgc command-line tool, end to end and per layer.

    python3 bench/run.py --workload export --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Workloads: export (sphere and phase commands) and numerics
(embed-region sweeps and verify); see ``workloads.py`` and ``README.md``.

``--trace 0`` measures the end-to-end metrics with tracing off:

* ``setup_s``: a fresh interpreter, from launch until ``berger_cgc.cli``
  is imported (median over the run's fresh launches);
* ``cold_cmd_s``: the workload's representative command as a fresh
  process, launch to exit (median over the same launches);
* ``cmds_per_s``: commands with checked-correct output per second of the
  warm commands, run in process by this single-threaded process;
* ``peak_rss_mb``: the peak resident memory of this process over the timed
  span.

Both launch metrics come from the same launches: the fresh process stamps
the moment its import is done on its standard error, on the clock the
launcher reads too.

``--trace 1`` reports the per-layer metrics instead: import times from
``python -X importtime``, and per-command spans and counters from traced
rounds that alternate with untraced ones; the difference between their
command rates is the tracing overhead.

The timed span lasts ``--seconds`` (then finishes its round): fresh
launches and warm commands alternate in it, each taking about half of it,
so that every timing samples the host over the whole span rather than at a
few moments.  Every command's output is checked after the timed span.  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; with ``--workload all`` each
workload runs in its own process and prints one such line, with its
``workload`` name added.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import warnings
from time import monotonic, perf_counter

# one BLAS/OpenMP thread, here and in every child: set before numpy loads
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import tracing  # noqa: E402
import workloads  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
#: at least this many fresh launches in a run, however short
MIN_LAUNCHES = 3
#: share of the timed span that goes to fresh launches; warm commands get the rest
LAUNCH_SHARE = 0.5
CHILD_TIMEOUT = 150
#: a fresh process runs the CLI the way the installed ``berger-cgc`` script does
CLI = "import sys; from berger_cgc.cli import main; sys.exit(main())"
#: the same, stamping on standard error the moment its import is done
STAMP = "bench-imported-at "
STAMPED_CLI = ("import sys, time; from berger_cgc.cli import main; "
               f"sys.stderr.write('{STAMP}%r\\n' % time.monotonic()); sys.exit(main())")


def child_env(src):
    env = dict(os.environ)
    env["PYTHONPATH"] = src
    return env


def launch(argv, env):
    """One child process: its start on the monotonic clock, its wall time
    from launch to exit, and the finished process."""
    start = monotonic()
    proc = subprocess.run(
        argv, env=env, timeout=CHILD_TIMEOUT, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True)
    return start, monotonic() - start, proc


def import_stamp(stderr):
    """The monotonic time a stamped child finished importing the CLI."""
    first = stderr.split("\n", 1)[0]
    if not first.startswith(STAMP):
        return None
    return float(first[len(STAMP):])


def fail(message):
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_seconds(stderr):
    """Cumulative import time of berger_cgc.cli (package included) and of
    berger_cgc.profile, from ``python -X importtime`` output."""
    cumulative = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line:
            _, cum, name = line.split("|")
            if cum.strip().isdigit():
                cumulative[name.strip()] = int(cum) * 1e-6
    return cumulative["berger_cgc"] + cumulative["berger_cgc.cli"], cumulative["berger_cgc.profile"]


def run_command(main, cmd, out_dir):
    argv = cmd["argv"] + ["--out", out_dir]
    stdout, stderr = io.StringIO(), io.StringIO()
    error = None
    rc = None
    start = perf_counter()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            rc = main(argv)
        except Exception as exc:  # a traceback in the CLI counts as a failed command
            error = f"{type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    return {
        "argv": argv, "cell": cmd["cell"], "out": out_dir,
        "rc": rc, "error": error, "stdout": stdout.getvalue(),
        "stderr": stderr.getvalue(), "seconds": elapsed,
    }


class Warm:
    """Whole rounds of in-process ``cli.main`` commands, one command a step.

    With tracing, traced and untraced rounds alternate, so that a slow
    spell of the machine weighs on both rates alike.
    """

    def __init__(self, cli, workload, seed, trace, out):
        self.cli = cli
        self.out = out
        self.modes = ["untraced", "traced"] if trace else ["untraced"]
        self.sections = {m: {"records": [], "wall": 0.0} for m in self.modes}
        self.tracer = tracing.Tracer()
        self.traced_main = self.tracer.wrap(tracing.ROOT, cli.main)
        self.stream = workloads.rounds(workload, seed)
        self.rounds = 0
        self.pending = []
        self.restore = None

    def step(self):
        """Run the next command, starting a new round when the last one is done."""
        if not self.pending:
            self.pending = list(next(self.stream))
            self.mode = self.modes[self.rounds % len(self.modes)]
            self.rounds += 1
            if self.mode == "traced":
                self.restore = tracing.install(self.tracer)
        section = self.sections[self.mode]
        main = self.traced_main if self.restore else self.cli.main
        out_dir = os.path.join(self.out, self.mode, str(len(section["records"])))
        start = perf_counter()
        section["records"].append(run_command(main, self.pending.pop(0), out_dir))
        section["wall"] += perf_counter() - start
        if not self.pending and self.restore:
            self.restore()
            self.restore = None

    def round_done(self):
        """Every mode has run a whole round, and no round is under way."""
        return not self.pending and self.rounds >= len(self.modes)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "berger_cgc", "cli.py")):
        fail(f"no program source at {src}/berger_cgc; run from the root of a checkout")

    if args.workload == "all":
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                stdout=subprocess.PIPE, text=True)
            if proc.returncode != 0:
                fail(f"{name} exited {proc.returncode}")
            result = json.loads(proc.stdout.splitlines()[-1])
            print(json.dumps({"workload": name, **result}), flush=True)
        return

    run_dir = os.path.join(BENCH, "out", f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        result = measure(args, src, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result))


def measure(args, src, run_dir):
    env = child_env(src)
    sys.path.insert(0, src)
    import berger_cgc.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        fail(f"berger_cgc was imported from {cli.__file__}, not from {src}")

    rep = workloads.representative(args.workload, args.seed)
    metrics = {}
    problems = []
    setup, cold, imports = [], [], []

    def fresh_launch():
        if args.trace:
            _, _, proc = launch([sys.executable, "-X", "importtime", "-c", "import berger_cgc.cli"], env)
            if proc.returncode != 0:
                fail(f"import failed: {proc.stderr[-500:]}")
            imports.append(import_seconds(proc.stderr))
            return
        out = os.path.join(run_dir, f"cold{len(cold)}")
        start, t, proc = launch([sys.executable, "-c", STAMPED_CLI, *rep["argv"], "--out", out], env)
        stamp = import_stamp(proc.stderr)
        if stamp is None:
            fail(f"cold command did not import the CLI: {proc.stderr[-500:]}")
        if proc.returncode != 0:
            problems.append(f"cold command exit {proc.returncode}: {proc.stderr[-300:]}")
        setup.append(stamp - start)
        cold.append(t)

    # the timed span: fresh launches and warm commands alternate, the
    # launches taking LAUNCH_SHARE of the time, until --seconds have passed
    # and the round under way is done
    warm = Warm(cli, args.workload, args.seed, args.trace, os.path.join(run_dir, "warm"))
    warmup = run_command(cli.main, rep, os.path.join(run_dir, "warmup"))
    launches = 0
    launch_seconds = 0.0
    span_start = perf_counter()
    while True:
        elapsed = perf_counter() - span_start
        if elapsed >= args.seconds and launches >= MIN_LAUNCHES and warm.round_done():
            break
        if (launches < MIN_LAUNCHES and elapsed >= args.seconds) or (
                elapsed < args.seconds and launch_seconds <= LAUNCH_SHARE * elapsed):
            start = perf_counter()
            fresh_launch()
            launches += 1
            launch_seconds += perf_counter() - start
        else:
            warm.step()
    span = perf_counter() - span_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"timed span {span:.3f} s: {launches} fresh launches in {launch_seconds:.3f} s",
          file=sys.stderr)
    if not args.trace:
        print(f"launches: setup {json.dumps(setup)} cold {json.dumps(cold)}", file=sys.stderr)

    # checks, outside the timed span; imported only now, so that their
    # libraries do not count in the peak memory of the timed span
    checks_start = perf_counter()
    import checks

    hs = checks.HSample(args.seed)
    warmup["key"] = "warmup"
    problems += [f"warm-up: {p}" for p in checks.check_record(warmup, hs)]
    for i in range(len(cold)):
        if not checks.same_files(os.path.join(run_dir, f"cold{i}"), warmup["out"]):
            problems.append(f"cold run {i} files differ from the warm files for the same input")

    failed_keys = {}
    for mode, section in warm.sections.items():
        for i, rec in enumerate(section["records"]):
            rec["key"] = f"{mode}/{i}"
            found = checks.check_record(rec, hs)
            if found:
                failed_keys[rec["key"]] = found
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for key, found in hs.check().items():
            if key == "warmup":
                problems += [f"warm-up: {p}" for p in found]
            else:
                failed_keys.setdefault(key, []).extend(found)

    print(f"checks {perf_counter() - checks_start:.3f} s", file=sys.stderr)
    attempted = failed = 0
    rates = {}
    for mode, section in warm.sections.items():
        correct = 0
        for rec in section["records"]:
            attempted += 1
            if rec["key"] not in failed_keys:
                correct += 1
                continue
            failed += 1
            crashed = rec["error"] is not None or rec["rc"] != 0
            if not (rec["cell"].get("expect_fail") and crashed):
                problems.append(f"{rec['key']} {' '.join(rec['argv'])}: {failed_keys[rec['key']]}")
        rates[mode] = correct / section["wall"]
        print(f"{mode}: {correct} of {len(section['records'])} commands correct "
              f"in {section['wall']:.3f} s", file=sys.stderr)

    if args.trace:
        metrics["cli.import_s"] = (statistics.median(c for c, _ in imports), "s")
        metrics["profile.import_s"] = (statistics.median(p for _, p in imports), "s")
        units = {"calls": "count", "points": "count", "nfev": "count", "states": "count",
                 "evals": "count", "levels": "count", "vertices": "count", "evals_per_root": "ratio"}
        layers = tracing.summarize(warm.tracer, len(warm.sections["traced"]["records"]))
        for name, value in layers.items():
            metrics[name] = (value, units.get(name.rsplit(".", 1)[1], "s"))
        metrics["trace.cmds_per_s"] = (rates["traced"], "1/s")
        metrics["trace.overhead"] = (1.0 - rates["traced"] / rates["untraced"], "ratio")
        spans_dir = os.path.join(BENCH, "out", "spans")
        os.makedirs(spans_dir, exist_ok=True)
        warm.tracer.dump(os.path.join(spans_dir, f"{args.workload}-{args.seed}.json"))
    else:
        metrics["setup_s"] = (statistics.median(setup), "s")
        metrics["cold_cmd_s"] = (statistics.median(cold), "s")
        metrics["cmds_per_s"] = (rates["untraced"], "1/s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")

    for p in problems:
        print(f"problem: {p}", file=sys.stderr)
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


if __name__ == "__main__":
    main()
