"""Self-test of the output checks: clean output passes, corrupted output fails.

    python3 bench/selftest.py

Run from the root of a source checkout.  Runs one command of each kind
(sphere, embed-region, phase, verify) as a fresh process, checks its output, then checks deliberately corrupted
copies of it (h moved by 1e-6, a dropped OBJ face, an off-level contour
point, ...).  Exits 0 only when every clean output passes and every
corruption is rejected.
"""

from __future__ import annotations

import os
import re
import shutil
import subprocess
import sys
import warnings

import checks
import run
import workloads

OUT = os.path.join(run.BENCH, "out", "selftest")


def produce(cmd, name):
    out = os.path.join(OUT, name)
    env = run.child_env(os.path.join(os.getcwd(), "src"))
    proc = subprocess.run(
        [sys.executable, "-c", run.CLI, *cmd["argv"], "--out", out], env=env,
        capture_output=True, text=True, timeout=run.CHILD_TIMEOUT)
    return {"argv": cmd["argv"], "cell": cmd["cell"], "out": out, "rc": proc.returncode,
            "error": None, "stdout": proc.stdout, "stderr": proc.stderr, "key": name}


def problems(record):
    hs = checks.HSample(0, n_mpmath=1)
    found = checks.check_record(record, hs)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for more in hs.check().values():
            found += more
    return found


def edit(path, fn):
    with open(path) as f:
        text = f.read()
    changed = fn(text)
    if changed == text:
        raise RuntimeError(f"corruption left {path} unchanged")
    with open(path, "w") as f:
        f.write(changed)


def one(directory, prefix, suffix=""):
    names = [n for n in os.listdir(directory) if n.startswith(prefix) and n.endswith(suffix)]
    if len(names) != 1:
        raise RuntimeError(f"{len(names)} files {prefix}*{suffix} in {directory}")
    return os.path.join(directory, names[0])


def _bump(value, delta):
    return repr(float(value) + delta)


def corrupt_csv_cell(row, col, delta):
    def fn(text):
        lines = text.split("\n")
        cells = lines[row].split(",")
        cells[col] = _bump(cells[col], delta)
        lines[row] = ",".join(cells)
        return "\n".join(lines)
    return fn


def drop_face(text):
    i = text.index("\nf ")
    return text[:i] + text[text.index("\n", i + 1):]


def move_vertex(text):
    lines = text.split("\n")
    i = next(k for k, ln in enumerate(lines) if ln.startswith("v ")) + 100
    v = lines[i].split()
    v[1] = _bump(v[1], 1e-6)
    lines[i] = " ".join(v)
    return "\n".join(lines)


def corruptions(records):
    """(record, description, mutate(out_dir, record)) tuples."""
    sp, em, ph, ve = (records[k] for k in workloads.KINDS)

    def csv(prefix, row, col, delta):
        return lambda out, rec: edit(one(out, prefix, ".csv"), corrupt_csv_cell(row, col, delta))

    def stdout(pattern, repl):
        def fn(out, rec):
            new = re.sub(pattern, repl, rec["stdout"])
            if new == rec["stdout"]:
                raise RuntimeError("corruption left stdout unchanged")
            rec["stdout"] = new
        return fn

    def worst_above_tol(out, rec):
        edit(os.path.join(out, "verify.json"),
             lambda t: re.sub(r'("frobenius": \{[^}]*"worst": )[^,]*', r"\g<1>1.0", t))

    return [
        (sp, "h + 1e-6", csv("spheres.csv", 1, 3, 1e-6)),
        (sp, "r + 1e-9", csv("spheres.csv", 1, 2, 1e-9)),
        (sp, "one profile alpha + 1e-6", csv("profile_", 200, 3, 1e-6)),
        (sp, "one profile x + 1e-5", csv("profile_", 300, 1, 1e-5)),
        (sp, "OBJ face dropped", lambda out, rec: edit(one(out, "sphere_"), drop_face)),
        (sp, "OBJ vertex moved by 1e-6", lambda out, rec: edit(one(out, "sphere_"), move_vertex)),
        (em, "region h + 1e-6", csv("region.csv", 5, 2, 1e-6)),
        (em, "region embedded flag flipped", lambda out, rec: edit(
            one(out, "region.csv"), lambda t: t.replace("true", "false", 1))),
        (em, "tau* + 1e-4", csv("boundary.csv", 1, 1, 1e-4)),
        (ph, "contour point off level by 1e-6", csv("contours_", 40, 2, 1e-6)),
        (ph, "grid F + 1e-9", csv("phase_grid_", 1000, 2, 1e-9)),
        (ph, "verdict flipped", stdout(r"\): yes", "): no")),
        (ve, "a suite's worst above its tolerance", worst_above_tol),
    ]


def main():
    if not os.path.isfile(os.path.join("src", "berger_cgc", "cli.py")):
        run.fail("run from the root of a checkout")
    shutil.rmtree(OUT, ignore_errors=True)
    ok = True
    try:
        records = {}
        for kind in workloads.KINDS:
            records[kind] = produce(workloads.example(kind, 0), kind)
            found = problems(records[kind])
            print(f"clean {kind}: {'pass' if not found else found}")
            ok = ok and not found

        for i, (rec, what, mutate) in enumerate(corruptions(records)):
            bad = dict(rec, out=os.path.join(OUT, f"bad{i}"), key=f"bad{i}")
            shutil.copytree(rec["out"], bad["out"])
            mutate(bad["out"], bad)
            found = problems(bad)
            print(f"corrupted {rec['argv'][0]} ({what}): {f'rejected: {found[0]}' if found else 'ACCEPTED'}")
            ok = ok and bool(found)

        copy = os.path.join(OUT, "copy")
        shutil.copytree(records["sphere"]["out"], copy)
        edit(one(copy, "profile_", ".csv"), lambda t: t.replace("\n", "\n ", 1))
        same = checks.same_files(records["sphere"]["out"], copy)
        print(f"determinism check on a one-byte change: {'ACCEPTED' if same else 'rejected'}")
        ok = ok and not same
    finally:
        shutil.rmtree(OUT, ignore_errors=True)
    print("self-test", "passed" if ok else "FAILED")
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
