"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` rebinds library functions and classes by their module
attribute names, so a refactor that removes or renames one of them breaks
``bench/run.py --trace 1``.  This test loads the tracer from its path, runs
one small ``phase`` and one ``sphere --format obj`` under it, and checks
that its counters moved and that ``restore`` puts every name back.
"""

import importlib.util
from pathlib import Path

from berger_cgc import cli, phase, profile, sphere

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
MODULES = (phase, profile, sphere)


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_install_counts_and_restore(tmp_path, capsys):
    tracing = load_tracing()
    before = [dict(vars(m)) for m in MODULES]

    def rebound():
        return {
            f"{m.__name__}.{name}"
            for m, names in zip(MODULES, before)
            for name, value in names.items()
            if getattr(m, name) is not value
        }

    tracer = tracing.Tracer()
    try:
        restore = tracing.install(tracer)
        assert {"berger_cgc.phase.trace_level_curve", "berger_cgc.sphere.build_mesh"} <= rebound()
        assert cli.main(["phase", "--tau", "0.75", "--k", "3", "--grid", "21",
                         "--out", str(tmp_path)]) == 0
        assert cli.main(["sphere", "--tau", "0.3", "--k", "5", "--samples", "65",
                         "--mesh-rings", "3", "--format", "obj", "--out", str(tmp_path)]) == 0
        restore()
        assert rebound() == set()
    finally:  # leave the modules as found even when install or a command failed
        for m, names in zip(MODULES, before):
            for name, value in names.items():
                if getattr(m, name) is not value:
                    setattr(m, name, value)
    layers = tracing.summarize(tracer, 2)
    assert layers["phase.trace_level_curve.points"] > 0
    assert layers["sphere.build_mesh.vertices"] > 0
