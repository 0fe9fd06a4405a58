"""The benchmark's tracer still finds every name it wraps.

``bench/tracing.py`` rebinds library functions and classes by their module
attribute names, so a refactor that removes or renames one of them breaks
``bench/run.py --trace 1``.  This test loads the tracer from its path, runs
one small ``phase``, one ``sphere --format obj`` and one ``embed-region``
under it, and checks that its counters moved and that ``restore`` puts
every name back.  The
tracer counts ODE right-hand-side evaluations through ``profile.solve_ivp``,
which is imported on first use; a fresh interpreter checks that
``integrate`` still calls whatever that name is bound to.
"""

import importlib.util
import json
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
        # the tanh-sinh kernel, called through sphere's binding of it
        assert cli.main(["embed-region", "--k", "5", "--tau-range", "0.05:0.5:4",
                         "--out", str(tmp_path)]) == 0
        restore()
        assert rebound() == set()
    finally:  # leave the modules as found even when install or a command failed
        for m, names in zip(MODULES, before):
            for name, value in names.items():
                if getattr(m, name) is not value:
                    setattr(m, name, value)
    layers = tracing.summarize(tracer, 3)
    assert layers["phase.trace_level_curve.points"] > 0
    assert layers["sphere.build_mesh.vertices"] > 0
    assert layers["quadrature.tanhsinh.calls"] > 0
    assert layers["quadrature.tanhsinh.evals"] > 0
    # the one traced profile, of build_sphere: len(Trajectory.states) is its sample count
    assert tracer.counts["profile.states"] == 65


# installs the tracer before scipy is loaded, integrates one short sphere
# profile, restores, and prints what the test asserts as one JSON line
TRACED_INTEGRATE = """
import importlib.util, json, sys
from berger_cgc import make_params, profile
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
loaded_before = "scipy.integrate" in sys.modules
tracer = tracing.Tracer()
restore = tracing.install(tracer)
p = make_params(0.75)
profile.integrate(p, 3.0, profile.axis_seed(p, 3.0), s_max=1.0, n_samples=65)
restore()
import scipy.integrate
layers = tracing.summarize(tracer, 1)
print(json.dumps({"loaded_before": loaded_before,
                  "calls": layers["profile.integrate.calls"],
                  "nfev": layers["profile.integrate.nfev"],
                  "restored": profile.solve_ivp is scipy.integrate.solve_ivp}))
"""


def test_install_counts_the_lazily_imported_integrator(fresh_python):
    proc = fresh_python(TRACED_INTEGRATE, str(TRACING))
    assert proc.returncode == 0, proc.stderr
    got = json.loads(proc.stdout.splitlines()[-1])
    assert got["loaded_before"] is False
    assert got["calls"] > 0
    assert got["nfev"] > 0
    assert got["restored"] is True
