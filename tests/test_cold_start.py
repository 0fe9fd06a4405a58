"""A fresh process loads scipy only when it integrates an ODE.

Importing ``scipy.integrate`` is most of a cold start, and only
``profile.integrate`` (behind ``verify``) needs it, so ``berger_cgc.profile``
imports ``solve_ivp`` on first use.  Likewise the number writer,
``berger_cgc.textout``, is imported, and its digit table built, by the first
file written.  The test modules import scipy themselves, so each case runs
in a new interpreter.
"""

import json

import pytest

# runs cli.main on its arguments (none: the import alone), then prints the
# exit code and the scipy modules loaded as its last line
PROBE = """
import json, sys
from berger_cgc import cli
code = cli.main(sys.argv[1:]) if sys.argv[1:] else 0
print(json.dumps([code, sorted(m for m in sys.modules if m.split(".")[0] == "scipy")]))
"""


def run_cli(fresh_python, argv):
    proc = fresh_python(PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("argv", [
    [],
    ["thresholds", "--tau", "0.75", "--tau", "2"],
    ["phase", "--tau", "0.75", "--k", "3", "--grid", "21", "--format", "csv,svg"],
    ["sphere", "--tau", "0.3", "--k", "5", "--samples", "65", "--mesh-rings", "3",
     "--format", "csv,svg,obj"],
    ["embed-region", "--k", "5", "--tau-range", "0.05:0.5:4"],
], ids=["import", "thresholds", "phase", "sphere", "embed-region"])
def test_command_loads_no_scipy(fresh_python, argv, tmp_path):
    code, scipy = run_cli(fresh_python, argv + ["--out", str(tmp_path)] if argv else [])
    assert code == 0
    assert scipy == []


def test_import_builds_no_writer(fresh_python):
    # the number writer and its digit table wait for the first file written
    proc = fresh_python(
        "import sys\n"
        "from berger_cgc import cli\n"
        "imported = 'berger_cgc.textout' in sys.modules\n"
        "from berger_cgc import textout\n"
        "print(imported, textout._tables.cache_info().currsize)\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "0"]


def test_verify_loads_the_integrator(fresh_python, tmp_path):
    code, scipy = run_cli(fresh_python, ["verify", "--out", str(tmp_path)])
    assert code == 0
    assert "scipy.integrate" in scipy
