"""Golden outputs: SHA-256 of every file the CLI writes for a fixed config set.

The hashes in ``golden_outputs.json`` were recorded once and are never
regenerated: a refactor that changes a single byte of a CSV, SVG or OBJ
output fails here.  Floats are written with 17 significant digits, so the
bytes also depend on the platform's libm and on numpy's elementwise
kernels; the numpy version the hashes were recorded under is stored with
them and named in the failure message.
"""

import hashlib
import json
import os
from pathlib import Path

import numpy as np
import pytest

from berger_cgc import cli

GOLDEN = json.loads((Path(__file__).with_name("golden_outputs.json")).read_text())

#: small ring count for all but one sphere keeps the suite fast
RINGS = ["--mesh-rings", "8"]

CONFIGS = {
    "thresholds": ["thresholds", "--tau", "0.5", "--tau", "1", "--tau", "2"],
    "phase-0.75-3": ["phase", "--tau", "0.75", "--k", "3", "--format", "csv,svg"],
    "phase-2-0.5": ["phase", "--tau", "2", "--k", "0.5", "--format", "csv,svg"],
    "sphere-0.3-5": ["sphere", "--tau", "0.3", "--k", "5", "--format", "csv,svg,obj"],
    "sphere-2-0.5": ["sphere", "--tau", "2", "--k", "0.5", "--format", "csv,svg,obj"] + RINGS,
    "sphere-1-2": ["sphere", "--tau", "1", "--k", "2", "--format", "csv,svg,obj"] + RINGS,
    # K = k0 for tau = 1/2: the degenerate-threshold path
    "sphere-0.5-3.25": ["sphere", "--tau", "0.5", "--k", "3.25", "--format", "csv,svg,obj"] + RINGS,
    # K = k0 for tau = 2: pole-touching profile, divergent vertical radius
    "sphere-2-0.25": ["sphere", "--tau", "2", "--k", "0.25", "--format", "csv,svg,obj"] + RINGS,
    "embed-region": ["embed-region", "--k", "5", "--tau-range", "0.05:0.5:10"],
}


def _hashes(directory):
    return {
        name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
        for name in sorted(os.listdir(directory))
    }


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_golden_outputs(name, tmp_path, capsys):
    rc = cli.main(CONFIGS[name] + ["--out", str(tmp_path)])
    capsys.readouterr()
    assert rc == cli.EXIT_OK
    got = _hashes(tmp_path)
    want = GOLDEN["files"][name]
    assert got == want, (
        f"{name}: output bytes differ from the golden record "
        f"(recorded with numpy {GOLDEN['numpy']}, running numpy {np.__version__})"
    )
