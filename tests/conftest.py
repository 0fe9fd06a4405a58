import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from berger_cgc import integrate, make_params


SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture
def fresh_python(tmp_path):
    """Run Python code in a new interpreter that imports the package from src/.

    Returns ``run(code, *args)``, a completed process with text output; the
    code sees ``args`` as ``sys.argv[1:]`` and runs in ``tmp_path``.
    """
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)

    def run(code, *args):
        return subprocess.run([sys.executable, "-c", code, *args], cwd=tmp_path, env=env,
                              capture_output=True, text=True, timeout=300)

    return run


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(params=[0.5, 0.75, 1.0, 1.3, 2.0])
def params(request):
    return make_params(request.param)


@pytest.fixture
def pole_traj():
    """tau = 2, K = 0.5 from x = 1.2 on the energy level K (1 - lam) = 2: reaches the pole."""
    p = make_params(2.0)
    K, x0 = 0.5, 1.2
    u = math.sin(x0) ** 2
    c2 = ((2.0 - K * (1 - p.lam * u) * u) * (1 - p.lam * u)
          / ((1 - 2 * p.lam * u) ** 2 * math.cos(x0) ** 2))
    return integrate(p, K, (0.0, x0, 0.0, math.acos(math.sqrt(c2))), s_max=5.0)


def random_ambient_point(rng, n=None):
    """A random point of the unit 3-sphere as a (4,) array, or n of them as (n, 4)."""
    v = rng.normal(size=(4,) if n is None else (n, 4))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def random_tangent(rng, p):
    """A random tangent vector at each (..., 4) point p."""
    from berger_cgc.geometry import tangent_projection

    return tangent_projection(p, rng.normal(size=np.shape(p)))
