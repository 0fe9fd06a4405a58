import math

import numpy as np
import pytest

from berger_cgc import integrate, make_params
from berger_cgc.profile import ProfileState


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
    return integrate(p, K, ProfileState(0.0, x0, 0.0, math.acos(math.sqrt(c2))), s_max=5.0)


def random_ambient_point(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    from berger_cgc import AmbientPoint

    return AmbientPoint(complex(v[0], v[1]), complex(v[2], v[3]))


def random_tangent(rng, p):
    from berger_cgc.geometry import tangent_projection

    return tangent_projection(p, rng.normal(size=4))
