import numpy as np
import pytest

from stburgers.fields import random_field
from stburgers.norms import dual_norm, gn_probe
from stburgers.operators import invert_L
from stburgers.solver import SolverConfig, homotopy_solve, newton_solve

MUS = (1.0, 0.1, 0.05)
AMPS = (0.25, 1.0, 2.5)


@pytest.fixture(scope="session")
def gn_constant():
    """200-sample Gagliardo-Nirenberg probe at the acceptance truncation."""
    return gn_probe(range(8), 25, n_t=32, n_x=32)


@pytest.fixture(scope="session")
def base_forcing():
    f = random_field(11, 16, 16, 2.5)
    return (1.0 / dual_norm(f)) * f


@pytest.fixture(scope="session")
def test_matrix(base_forcing, gn_constant):
    """Solved instances over mu x amplitude with homotopy paths and the
    three Newton starts (zero, linear solve, seeded random)."""
    cells = {}
    for mu in MUS:
        for amp in AMPS:
            f = amp * base_forcing
            cfg = SolverConfig(mu=mu, max_newton=60)
            hom = homotopy_solve(f, cfg, c_gn=gn_constant)
            starts = [
                newton_solve(f, None, cfg),
                newton_solve(f, invert_L(f, mu), cfg),
                newton_solve(f, 0.1 * random_field(7, 16, 16, 2.0), cfg),
            ]
            cells[(mu, amp)] = {"f": f, "homotopy": hom, "starts": starts}
    return cells
