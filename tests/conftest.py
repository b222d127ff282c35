import numpy as np
import pytest

from stburgers.fields import random_field, time_nodes
from stburgers.norms import dual_norm, gn_probe
from stburgers.operators import invert_L
from stburgers.solver import SolverConfig, homotopy_solve, newton_solve

MUS = (1.0, 0.1, 0.05)
AMPS = (0.25, 1.0, 2.5)


def complex_time_rows(n_t, times):
    """The complex time matrix E at the given times, E[j, i] =
    exp(2 pi i n_i t_j) on all modes n_i = i - n_t: the oracle of the
    packed time rows, which form the modes n >= 0 alone."""
    n = np.arange(-n_t, n_t + 1)[None, :]
    return np.exp(2j * np.pi * n * np.asarray(times)[:, None])


def time_eval_matrix(n_t, m_t):
    """E at the nodes t_j = j / m_t of the m_t-point time grid."""
    return complex_time_rows(n_t, time_nodes(m_t))


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
