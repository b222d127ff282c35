"""Config fuzz: every config that differs from a small working one in a
single entry either runs or exits with a documented code, and an exit 1
names the `config.` key at fault."""

import functools
import json
import math
import operator

import numpy as np
import pytest

from stburgers import cli
from stburgers.fields import Basis, space_nodes, time_nodes

MISSING = object()
MUTATIONS = [MISSING, None, True, "x", -1, 0, math.nan, 10**400, [], {}]

MODE = {"n": 1, "m": 1, "re": 0.2, "im": -0.1}
SOLVER = {"method": "homotopy", "newton_tol": 1e-10, "max_newton": 10}
OUTPUTS = {"report_path": "report.json", "field_csv_path": "field.csv"}
PROBLEM = {"mu": 1.0, "n_t": 2, "n_x": 2, "forcing": {"modes": [MODE]}, "solver": SOLVER}

BASES = {
    "solve": ("solve", dict(PROBLEM, outputs=OUTPUTS)),
    "solve-decomposition": ("solve", dict(
        PROBLEM,
        forcing={"decomposition": {"g_modes": [MODE], "h_modes": [{"n": 1, "m": 0, "re": 0.1}]}},
    )),
    "solve-grid-file": ("solve", dict(PROBLEM, forcing={"grid_file": "forcing.csv"})),
    "sweep": ("sweep", dict(
        PROBLEM,
        sweep={"param": "mu", "values": [1.0, 0.5]},
        outputs={"report_path": "report.json", "field_csv_path": "rows.csv"},
    )),
    "verify": ("verify", {
        "seed": 0,
        "n_samples": 2,
        "mu": 0.5,
        "outputs": {"report_path": "report.json"},
    }),
    "colehopf": ("colehopf", dict(
        PROBLEM,
        solver={"newton_tol": 1e-10, "max_newton": 10},
        n_starts=2,
        seed=0,
        monodromy_steps=8,
        outputs={"report_path": "report.json"},
    )),
    "colehopf-phi-file": ("colehopf", {
        "phi_file": "phi.csv", "outputs": {"report_path": "report.json"}
    }),
    "scale": ("scale", {
        "period": 2.0,
        "length": 3.0,
        "viscosity": -0.5,
        "n_t": 2,
        "n_x": 2,
        "forcing": {"modes": [MODE]},
        "solver": SOLVER,
        "outputs": OUTPUTS,
    }),
}


def entries(node, path=()):
    """Paths of every entry below the top level, leaves and containers."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from entries(value, path + (key,))


def mutated(base, path, value):
    cfg = json.loads(json.dumps(base))
    node = cfg
    for key in path[:-1]:
        node = node[key]
    if value is MISSING:
        del node[path[-1]]
    else:
        node[path[-1]] = value
    return cfg


def write_grid(path, m_t, m_x, basis, fn):
    times, xs = time_nodes(m_t), space_nodes(m_x, basis)
    cli.write_field_csv(path, times, xs, fn(*np.meshgrid(times, xs, indexing="ij")))


@pytest.mark.parametrize("name", list(BASES))
def test_single_entry_mutations_end_in_a_documented_exit(name, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    write_grid("forcing.csv", 5, 2, Basis.DIRICHLET_SINE,
               lambda t, x: 0.2 * np.sin(np.pi * x) * np.cos(2 * np.pi * t))
    write_grid("phi.csv", 5, 3, Basis.NEUMANN_COSINE,
               lambda t, x: 1.0 + 0.3 * np.cos(np.pi * x))
    command, base = BASES[name]
    cases = [((), MISSING)] + [(p, v) for p in entries(base) for v in MUTATIONS]
    problems = []
    for path, value in cases:
        cfg = base if not path else mutated(base, path, value)
        with open("config.json", "w") as fh:
            json.dump(cfg, fh)
        label = ".".join(map(str, path)) + " = " + ("<missing>" if value is MISSING else repr(value))
        try:
            code = cli.main([command, "--config", "config.json"])
        except Exception as e:  # noqa: BLE001 - the contract is that nothing escapes
            problems.append(f"{label}: raised {type(e).__name__}: {e}")
            continue
        err = capsys.readouterr().err
        if not path and code != 0:
            problems.append(f"the base config exits {code}: {err}")
        elif code not in (0, 1, 2, 3):
            problems.append(f"{label}: exit {code}")
        elif code == 1 and "config." not in err:
            problems.append(f"{label}: exit 1 without a config key: {err.strip()}")
    # an unread key added to any mapping, the top level included, exits 1
    # naming it
    for path in [()] + list(entries(base)):
        if not isinstance(functools.reduce(operator.getitem, path, base), dict):
            continue
        with open("config.json", "w") as fh:
            json.dump(mutated(base, path + ("unread",), 1), fh)
        key = "config" + "".join(f"[{k}]" if isinstance(k, int) else f".{k}" for k in path)
        code = cli.main([command, "--config", "config.json"])
        err = capsys.readouterr().err
        if code != 1 or f"{key}.unread" not in err:
            problems.append(f"{key}.unread: exit {code}: {err.strip()}")
    assert not problems, "\n".join(problems)
