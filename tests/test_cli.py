import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from stburgers import cli
from stburgers import colehopf as ch
from stburgers.fields import Basis, GridField, to_spectral, zeros
from stburgers.solver import SolverConfig, newton_solve
from stburgers.fields import set_mode


def run(tmp_path, command, cfg, overrides=()):
    path = tmp_path / f"{command}.json"
    path.write_text(json.dumps(cfg))
    argv = [command, "--config", str(path)]
    for o in overrides:
        argv += ["--override", o]
    return cli.main(argv)


def solve_cfg(tmp_path, **extra):
    cfg = {
        "mu": 1.0,
        "n_t": 4,
        "n_x": 4,
        "forcing": {"modes": [{"n": 1, "m": 1, "re": 0.2, "im": -0.1}]},
        "solver": {"method": "newton"},
        "outputs": {"report_path": str(tmp_path / "report.json")},
    }
    cfg.update(extra)
    return cfg


def test_zero_forcing_exits_clean(tmp_path, capsys):
    cfg = solve_cfg(tmp_path, forcing={"modes": []})
    assert run(tmp_path, "solve", cfg) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["command"] == "solve"
    assert doc["success"] is True
    assert doc["norms"]["l2"] == 0.0
    capsys.readouterr()


def test_invalid_mode_is_named_in_the_error(tmp_path, capsys):
    cfg = solve_cfg(tmp_path, forcing={"modes": [{"n": 1, "m": 0, "re": 0.1}]})
    assert run(tmp_path, "solve", cfg) == 1
    err = capsys.readouterr().err
    assert "m=0" in err


def test_mode_validation(tmp_path, capsys):
    bad = [
        {"n": 9, "m": 1, "re": 0.1},           # outside truncation
        {"n": 0, "m": 1, "re": 0.1, "im": 0.2},  # n = 0 must be real
        {"n": -1, "m": 1, "re": 0.1},          # negative time index
    ]
    for mode in bad:
        cfg = solve_cfg(tmp_path, forcing={"modes": [mode]})
        assert run(tmp_path, "solve", cfg) == 1
    capsys.readouterr()


def test_csv_round_trip(tmp_path, capsys):
    csv = tmp_path / "field.csv"
    cfg = solve_cfg(tmp_path)
    cfg["outputs"]["field_csv_path"] = str(csv)
    cfg["outputs"]["grid_m_t"] = 16
    cfg["outputs"]["grid_m_x"] = 12
    assert run(tmp_path, "solve", cfg) == 0
    capsys.readouterr()
    times, xs, vals = cli.read_field_csv(str(csv))
    assert times.shape == (16,) and xs.shape == (12,)
    g = GridField(vals, 16, 12, Basis.DIRICHLET_SINE)
    u_rt = to_spectral(g, 4, 4)
    f = set_mode(zeros(4, 4), 1, 1, 0.2 - 0.1j)
    u_direct = newton_solve(f, None, SolverConfig(mu=1.0)).u
    assert np.max(np.abs(u_rt.coeffs - u_direct.coeffs)) < 1e-8


def test_override_mechanism(tmp_path, capsys):
    cfg = solve_cfg(tmp_path)
    assert run(
        tmp_path, "solve", cfg,
        overrides=["mu=0.5", 'solver.method="homotopy"'],
    ) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["mu"] == 0.5
    assert len(doc["lambda_path"]) >= 5  # continuation path was recorded
    capsys.readouterr()


def test_sweep_over_mu(tmp_path, capsys):
    csv = tmp_path / "rows.csv"
    cfg = solve_cfg(tmp_path, sweep={"param": "mu", "values": [1.0, 0.5]})
    cfg["outputs"]["field_csv_path"] = str(csv)
    assert run(tmp_path, "sweep", cfg) == 0
    doc = json.loads((tmp_path / "report.json").read_text())
    assert [r["value"] for r in doc["rows"]] == [1.0, 0.5]
    assert doc["all_succeeded"] is True
    lines = csv.read_text().strip().split("\n")
    assert lines[0].startswith("value,success")
    assert len(lines) == 3
    capsys.readouterr()


def test_sweep_rejects_bad_specs(tmp_path, capsys):
    cfg = solve_cfg(tmp_path, sweep={"param": "mu", "values": []})
    assert run(tmp_path, "sweep", cfg) == 1
    cfg = solve_cfg(tmp_path, sweep={"param": "reynolds", "values": [1.0]})
    assert run(tmp_path, "sweep", cfg) == 1
    capsys.readouterr()


def verify_cfg(tmp_path, **extra):
    cfg = {
        "seed": 0,
        "n_samples": 3,
        "n_t": 8,
        "n_x": 8,
        "mu": 0.5,
        "solve_n_t": 6,
        "solve_n_x": 6,
        "monodromy_steps": 128,
        "positivity_cases": 2,
        "outputs": {"report_path": str(tmp_path / "verify.json")},
    }
    cfg.update(extra)
    return cfg


def test_verify_passes_at_default_tolerances(tmp_path, capsys):
    assert run(tmp_path, "verify", verify_cfg(tmp_path)) == 0
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert doc["all_passed"] is True
    assert len(doc["invariants"]) >= 15
    capsys.readouterr()


def test_verify_fails_on_impossible_tolerance(tmp_path, capsys):
    cfg = verify_cfg(tmp_path, tolerances={"energy_identity": 1e-30})
    assert run(tmp_path, "verify", cfg) == 3
    doc = json.loads((tmp_path / "verify.json").read_text())
    failed = [r for r in doc["invariants"] if not r["passed"]]
    assert [r["name"] for r in failed] == ["energy_identity"]
    capsys.readouterr()


def test_verify_rejects_unknown_tolerance_name(tmp_path, capsys):
    cfg = verify_cfg(tmp_path, tolerances={"no_such_invariant": 1.0})
    assert run(tmp_path, "verify", cfg) == 1
    capsys.readouterr()


def write_phi_csv(path, values_fn):
    m_t, m_x = 9, 8
    times = (np.arange(m_t) + 0.0) / m_t
    xs = (np.arange(m_x) + 0.5) / m_x
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,u\n")
        for t in times:
            for x in xs:
                fh.write(f"{t:.17g},{x:.17g},{values_fn(t, x):.17g}\n")


def test_colehopf_phi_file_validation(tmp_path, capsys):
    good = tmp_path / "phi_good.csv"
    write_phi_csv(good, lambda t, x: 1.0 + 0.3 * np.cos(np.pi * x))
    cfg = {
        "mu": 0.5,
        "phi_file": str(good),
        "outputs": {"report_path": str(tmp_path / "ch.json")},
    }
    assert run(tmp_path, "colehopf", cfg) == 0
    doc = json.loads((tmp_path / "ch.json").read_text())
    assert doc["phi_min"] > 0

    for mu in (-1.0, 0.0):
        assert run(tmp_path, "colehopf", dict(cfg, mu=mu)) == 1
        assert "config.mu" in capsys.readouterr().err

    bad = tmp_path / "phi_bad.csv"
    write_phi_csv(bad, lambda t, x: np.cos(np.pi * x))  # changes sign
    cfg["phi_file"] = str(bad)
    assert run(tmp_path, "colehopf", cfg) == 1
    capsys.readouterr()


def test_reports_are_deterministic_up_to_timestamp(tmp_path, capsys):
    cfg = solve_cfg(tmp_path)
    cfg["outputs"]["report_path"] = str(tmp_path / "a.json")
    assert run(tmp_path, "solve", cfg) == 0
    cfg["outputs"]["report_path"] = str(tmp_path / "b.json")
    assert run(tmp_path, "solve", cfg) == 0
    capsys.readouterr()

    def strip(path):
        return [
            line
            for line in (tmp_path / path).read_text().split("\n")
            if '"timestamp"' not in line
        ]

    assert strip("a.json") == strip("b.json")


def test_missing_config_file(tmp_path, capsys):
    assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 1
    capsys.readouterr()


def test_scale_command(tmp_path, capsys):
    csv = tmp_path / "phys.csv"
    cfg = {
        "period": 2.0,
        "length": 3.0,
        "viscosity": 0.5,
        "n_t": 4,
        "n_x": 4,
        "forcing": {"modes": [{"n": 1, "m": 1, "re": 0.2}]},
        "solver": {"method": "newton"},
        "outputs": {
            "report_path": str(tmp_path / "scale.json"),
            "field_csv_path": str(csv),
        },
    }
    assert run(tmp_path, "scale", cfg) == 0
    doc = json.loads((tmp_path / "scale.json").read_text())
    assert abs(doc["mu"] - 0.5 * 2.0 / 9.0) < 1e-15
    assert doc["flip"] is False
    times, xs, vals = cli.read_field_csv(str(csv))
    assert times.max() < 2.0 and xs.max() < 3.0
    capsys.readouterr()


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def run_cli(tmp_path, command, *overrides):
    """Run `stburgers <command>` on its checked-in config in a fresh
    interpreter, so an uncaught exception shows as a traceback."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "stburgers.cli", command,
            "--config", str(CONFIGS / f"{command}.json")]
    for o in overrides:
        argv += ["--override", o]
    return subprocess.run(
        argv, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )


@pytest.mark.parametrize("command", ["colehopf", "verify"])
def test_monodromy_steps_below_one_is_a_config_error(tmp_path, command):
    proc = run_cli(tmp_path, command, "monodromy_steps=0")
    assert proc.returncode == 1
    assert "config.monodromy_steps" in proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "key, value",
    [
        ("mu", -1), ("mu", 0), ("mu", "NaN"),
        ("n_t", 0), ("n_x", 0), ("solve_n_t", 0), ("solve_n_x", 0),
        ("n_samples", 0), ("positivity_cases", 0),
    ],
)
def test_verify_rejects_vacuous_sizes_and_nonpositive_mu(tmp_path, key, value):
    # each of these ran the suite before: mu = -1 into a traceback, the
    # zero counts into all_passed on invariants that held vacuously
    proc = run_cli(tmp_path, "verify", f"{key}={value}")
    assert proc.returncode == 1
    assert f"config.{key}" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""  # rejected before the suite wrote a report


def colehopf_cfg(tmp_path):
    return {
        "mu": 1.0,
        "n_t": 3,
        "n_x": 3,
        "n_starts": 2,
        "monodromy_steps": 16,
        "forcing": {"modes": [{"n": 1, "m": 1, "re": 0.2, "im": -0.1}]},
        "outputs": {"report_path": str(tmp_path / "ch.json")},
    }


@pytest.mark.parametrize(
    "stage, error",
    [
        ("verify_uniqueness", RuntimeError),
        ("lift_s1_to_s2", ch.NotInS1Error),
        ("s2_to_s3", ch.ProjectionAccuracyError),
        ("monodromy_leading_pair", ch.PowerIterationError),
    ],
)
def test_colehopf_stage_failure_is_a_solver_failure(tmp_path, capsys, monkeypatch, stage, error):
    def fail(*args, **kwargs):
        raise error("injected")

    monkeypatch.setattr(ch, stage, fail)
    assert run(tmp_path, "colehopf", colehopf_cfg(tmp_path)) == 2
    doc = json.loads((tmp_path / "ch.json").read_text())
    assert doc["success"] is False
    assert doc["error"] == f"{stage}: injected"
    capsys.readouterr()


def test_sweep_row_power_iteration_failure_is_a_solver_failure(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise ch.PowerIterationError("injected")

    monkeypatch.setattr(ch, "monodromy_leading_pair", fail)
    cfg = solve_cfg(tmp_path, sweep={"param": "mu", "values": [1.0, 0.5]}, monodromy=True)
    assert run(tmp_path, "sweep", cfg) == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_succeeded"] is False
    assert [r["error"] for r in doc["rows"]] == ["monodromy_leading_pair: injected"] * 2
    assert not any(r["success"] for r in doc["rows"])
    capsys.readouterr()
