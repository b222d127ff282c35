import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from stburgers import cli
from stburgers import colehopf as ch
from stburgers import solver
from stburgers.errors import SolverError
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
    assert run(tmp_path, "solve", cfg) == 0
    capsys.readouterr()
    times, xs, vals = cli.read_field_csv(str(csv))
    # the grid is 4 (n_t + 1) x 4 (n_x + 1)
    assert times.shape == (20,) and xs.shape == (20,)
    g = GridField(vals, 20, 20, Basis.DIRICHLET_SINE)
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


@pytest.mark.parametrize(
    "sweep",
    [{"param": "n_modes", "values": [6, 8]}, {"param": "forcing_amplitude", "values": [0.5, 2]}],
    ids=["n_modes", "forcing_amplitude"],
)
def test_sweep_over_truncation_and_amplitude(tmp_path, capsys, sweep):
    cfg = json.loads((CONFIGS / "sweep_mu.json").read_text())
    csv = tmp_path / "rows.csv"
    cfg.update(sweep=sweep, outputs={"report_path": str(tmp_path / "report.json"), "field_csv_path": str(csv)})
    assert run(tmp_path, "sweep", cfg) == 0
    rows = json.loads((tmp_path / "report.json").read_text())["rows"]
    assert [r["value"] for r in rows] == sweep["values"]
    assert all(r["success"] for r in rows)
    assert len(csv.read_text().strip().split("\n")) == 1 + len(rows)
    if sweep["param"] == "n_modes":
        # the forcing lies inside both truncations, and so does the solution
        # to the digits the l2 norm shows
        assert rows[0]["norms"]["l2"] == pytest.approx(rows[1]["norms"]["l2"], rel=0, abs=1e-12)
    capsys.readouterr()


def test_sweep_row_failure_is_a_solver_failure(tmp_path, capsys):
    # one Newton iteration cannot reach the tolerance: every row fails on
    # its own, the sweep still reports them all and exits 2
    cfg = solve_cfg(
        tmp_path,
        sweep={"param": "mu", "values": [1.0, 0.5]},
        solver={"method": "newton", "max_newton": 1},
    )
    assert run(tmp_path, "sweep", cfg) == 2
    doc = json.loads((tmp_path / "report.json").read_text())
    assert doc["all_succeeded"] is False
    assert [r["error"] for r in doc["rows"]] == ["no convergence after 1 Newton iterations"] * 2
    assert not any(r["success"] for r in doc["rows"])
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
        "mu": 0.5,
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


def test_verify_fails_on_impossible_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setitem(cli.vf.TOLERANCES, "energy_identity", 1e-30)
    assert run(tmp_path, "verify", verify_cfg(tmp_path)) == 3
    doc = json.loads((tmp_path / "verify.json").read_text())
    failed = [r for r in doc["invariants"] if not r["passed"]]
    assert [r["name"] for r in failed] == ["energy_identity"]
    capsys.readouterr()


@pytest.mark.parametrize(
    "stage, failed",
    [
        ("verify_uniqueness", ["uniqueness_distance"]),
        (
            "homotopy_solve",
            ["energy_identity", "apriori_bound", "monodromy_eigenvalue", "monodromy_flatness"],
        ),
    ],
)
def test_verify_stage_failure_fails_its_invariants_only(tmp_path, capsys, monkeypatch, stage, failed):
    def fail(*args, **kwargs):
        raise SolverError("injected")

    module = {"verify_uniqueness": ch, "homotopy_solve": solver}[stage]
    monkeypatch.setattr(module, stage, fail)
    assert run(tmp_path, "verify", verify_cfg(tmp_path)) == 3
    doc = json.loads((tmp_path / "verify.json").read_text())
    assert len(doc["invariants"]) == 19
    bad = [r for r in doc["invariants"] if not r["passed"]]
    assert [r["name"] for r in bad] == failed
    assert all(r["value"] == "inf" and r["detail"] == f"{stage}: injected" for r in bad)
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
        "phi_file": str(good),
        "outputs": {"report_path": str(tmp_path / "ch.json")},
    }
    assert run(tmp_path, "colehopf", cfg) == 0
    doc = json.loads((tmp_path / "ch.json").read_text())
    assert doc["phi_min"] > 0

    # the positivity check reads no viscosity, so any mu is refused
    for mu in (0.5, -1.0, 0.0):
        assert run(tmp_path, "colehopf", dict(cfg, mu=mu)) == 1
        assert "config.mu: not read" in capsys.readouterr().err

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
HUGE = "1" + "0" * 400  # an integer that no float holds


def run_cli(tmp_path, command, *overrides, config=None):
    """Run `stburgers <command>` on the checked-in config `config`
    (default: the command's own) in a fresh interpreter, so an uncaught
    exception shows as a traceback."""
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = [sys.executable, "-m", "stburgers.cli", command,
            "--config", str(CONFIGS / f"{config or command}.json")]
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
    # each of these ran the suite once: mu = -1 into a traceback, the
    # zero counts into all_passed on invariants that held vacuously; the
    # sizes are now constants, and their keys are refused unread
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
        ("verify_uniqueness", SolverError),
        ("lift_s1_to_s2", ch.NotInS1Error),
        ("s2_to_s3", ch.ProjectionAccuracyError),
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


@pytest.mark.parametrize(
    "command, config, override, key",
    [
        ("solve", None, "solver.homotopy_steps=[]", "config.solver.homotopy_steps"),
        ("solve", None, 'solver.homotopy_steps=["a"]', "config.solver.homotopy_steps"),
        ("solve", None, "solver.max_newton=0", "config.solver.max_newton"),
        ("solve", None, "solver.newton_tol=-1", "config.solver.newton_tol"),
        ("solve", None, "solver.krylov_tol=0", "config.solver.krylov_tol"),
        ("solve", None, "solver.max_damping=0", "config.solver.max_damping"),
        ("verify", None, 'tolerances={"energy_identity":"x"}', "config.tolerances"),
        ("verify", None, "seed=-1", "config.seed"),
        ("colehopf", None, "seed=-1", "config.seed"),
        ("sweep", "sweep_mu", 'sweep={"param":"n_modes","values":["a"]}', "config.sweep.values[0]"),
        ("colehopf", None, "n_starts=1", "config.n_starts"),
        ("solve", None, "outputs.report_path=nodir/r.json", "config.outputs.report_path"),
        ("solve", None, "outputs.field_csv_path=nodir/f.csv", "config.outputs.field_csv_path"),
        ("solve", None, 'forcing.modes=[{"n":1,"m":1,"re":Infinity}]', "config.forcing.modes[0].re"),
        ("solve", None, 'forcing.modes=[{"n":1,"m":1,"im":NaN}]', "config.forcing.modes[0].im"),
        ("scale", None, "viscosity=NaN", "config.viscosity"),
        # a normalized problem past the float range: mu = nu T / L^2 by
        # zero, L^2 and the forcing scale T^2 / L overflowing
        *(
            ("scale", None, override, "config.period/config.length/config.viscosity")
            for override in ("length=1e-200", "length=1e200", "period=1e300")
        ),
        # sweep rows are checked before any runs
        ("sweep", "sweep_mu", 'n_t="x"', "config.n_t"),
        # a bad sweep value is named by its own path, not by the key it
        # replaces in its row; a key it does not replace keeps its name
        ("sweep", "sweep_mu", 'sweep={"param":"mu","values":[1.0,-1]}', "config.sweep.values[1]"),
        ("sweep", "sweep_mu", "sweep.values=[1.0,-0.5]", "config.sweep.values[1]: must be positive"),
        (
            "sweep",
            "sweep_mu",
            'sweep={"param":"n_modes","values":[4,0]}',
            "config.sweep.values[1]: must be at least 1",
        ),
        (
            "sweep",
            "sweep_mu",
            'sweep={"param":"n_modes","values":[4,100000]}',
            "config.sweep.values[1]: truncation (100000, 100000) needs",
        ),
        ("sweep", "sweep_mu", 'sweep={"param":"n_modes","values":[1]}', "config.forcing.modes[2]: mode (n=1, m=2)"),
        ("sweep", "sweep_mu", 'solver={"method":"x"}', "config.solver.method"),
        # a viscosity whose mu * pi**2 is subnormal or overflows: the
        # symbol of L loses its bits and the solve ran on NaN
        ("solve", None, "mu=1e-310", "config.mu: mu * pi**2 must be a normal float"),
        ("solve", None, "mu=1e308", "config.mu: mu * pi**2 must be a normal float"),
        ("verify", None, "mu=1e-310", "config.mu"),
        ("colehopf", None, "mu=1e-310", "config.mu"),
        ("sweep", "sweep_mu", "sweep.values=[1.0,1e-310]", "config.sweep.values[1]: mu * pi**2"),
        ("scale", None, "viscosity=1e-320", "config.viscosity: the normalized viscosity"),
        # keys that no command takes, misspelt or retired
        ("solve", None, "solver.newton_tl=5", "config.solver.newton_tl"),
        ("solve", None, "outputs.report_pth=x.json", "config.outputs.report_pth"),
        ("sweep", "sweep_mu", "solver.dense_threshold=0", "config.solver.dense_threshold"),
        ("colehopf", None, "solver.max_krylov=4", "config.solver.max_krylov"),
        ("verify", None, "outputs.field_csv=f.csv", "config.outputs.field_csv"),
        # runs that never read a solver section: verify solves with the
        # defaults, and a phi_file run solves nothing
        ("verify", None, "solver.newton_tl=5", "config.solver"),
        ("verify", None, "solver.newton_tol=1e-8", "config.solver"),
        ("colehopf", "solve", "phi_file=phi.csv", "config.solver"),
        # top-level keys that the command does not read, misspelt or
        # belonging to another command
        ("solve", None, "mu_=0.5", "config.mu_"),
        ("verify", None, "n_sample=2", "config.n_sample"),
        ("scale", None, "mu=5", "config.mu"),
        ("colehopf", None, "n_start=2", "config.n_start"),
        # keys below the top level that no reader reads: the invariant
        # tolerances are constants, and each mapping takes only the keys
        # its command reads
        ("verify", None, 'tolerances={"chain_rule_identity":1}', "config.tolerances"),
        ("solve", None, 'forcing.modes=[{"n":1,"m":1,"re":0.2,"imag":-0.2}]', "config.forcing.modes[0].imag"),
        (
            "solve",
            None,
            'forcing={"decomposition":{"g_modes":[],"h_mode":[{"n":0,"m":1,"re":1}]}}',
            "config.forcing.decomposition.h_mode",
        ),
        ("solve", None, "forcing.extra=1", "config.forcing.extra"),
        ("sweep", "sweep_mu", 'sweep={"param":"mu","values":[1.0],"valus":[2]}', "config.sweep.valus"),
        ("colehopf", None, "solver.method=bogus", "config.solver.method"),
        ("verify", None, "outputs.field_csv_path=f.csv", "config.outputs.field_csv_path"),
        ("colehopf", None, "outputs.field_csv_path=f.csv", "config.outputs.field_csv_path"),
        ("colehopf", None, "outputs.grid_m_t=7", "config.outputs.grid_m_t"),
        ("sweep", "sweep_mu", "outputs.grid_m_x=9", "config.outputs.grid_m_x"),
        # the field CSV's grid is fixed, so its retired keys are refused
        # with a field CSV and without one
        ("solve", None, "outputs.grid_m_t=-3", "config.outputs.grid_m_t"),
        ("solve", None, "outputs.grid_m_x=0", "config.outputs.grid_m_x"),
        ("solve", "zero", "outputs.grid_m_t=7", "config.outputs.grid_m_t"),
        ("solve", "zero", "outputs.grid_m_x=9", "config.outputs.grid_m_x"),
        ("scale", None, 'outputs={"report_path":"r.json","grid_m_x":9}', "config.outputs.grid_m_x"),
        # an integer past the float range, as a number or as a count
        *(
            pytest.param(command, None, override, key, id=f"{command}-{key}-10**400")
            for command, override, key in (
                ("solve", f"mu={HUGE}", "config.mu"),
                ("scale", f"period={HUGE}", "config.period"),
                ("solve", f"solver.newton_tol={HUGE}", "config.solver.newton_tol"),
                ("solve", f'forcing.modes=[{{"n":1,"m":1,"re":{HUGE}}}]', "config.forcing.modes[0].re"),
                ("solve", f"n_t={HUGE}", "config.n_t"),
                ("solve", f"n_x={HUGE}", "config.n_x"),
                ("verify", f"n_samples={HUGE}", "config.n_samples"),
                ("verify", f"seed={HUGE}", "config.seed"),
                ("colehopf", f"n_starts={HUGE}", "config.n_starts"),
                ("colehopf", f"seed={HUGE}", "config.seed"),
                ("colehopf", f"monodromy_steps={HUGE}", "config.monodromy_steps"),
                ("solve", f"outputs.grid_m_t={HUGE}", "config.outputs.grid_m_t"),
            )
        ),
    ],
)
def test_config_gaps_are_config_errors(tmp_path, command, config, override, key):
    # each of these ended in a traceback, ran into RuntimeWarnings or a
    # futile solve and exited 2, or was silently accepted
    proc = run_cli(tmp_path, command, override, config=config)
    assert proc.returncode == 1
    assert key in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""
    assert os.listdir(tmp_path) == []  # no report, no field dump


@pytest.mark.parametrize(
    "command, config, key",
    [
        *(("verify", None, key) for key in (
            "n_t", "n_x", "solve_n_t", "solve_n_x", "monodromy_steps", "positivity_cases"
        )),
        *((command, None, f"outputs.{key}") for command in ("solve", "scale") for key in ("grid_m_t", "grid_m_x")),
        ("sweep", "sweep_mu", "monodromy"),
    ],
)
def test_retired_settings_are_not_read(tmp_path, monkeypatch, capsys, command, config, key):
    # the verify sizes, the field CSV's grid and the sweep's period-map
    # rows are fixed; each value these keys once took is refused unread
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", str(CONFIGS / f"{config or command}.json"), "--override", f"{key}=8"]
    assert cli.main(argv) == 1
    assert f"config.{key}: not read" in capsys.readouterr().err
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("command", ["solve", "scale"])
def test_unsuccessful_solve_exits_2_with_its_report_and_no_field_csv(tmp_path, monkeypatch, capsys, command):
    # one Newton iteration from zero cannot reach the tolerance
    monkeypatch.chdir(tmp_path)
    argv = [command, "--config", str(CONFIGS / f"{command}.json"),
            "--override", "solver.method=newton", "--override", "solver.max_newton=1"]
    assert cli.main(argv) == 2
    report = f"{command}_report.json"
    assert os.listdir(tmp_path) == [report]
    doc = json.loads((tmp_path / report).read_text())
    assert doc == json.loads(capsys.readouterr().out)
    assert doc["success"] is False and "error" not in doc
    # both reports say why, in the two keys right after success
    keys = list(doc)
    at = keys.index("success")
    assert keys[at + 1 : at + 3] == ["message", "newton_iterations"]
    assert doc["message"] == "no convergence after 1 Newton iterations"
    assert doc["newton_iterations"] == 1


def test_one_config_error_names_every_unread_key(tmp_path, capsys):
    # a phi_file run reads phi_file and outputs alone
    cfg = dict(solve_cfg(tmp_path), phi_file="phi.csv", seed=0)
    assert run(tmp_path, "colehopf", cfg) == 1
    err = capsys.readouterr().err
    assert "config.mu, config.n_t, config.n_x, config.forcing, config.solver, config.seed: not read" in err
    assert not (tmp_path / "report.json").exists()


@pytest.mark.parametrize(
    "command, config, key",
    [
        ("solve", "zero", "report_path"),
        ("solve", "zero", "field_csv_path"),
        ("sweep", "sweep_mu", "field_csv_path"),  # the sweep rows CSV
    ],
)
def test_unwritable_output_is_a_config_error(tmp_path, command, config, key):
    # a dangling link in a writable directory, into a missing one
    (tmp_path / "out").symlink_to(tmp_path / "gone" / "out")
    overrides = [f"outputs.{key}=out"]
    if command == "sweep":
        overrides.append('sweep={"param":"mu","values":[1.0]}')
    proc = run_cli(tmp_path, command, *overrides, config=config)
    assert proc.returncode == 1
    assert f"config.outputs.{key}: cannot write" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_dangling_report_link_fails_before_any_sweep_row(tmp_path, monkeypatch, capsys):
    # the link's own directory is writable but the one it leads to is
    # missing: the check on the outputs must fail before the rows run,
    # not the report write after them
    monkeypatch.chdir(tmp_path)
    (tmp_path / "report.json").symlink_to(tmp_path / "gone" / "report.json")
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise SolverError("not run")

    monkeypatch.setattr(solver, "homotopy_solve", no_solve)
    argv = ["sweep", "--config", str(CONFIGS / "sweep_mu.json"),
            "--override", "outputs.report_path=report.json"]
    assert cli.main(argv) == 1
    assert "config.outputs.report_path: cannot write" in capsys.readouterr().err
    assert solves == []
    assert not (tmp_path / "sweep_rows.csv").exists()


@pytest.mark.parametrize("command, config", [("solve", "solve"), ("sweep", "sweep_mu")])
@pytest.mark.parametrize("link", [False, True])
def test_outputs_naming_one_file_are_a_config_error(tmp_path, monkeypatch, capsys, command, config, link):
    # the report would overwrite the field (or rows) CSV: refused before
    # any solve, whether both keys name the file or the CSV's key names a
    # link to the report
    monkeypatch.chdir(tmp_path)
    csv = "out.txt"
    if link:
        (tmp_path / "link.txt").symlink_to(tmp_path / "out.txt")
        csv = "link.txt"
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise SolverError("not run")

    monkeypatch.setattr(solver, "homotopy_solve", no_solve)
    argv = [command, "--config", str(CONFIGS / f"{config}.json"),
            "--override", "outputs.report_path=out.txt", "--override", f"outputs.field_csv_path={csv}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config.outputs.field_csv_path:" in err and "must be distinct files" in err
    assert solves == []
    assert sorted(os.listdir(tmp_path)) == (["link.txt"] if link else [])


def test_verify_defaults_are_verify_config_defaults(tmp_path, monkeypatch, capsys):
    seen = []

    def suite(vcfg):
        seen.append(vcfg)
        return []

    monkeypatch.setattr(cli.vf, "run_suite", suite)
    assert run(tmp_path, "verify", {"seed": 0}) == 0
    assert seen == [cli.vf.VerifyConfig(seed=0)]
    capsys.readouterr()


def test_verify_keeps_going_after_a_colehopf_projection_failure(tmp_path):
    # at mu = 1e-4 the projected exponential of s2_to_s3 misses its
    # values and a uniqueness start does not converge: each fails its own
    # invariant, the rest report.  The period map itself is fine (its
    # subdominant eigenvalue has modulus 0.986), so both monodromy
    # invariants pass
    proc = run_cli(tmp_path, "verify", "mu=1e-4", "n_samples=2")
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    doc = json.loads(proc.stdout)
    assert "error" not in doc and doc["all_passed"] is False
    results = {r["name"]: r for r in doc["invariants"]}
    assert len(results) == 19
    roundtrip = results["colehopf_roundtrip"]
    assert roundtrip["value"] == "inf" and not roundtrip["passed"]
    assert roundtrip["detail"].startswith("s2_to_s3: ")
    assert sum(r["passed"] for r in results.values()) == 16
    for name in ("monodromy_eigenvalue", "monodromy_flatness"):
        assert results[name]["passed"] and results[name]["value"] == 0


def test_cli_import_leaves_scipy_unloaded():
    # the package needs numpy only; scipy is in the test extra alone
    code = "import sys, stburgers.cli; assert 'scipy' not in sys.modules, sorted(sys.modules)"
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_import_loads_no_thread_pool():
    # every command runs on one thread; sweep rows run in order
    code = "import sys, stburgers.cli; assert 'concurrent.futures' not in sys.modules"
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_gmres_path_solve_runs_without_scipy(tmp_path):
    # scipy made unimportable before the CLI loads: a GMRES-path solve
    # must neither import it nor need it
    code = (
        "import sys; sys.modules['scipy'] = None; from stburgers import cli, solver; "
        "solver.DENSE_MAX_UNKNOWNS = 0; "
        f"sys.exit(cli.main(['solve', '--config', {str(CONFIGS / 'solve.json')!r}]))"
    )
    env = dict(os.environ)
    src = str(Path(cli.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["success"] is True


@pytest.mark.parametrize(
    "command, config, override",
    [
        ("solve", "solve", "n_t=1000000"),
        ("scale", "scale", "n_t=1000000"),
        ("sweep", "sweep_mu", "n_t=1000000"),
        ("colehopf", "colehopf", "n_t=1000000"),
    ],
)
def test_truncation_past_the_array_budget_is_a_config_error(
    tmp_path, monkeypatch, capsys, command, config, override
):
    # the check runs before the forcing or anything else of that size
    # is allocated: the whole command stays far below the budget
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        code = cli.main([command, "--config", str(CONFIGS / f"{config}.json"), "--override", override])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 1
    assert peak < 2**22
    err = capsys.readouterr().err
    assert "config.n_t/config.n_x" in err and "array budget" in err
    assert os.listdir(tmp_path) == []


def test_array_budget_follows_the_solver_path(monkeypatch, capsys):
    # at 100x100 the Krylov basis fits; the dense matrix of T'(m) and a
    # basis of a million vectors do not
    assert cli._largest_array(100, 100)[0] == "Krylov basis"
    assert cli._largest_array(64, 64) == ("Krylov basis", 8 * 501 * 129 * 64)
    for constant, name in (("DENSE_MAX_UNKNOWNS", "dense matrix"), ("MAX_KRYLOV", "Krylov basis")):
        with monkeypatch.context() as patch:
            patch.setattr(solver, constant, 10**6)
            argv = ["solve", "--config", str(CONFIGS / "solve.json"), "--override", "n_t=100",
                    "--override", "n_x=100"]
            assert cli.main(argv) == 1
        assert f"needs a {name} of" in capsys.readouterr().err


def test_space_matrix_of_the_product_grid_counts_against_the_budget(monkeypatch, capsys):
    # at (1, 1500) the Krylov basis is 18 MB but apply_S builds a
    # (3 n_x + 2) x (n_x + 1) real space matrix of 54 MB
    assert cli._largest_array(1, 1500) == ("space matrix", 8 * 4502 * 1501)
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 50 * 2**20)
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise SolverError("not run")

    monkeypatch.setattr(solver, "homotopy_solve", no_solve)
    monkeypatch.setattr(solver, "newton_solve", no_solve)
    argv = ["solve", "--config", str(CONFIGS / "solve.json"), "--override", "n_t=1",
            "--override", "n_x=1500", "--override", "outputs={}"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config.n_t/config.n_x" in err and "needs a space matrix of" in err
    assert "Traceback" not in err
    assert solves == []


@pytest.mark.parametrize("command", ["solve", "scale"])
def test_output_grid_past_the_array_budget_is_a_config_error(tmp_path, monkeypatch, capsys, command):
    # the field CSV's grid is built after the solve, and checked before
    # it: at (2, 1400) the truncation's largest array is its 47 MB space
    # matrix, under a 52 MB budget, but the 12x5604 grid's takes 63 MB
    assert cli._largest_array(2, 1400) == ("space matrix", 8 * 4202 * 1401)
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 50 * 2**20)
    monkeypatch.chdir(tmp_path)
    solves = []

    def no_solve(*args, **kwargs):
        solves.append(args)
        raise SolverError("not run")

    monkeypatch.setattr(solver, "homotopy_solve", no_solve)
    monkeypatch.setattr(solver, "newton_solve", no_solve)
    argv = [command, "--config", str(CONFIGS / f"{command}.json"), "--override", "n_t=2",
            "--override", "n_x=1400"]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert "config.n_t/config.n_x: field CSV grid (12, 5604) needs a space matrix of" in err
    assert "Traceback" not in err
    assert solves == []
    assert os.listdir(tmp_path) == []


def test_monodromy_steps_hold_no_array_of_their_own(tmp_path, monkeypatch):
    # the period map evaluates v a block of steps at a time, so no array
    # grows with monodromy_steps: at 1000 steps, whose time matrix alone
    # would take 272 kB, a 256 kB budget still covers configs/colehopf.json
    assert cli._largest_array(8, 8)[1] < 2**18 < 16 * 1000 * (2 * 8 + 1)
    monkeypatch.setattr(cli, "MAX_ARRAY_BYTES", 2**18)
    monkeypatch.chdir(tmp_path)
    argv = ["colehopf", "--config", str(CONFIGS / "colehopf.json"), "--override", "monodromy_steps=1000"]
    assert cli.main(argv) == 0
    doc = json.loads((tmp_path / "colehopf_report.json").read_text())
    assert doc["rho"] == 1.0 and doc["eigfun_flatness"] == 0.0


def write_grid_csv(path, times, xs, fn, rng=None):
    rows = [(t, x, fn(t, x)) for t in times for x in xs]
    if rng is not None:
        rng.shuffle(rows)
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,u\n")
        for row in rows:
            fh.write("%.17g,%.17g,%.17g\n" % row)


def grid_forcing(t, x):
    return np.sin(np.pi * x) * (1.0 + 0.5 * np.cos(2 * np.pi * t)) + 0.3 * np.sin(2 * np.pi * x)


def test_grid_file_rows_may_come_in_any_order(tmp_path, capsys):
    times, xs = np.arange(4) / 4, np.arange(1, 4) / 4  # 4x3 Dirichlet grid
    write_grid_csv(tmp_path / "sorted.csv", times, xs, grid_forcing)
    write_grid_csv(tmp_path / "shuffled.csv", times, xs, grid_forcing, np.random.default_rng(3))
    assert (tmp_path / "sorted.csv").read_text() != (tmp_path / "shuffled.csv").read_text()
    f_sorted = cli.build_forcing({"grid_file": str(tmp_path / "sorted.csv")}, 1, 3)
    f_shuffled = cli.build_forcing({"grid_file": str(tmp_path / "shuffled.csv")}, 1, 3)
    assert np.abs(f_sorted.coeffs).max() > 0.1
    assert np.array_equal(f_sorted.coeffs, f_shuffled.coeffs)

    reports = []
    for name in ("sorted", "shuffled"):
        cfg = solve_cfg(tmp_path, n_t=1, n_x=3, forcing={"grid_file": str(tmp_path / f"{name}.csv")})
        assert run(tmp_path, "solve", cfg) == 0
        text = (tmp_path / "report.json").read_text()
        reports.append([line for line in text.split("\n") if '"timestamp"' not in line])
    assert reports[0] == reports[1]
    capsys.readouterr()


def test_grid_files_off_their_nodes_or_too_small_are_config_errors(tmp_path, capsys):
    midpoint = tmp_path / "midpoint.csv"  # cosine nodes where sine nodes belong
    write_grid_csv(midpoint, np.arange(9) / 9, (np.arange(8) + 0.5) / 8, grid_forcing)
    tiny = tmp_path / "tiny.csv"
    write_grid_csv(tiny, [0.0], [0.5], grid_forcing)
    for path in (midpoint, tiny):
        cfg = solve_cfg(tmp_path, forcing={"grid_file": str(path)})
        assert run(tmp_path, "solve", cfg) == 1
        assert "config.forcing.grid_file" in capsys.readouterr().err

    sine_nodes = tmp_path / "phi_sine_nodes.csv"  # sine nodes where cosine nodes belong
    write_grid_csv(sine_nodes, np.arange(9) / 9, np.arange(1, 9) / 9, lambda t, x: 1.0 + 0.3 * x)
    cfg = {"phi_file": str(sine_nodes)}
    assert run(tmp_path, "colehopf", cfg) == 1
    assert "config.phi_file" in capsys.readouterr().err
    assert not (tmp_path / "report.json").exists()


def test_write_field_csv_names_the_output_key(tmp_path):
    with pytest.raises(cli.ConfigError, match="config.outputs.field_csv_path"):
        cli.write_field_csv(str(tmp_path / "nodir" / "f.csv"), [0.0], [0.5], np.zeros((1, 1)))


def test_every_package_error_carries_an_exit_code():
    import importlib
    import pkgutil

    import stburgers
    from stburgers.errors import StburgersError

    modules = [importlib.import_module(f"stburgers.{m.name}") for m in pkgutil.iter_modules(stburgers.__path__)]
    errors = {
        obj
        for mod in modules
        for obj in vars(mod).values()
        if isinstance(obj, type) and issubclass(obj, BaseException) and obj.__module__.startswith("stburgers.")
    }
    assert len(errors) == 11  # 3 in stburgers.errors, 8 in the layers
    for cls in errors:
        assert issubclass(cls, StburgersError), cls
        assert cls.exit_code in (1, 2), cls


def config_command(config: str) -> str:
    """The command of the checked-in config `config`, by the map that CI
    runs them by."""
    script = CONFIGS.parent / ".github" / "config-command.sh"
    proc = subprocess.run(["sh", str(script), config], capture_output=True, text=True, check=True)
    return proc.stdout.strip()


@pytest.mark.parametrize("name", sorted(path.stem for path in CONFIGS.glob("*.json")))
def test_each_config_section_is_read_once(monkeypatch, tmp_path, name):
    # every mapping of a config has one reader, called once per run; a
    # sweep reads its problem sections (config.forcing, config.solver)
    # once per row
    reads = []
    mapping = cli._mapping

    def recorded(value, where, keys):
        reads.append(where)
        return mapping(value, where, keys)

    monkeypatch.setattr(cli, "_mapping", recorded)
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / f"{name}.json")
    command = config_command(config)
    assert cli.main([command, "--config", config]) == 0
    rows = len(json.loads(Path(config).read_text())["sweep"]["values"]) if command == "sweep" else 1
    counts = {where: reads.count(where) for where in reads}
    per_row = {where for where in counts if where == "config.solver" or where.startswith("config.forcing")}
    assert counts == {where: rows if where in per_row else 1 for where in counts}
    assert {"config", "config.outputs"} <= set(counts)


# (newton_iterations, len(lambda_path)) of each solve that a checked-in
# solve-type config runs, one entry per sweep row
PINNED_SOLVES = {
    "solve": [(2, 5)],
    "zero": [(0, 1)],
    "manufactured": [(4, 5)],
    "scale": [(3, 5)],
    "sweep_mu": [(2, 5), (2, 5), (3, 5)],
}


@pytest.mark.parametrize("name", sorted(PINNED_SOLVES))
def test_checked_in_configs_keep_their_newton_and_lambda_counts(monkeypatch, tmp_path, name):
    # a change to the Newton iteration that only moves roundoff leaves
    # every count of the checked-in configs where it is
    reports = []

    def recording(solve):
        def recorded(*args):
            reports.append(solve(*args))
            return reports[-1]

        return recorded

    for method in ("newton_solve", "homotopy_solve"):
        monkeypatch.setattr(solver, method, recording(getattr(solver, method)))
    monkeypatch.chdir(tmp_path)
    config = str(CONFIGS / f"{name}.json")
    assert cli.main([config_command(config), "--config", config]) == 0
    assert [(r.newton_iters, len(r.lambda_path)) for r in reports] == PINNED_SOLVES[name]
