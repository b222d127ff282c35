"""Command-line driver.

Subcommands: solve, verify, sweep, colehopf, scale.  Each takes
--config <path> (JSON) and repeatable --override key=value with dotted
key paths.  Reports are JSON documents with a stable field order and
floats printed to 17 significant digits; the only run-dependent field is
the single `timestamp` header entry.  Field dumps are CSV with header
`t,x,u`, row-major over t then x.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 verification invariant failure.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import colehopf as ch
from . import fields as fd
from . import norms as nm
from . import operators as op
from . import scaling as sc
from . import solver as sv
from . import verify as vf


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending key."""


EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_SOLVER = 2
EXIT_VERIFY = 3


# ---------------------------------------------------------------------------
# Configuration plumbing


def _parse_override(text: str):
    if "=" not in text:
        raise ConfigError(f"override {text!r} is not of the form key=value")
    key, raw = text.split("=", 1)
    try:
        value = json.loads(raw)
    except json.JSONDecodeError:
        value = raw
    return key.strip(), value


def _apply_override(cfg: dict, key: str, value) -> None:
    parts = key.split(".")
    node = cfg
    for p in parts[:-1]:
        node = node.setdefault(p, {})
        if not isinstance(node, dict):
            raise ConfigError(f"override path {key!r} crosses non-mapping entry {p!r}")
    node[parts[-1]] = value


def load_config(path: str, overrides=()) -> dict:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config {path!r}: {e.strerror}")
    except json.JSONDecodeError as e:
        raise ConfigError(f"config {path!r} is not valid JSON: line {e.lineno}: {e.msg}")
    if not isinstance(cfg, dict):
        raise ConfigError(f"config {path!r} must be a JSON object at top level")
    for text in overrides:
        key, value = _parse_override(text)
        _apply_override(cfg, key, value)
    return cfg


def _get(cfg: dict, key: str, kind, default=..., where: str = "config"):
    """Fetch and type-check cfg[key]; `...` marks a required key."""
    if key not in cfg:
        if default is ...:
            raise ConfigError(f"{where}: missing required key {key!r}")
        return default
    value = cfg[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{where}.{key}: expected integer, got boolean")
    if not isinstance(value, kind):
        raise ConfigError(
            f"{where}.{key}: expected {getattr(kind, '__name__', kind)}, "
            f"got {type(value).__name__}"
        )
    return value


def build_forcing(spec, n_t: int, n_x: int, where: str = "config.forcing") -> "fd.SpectralField":
    if not isinstance(spec, dict):
        raise ConfigError(f"{where}: expected a mapping")
    keys = [k for k in ("modes", "grid_file", "decomposition") if k in spec]
    if len(keys) != 1:
        raise ConfigError(
            f"{where}: exactly one of modes / grid_file / decomposition required"
        )
    if keys[0] == "modes":
        return _forcing_from_modes(spec["modes"], n_t, n_x, where)
    if keys[0] == "grid_file":
        return _forcing_from_grid(spec["grid_file"], n_t, n_x, where)
    d = spec["decomposition"]
    if not isinstance(d, dict):
        raise ConfigError(f"{where}.decomposition: expected a mapping")
    g = _forcing_from_modes(d.get("g_modes", []), n_t, n_x, where + ".decomposition")
    h_modes = d.get("h_modes", [])
    h = fd.zeros(n_t, n_x, fd.Basis.NEUMANN_COSINE)
    for i, entry in enumerate(h_modes):
        n, m, val = _check_mode(entry, n_t, n_x, f"{where}.decomposition.h_modes[{i}]", m_min=0)
        h = fd.set_mode(h, n, m, val)
    return op.half_derivative(g) + op.d_x(h)


def _check_mode(entry, n_t: int, n_x: int, where: str, m_min: int = 1):
    if not isinstance(entry, dict):
        raise ConfigError(f"{where}: expected a mapping with n, m, re, im")
    n = _get(entry, "n", int, where=where)
    m = _get(entry, "m", int, where=where)
    re = _get(entry, "re", float, 0.0, where=where)
    im = _get(entry, "im", float, 0.0, where=where)
    if n < 0:
        raise ConfigError(
            f"{where}: mode n={n} is negative (the Hermitian partner is implied; "
            "specify n >= 0)"
        )
    if m < m_min:
        raise ConfigError(f"{where}: invalid mode m={m} (need m >= {m_min})")
    if n > n_t or m > n_x:
        raise ConfigError(
            f"{where}: mode (n={n}, m={m}) outside truncation (n_t={n_t}, n_x={n_x})"
        )
    if n == 0 and im != 0.0:
        raise ConfigError(f"{where}: mode n=0 must be real (im={im})")
    return n, m, complex(re, im)


def _forcing_from_modes(modes, n_t: int, n_x: int, where: str) -> "fd.SpectralField":
    if not isinstance(modes, list):
        raise ConfigError(f"{where}.modes: expected a list")
    f = fd.zeros(n_t, n_x)
    for i, entry in enumerate(modes):
        n, m, val = _check_mode(entry, n_t, n_x, f"{where}.modes[{i}]")
        f = fd.set_mode(f, n, m, val)
    return f


def _forcing_from_grid(path, n_t: int, n_x: int, where: str) -> "fd.SpectralField":
    if not isinstance(path, str):
        raise ConfigError(f"{where}.grid_file: expected a path string")
    try:
        times, xs, vals = read_field_csv(path)
    except OSError as e:
        raise ConfigError(f"{where}.grid_file: cannot read {path!r}: {e.strerror}")
    except ValueError as e:
        raise ConfigError(f"{where}.grid_file: malformed CSV {path!r}: {e}")
    g = fd.GridField(vals, len(times), len(xs), fd.Basis.DIRICHLET_SINE)
    return fd.to_spectral(g, n_t, n_x)


def build_solver_config(cfg: dict, mu: float) -> "sv.SolverConfig":
    s = _get(cfg, "solver", dict, {})
    where = "config.solver"
    kwargs = dict(mu=mu)
    for key, kind in (
        ("newton_tol", float),
        ("max_newton", int),
        ("krylov_tol", float),
        ("max_krylov", int),
        ("dense_threshold", int),
        ("max_damping", int),
    ):
        if key in s:
            kwargs[key] = _get(s, key, kind, where=where)
    if "homotopy_steps" in s:
        steps = _get(s, "homotopy_steps", list, where=where)
        kwargs["homotopy_steps"] = tuple(float(v) for v in steps)
    try:
        return sv.SolverConfig(**kwargs)
    except ValueError as e:
        raise ConfigError(f"{where}: {e}")


# ---------------------------------------------------------------------------
# Deterministic JSON and CSV emission


def _emit_json(value, out, indent=0) -> None:
    pad = "  " * indent
    if isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        out.append("{\n")
        for i, (k, v) in enumerate(value.items()):
            out.append(f'{pad}  {json.dumps(str(k))}: ')
            _emit_json(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        out.append("[\n")
        for i, v in enumerate(value):
            out.append(pad + "  ")
            _emit_json(v, out, indent + 1)
            out.append(",\n" if i + 1 < len(value) else "\n")
        out.append(pad + "]")
    elif isinstance(value, bool):
        out.append("true" if value else "false")
    elif isinstance(value, float):
        out.append(_fmt(value))
    elif isinstance(value, (int, str)) or value is None:
        out.append(json.dumps(value))
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def _fmt(x: float) -> str:
    if not np.isfinite(x):
        return json.dumps(repr(x))
    text = f"{x:.17g}"
    return text


def write_report(path: str | None, doc: dict) -> str:
    out: list[str] = []
    _emit_json(doc, out)
    text = "".join(out) + "\n"
    if path:
        with open(path, "w", newline="\n") as fh:
            fh.write(text)
    return text


def report_header(command: str) -> dict:
    return {
        "format": "stburgers-report-v1",
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_field_csv(
    path: str, u: "fd.SpectralField", m_t: int, m_x: int
) -> None:
    times = fd.time_nodes(m_t)
    xs = fd.space_nodes(m_x, u.basis)
    vals = fd.evaluate(u, m_t, m_x).real
    with open(path, "w", newline="\n") as fh:
        fh.write("t,x,u\n")
        for i, t in enumerate(times):
            for j, x in enumerate(xs):
                fh.write(f"{t:.17g},{x:.17g},{vals[i, j]:.17g}\n")


def read_field_csv(path: str):
    """Read a `t,x,u` dump back into node vectors and a value matrix."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,x,u":
            raise ValueError(f"expected header 't,x,u', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(c) for c in r] for r in rows])
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("expected three columns per row")
    times = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    if len(times) * len(xs) != len(data):
        raise ValueError("rows do not form a full tensor grid")
    vals = data[:, 2].reshape(len(times), len(xs))
    return times, xs, vals


def _norm_block(u: "fd.SpectralField") -> dict:
    rep = nm.norm_report(u)
    return {
        "l2": rep.l2,
        "l4": rep.l4,
        "half_dt": rep.half_dt,
        "dx": rep.dx,
        "aniso": rep.aniso,
    }


def _workers() -> int:
    raw = os.environ.get("STBURGERS_WORKERS", "1")
    try:
        n = int(raw)
    except ValueError:
        raise ConfigError(f"STBURGERS_WORKERS={raw!r} is not an integer")
    if n < 1:
        raise ConfigError("STBURGERS_WORKERS must be at least 1")
    return n


# ---------------------------------------------------------------------------
# Subcommands


def _count(cfg: dict, key: str, default=...) -> int:
    """cfg[key] as an integer of at least 1."""
    value = _get(cfg, key, int, default)
    if value < 1:
        raise ConfigError(f"config.{key}: must be at least 1, got {value}")
    return value


def _viscosity(cfg: dict, default=...) -> float:
    mu = _get(cfg, "mu", float, default)
    if not 0.0 < mu < np.inf:
        raise ConfigError(f"config.mu: must be positive and finite, got {mu}")
    return mu


def _common_problem(cfg: dict):
    mu = _viscosity(cfg)
    n_t = _count(cfg, "n_t")
    n_x = _count(cfg, "n_x")
    forcing = build_forcing(_get(cfg, "forcing", dict, {"modes": []}), n_t, n_x)
    return mu, n_t, n_x, forcing


def _run_solve(cfg: dict, forcing, scfg) -> "sv.SolveReport":
    method = _get(_get(cfg, "solver", dict, {}), "method", str, "homotopy")
    if method == "newton":
        return sv.newton_solve(forcing, None, scfg)
    if method == "homotopy":
        return sv.homotopy_solve(forcing, scfg)
    raise ConfigError(f"config.solver.method: unknown method {method!r}")


def _outputs(cfg: dict):
    o = _get(cfg, "outputs", dict, {})
    report_path = _get(o, "report_path", str, None, where="config.outputs")
    csv_path = _get(o, "field_csv_path", str, None, where="config.outputs")
    m_t = _get(o, "grid_m_t", int, None, where="config.outputs")
    m_x = _get(o, "grid_m_x", int, None, where="config.outputs")
    return report_path, csv_path, m_t, m_x


def cmd_solve(cfg: dict) -> int:
    mu, n_t, n_x, forcing = _common_problem(cfg)
    scfg = build_solver_config(cfg, mu)
    report_path, csv_path, m_t, m_x = _outputs(cfg)
    doc = report_header("solve")
    doc.update({"mu": mu, "n_t": n_t, "n_x": n_x, "forcing_dual_norm": nm.dual_norm(forcing)})
    try:
        result = _run_solve(cfg, forcing, scfg)
    except (sv.ContinuationError, sv.LinearSolveError) as e:
        doc["success"] = False
        doc["error"] = str(e)
        print(write_report(report_path, doc), end="")
        return EXIT_SOLVER
    doc["success"] = bool(result.success)
    doc["message"] = result.message
    doc["newton_iterations"] = result.newton_iters
    doc["residual_dual"] = result.residual_dual
    doc["energy_gap"] = nm.energy_gap(forcing, result.u, mu)
    doc["lambda_path"] = [list(map(float, row)) for row in result.lambda_path]
    doc["norms"] = _norm_block(result.u)
    print(write_report(report_path, doc), end="")
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        write_field_csv(
            csv_path,
            result.u,
            m_t or 4 * (n_t + 1),
            m_x or 4 * (n_x + 1),
        )
    return EXIT_OK


def cmd_verify(cfg: dict) -> int:
    vcfg = vf.VerifyConfig(
        seed=_get(cfg, "seed", int),
        n_samples=_count(cfg, "n_samples", 100),
        n_t=_count(cfg, "n_t", 32),
        n_x=_count(cfg, "n_x", 32),
        mu=_viscosity(cfg, 0.5),
        solve_n_t=_count(cfg, "solve_n_t", 8),
        solve_n_x=_count(cfg, "solve_n_x", 8),
        monodromy_steps=_count(cfg, "monodromy_steps", 512),
        positivity_cases=_count(cfg, "positivity_cases", 20),
        tolerances=_get(cfg, "tolerances", dict, {}),
    )
    for name in vcfg.tolerances:
        if name not in vf.DEFAULT_TOLERANCES:
            raise ConfigError(f"config.tolerances: unknown invariant {name!r}")
    results = vf.run_suite(vcfg)
    report_path, _, _, _ = _outputs(cfg)
    doc = report_header("verify")
    doc["seed"] = vcfg.seed
    doc["n_samples"] = vcfg.n_samples
    doc["invariants"] = [
        {
            "name": r.name,
            "value": r.value,
            "tolerance": r.tolerance,
            "passed": r.passed,
            "detail": r.detail,
        }
        for r in results
    ]
    doc["all_passed"] = all(r.passed for r in results)
    print(write_report(report_path, doc), end="")
    return EXIT_OK if doc["all_passed"] else EXIT_VERIFY


def _sweep_row(cfg: dict, param: str, value) -> dict:
    local = json.loads(json.dumps(cfg))  # deep copy, JSON-safe by construction
    if param == "mu":
        local["mu"] = value
    elif param == "n_modes":
        local["n_t"] = int(value)
        local["n_x"] = int(value)
    elif param == "forcing_amplitude":
        pass  # handled below by scaling the built forcing
    row = {"param": param, "value": value}
    try:
        mu, n_t, n_x, forcing = _common_problem(local)
        if param == "forcing_amplitude":
            forcing = float(value) * forcing
        scfg = build_solver_config(local, mu)
        result = _run_solve(local, forcing, scfg)
        if not result.success:
            raise sv.ContinuationError(result.message)
        row["success"] = True
        row["newton_iterations"] = result.newton_iters
        row["residual_dual"] = result.residual_dual
        row["energy_gap"] = nm.energy_gap(forcing, result.u, mu)
        row["norms"] = _norm_block(result.u)
        if local.get("monodromy", False):
            rho, eig = ch.monodromy_leading_pair(result.u, mu)
            row["rho"] = rho
            row["eigfun_flatness"] = float(
                np.abs(ch.profile_values(eig) - 1.0).max()
            )
    except (sv.ContinuationError, sv.LinearSolveError, ConfigError) as e:
        row["success"] = False
        row["error"] = str(e)
    except ch.PowerIterationError as e:
        row["success"] = False
        row["error"] = f"monodromy_leading_pair: {e}"
    return row


def cmd_sweep(cfg: dict) -> int:
    sweep = _get(cfg, "sweep", dict)
    param = _get(sweep, "param", str, where="config.sweep")
    if param not in ("mu", "n_modes", "forcing_amplitude"):
        raise ConfigError(f"config.sweep.param: unknown parameter {param!r}")
    values = _get(sweep, "values", list, where="config.sweep")
    if not values:
        raise ConfigError("config.sweep.values: must be non-empty")
    if "monodromy" in cfg:
        _get(cfg, "monodromy", bool)
    with ThreadPoolExecutor(max_workers=_workers()) as pool:
        rows = list(pool.map(lambda v: _sweep_row(cfg, param, v), values))
    report_path, csv_path, _, _ = _outputs(cfg)
    doc = report_header("sweep")
    doc["param"] = param
    doc["rows"] = rows
    doc["all_succeeded"] = all(r["success"] for r in rows)
    print(write_report(report_path, doc), end="")
    if csv_path:
        cols = ["value", "success", "newton_iterations", "residual_dual", "l2", "aniso"]
        with open(csv_path, "w", newline="\n") as fh:
            fh.write(",".join(cols) + "\n")
            for r in rows:
                norms = r.get("norms", {})
                cells = [
                    _fmt(float(r["value"])),
                    "1" if r["success"] else "0",
                    str(r.get("newton_iterations", "")),
                    _fmt(r["residual_dual"]) if "residual_dual" in r else "",
                    _fmt(norms["l2"]) if norms else "",
                    _fmt(norms["aniso"]) if norms else "",
                ]
                fh.write(",".join(cells) + "\n")
    return EXIT_OK if doc["all_succeeded"] else EXIT_SOLVER


def cmd_colehopf(cfg: dict) -> int:
    report_path, _, _, _ = _outputs(cfg)
    doc = report_header("colehopf")
    if "phi_file" in cfg:
        # validation path: a supplied phi profile is checked for positivity
        path = _get(cfg, "phi_file", str)
        mu = _viscosity(cfg)
        try:
            times, xs, vals = read_field_csv(path)
        except (OSError, ValueError) as e:
            raise ConfigError(f"config.phi_file: cannot read {path!r}: {e}")
        g = fd.GridField(vals, len(times), len(xs), fd.Basis.NEUMANN_COSINE)
        n_t = (len(times) - 1) // 2
        n_x = len(xs) - 1
        phi = fd.to_spectral(g, n_t, n_x)
        v = fd.zeros(n_t, n_x)
        elem = ch.ColeHopfElement(kind=ch.Kind.S3, v=v, phi=phi, K=0.0)
        try:
            ch.s3_to_s2(elem, mu)
        except ch.NonpositivePhiError as e:
            raise ConfigError(f"config.phi_file: {e}")
        doc["phi_min"] = ch.grid_min(phi)
        doc["success"] = True
        print(write_report(report_path, doc), end="")
        return EXIT_OK
    mu, n_t, n_x, forcing = _common_problem(cfg)
    scfg = build_solver_config(cfg, mu)
    n_starts = _get(cfg, "n_starts", int, 3)
    seed = _get(cfg, "seed", int, 0)
    steps = _count(cfg, "monodromy_steps", 512)
    doc.update({"mu": mu, "n_t": n_t, "n_x": n_x})

    def failed(stage: str, e: Exception) -> int:
        doc["success"] = False
        doc["error"] = f"{stage}: {e}"
        print(write_report(report_path, doc), end="")
        return EXIT_SOLVER

    try:
        uniq = ch.verify_uniqueness(forcing, scfg, n_starts=n_starts, seed=seed)
    except (sv.ContinuationError, sv.LinearSolveError, RuntimeError) as e:
        return failed("verify_uniqueness", e)
    v = uniq.solutions[0]
    doc["max_pairwise_l2"] = uniq.max_pairwise_l2
    doc["max_s1_residual"] = uniq.max_s1_residual
    w = uniq.solutions[0] - uniq.solutions[1]
    try:
        e2 = ch.lift_s1_to_s2(w, uniq.solutions[1], mu)
    except ch.NotInS1Error as e:
        return failed("lift_s1_to_s2", e)
    try:
        e3 = ch.s2_to_s3(e2, mu)
    except ch.ProjectionAccuracyError as e:
        return failed("s2_to_s3", e)
    doc["K_s2"] = e2.K
    doc["K_s3"] = e3.K
    try:
        rho, eig = ch.monodromy_leading_pair(v, mu, steps=steps)
    except ch.PowerIterationError as e:
        return failed("monodromy_leading_pair", e)
    doc["rho"] = rho
    doc["eigfun_flatness"] = float(np.abs(ch.profile_values(eig) - 1.0).max())
    doc["success"] = bool(
        uniq.unique and abs(rho - 1.0) <= 1e-6 and doc["eigfun_flatness"] <= 1e-5
    )
    print(write_report(report_path, doc), end="")
    return EXIT_OK if doc["success"] else EXIT_SOLVER


def cmd_scale(cfg: dict) -> int:
    period = _get(cfg, "period", float)
    length = _get(cfg, "length", float)
    viscosity = _get(cfg, "viscosity", float)
    n_t = _count(cfg, "n_t")
    n_x = _count(cfg, "n_x")
    forcing = build_forcing(_get(cfg, "forcing", dict, {"modes": []}), n_t, n_x)
    try:
        prob = sc.PhysicalProblem(
            period=period, length=length, viscosity=viscosity, forcing=forcing
        )
    except ValueError as e:
        raise ConfigError(f"config: {e}")
    mu, f, flip = sc.normalize(prob)
    local = dict(cfg)
    local["mu"] = mu
    scfg = build_solver_config(local, mu)
    report_path, csv_path, m_t, m_x = _outputs(cfg)
    doc = report_header("scale")
    doc.update({"mu": mu, "flip": flip, "period": period, "length": length})
    try:
        result = _run_solve(local, f, scfg)
    except (sv.ContinuationError, sv.LinearSolveError) as e:
        doc["success"] = False
        doc["error"] = str(e)
        print(write_report(report_path, doc), end="")
        return EXIT_SOLVER
    doc["success"] = bool(result.success)
    doc["residual_dual"] = result.residual_dual
    doc["norms_normalized"] = _norm_block(result.u)
    print(write_report(report_path, doc), end="")
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        phys = sc.denormalize(
            result.u, prob, m_t=m_t or 4 * (n_t + 1), m_x=m_x or 4 * (n_x + 1)
        )
        with open(csv_path, "w", newline="\n") as fh:
            fh.write("t,x,u\n")
            for i, t in enumerate(phys.times):
                for j, x in enumerate(phys.positions):
                    fh.write(f"{t:.17g},{x:.17g},{phys.values[i, j]:.17g}\n")
    return EXIT_OK


COMMANDS = {
    "solve": cmd_solve,
    "verify": cmd_verify,
    "sweep": cmd_sweep,
    "colehopf": cmd_colehopf,
    "scale": cmd_scale,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="stburgers",
        description="Space-time spectral solver for the time-periodic forced Burgers equation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="path to a JSON config file")
        p.add_argument(
            "--override",
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override a config entry (dotted key path, JSON value)",
        )
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config, args.override)
        return COMMANDS[args.command](cfg)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
