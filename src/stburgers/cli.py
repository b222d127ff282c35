"""Command-line driver.

Subcommands: solve, verify, sweep, colehopf, scale.  Each takes
--config <path> (JSON) and repeatable --override key=value with dotted
key paths.  Reports are JSON documents with a stable field order and
floats printed to 17 significant digits; the only run-dependent field is
the single `timestamp` header entry.  Field dumps are CSV with header
`t,x,u`, row-major over t then x.

Exit codes: 0 success, 1 configuration error, 2 solver failure,
3 verification invariant failure.  `main` is the one place that turns
an exception into an exit code: a `ConfigError` exits 1 with its message
on stderr and no report; any other `StburgersError` writes the report so
far with `success: false` and the `error`, and exits with the error's
`exit_code`.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import itertools
import json
import os
import sys

import numpy as np

from . import colehopf as ch
from . import fields as fd
from . import norms as nm
from . import scaling as sc
from . import solver as sv
from . import verify as vf
from .errors import EXIT_OK, EXIT_SOLVER, EXIT_VERIFY, ConfigError, SolverError, StburgersError

# how far the nodes of a grid file may lie from the grid it must be on
NODE_TOL = 1e-9
# the most bytes one array of a run may take (1 GiB); a truncation whose
# largest array (`_largest_array`) needs more is a config error, raised
# before anything of that size is allocated
MAX_ARRAY_BYTES = 2**30
# the keys of config.solver (colehopf reads all but method), the keys of
# config.outputs and the top-level keys that each command reads (a
# colehopf run on a phi_file reads only PHI_FILE_KEYS); any other is a
# config error
SOLVER_KEYS = ("method", "newton_tol", "max_newton")
OUTPUT_KEYS = {
    "solve": ("report_path", "field_csv_path", "grid_m_t", "grid_m_x"),
    "verify": ("report_path",),
    "sweep": ("report_path", "field_csv_path"),
    "colehopf": ("report_path",),
}
OUTPUT_KEYS["scale"] = OUTPUT_KEYS["solve"]
PROBLEM_KEYS = ("mu", "n_t", "n_x", "forcing", "solver", "outputs")
COMMAND_KEYS = {
    "solve": PROBLEM_KEYS,
    "verify": tuple(f.name for f in dataclasses.fields(vf.VerifyConfig)) + ("outputs",),
    "sweep": PROBLEM_KEYS + ("sweep", "monodromy"),
    "colehopf": PROBLEM_KEYS + ("n_starts", "seed", "monodromy_steps"),
    "scale": ("period", "length", "viscosity") + PROBLEM_KEYS[1:],
}
PHI_FILE_KEYS = ("phi_file", "outputs")


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
            raise ConfigError(f"{where}.{key}: missing required key")
        return default
    return _check(cfg[key], kind, f"{where}.{key}")


def _check(value, kind, where: str):
    """`value` as a `kind`; integers pass as floats, booleans never as
    integers, and floats must be finite."""
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        try:
            value = float(value)
        except OverflowError:
            raise ConfigError(
                f"{where}: expected a finite number, got an integer past the float range"
            ) from None
    if kind is int and isinstance(value, bool):
        raise ConfigError(f"{where}: expected integer, got boolean")
    if not isinstance(value, kind):
        raise ConfigError(f"{where}: expected {kind.__name__}, got {type(value).__name__}")
    if kind is float and not np.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {value}")
    return value


def _mapping(value, where: str, keys) -> dict:
    """`value` as a mapping of `keys`; one config error names every
    other key."""
    if not isinstance(value, dict):
        raise ConfigError(f"{where}: expected a mapping")
    unread = [f"{where}.{key}" for key in value if key not in keys]
    if unread:
        raise ConfigError(f"{', '.join(unread)}: not read (takes {', '.join(keys)})")
    return value


def build_forcing(spec, n_t: int, n_x: int, where: str = "config.forcing") -> "fd.SpectralField":
    spec = _mapping(spec, where, ("modes", "grid_file", "decomposition"))
    keys = list(spec)
    if len(keys) != 1:
        raise ConfigError(
            f"{where}: exactly one of modes / grid_file / decomposition required"
        )
    if keys[0] == "modes":
        return _forcing_from_modes(spec, "modes", n_t, n_x, where)
    if keys[0] == "grid_file":
        path = _get(spec, "grid_file", str, where=where)
        g = _read_grid(path, fd.Basis.DIRICHLET_SINE, f"{where}.grid_file")
        try:
            return fd.to_spectral(g, n_t, n_x)
        except fd.ResolutionError as e:
            raise ConfigError(f"{where}.grid_file: {e}")
    where += ".decomposition"
    d = _mapping(spec["decomposition"], where, ("g_modes", "h_modes"))
    g = _forcing_from_modes(d, "g_modes", n_t, n_x, where)
    h = _forcing_from_modes(d, "h_modes", n_t, n_x, where, fd.Basis.NEUMANN_COSINE)
    return nm.ForcingDecomposition(g, h).reconstruct()


def _check_mode(entry, n_t: int, n_x: int, where: str, m_min: int = 1):
    _mapping(entry, where, ("n", "m", "re", "im"))
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


def _forcing_from_modes(
    spec: dict, key: str, n_t: int, n_x: int, where: str, basis=fd.Basis.DIRICHLET_SINE
) -> "fd.SpectralField":
    """The field of the mode list spec[key]; cosine fields take m = 0."""
    f = fd.zeros(n_t, n_x, basis)
    m_min = 0 if basis is fd.Basis.NEUMANN_COSINE else 1
    for i, entry in enumerate(_get(spec, key, list, [], where=where)):
        n, m, val = _check_mode(entry, n_t, n_x, f"{where}.{key}[{i}]", m_min)
        f = fd.set_mode(f, n, m, val)
    return f


def _read_grid(path: str, basis: "fd.Basis", where: str) -> "fd.GridField":
    """The `t,x,u` CSV at `path` as a grid field; its nodes must be the
    time nodes j/m_t and the space nodes of `basis`."""
    try:
        times, xs, vals = read_field_csv(path)
    except OSError as e:
        raise ConfigError(f"{where}: cannot read {path!r}: {e.strerror}")
    except ValueError as e:
        raise ConfigError(f"{where}: malformed CSV {path!r}: {e}")
    m_t, m_x = len(times), len(xs)
    if not (
        np.allclose(times, fd.time_nodes(m_t), rtol=0.0, atol=NODE_TOL)
        and np.allclose(xs, fd.space_nodes(m_x, basis), rtol=0.0, atol=NODE_TOL)
    ):
        x_nodes = "i/(m_x+1), i = 1..m_x" if basis is fd.Basis.DIRICHLET_SINE else "(i+1/2)/m_x"
        raise ConfigError(
            f"{where}: {path!r} is not on the {m_t}x{m_x} grid t = j/m_t, x = {x_nodes}"
        )
    return fd.GridField(vals, m_t, m_x, basis)


def build_solver_config(cfg: dict, mu: float, keys=SOLVER_KEYS) -> "sv.SolverConfig":
    """The SolverConfig of config.solver, a mapping of `keys`; each of its
    range errors begins with the name of the setting at fault."""
    s = _mapping(cfg.get("solver", {}), "config.solver", keys)
    settings = {
        key: _get(s, key, kind, where="config.solver")
        for key, kind in (("newton_tol", float), ("max_newton", int))
        if key in s
    }
    try:
        return sv.SolverConfig(mu=mu, **settings)
    except ValueError as e:
        raise ConfigError(f"config.solver.{e}")


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


def _write_output(path: str, key: str, lines) -> None:
    """Write the text `lines` to `path`; a failure is a config error that
    names config.outputs.<key>."""
    try:
        with open(path, "w", newline="\n") as fh:
            fh.writelines(lines)
    except OSError as e:
        raise ConfigError(f"config.outputs.{key}: cannot write {path!r}: {e.strerror}")


def write_report(path: str | None, doc: dict) -> str:
    out: list[str] = []
    _emit_json(doc, out)
    text = "".join(out) + "\n"
    if path:
        _write_output(path, "report_path", [text])
    return text


def report_header(command: str) -> dict:
    return {
        "format": "stburgers-report-v1",
        "command": command,
        "timestamp": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }


def write_field_csv(path: str, times, xs, values) -> None:
    """Write values[i, j] at (times[i], xs[j]) as a `t,x,u` dump."""
    rows = (
        f"{t:.17g},{x:.17g},{values[i, j]:.17g}\n"
        for i, t in enumerate(times)
        for j, x in enumerate(xs)
    )
    _write_output(path, "field_csv_path", itertools.chain(["t,x,u\n"], rows))


def read_field_csv(path: str):
    """Read a `t,x,u` dump, rows in any order, back into sorted node
    vectors and a value matrix."""
    with open(path) as fh:
        header = fh.readline().strip()
        if header != "t,x,u":
            raise ValueError(f"expected header 't,x,u', got {header!r}")
        rows = [line.strip().split(",") for line in fh if line.strip()]
    data = np.array([[float(c) for c in r] for r in rows])
    if data.ndim != 2 or data.shape[1] != 3:
        raise ValueError("expected three columns per row")
    if not np.isfinite(data).all():
        raise ValueError("non-finite entry")
    data = data[np.lexsort((data[:, 1], data[:, 0]))]
    times = np.unique(data[:, 0])
    xs = np.unique(data[:, 1])
    nodes = np.stack(np.meshgrid(times, xs, indexing="ij"), axis=-1).reshape(-1, 2)
    if nodes.shape != data[:, :2].shape or (nodes != data[:, :2]).any():
        raise ValueError("rows do not form a full tensor grid")
    vals = data[:, 2].reshape(len(times), len(xs))
    return times, xs, vals


# ---------------------------------------------------------------------------
# Subcommands


def _count(cfg: dict, key: str, default=..., where: str = "config", least: int = 1) -> int:
    """cfg[key] as an integer of at least `least`."""
    value = _get(cfg, key, int, default, where)
    if value is not None and value < least:
        raise ConfigError(f"{where}.{key}: must be at least {least}, got {value}")
    return value


def _positive(cfg: dict, key: str, default=..., where: str = "config") -> float:
    """cfg[key] as a positive float."""
    value = _get(cfg, key, float, default, where)
    if value <= 0.0:
        raise ConfigError(f"{where}.{key}: must be positive, got {value}")
    return value


def _largest_array(n_t: int, n_x: int) -> tuple[str, int]:
    """(name, bytes) of the largest array that a solve at truncation
    (n_t, n_x) allocates: the real dense matrix of T'(m) or the Krylov
    basis, whichever the solve uses, the real values of a product on its
    padded grid, the complex time matrix that its packed one is built
    from, or the real space matrix of the product grid of `apply_S`."""
    n = (2 * n_t + 1) * n_x
    if n <= sv.DENSE_MAX_UNKNOWNS:
        linear = ("dense matrix", 8 * n * n)
    else:
        linear = ("Krylov basis", 8 * (min(sv.MAX_KRYLOV, n) + 1) * n)
    grid = ("product grid", 8 * (4 * n_t + 1) * (4 * n_x + 2))
    time = ("time matrix", 16 * (4 * n_t + 1) ** 2)
    space = ("space matrix", 8 * (3 * n_x + 2) * (n_x + 1))
    return max(linear, grid, time, space, key=lambda named: named[1])


def _truncation(cfg: dict, keys=("n_t", "n_x"), defaults=None) -> tuple[int, int]:
    """The truncation cfg[keys] of a solve, each key required unless
    `defaults` has it as an attribute, checked against MAX_ARRAY_BYTES
    before any array of that size exists."""
    n_t, n_x = (_count(cfg, key, getattr(defaults, key, ...)) for key in keys)
    _check_budget(
        f"config.{keys[0]}/config.{keys[1]}", f"truncation ({n_t}, {n_x})", _largest_array(n_t, n_x)
    )
    return n_t, n_x


def _check_budget(where: str, what: str, *arrays: tuple[str, int]) -> None:
    """A config error naming `where` if the largest of the (name, bytes)
    `arrays` that `what` needs is over MAX_ARRAY_BYTES."""
    name, size = max(arrays, key=lambda named: named[1])
    if size > MAX_ARRAY_BYTES:
        # an integer size past the float range has no float quotient
        gib = f"{size / 2**30:.3g}" if size < 2**1000 else f"over 2^{size.bit_length() - 31}"
        raise ConfigError(
            f"{where}: {what} needs a {name} of {gib} GiB, "
            f"over the {MAX_ARRAY_BYTES / 2**30:g} GiB array budget"
        )


def _common_problem(cfg: dict):
    mu = _positive(cfg, "mu")
    n_t, n_x = _truncation(cfg)
    forcing = build_forcing(cfg.get("forcing", {"modes": []}), n_t, n_x)
    return mu, n_t, n_x, forcing


def _solve_method(cfg: dict) -> str:
    s = _mapping(cfg.get("solver", {}), "config.solver", SOLVER_KEYS)
    method = _get(s, "method", str, "homotopy", "config.solver")
    if method not in ("newton", "homotopy"):
        raise ConfigError(f"config.solver.method: unknown method {method!r}")
    return method


def _run_solve(cfg: dict, forcing, scfg) -> "sv.SolveReport":
    if _solve_method(cfg) == "newton":
        return sv.newton_solve(forcing, None, scfg)
    return sv.homotopy_solve(forcing, scfg)


def _outputs(cfg: dict, command: str, truncation: tuple[int, int] | None = None):
    """(report_path, field_csv_path, grid_m_t, grid_m_x) of config.outputs,
    a mapping of the OUTPUT_KEYS of `command`; None where a key is absent.
    The grid keys are read only with a field CSV.  Given the truncation
    (n_t, n_x) of a solve that writes a field CSV, the grid defaults to
    4 (n_t + 1) x 4 (n_x + 1) and is checked against MAX_ARRAY_BYTES
    before the solve runs."""
    o = _mapping(cfg.get("outputs", {}), "config.outputs", OUTPUT_KEYS[command])
    paths = []
    for key in ("report_path", "field_csv_path"):
        path = _get(o, key, str, None, where="config.outputs")
        # the directory of the file a link leads to, so that a dangling
        # link into a missing directory fails here, before any solve
        if path and (
            os.path.isdir(path) or not os.access(os.path.dirname(os.path.realpath(path)), os.W_OK)
        ):
            raise ConfigError(
                f"config.outputs.{key}: cannot write {path!r} (not a file in a writable directory)"
            )
        paths.append(path)
    for key in ("grid_m_t", "grid_m_x"):
        if key in o and not paths[1]:
            raise ConfigError(f"config.outputs.{key}: not read (no config.outputs.field_csv_path)")
    m_t = _count(o, "grid_m_t", None, where="config.outputs")
    m_x = _count(o, "grid_m_x", None, where="config.outputs")
    if truncation is not None and paths[1]:
        n_t, n_x = truncation
        m_t, m_x = m_t or 4 * (n_t + 1), m_x or 4 * (n_x + 1)
        _check_budget(
            "config.outputs.grid_m_t/config.outputs.grid_m_x",
            f"output grid ({m_t}, {m_x})",
            ("time matrix", 16 * m_t * (2 * n_t + 1)),  # complex, before packing
            ("value array", 8 * m_t * m_x),
            ("space matrix", 8 * m_x * n_x),
        )
    return *paths, m_t, m_x


def _stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a failure re-raised under the stage name."""
    try:
        return fn(*args, **kwargs)
    except StburgersError as e:
        raise type(e)(f"{name}: {e}") from e


def cmd_solve(cfg: dict, doc: dict) -> int:
    mu, n_t, n_x, forcing = _common_problem(cfg)
    scfg = build_solver_config(cfg, mu)
    _, csv_path, m_t, m_x = _outputs(cfg, "solve", (n_t, n_x))
    doc.update({"mu": mu, "n_t": n_t, "n_x": n_x, "forcing_dual_norm": nm.dual_norm(forcing)})
    result = _run_solve(cfg, forcing, scfg)
    doc["success"] = bool(result.success)
    doc["message"] = result.message
    doc["newton_iterations"] = result.newton_iters
    doc["residual_dual"] = result.residual_dual
    doc["energy_gap"] = nm.energy_gap(forcing, result.u, mu)
    doc["lambda_path"] = [list(map(float, row)) for row in result.lambda_path]
    doc["norms"] = dataclasses.asdict(nm.norm_report(result.u))
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        xs = fd.space_nodes(m_x, result.u.basis)
        write_field_csv(csv_path, fd.time_nodes(m_t), xs, fd.evaluate(result.u, m_t, m_x))
    return EXIT_OK


def cmd_verify(cfg: dict, doc: dict) -> int:
    # every key but the seed defaults to its VerifyConfig value
    defaults = vf.VerifyConfig
    n_t, n_x = _truncation(cfg, defaults=defaults)
    solve_n_t, solve_n_x = _truncation(cfg, ("solve_n_t", "solve_n_x"), defaults)
    vcfg = vf.VerifyConfig(
        seed=_count(cfg, "seed", least=0),
        n_samples=_count(cfg, "n_samples", defaults.n_samples),
        n_t=n_t,
        n_x=n_x,
        mu=_positive(cfg, "mu", defaults.mu),
        solve_n_t=solve_n_t,
        solve_n_x=solve_n_x,
        monodromy_steps=_count(cfg, "monodromy_steps", defaults.monodromy_steps),
        positivity_cases=_count(cfg, "positivity_cases", defaults.positivity_cases),
    )
    results = _stage("run_suite", vf.run_suite, vcfg)
    doc["seed"] = vcfg.seed
    doc["n_samples"] = vcfg.n_samples
    doc["invariants"] = [dataclasses.asdict(r) for r in results]
    doc["all_passed"] = all(r.passed for r in results)
    return EXIT_OK if doc["all_passed"] else EXIT_VERIFY


def _sweep_problem(cfg: dict, param: str, value) -> tuple:
    """The config, forcing and solver settings of one sweep row, checked
    before any row runs (a ConfigError here ends the sweep)."""
    local = json.loads(json.dumps(cfg))  # deep copy, JSON-safe by construction
    if param == "mu":
        local["mu"] = value
    elif param == "n_modes":
        local["n_t"] = local["n_x"] = value
    mu, _, _, forcing = _common_problem(local)
    if param == "forcing_amplitude":
        forcing = float(value) * forcing
    _solve_method(local)
    return local, forcing, build_solver_config(local, mu)


def _sweep_row(param: str, value, local: dict, forcing, scfg) -> dict:
    mu = scfg.mu
    row = {"param": param, "value": value}
    try:
        result = _run_solve(local, forcing, scfg)
        if not result.success:
            raise SolverError(result.message)
        row["success"] = True
        row["newton_iterations"] = result.newton_iters
        row["residual_dual"] = result.residual_dual
        row["energy_gap"] = nm.energy_gap(forcing, result.u, mu)
        row["norms"] = dataclasses.asdict(nm.norm_report(result.u))
        if local.get("monodromy", False):
            rho, eig = ch.monodromy_leading_pair(result.u, mu)
            row["rho"] = rho
            row["eigfun_flatness"] = float(
                np.abs(ch.profile_values(eig) - 1.0).max()
            )
    except StburgersError as e:
        row["success"] = False
        row["error"] = str(e)
    return row


def cmd_sweep(cfg: dict, doc: dict) -> int:
    sweep = _mapping(_get(cfg, "sweep", dict), "config.sweep", ("param", "values"))
    param = _get(sweep, "param", str, where="config.sweep")
    if param not in ("mu", "n_modes", "forcing_amplitude"):
        raise ConfigError(f"config.sweep.param: unknown parameter {param!r}")
    values = _get(sweep, "values", list, where="config.sweep")
    if not values:
        raise ConfigError("config.sweep.values: must be non-empty")
    for i, v in enumerate(values):
        _check(v, int if param == "n_modes" else float, f"config.sweep.values[{i}]")
    if "monodromy" in cfg:
        _get(cfg, "monodromy", bool)
    problems = [_sweep_problem(cfg, param, v) for v in values]
    rows = [_sweep_row(param, v, *p) for v, p in zip(values, problems)]
    _, csv_path, _, _ = _outputs(cfg, "sweep")
    doc["param"] = param
    doc["rows"] = rows
    doc["all_succeeded"] = all(r["success"] for r in rows)
    if csv_path:
        lines = ["value,success,newton_iterations,residual_dual,l2,aniso\n"]
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
            lines.append(",".join(cells) + "\n")
        _write_output(csv_path, "field_csv_path", lines)
    return EXIT_OK if doc["all_succeeded"] else EXIT_SOLVER


def cmd_colehopf(cfg: dict, doc: dict) -> int:
    if "phi_file" in cfg:
        # validation path: a supplied phi profile is checked for positivity
        path = _get(cfg, "phi_file", str)
        g = _read_grid(path, fd.Basis.NEUMANN_COSINE, "config.phi_file")
        phi = fd.to_spectral(g, (g.m_t - 1) // 2, g.m_x - 1)
        doc["phi_min"] = ch.grid_min(phi)
        if doc["phi_min"] <= 0.0:
            raise ConfigError("config.phi_file: phi is not strictly positive on the grid")
        doc["success"] = True
        return EXIT_OK
    mu, n_t, n_x, forcing = _common_problem(cfg)
    scfg = build_solver_config(cfg, mu, SOLVER_KEYS[1:])
    n_starts = _count(cfg, "n_starts", 3, least=2)
    seed = _count(cfg, "seed", 0, least=0)
    steps = _count(cfg, "monodromy_steps", 512)
    doc.update({"mu": mu, "n_t": n_t, "n_x": n_x})
    uniq = _stage(
        "verify_uniqueness", ch.verify_uniqueness, forcing, scfg, n_starts=n_starts, seed=seed
    )
    v = uniq.solutions[0]
    doc["max_pairwise_l2"] = uniq.max_pairwise_l2
    doc["max_s1_residual"] = uniq.max_s1_residual
    w = uniq.solutions[0] - uniq.solutions[1]
    e2 = _stage("lift_s1_to_s2", ch.lift_s1_to_s2, w, uniq.solutions[1], mu)
    e3 = _stage("s2_to_s3", ch.s2_to_s3, e2, mu)
    doc["K_s2"] = e2.K
    doc["K_s3"] = e3.K
    rho, eig = ch.monodromy_leading_pair(v, mu, steps=steps)
    doc["rho"] = rho
    doc["eigfun_flatness"] = float(np.abs(ch.profile_values(eig) - 1.0).max())
    tol = vf.TOLERANCES
    doc["success"] = bool(
        uniq.unique
        and abs(rho - 1.0) <= tol["monodromy_eigenvalue"]
        and doc["eigfun_flatness"] <= tol["monodromy_flatness"]
    )
    return EXIT_OK if doc["success"] else EXIT_SOLVER


def cmd_scale(cfg: dict, doc: dict) -> int:
    period = _positive(cfg, "period")
    length = _positive(cfg, "length")
    viscosity = _get(cfg, "viscosity", float)
    if viscosity == 0.0:
        raise ConfigError("config.viscosity: must be nonzero")
    n_t, n_x = _truncation(cfg)
    forcing = build_forcing(cfg.get("forcing", {"modes": []}), n_t, n_x)
    prob = sc.PhysicalProblem(period=period, length=length, viscosity=viscosity, forcing=forcing)
    mu, f, flip = sc.normalize(prob)
    scfg = build_solver_config(cfg, mu)
    _, csv_path, m_t, m_x = _outputs(cfg, "scale", (n_t, n_x))
    doc.update({"mu": mu, "flip": flip, "period": period, "length": length})
    result = _run_solve(cfg, f, scfg)
    doc["success"] = bool(result.success)
    doc["residual_dual"] = result.residual_dual
    doc["norms_normalized"] = dataclasses.asdict(nm.norm_report(result.u))
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        phys = sc.denormalize(result.u, prob, m_t=m_t, m_x=m_x)
        write_field_csv(csv_path, phys.times, phys.positions, phys.values)
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
        phi_file = args.command == "colehopf" and "phi_file" in cfg
        _mapping(cfg, "config", PHI_FILE_KEYS if phi_file else COMMAND_KEYS[args.command])
        report_path = _outputs(cfg, args.command)[0]
        doc = report_header(args.command)
        try:
            code = COMMANDS[args.command](cfg, doc)
        except ConfigError:
            raise
        except StburgersError as e:
            doc["success"] = False
            doc["error"] = str(e)
            code = e.exit_code
        text = write_report(report_path, doc)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return e.exit_code
    print(text, end="")
    return code


if __name__ == "__main__":
    sys.exit(main())
