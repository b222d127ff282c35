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

Each config section has one reader, called once per run before any
solve (a sweep reads config.forcing and config.solver once per row),
and a swept value out of its key's range names `config.sweep.values[i]`.
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
    "solve": ("report_path", "field_csv_path"),
    "verify": ("report_path",),
    "sweep": ("report_path", "field_csv_path"),
    "colehopf": ("report_path",),
}
OUTPUT_KEYS["scale"] = OUTPUT_KEYS["solve"]
PROBLEM_KEYS = ("mu", "n_t", "n_x", "forcing", "solver", "outputs")
COMMAND_KEYS = {
    "solve": PROBLEM_KEYS,
    "verify": tuple(f.name for f in dataclasses.fields(vf.VerifyConfig)) + ("outputs",),
    "sweep": PROBLEM_KEYS + ("sweep",),
    "colehopf": PROBLEM_KEYS + ("n_starts", "seed", "monodromy_steps"),
    "scale": ("period", "length", "viscosity") + PROBLEM_KEYS[1:],
}
PHI_FILE_KEYS = ("phi_file", "outputs")
# the top-level keys that each sweep parameter replaces in its rows
SWEEP_KEYS = {"mu": ("mu",), "n_modes": ("n_t", "n_x"), "forcing_amplitude": ()}


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


def build_solver_config(cfg: dict, mu: float, keys=SOLVER_KEYS):
    """(solve, SolverConfig) of config.solver, a mapping of `keys`; each
    range error begins with the name of the setting at fault, and
    `solve(forcing)` runs Newton from zero or (the default) the homotopy."""
    s = _mapping(cfg.get("solver", {}), "config.solver", keys)
    settings = {
        key: _get(s, key, kind, where="config.solver")
        for key, kind in (("newton_tol", float), ("max_newton", int))
        if key in s
    }
    try:
        scfg = sv.SolverConfig(mu=mu, **settings)
    except ValueError as e:
        raise ConfigError(f"config.solver.{e}")
    method = _get(s, "method", str, "homotopy", "config.solver")
    # the solver's functions are looked up at each call
    if method == "newton":
        return (lambda forcing: sv.newton_solve(forcing, None, scfg)), scfg
    if method == "homotopy":
        return (lambda forcing: sv.homotopy_solve(forcing, scfg)), scfg
    raise ConfigError(f"config.solver.method: unknown method {method!r}")


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


def _write_csv(path: str, header, rows) -> None:
    """Write the `header` cells and then each row of cells to `path`,
    the file of config.outputs.field_csv_path, one comma-joined line each."""
    lines = (",".join(cells) + "\n" for cells in itertools.chain([header], rows))
    _write_output(path, "field_csv_path", lines)


def write_field_csv(path: str, times, xs, values) -> None:
    """Write values[i, j] at (times[i], xs[j]) as a `t,x,u` dump."""
    rows = (
        (f"{t:.17g}", f"{x:.17g}", f"{values[i, j]:.17g}")
        for i, t in enumerate(times)
        for j, x in enumerate(xs)
    )
    _write_csv(path, ("t", "x", "u"), rows)


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
    """cfg[key] as an integer of at least `least`, inside the float range
    as a float key must be (`_check`)."""
    value = _get(cfg, key, int, default, where)
    if value < least:
        raise ConfigError(f"{where}.{key}: must be at least {least}, got {value}")
    _check(value, float, f"{where}.{key}")
    return value


def _positive(cfg: dict, key: str, default=..., where: str = "config") -> float:
    """cfg[key] as a positive float."""
    value = _get(cfg, key, float, default, where)
    if value <= 0.0:
        raise ConfigError(f"{where}.{key}: must be positive, got {value}")
    return value


def _normal_viscosity(mu: float) -> bool:
    """Whether mu * pi**2, the diffusion rate of the first sine mode, is a
    normal float; below that the symbol of L loses its bits, and the
    solve runs on NaN."""
    return sys.float_info.min <= mu * np.pi**2 <= sys.float_info.max


def _viscosity(cfg: dict, default) -> float:
    """config.mu as a positive float whose mu * pi**2 is normal; default
    as for `_get`."""
    mu = _positive(cfg, "mu", default)
    if not _normal_viscosity(mu):
        raise ConfigError(f"config.mu: mu * pi**2 must be a normal float, got mu = {mu}")
    return mu


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


def _truncation(cfg: dict, csv_path: str | None) -> tuple[int, int]:
    """The truncation (config.n_t, config.n_x) of a solve, checked against
    MAX_ARRAY_BYTES before any array of that size exists; so is the grid
    (`_field_grid`) of the field CSV at `csv_path`, if one is written."""
    n_t, n_x = _count(cfg, "n_t"), _count(cfg, "n_x")
    where = "config.n_t/config.n_x"
    _check_budget(where, f"truncation ({n_t}, {n_x})", _largest_array(n_t, n_x))
    if csv_path:
        m_t, m_x = _field_grid(n_t, n_x)
        # the grid's time matrix and values are smaller than the time
        # matrix and the dense matrix or Krylov basis of the truncation
        # (`_largest_array`), but its space matrix can be larger
        _check_budget(where, f"field CSV grid ({m_t}, {m_x})", ("space matrix", 8 * m_x * n_x))
    return n_t, n_x


def _field_grid(n_t: int, n_x: int) -> tuple[int, int]:
    """The 4 (n_t + 1) x 4 (n_x + 1) grid (m_t, m_x) of the field CSV of a
    solution at truncation (n_t, n_x)."""
    return 4 * (n_t + 1), 4 * (n_x + 1)


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


def _forcing(cfg: dict, csv_path: str | None):
    """The truncation (`_truncation`) and config.forcing of a solve."""
    n_t, n_x = _truncation(cfg, csv_path)
    return n_t, n_x, build_forcing(cfg.get("forcing", {"modes": []}), n_t, n_x)


def _common_problem(cfg: dict, csv_path: str | None):
    return (_viscosity(cfg, ...), *_forcing(cfg, csv_path))


def _outputs(cfg: dict, command: str):
    """(report_path, field_csv_path) of config.outputs, a mapping of the
    OUTPUT_KEYS of `command`; None where a key is absent.  The two must
    be distinct files, also through links, or one write would overwrite
    the other."""
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
    if all(paths) and os.path.realpath(paths[0]) == os.path.realpath(paths[1]):
        raise ConfigError(
            f"config.outputs.field_csv_path: {paths[1]!r} is the file of "
            f"config.outputs.report_path ({paths[0]!r}); the two must be distinct files"
        )
    return paths


def _stage(name: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a failure re-raised under the stage name."""
    try:
        return fn(*args, **kwargs)
    except StburgersError as e:
        raise type(e)(f"{name}: {e}") from e


def _solve_outcome(solve, forcing, doc: dict) -> "sv.SolveReport":
    """solve(forcing), its outcome written to the keys solve and scale share."""
    result = solve(forcing)
    doc["success"] = bool(result.success)
    doc["message"] = result.message
    doc["newton_iterations"] = result.newton_iters
    doc["residual_dual"] = result.residual_dual
    return result


def cmd_solve(cfg: dict, doc: dict, csv_path: str | None) -> int:
    mu, n_t, n_x, forcing = _common_problem(cfg, csv_path)
    solve, _ = build_solver_config(cfg, mu)
    doc.update({"mu": mu, "n_t": n_t, "n_x": n_x, "forcing_dual_norm": nm.dual_norm(forcing)})
    result = _solve_outcome(solve, forcing, doc)
    doc["energy_gap"] = nm.energy_gap(forcing, result.u, mu)
    doc["lambda_path"] = [list(map(float, row)) for row in result.lambda_path]
    doc["norms"] = dataclasses.asdict(nm.norm_report(result.u))
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        m_t, m_x = _field_grid(n_t, n_x)
        xs = fd.space_nodes(m_x, result.u.basis)
        write_field_csv(csv_path, fd.time_nodes(m_t), xs, fd.evaluate(result.u, m_t, m_x))
    return EXIT_OK


def cmd_verify(cfg: dict, doc: dict, csv_path: None) -> int:
    # n_samples and mu default to their VerifyConfig values
    defaults = vf.VerifyConfig
    vcfg = vf.VerifyConfig(
        seed=_count(cfg, "seed", least=0),
        n_samples=_count(cfg, "n_samples", defaults.n_samples),
        mu=_viscosity(cfg, defaults.mu),
    )
    results = _stage("run_suite", vf.run_suite, vcfg)
    doc["seed"] = vcfg.seed
    doc["n_samples"] = vcfg.n_samples
    doc["invariants"] = [dataclasses.asdict(r) for r in results]
    doc["all_passed"] = all(r.passed for r in results)
    return EXIT_OK if doc["all_passed"] else EXIT_VERIFY


def _sweep_problem(cfg: dict, param: str, value, where: str) -> tuple:
    """The forcing, solve and SolverConfig of the sweep row that sets
    `param` to `value`, checked before any row runs; an error in a key
    that the value replaces (SWEEP_KEYS) names the value's path `where`."""
    _check(value, int if param == "n_modes" else float, where)
    keys = SWEEP_KEYS[param]
    row = {**cfg, **dict.fromkeys(keys, value)}
    try:
        mu, _, _, forcing = _common_problem(row, None)
    except ConfigError as e:
        key, _, text = str(e).partition(": ")
        if {k.removeprefix("config.") for k in key.split("/")} <= set(keys):
            raise ConfigError(f"{where}: {text}") from None
        raise
    if param == "forcing_amplitude":
        forcing = float(value) * forcing
    return (forcing, *build_solver_config(row, mu))


def _sweep_row(param: str, value, forcing, solve, scfg) -> dict:
    row = {"param": param, "value": value}
    try:
        result = solve(forcing)
        if not result.success:
            raise SolverError(result.message)
        row["success"] = True
        row["newton_iterations"] = result.newton_iters
        row["residual_dual"] = result.residual_dual
        row["energy_gap"] = nm.energy_gap(forcing, result.u, scfg.mu)
        row["norms"] = dataclasses.asdict(nm.norm_report(result.u))
    except StburgersError as e:
        row["success"] = False
        row["error"] = str(e)
    return row


def _sweep_cells(row: dict) -> tuple:
    """The cells of a sweep row in its rows CSV; empty where it failed."""
    norms = row.get("norms", {})
    return (
        _fmt(float(row["value"])),
        "1" if row["success"] else "0",
        str(row.get("newton_iterations", "")),
        _fmt(row["residual_dual"]) if "residual_dual" in row else "",
        _fmt(norms["l2"]) if norms else "",
        _fmt(norms["aniso"]) if norms else "",
    )


def cmd_sweep(cfg: dict, doc: dict, csv_path: str | None) -> int:
    sweep = _mapping(_get(cfg, "sweep", dict), "config.sweep", ("param", "values"))
    param = _get(sweep, "param", str, where="config.sweep")
    if param not in SWEEP_KEYS:
        raise ConfigError(f"config.sweep.param: unknown parameter {param!r}")
    values = _get(sweep, "values", list, where="config.sweep")
    if not values:
        raise ConfigError("config.sweep.values: must be non-empty")
    problems = [_sweep_problem(cfg, param, v, f"config.sweep.values[{i}]") for i, v in enumerate(values)]
    rows = [_sweep_row(param, v, *p) for v, p in zip(values, problems)]
    doc["param"] = param
    doc["rows"] = rows
    doc["all_succeeded"] = all(r["success"] for r in rows)
    if csv_path:
        header = ("value", "success", "newton_iterations", "residual_dual", "l2", "aniso")
        _write_csv(csv_path, header, map(_sweep_cells, rows))
    return EXIT_OK if doc["all_succeeded"] else EXIT_SOLVER


def cmd_colehopf(cfg: dict, doc: dict, csv_path: None) -> int:
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
    mu, n_t, n_x, forcing = _common_problem(cfg, None)
    _, scfg = build_solver_config(cfg, mu, SOLVER_KEYS[1:])
    n_starts = _count(cfg, "n_starts", ch.N_STARTS, least=2)
    seed = _count(cfg, "seed", 0, least=0)
    steps = _count(cfg, "monodromy_steps", ch.MONODROMY_STEPS)
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
    rho, eig = ch.monodromy_leading_pair(v, mu, steps)
    doc["rho"] = rho
    doc["eigfun_flatness"] = float(np.abs(ch.profile_values(eig) - 1.0).max())
    tol = vf.TOLERANCES
    doc["success"] = bool(
        uniq.unique
        and abs(rho - 1.0) <= tol["monodromy_eigenvalue"]
        and doc["eigfun_flatness"] <= tol["monodromy_flatness"]
    )
    return EXIT_OK if doc["success"] else EXIT_SOLVER


def cmd_scale(cfg: dict, doc: dict, csv_path: str | None) -> int:
    period = _positive(cfg, "period")
    length = _positive(cfg, "length")
    viscosity = _get(cfg, "viscosity", float)
    if viscosity == 0.0:
        raise ConfigError("config.viscosity: must be nonzero")
    n_t, n_x, forcing = _forcing(cfg, csv_path)
    prob = sc.PhysicalProblem(period=period, length=length, viscosity=viscosity, forcing=forcing)
    try:
        mu, f, flip = sc.normalize(prob)
        in_range = 0.0 < mu < np.inf and 0.0 < period**2 / length < np.inf
    except ArithmeticError:  # a division by zero or an overflow of **
        in_range = False
    if not in_range:
        raise ConfigError(
            "config.period/config.length/config.viscosity: the normalized viscosity "
            "nu T / L^2 or forcing scale T^2 / L is zero or not finite"
        )
    if not _normal_viscosity(mu):
        raise ConfigError(
            "config.period/config.length/config.viscosity: the normalized viscosity "
            f"nu T / L^2 = {mu:.3g} leaves mu * pi**2 outside the normal floats"
        )
    solve, _ = build_solver_config(cfg, mu)
    doc.update({"mu": mu, "flip": flip, "period": period, "length": length})
    result = _solve_outcome(solve, f, doc)
    doc["norms_normalized"] = dataclasses.asdict(nm.norm_report(result.u))
    if not result.success:
        return EXIT_SOLVER
    if csv_path:
        phys = sc.denormalize(result.u, prob, *_field_grid(n_t, n_x))
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
        report_path, csv_path = _outputs(cfg, args.command)
        doc = report_header(args.command)
        try:
            code = COMMANDS[args.command](cfg, doc, csv_path)
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
