"""Self-tests of the benchmark.

    python3 -m pytest -q bench/test_bench.py

They are not part of the library's test suite (pytest's `testpaths` is
`tests`), so they cost the Tier-1 run nothing.
"""

import dataclasses
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from stburgers import fields, solver  # noqa: E402

SEED = 7
# cheap ops that still reach every path a workload takes: the dense and
# GMRES solves, scaling, the suite and the Cole-Hopf chain
TRACED_SLOTS = {"matrix-small": (0, 8, 9), "solve-large": (0, 5, 6), "verify-suite": (0, 1)}


def same(a, b) -> bool:
    """Structural equality of workload inputs."""
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, fields.SpectralField):
        return a.same_layout(b) and np.array_equal(a.coeffs, b.coeffs)
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and same(vars(a), vars(b))
    return a == b


@pytest.fixture(scope="module", autouse=True)
def alarm():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, old)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_op_sequence_is_fixed_by_seed(name):
    wl = workloads.WORKLOADS[name]
    a, b, c = wl.prepare(SEED), wl.prepare(SEED), wl.prepare(SEED + 1)
    assert [op.name for op in wl.round(a)] == [op.name for op in wl.round(b)]
    assert wl.warmup(a).name == wl.warmup(b).name
    assert same(a, b)
    assert not same(a, c)


def traced_run(name):
    wl = workloads.WORKLOADS[name]
    tr = tracing.Tracer()
    inputs = wl.prepare(SEED)
    ops = wl.round(inputs)
    with tr.installed():
        outcomes = [run.run_op(ops[i], 60.0, tr) for i in TRACED_SLOTS[name]]
    assert all(o.status == "ok" for o in outcomes), outcomes
    return tr


@pytest.fixture(scope="module")
def traced_pairs():
    return {name: (traced_run(name), traced_run(name)) for name in TRACED_SLOTS}


@pytest.mark.parametrize("name", sorted(TRACED_SLOTS))
def test_traced_counts_repeat_exactly(traced_pairs, name):
    first, second = traced_pairs[name]
    calls = {n: c for n, (c, _) in first.per_name().items()}
    assert calls == {n: c for n, (c, _) in second.per_name().items()}
    assert calls.get("solver.solve_linearized", 0) > 0
    for key in ("solver.newton_iters", "fields.eval_matrix.bytes", "fields.product_cosine.flops"):
        assert first.counters[key] == second.counters[key]
    assert first.child_count("solver._newton", "solver.homotopy_solve") == (
        second.child_count("solver._newton", "solver.homotopy_solve")
    )


@pytest.mark.parametrize("name", sorted(TRACED_SLOTS))
def test_child_self_time_within_parent(traced_pairs, name):
    tr = traced_pairs[name][0]
    rows, dur, self_t, prow = tr.table()
    assert len(rows) > 0
    has = prow >= 0
    assert np.all(self_t >= -1e-9)
    assert np.all(self_t[has] <= dur[prow[has]] + 1e-9)
    assert np.all(dur[has] <= dur[prow[has]] + 1e-9)


def test_layer_names_cover_reimports(traced_pairs):
    names = set(traced_pairs["solve-large"][0].names)
    assert {"fields.product_cosine", "solver.gmres", "operators.apply_T"} <= names
    # the wrapper on a re-imported name reports the defining module
    assert not any(n.startswith("solver.product_cosine") for n in names)


def test_deadline_abandons_op_and_drops_its_spans():
    tr = tracing.Tracer()

    def spin():
        while True:
            fields.zeros(2, 2)

    def cheap():
        return fields.zeros(2, 2)

    with tr.installed():
        t0 = time.perf_counter()
        hung = run.run_op(workloads.Op("spin", spin, lambda r: None), 0.3, tr)
        assert time.perf_counter() - t0 < 5
        after = run.run_op(workloads.Op("cheap", cheap, lambda r: None), 5.0, tr)
    assert hung.status == "deadline"
    assert after.status == "ok"
    rows = tr.table()[0]
    # only the cheap op's spans remain, under one top-level span
    assert set(rows[:, 5].astype(int)) == {tr.op}
    assert (rows[:, 4] == -1).sum() == 1


def test_checks_reject_wrong_answers():
    f = workloads.unit_forcing(3, 8)
    cfg = solver.SolverConfig(mu=0.5)
    rep = solver.newton_solve(f, None, cfg)
    workloads.check_solution(rep, f, cfg)
    rep.u = rep.u + 1e-6 * fields.random_field(4, 8, 8, 2.0)
    with pytest.raises(workloads.WrongResult):
        workloads.check_solution(rep, f, cfg)
    rep.success = False
    with pytest.raises(workloads.Unsuccessful):
        workloads.check_solution(rep, f, cfg)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-suite", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
