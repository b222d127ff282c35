"""The benchmark's workloads: inputs made from a seed, the ops of one
round, and the check every op's result must pass.

An op is one request to the library.  Each workload is a fixed list of
ops (a round) whose inputs come from the workload seed; the runner
repeats the round, closed loop with one client.  Ops call the library
through its module attributes at call time, so the tracer's wrappers are
seen when they are installed.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from stburgers import cli, colehopf, fields, norms, operators, scaling, solver, verify

ROOT = Path(__file__).resolve().parent.parent
KINDS = ("homotopy", "newton-zero", "newton-linear", "newton-random")
ENERGY_TOL = 1e-9  # acceptance criterion 4
RHO_TOL = 1e-6
FLATNESS_TOL = 1e-5


class Unsuccessful(Exception):
    """The library reported that it did not reach a result."""


class WrongResult(Exception):
    """The library returned a result that fails a check."""


@dataclass(frozen=True)
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], None]  # raises Unsuccessful or WrongResult


def subseed(seed: int, *keys: int) -> int:
    return int(np.random.SeedSequence([seed, *keys]).generate_state(1)[0])


def load_config(name: str) -> dict:
    with open(ROOT / "configs" / name) as fh:
        return json.load(fh)


def unit_forcing(seed: int, n: int) -> fields.SpectralField:
    """Seeded random forcing with decay 2.5 and unit dual norm."""
    f = fields.random_field(seed, n, n, 2.5)
    return (1.0 / norms.dual_norm(f)) * f


def phase_forcing(seed: int, n: int, decay: float = 2.5) -> fields.SpectralField:
    """Forcing with the fixed envelope (1+|k|)^-decay (1+m)^-decay of
    `random_field`, seeded random phases and unit dual norm.  Fixing the
    magnitudes keeps the GMRES work of one solve nearly the same from
    seed to seed (at n = 64, mu = 0.1 the product count had a standard
    deviation of 1% over six seeds, against 19% with `random_field`)."""
    rng = np.random.default_rng(seed)
    m = np.arange(1, n + 1)
    upper = np.exp(2j * np.pi * rng.random((n + 1, n)))
    upper[0] = np.sign(rng.standard_normal(n))  # the k = 0 row is real
    upper *= (1.0 + np.arange(n + 1))[:, None] ** -decay * (1.0 + m)[None, :] ** -decay
    coeffs = np.concatenate([upper[1:][::-1].conj(), upper])
    f = fields.SpectralField(coeffs, n, n)
    return (1.0 / norms.dual_norm(f)) * f


def probe_constant(seed: int) -> float:
    """The Gagliardo-Nirenberg constant at the acceptance-test size."""
    return norms.gn_probe([subseed(seed, 99, i) for i in range(8)], 25, n_t=32, n_x=32)


# -- checks, computed from coefficients where the formula is short ----------


def _weights(u: fields.SpectralField):
    n = np.abs(np.arange(-u.n_t, u.n_t + 1))[:, None]
    m = np.arange(1, u.n_x + 1)[None, :]
    return 2 * np.pi * n, (m * np.pi) ** 2


def _dual_norm(f: fields.SpectralField) -> float:
    wt, wx = _weights(f)
    return float(np.sqrt((np.abs(f.coeffs) ** 2 / (1 + wt + wx)).sum()))


def _aniso_norm(u: fields.SpectralField) -> float:
    wt, wx = _weights(u)
    return float(np.sqrt(((1 + wt + wx) * np.abs(u.coeffs) ** 2).sum()))


def check_solution(rep, f, cfg, need_margin: bool = False) -> None:
    """A solve report must claim success, meet newton_tol on a recomputed
    dual residual, and satisfy the energy identity mu |u_x|^2 = <f, u> to
    within what that residual allows."""
    if not rep.success:
        raise Unsuccessful(rep.message)
    if not rep.residual_dual <= cfg.newton_tol:
        raise WrongResult(f"reported residual {rep.residual_dual:.3e} > {cfg.newton_tol:g}")
    res = _dual_norm(operators.apply_T(rep.u, cfg.mu) - f)
    if not res <= cfg.newton_tol:
        raise WrongResult(f"recomputed residual {res:.3e} > {cfg.newton_tol:g}")
    _, wx = _weights(rep.u)
    fu = float(np.vdot(rep.u.coeffs, f.coeffs).real)
    gap = abs(cfg.mu * float((wx * np.abs(rep.u.coeffs) ** 2).sum()) - fu)
    allowed = res * _aniso_norm(rep.u) + ENERGY_TOL * max(1.0, abs(fu))
    if not gap <= allowed:
        raise WrongResult(f"energy identity off by {gap:.3e} (> {allowed:.3e})")
    if need_margin and not (rep.apriori_margin is not None and rep.apriori_margin > 0):
        raise WrongResult(f"a priori margin {rep.apriori_margin} is not positive")


def _solve_op(name, f, cfg, kind, start=None, c_gn=None) -> Op:
    if kind == "homotopy":
        def run():
            return solver.homotopy_solve(f, cfg, c_gn=c_gn)
    elif kind == "newton-zero":
        def run():
            return solver.newton_solve(f, None, cfg)
    elif kind == "newton-linear":
        def run():
            return solver.newton_solve(f, solver.solve_linear(f, cfg), cfg)
    else:
        def run():
            return solver.newton_solve(f, start, cfg)
    margin = kind == "homotopy" and c_gn is not None
    return Op(name, run, lambda rep: check_solution(rep, f, cfg, margin))


# -- workloads ---------------------------------------------------------------


class MatrixSmall:
    """Tier-1 test-matrix traffic on the dense linearized-solve path.  At
    n = 8 every cell of mu in {1, 0.1, 0.05} x amplitude in {0.25, 1,
    2.5}, the kind of solve rotating over the cells; at n = 16 two seeded
    cells and the Newton solve from zero at mu = 0.05, amplitude 1 on the
    Tier-1 fixture's own forcing, which the GMRES path does not finish."""

    name = "matrix-small"
    MUS = (1.0, 0.1, 0.05)
    AMPS = (0.25, 1.0, 2.5)
    LARGE = ((1.0, 2.5, "newton-linear"), (0.1, 1.0, "homotopy"))
    TIER1_SEED = 11  # random_field seed of the test_matrix forcing

    def prepare(self, seed: int) -> dict:
        return {
            "c_gn": probe_constant(seed),
            "forcing": {n: unit_forcing(subseed(seed, n, 0), n) for n in (8, 16)},
            "tier1": unit_forcing(self.TIER1_SEED, 16),
            "start": {
                n: 0.1 * fields.random_field(subseed(seed, n, 1), n, n, 2.0)
                for n in (8, 16)
            },
        }

    def _op(self, inputs, n, mu, amp, kind, forcing="forcing") -> Op:
        cfg = solver.SolverConfig(mu=mu, max_newton=60)
        f = amp * (inputs["tier1"] if forcing == "tier1" else inputs["forcing"][n])
        name = f"{kind} n={n} mu={mu:g} amp={amp:g}" + (" tier1" if forcing == "tier1" else "")
        return _solve_op(name, f, cfg, kind, inputs["start"][n], inputs["c_gn"])

    def warmup(self, inputs) -> Op:
        return self._op(inputs, 8, 0.1, 1.0, "homotopy")

    def round(self, inputs) -> list[Op]:
        ops = [
            self._op(inputs, 8, mu, amp, KINDS[(i_mu + i_amp) % len(KINDS)])
            for i_mu, mu in enumerate(self.MUS)
            for i_amp, amp in enumerate(self.AMPS)
        ]
        ops.extend(self._op(inputs, 16, mu, amp, kind) for mu, amp, kind in self.LARGE)
        ops.append(self._op(inputs, 16, 0.05, 1.0, "newton-zero", forcing="tier1"))
        return ops


def _scaled_solve(problem, m_t, m_x):
    mu, f, flip = scaling.normalize(problem)
    cfg = solver.SolverConfig(mu=mu)
    rep = solver.homotopy_solve(f, cfg)
    phys = scaling.denormalize(rep.u, problem, m_t=m_t, m_x=m_x)
    return cfg, f, flip, rep, phys


def _check_scaled(out, problem, m_t, m_x) -> None:
    """The normalized solve must pass `check_solution`, and the physical
    samples must equal (L/T) u evaluated on the grid, negated and time
    reversed when the viscosity is negative."""
    cfg, f, flip, rep, phys = out
    check_solution(rep, f, cfg)
    grid = fields.to_grid(rep.u, m_t, m_x).values
    if flip:
        grid = -grid[(-np.arange(m_t)) % m_t]
    want = (problem.length / problem.period) * grid
    err = float(np.abs(phys.values - want).max())
    if not err <= 1e-12 * max(1.0, float(np.abs(want).max())):
        raise WrongResult(f"denormalized samples off by {err:.3e}")
    times = problem.period * np.arange(m_t) / m_t
    if not np.allclose(phys.times, times, rtol=0, atol=1e-15 * problem.period):
        raise WrongResult("denormalized time nodes are wrong")


class SolveLarge:
    """GMRES-path solves: homotopy at n in {32, 64}, mu in {1, 0.1} on
    random-phase forcings; the
    manufactured Newton solve; and the scale config at n = 32 with its own
    and with a negated viscosity, through normalize -> solve ->
    denormalize."""

    name = "solve-large"
    SIZES = (32, 64)
    MUS = (1.0, 0.1)
    SCALE_N = 32

    def prepare(self, seed: int) -> dict:
        man = load_config("manufactured.json")
        n_man = man["n_t"]
        sc = load_config("scale.json")
        f_sc = cli.build_forcing(sc["forcing"], self.SCALE_N, self.SCALE_N)
        problems = [
            scaling.PhysicalProblem(sc["period"], sc["length"], v, f_sc)
            for v in (sc["viscosity"], -sc["viscosity"])
        ]
        return {
            "c_gn": probe_constant(seed),
            "forcing": {n: phase_forcing(subseed(seed, n, 2), n) for n in self.SIZES},
            "manufactured": (
                cli.build_forcing(man["forcing"], n_man, man["n_x"]),
                solver.SolverConfig(mu=man["mu"], newton_tol=man["solver"]["newton_tol"]),
            ),
            "scaled": problems,
        }

    def _homotopy(self, inputs, n, mu) -> Op:
        cfg = solver.SolverConfig(mu=mu)
        return _solve_op(
            f"homotopy n={n} mu={mu:g}", inputs["forcing"][n], cfg, "homotopy",
            c_gn=inputs["c_gn"],
        )

    def _scaled(self, problem) -> Op:
        m = 4 * (self.SCALE_N + 1)
        return Op(
            f"scaled viscosity={problem.viscosity:g} n={self.SCALE_N}",
            lambda: _scaled_solve(problem, m, m),
            lambda out: _check_scaled(out, problem, m, m),
        )

    def warmup(self, inputs) -> Op:
        return self._homotopy(inputs, 32, 1.0)

    def round(self, inputs) -> list[Op]:
        ops = [self._homotopy(inputs, n, mu) for n in self.SIZES for mu in self.MUS]
        f, cfg = inputs["manufactured"]
        ops.append(_solve_op(f"manufactured newton n={f.n_t}", f, cfg, "newton-zero"))
        ops.extend(self._scaled(p) for p in inputs["scaled"])
        return ops


def _check_suite(results) -> None:
    if not results:
        raise WrongResult("the suite returned no invariants")
    bad = [r.name for r in results if not r.passed]
    if bad:
        raise WrongResult(f"invariants failed: {', '.join(bad)}")


def _colehopf_chain(f, cfg, n_starts, seed, steps):
    uniq = colehopf.verify_uniqueness(f, cfg, n_starts=n_starts, seed=seed)
    v, other = uniq.solutions[0], uniq.solutions[1]
    e2 = colehopf.lift_s1_to_s2(v - other, other, cfg.mu)
    e3 = colehopf.s2_to_s3(e2, cfg.mu)
    rho, eig = colehopf.monodromy_leading_pair(v, cfg.mu, steps=steps)
    return uniq, e3, rho, eig


def _check_chain(out, f, cfg, c_gn) -> None:
    """Every start must converge to one solution inside the a priori
    bound, and the period map around it must have leading eigenvalue one
    with a flat eigenfunction."""
    uniq, e3, rho, eig = out
    for rep in uniq.reports:
        check_solution(rep, f, cfg)
    if not uniq.unique:
        raise WrongResult(f"starts disagree by {uniq.max_pairwise_l2:.3e}")
    bound = norms.apriori_bound(f, cfg.mu, c_gn)
    if not max(_aniso_norm(u) for u in uniq.solutions) <= bound:
        raise WrongResult("a solution exceeds the a priori bound")
    if not abs(rho - 1.0) <= RHO_TOL:
        raise WrongResult(f"rho off by {abs(rho - 1.0):.3e}")
    flat = float(np.abs(colehopf.profile_values(eig) - 1.0).max())
    if not flat <= FLATNESS_TOL:
        raise WrongResult(f"eigenfunction flatness {flat:.3e}")
    if not (e3.phi is not None and np.isfinite(e3.K)):
        raise WrongResult("s2_to_s3 returned no S3 representative")


class VerifySuite:
    """`verify.run_suite` at the configs/verify.json sizes, twice per
    round around one configs/colehopf.json chain: verify_uniqueness,
    lift_s1_to_s2, s2_to_s3, monodromy_leading_pair.  Both suites of a
    round are the same request, so the median latency falls inside one
    cluster of suite latencies rather than between two."""

    name = "verify-suite"

    def prepare(self, seed: int) -> dict:
        vc = load_config("verify.json")
        keys = [f.name for f in dataclasses.fields(verify.VerifyConfig) if f.name in vc]
        keys.remove("seed")
        suite = verify.VerifyConfig(seed=subseed(seed, 3) % 2**31, **{k: vc[k] for k in keys})
        cc = load_config("colehopf.json")
        f = cli.build_forcing(cc["forcing"], cc["n_t"], cc["n_x"])
        chain = (
            f,
            solver.SolverConfig(mu=cc["mu"]),
            cc["n_starts"],
            subseed(seed, 4) % 2**31,
            cc["monodromy_steps"],
        )
        return {"c_gn": probe_constant(seed), "suite": suite, "chain": chain}

    def _suite(self, vcfg) -> Op:
        return Op(f"run_suite seed={vcfg.seed}", lambda: verify.run_suite(vcfg), _check_suite)

    def _chain(self, inputs) -> Op:
        f, cfg, n_starts, seed, steps = inputs["chain"]
        return Op(
            f"colehopf chain seed={seed}",
            lambda: _colehopf_chain(f, cfg, n_starts, seed, steps),
            lambda out: _check_chain(out, f, cfg, inputs["c_gn"]),
        )

    def warmup(self, inputs) -> Op:
        return self._chain(inputs)

    def round(self, inputs) -> list[Op]:
        suite = self._suite(inputs["suite"])
        return [suite, self._chain(inputs), suite]


WORKLOADS = {w.name: w for w in (MatrixSmall(), SolveLarge(), VerifySuite())}
