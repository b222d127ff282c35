"""Named invariant suite tying the operator calculus, the energy
estimates and the uniqueness machinery to concrete numbers.

Each check measures one identity or bound on seeded random data and
reports the measured value against its tolerance.  The suite is the
backend of the `verify` CLI command and of the acceptance tests."""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from . import colehopf as ch
from . import fields as fd
from . import norms as nm
from . import operators as op
from . import solver as sv
from .errors import SolverError, StburgersError


@dataclass(frozen=True)
class InvariantResult:
    name: str
    value: float
    tolerance: float
    passed: bool
    detail: str = ""


@dataclass(frozen=True)
class VerifyConfig:
    seed: int = 0
    n_samples: int = 100
    mu: float = 0.5


# the truncation (n_t, n_x) of the random samples, that of the solve
# whose solution the solve invariants measure, and the number of random
# advections of the positivity check; fixed, like the tolerances, so that
# every run measures the gate at the same sizes
SAMPLE_TRUNCATION = (32, 32)
SOLVE_TRUNCATION = (8, 8)
POSITIVITY_CASES = 20
# the random samples and the Cole-Hopf cases measured at once, as one
# stack of fields (see `fields`), so that one call covers a block; chosen
# by measurement at one BLAS thread: one at a time is 1.7x (samples) and
# 1.9x (Cole-Hopf) slower than blocks of 6, and blocks of 10 are 5% and
# 10% faster, but every block field costs peak memory: the benchmark's
# peak RSS rises 1.6 MB at 6, 2.2 MB at 8 and 2.9 MB at 10
BLOCK = 6
# the keys of the families of random draws: draw i of family F has the seed
# fd.sub_seed(cfg.seed, F, i), and a family of one draw fd.sub_seed(cfg.seed, F)
SAMPLES, COLEHOPF_W, COLEHOPF_V, COLEHOPF_K, ADVECTIONS, FORCING, GN_PROBE, UNIQUENESS = range(8)

# the invariants measured on each random sample, in report order
OPERATOR_IDENTITIES = (
    "half_derivative_composition",
    "adjoint_factorization",
    "rotated_pairing",
    "hilbert_skew_pairing",
    "half_pairing_orthogonality",
    "adjoint_pairing",
)
SAMPLE_INVARIANTS = OPERATOR_IDENTITIES + (
    "linear_roundtrip",
    "coercivity_identity",
    "coercivity_lower_bound",
    "nonlinear_energy_orthogonality",
    "interpolation_inequality",
)


# each invariant's tolerance; fixed, so that no config can loosen the gate
TOLERANCES = {
    "half_derivative_composition": 1e-11,
    "adjoint_factorization": 1e-11,
    "rotated_pairing": 1e-11,
    "hilbert_skew_pairing": 1e-11,
    "half_pairing_orthogonality": 1e-11,
    "adjoint_pairing": 1e-11,
    "linear_roundtrip": 1e-13,
    "coercivity_identity": 1e-12,
    "coercivity_lower_bound": 0.0,
    "nonlinear_energy_orthogonality": 1e-11,
    "interpolation_inequality": 1e-12,
    "energy_identity": 1e-9,
    "apriori_bound": 0.0,
    "uniqueness_distance": ch.UNIQUENESS_TOL,
    "colehopf_roundtrip": 1e-9,
    "chain_rule_identity": 1e-8,
    "positivity_floor": 1e-8,
    "monodromy_eigenvalue": 1e-6,
    "monodromy_flatness": 1e-5,
}


def _samples(cfg: VerifyConfig):
    """The cfg.n_samples seeded random fields of decay 1.5."""
    for i in range(cfg.n_samples):
        yield fd.random_field(fd.sub_seed(cfg.seed, SAMPLES, i), *SAMPLE_TRUNCATION, 1.5)


def _blocks(items):
    """The items in lists of BLOCK, the last one shorter if need be."""
    items = iter(items)
    while block := list(itertools.islice(items, BLOCK)):
        yield block


def _result(name, value, detail="") -> InvariantResult:
    tol = TOLERANCES[name]
    return InvariantResult(name, float(value), tol, bool(value <= tol), detail)


# The four sample checks take a sample u, or a stack of samples, with
# d = D^{1/2} u, and return each invariant's value per sample.  A value
# is the same float that a lone sample gives: np.maximum(1.0, x) is
# max(1.0, x) on floats, and _float_power is Python's float power.


def check_operator_identities(u: fd.SpectralField, d: fd.SpectralField) -> dict:
    """The operator identities on the sample u, given d = D^{1/2} u.  Each
    field is let go once the identities that read it are measured, so
    that few fields of a block are live at once."""
    scale = np.maximum(1.0, u.l2())
    ref = fd._float_power(d.l2(), 2)
    dt = op.d_t(u)
    composition = (op.half_derivative(d) - dt).l2() / np.maximum(1.0, dt.l2())
    v = op.hilbert(dt) + u  # second independent-ish field
    del dt
    dv = op.inner(d, v)
    pairing = abs(dv - op.inner(u, op.half_derivative_adjoint(v))) / np.maximum(1.0, abs(dv))
    del v
    da = op.half_derivative_adjoint(u)
    factorization = (da - op.hilbert(d)).l2() / scale
    orthogonality = abs(op.inner(d, da)) / np.maximum(1.0, ref)
    del da
    h = op.hilbert(u)
    return {
        "half_derivative_composition": composition,
        "adjoint_factorization": factorization,
        "rotated_pairing": abs(op.inner(d, op.half_derivative_adjoint(h)) + ref) / np.maximum(1.0, ref),
        "hilbert_skew_pairing": abs(op.inner(u, h)) / fd._float_power(scale, 2),
        "half_pairing_orthogonality": orthogonality,
        "adjoint_pairing": pairing,
    }


def check_linear_solver(u: fd.SpectralField, d: fd.SpectralField, mu: float) -> dict:
    """The linear-solver invariants on the sample u, given d = D^{1/2} u;
    for the coercivity lower bound, the margin of the sample."""
    lu = op.apply_L(u, mu)
    lhs = np.sqrt(2.0) * op.inner(lu, op.p_transform(u))
    rhs = fd._float_power(d.l2(), 2) + mu * fd._float_power(op.d_x(u).l2(), 2)
    bound = min(1.0, mu) / (1.0 + 1.0 / np.pi**2)
    return {
        "linear_roundtrip": (op.invert_L(lu, mu) - u).l2() / np.maximum(1.0, u.l2()),
        "coercivity_identity": abs(lhs - rhs) / np.maximum(1.0, rhs),
        "coercivity_lower_bound": lhs - bound * fd._float_power(nm.aniso_norm(u), 2),
    }


def check_nonlinear_structure(u: fd.SpectralField) -> dict:
    s = op.apply_S(u)
    return {
        "nonlinear_energy_orthogonality": abs(op.inner(s, u))
        / np.maximum(1.0, fd._float_power(u.l2(), 3))
    }


def check_interpolation(u: fd.SpectralField) -> dict:
    triples = [(0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)]
    return {"interpolation_inequality": np.max([nm.interpolation_slack(u, *t) for t in triples], axis=0)}


def _sample_results(cfg: VerifyConfig) -> list[InvariantResult]:
    """The invariants of the four checks above, in report order.  The
    samples are drawn once and measured by all four a block at a time;
    each invariant keeps its largest value over the samples, the
    coercivity lower bound its smallest margin."""
    worst = dict.fromkeys(SAMPLE_INVARIANTS, 0.0)
    worst["coercivity_lower_bound"] = np.inf
    for u in map(fd.stack, _blocks(_samples(cfg))):
        d = op.half_derivative(u)
        values = {
            **check_operator_identities(u, d),
            **check_linear_solver(u, d, cfg.mu),
            **check_nonlinear_structure(u),
            **check_interpolation(u),
        }
        for name, value in values.items():
            worst[name] = fd._fold(worst[name], value, min if name == "coercivity_lower_bound" else max)
    margin = worst["coercivity_lower_bound"]
    # margin must stay nonnegative: report the violation, zero if none
    worst["coercivity_lower_bound"] = fd._fold(0.0, -margin, max)
    details = dict.fromkeys(OPERATOR_IDENTITIES, f"{cfg.n_samples} samples")
    details["coercivity_lower_bound"] = f"smallest margin {margin:.3e}"
    details["interpolation_inequality"] = "3 exponent triples"
    return [_result(name, value, details.get(name, "")) for name, value in worst.items()]


def _failed(names, stage: str, error: Exception) -> list[InvariantResult]:
    """A stage that raised fails the invariants it was to measure, and
    only those: value inf, the error as detail."""
    return [_result(name, np.inf, f"{stage}: {error}") for name in names]


def check_solve_invariants(cfg: VerifyConfig) -> list[InvariantResult]:
    f = 0.8 * fd.random_field(fd.sub_seed(cfg.seed, FORCING), *SOLVE_TRUNCATION, 2.0)
    scfg = sv.SolverConfig(mu=cfg.mu)
    c_gn = nm.gn_probe([fd.sub_seed(cfg.seed, GN_PROBE)], 25, n_t=16, n_x=16)
    try:
        report = sv.homotopy_solve(f, scfg, c_gn=c_gn)
    except SolverError as e:
        names = ("energy_identity", "apriori_bound", "monodromy_eigenvalue", "monodromy_flatness")
        solved = _failed(names, "homotopy_solve", e)
    else:
        gap = nm.energy_gap(f, report.u, cfg.mu)
        margin = report.apriori_margin
        # monodromy around the solved field
        rho, eig = ch.monodromy_leading_pair(report.u, cfg.mu, ch.MONODROMY_STEPS)
        flat = float(np.abs(ch.profile_values(eig) - 1.0).max())
        solved = [
            _result("energy_identity", gap, f"residual {report.residual_dual:.3e}"),
            _result(
                "apriori_bound",
                fd._fold(0.0, -margin, max),
                f"smallest margin {margin:.3e} along the homotopy path",
            ),
            _result("monodromy_eigenvalue", abs(rho - 1.0)),
            _result("monodromy_flatness", flat),
        ]
    try:
        uniq = ch.verify_uniqueness(f, scfg, n_starts=ch.N_STARTS, seed=fd.sub_seed(cfg.seed, UNIQUENESS))
    except SolverError as e:
        unique = _failed(("uniqueness_distance",), "verify_uniqueness", e)
    else:
        residual = f"S1 residual {uniq.max_s1_residual:.3e}"
        unique = [_result("uniqueness_distance", uniq.max_pairwise_l2, residual)]
    # in report order: the solve's two, uniqueness, the monodromy's two
    return solved[:2] + unique + solved[2:]


def _colehopf_cases(cfg: VerifyConfig):
    """The seeded (w, v, K) of the Cole-Hopf check's cases."""
    rng = np.random.default_rng(fd.sub_seed(cfg.seed, COLEHOPF_K))
    n_t, n_x = 4, 5
    for i in range(min(cfg.n_samples, 100)):
        w = 0.4 * fd.random_field(fd.sub_seed(cfg.seed, COLEHOPF_W, i), n_t, n_x, 2.5)
        v = 0.5 * fd.random_field(fd.sub_seed(cfg.seed, COLEHOPF_V, i), n_t, n_x, 2.5)
        yield w, v, float(rng.normal())


def check_colehopf(cfg: VerifyConfig) -> list[InvariantResult]:
    """The S2 -> S3 -> S2 round trip and the chain rule, a block of cases
    at a time.  A block whose round trip raises fails the round trip, with
    the map that raised and its error as detail, and no later block goes
    round; the chain rule goes on.  The map named is the block's: when a
    case fails `s3_to_s2` and a later case of its block misses the
    projection, the detail names `s2_to_s3`, which runs first on the
    whole block."""
    worst_rt = 0.0
    worst_chain = 0.0
    rt_detail = ""
    for block in _blocks(_colehopf_cases(cfg)):
        w, v, k = zip(*block)
        e2 = ch.S2Element(ch.antiderivative_x(fd.stack(w)), np.array(k))
        worst_chain = fd._fold(worst_chain, ch.chain_rule_defect(e2.W, fd.stack(v), e2.K, cfg.mu), max)
        if rt_detail:
            continue
        stage = "s2_to_s3"
        try:
            e3 = ch.s2_to_s3(e2, cfg.mu)
            stage = "s3_to_s2"
            back = ch.s3_to_s2(e3, cfg.mu)
        except StburgersError as e:
            worst_rt, rt_detail = np.inf, f"{stage}: {e}"
            continue
        W = e2.W
        distance = (fd.truncate(back.W, W.n_t, W.n_x) - W).l2() + abs(back.K - e2.K)
        worst_rt = fd._fold(worst_rt, distance, max)
    return [
        _result("colehopf_roundtrip", worst_rt, rt_detail),
        _result("chain_rule_identity", worst_chain),
    ]


def check_positivity(cfg: VerifyConfig) -> list[InvariantResult]:
    """The largest negative part of a nonnegative profile after one
    period, over the random advections, zero if none goes negative."""
    worst = 0.0
    psi0 = np.zeros(10)
    psi0[0] = 0.5
    psi0[1] = 0.5 / np.sqrt(2.0)  # (1 + cos(pi x))/2, nonnegative
    for i in range(POSITIVITY_CASES):
        mu = (1.0, 0.1)[i % 2]
        v = 2.0 * fd.random_field(fd.sub_seed(cfg.seed, ADVECTIONS, i), 4, 6, 2.0)
        out = ch.PeriodMap(v, mu, ch.MONODROMY_STEPS, n_x=len(psi0) - 1).apply(psi0)
        worst = fd._fold(worst, -ch.profile_values(out).min(), max)
    return [_result("positivity_floor", worst, f"{POSITIVITY_CASES} random advections")]


def run_suite(cfg: VerifyConfig) -> list[InvariantResult]:
    out = _sample_results(cfg)
    out += check_colehopf(cfg)
    out += check_positivity(cfg)
    out += check_solve_invariants(cfg)
    return out
