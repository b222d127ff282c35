"""Named invariant suite tying the operator calculus, the energy
estimates and the uniqueness machinery to concrete numbers.

Each check measures one identity or bound on seeded random data and
reports the measured value against its tolerance.  The suite is the
backend of the `verify` CLI command and of the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import colehopf as ch
from . import fields as fd
from . import norms as nm
from . import operators as op
from . import solver as sv
from .errors import SolverError


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
        seq = np.random.SeedSequence([cfg.seed, i])
        seed = int(seq.generate_state(1)[0])
        yield fd.random_field(seed, *SAMPLE_TRUNCATION, 1.5)


def _result(name, value, detail="") -> InvariantResult:
    tol = TOLERANCES[name]
    return InvariantResult(name, float(value), tol, bool(value <= tol), detail)


def check_operator_identities(u: fd.SpectralField, d: fd.SpectralField) -> dict[str, float]:
    """The operator identities on the sample u, given d = D^{1/2} u."""
    scale = max(1.0, u.l2())
    ref = d.l2() ** 2
    dt = op.d_t(u)
    da = op.half_derivative_adjoint(u)
    h = op.hilbert(u)
    v = op.hilbert(dt) + u  # second independent-ish field
    dv = op.inner(d, v)
    return {
        "half_derivative_composition": (op.half_derivative(d) - dt).l2() / max(1.0, dt.l2()),
        "adjoint_factorization": (da - op.hilbert(d)).l2() / scale,
        "rotated_pairing": abs(op.inner(d, op.half_derivative_adjoint(h)) + ref) / max(1.0, ref),
        "hilbert_skew_pairing": abs(op.inner(u, h)) / scale**2,
        "half_pairing_orthogonality": abs(op.inner(d, da)) / max(1.0, ref),
        "adjoint_pairing": abs(dv - op.inner(u, op.half_derivative_adjoint(v)))
        / max(1.0, abs(dv)),
    }


def check_linear_solver(u: fd.SpectralField, d: fd.SpectralField, mu: float) -> dict[str, float]:
    """The linear-solver invariants on the sample u, given d = D^{1/2} u;
    for the coercivity lower bound, the margin of the sample."""
    lu = op.apply_L(u, mu)
    lhs = np.sqrt(2.0) * op.inner(lu, op.p_transform(u))
    rhs = d.l2() ** 2 + mu * op.d_x(u).l2() ** 2
    bound = min(1.0, mu) / (1.0 + 1.0 / np.pi**2)
    return {
        "linear_roundtrip": (op.invert_L(lu, mu) - u).l2() / max(1.0, u.l2()),
        "coercivity_identity": abs(lhs - rhs) / max(1.0, rhs),
        "coercivity_lower_bound": lhs - bound * nm.aniso_norm(u) ** 2,
    }


def check_nonlinear_structure(u: fd.SpectralField) -> dict[str, float]:
    s = op.apply_S(u)
    return {"nonlinear_energy_orthogonality": abs(op.inner(s, u)) / max(1.0, u.l2() ** 3)}


def check_interpolation(u: fd.SpectralField) -> dict[str, float]:
    triples = [(0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)]
    return {"interpolation_inequality": max(nm.interpolation_slack(u, *t) for t in triples)}


def _sample_results(cfg: VerifyConfig) -> list[InvariantResult]:
    """The invariants of the four checks above, in report order.  Each
    sample is drawn once and measured by all four before the next is
    drawn; each invariant keeps its largest value over the samples, the
    coercivity lower bound its smallest margin."""
    worst = dict.fromkeys(SAMPLE_INVARIANTS, 0.0)
    worst["coercivity_lower_bound"] = np.inf
    for u in _samples(cfg):
        d = op.half_derivative(u)
        values = {
            **check_operator_identities(u, d),
            **check_linear_solver(u, d, cfg.mu),
            **check_nonlinear_structure(u),
            **check_interpolation(u),
        }
        for name, value in values.items():
            fold = min if name == "coercivity_lower_bound" else max
            worst[name] = fold(worst[name], value)
    margin = worst["coercivity_lower_bound"]
    # margin must stay nonnegative: report the violation, zero if none
    worst["coercivity_lower_bound"] = max(0.0, -margin)
    details = dict.fromkeys(OPERATOR_IDENTITIES, f"{cfg.n_samples} samples")
    details["coercivity_lower_bound"] = f"smallest margin {margin:.3e}"
    details["interpolation_inequality"] = "3 exponent triples"
    return [_result(name, value, details.get(name, "")) for name, value in worst.items()]


def _failed(names, stage: str, error: Exception) -> list[InvariantResult]:
    """A stage that raised fails the invariants it was to measure, and
    only those: value inf, the error as detail."""
    return [_result(name, np.inf, f"{stage}: {error}") for name in names]


def check_solve_invariants(cfg: VerifyConfig) -> list[InvariantResult]:
    f = 0.8 * fd.random_field(cfg.seed + 1, *SOLVE_TRUNCATION, 2.0)
    scfg = sv.SolverConfig(mu=cfg.mu)
    c_gn = nm.gn_probe([cfg.seed + 3], 25, n_t=16, n_x=16)
    try:
        report = sv.homotopy_solve(f, scfg, c_gn=c_gn)
    except SolverError as e:
        report, failure = None, e
    if report is None:
        results = _failed(("energy_identity", "apriori_bound"), "homotopy_solve", failure)
    else:
        gap = nm.energy_gap(f, report.u, cfg.mu)
        margin = report.apriori_margin
        results = [
            _result("energy_identity", gap, f"residual {report.residual_dual:.3e}"),
            _result(
                "apriori_bound",
                max(0.0, -margin),
                f"smallest margin {margin:.3e} along the homotopy path",
            ),
        ]
    try:
        uniq = ch.verify_uniqueness(f, scfg, n_starts=ch.N_STARTS, seed=cfg.seed)
    except SolverError as e:
        results += _failed(("uniqueness_distance",), "verify_uniqueness", e)
    else:
        results.append(
            _result(
                "uniqueness_distance",
                uniq.max_pairwise_l2,
                f"S1 residual {uniq.max_s1_residual:.3e}",
            )
        )
    if report is None:
        results += _failed(
            ("monodromy_eigenvalue", "monodromy_flatness"), "homotopy_solve", failure
        )
        return results
    # monodromy around the solved field
    rho, eig = ch.monodromy_leading_pair(report.u, cfg.mu, ch.MONODROMY_STEPS)
    flat = float(np.abs(ch.profile_values(eig) - 1.0).max())
    results.append(_result("monodromy_eigenvalue", abs(rho - 1.0)))
    results.append(_result("monodromy_flatness", flat))
    return results


def check_colehopf(cfg: VerifyConfig) -> list[InvariantResult]:
    worst_rt = 0.0
    worst_chain = 0.0
    rt_detail = ""
    rng = np.random.default_rng(cfg.seed + 2)
    n_t, n_x = 4, 5
    for i in range(min(cfg.n_samples, 100)):
        seq = np.random.SeedSequence([cfg.seed, 1000 + i])
        s = int(seq.generate_state(1)[0])
        w = 0.4 * fd.random_field(s, n_t, n_x, 2.5)
        v = 0.5 * fd.random_field(s + 1, n_t, n_x, 2.5)
        e2 = ch.S2Element(ch.antiderivative_x(w), float(rng.normal()))
        W, k = e2.W, e2.K
        worst_chain = max(worst_chain, ch.chain_rule_defect(W, v, k, cfg.mu))
        if rt_detail:
            continue
        try:
            e3 = ch.s2_to_s3(e2, cfg.mu)
        except ch.ProjectionAccuracyError as e:
            # the round trip cannot start: it fails, the chain rule goes on
            worst_rt, rt_detail = np.inf, f"s2_to_s3: {e}"
            continue
        back = ch.s3_to_s2(e3, cfg.mu)
        wb = fd.truncate(back.W, W.n_t, W.n_x)
        worst_rt = max(worst_rt, (wb - W).l2() + abs(back.K - k))
    return [
        _result("colehopf_roundtrip", worst_rt, rt_detail),
        _result("chain_rule_identity", worst_chain),
    ]


def check_positivity(cfg: VerifyConfig) -> list[InvariantResult]:
    worst = 0.0
    psi0 = np.zeros(10)
    psi0[0] = 0.5
    psi0[1] = 0.5 / np.sqrt(2.0)  # (1 + cos(pi x))/2, nonnegative
    for i in range(POSITIVITY_CASES):
        seq = np.random.SeedSequence([cfg.seed, 2000 + i])
        s = int(seq.generate_state(1)[0])
        mu = (1.0, 0.1)[i % 2]
        v = 2.0 * fd.random_field(s, 4, 6, 2.0)
        out = ch.PeriodMap(v, mu, ch.MONODROMY_STEPS, n_x=len(psi0) - 1).apply(psi0)
        worst = max(worst, -float(ch.profile_values(out).min()))
    return [
        _result(
            "positivity_floor",
            max(0.0, worst),
            f"{POSITIVITY_CASES} random advections",
        )
    ]


def run_suite(cfg: VerifyConfig) -> list[InvariantResult]:
    out = _sample_results(cfg)
    out += check_colehopf(cfg)
    out += check_positivity(cfg)
    out += check_solve_invariants(cfg)
    return out
