"""Named invariant suite tying the operator calculus, the energy
estimates and the uniqueness machinery to concrete numbers.

Each check measures one identity or bound on seeded random data and
reports the measured value against its tolerance.  The suite is the
backend of the `verify` CLI command and of the acceptance tests."""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

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
    n_t: int = 32
    n_x: int = 32
    mu: float = 0.5
    solve_n_t: int = 8
    solve_n_x: int = 8
    monodromy_steps: int = 512
    positivity_cases: int = 20
    tolerances: dict = dc_field(default_factory=dict)


DEFAULT_TOLERANCES = {
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
    "uniqueness_distance": 1e-6,
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
        yield fd.random_field(seed, cfg.n_t, cfg.n_x, 1.5)


def _tol(cfg: VerifyConfig, name: str) -> float:
    return float(cfg.tolerances.get(name, DEFAULT_TOLERANCES[name]))


def _result(cfg, name, value, detail="") -> InvariantResult:
    tol = _tol(cfg, name)
    return InvariantResult(name, float(value), tol, bool(value <= tol), detail)


def check_operator_identities(cfg: VerifyConfig) -> list[InvariantResult]:
    worst = dict.fromkeys(
        [
            "half_derivative_composition",
            "adjoint_factorization",
            "rotated_pairing",
            "hilbert_skew_pairing",
            "half_pairing_orthogonality",
            "adjoint_pairing",
        ],
        0.0,
    )
    for u in _samples(cfg):
        scale = max(1.0, u.l2())
        d = op.half_derivative(u)
        worst["half_derivative_composition"] = max(
            worst["half_derivative_composition"],
            (op.half_derivative(d) - op.d_t(u)).l2() / max(1.0, op.d_t(u).l2()),
        )
        worst["adjoint_factorization"] = max(
            worst["adjoint_factorization"],
            (op.half_derivative_adjoint(u) - op.hilbert(d)).l2() / scale,
        )
        h = op.hilbert(u)
        lhs = op.inner(d, op.half_derivative_adjoint(h))
        ref = d.l2() ** 2
        worst["rotated_pairing"] = max(
            worst["rotated_pairing"], abs(lhs + ref) / max(1.0, ref)
        )
        worst["hilbert_skew_pairing"] = max(
            worst["hilbert_skew_pairing"], abs(op.inner(u, h)) / scale**2
        )
        worst["half_pairing_orthogonality"] = max(
            worst["half_pairing_orthogonality"],
            abs(op.inner(d, op.half_derivative_adjoint(u))) / max(1.0, ref),
        )
        v = op.hilbert(op.d_t(u)) + u  # second independent-ish field
        worst["adjoint_pairing"] = max(
            worst["adjoint_pairing"],
            abs(op.inner(d, v) - op.inner(u, op.half_derivative_adjoint(v)))
            / max(1.0, abs(op.inner(d, v))),
        )
    return [_result(cfg, k, w, f"{cfg.n_samples} samples") for k, w in worst.items()]


def check_linear_solver(cfg: VerifyConfig) -> list[InvariantResult]:
    worst_rt = 0.0
    worst_id = 0.0
    worst_margin = np.inf
    bound = min(1.0, cfg.mu) / (1.0 + 1.0 / np.pi**2)
    for u in _samples(cfg):
        back = sv.solve_linear(op.apply_L(u, cfg.mu), sv.SolverConfig(mu=cfg.mu))
        worst_rt = max(worst_rt, (back - u).l2() / max(1.0, u.l2()))
        lhs = np.sqrt(2.0) * op.inner(op.apply_L(u, cfg.mu), op.p_transform(u))
        d2 = op.half_derivative(u).l2() ** 2
        x2 = op.d_x(u).l2() ** 2
        rhs = d2 + cfg.mu * x2
        worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, rhs))
        nrm2 = nm.aniso_norm(u) ** 2
        worst_margin = min(worst_margin, lhs - bound * nrm2)
    out = [
        _result(cfg, "linear_roundtrip", worst_rt),
        _result(cfg, "coercivity_identity", worst_id),
        # margin must stay nonnegative: report the violation, zero if none
        _result(
            cfg,
            "coercivity_lower_bound",
            max(0.0, -worst_margin),
            f"smallest margin {worst_margin:.3e}",
        ),
    ]
    return out


def check_nonlinear_structure(cfg: VerifyConfig) -> list[InvariantResult]:
    worst = 0.0
    for u in _samples(cfg):
        s = op.apply_S(u)
        worst = max(worst, abs(op.inner(s, u)) / max(1.0, u.l2() ** 3))
    return [_result(cfg, "nonlinear_energy_orthogonality", worst)]


def check_interpolation(cfg: VerifyConfig) -> list[InvariantResult]:
    triples = [(0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)]
    worst = 0.0
    for u in _samples(cfg):
        for alpha, beta, theta in triples:
            worst = max(worst, nm.interpolation_slack(u, alpha, beta, theta))
    return [_result(cfg, "interpolation_inequality", worst, "3 exponent triples")]


def _failed(cfg, names, stage: str, error: Exception) -> list[InvariantResult]:
    """A stage that raised fails the invariants it was to measure, and
    only those: value inf, the error as detail."""
    return [_result(cfg, name, np.inf, f"{stage}: {error}") for name in names]


def check_solve_invariants(cfg: VerifyConfig) -> list[InvariantResult]:
    f = 0.8 * fd.random_field(cfg.seed + 1, cfg.solve_n_t, cfg.solve_n_x, 2.0)
    scfg = sv.SolverConfig(mu=cfg.mu)
    c_gn = nm.gn_probe([cfg.seed + 3], 25, n_t=16, n_x=16)
    try:
        report = sv.homotopy_solve(f, scfg, c_gn=c_gn)
    except SolverError as e:
        report, failure = None, e
    if report is None:
        results = _failed(cfg, ("energy_identity", "apriori_bound"), "homotopy_solve", failure)
    else:
        gap = nm.energy_gap(f, report.u, cfg.mu)
        margin = report.apriori_margin
        results = [
            _result(cfg, "energy_identity", gap, f"residual {report.residual_dual:.3e}"),
            _result(
                cfg,
                "apriori_bound",
                max(0.0, -margin),
                f"smallest margin {margin:.3e} along the homotopy path",
            ),
        ]
    try:
        uniq = ch.verify_uniqueness(f, scfg, n_starts=3, seed=cfg.seed)
    except SolverError as e:
        results += _failed(cfg, ("uniqueness_distance",), "verify_uniqueness", e)
    else:
        results.append(
            _result(
                cfg,
                "uniqueness_distance",
                uniq.max_pairwise_l2,
                f"S1 residual {uniq.max_s1_residual:.3e}",
            )
        )
    if report is None:
        results += _failed(
            cfg, ("monodromy_eigenvalue", "monodromy_flatness"), "homotopy_solve", failure
        )
        return results
    # monodromy around the solved field
    rho, eig = ch.monodromy_leading_pair(report.u, cfg.mu, steps=cfg.monodromy_steps)
    flat = float(np.abs(ch.profile_values(eig) - 1.0).max())
    results.append(_result(cfg, "monodromy_eigenvalue", abs(rho - 1.0)))
    results.append(_result(cfg, "monodromy_flatness", flat))
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
        W = ch.antiderivative_x(w)
        c = W.coeffs.copy()
        c[W.n_t, 0] -= c[W.n_t, 0].real
        W = W.with_coeffs(c)
        v = 0.5 * fd.random_field(s + 1, n_t, n_x, 2.5)
        k = float(rng.normal())
        worst_chain = max(worst_chain, ch.chain_rule_defect(W, v, k, cfg.mu))
        if rt_detail:
            continue
        e2 = ch.ColeHopfElement(kind=ch.Kind.S2, v=v, W=W, K=k)
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
        _result(cfg, "colehopf_roundtrip", worst_rt, rt_detail),
        _result(cfg, "chain_rule_identity", worst_chain),
    ]


def check_positivity(cfg: VerifyConfig) -> list[InvariantResult]:
    worst = 0.0
    psi0 = np.zeros(10)
    psi0[0] = 0.5
    psi0[1] = 0.5 / np.sqrt(2.0)  # (1 + cos(pi x))/2, nonnegative
    for i in range(cfg.positivity_cases):
        seq = np.random.SeedSequence([cfg.seed, 2000 + i])
        s = int(seq.generate_state(1)[0])
        mu = (1.0, 0.1)[i % 2]
        v = 2.0 * fd.random_field(s, 4, 6, 2.0)
        out = ch.PeriodMap(v, mu, 512, n_x=len(psi0) - 1).apply(psi0)
        worst = max(worst, -float(ch.profile_values(out).min()))
    return [
        _result(
            cfg,
            "positivity_floor",
            max(0.0, worst),
            f"{cfg.positivity_cases} random advections",
        )
    ]


def run_suite(cfg: VerifyConfig | None = None) -> list[InvariantResult]:
    cfg = cfg or VerifyConfig()
    out: list[InvariantResult] = []
    out += check_operator_identities(cfg)
    out += check_linear_solver(cfg)
    out += check_nonlinear_structure(cfg)
    out += check_interpolation(cfg)
    out += check_colehopf(cfg)
    out += check_positivity(cfg)
    out += check_solve_invariants(cfg)
    return out
