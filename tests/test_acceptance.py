"""End-to-end acceptance gate.

One test per criterion, each printing a single pass/fail line; run with
`pytest tests/test_acceptance.py -s` to see the summary table.
"""

import json

import numpy as np

from stburgers import cli
from stburgers.colehopf import (
    ColeHopfElement,
    Kind,
    PeriodMap,
    antiderivative_x,
    chain_rule_defect,
    lift_s1_to_s2,
    monodromy_leading_pair,
    profile_values,
    s2_to_s3,
    s3_to_s2,
)
from stburgers.fields import random_field, set_mode, truncate, zeros
from stburgers.norms import gn_probe, interpolation_slack, norm_report
from stburgers.operators import (
    apply_L,
    apply_T,
    d_t,
    d_x,
    half_derivative,
    half_derivative_adjoint,
    hilbert,
    inner,
    invert_L,
    p_transform,
)
from stburgers.solver import SolverConfig, newton_solve

N_FIELDS = 100
N_T = N_X = 32


def _report(num, name, passed, detail):
    line = f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'}  [{detail}]"
    print(line)
    assert passed, line


def test_criterion_1_operator_identities():
    worst = 0.0
    for seed in range(N_FIELDS):
        u = random_field(seed, N_T, N_X, 2.0)
        v = random_field(seed + 10000, N_T, N_X, 2.0)
        du = half_derivative(u)
        du2 = du.l2() ** 2
        errs = [
            (half_derivative(du) - d_t(u)).l2() / d_t(u).l2(),
            (half_derivative_adjoint(u) - hilbert(half_derivative(u))).l2() / du.l2(),
            abs(inner(du, half_derivative_adjoint(hilbert(u))) + du2) / du2,
            abs(inner(u, hilbert(u))) / u.l2() ** 2,
            abs(inner(du, half_derivative_adjoint(u))) / du2,
            abs(inner(half_derivative(u), v) - inner(u, half_derivative_adjoint(v)))
            / (du.l2() * v.l2()),
        ]
        worst = max(worst, *errs)
    _report(1, "operator identities", worst <= 1e-11, f"worst {worst:.2e} <= 1e-11")


def test_criterion_2_linear_solver():
    worst_rt = 0.0
    worst_id = 0.0
    worst_lb = np.inf
    for seed in range(N_FIELDS):
        mu = (1.0, 0.1)[seed % 2]
        u = random_field(seed, N_T, N_X, 2.0)
        worst_rt = max(worst_rt, (invert_L(apply_L(u, mu), mu) - u).l2() / u.l2())
        lhs = np.sqrt(2.0) * inner(apply_L(u, mu), p_transform(u))
        rep = norm_report(u)
        rhs = rep.half_dt ** 2 + mu * rep.dx ** 2
        worst_id = max(worst_id, abs(lhs - rhs) / rhs)
        c = min(1.0, mu) / (1.0 + 1.0 / np.pi ** 2)
        worst_lb = min(worst_lb, lhs / (c * rep.aniso ** 2))
    ok = worst_rt <= 1e-13 and worst_id <= 1e-12 and worst_lb >= 1.0 - 1e-12
    _report(
        2,
        "linear solver",
        ok,
        f"roundtrip {worst_rt:.2e} <= 1e-13, identity {worst_id:.2e} <= 1e-12, "
        f"lower-bound margin {worst_lb:.3f} >= 1",
    )


def manufactured(n_t, n_x):
    # 0.3 sin(2 pi t) sqrt(2) sin(pi x) + 0.1 cos(4 pi t) sqrt(2) sin(2 pi x)
    u = zeros(n_t, n_x)
    u = set_mode(u, 1, 1, -0.15j)
    u = set_mode(u, 2, 2, 0.05)
    return u


def test_criterion_3_manufactured_convergence():
    mu = 1.0
    errs = {}
    iters = {}
    for n in (8, 16, 32):
        u_star = manufactured(n, n)
        f = apply_T(u_star, mu)
        rep = newton_solve(f, None, SolverConfig(mu=mu))
        errs[n] = (rep.u - u_star).l2()
        iters[n] = rep.newton_iters
    # the manufactured solution is band-limited, so all truncations hit
    # roundoff; the decay clause is satisfied either by a 100x drop per
    # doubling or by both errors sitting below the roundoff floor
    floor = 1e-11
    decay_ok = all(
        errs[a] >= 100.0 * errs[b] or (errs[a] <= floor and errs[b] <= floor)
        for a, b in ((8, 16), (16, 32))
    )
    ok = errs[32] <= 1e-10 and iters[32] <= 8 and decay_ok
    _report(
        3,
        "manufactured solution",
        ok,
        f"err(32) {errs[32]:.2e} <= 1e-10 in {iters[32]} iters, "
        f"errors {errs[8]:.1e}/{errs[16]:.1e}/{errs[32]:.1e}",
    )


def test_criterion_4_energy_identity(test_matrix):
    worst = 0.0
    for (mu, amp), cell in test_matrix.items():
        for rep in [cell["homotopy"]] + cell["starts"]:
            p = inner(cell["f"], rep.u)
            gap = abs(mu * norm_report(rep.u).dx ** 2 - p) / max(1.0, abs(p))
            worst = max(worst, gap)
    _report(4, "energy identity", worst <= 1e-9, f"worst {worst:.2e} <= 1e-9")


def test_criterion_5_apriori_bound(test_matrix, gn_constant):
    margins = [cell["homotopy"].apriori_margin for cell in test_matrix.values()]
    c64 = gn_probe(range(8), 25, n_t=64, n_x=64)
    drift = abs(c64 - gn_constant) / gn_constant
    ok = all(m is not None and m > 0 for m in margins) and drift < 0.1
    _report(
        5,
        "a priori bound",
        ok,
        f"min path margin {min(margins):.3f} > 0, probe drift {drift:.3f} < 0.1",
    )


def test_criterion_6_uniqueness(test_matrix):
    worst = 0.0
    for cell in test_matrix.values():
        sols = [r.u for r in cell["starts"]]
        for i in range(len(sols)):
            for j in range(i + 1, len(sols)):
                worst = max(worst, (sols[i] - sols[j]).l2())
    _report(6, "uniqueness", worst <= 1e-6, f"worst pairwise L2 {worst:.2e} <= 1e-6")


def test_criterion_7_colehopf_chain():
    mu = 0.5
    worst_rt = 0.0
    worst_chain = 0.0
    rng = np.random.default_rng(0)
    for i in range(N_FIELDS):
        w = 0.4 * random_field(i, 4, 5, 2.5)
        v = 0.5 * random_field(i + 5000, 4, 5, 2.5)
        # S1 <-> S2: the lift formulas are defined for any w (the residual
        # gate only certifies membership), and projecting back must return
        # w exactly
        e2 = lift_s1_to_s2(w, v, mu, tol=np.inf)
        worst_rt = max(
            worst_rt, float(np.abs(d_x(e2.W).coeffs - w.coeffs).max())
        )
        # S2 <-> S3 on a zero-mean potential with a random eigenvalue
        W = antiderivative_x(w)
        c = W.coeffs.copy()
        c[W.n_t, 0] -= c[W.n_t, 0].real
        W = W.with_coeffs(c)
        k = float(rng.normal())
        e3 = s2_to_s3(ColeHopfElement(kind=Kind.S2, v=v, W=W, K=k), mu)
        back = s3_to_s2(e3, mu)
        worst_rt = max(
            worst_rt,
            (truncate(back.W, W.n_t, W.n_x) - W).l2() + abs(back.K - k),
        )
        worst_chain = max(worst_chain, chain_rule_defect(W, v, k, mu))
    ok = worst_rt <= 1e-9 and worst_chain <= 1e-8
    _report(
        7,
        "cole-hopf chain",
        ok,
        f"roundtrips {worst_rt:.2e} <= 1e-9, chain rule {worst_chain:.2e} <= 1e-8",
    )


def test_criterion_8_positivity_and_monodromy(test_matrix):
    psi0 = np.zeros(17)
    psi0[0] = 0.5
    psi0[1] = 0.5 / np.sqrt(2.0)  # (1 + cos(pi x))/2 >= 0
    floor = 0.0
    for i in range(50):
        mu = (1.0, 0.1)[i % 2]
        v = 2.5 * random_field(i, 4, 8, 2.0)  # sup norm below 5
        out = PeriodMap(v, mu, 512, n_x=8).apply(psi0[:9])
        floor = min(floor, float(profile_values(out).min()))
    worst_rho = 0.0
    worst_flat = 0.0
    for (mu, amp), cell in test_matrix.items():
        rho, eig = monodromy_leading_pair(cell["homotopy"].u, mu, steps=512)
        worst_rho = max(worst_rho, abs(rho - 1.0))
        worst_flat = max(worst_flat, float(np.abs(profile_values(eig) - 1.0).max()))
    ok = floor >= -1e-8 and worst_rho <= 1e-6 and worst_flat <= 1e-5
    _report(
        8,
        "positivity and monodromy",
        ok,
        f"floor {floor:.2e} >= -1e-8, |rho-1| {worst_rho:.2e} <= 1e-6, "
        f"flatness {worst_flat:.2e} <= 1e-5",
    )


def test_criterion_9_interpolation_inequality():
    triples = ((0.5, 1.0, 1.0 / 3.0), (1.0, 2.0, 0.5), (0.5, 1.0, 2.0 / 3.0))
    worst = 0.0
    for seed in range(1000):
        u = random_field(seed, 12, 12, 1.5)
        for a, b, th in triples:
            worst = max(worst, interpolation_slack(u, a, b, th))
    _report(9, "interpolation inequality", worst <= 1e-12, f"worst slack {worst:.2e}")


def test_criterion_10_cli_determinism(tmp_path, capsys):
    cfg = {
        "seed": 0,
        "n_samples": 10,
        "n_t": 16,
        "n_x": 16,
        "mu": 0.5,
        "solve_n_t": 6,
        "solve_n_x": 6,
        "monodromy_steps": 128,
        "positivity_cases": 4,
        "outputs": {"report_path": str(tmp_path / "a.json")},
    }
    path = tmp_path / "verify.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--config", str(path)]) == 0
    cfg["outputs"]["report_path"] = str(tmp_path / "b.json")
    path.write_text(json.dumps(cfg))
    assert cli.main(["verify", "--config", str(path)]) == 0
    capsys.readouterr()

    def strip(name):
        return [
            line
            for line in (tmp_path / name).read_text().split("\n")
            if '"timestamp"' not in line
        ]

    same = strip("a.json") == strip("b.json")
    _report(10, "cli determinism", same, "reports byte-identical modulo timestamp")
