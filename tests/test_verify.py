"""The verify suite draws each sample once and measures every sample
invariant on it; its results equal those of one loop over the samples
per check, the suite's former layout, kept here as the oracle."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from stburgers import norms as nm
from stburgers import operators as op
from stburgers import verify as vf

N_SAMPLE_INVARIANTS = 11


def _operator_identities(cfg):
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
    for u in vf._samples(cfg):
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
        v = op.hilbert(op.d_t(u)) + u
        worst["adjoint_pairing"] = max(
            worst["adjoint_pairing"],
            abs(op.inner(d, v) - op.inner(u, op.half_derivative_adjoint(v)))
            / max(1.0, abs(op.inner(d, v))),
        )
    return [vf._result(k, w, f"{cfg.n_samples} samples") for k, w in worst.items()]


def _linear_solver(cfg):
    worst_rt = 0.0
    worst_id = 0.0
    worst_margin = np.inf
    bound = min(1.0, cfg.mu) / (1.0 + 1.0 / np.pi**2)
    for u in vf._samples(cfg):
        back = op.invert_L(op.apply_L(u, cfg.mu), cfg.mu)
        worst_rt = max(worst_rt, (back - u).l2() / max(1.0, u.l2()))
        lhs = np.sqrt(2.0) * op.inner(op.apply_L(u, cfg.mu), op.p_transform(u))
        d2 = op.half_derivative(u).l2() ** 2
        x2 = op.d_x(u).l2() ** 2
        rhs = d2 + cfg.mu * x2
        worst_id = max(worst_id, abs(lhs - rhs) / max(1.0, rhs))
        nrm2 = nm.aniso_norm(u) ** 2
        worst_margin = min(worst_margin, lhs - bound * nrm2)
    return [
        vf._result("linear_roundtrip", worst_rt),
        vf._result("coercivity_identity", worst_id),
        vf._result(
            "coercivity_lower_bound",
            max(0.0, -worst_margin),
            f"smallest margin {worst_margin:.3e}",
        ),
    ]


def _nonlinear_structure(cfg):
    worst = 0.0
    for u in vf._samples(cfg):
        s = op.apply_S(u)
        worst = max(worst, abs(op.inner(s, u)) / max(1.0, u.l2() ** 3))
    return [vf._result("nonlinear_energy_orthogonality", worst)]


def _interpolation(cfg):
    triples = [(0.5, 1.0, 0.5), (0.25, 0.5, 0.5), (0.5, 1.0, 0.25)]
    worst = 0.0
    for u in vf._samples(cfg):
        for alpha, beta, theta in triples:
            worst = max(worst, nm.interpolation_slack(u, alpha, beta, theta))
    return [vf._result("interpolation_inequality", worst, "3 exponent triples")]


def oracle(cfg):
    """The sample invariants by four loops over the samples, one per check."""
    return (
        _operator_identities(cfg)
        + _linear_solver(cfg)
        + _nonlinear_structure(cfg)
        + _interpolation(cfg)
    )


def _bits(results):
    return [(r.name, r.value.hex(), r.tolerance, r.passed, r.detail) for r in results]


def _assert_one_pass_is_the_oracle(cfg):
    results = vf.run_suite(cfg)
    assert sorted(r.name for r in results) == sorted(vf.TOLERANCES)
    assert _bits(results[:N_SAMPLE_INVARIANTS]) == _bits(oracle(cfg))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_samples=st.integers(1, 6),
    mu=st.floats(0.05, 2.0),
)
def test_one_pass_gives_the_bits_of_the_four_loops(seed, n_samples, mu):
    _assert_one_pass_is_the_oracle(vf.VerifyConfig(seed=seed, n_samples=n_samples, mu=mu))


def test_one_pass_gives_the_bits_of_the_four_loops_at_the_default_config():
    # 100 samples, the count the verify command runs by default
    _assert_one_pass_is_the_oracle(vf.VerifyConfig())


def test_the_samples_are_drawn_once_per_suite(monkeypatch):
    drawn = []
    samples = vf._samples

    def counted(cfg):
        drawn.append(cfg)
        return samples(cfg)

    monkeypatch.setattr(vf, "_samples", counted)
    vf.run_suite(vf.VerifyConfig(n_samples=2))
    assert len(drawn) == 1
