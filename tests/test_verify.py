"""The verify suite draws each sample once and measures every sample
invariant on it, a block of samples at a time; its results equal those
of one loop over the samples per check, the suite's former layout, kept
here as the oracle.  Its Cole-Hopf check, also a block of cases at a
time, equals the former loop over the cases one at a time."""

import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from stburgers import colehopf as ch
from stburgers import fields as fd
from stburgers import norms as nm
from stburgers import operators as op
from stburgers import verify as vf
from stburgers.errors import StburgersError

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


def colehopf_oracle(cfg):
    """The Cole-Hopf invariants by one loop over the cases, one case at a
    time, the check's former layout: the first case whose round trip
    raises fails it, naming the map that raised.  The check names the map
    per block, so the two part when a case fails `s3_to_s2` and a later
    case of its block fails `s2_to_s3`; no case here reaches that."""
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
        stage = "s2_to_s3"
        try:
            e3 = ch.s2_to_s3(e2, cfg.mu)
            stage = "s3_to_s2"
            back = ch.s3_to_s2(e3, cfg.mu)
        except StburgersError as e:
            worst_rt, rt_detail = np.inf, f"{stage}: {e}"
            continue
        wb = fd.truncate(back.W, W.n_t, W.n_x)
        worst_rt = max(worst_rt, (wb - W).l2() + abs(back.K - k))
    return [
        vf._result("colehopf_roundtrip", worst_rt, rt_detail),
        vf._result("chain_rule_identity", worst_chain),
    ]


def _bits(results):
    return [(r.name, r.value.hex(), r.tolerance, r.passed, r.detail) for r in results]


def _assert_one_pass_is_the_oracle(cfg):
    results = vf.run_suite(cfg)
    assert sorted(r.name for r in results) == sorted(vf.TOLERANCES)
    assert _bits(results[:N_SAMPLE_INVARIANTS]) == _bits(oracle(cfg))
    assert _bits(results[N_SAMPLE_INVARIANTS : N_SAMPLE_INVARIANTS + 2]) == _bits(colehopf_oracle(cfg))


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_samples=st.integers(1, 25),
    mu=st.floats(0.05, 2.0),
)
def test_one_pass_gives_the_bits_of_the_four_loops(seed, n_samples, mu):
    # up to four blocks of samples, the last one ragged
    _assert_one_pass_is_the_oracle(vf.VerifyConfig(seed=seed, n_samples=n_samples, mu=mu))


def test_one_pass_gives_the_bits_of_the_four_loops_at_the_default_config():
    # 100 samples, the count the verify command runs by default
    _assert_one_pass_is_the_oracle(vf.VerifyConfig())


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    n_samples=st.integers(1, 25),
    block=st.integers(1, 11),
    mu=st.sampled_from([0.01, 0.03, 0.1, 1.0]),
)
def test_any_block_size_gives_the_bits_of_the_loops(seed, n_samples, block, mu):
    # the round trip fails at the first case at mu = 0.01, and at mu = 0.03
    # often at a later one (case 3, 9, 1 or 2 at seeds 0, 1, 5 and 7)
    cfg = vf.VerifyConfig(seed=seed, n_samples=n_samples, mu=mu)
    with mock.patch.object(vf, "BLOCK", block):
        assert _bits(vf._sample_results(cfg)) == _bits(oracle(cfg))
        assert _bits(vf.check_colehopf(cfg)) == _bits(colehopf_oracle(cfg))


@pytest.mark.parametrize("seed", [0, 5])
def test_a_block_gives_each_sample_the_values_it_gives_alone(seed):
    # each per-sample value, not only the largest, of one block of 25
    cfg = vf.VerifyConfig(seed=seed, n_samples=25, mu=0.3)
    samples = list(vf._samples(cfg))

    def values(u):
        d = op.half_derivative(u)
        return {
            **vf.check_operator_identities(u, d),
            **vf.check_linear_solver(u, d, cfg.mu),
            **vf.check_nonlinear_structure(u),
            **vf.check_interpolation(u),
        }

    alone = [values(u) for u in samples]
    block = values(fd.stack(samples))
    assert sorted(block) == sorted(vf.SAMPLE_INVARIANTS)
    for name, together in block.items():
        assert [float(x).hex() for x in together] == [float(a[name]).hex() for a in alone], name


def _projection_defects(cfg):
    """The pointwise miss of each Cole-Hopf case's projected exponential,
    to the three digits of its error message."""
    misses = []
    with mock.patch.object(ch, "PROJECTION_TOL", -1.0):
        for w, _, k in vf._colehopf_cases(cfg):
            with pytest.raises(ch.ProjectionAccuracyError) as info:
                ch.s2_to_s3(ch.S2Element(ch.antiderivative_x(w), k), cfg.mu)
            misses.append(float(re.search(r"by (\S+) ", str(info.value)).group(1)))
    return misses


def test_a_round_trip_that_fails_inside_a_block_is_the_first_failure(monkeypatch):
    # a tolerance between the largest miss of the cases before case j and
    # the miss of case j, which lies inside a block: case j fails first,
    # and its block, the cases before j in it included, does not go round
    cfg = vf.VerifyConfig(seed=3, n_samples=4 * vf.BLOCK, mu=0.5)
    misses = _projection_defects(cfg)
    j = next(
        j for j in range(1, len(misses))
        if j % vf.BLOCK and misses[j] > 1.1 * max(misses[:j])
    )
    monkeypatch.setattr(ch, "PROJECTION_TOL", (misses[j] * max(misses[:j])) ** 0.5)
    seen = []
    s3_to_s2 = ch.s3_to_s2

    def spied(e, mu):
        seen.extend(np.ravel(e.K).tolist())
        return s3_to_s2(e, mu)

    monkeypatch.setattr(ch, "s3_to_s2", spied)
    results = vf.check_colehopf(cfg)
    ks = [k for _, _, k in vf._colehopf_cases(cfg)]
    # no case of the failing block goes round, nor any after it; the
    # blocks before it do
    assert sorted(seen) == sorted(k / (2.0 * cfg.mu) for k in ks[: j - j % vf.BLOCK])
    assert results[0].value == np.inf and not results[0].passed
    assert results[0].detail.startswith("s2_to_s3: projected exponential misses")
    monkeypatch.setattr(ch, "s3_to_s2", s3_to_s2)
    assert _bits(results) == _bits(colehopf_oracle(cfg))


def test_a_round_trip_that_raises_in_s3_to_s2_fails_the_round_trip_only(monkeypatch):
    # a nonpositive phi in the second of three blocks: the suite still
    # measures all 19 invariants, and only the round trip changes
    cfg = vf.VerifyConfig(seed=0, n_samples=3 * vf.BLOCK, mu=0.5)
    clean = vf.run_suite(cfg)
    blocks = []
    s3_to_s2 = ch.s3_to_s2

    def second_block_fails(e, mu):
        blocks.append(e)
        if len(blocks) == 2:
            raise ch.NonpositivePhiError("phi is not strictly positive on the grid")
        return s3_to_s2(e, mu)

    monkeypatch.setattr(ch, "s3_to_s2", second_block_fails)
    results = vf.run_suite(cfg)
    assert len(blocks) == 2  # no later block goes round
    assert [r.name for r in results] == [r.name for r in clean]
    assert len(results) == len(vf.TOLERANCES) == 19
    i = N_SAMPLE_INVARIANTS
    assert results[i].name == "colehopf_roundtrip" and clean[i].passed
    assert results[i].value == np.inf and not results[i].passed
    assert results[i].detail == "s3_to_s2: phi is not strictly positive on the grid"
    assert _bits(results[:i] + results[i + 1 :]) == _bits(clean[:i] + clean[i + 1 :])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_round_trip_that_reads_nan_fails_in_s2_to_s3():
    # at mu = 1e-5 the exponential overflows and the projection's miss is
    # NaN, which must fail its gate, not pass it
    result = vf.check_colehopf(vf.VerifyConfig(seed=0, n_samples=2, mu=1e-5))[0]
    assert result.name == "colehopf_roundtrip"
    assert result.value == np.inf and not result.passed
    assert result.detail.startswith("s2_to_s3: projected exponential misses its pointwise values by nan")


def test_the_samples_are_drawn_once_per_suite(monkeypatch):
    drawn = []
    samples = vf._samples

    def counted(cfg):
        drawn.append(cfg)
        return samples(cfg)

    monkeypatch.setattr(vf, "_samples", counted)
    vf.run_suite(vf.VerifyConfig(n_samples=2))
    assert len(drawn) == 1


def _with_nan_at(fn, index):
    """fn with the per-field value `index` of its array result set to NaN."""

    def planted(*args, **kwargs):
        out = np.array(fn(*args, **kwargs), dtype=float)
        out.reshape(-1)[index] = np.nan
        return out

    return planted


@pytest.mark.parametrize(
    "module, function, name, check",
    [
        (nm, "interpolation_slack", "interpolation_inequality", vf._sample_results),
        (nm, "aniso_norm", "coercivity_lower_bound", vf._sample_results),
        (ch, "chain_rule_defect", "chain_rule_identity", vf.check_colehopf),
        (ch, "profile_values", "positivity_floor", vf.check_positivity),
    ],
    ids=["interpolation_inequality", "coercivity_lower_bound", "chain_rule_identity", "positivity_floor"],
)
def test_an_invariant_that_reads_nan_fails(monkeypatch, module, function, name, check):
    # a NaN per-case value (or margin) inside a block must not be folded
    # away by max or min, nor clipped away at zero
    cfg = vf.VerifyConfig(seed=0, n_samples=3, mu=0.5)
    clean = {r.name: r for r in check(cfg)}[name]
    assert clean.passed
    monkeypatch.setattr(module, function, _with_nan_at(getattr(module, function), 1))
    result = {r.name: r for r in check(cfg)}[name]
    assert np.isnan(result.value) and not result.passed


def test_a_nan_anywhere_in_a_fold_gives_nan():
    nan = float("nan")
    for values in ([nan, 1.0, 2.0], [1.0, nan, 2.0], [1.0, 2.0, nan]):
        assert np.isnan(fd._fold(0.0, values, max))
        assert np.isnan(fd._fold(np.inf, values, min))
    assert fd._fold(0.0, [-1.0, 0.5, -0.0], max) == 0.5
    assert fd._fold(0.0, -0.0, max) == 0.0 and not np.signbit(fd._fold(0.0, -0.0, max))
