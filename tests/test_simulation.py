import dataclasses
import itertools
import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkl.concentration import (
    EmpiricalSummary,
    empirical_bernstein_bound,
    kl_upper_bound,
    split_decompose,
    split_kl_bound,
    unexpected_bernstein_grid_bound,
)
from splitkl.errors import DomainError
from splitkl.majority_vote import (
    PosteriorWeights,
    compute_tandem_stats,
    mv_risk,
)
from splitkl.simulation import (
    BetaSpec,
    TernarySpec,
    coverage_ceiling,
    coverage_experiment,
    coverage_passes,
    sample_beta,
    sample_ternary,
    sweep_beta,
    sweep_ternary,
    synth_ensemble,
)
from splitkl import simulation
from splitkl.simulation import (
    _STREAM_CHUNK, _TERNARY_VALUES, _bound_values, _pcg64_states, _rng, _row_stats, _streams,
    _ternary_stats,
)


# ---------------------------------------------------------------------------
# batched bounds
# ---------------------------------------------------------------------------


@st.composite
def _sample_on_a_sweep_range(draw):
    # the ranges the sweeps use: ternary on [-1, 1], beta on [0, 1]
    lo = draw(st.sampled_from([-1.0, 0.0]))
    values = draw(st.lists(st.floats(lo, 1.0), min_size=1, max_size=10))
    n = draw(st.integers(2, 3000))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return lo, rng.choice(np.array(values), size=n)


@settings(derandomize=True, deadline=None)
@given(sample=_sample_on_a_sweep_range(), delta=st.floats(0.01, 0.5))
def test_batched_bounds_equal_the_scalar_bounds(sample, delta):
    lo, z = sample
    hi, mu, n = 1.0, 0.5 * (lo + 1.0), len(z)
    # a batch of one point with one repeat
    bounds = _bound_values(_row_stats(z[None, :], mu)[:, None, :], n, lo, hi, mu, delta)
    s = EmpiricalSummary.from_samples(z, lo, hi)
    expected = {
        "kl": kl_upper_bound(s.mean, n, delta, lo, hi),
        "eb": empirical_bernstein_bound(s, delta),
        "ub": unexpected_bernstein_grid_bound(s, delta).value,
        "skl": split_kl_bound(split_decompose(z, mu, lo, hi), delta),
    }
    for name, value in expected.items():
        assert bounds[name].shape == (1, 1)
        assert bounds[name][0, 0] == value, name
        assert value >= s.mean, name


# ---------------------------------------------------------------------------
# row statistics
# ---------------------------------------------------------------------------


def _numpy_row_stats(x, mu):
    # the formulas the scratch-buffer reduction must reproduce bit for bit
    return np.stack([
        x.mean(axis=1),
        x.var(axis=1, ddof=1),
        np.mean(x * x, axis=1),
        np.maximum(0.0, x - mu).mean(axis=1),
        np.maximum(0.0, mu - x).mean(axis=1),
    ])


@settings(derandomize=True, deadline=None, max_examples=200)
@given(rows=st.integers(1, 40), n=st.integers(2, 1500), seed=st.integers(0, 2**32 - 1),
       source=st.sampled_from(["beta", "ternary", "lattice", "normal"]),
       mu=st.sampled_from([0.5, 0.0, -0.25]))
def test_row_stats_equal_numpy_formulas_bitwise(rows, n, seed, source, mu):
    rng = np.random.default_rng(seed)
    x = {
        "beta": lambda: rng.beta(0.3, 2.0, (rows, n)),
        "ternary": lambda: rng.choice(_TERNARY_VALUES, (rows, n)),
        # exact ties with mu, so the parts see zero differences
        "lattice": lambda: rng.integers(-4, 5, (rows, n)) / 8.0,
        "normal": lambda: rng.normal(mu, 3.0, (rows, n)),
    }[source]()
    assert _row_stats(x, mu).tobytes() == _numpy_row_stats(x, mu).tobytes()


@st.composite
def _ternary_specs_with_zero_masses(draw):
    # point masses and zero masses, then arbitrary weights
    weights = draw(st.one_of(
        st.sampled_from([(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 0, 1), (1, 1, 0), (0, 1, 1)]),
        st.tuples(*[st.floats(0.0, 1.0)] * 3).filter(lambda w: sum(w) > 0.0),
    ))
    total = sum(weights)
    return TernarySpec(*(w / total for w in weights))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=_ternary_specs_with_zero_masses(), n=st.integers(2, 2000),
       rows=st.integers(1, 8), seed=st.integers(0, 2**64 - 1))
def test_ternary_counts_equal_row_stats_of_the_draws(spec, n, rows, seed):
    u = np.random.default_rng(seed).random((rows, n))
    counted = _ternary_stats(spec, u)
    sampled = _row_stats(_TERNARY_VALUES[spec._cdf.searchsorted(u, side="right")], 0.0)
    mean, var, second, plus, minus = counted
    # mean, second moment and both parts: integer partial sums, so equal bits
    for k in (0, 2, 3, 4):
        assert counted[k].tobytes() == sampled[k].tobytes(), k
    # the variance is the exact ratio; numpy's two-pass form rounds a few times
    assert np.all(np.abs(var - sampled[1]) <= 1e-15 * np.abs(var))
    assert np.all(np.abs(mean - (plus - minus)) <= 1e-15)


def test_sweep_rows_are_drawn_from_their_streams(monkeypatch):
    # each (point, repeat) row of a ternary sweep is the uniforms of its own
    # stream, in order, however the block buffer is reused
    blocks = []

    def capture(spec, u):
        blocks.append(u.copy())
        return _ternary_stats(spec, u)

    monkeypatch.setattr(simulation, "_ternary_stats", capture)
    seed, n, repeats = 2**40 + 3, 17, 4
    sweep_ternary("skew_low", n, 0.05, repeats=repeats, seed=seed)
    assert len(blocks) == 51
    for i, block in enumerate(blocks):
        for rep in range(repeats):
            assert block[rep].tobytes() == _rng(seed, i, rep).random(n).tobytes(), (i, rep)


# ---------------------------------------------------------------------------
# stream states
# ---------------------------------------------------------------------------


def _numpy_state(seed, path):
    # the independent oracle: numpy's own SeedSequence and PCG64 seeding
    rng = np.random.default_rng(np.random.SeedSequence([seed % 2**63, *path]))
    return rng.bit_generator.state


def _assert_states_match(seed, paths):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy scalar-overflow warning may leak
        states = _pcg64_states(seed, paths)
    assert len(states) == len(paths)
    for path, (state, inc) in zip(paths, states):
        assert _numpy_state(seed, path) == {
            "bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0,
        }, (seed, path)


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**63 + 5])
def test_stream_states_equal_seed_sequence(seed):
    # one- and two-word seeds, the mod 2**63 wrap, entropy shorter than,
    # equal to and longer than SeedSequence's four-word pool
    for length in range(5):
        _assert_states_match(seed, list(itertools.product([0, 2**32 - 1], repeat=length)))


@st.composite
def _seed_and_paths(draw):
    length = draw(st.integers(0, 6))
    path = st.tuples(*[st.integers(0, 2**32 - 1)] * length)
    return draw(st.integers(-(2**70), 2**70)), draw(st.lists(path, min_size=1, max_size=5))


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed_paths=_seed_and_paths())
def test_stream_states_property(seed_paths):
    _assert_states_match(*seed_paths)


def test_streams_draw_the_seed_sequence_streams():
    # more paths than one chunk, so the chunk boundary is crossed
    paths = list(np.ndindex(3, _STREAM_CHUNK // 2 + 1))
    draws = [rng.random(3) for rng in _streams(2**40 + 9, paths)]
    for path, draw in zip(paths, draws):
        expected = np.random.default_rng(np.random.SeedSequence([2**40 + 9, *path])).random(3)
        assert draw.tobytes() == expected.tobytes(), path


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------


def _choice_draws(spec, n, seed):
    probs = [spec.p_minus1, spec.p_0, spec.p_1]
    return np.random.default_rng(seed).choice(np.array([-1.0, 0.0, 1.0]), size=n, p=probs)


@st.composite
def _ternary_specs(draw):
    weights = [draw(st.floats(0.0, 1.0)) for _ in range(3)]
    if sum(weights) == 0.0:
        weights[draw(st.integers(0, 2))] = 1.0
    total = sum(weights)
    return TernarySpec(*(w / total for w in weights))


@settings(derandomize=True, deadline=None)
@given(spec=_ternary_specs(), n=st.integers(1, 2000), seed=st.integers(0, 2**64 - 1))
def test_sample_ternary_equals_generator_choice(spec, n, seed):
    draws = sample_ternary(spec, n, np.random.default_rng(seed))
    assert draws.dtype == np.float64
    assert draws.tobytes() == _choice_draws(spec, n, seed).tobytes()


@pytest.mark.parametrize("spec", [
    TernarySpec(0, 1, 0), TernarySpec(1, 0, 0), TernarySpec(0, 0, 1),
    TernarySpec(0.5, 0, 0.5), TernarySpec(0.0, 1.0, 0.0), TernarySpec(0.3, 0.4, 0.3),
])
def test_sample_ternary_equals_generator_choice_on_point_masses(spec):
    # integer-valued probabilities need a float cdf before it is normalised
    for seed in range(5):
        draws = sample_ternary(spec, 300, np.random.default_rng(seed))
        assert draws.tobytes() == _choice_draws(spec, 300, seed).tobytes()


def test_ternary_spec_cdf_is_not_a_field():
    # the cdf is formed once per spec, and equality and hashing still see
    # only the three masses
    spec = TernarySpec(0.2, 0.3, 0.5)
    first = sample_ternary(spec, 100, np.random.default_rng(3))
    assert sample_ternary(spec, 100, np.random.default_rng(3)).tobytes() == first.tobytes()
    assert [f.name for f in dataclasses.fields(spec)] == ["p_minus1", "p_0", "p_1"]
    fresh = TernarySpec(0.2, 0.3, 0.5)
    assert spec == fresh and hash(spec) == hash(fresh)
    assert repr(spec) == repr(fresh)
    assert spec._cdf is spec._cdf


def test_sample_ternary_point_masses():
    assert np.all(sample_ternary(TernarySpec(0, 1, 0), 50, seed=1) == 0.0)
    assert np.all(sample_ternary(TernarySpec(1, 0, 0), 50, seed=1) == -1.0)
    with pytest.raises(DomainError):
        sample_ternary(TernarySpec(0.5, 0.25, 0.25), 0, seed=1)


def test_sample_ternary_frequencies():
    spec = TernarySpec(0.25, 0.5, 0.25)
    z = sample_ternary(spec, 10**6, seed=7)
    for value, p in [(-1.0, 0.25), (0.0, 0.5), (1.0, 0.25)]:
        sigma = math.sqrt(p * (1 - p) / 10**6)
        assert abs(np.mean(z == value) - p) <= 3 * sigma


def test_sample_ternary_deterministic():
    spec = TernarySpec(0.3, 0.4, 0.3)
    assert np.array_equal(
        sample_ternary(spec, 100, seed=42), sample_ternary(spec, 100, seed=42)
    )


def test_sample_beta_moments():
    z = sample_beta(BetaSpec(1.0, 1.0), 10**5, seed=3)
    assert abs(z.mean() - 0.5) <= 3 * math.sqrt(1 / 12 / 10**5)
    spec = BetaSpec(5.0, 5.0)
    z = sample_beta(spec, 10**6, seed=3)
    assert abs(z.mean() - 0.5) <= 3 * math.sqrt(spec.variance / 10**6)
    spec = BetaSpec(0.01, 5.0)
    assert spec.mean == pytest.approx(0.001996, abs=1e-6)
    z = sample_beta(spec, 10**6, seed=4)
    assert abs(z.mean() - spec.mean) <= 3 * math.sqrt(spec.variance / 10**6)
    assert z.min() >= 0.0 and z.max() <= 1.0


def test_spec_validation():
    with pytest.raises(DomainError):
        TernarySpec(0.5, 0.5, 0.1)
    with pytest.raises(DomainError):
        BetaSpec(0.0, 1.0)
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(DomainError):
            TernarySpec(bad, 0.5, 0.5)
        with pytest.raises(DomainError):
            TernarySpec(0.5, 0.5, bad)
        with pytest.raises(DomainError):
            BetaSpec(bad, 2.0)
        with pytest.raises(DomainError):
            BetaSpec(2.0, bad)


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------


def test_sweep_ternary_shape_and_determinism():
    rows = sweep_ternary("symmetric", n=50, delta=0.05, repeats=10, seed=5)
    assert len(rows) == 51
    assert rows[0].param == 0.0 and rows[-1].param == 1.0
    again = sweep_ternary("symmetric", n=50, delta=0.05, repeats=10, seed=5)
    for a, b in zip(rows, again):
        for name in a.gaps:
            assert np.array_equal(a.gaps[name], b.gaps[name])


def test_concurrent_sweeps_equal_serial_sweeps():
    # every call seeds its own generator, so calls running side by side in
    # threads cannot interleave their streams
    jobs = [
        lambda: sweep_ternary("skew_low", n=40, delta=0.05, repeats=30, seed=2**32),
        lambda: sweep_beta("spectrum", n=40, delta=0.05, repeats=30, seed=2**63 + 1),
        lambda: coverage_experiment(TernarySpec(0.2, 0.3, 0.5), 30, 0.3, trials=1100, seed=5),
    ] * 2

    def as_bytes(result):
        if isinstance(result, dict):
            return repr(result).encode()
        return b"".join(row.gaps[name].tobytes() for row in result for name in row.gaps)

    serial = [as_bytes(job()) for job in jobs]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)  # switch threads often, so interleaving would show
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            threaded = list(pool.map(lambda job: as_bytes(job()), jobs, timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert threaded == serial


def test_sweep_gaps_finite_and_bounded():
    rows = sweep_ternary("skew_high", n=50, delta=0.05, repeats=10, seed=6)
    for row in rows:
        for name, gaps in row.gaps.items():
            assert np.all(np.isfinite(gaps)), name
            assert np.all(gaps <= 2.0 + 1e-12)
    for row in sweep_beta("constant_mean", n=50, delta=0.05, repeats=10, seed=6):
        for name, gaps in row.gaps.items():
            assert np.all(np.isfinite(gaps)), name
            assert np.all(gaps <= 1.0 + 1e-12)


def test_sweep_degenerate_point_mass():
    rows = sweep_ternary("symmetric", n=100, delta=0.05, repeats=5, seed=7)
    row = rows[-1]  # p0 = 1: all samples are 0
    expect_eb = 7.0 * 2.0 * math.log(40.0) / (3.0 * 99.0)
    assert np.allclose(row.gaps["eb"], expect_eb, atol=1e-12)
    expect_ub = math.log(2.0 / 0.05) / (0.5 * 100.0)
    assert np.allclose(row.gaps["ub"], expect_ub, atol=1e-12)


def test_sweep_beta_modes():
    rows = sweep_beta("constant_mean", n=50, delta=0.05, repeats=5, seed=8)
    assert len(rows) == 51
    assert rows[0].param == pytest.approx(BetaSpec(0.01, 0.01).variance)
    rows = sweep_beta("spectrum", n=50, delta=0.05, repeats=5, seed=8)
    params = [r.param for r in rows]
    assert params[0] == pytest.approx(0.001996, abs=1e-6)
    assert params[-1] == pytest.approx(1.0 - 0.001996, abs=1e-6)
    assert all(a <= b + 1e-12 for a, b in zip(params, params[1:]))
    with pytest.raises(DomainError):
        sweep_beta("nope", n=50, delta=0.05, repeats=5, seed=8)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_point_mass_never_violates():
    freqs = coverage_experiment(TernarySpec(0, 1, 0), 50, 0.05, trials=200, seed=10)
    assert all(f == 0.0 for f in freqs.values())


def test_coverage_within_ceiling():
    freqs = coverage_experiment(
        TernarySpec(0.25, 0.5, 0.25), 100, 0.05, trials=2000, seed=11
    )
    assert set(freqs) == {"kl", "eb", "ub", "skl", "pbkl0"}
    assert coverage_passes(freqs, 0.05, 2000)


def test_coverage_kl_not_vacuous_at_half():
    freqs = coverage_experiment(
        TernarySpec(0.25, 0.0, 0.75), 100, 0.5, trials=2000, seed=12
    )
    assert freqs["kl"] <= coverage_ceiling(0.5, 2000)
    assert freqs["kl"] >= 0.01


def test_coverage_thread_invariance_and_guards():
    base = coverage_experiment(BetaSpec(2, 5), 60, 0.05, trials=600, seed=13)
    assert coverage_experiment(BetaSpec(2, 5), 60, 0.05, trials=600, seed=13) == base
    with pytest.raises(DomainError):
        coverage_experiment(BetaSpec(2, 5), 60, 0.05, trials=10, seed=13)


def test_coverage_ceiling_logic():
    freqs = {"kl": 0.052}
    assert coverage_passes(freqs, 0.05, 10000)
    assert not coverage_passes(freqs, 0.005, 10000)


def test_sweeps_and_coverage_reject_degenerate_sizes():
    # one sample leaves the sample variance and EB's 1 / (n - 1) undefined
    with pytest.raises(DomainError, match="n >= 2"):
        sweep_ternary("symmetric", n=1, delta=0.05, repeats=3, seed=1)
    with pytest.raises(DomainError, match="n >= 2"):
        coverage_experiment(BetaSpec(2, 5), 1, 0.05, trials=100, seed=1)
    with pytest.raises(DomainError, match="repeats >= 1"):
        sweep_beta("spectrum", n=10, delta=0.05, repeats=0, seed=1)


# ---------------------------------------------------------------------------
# synthetic ensembles
# ---------------------------------------------------------------------------


def test_synth_identical_profile():
    plm, _ = synth_ensemble(5, 400, "identical", seed=14)
    ts = compute_tandem_stats(plm)
    # all hypotheses share one error vector, but OOB masks differ; the
    # underlying loss rows are identical
    assert np.all(plm.losses == plm.losses[0])
    assert ts.tandem_loss.max() - ts.tandem_loss.min() < 0.2


def test_synth_independent_tandem_product():
    plm, _ = synth_ensemble(6, 5000, "independent", seed=15, error_rate=0.3)
    ts = compute_tandem_stats(plm)
    off = ts.tandem_loss[~np.eye(6, dtype=bool)]
    sigma = math.sqrt(0.09 * 0.91 / ts.m)
    assert np.all(np.abs(off - 0.09) <= 4 * sigma)


def test_synth_oob_fraction():
    plm, _ = synth_ensemble(4, 1000, "independent", bagging_rate=0.8, seed=16)
    expect = (1 - 1 / 1000) ** 800
    frac = plm.mask.mean(axis=1)
    sigma = math.sqrt(expect * (1 - expect) / 1000)
    assert np.all(np.abs(frac - expect) <= 4 * sigma)


def test_synth_eval_matrix_risk():
    plm, em = synth_ensemble(7, 500, "independent", seed=17, error_rate=0.3)
    h = plm.h_count
    w = PosteriorWeights(rho=np.full(h, 1 / h), pi=np.full(h, 1 / h))
    risk = mv_risk(em, w)
    # true MV risk of 7 independent rate-0.3 voters: P[Bin(7, 0.3) >= 4]
    import scipy.stats

    truth = 1 - scipy.stats.binom.cdf(3, 7, 0.3)
    assert abs(risk - truth) <= 4 * math.sqrt(truth * (1 - truth) / em.predictions.shape[1])


def test_synth_determinism_and_guards():
    a_plm, a_em = synth_ensemble(4, 300, "correlated", seed=18)
    b_plm, b_em = synth_ensemble(4, 300, "correlated", seed=18)
    assert np.array_equal(a_plm.losses, b_plm.losses)
    assert np.array_equal(a_plm.mask, b_plm.mask)
    assert np.array_equal(a_em.predictions, b_em.predictions)
    with pytest.raises(DomainError):
        synth_ensemble(1, 300, "independent", seed=19)
    with pytest.raises(DomainError):
        synth_ensemble(4, 300, "martian", seed=19)
    for bad in ({"bagging_rate": 0.0}, {"bagging_rate": math.nan}, {"bagging_rate": math.inf},
                {"error_rate": 1.5}, {"error_rate": math.nan},
                {"correlation": -0.1}, {"correlation": math.nan}):
        with pytest.raises(DomainError):
            synth_ensemble(4, 300, "correlated", seed=19, **bad)
    # an expected pairwise OOB overlap 300 e^(-2 rate) below 1e-3 is rejected
    # before the bootstrap draw of rate * 300 indices
    for rate in (6.31, 1e13):
        with pytest.raises(DomainError, match="expected pairwise OOB overlap"):
            synth_ensemble(4, 300, "correlated", seed=19, bagging_rate=rate)
