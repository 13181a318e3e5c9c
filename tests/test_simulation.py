import math

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
    sweep_rows_to_records,
    sweep_ternary,
    synth_ensemble,
)
from splitkl.simulation import _bound_values, _row_stats


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
# samplers
# ---------------------------------------------------------------------------


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
    threaded = sweep_ternary("symmetric", n=50, delta=0.05, repeats=10, seed=5, threads=4)
    for a, b in zip(rows, threaded):
        for name in a.gaps:
            assert np.array_equal(a.gaps[name], b.gaps[name])


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


def test_sweep_records_schema():
    rows = sweep_ternary("symmetric", n=30, delta=0.05, repeats=5, seed=9)
    records = sweep_rows_to_records(rows)
    assert len(records) == 51 * 4
    assert set(records[0]) == {
        "param", "bound", "gap_mean", "gap_std", "repeats", "n", "delta", "seed",
    }
    assert all(np.isfinite(r["gap_mean"]) for r in records)


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
    threaded = coverage_experiment(
        BetaSpec(2, 5), 60, 0.05, trials=600, seed=13, threads=4
    )
    assert base == threaded
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
