import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkl.concentration import (
    BoundReport,
    EmpiricalSummary,
    SplitSummary,
    empirical_bernstein_bound,
    kl_lower_bound,
    kl_upper_bound,
    make_gamma_grid,
    split_decompose,
    split_kl_bound,
    unexpected_bernstein_bound,
    unexpected_bernstein_grid_bound,
)
from splitkl.errors import DomainError
from splitkl.klcore import kl_inv_lower, kl_inv_upper

from test_klcore import grid_scan_inv_lower, grid_scan_inv_upper


def summary(samples, lo, hi):
    return EmpiricalSummary.from_samples(samples, lo, hi)


# ---------------------------------------------------------------------------
# split_decompose
# ---------------------------------------------------------------------------


def test_split_decompose_definition():
    s = split_decompose([-1.0, 0.0, 1.0], 0.0, -1.0, 1.0)
    assert s.plus_mean == pytest.approx(1.0 / 3.0)
    assert s.minus_mean == pytest.approx(1.0 / 3.0)

    s = split_decompose([0.5, 0.5, 0.5], 0.5, 0.0, 1.0)
    assert s.plus_mean == 0.0 and s.minus_mean == 0.0

    s = split_decompose([0.2, 0.8], 0.5, 0.0, 1.0)
    assert s.plus_mean == pytest.approx(0.15)
    assert s.minus_mean == pytest.approx(0.15)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.data())
def test_split_decompose_mean_identity(data):
    # mean(z) = mu + mean((z - mu)_+) - mean((mu - z)_+) for every mu in [lo, hi]
    lo = data.draw(st.floats(-1e6, 1e6), label="lo")
    hi = lo + data.draw(st.floats(1e-6, 1e6), label="width")
    point = st.floats(lo, hi)
    n = data.draw(st.integers(1, 40), label="n")
    z = data.draw(st.one_of(point.map(lambda v: [v] * n),
                            st.lists(point, min_size=n, max_size=n)), label="z")
    mu = data.draw(st.one_of(st.sampled_from([lo, hi]), point), label="mu")
    s = split_decompose(z, mu, lo, hi)
    scale = max(1.0, abs(lo), abs(hi))
    assert np.mean(z) == pytest.approx(s.mu + s.plus_mean - s.minus_mean, abs=1e-12 * scale)


def test_split_decompose_errors():
    with pytest.raises(DomainError):
        split_decompose([], 0.0, -1.0, 1.0)
    with pytest.raises(DomainError):
        split_decompose([2.0], 0.0, -1.0, 1.0)


# ---------------------------------------------------------------------------
# kl bounds
# ---------------------------------------------------------------------------


def test_kl_upper_bound_values():
    assert kl_upper_bound(1.0, 50, 0.05, 0.0, 1.0) == 1.0
    expect = 1.0 - math.exp(-math.log(20.0) / 100.0)
    assert kl_upper_bound(0.0, 100, 0.05, 0.0, 1.0) == pytest.approx(expect, abs=1e-10)
    oracle = grid_scan_inv_upper(0.5, math.log(20.0) / 100.0)
    assert kl_upper_bound(0.5, 100, 0.05, 0.0, 1.0) == pytest.approx(oracle, abs=2e-6)


def test_kl_lower_bound_values():
    assert kl_lower_bound(0.0, 50, 0.05, 0.0, 1.0) == 0.0
    expect = math.exp(-math.log(20.0) / 100.0)
    assert kl_lower_bound(1.0, 100, 0.05, 0.0, 1.0) == pytest.approx(expect, abs=1e-10)


def test_kl_bounds_symmetry():
    rng = np.random.default_rng(1)
    for m in rng.uniform(0, 1, 50):
        lhs = kl_lower_bound(m, 100, 0.05, 0.0, 1.0)
        rhs = 1.0 - kl_upper_bound(1.0 - m, 100, 0.05, 0.0, 1.0)
        assert lhs == pytest.approx(rhs, abs=1e-9)


def test_kl_bounds_clamp_a_mean_one_rounding_step_outside():
    # three samples equal to hi = 0.1 sum to 0.30000000000000004
    mean = (0.1 + 0.1 + 0.1) / 3
    assert mean > 0.1
    assert kl_upper_bound(mean, 3, 0.05, 0.0, 0.1) == 0.1
    assert 0.0 < kl_lower_bound(mean, 3, 0.05, 0.0, 0.1) < 0.1
    assert kl_upper_bound(-1e-17, 3, 0.05, 0.0, 0.1) > 0.0
    batch = kl_upper_bound(np.array([mean, 0.05]), 3, 0.05, 0.0, 0.1)
    assert batch[0] == 0.1 and batch[1] == kl_upper_bound(0.05, 3, 0.05, 0.0, 0.1)
    for bad in (0.2, np.array([0.05, 0.2]), -0.01, np.nan):
        with pytest.raises(DomainError):
            kl_upper_bound(bad, 10, 0.05, 0.0, 0.1)
        with pytest.raises(DomainError):
            kl_lower_bound(bad, 10, 0.05, 0.0, 0.1)


def test_kl_bound_rescaling():
    # the bound on [-1, 1] is the affine image of the bound on [0, 1]
    b01 = kl_upper_bound(0.75, 100, 0.05, 0.0, 1.0)
    b11 = kl_upper_bound(0.5, 100, 0.05, -1.0, 1.0)
    assert b11 == pytest.approx(2.0 * b01 - 1.0, abs=1e-9)
    with pytest.raises(DomainError):
        kl_upper_bound(0.5, 100, 0.05, 1.0, 1.0)


@pytest.mark.parametrize("n, delta", [(0, 0.05), (100, 0.0), (100, -0.1), (100, 1.0),
                                      (100, math.nan), (math.nan, 0.05)])
def test_kl_bounds_reject_bad_n_and_delta(n, delta):
    # n = 0 and delta = 0 were a bare ZeroDivisionError, delta = -0.1 a ValueError
    for bound in (kl_upper_bound, kl_lower_bound):
        with pytest.raises(DomainError, match="n >= 1, delta in"):
            bound(0.5, n, delta, 0.0, 1.0)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, math.nan])
def test_sample_bounds_reject_delta_outside_unit_interval(delta):
    # delta = 1.5 gave split-kl 0.267 against 0.428 at delta = 0.05, and
    # delta = 0 was a bare ZeroDivisionError in Empirical Bernstein
    z = np.array([-1.0, 0.0, 1.0, 1.0, 0.0] * 20)
    s = summary(z, -1.0, 1.0)
    calls = [
        lambda: empirical_bernstein_bound(s, delta),
        lambda: unexpected_bernstein_bound(s, 0.25, delta),
        lambda: split_kl_bound(split_decompose(z, 0.0, -1.0, 1.0), delta),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"delta outside \(0, 1\)"):
            call()


# ---------------------------------------------------------------------------
# Empirical Bernstein
# ---------------------------------------------------------------------------


def test_empirical_bernstein_values():
    s = summary(np.zeros(100), 0.0, 1.0)
    expect = 7.0 * math.log(40.0) / (3.0 * 99.0)
    assert empirical_bernstein_bound(s, 0.05) == pytest.approx(expect, abs=1e-12)

    s = EmpiricalSummary(100, 0.3, 0.09, 0.0, 0.0, 1.0)
    assert empirical_bernstein_bound(s, 0.05) == pytest.approx(0.3 + expect, abs=1e-12)

    s = EmpiricalSummary(100, 0.5, 0.5, 0.25, 0.0, 1.0)
    expect = 0.5 + math.sqrt(2 * 0.25 * math.log(40.0) / 100) + 7 * math.log(40.0) / 297
    assert empirical_bernstein_bound(s, 0.05) == pytest.approx(expect, abs=1e-12)


@pytest.mark.parametrize("field", ["second_moment_mean", "unbiased_variance"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -0.1])
def test_empirical_summary_rejects_non_finite_or_negative_moments(field, bad):
    # a NaN variance made the EB bound NaN, and a NaN second moment a NaN UB report
    moments = {"second_moment_mean": 0.25, "unbiased_variance": 0.2, field: bad}
    with pytest.raises(DomainError, match="moments must be finite and non-negative"):
        EmpiricalSummary(100, 0.5, lo=0.0, hi=1.0, **moments)


def test_empirical_bernstein_needs_two_samples():
    with pytest.raises(DomainError):
        empirical_bernstein_bound(EmpiricalSummary(1, 0.5, 0.25, 0.0, 0.0, 1.0), 0.05)


# ---------------------------------------------------------------------------
# gamma grid and Unexpected Bernstein
# ---------------------------------------------------------------------------


def test_make_gamma_grid():
    g = make_gamma_grid(100, 0.05, 1.0)
    assert g.count == 2 and g.values == (0.5, 0.25)
    g = make_gamma_grid(1000, 0.05, 1.0)
    assert g.count == 4 and g.values == (0.5, 0.25, 0.125, 0.0625)
    g = make_gamma_grid(100, 0.05, 2.0)
    assert g.values == (0.25, 0.125)
    # k floored at 1 so the grid is never empty
    g = make_gamma_grid(1, 0.9, 1.0)
    assert g.count == 1


def test_unexpected_bernstein_values():
    s = summary(np.zeros(100), 0.0, 1.0)
    assert unexpected_bernstein_bound(s, 0.5, 0.05) == pytest.approx(
        math.log(20.0) / 50.0, abs=1e-12
    )

    s = EmpiricalSummary(100, 0.2, 0.0, 0.0, 0.0, 1.0)
    assert unexpected_bernstein_bound(s, 0.5, 0.05) == pytest.approx(
        0.2 + math.log(20.0) / 50.0, abs=1e-12
    )

    s = EmpiricalSummary(100, 0.5, 0.5, 0.25, -1.0, 1.0)
    psi_val = -0.25 - math.log(0.75)
    expect = 0.5 + psi_val / 0.25 * 0.5 + math.log(20.0) / 25.0
    assert unexpected_bernstein_bound(s, 0.25, 0.05) == pytest.approx(expect, abs=1e-12)

    with pytest.raises(DomainError):
        unexpected_bernstein_bound(s, 1.5, 0.05)


def test_unexpected_bernstein_grid_bound():
    s = summary(np.zeros(100), 0.0, 1.0)
    rep = unexpected_bernstein_grid_bound(s, 0.05)
    assert isinstance(rep, BoundReport)
    assert rep.value == pytest.approx(math.log(40.0) / 50.0, abs=1e-12)
    assert rep.params["gamma"] == 0.5
    assert rep.params["grid_size"] == 2

    s = EmpiricalSummary(100, 0.5, 0.5, 0.25, -1.0, 1.0)
    grid = make_gamma_grid(100, 0.05, 1.0)
    per_gamma = [unexpected_bernstein_bound(s, g, 0.05 / grid.count) for g in grid.values]
    rep = unexpected_bernstein_grid_bound(s, 0.05)
    assert rep.value == pytest.approx(min(per_gamma), abs=1e-12)
    assert rep.params["gamma"] == grid.values[int(np.argmin(per_gamma))]


def test_grid_bound_is_min_over_grid():
    rng = np.random.default_rng(2)
    for _ in range(30):
        z = rng.uniform(0, 1, 200)
        s = summary(z, 0.0, 1.0)
        rep = unexpected_bernstein_grid_bound(s, 0.05)
        grid = make_gamma_grid(s.n, 0.05, s.hi)
        for g in grid.values:
            assert rep.value <= unexpected_bernstein_bound(s, g, 0.05 / grid.count) + 1e-12


# ---------------------------------------------------------------------------
# split-kl
# ---------------------------------------------------------------------------


def test_split_kl_constant_sample():
    s = split_decompose(np.full(100, 0.25), 0.25, -1.0, 1.0)
    expect = 0.25 + 0.75 * (1.0 - math.exp(-math.log(40.0) / 100.0))
    assert split_kl_bound(s, 0.05) == pytest.approx(expect, abs=1e-10)


def test_split_kl_degenerate_mu_is_kl_at_half_delta():
    # mu = lo reduces to the kl construction on the shifted variable at delta/2
    z = np.random.default_rng(3).uniform(0, 1, 150)
    s = split_decompose(z, 0.0, 0.0, 1.0)
    expect = kl_inv_upper(z.mean(), math.log(40.0) / 150.0)
    assert split_kl_bound(s, 0.05) == pytest.approx(expect, abs=1e-12)


def test_split_kl_ternary_oracle():
    z = np.concatenate([np.full(25, -1.0), np.zeros(50), np.full(25, 1.0)])
    s = split_decompose(z, 0.0, -1.0, 1.0)
    eps = math.log(40.0) / 100.0
    expect = grid_scan_inv_upper(0.25, eps) - grid_scan_inv_lower(0.25, eps)
    assert split_kl_bound(s, 0.05) == pytest.approx(expect, abs=2e-6)


def test_split_kl_affine_invariance():
    rng = np.random.default_rng(4)
    for _ in range(20):
        z = rng.uniform(-1, 1, 80)
        mu = rng.uniform(-1, 1)
        a, b = rng.uniform(0.5, 3), rng.uniform(-2, 2)
        base = split_kl_bound(split_decompose(z, mu, -1.0, 1.0), 0.05)
        moved = split_kl_bound(
            split_decompose(a * z + b, a * mu + b, -a + b, a + b), 0.05
        )
        assert moved == pytest.approx(a * base + b, abs=1e-9)


def test_split_kl_boundary_mass_matches_direct_terms():
    # samples concentrated on {lo, hi} with interior mu: the bound equals the
    # kl construction applied separately to the two split variables
    z = np.concatenate([np.full(30, -1.0), np.full(70, 1.0)])
    s = split_decompose(z, 0.0, -1.0, 1.0)
    eps = math.log(40.0) / 100.0
    expect = kl_inv_upper(0.7, eps) - kl_inv_lower(0.3, eps)
    assert split_kl_bound(s, 0.05) == pytest.approx(expect, abs=1e-12)


def test_bounds_increase_as_delta_shrinks():
    rng = np.random.default_rng(5)
    z = rng.uniform(-1, 1, 120)
    s = summary(z, -1.0, 1.0)
    sp = split_decompose(z, 0.0, -1.0, 1.0)
    deltas = [0.2, 0.1, 0.05, 0.01]
    for make in (
        lambda d: kl_upper_bound(z.mean(), 120, d, -1.0, 1.0),
        lambda d: empirical_bernstein_bound(s, d),
        lambda d: unexpected_bernstein_grid_bound(s, d).value,
        lambda d: split_kl_bound(sp, d),
    ):
        vals = [make(d) for d in deltas]
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))


def test_coverage_quick():
    # light Monte Carlo check of the 1-delta guarantee for all four bounds
    rng = np.random.default_rng(6)
    trials, n, delta = 2000, 60, 0.1
    p_true = 0.0  # symmetric ternary with p0 = 0.5
    violations = {"kl": 0, "eb": 0, "ub": 0, "skl": 0}
    for t in range(trials):
        z = rng.choice([-1.0, 0.0, 1.0], size=n, p=[0.25, 0.5, 0.25])
        s = summary(z, -1.0, 1.0)
        sp = split_decompose(z, 0.0, -1.0, 1.0)
        if p_true > kl_upper_bound(z.mean(), n, delta, -1.0, 1.0):
            violations["kl"] += 1
        if p_true > empirical_bernstein_bound(s, delta):
            violations["eb"] += 1
        if p_true > unexpected_bernstein_grid_bound(s, delta).value:
            violations["ub"] += 1
        if p_true > split_kl_bound(sp, delta):
            violations["skl"] += 1
    ceiling = delta + 3.0 * math.sqrt(delta * (1 - delta) / trials)
    for name, count in violations.items():
        assert count / trials <= ceiling, name


# ---------------------------------------------------------------------------
# one statistics kernel for both summaries
# ---------------------------------------------------------------------------


@st.composite
def _samples_with_a_range(draw):
    # uniform, three-point and constant samples, n from 1 up
    lo = draw(st.floats(-1e3, 1e3))
    hi = lo + draw(st.floats(1e-3, 1e3))
    n = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["uniform", "three-point", "constant"]))
    if kind == "uniform":
        z = rng.uniform(lo, hi, n)
    elif kind == "three-point":
        z = rng.choice(np.array([lo, 0.5 * (lo + hi), hi]), n)
    else:
        z = np.full(n, draw(st.floats(lo, hi)))
    return np.clip(z, lo, hi), lo, hi, draw(st.floats(lo, hi))


@settings(derandomize=True, deadline=None, max_examples=400)
@given(sample=_samples_with_a_range())
def test_summaries_equal_the_numpy_formulas_bitwise(sample):
    z, lo, hi, mu = sample
    s, p = EmpiricalSummary.from_samples(z, lo, hi), split_decompose(z, mu, lo, hi)
    expected = {
        "mean": z.mean(),
        "unbiased_variance": np.var(z, ddof=1) if len(z) > 1 else 0.0,
        "second_moment_mean": np.mean(z**2),
        "plus_mean": np.maximum(0, z - mu).mean(),
        "minus_mean": np.maximum(0, mu - z).mean(),
    }
    got = {"mean": s.mean, "unbiased_variance": s.unbiased_variance,
           "second_moment_mean": s.second_moment_mean, "plus_mean": p.plus_mean,
           "minus_mean": p.minus_mean}
    assert {k: float(v).hex() for k, v in got.items()} == {
        k: float(v).hex() for k, v in expected.items()}
    assert all(type(v) is float for v in got.values())


# ---------------------------------------------------------------------------
# checks that reject malformed summaries and grid inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("call, message", [
    (lambda: EmpiricalSummary(0, 0.5, 0.25, 0.0, 0.0, 1.0), "need n >= 1"),
    (lambda: EmpiricalSummary(5, 1.5, 0.25, 0.0, 0.0, 1.0), "mean 1.5 outside [0.0, 1.0]"),
    (lambda: SplitSummary(0, 0.5, 0.1, 0.1, 0.0, 1.0), "need n >= 1"),
    (lambda: SplitSummary(5, -0.5, 0.1, 0.1, 0.0, 1.0), "mu -0.5 outside [0.0, 1.0]"),
    (lambda: SplitSummary(5, 0.5, 0.1, 0.6, 0.0, 1.0), "minus_mean outside [0, mu - lo]"),
    (lambda: split_decompose([0.5], 1.5, 0.0, 1.0), "mu 1.5 outside [0.0, 1.0]"),
    (lambda: make_gamma_grid(0, 0.05, 1.0), "need n >= 1, delta in (0,1), b > 0"),
    (lambda: unexpected_bernstein_bound(EmpiricalSummary(5, -0.5, 0.3, 0.1, -1.0, 0.0), 0.1, 0.05),
     "Unexpected Bernstein needs an upper endpoint b > 0"),
])
def test_summary_and_grid_checks_raise(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@pytest.mark.parametrize("call, message", [
    # mu - lo overflows to inf, and so does the minus part's sum
    (lambda: split_decompose([0, -1e200, 1e308, -1e308], 1e308, -1e308, 1e308),
     "minus_mean outside [0, mu - lo]"),
    (lambda: SplitSummary(4, 1e308, 0.0, math.inf, -1e308, 1e308),
     "minus_mean outside [0, mu - lo]"),
    (lambda: SplitSummary(4, -1e308, math.inf, 0.0, -1e308, 1e308),
     "plus_mean outside [0, hi - mu]"),
], ids=["split_decompose", "minus_mean", "plus_mean"])
def test_split_means_must_be_finite_where_their_cap_overflows(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
