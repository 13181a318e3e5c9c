import math

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkl.concentration import (
    EmpiricalSummary,
    SplitSummary,
    empirical_bernstein_bound,
    kl_upper_bound,
    split_kl_bound,
)
from splitkl.errors import DomainError
from splitkl.klcore import kl_inv_lower, kl_inv_upper
from splitkl.pacbayes import (
    ExcessLossInput,
    PacBayesInput,
    excess_informed_bound,
    optimal_gamma,
    optimal_lambda,
    pb_kl_bound,
    pb_kl_pinsker_relaxation,
    pb_lambda_lower,
    pb_lambda_upper,
    pb_split_kl,
    pb_unexpected_bernstein,
    pb_unexpected_bernstein_grid,
)
from splitkl.pacbayes import _pb_confidence
from splitkl.pacbayes import test_set_bound as binomial_test_set_bound

from test_klcore import grid_scan_inv_upper


def pb_input(**kw):
    base = dict(
        gibbs_mean=0.0,
        gibbs_second_moment=0.0,
        gibbs_plus_mean=0.0,
        gibbs_minus_mean=0.0,
        kl_complexity=0.0,
        n=100,
        lo=0.0,
        hi=1.0,
        mu=0.0,
    )
    base.update(kw)
    return PacBayesInput(**base)


# ---------------------------------------------------------------------------
# PAC-Bayes-kl and Pinsker relaxation
# ---------------------------------------------------------------------------


def test_pb_kl_values():
    expect = 1.0 - math.exp(-math.log(400.0) / 100.0)
    assert pb_kl_bound(0.0, 0.0, 100, 0.05) == pytest.approx(expect, abs=1e-10)
    assert pb_kl_bound(1.0, 0.0, 100, 0.05) == 1.0
    eps = (1.0 + math.log(2.0 * math.sqrt(200) / 0.05)) / 200
    assert pb_kl_bound(0.3, 1.0, 200, 0.05) == pytest.approx(
        grid_scan_inv_upper(0.3, eps), abs=2e-6
    )


def test_pb_kl_rejects_nan_complexity():
    # a NaN KL used to come back as the empirical mean, a "certificate" of 0.2
    with pytest.raises(DomainError, match="need KL >= 0"):
        pb_kl_bound(0.2, math.nan, 100, 0.05)


@pytest.mark.parametrize("kl, n, delta", [(-1.0, 100, 0.05), (math.nan, 100, 0.05),
                                          (0.0, 0, 0.05), (0.0, 100, 0.0), (0.0, 100, 2.0),
                                          (0.0, 100, -0.1), (0.0, 100, math.nan)])
def test_pb_kl_forms_reject_bad_complexity_n_and_delta(kl, n, delta):
    # KL = -1 and delta = 2 gave certificates below the KL = 0 value; delta = 0
    # was a bare ZeroDivisionError and n = 0 a ValueError
    for bound in (pb_kl_bound, pb_kl_pinsker_relaxation):
        with pytest.raises(DomainError, match="need KL >= 0, n >= 1, delta in"):
            bound(0.2, kl, n, delta)


@pytest.mark.parametrize("field, bad, message", [
    ("gibbs_mean", math.nan, r"gibbs_mean outside \[lo, hi\]"),
    ("gibbs_mean", 5.0, r"gibbs_mean outside \[lo, hi\]"),
    ("gibbs_mean", -0.5, r"gibbs_mean outside \[lo, hi\]"),
    ("gibbs_second_moment", math.nan, "gibbs_second_moment must be finite and non-negative"),
    ("gibbs_second_moment", math.inf, "gibbs_second_moment must be finite and non-negative"),
    ("gibbs_second_moment", -0.1, "gibbs_second_moment must be finite and non-negative"),
    ("kl_complexity", math.nan, "kl_complexity must be non-negative"),
])
def test_pb_input_rejects_bad_gibbs_aggregates(field, bad, message):
    # a NaN mean or KL gave a NaN pbub report, gibbs_mean = 5 on [0, 1] gave
    # 3.93, and pb_split_kl failed only later, with "eps is NaN"
    with pytest.raises(DomainError, match=message):
        pb_input(**{field: bad})


def test_excess_input_rejects_nan_complexity():
    # excess_informed_bound failed only later, with "eps is NaN"
    with pytest.raises(DomainError, match="kl_complexity must be non-negative"):
        x_input(kl_complexity=math.nan)


def test_pinsker_values():
    eps = math.log(400.0) / 100.0
    assert pb_kl_pinsker_relaxation(0.0, 0.0, 100, 0.05) == pytest.approx(
        2.0 * eps, abs=1e-12
    )
    expect = 0.25 + math.sqrt(2 * 0.25 * eps) + 2 * eps
    assert pb_kl_pinsker_relaxation(0.25, 0.0, 100, 0.05) == pytest.approx(
        expect, abs=1e-12
    )


def test_pinsker_dominates_kl_bound():
    rng = np.random.default_rng(0)
    mean = rng.uniform(0, 1, 1000)
    kl = rng.uniform(0, 5, 1000)
    n = rng.integers(2, 2000, 1000)
    for m, k, nn in zip(mean, kl, n):
        relaxed = pb_kl_pinsker_relaxation(m, k, int(nn), 0.05)
        exact = pb_kl_bound(m, k, int(nn), 0.05)
        assert relaxed >= exact - 1e-9


# ---------------------------------------------------------------------------
# PAC-Bayes Unexpected Bernstein
# ---------------------------------------------------------------------------


def test_pb_ub_values():
    assert pb_unexpected_bernstein(pb_input(), 0.5, 0.05) == pytest.approx(
        math.log(20.0) / 50.0, abs=1e-12
    )
    inp = pb_input(gibbs_mean=0.3, kl_complexity=2.0)
    assert pb_unexpected_bernstein(inp, 0.5, 0.05) == pytest.approx(
        0.3 + (2.0 + math.log(20.0)) / 50.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        pb_unexpected_bernstein(pb_input(), 1.0, 0.05)


def test_pb_ub_grid():
    inp = pb_input(gibbs_mean=0.2, gibbs_second_moment=0.3, kl_complexity=2.0, n=500)
    rep = pb_unexpected_bernstein_grid(inp, 0.05)
    k = rep.params["grid_size"]
    assert k == math.ceil(math.log2(math.sqrt(500 / math.log(20.0)) / 2))
    per_gamma = [
        pb_unexpected_bernstein(inp, 1.0 / 2.0**i, 0.05 / k) for i in range(1, k + 1)
    ]
    assert rep.value == pytest.approx(min(per_gamma), abs=1e-12)
    assert rep.params["gamma"] == 1.0 / 2.0 ** (int(np.argmin(per_gamma)) + 1)


# ---------------------------------------------------------------------------
# PAC-Bayes split-kl
# ---------------------------------------------------------------------------


def test_pb_split_kl_zero_case():
    inp = pb_input(lo=-1.0, hi=1.0, mu=0.0)
    eps = math.log(800.0) / 100.0
    assert pb_split_kl(inp, 0.05) == pytest.approx(1.0 - math.exp(-eps), abs=1e-10)


def test_pb_split_kl_boundary():
    inp = pb_input(lo=-1.0, hi=1.0, mu=0.25, gibbs_plus_mean=0.75, gibbs_minus_mean=1.25)
    eps = math.log(4.0 * 10.0 / 0.05) / 100.0
    expect = 0.25 + 0.75 * 1.0 - 1.25 * kl_inv_lower(1.0, eps)
    assert pb_split_kl(inp, 0.05) == pytest.approx(expect, abs=1e-10)


def test_pb_split_kl_ternary_oracle():
    inp = pb_input(
        lo=-1.0, hi=1.0, mu=0.0, gibbs_plus_mean=0.25, gibbs_minus_mean=0.25,
        kl_complexity=1.0, n=200,
    )
    eps = (1.0 + math.log(4.0 * math.sqrt(200) / 0.05)) / 200
    expect = grid_scan_inv_upper(0.25, eps) - kl_inv_lower(0.25, eps)
    assert pb_split_kl(inp, 0.05) == pytest.approx(expect, abs=2e-6)


def test_pb_split_kl_degenerate_mu():
    inp = pb_input(lo=0.0, hi=1.0, mu=0.0, gibbs_plus_mean=0.4, kl_complexity=0.7)
    eps = (0.7 + math.log(4.0 * math.sqrt(100) / 0.05)) / 100
    assert pb_split_kl(inp, 0.05) == pytest.approx(kl_inv_upper(0.4, eps), abs=1e-12)


# ---------------------------------------------------------------------------
# Test set bound
# ---------------------------------------------------------------------------


def test_test_set_bound_values():
    assert binomial_test_set_bound(50, 50, 0.3) == 1.0
    assert binomial_test_set_bound(100, 0, 0.05) == pytest.approx(
        1.0 - 0.05**0.01, abs=1e-9
    )
    p = binomial_test_set_bound(50, 5, 0.05)
    assert scipy.stats.binom.cdf(5, 50, p) == pytest.approx(0.05, abs=1e-8)


# ---------------------------------------------------------------------------
# Excess loss + informed priors
# ---------------------------------------------------------------------------


def x_input(**kw):
    base = dict(
        fwd_plus=0.0, bwd_plus=0.0, fwd_minus=0.0, bwd_minus=0.0,
        kl_complexity=0.0, n=200, ref_loss_counts=(0, 0), mu=0.0,
    )
    base.update(kw)
    return ExcessLossInput(**base)


def test_excess_informed_zero_case():
    eps = math.log(1600.0) / 100.0
    expect = (1.0 - math.exp(-eps)) + (1.0 - 0.0125 ** (1.0 / 100.0))
    assert excess_informed_bound(x_input(), 0.05) == pytest.approx(expect, abs=1e-9)


def test_excess_informed_forward_backward_symmetry():
    rng = np.random.default_rng(1)
    for _ in range(30):
        mu = rng.uniform(-0.5, 0.5)
        kw = dict(
            fwd_plus=rng.uniform(0, 1 - mu), bwd_plus=rng.uniform(0, 1 - mu),
            fwd_minus=rng.uniform(0, mu + 1), bwd_minus=rng.uniform(0, mu + 1),
            kl_complexity=rng.uniform(0, 3), n=200,
            ref_loss_counts=(int(rng.integers(0, 101)), int(rng.integers(0, 101))),
            mu=mu,
        )
        swapped = dict(
            kw,
            fwd_plus=kw["bwd_plus"], bwd_plus=kw["fwd_plus"],
            fwd_minus=kw["bwd_minus"], bwd_minus=kw["fwd_minus"],
            ref_loss_counts=kw["ref_loss_counts"][::-1],
        )
        a = excess_informed_bound(ExcessLossInput(**kw), 0.05)
        b = excess_informed_bound(ExcessLossInput(**swapped), 0.05)
        assert a == pytest.approx(b, abs=1e-12)


def test_excess_informed_vs_independent_reimplementation():
    # independent re-evaluation of the displayed bound, term by term
    rng = np.random.default_rng(2)
    for _ in range(20):
        mu = rng.uniform(-0.9, 0.9)
        n = 2 * int(rng.integers(10, 300))
        half = n // 2
        kw = dict(
            fwd_plus=rng.uniform(0, 1 - mu), bwd_plus=rng.uniform(0, 1 - mu),
            fwd_minus=rng.uniform(0, mu + 1), bwd_minus=rng.uniform(0, mu + 1),
            kl_complexity=rng.uniform(0, 3), n=n,
            ref_loss_counts=(int(rng.integers(0, half + 1)), int(rng.integers(0, half + 1))),
            mu=mu,
        )
        x = ExcessLossInput(**kw)
        eps = (kw["kl_complexity"] + math.log(8 * math.sqrt(half) / 0.05)) / half
        a = kl_inv_upper(
            0.5 * kw["fwd_plus"] / (1 - mu) + 0.5 * kw["bwd_plus"] / (1 - mu), eps
        )
        b = kl_inv_lower(
            0.5 * kw["fwd_minus"] / (mu + 1) + 0.5 * kw["bwd_minus"] / (mu + 1), eps
        )
        from splitkl.klcore import binomial_tail_inverse

        c = binomial_tail_inverse(half, kw["ref_loss_counts"][0], 0.0125) + \
            binomial_tail_inverse(half, kw["ref_loss_counts"][1], 0.0125)
        expect = mu + (1 - mu) * a - (mu + 1) * b + 0.5 * c
        assert excess_informed_bound(x, 0.05) == pytest.approx(expect, abs=1e-9)


def test_excess_informed_rejects_odd_n():
    with pytest.raises(DomainError):
        x_input(n=201)


@pytest.mark.parametrize("field, value", [("n", 100.0), ("n", "100"),
                                          ("ref_loss_counts", (7.5, 12)),
                                          ("ref_loss_counts", (7, 12.0)), ("n", True),
                                          ("ref_loss_counts", (True, 0))])
def test_excess_input_rejects_non_integer_counts(field, value):
    # n = 100.0 failed only in the bound, naming the derived n = 50.0, and
    # (7.5, 12) was reported there as k = 7.5
    with pytest.raises(DomainError, match=f"^{field} must be"):
        x_input(**{field: value})


def test_excess_input_accepts_numpy_integers():
    x = x_input(n=np.int64(200), ref_loss_counts=(np.int32(7), np.int64(12)))
    assert excess_informed_bound(x, 0.05) == excess_informed_bound(
        x_input(ref_loss_counts=(7, 12)), 0.05)


# ---------------------------------------------------------------------------
# PAC-Bayes-lambda and closed-form minimisers
# ---------------------------------------------------------------------------


def test_pb_lambda_values():
    assert pb_lambda_upper(0.0, 0.0, 100, 0.05, 1.0) == pytest.approx(
        2.0 * math.log(400.0) / 100.0, abs=1e-12
    )
    comp = math.log(400.0)
    assert pb_lambda_lower(0.0, 0.0, 100, 0.05, 0.5) == pytest.approx(
        -comp / 50.0, abs=1e-12
    )
    with pytest.raises(DomainError):
        pb_lambda_upper(0.1, 0.0, 100, 0.05, 2.0)
    with pytest.raises(DomainError):
        pb_lambda_lower(0.1, 0.0, 100, 0.05, 0.0)


def test_pb_lambda_lower_at_infinite_gamma_is_its_limit():
    # optimal_gamma is +inf at a mean of 0, where (1 - inf/2) * 0 gave NaN
    gamma = optimal_gamma(0.0, 1.0, 100, 0.05)
    assert gamma == math.inf
    assert pb_lambda_lower(0.0, 1.0, 100, 0.05, gamma) == 0.0
    assert pb_lambda_lower(0.3, 1.0, 100, 0.05, math.inf) == -math.inf
    # the limit of large finite gammas
    assert pb_lambda_lower(0.0, 1.0, 100, 0.05, 1e12) == pytest.approx(0.0, abs=1e-12)
    assert pb_lambda_lower(0.3, 1.0, 100, 0.05, 1e12) < -1e10
    with pytest.raises(DomainError, match="gamma must be positive"):
        pb_lambda_lower(0.0, 1.0, 100, 0.05, math.nan)


@pytest.mark.parametrize("kl, n", [(-5.0, 100), (math.nan, 100), (0.0, 0)])
def test_lambda_forms_reject_bad_complexity_and_n(kl, n):
    # KL = -5 gave pb_lambda_upper 0.2198 against 0.3198 at KL = 0, a NaN KL
    # came back as NaN and n = 0 was a bare ValueError
    for call in (lambda: pb_lambda_upper(0.1, kl, n, 0.05, 1.0),
                 lambda: pb_lambda_lower(0.1, kl, n, 0.05, 0.5),
                 lambda: optimal_lambda(0.1, kl, n, 0.05),
                 lambda: optimal_gamma(0.1, kl, n, 0.05)):
        with pytest.raises(DomainError, match="need KL >= 0, n >= 1, delta in"):
            call()


@pytest.mark.parametrize("gibbs_mean", [-0.1, 1.1, math.nan])
def test_pinsker_rejects_gibbs_mean_outside_unit_interval(gibbs_mean):
    # -0.1 was a bare ValueError from math.sqrt
    with pytest.raises(DomainError, match=r"gibbs_mean outside \[0, 1\]"):
        pb_kl_pinsker_relaxation(gibbs_mean, 0.1, 100, 0.05)


@pytest.mark.parametrize("gibbs_mean", [-0.5, 1.5, math.nan])
def test_lambda_forms_reject_gibbs_mean_outside_unit_interval(gibbs_mean):
    # pb_lambda_upper(-0.5, ...) gave -0.880, a NaN mean gave NaN,
    # pb_lambda_lower(1.5, ...) gave 1.005 and optimal_lambda(1.5, ...) 0.246
    for call in (lambda: pb_lambda_upper(gibbs_mean, 0.0, 100, 0.05, 1.0),
                 lambda: pb_lambda_lower(gibbs_mean, 0.0, 100, 0.05, 0.5),
                 lambda: optimal_lambda(gibbs_mean, 0.0, 100, 0.05),
                 lambda: optimal_gamma(gibbs_mean, 0.0, 100, 0.05)):
        with pytest.raises(DomainError, match=r"gibbs_mean outside \[0, 1\]"):
            call()


def test_optimal_lambda_closed_form():
    assert optimal_lambda(0.0, 0.0, 100, 0.05) == 1.0
    expect = 2.0 / (math.sqrt(2 * 100 * 0.25 / math.log(400.0) + 1.0) + 1.0)
    assert optimal_lambda(0.25, 0.0, 100, 0.05) == pytest.approx(expect, abs=1e-12)


def test_optimal_lambda_minimises_on_grid():
    rng = np.random.default_rng(3)
    grid = np.arange(0.01, 2.0, 0.01)
    for _ in range(500):
        m = rng.uniform(0, 1)
        k = rng.uniform(0, 5)
        n = int(rng.integers(2, 5000))
        star = optimal_lambda(m, k, n, 0.05)
        f_star = pb_lambda_upper(m, k, n, 0.05, star)
        f_grid = min(pb_lambda_upper(m, k, n, 0.05, g) for g in grid)
        assert f_star <= f_grid + 1e-3


def test_optimal_gamma_sentinel():
    assert optimal_gamma(0.0, 1.0, 100, 0.05) == math.inf
    g = optimal_gamma(0.25, 0.0, 100, 0.05)
    assert g == pytest.approx(math.sqrt(math.log(400.0) / 25.0), abs=1e-12)


def test_lambda_upper_dominates_pb_kl():
    rng = np.random.default_rng(4)
    for _ in range(1000):
        m = rng.uniform(0, 1)
        k = rng.uniform(0, 5)
        n = int(rng.integers(1, 3000))
        lam = optimal_lambda(m, k, n, 0.05)
        assert pb_lambda_upper(m, k, n, 0.05, lam) >= pb_kl_bound(m, k, n, 0.05) - 1e-9


def test_monotonicity_in_kl_and_n():
    rng = np.random.default_rng(5)
    for _ in range(100):
        m = rng.uniform(0, 1)
        k = rng.uniform(0, 4)
        n = int(rng.integers(2, 2000))
        inp = pb_input(
            gibbs_mean=m, gibbs_second_moment=m, gibbs_plus_mean=m,
            kl_complexity=k, n=n, mu=0.0, lo=-1.0, hi=1.0,
        )
        inp_bigger_kl = pb_input(
            gibbs_mean=m, gibbs_second_moment=m, gibbs_plus_mean=m,
            kl_complexity=k + 1.0, n=n, mu=0.0, lo=-1.0, hi=1.0,
        )
        inp_bigger_n = pb_input(
            gibbs_mean=m, gibbs_second_moment=m, gibbs_plus_mean=m,
            kl_complexity=k, n=2 * n, mu=0.0, lo=-1.0, hi=1.0,
        )
        for f in (
            lambda i: pb_kl_bound(i.gibbs_mean, i.kl_complexity, i.n, 0.05),
            lambda i: pb_kl_pinsker_relaxation(i.gibbs_mean, i.kl_complexity, i.n, 0.05),
            lambda i: pb_unexpected_bernstein_grid(i, 0.05).value,
            lambda i: pb_split_kl(i, 0.05),
        ):
            assert f(inp_bigger_kl) >= f(inp) - 1e-12
            assert f(inp_bigger_n) <= f(inp) + 1e-12


@settings(derandomize=True, deadline=None, max_examples=200)
@given(seed=st.integers(0, 2**32 - 1))
def test_bounds_non_increasing_in_n(seed):
    # at fixed statistics, more samples never loosen a bound: n + extra,
    # up to 5% more, against n, log-uniform in [2, 20000].  The Unexpected
    # Bernstein grids (UB, PB-UB) are left out: their union bound grows
    # with n, and the bound rises where it does.  At mean 0.1, second
    # moment 0.02 and delta 0.05 the grid goes from 1 to 2 points at
    # n = 48, and the UB bound rises 0.2352 -> 0.2614 from n = 47 to 48; it
    # rises again at n = 192, 767 and 3068.
    rng = np.random.default_rng(seed)
    n = int(math.exp(rng.uniform(math.log(2.0), math.log(20000.0))))
    extra = 1 + int(n * rng.uniform(0.0, 0.05))
    mean, spread, mu = rng.uniform(size=3)
    kl, delta = rng.uniform(0.0, 5.0), rng.uniform(1e-4, 0.9)
    plus, minus = mean * (1.0 - mu), spread * mu

    def pb(k):
        return pb_input(gibbs_mean=mean, gibbs_second_moment=mean, gibbs_plus_mean=plus,
                        gibbs_minus_mean=minus, kl_complexity=kl, n=k, mu=mu)

    bounds = {
        "kl": lambda k: kl_upper_bound(mean, k, delta, 0.0, 1.0),
        "eb": lambda k: empirical_bernstein_bound(
            EmpiricalSummary(k, mean, mean, spread * mean * (1.0 - mean), 0.0, 1.0), delta),
        "split-kl": lambda k: split_kl_bound(SplitSummary(k, mu, plus, minus, 0.0, 1.0), delta),
        "pb-kl": lambda k: pb_kl_bound(mean, kl, k, delta),
        "refined-pinsker": lambda k: pb_kl_pinsker_relaxation(mean, kl, k, delta),
        "pb-split-kl": lambda k: pb_split_kl(pb(k), delta),
        "pb-lambda": lambda k: pb_lambda_upper(mean, kl, k, delta,
                                               optimal_lambda(mean, kl, k, delta)),
    }
    for name, bound in bounds.items():
        assert bound(n + extra) <= bound(n), name


def test_pb_kl_coverage_single_hypothesis():
    # KL = 0 reduces to the scalar kl construction with the 2 sqrt(n) factor
    rng = np.random.default_rng(6)
    trials, n, delta, p = 2000, 50, 0.1, 0.35
    violations = 0
    x = rng.binomial(1, p, size=(trials, n))
    means = x.mean(axis=1)
    for m in means:
        if p > pb_kl_bound(m, 0.0, n, delta):
            violations += 1
    assert violations / trials <= delta + 3 * math.sqrt(delta * (1 - delta) / trials)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, math.nan])
def test_pac_bayes_bounds_reject_delta_outside_unit_interval(delta):
    # delta = 3 gave PAC-Bayes-split-kl 0.444 against 0.501 at delta = 0.05
    inp = pb_input(gibbs_mean=0.3, gibbs_second_moment=0.2, gibbs_plus_mean=0.1,
                   gibbs_minus_mean=0.3, kl_complexity=2.0, mu=0.5)
    calls = [
        lambda: pb_unexpected_bernstein(inp, 0.5, delta),
        lambda: pb_split_kl(inp, delta),
        lambda: pb_lambda_upper(0.3, 2.0, 100, delta, 0.5),
        lambda: pb_lambda_lower(0.3, 2.0, 100, delta, 0.5),
        lambda: optimal_lambda(0.3, 2.0, 100, delta),
        lambda: optimal_gamma(0.3, 2.0, 100, delta),
        lambda: excess_informed_bound(x_input(ref_loss_counts=(7, 12)), delta),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"delta outside \(0, 1\)"):
            call()


_PB_FIELDS = dict(gibbs_mean=0.3, gibbs_second_moment=0.2, gibbs_plus_mean=0.1,
                  gibbs_minus_mean=0.1, kl_complexity=1.0, n=100, lo=0.0, hi=1.0, mu=0.5)
_EXCESS_FIELDS = dict(fwd_plus=0.1, bwd_plus=0.1, fwd_minus=0.1, bwd_minus=0.1,
                      kl_complexity=1.0, n=100, ref_loss_counts=(5, 6), mu=0.0)


@pytest.mark.parametrize("call, message", [
    (lambda: PacBayesInput(**dict(_PB_FIELDS, n=0)), "need n >= 1"),
    (lambda: PacBayesInput(**dict(_PB_FIELDS, mu=1.5)), "mu outside [lo, hi]"),
    (lambda: PacBayesInput(**dict(_PB_FIELDS, gibbs_minus_mean=0.6)),
     "gibbs_minus_mean outside [0, mu - lo]"),
    (lambda: ExcessLossInput(**dict(_EXCESS_FIELDS, mu=1.5)), "mu outside [-1, 1]"),
    (lambda: ExcessLossInput(**dict(_EXCESS_FIELDS, ref_loss_counts=(5, 51))),
     "reference error counts outside [0, n/2]"),
    (lambda: ExcessLossInput(**dict(_EXCESS_FIELDS, bwd_minus=1.5)),
     "split mean outside its range"),
])
def test_pacbayes_input_checks_raise(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


_WIDEST = dict(_PB_FIELDS, gibbs_mean=0.0, gibbs_plus_mean=0.0, gibbs_minus_mean=0.0,
               lo=-1e308, hi=1e308)


@pytest.mark.parametrize("call, message", [
    # mu - lo and hi - mu overflow to inf, which an infinite split mean does not meet
    (lambda: PacBayesInput(**dict(_WIDEST, mu=1e308, gibbs_minus_mean=math.inf)),
     "gibbs_minus_mean outside [0, mu - lo]"),
    (lambda: PacBayesInput(**dict(_WIDEST, mu=-1e308, gibbs_plus_mean=math.inf)),
     "gibbs_plus_mean outside [0, hi - mu]"),
], ids=["gibbs_minus_mean", "gibbs_plus_mean"])
def test_gibbs_split_means_must_be_finite_where_their_cap_overflows(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message


@settings(derandomize=True, deadline=None, max_examples=2000)
@given(n=st.integers(1, 10**9), delta=st.floats(1e-12, 1.0, exclude_max=True))
def test_confidence_term_at_delta_over_c_is_the_constant_2c(n, delta):
    # the union over c terms, written once as ln(2 sqrt(n) / (delta / c))
    assert _pb_confidence(n, delta / 2.0) == math.log(4.0 * math.sqrt(n) / delta)
    assert _pb_confidence(n, delta / 4.0) == math.log(8.0 * math.sqrt(n) / delta)
