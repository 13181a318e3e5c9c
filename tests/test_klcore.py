import math

import numpy as np
import pytest
import scipy.stats

from splitkl.errors import DomainError
from splitkl.klcore import (
    bernoulli_kl,
    binomial_tail,
    binomial_tail_inverse,
    discrete_kl,
    kl_inv_lower,
    kl_inv_upper,
    phi,
    psi,
)

# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------

GRID_STEP = 1e-6
GRID = np.arange(0.0, 1.0 + GRID_STEP / 2, GRID_STEP)
LOG_GRID = np.log(np.clip(GRID, 1e-300, None))
LOG1M_GRID = np.log(np.clip(1.0 - GRID, 1e-300, None))


def grid_scan_inv_upper(p_hat, eps):
    """Brute-force max{p on the 1e-6 grid : kl(p_hat||p) <= eps}."""
    start = int(math.floor(p_hat / GRID_STEP))
    seg = slice(start, len(GRID))
    const = (p_hat * math.log(p_hat) if p_hat > 0 else 0.0) + (
        (1 - p_hat) * math.log(1 - p_hat) if p_hat < 1 else 0.0
    )
    kl_vals = const - p_hat * LOG_GRID[seg] - (1 - p_hat) * LOG1M_GRID[seg]
    feasible = np.nonzero(kl_vals <= eps)[0]
    return GRID[seg][feasible[-1]]


def grid_scan_inv_lower(p_hat, eps):
    stop = int(math.ceil(p_hat / GRID_STEP)) + 1
    seg = slice(0, stop)
    const = (p_hat * math.log(p_hat) if p_hat > 0 else 0.0) + (
        (1 - p_hat) * math.log(1 - p_hat) if p_hat < 1 else 0.0
    )
    kl_vals = const - p_hat * LOG_GRID[seg] - (1 - p_hat) * LOG1M_GRID[seg]
    feasible = np.nonzero(kl_vals <= eps)[0]
    return GRID[seg][feasible[0]]


# ---------------------------------------------------------------------------
# bernoulli_kl
# ---------------------------------------------------------------------------


def test_bernoulli_kl_identical_is_zero():
    for p in [0.0, 0.3, 0.5, 1.0]:
        assert bernoulli_kl(p, p) == 0.0


def test_bernoulli_kl_closed_forms():
    assert bernoulli_kl(0.5, 0.75) == pytest.approx(0.5 * math.log(4.0 / 3.0), abs=1e-12)
    assert bernoulli_kl(0.0, 0.3) == pytest.approx(math.log(1.0 / 0.7), abs=1e-12)


def test_bernoulli_kl_infinite_cases():
    assert bernoulli_kl(0.5, 0.0) == math.inf
    assert bernoulli_kl(0.5, 1.0) == math.inf
    assert bernoulli_kl(1.0, 1.0) == 0.0
    assert bernoulli_kl(0.0, 0.0) == 0.0


def test_bernoulli_kl_domain():
    with pytest.raises(DomainError):
        bernoulli_kl(-0.1, 0.5)
    with pytest.raises(DomainError):
        bernoulli_kl(0.5, 1.1)


# ---------------------------------------------------------------------------
# kl inverses
# ---------------------------------------------------------------------------


def test_kl_inv_upper_trivial_and_closed_form():
    assert kl_inv_upper(0.3, 0.0) == 0.3
    for eps in [0.01, 0.3, 2.0]:
        assert kl_inv_upper(0.0, eps) == pytest.approx(1.0 - math.exp(-eps), abs=1e-10)


def test_kl_inv_upper_matches_grid_scan():
    assert kl_inv_upper(0.2, 0.05) == pytest.approx(grid_scan_inv_upper(0.2, 0.05), abs=2e-6)


def test_kl_inv_lower_trivial_and_closed_form():
    assert kl_inv_lower(0.3, 0.0) == 0.3
    for eps in [0.01, 0.3, 2.0]:
        assert kl_inv_lower(1.0, eps) == pytest.approx(math.exp(-eps), abs=1e-10)


def test_kl_inv_lower_symmetry_example():
    assert kl_inv_lower(0.8, 0.05) == pytest.approx(1.0 - kl_inv_upper(0.2, 0.05), abs=1e-9)


def test_kl_inv_order_and_monotonicity_in_eps():
    rng = np.random.default_rng(7)
    p_hat = rng.uniform(0, 1, 300)
    eps1 = rng.uniform(0, 1, 300)
    eps2 = eps1 + rng.uniform(0, 1, 300)
    up1, up2 = kl_inv_upper(p_hat, eps1), kl_inv_upper(p_hat, eps2)
    lo1, lo2 = kl_inv_lower(p_hat, eps1), kl_inv_lower(p_hat, eps2)
    assert np.all(up1 >= p_hat) and np.all(lo1 <= p_hat)
    assert np.all(up1 <= up2 + 1e-12)
    assert np.all(lo1 >= lo2 - 1e-12)


def test_kl_inv_round_trip():
    rng = np.random.default_rng(11)
    p_hat = rng.uniform(0.01, 0.95, 300)
    eps = rng.uniform(1e-4, 0.5, 300)
    up = kl_inv_upper(p_hat, eps)
    ok = up < 1.0 - 1e-6
    assert np.allclose(bernoulli_kl(p_hat[ok], up[ok]), eps[ok], atol=1e-8)
    lo = kl_inv_lower(p_hat, eps)
    ok = lo > 1e-6
    assert np.allclose(bernoulli_kl(p_hat[ok], lo[ok]), eps[ok], atol=1e-8)


def test_kl_inv_symmetry_property():
    rng = np.random.default_rng(23)
    p_hat = rng.uniform(0, 1, 200)
    eps = rng.uniform(0, 2, 200)
    lhs = kl_inv_lower(p_hat, eps)
    rhs = 1.0 - kl_inv_upper(1.0 - p_hat, eps)
    assert np.allclose(lhs, rhs, atol=1e-9)


def test_kl_inv_infinite_eps():
    assert kl_inv_upper(0.4, math.inf) == 1.0
    assert kl_inv_lower(0.4, math.inf) == 0.0


def _one_element_vector_call(fn, p, e):
    return fn(np.array([p]), np.array([e]))[0]


def test_kl_inv_scalar_path_matches_vector_path_bitwise():
    # criterion 1's inputs, then the edges of both arguments
    rng = np.random.default_rng(2024)
    cases = list(zip(rng.uniform(0, 1, 1000), 10.0 ** rng.uniform(-4, 0.5, 1000)))
    cases += [(p, e) for p in (0.0, 1.0, 0.3) for e in (0.0, math.inf, 1e-300, 0.05)]
    for p, e in cases:
        for fn in (kl_inv_upper, kl_inv_lower):
            scalar = fn(float(p), float(e))
            assert isinstance(scalar, float)
            assert scalar == _one_element_vector_call(fn, p, e), (fn.__name__, p, e)


@pytest.mark.parametrize("p, e", [(-0.1, 0.1), (1.1, 0.1), (0.3, -0.1),
                                  (0.3, math.nan), (math.nan, 0.1)])
def test_kl_inv_scalar_and_vector_paths_raise_the_same_error(p, e):
    for fn in (kl_inv_upper, kl_inv_lower):
        with pytest.raises(DomainError) as scalar:
            fn(p, e)
        with pytest.raises(DomainError) as vector:
            _one_element_vector_call(fn, p, e)
        assert str(scalar.value) == str(vector.value)


def test_kl_inv_rows_match_one_dimensional_calls():
    # each row along the last axis stops bisecting as a 1-d call on that
    # row alone would, so a batched call equals the per-row calls exactly
    rng = np.random.default_rng(31)
    p = rng.uniform(0, 1, (7, 40))
    e = 10.0 ** rng.uniform(-4, 0.5, (7, 40))
    e[0, :10] = 0.0
    e[1, :10] = math.inf
    p[2, :10], p[2, 10:20] = 0.0, 1.0
    p[3] = 1.0 - 1e-6 * rng.uniform(size=40)  # narrow upper brackets
    p[4] = 1e-6 * rng.uniform(size=40)  # narrow lower brackets
    e[5] = 0.0  # every bracket pinned: no halving at all
    e[6] = math.inf
    for fn in (kl_inv_upper, kl_inv_lower):
        rows = np.stack([fn(p[i], e[i]) for i in range(len(p))])
        assert (fn(p, e) == rows).all(), fn.__name__
        assert (fn(p[:6].reshape(2, 3, 40), e[:6].reshape(2, 3, 40))
                == rows[:6].reshape(2, 3, 40)).all(), fn.__name__
        scalar_eps = np.stack([fn(p[i], 0.05) for i in range(len(p))])
        assert (fn(p, 0.05) == scalar_eps).all(), fn.__name__
    # a row stops as a whole: a narrow bracket keeps halving while a wider
    # one in its row is still open
    assert kl_inv_upper(np.array([1 - 1e-6]), 0.05)[0] == 0.9999999999923705
    assert kl_inv_upper(np.array([1 - 1e-6, 0.2]), 0.05)[0] == 0.9999999999999999
    assert kl_inv_lower(np.array([1e-6]), 0.05)[0] == 7.62939453125e-12
    assert kl_inv_lower(np.array([1e-6, 0.7]), 0.05)[0] == 7.275957614183426e-18


@pytest.mark.parametrize("shape", [(0,), (3, 0), (0, 3)])
def test_kl_inv_empty_input_returns_empty_array(shape):
    for fn in (kl_inv_upper, kl_inv_lower):
        for out in (fn(np.zeros(shape), 0.1), fn(0.3, np.zeros(shape))):
            assert isinstance(out, np.ndarray) and out.shape == shape, fn.__name__
    assert kl_inv_upper(np.zeros((3, 1)), np.zeros(0)).shape == (3, 0)


def test_kl_inv_rejects_nan():
    with pytest.raises(DomainError, match="eps is NaN"):
        kl_inv_upper(0.3, math.nan)
    with pytest.raises(DomainError, match="p_hat is NaN"):
        kl_inv_lower(math.nan, 0.1)
    with pytest.raises(DomainError, match="p_hat is NaN"):
        kl_inv_upper(np.array([0.2, math.nan]), 0.1)


# ---------------------------------------------------------------------------
# discrete_kl
# ---------------------------------------------------------------------------


def test_discrete_kl_values():
    rho = np.array([0.2, 0.3, 0.5])
    assert discrete_kl(rho, rho) == 0.0
    assert discrete_kl([1.0, 0.0], [0.5, 0.5]) == pytest.approx(math.log(2), abs=1e-12)
    assert discrete_kl([0.25, 0.75], [0.5, 0.5]) == pytest.approx(
        0.25 * math.log(0.5) + 0.75 * math.log(1.5), abs=1e-12
    )


def test_discrete_kl_absolute_continuity():
    assert discrete_kl([0.5, 0.5], [1.0, 0.0]) == math.inf
    assert discrete_kl([1.0, 0.0], [0.0, 1.0]) == math.inf


def test_discrete_kl_length_mismatch():
    with pytest.raises(DomainError):
        discrete_kl([1.0], [0.5, 0.5])


def test_discrete_kl_product_distribution_doubles():
    # KL(rho x rho || pi x pi) over all H^2 pairs equals 2 KL(rho || pi);
    # this underwrites the 2KL factor in the majority-vote bounds.
    rng = np.random.default_rng(3)
    for _ in range(20):
        h = rng.integers(2, 8)
        rho = rng.dirichlet(np.ones(h))
        pi = rng.dirichlet(np.ones(h))
        prod_rho = np.outer(rho, rho).ravel()
        prod_pi = np.outer(pi, pi).ravel()
        assert discrete_kl(prod_rho, prod_pi) == pytest.approx(
            2.0 * discrete_kl(rho, pi), abs=1e-9
        )


# ---------------------------------------------------------------------------
# binomial tail and inverse
# ---------------------------------------------------------------------------


def test_binomial_tail_values():
    assert binomial_tail(10, 10, 0.3) == 1.0
    assert binomial_tail(2, 1, 0.5) == pytest.approx(0.75, abs=1e-12)
    assert binomial_tail(5, 0, 0.2) == pytest.approx(0.8**5, abs=1e-12)


def test_binomial_tail_matches_scipy():
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 400))
        k = int(rng.integers(0, n + 1))
        p = float(rng.uniform(0, 1))
        assert binomial_tail(n, k, p) == pytest.approx(
            scipy.stats.binom.cdf(k, n, p), abs=1e-10
        )


def test_binomial_tail_large_n_stable():
    val = binomial_tail(10**6, 499_000, 0.5)
    assert 0.0 < val < 1.0 and np.isfinite(val)


def test_binomial_tail_non_increasing_in_p():
    ps = np.linspace(0, 1, 50)
    vals = [binomial_tail(30, 7, p) for p in ps]
    assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_binomial_tail_domain():
    with pytest.raises(DomainError):
        binomial_tail(5, 6, 0.5)


def test_binomial_tail_inverse_values():
    assert binomial_tail_inverse(7, 7, 0.3) == 1.0
    assert binomial_tail_inverse(2, 1, 0.75) == pytest.approx(0.5, abs=1e-9)
    assert binomial_tail_inverse(5, 0, 0.32768) == pytest.approx(0.2, abs=1e-8)


def test_binomial_tail_inverse_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(0, n))
        delta = float(rng.uniform(0.01, 0.95))
        p = binomial_tail_inverse(n, k, delta)
        assert binomial_tail(n, k, p) == pytest.approx(delta, abs=1e-8)


# ---------------------------------------------------------------------------
# psi / phi
# ---------------------------------------------------------------------------


def test_psi_values():
    assert psi(0.0) == 0.0
    assert psi(-0.5) == pytest.approx(-0.5 + math.log(2), abs=1e-12)
    assert psi(1.0) == pytest.approx(1.0 - math.log(2), abs=1e-12)
    with pytest.raises(DomainError):
        psi(-1.0)


def test_psi_nonnegative():
    u = np.linspace(-0.999, 10, 1000)
    assert np.all(psi(u) >= 0)


def test_phi_values():
    assert phi(0.0) == 0.0
    assert phi(1.0) == pytest.approx(math.e - 2.0, abs=1e-12)
    assert phi(-1.0) == pytest.approx(1.0 / math.e, abs=1e-12)
    x = np.linspace(-5, 5, 500)
    assert np.all(phi(x) >= 0)
