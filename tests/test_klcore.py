import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.special
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from splitkl import concentration as cn, pacbayes as pb
from splitkl.errors import DomainError
from splitkl.klcore import (
    BISECT_MAX_ITER,
    BISECT_WIDTH,
    _discrete_kl_unchecked,
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


def test_bernoulli_kl_matches_scipy_xlogy():
    # scipy.special.xlogy as the oracle; kl cancels its terms, so each finite
    # value is held to 1e-15 of the size of its terms.  The ends of [0, 1]
    # take 0 ln 0 = 0, or give +inf under a bias at the other end.
    rng = np.random.default_rng(5)
    ends = np.array([0.0, 1.0, 0.5, 1e-300, 1.0 - 2.0**-53])
    p = np.concatenate([rng.uniform(size=2000), np.repeat(ends, len(ends))])
    q = np.concatenate([rng.uniform(size=2000), np.tile(ends, len(ends))])
    xlogy = scipy.special.xlogy
    terms = [xlogy(p, p), -xlogy(p, q), xlogy(1.0 - p, 1.0 - p), -xlogy(1.0 - p, 1.0 - q)]
    expected = np.maximum((terms[0] + terms[1]) + (terms[2] + terms[3]), 0.0)
    got = bernoulli_kl(p, q)
    inf = np.isinf(expected)
    assert 0 < inf.sum() and (got[inf] == math.inf).all()
    assert (got[(p == q) & np.isin(p, [0.0, 1.0])] == 0.0).all()
    scale = sum(np.abs(t[~inf]) for t in terms)
    assert np.all(np.abs(got[~inf] - expected[~inf]) <= 1e-15 * scale)
    assert [bernoulli_kl(a, b) for a, b in zip(p, q)] == got.tolist()


def test_np_log_of_a_float_equals_its_array_element():
    # the premise of the scalar kl inverse, psi and phi equalling the array
    # ones bit for bit: numpy's log, log1p and expm1 return the same bits for
    # a float as for that float inside a contiguous or a strided array
    rng = np.random.default_rng(2)
    x = np.concatenate([
        rng.uniform(size=50000),
        10.0 ** rng.uniform(-20.0, 0.0, 10000),
        10.0 ** rng.uniform(-323.3, -307.7, 5000),  # subnormals
        1.0 - rng.uniform(size=5000) * 1e-6,
        1.0 - np.arange(1, 5001) * 2.0**-53,  # the floats just below 1
        1.0 + np.arange(0, 5000) * 2.0**-52,  # 1 and the floats just above it
        [5e-324, np.finfo(float).tiny, 0.5],
    ])
    # psi takes log1p on (-1, inf), phi expm1 on the reals short of overflow
    signed = np.concatenate([x, x - 1.0, -x, 10.0 ** rng.uniform(0.0, 2.8, 5000)])
    for f, values in ((np.log, x), (np.log1p, signed[signed > -1.0]),
                      (np.expm1, np.concatenate([signed, -signed]))):
        scalar = [float(f(v)) for v in values.tolist()]
        assert _same_bits(f(values), scalar), f.__name__
        assert _same_bits(f(np.repeat(values, 2)[::2]), scalar), f.__name__


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
    # every element bisects its own bracket, so a batched call equals the
    # per-row calls exactly
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
    # a narrow bracket stops on its own, however wide its neighbours are
    for fn, narrow, wide in ((kl_inv_upper, 1 - 1e-6, 0.2), (kl_inv_lower, 1e-6, 0.7)):
        pair = fn(np.array([narrow, wide]), 0.05)
        assert pair[0] == fn(narrow, 0.05) and pair[1] == fn(wide, 0.05), fn.__name__


def np_xlogy(x, y):
    """x ln y with 0 ln y = 0, elementwise by numpy's log."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(x == 0, 0.0, x * np.log(y))


def rowwise_kl_inv(p_hat, eps, upper):
    """Oracle for the array kl inverses: every element of the array is
    bisected in place, rows of the last axis side by side with no sharing of
    repeated pairs, and each bracket halves until it is narrow."""
    ph_b, ev_b = np.broadcast_arrays(np.asarray(p_hat, dtype=float), np.asarray(eps, dtype=float))
    shape = ph_b.shape
    ph_f = ph_b.reshape(-1, shape[-1]).astype(float)
    ev_f = ev_b.reshape(-1, shape[-1]).astype(float)
    pinned = ev_f == 0.0
    if upper:
        lo, hi = ph_f.copy(), np.ones_like(ph_f)
        hi[pinned] = ph_f[pinned]
        lo[np.isinf(ev_f) | (ph_f >= 1.0)] = 1.0
    else:
        lo, hi = np.zeros_like(ph_f), ph_f.copy()
        lo[pinned] = ph_f[pinned]
        hi[np.isinf(ev_f) | (ph_f <= 0.0)] = 0.0
    qh_f = 1.0 - ph_f
    ph_term, qh_term = np_xlogy(ph_f, ph_f), np_xlogy(qh_f, qh_f)
    with np.errstate(divide="ignore", invalid="ignore"):
        for _ in range(BISECT_MAX_ITER):
            active = hi - lo > BISECT_WIDTH
            if not active.any():
                break
            mid = 0.5 * (lo + hi)
            kl = (ph_term - np_xlogy(ph_f, mid)) + (qh_term - np_xlogy(qh_f, 1.0 - mid))
            up = (kl <= ev_f) == upper
            lo = np.where(active & up, mid, lo)
            hi = np.where(active & ~up, mid, hi)
    return (hi if upper else lo).reshape(shape)


def _same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and (a.view(np.uint64) == b.view(np.uint64)).all()


# A small pool, so that arrays repeat (p_hat, eps) pairs many times, with the
# signed zero, the ends of [0, 1] and brackets of very different widths.
P_POOL = [0.0, -0.0, 1.0, 1e-300, 1e-6, 0.07, 0.25, 1 / 3, 0.5, 0.9, 1 - 1e-6]
EPS_POOL = [0.0, 5e-324, 1e-20, 1e-3, 0.05, 1.5, math.inf]
P_VALUES = st.one_of(st.sampled_from(P_POOL), st.floats(0.0, 1.0))
EPS_VALUES = st.one_of(st.sampled_from(EPS_POOL), st.floats(0.0, 10.0))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       eps_form=st.sampled_from(["scalar", "last_axis", "full"]))
def test_kl_inv_arrays_match_scalar_calls_bitwise(data, shape, eps_form):
    shape = tuple(shape)
    p = data.draw(hnp.arrays(float, shape, elements=P_VALUES), label="p")
    eps_shape = {"scalar": (), "last_axis": shape[-1:], "full": shape}[eps_form]
    e = data.draw(hnp.arrays(float, eps_shape, elements=EPS_VALUES), label="eps")
    p_b, e_b = np.broadcast_arrays(p, e)
    for fn in (kl_inv_upper, kl_inv_lower):
        scalar = [fn(float(pi), float(ei)) for pi, ei in zip(p_b.ravel(), e_b.ravel())]
        assert _same_bits(fn(p, e), np.reshape(scalar, shape)), fn.__name__


@settings(derandomize=True, deadline=None, max_examples=300)
@given(data=st.data(), shape=st.lists(st.integers(1, 6), min_size=1, max_size=3),
       eps_form=st.sampled_from(["scalar", "last_axis", "full"]))
def test_kl_inv_arrays_match_rowwise_oracle_bitwise(data, shape, eps_form):
    shape = tuple(shape)
    p = data.draw(hnp.arrays(float, shape, elements=st.sampled_from(P_POOL)), label="p")
    eps_shape = {"scalar": (), "last_axis": shape[-1:], "full": shape}[eps_form]
    e = data.draw(hnp.arrays(float, eps_shape, elements=st.sampled_from(EPS_POOL)), label="eps")
    for fn, upper in ((kl_inv_upper, True), (kl_inv_lower, False)):
        assert _same_bits(fn(p, e), rowwise_kl_inv(p, e, upper)), fn.__name__


def test_kl_inv_random_arrays_match_rowwise_oracle_bitwise():
    rng = np.random.default_rng(7)
    p = np.concatenate([rng.uniform(size=(6, 50)), rng.integers(0, 101, (6, 50)) / 100])
    e = np.where(rng.uniform(size=p.shape) < 0.1, 0.0, 10.0 ** rng.uniform(-4, 0.5, p.shape))
    for fn, upper in ((kl_inv_upper, True), (kl_inv_lower, False)):
        assert _same_bits(fn(p, e), rowwise_kl_inv(p, e, upper)), fn.__name__
        assert _same_bits(fn(p, 0.05), rowwise_kl_inv(p, 0.05, upper)), fn.__name__


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(p=P_VALUES, eps=EPS_VALUES)
def test_kl_inv_rounds_outward(p, eps):
    # each inverse returns the infeasible end of its final bracket, or an
    # end of [0, 1], so it never falls short of the exact inverse
    up, lo = kl_inv_upper(p, eps), kl_inv_lower(p, eps)
    assert up == 1.0 or bernoulli_kl(p, up) >= eps
    assert lo == 0.0 or bernoulli_kl(p, lo) >= eps
    assert lo <= p <= up


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=P_VALUES, eps=st.lists(EPS_VALUES, min_size=2, max_size=12))
def test_kl_inv_monotone_in_eps(p, eps):
    # a larger eps takes the feasible side at every midpoint where a smaller
    # one does, so the two brackets part at most once, exactly
    eps = np.sort(eps)
    for fn, sign in ((kl_inv_upper, 1.0), (kl_inv_lower, -1.0)):
        array = fn(p, eps)
        scalar = np.array([fn(p, float(e)) for e in eps])
        for r in (array, scalar):
            assert np.all(sign * np.diff(r) >= 0.0), fn.__name__


# Near p_hat, kl(p_hat || p) ~ (p - p_hat)^2 / (2 p_hat (1 - p_hat)) falls below
# its float rounding (a few 1e-16) for |p - p_hat| up to about 1e-8, so for
# tiny eps the inverses resolve p only to that width.  For eps >= 1e-8 the
# rounding moves an inverse by far less than one bracket.
KL_ROUNDING_WIDTH = 2e-8


@settings(derandomize=True, deadline=None, max_examples=300)
@given(p=st.lists(P_VALUES, min_size=2, max_size=12), eps=EPS_VALUES)
def test_kl_inv_monotone_in_p_hat(p, eps):
    # each inverse lies within one bracket of where the computed kl crosses
    # eps, which moves with p_hat up to the kl's rounding; two brackets and
    # the rounding width bound any drop
    p = np.sort(np.abs(p))
    slack = 2.0 * BISECT_WIDTH + (KL_ROUNDING_WIDTH if eps < 1e-8 else 0.0)
    for fn in (kl_inv_upper, kl_inv_lower):
        array = fn(p, eps)
        scalar = np.array([fn(float(v), eps) for v in p])
        for r in (array, scalar):
            assert np.all(np.diff(r) >= -slack), fn.__name__


def test_kl_inv_monotone_in_p_hat_on_dense_grids():
    # neighbouring floats and 1e-7 spacings, where the drops are largest
    rng = np.random.default_rng(5)
    for center in (1e-6, 0.01, 0.3, 0.5, 0.9, 1 - 1e-6):
        p = np.sort(center + rng.uniform(-1e-7, 1e-7, 2000))
        p = np.sort(np.concatenate([p, np.nextafter(p, 2.0)]))
        for eps in (5e-324, 1e-20, 1e-16, 1e-12, 1e-8, 1e-4, 0.3):
            slack = 2.0 * BISECT_WIDTH + (KL_ROUNDING_WIDTH if eps < 1e-8 else 0.0)
            for fn in (kl_inv_upper, kl_inv_lower):
                assert np.diff(fn(p, eps)).min() >= -slack, (fn.__name__, center, eps)


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


def test_discrete_kl_matches_scipy_xlogy_on_stacked_rows():
    # (A, H) rows of rho with exact zeros (0 ln 0 = 0) against a prior with a
    # zero, so the rows with mass there are +inf
    rng = np.random.default_rng(11)
    rho = rng.dirichlet(np.ones(9), size=60)
    rho[rng.uniform(size=rho.shape) < 0.3] = 0.0
    rho[:, 0] += 0.1
    rho /= rho.sum(axis=1, keepdims=True)
    pi = rng.dirichlet(np.ones(9))
    pi[4] = 0.0
    pi /= pi.sum()
    xlogy = scipy.special.xlogy
    expected = np.sum(xlogy(rho, rho) - xlogy(rho, pi), axis=-1, keepdims=True)
    stacked = _discrete_kl_unchecked(rho, pi)
    assert stacked.shape == (60, 1)
    inf = np.isinf(expected[:, 0])
    assert 0 < inf.sum() < 60 and (stacked[inf] == math.inf).all()
    np.testing.assert_allclose(stacked[~inf], expected[~inf], rtol=1e-15, atol=0.0)
    # every stacked row equals the per-row call on it, bit for bit
    rows = np.stack([_discrete_kl_unchecked(r, pi) for r in rho])
    assert _same_bits(stacked, rows)
    assert _same_bits(stacked[:, 0], [discrete_kl(r, pi) for r in rho])


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
    # P[Bin(2, 1/2) <= 1] = 3/4, but the computed tail at 1/2 rounds below
    # 3/4; the outward end is p* itself
    assert binomial_tail_inverse(2, 1, 0.75) == 0.5
    assert binomial_tail_inverse(5, 0, 0.32768) == pytest.approx(0.2, abs=1e-8)


def test_binomial_tail_inverse_round_trip():
    rng = np.random.default_rng(9)
    for _ in range(100):
        n = int(rng.integers(2, 300))
        k = int(rng.integers(0, n))
        delta = float(rng.uniform(0.01, 0.95))
        p = binomial_tail_inverse(n, k, delta)
        assert binomial_tail(n, k, p) == pytest.approx(delta, abs=1e-8)


@pytest.mark.parametrize("n, k", [(10.5, 3), (10, 2.5), (10, np.float64(3.0)), ("10", 3),
                                  (True, 0), (10, False)])
def test_binomial_tail_and_inverse_reject_non_integer_counts(n, k):
    # a float k = 2.5 was bisected as if it were 3
    with pytest.raises(DomainError, match="must be integers"):
        binomial_tail_inverse(n, k, 0.05)
    with pytest.raises(DomainError, match="must be integers"):
        binomial_tail(n, k, 0.5)


def test_binomial_tail_inverse_accepts_numpy_integers():
    expected = binomial_tail_inverse(10, 3, 0.05)
    assert binomial_tail_inverse(np.int64(10), np.int32(3), 0.05) == expected


@settings(derandomize=True, deadline=None, max_examples=300)
@given(n=st.integers(1, 2000), data=st.data(), delta=st.floats(1e-4, 0.9))
def test_binomial_tail_inverse_is_feasible_and_near_clopper_pearson(n, data, delta):
    # the Clopper-Pearson upper limit, as a regularised incomplete beta
    # inverse; the returned p is at or beyond p*, where the tail is below delta
    k = data.draw(st.integers(0, n - 1), label="k")
    p = binomial_tail_inverse(n, k, delta)
    assert p == 1.0 or binomial_tail(n, k, p) < delta
    assert abs(p - scipy.special.betaincinv(k + 1, n - k, 1.0 - delta)) <= 2 * BISECT_WIDTH


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(n=st.integers(1, 59), data=st.data(),
       delta=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
def test_binomial_tail_inverse_rounds_outward(n, data, delta):
    k = data.draw(st.integers(0, n), label="k")
    p = binomial_tail_inverse(n, k, delta)
    assert p == 1.0 or binomial_tail(n, k, p) < delta


# (n, k, delta, inverse) recorded when the inverse returned the inward,
# feasible end of its final bracket.  The outward end lies above it by at
# most two halvings: one for the bracket, one for a reordered sum.
BINOMIAL_TAIL_INVERSE_TABLE = [
    (1, 0, 0.05, 0.9499999999970896),
    (1, 0, 0.5, 0.5),
    (2, 1, 0.75, 0.5),
    (5, 0, 0.32768, 0.19999999999708962),
    (7, 6, 0.3, 0.9503227992463508),
    (10, 0, 0.0001, 0.6018928294433863),
    (10, 3, 0.05, 0.6066242161032278),
    (10, 9, 0.9, 0.7943282347187051),
    (25, 12, 0.5, 0.49999999999272404),
    (50, 0, 0.0125, 0.08390987800521543),
    (50, 7, 0.0125, 0.2861943409225205),
    (100, 1, 0.05, 0.04655981145333499),
    (100, 30, 0.01, 0.4180939616053365),
    (100, 99, 0.05, 0.9994871985836653),
    (150, 40, 0.0125, 0.3561234698208864),
    (300, 17, 0.05, 0.08378881305543473),
    (500, 250, 0.0125, 0.5509613333051675),
    (500, 499, 0.0001, 0.9999997999839252),
    (1000, 0, 0.9, 0.00010535496403463185),
    (1000, 123, 0.05, 0.14141275752626825),
    (1000, 500, 0.001, 0.5492289460089523),
    (2000, 1999, 0.05, 0.9999743536754977),
    (2000, 64, 0.2, 0.035765899760008324),
    (5000, 2500, 0.05, 0.5117286740351119),
    (5000, 3, 0.0001, 0.003178655584633816),
]


@pytest.mark.parametrize("n, k, delta, expected", BINOMIAL_TAIL_INVERSE_TABLE)
def test_binomial_tail_inverse_matches_recorded_values(n, k, delta, expected):
    assert 0.0 <= binomial_tail_inverse(n, k, delta) - expected <= 2 * BISECT_WIDTH


# ---------------------------------------------------------------------------
# the runtime needs no scipy
# ---------------------------------------------------------------------------

CALLS_WITH_SCIPY_BLOCKED = """
import sys

sys.modules["scipy"] = None  # any import of scipy or a submodule now raises

import numpy as np

import splitkl
import splitkl.cli
from splitkl import concentration as c, klcore, pacbayes as pb

sample, tmp = sys.argv[1], sys.argv[2]
z = np.array([-1.0, 0.0, 1.0, 1.0, 0.0, -1.0, 1.0, 0.0, 0.0, 1.0] * 10)
s = c.EmpiricalSummary.from_samples(z, -1.0, 1.0)
pbi = pb.PacBayesInput(gibbs_mean=0.3, gibbs_second_moment=0.2, gibbs_plus_mean=0.1,
                       gibbs_minus_mean=0.3, kl_complexity=2.0, n=100, lo=0.0, hi=1.0, mu=0.5)
xin = pb.ExcessLossInput(fwd_plus=0.2, bwd_plus=0.25, fwd_minus=0.1, bwd_minus=0.15,
                         kl_complexity=1.0, n=100, ref_loss_counts=(7, 12), mu=0.0)
values = [
    c.kl_upper_bound(z.mean(), 100, 0.05, -1.0, 1.0),
    c.kl_lower_bound(z.mean(), 100, 0.05, -1.0, 1.0),
    c.empirical_bernstein_bound(s, 0.05),
    c.unexpected_bernstein_grid_bound(s, 0.05).value,
    c.split_kl_bound(c.split_decompose(z, 0.0, -1.0, 1.0), 0.05),
    pb.pb_kl_bound(0.3, 2.0, 100, 0.05),
    pb.pb_kl_pinsker_relaxation(0.3, 2.0, 100, 0.05),
    pb.pb_unexpected_bernstein_grid(pbi, 0.05).value,
    pb.pb_split_kl(pbi, 0.05),
    pb.test_set_bound(100, 7, 0.05),
    pb.excess_informed_bound(xin, 0.05),
    pb.optimal_lambda(0.3, 2.0, 100, 0.05),
    pb.optimal_gamma(0.3, 2.0, 100, 0.05),
    klcore.kl_inv_upper(0.3, 0.1),
    klcore.kl_inv_lower(0.3, 0.1),
    klcore.binomial_tail(100, 7, 0.1),
    klcore.bernoulli_kl(np.array([0.0, 0.3, 1.0]), np.array([0.2, 0.0, 1.0]))[0],
    klcore.discrete_kl([0.5, 0.5, 0.0], [0.25, 0.25, 0.5]),
]
assert np.all(np.isfinite(values)), values
seeded = ["--seed", "3", "--out", tmp + "/out"]
commands = [
    ["bound", sample, "--bound", "all", "--out", tmp + "/out"],
    ["simulate", "--mode", "symmetric", "--n", "30", "--repeats", "2", *seeded],
    ["simulate", "--mode", "constant_mean", "--n", "30", "--repeats", "2", *seeded],
    ["coverage", "--n", "20", "--trials", "100", *seeded],
    ["coverage", "--dist", "beta", "--n", "20", "--trials", "100", *seeded],
    ["mv", "--synthetic", "correlated", "--h-count", "4", "--n-examples", "300",
     "--alpha-points", "3", "--dump-losses", tmp + "/losses.csv", *seeded],
    ["mv", "--losses", tmp + "/losses.csv", "--alpha-points", "3", *seeded],
]
for argv in commands:
    code = splitkl.cli.main(argv)
    assert code == 0, (argv, code)
assert [m for m in sys.modules if m.partition(".")[0] == "scipy"] == ["scipy"], "scipy imported"
assert sys.modules["scipy"] is None
r = klcore.kl_inv_upper(np.array([0.1, 0.7]), 0.05)
print(*(float(v).hex() for v in r))
"""


def test_api_and_every_command_run_with_scipy_blocked(tmp_path):
    sample = tmp_path / "sample.txt"
    sample.write_text("# lo=-1 hi=1 mu=0\n" + "-1\n0\n1\n1\n0\n" * 20)
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", CALLS_WITH_SCIPY_BLOCKED, str(sample), str(tmp_path)],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    # the array path's bits, as recorded before scipy left the runtime
    assert proc.stdout.split() == ["0x1.c2b891d29999bp-3", "0x1.a8506165e0001p-1"]


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


def test_phi_rejects_overflow():
    # e^x passes the largest float above x = ln(DBL_MAX) ~ 709.78, where phi
    # returned inf with an overflow RuntimeWarning
    assert math.isfinite(phi(709.0)) and np.all(np.isfinite(phi(np.array([0.5, 709.0]))))
    for form in (710.0, np.float64(710.0), np.array(710.0), np.array([0.5, 710.0])):
        with pytest.raises(DomainError, match="phi overflows"):
            phi(form)


@pytest.mark.parametrize("fn", [psi, phi])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_psi_and_phi_reject_non_finite_input(fn, bad):
    # psi(nan) and phi(nan) were nan, and an infinite input was nan with a
    # RuntimeWarning
    for form in (bad, np.float64(bad), np.array(bad), np.array([0.5, bad])):
        with pytest.raises(DomainError, match="requires a finite"):
            fn(form)


# ---------------------------------------------------------------------------
# Scalar entry points: float in, float out, bit-equal to the array call
# ---------------------------------------------------------------------------


def _split(**kw):
    return cn.SplitSummary(**{**dict(n=50, mu=0.0, plus_mean=0.3, minus_mean=0.2,
                                      lo=-1.0, hi=1.0), **kw})


def _pb(**kw):
    return pb.PacBayesInput(**{**dict(gibbs_mean=0.4, gibbs_second_moment=0.3,
                                      gibbs_plus_mean=0.2, gibbs_minus_mean=0.15,
                                      kl_complexity=1.5, n=50, lo=0.0, hi=1.0, mu=0.5), **kw})


def _emp(second_moment):
    return cn.EmpiricalSummary(n=50, mean=0.1, second_moment_mean=second_moment,
                               unbiased_variance=0.3, lo=-1.0, hi=1.0)


def _ub_grid_array(xs):
    # the sweeps' form: the grid values of the one implementation, least per element
    s = _emp(xs)
    return np.min(cn._unexpected_bernstein_grid(s.mean, s.second_moment_mean, 0.0, s.n,
                                                0.05, s.hi)[0], axis=0)


UNIT = st.floats(0.0, 1.0)
UNIT_OUTSIDE = [math.nan, math.inf, -math.inf, -0.5, 1.5, 2.0]
# name: (scalar call of x, its one-element array call, valid x, invalid x).
# Every array call goes through the same validation as the scalar one but
# optimal_gamma's: its array form is gamma_star, which is unvalidated.
SCALAR_ENTRY_POINTS = {
    "kl_inv_upper p_hat": (lambda x: kl_inv_upper(x, 0.05), None, UNIT, UNIT_OUTSIDE),
    "kl_inv_upper eps": (lambda x: kl_inv_upper(0.3, x), None,
                         st.one_of(st.floats(0.0, 10.0), st.just(math.inf)),
                         [math.nan, -math.inf, -0.1, -1.0]),
    "kl_inv_lower p_hat": (lambda x: kl_inv_lower(x, 0.05), None, UNIT, UNIT_OUTSIDE),
    "kl_inv_lower eps": (lambda x: kl_inv_lower(0.3, x), None,
                         st.one_of(st.floats(0.0, 10.0), st.just(math.inf)),
                         [math.nan, -math.inf, -0.1, -1.0]),
    "bernoulli_kl p_hat": (lambda x: bernoulli_kl(x, 0.4), None, UNIT, UNIT_OUTSIDE),
    "bernoulli_kl p": (lambda x: bernoulli_kl(0.4, x), None, UNIT, UNIT_OUTSIDE),
    "psi": (psi, None, st.floats(-1.0, 1e6, exclude_min=True),
            [math.nan, math.inf, -math.inf, -1.0, -2.0]),
    "phi": (phi, None, st.floats(-700.0, 700.0), [math.nan, math.inf, -math.inf]),
    "kl_upper_bound": (lambda x: cn.kl_upper_bound(x, 50, 0.05, -1.0, 1.0), None,
                       st.floats(-1.0, 1.0), [math.nan, math.inf, -math.inf, -1.5, 2.0]),
    "pb_kl_bound": (lambda x: pb.pb_kl_bound(x, 1.5, 50, 0.05), None, UNIT, UNIT_OUTSIDE),
    "split_kl_bound": (lambda x: cn.split_kl_bound(_split(plus_mean=x), 0.05), None,
                       UNIT, UNIT_OUTSIDE),
    "pb_split_kl": (lambda x: pb.pb_split_kl(_pb(gibbs_plus_mean=x), 0.05), None,
                    st.floats(0.0, 0.5), UNIT_OUTSIDE),
    "unexpected_bernstein_grid_bound": (
        lambda x: cn.unexpected_bernstein_grid_bound(_emp(x), 0.05).value, _ub_grid_array,
        UNIT, [math.nan, math.inf, -math.inf, -0.5, -1.0]),
    "optimal_gamma": (lambda x: pb.optimal_gamma(x, 1.5, 50, 0.05),
                      lambda xs: pb.gamma_star(xs, pb._pb_complexity(1.5, 50, 0.05), 50),
                      UNIT, [math.nan, math.inf, -math.inf, -0.5, 1.5]),
}


@settings(derandomize=True, deadline=None, max_examples=1000)
@given(name=st.sampled_from(sorted(SCALAR_ENTRY_POINTS)), data=st.data())
def test_scalar_entry_points_return_floats_bit_equal_to_array_calls(name, data):
    scalar, array, valid, invalid = SCALAR_ENTRY_POINTS[name]
    x = data.draw(st.one_of(valid, st.sampled_from(invalid)), label="x")
    forms = [x, np.float64(x), np.array(x)]
    if math.isfinite(x) and x == int(x):
        forms.append(int(x))
    calls = [lambda v=v: scalar(v) for v in forms]
    if array is None:
        calls.append(lambda: scalar(np.array([x])))
    try:
        want = scalar(x)
    except DomainError as exc:
        # today's path validates every other form, with the same message
        if array is not None and name != "optimal_gamma":
            calls.append(lambda: array(np.array([x])))
        for call in calls:
            with pytest.raises(DomainError) as err:
                call()
            assert str(err.value) == str(exc)
        return
    for v in forms:
        got = scalar(v)
        assert type(got) is float, (name, type(v))
        assert _same_bits(got, want), (name, type(v))
    got = (array or scalar)(np.array([x]))
    assert isinstance(got, np.ndarray) and got.shape == (1,), name
    assert _same_bits(got, [want]), name


@pytest.mark.parametrize("call, message", [
    (lambda: discrete_kl([0.5, 0.6], [0.5, 0.5]), "weights must sum to 1 within 1e-9"),
    (lambda: binomial_tail(10, 3, 1.5), "p outside [0, 1]: 1.5"),
])
def test_klcore_checks_raise(call, message):
    with pytest.raises(DomainError) as exc:
        call()
    assert str(exc.value) == message
