"""Concentration bounds for means of i.i.d. bounded samples.

Four bound families on E[Z] from an empirical summary: the kl bound
(rescale to [0,1], invert the binary KL), Empirical Bernstein (unbiased
sample variance), Unexpected Bernstein (uncentered second moment, tuned
over a geometric gamma grid with a union bound), and split-kl (decompose
Z = mu + Z+ - Z- and apply kl upper/lower bounds to the two parts).

Bounds are returned raw, never clipped; presentation-layer clipping to the
upper endpoint lives in the simulation/CLI code.
"""

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .errors import DomainError
from .klcore import kl_inv_lower, kl_inv_upper, psi

_SLACK = 1e-9  # tolerance for float noise in invariant checks


@dataclass(frozen=True)
class EmpiricalSummary:
    """Sufficient statistics of an i.i.d. sample on [lo, hi].

    ``second_moment_mean`` is (1/n) sum Z_i^2 (the Unexpected Bernstein
    moment); ``unbiased_variance`` is (1/(n-1)) sum (Z_i - mean)^2 (the
    Empirical Bernstein variance).  The two estimators are carried
    separately so the bounds can never silently swap them.
    """

    n: int
    mean: float
    second_moment_mean: float
    unbiased_variance: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need n >= 1")
        if not self.lo - _SLACK <= self.mean <= self.hi + _SLACK:
            raise DomainError(f"mean {self.mean} outside [{self.lo}, {self.hi}]")
        if self.second_moment_mean < -_SLACK or self.unbiased_variance < -_SLACK:
            raise DomainError("moments must be non-negative")

    @classmethod
    def from_samples(cls, samples, lo, hi):
        z = _validate_samples(samples, lo, hi)
        n = len(z)
        var = float(np.var(z, ddof=1)) if n >= 2 else 0.0
        return cls(
            n=n,
            mean=float(z.mean()),
            second_moment_mean=float(np.mean(z**2)),
            unbiased_variance=var,
            lo=float(lo),
            hi=float(hi),
        )


@dataclass(frozen=True)
class SplitSummary:
    """Split decomposition Z = mu + Z+ - Z- of a sample on [lo, hi].

    ``plus_mean`` is the mean of max(0, Z - mu), ``minus_mean`` the mean of
    max(0, mu - Z); the identity mean(Z) = mu + plus_mean - minus_mean
    holds exactly.
    """

    n: int
    mu: float
    plus_mean: float
    minus_mean: float
    lo: float
    hi: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need n >= 1")
        if not self.lo - _SLACK <= self.mu <= self.hi + _SLACK:
            raise DomainError(f"mu {self.mu} outside [{self.lo}, {self.hi}]")
        if not -_SLACK <= self.plus_mean <= self.hi - self.mu + _SLACK:
            raise DomainError("plus_mean outside [0, hi - mu]")
        if not -_SLACK <= self.minus_mean <= self.mu - self.lo + _SLACK:
            raise DomainError("minus_mean outside [0, mu - lo]")


@dataclass(frozen=True)
class GammaGrid:
    """Geometric grid {1/(2b), ..., 1/(2^k b)}; all values below 1/b."""

    values: tuple
    count: int


@dataclass(frozen=True)
class BoundReport:
    """A bound value plus the parameters that produced it."""

    name: str
    value: float
    delta: float
    params: Mapping = field(default_factory=dict)


def _check_delta(delta):
    """Raise DomainError unless 0 < delta < 1; NaN fails too."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta outside (0, 1): {delta}")


def _validate_samples(samples, lo, hi):
    z = np.asarray(samples, dtype=float)
    if z.ndim != 1 or len(z) == 0:
        raise DomainError("need a non-empty 1-d sample")
    if np.any(z < lo) or np.any(z > hi):
        bad = int(np.argmax((z < lo) | (z > hi)))
        raise DomainError(f"sample value {z[bad]} at index {bad} outside [{lo}, {hi}]")
    return z


def split_decompose(samples, mu, lo, hi) -> SplitSummary:
    """Split a sample at mu into the means of its positive and negative parts."""
    z = _validate_samples(samples, lo, hi)
    if not lo <= mu <= hi:
        raise DomainError(f"mu {mu} outside [{lo}, {hi}]")
    return SplitSummary(
        n=len(z),
        mu=float(mu),
        plus_mean=float(np.maximum(0.0, z - mu).mean()),
        minus_mean=float(np.maximum(0.0, mu - z).mean()),
        lo=float(lo),
        hi=float(hi),
    )


def kl_upper_bound(mean, n, delta, lo, hi):
    """kl upper confidence bound: rescale to [0,1], invert, rescale back."""
    return _kl_bound(kl_inv_upper, mean, n, delta, lo, hi)


def kl_lower_bound(mean, n, delta, lo, hi):
    """kl lower confidence bound; mirror of :func:`kl_upper_bound`."""
    return _kl_bound(kl_inv_lower, mean, n, delta, lo, hi)


def _kl_bound(invert, mean, n, delta, lo, hi):
    """lo + (hi - lo) invert(p_hat, ln(1/delta) / n) for the mean rescaled to
    p_hat.  A p_hat within _SLACK of [0, 1] is clamped into it, as the mean
    of samples all equal to hi can round above hi; one further out is left
    for the inversion to reject.  Floats stay on the float path."""
    if not (lo < hi and n >= 1 and 0.0 < delta < 1.0):
        raise DomainError(f"need lo < hi, n >= 1, delta in (0, 1): {lo}, {hi}, {n}, {delta}")
    if np.ndim(mean) == 0:
        p_hat = (float(mean) - lo) / (hi - lo)
        p_hat = _clamp01(p_hat) if -_SLACK <= p_hat <= 1.0 + _SLACK else p_hat
    else:
        p_hat = (np.asarray(mean, dtype=float) - lo) / (hi - lo)
        p_hat = np.where((p_hat >= -_SLACK) & (p_hat <= 1.0 + _SLACK), _clamp01(p_hat), p_hat)
    out = lo + (hi - lo) * invert(p_hat, math.log(1.0 / delta) / n)
    return float(out) if np.ndim(mean) == 0 else out


def empirical_bernstein_bound(s: EmpiricalSummary, delta) -> float:
    """mean + sqrt(2 var ln(2/d) / n) + 7 (hi-lo) ln(2/d) / (3(n-1))."""
    if s.n < 2:
        raise DomainError("Empirical Bernstein needs n >= 2")
    _check_delta(delta)
    return float(_empirical_bernstein_value(s.mean, s.unbiased_variance, s.n, delta, s.hi - s.lo))


def _empirical_bernstein_value(mean, variance, n, delta, width):
    """:func:`empirical_bernstein_bound`, elementwise, on an interval of length ``width``."""
    ln_term = math.log(2.0 / delta)
    return (
        mean
        + np.sqrt(2.0 * np.maximum(variance, 0.0) * ln_term / n)
        + 7.0 * width * ln_term / (3.0 * (n - 1))
    )


def make_gamma_grid(n, delta, b) -> GammaGrid:
    """Gamma grid of size k = max(1, ceil(log2(sqrt(n / ln(1/d)) / 2)))."""
    if n < 1 or not 0.0 < delta < 1.0 or b <= 0.0:
        raise DomainError("need n >= 1, delta in (0,1), b > 0")
    k = max(1, math.ceil(math.log2(math.sqrt(n / math.log(1.0 / delta)) / 2.0)))
    values = tuple(1.0 / (2.0**i * b) for i in range(1, k + 1))
    if not values[-1] > 0.0:
        raise DomainError(f"b = {b} is too large for a positive gamma grid")
    return GammaGrid(values=values, count=k)


def unexpected_bernstein_bound(s: EmpiricalSummary, gamma, delta) -> float:
    """mean + psi(-gamma b)/(gamma b^2) second_moment + ln(1/d)/(gamma n)."""
    b = s.hi
    if b <= 0.0:
        raise DomainError("Unexpected Bernstein needs an upper endpoint b > 0")
    if not 0.0 < gamma < 1.0 / b:
        raise DomainError(f"gamma must lie in (0, 1/b) = (0, {1.0 / b})")
    _check_delta(delta)
    return _unexpected_bernstein_value(
        s.mean, s.second_moment_mean, math.log(1.0 / delta), s.n, gamma, b
    )


def _unexpected_bernstein_value(mean, second_moment, comp, n, gamma, b):
    """mean + psi(-gamma b)/(gamma b^2) second_moment + comp/(gamma n),
    elementwise; ``comp`` is ln(1/d) plus any KL complexity."""
    return mean + psi(-gamma * b) / (gamma * b * b) * second_moment + comp / (gamma * n)


def unexpected_bernstein_grid_bound(s: EmpiricalSummary, delta) -> BoundReport:
    """Minimum of the Unexpected Bernstein bound over the gamma grid.

    The union bound over the k grid points replaces delta by delta/k at
    each point; the report carries the minimising gamma.
    """
    return _unexpected_bernstein_grid_report("ub", s.mean, s.second_moment_mean, 0.0, s.n,
                                             delta, s.hi)


def _unexpected_bernstein_grid_report(name, mean, second_moment, kl, n, delta, b):
    """The least of the :func:`_unexpected_bernstein_grid` values, as a
    report named ``name`` that carries its gamma and the grid size."""
    vals, grid = _unexpected_bernstein_grid(mean, second_moment, kl, n, delta, b)
    best = vals.index(min(vals))
    return BoundReport(name=name, value=vals[best], delta=delta,
                       params={"gamma": grid.values[best], "grid_size": grid.count})


def _unexpected_bernstein_grid(mean, second_moment, kl, n, delta, b):
    """:func:`_unexpected_bernstein_value` at each gamma of the grid for
    (n, delta, b), at complexity kl + ln(k/delta); returns (values, grid)."""
    grid = make_gamma_grid(n, delta, b)
    comp = kl + math.log(grid.count / delta)
    return [_unexpected_bernstein_value(mean, second_moment, comp, n, g, b)
            for g in grid.values], grid


def split_kl_bound(s: SplitSummary, delta) -> float:
    """Split-kl bound: mu + (hi-mu) kl_inv_upper(...) - (mu-lo) kl_inv_lower(...).

    Both inversions run at confidence delta/2.  A degenerate split weight
    (mu = lo or mu = hi) contributes exactly 0, the limit of the weighted
    inverse.
    """
    _check_delta(delta)
    eps = math.log(2.0 / delta) / s.n
    return _split_kl_value(s.mu, s.hi - s.mu, s.mu - s.lo, s.plus_mean, s.minus_mean, eps)


def _split_kl_value(mu, plus_w, minus_w, plus_mean, minus_mean, eps):
    """mu + plus_w kl_inv_upper(plus_mean / plus_w, eps)
    - minus_w kl_inv_lower(minus_mean / minus_w, eps), elementwise over
    the split means and weights, ratios clamped to [0, 1]; a zero scalar
    split weight contributes exactly 0, and array weights must be positive."""
    plus_term = 0.0
    if np.ndim(plus_w) or plus_w > 0.0:
        plus_term = plus_w * kl_inv_upper(_clamp01(plus_mean / plus_w), eps)
    minus_term = 0.0
    if np.ndim(minus_w) or minus_w > 0.0:
        minus_term = minus_w * kl_inv_lower(_clamp01(minus_mean / minus_w), eps)
    return mu + plus_term - minus_term


def _clamp01(x):
    """x clamped to [0, 1]; floats stay on the float path."""
    return np.clip(x, 0.0, 1.0) if isinstance(x, np.ndarray) else min(max(x, 0.0), 1.0)
