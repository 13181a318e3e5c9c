"""PAC-Bayes bounds as deterministic functions of Gibbs aggregates.

Every operation takes posterior-averaged empirical quantities (Gibbs means,
second moments, split means) plus the KL complexity KL(rho||pi) supplied by
the caller; no hypothesis distributions are sampled here.  Includes the
PAC-Bayes-kl bound and its Refined Pinsker relaxation, PAC-Bayes-Unexpected-
Bernstein with its gamma grid, PAC-Bayes-split-kl, the binomial test set
bound, the excess-loss/informed-prior combination, and the PAC-Bayes-lambda
upper/lower bounds with their closed-form parameter minimisers.
"""

import math
from dataclasses import dataclass

import numpy as np

from .concentration import (
    BoundReport,
    _check_unexpected_bernstein,
    _split_kl_value,
    _unexpected_bernstein_grid_report,
    _unexpected_bernstein_value,
)
from .errors import DomainError
from .klcore import _check_delta, _is_count, binomial_tail_inverse, kl_inv_upper

_SLACK = 1e-9


@dataclass(frozen=True)
class PacBayesInput:
    """Gibbs aggregates of a posterior on losses taking values in [lo, hi].

    ``gibbs_mean`` / ``gibbs_second_moment`` are the posterior-expected
    empirical mean and uncentered second moment; ``gibbs_plus_mean`` and
    ``gibbs_minus_mean`` are the posterior-expected split means around mu.
    """

    gibbs_mean: float
    gibbs_second_moment: float
    gibbs_plus_mean: float
    gibbs_minus_mean: float
    kl_complexity: float
    n: int
    lo: float
    hi: float
    mu: float

    def __post_init__(self):
        if self.n < 1:
            raise DomainError("need n >= 1")
        # negated comparisons, so that NaN fails them too
        if not self.kl_complexity >= 0:
            raise DomainError("kl_complexity must be non-negative")
        if not self.lo - _SLACK <= self.mu <= self.hi + _SLACK:
            raise DomainError("mu outside [lo, hi]")
        if not self.lo - _SLACK <= self.gibbs_mean <= self.hi + _SLACK:
            raise DomainError("gibbs_mean outside [lo, hi]")
        if not -_SLACK <= self.gibbs_second_moment < math.inf:
            raise DomainError("gibbs_second_moment must be finite and non-negative")
        if not -_SLACK <= self.gibbs_plus_mean <= self.hi - self.mu + _SLACK:
            raise DomainError("gibbs_plus_mean outside [0, hi - mu]")
        if not -_SLACK <= self.gibbs_minus_mean <= self.mu - self.lo + _SLACK:
            raise DomainError("gibbs_minus_mean outside [0, mu - lo]")


@dataclass(frozen=True)
class ExcessLossInput:
    """Forward/backward excess-loss aggregates for the informed-prior bound.

    Excess losses live in [-1, 1].  ``fwd_*`` are posterior means of the
    split excess losses of the posterior against the reference rule trained
    on the first half, estimated on the second half; ``bwd_*`` swap the
    roles.  ``ref_loss_counts`` are the two reference rules' error counts on
    their held-out halves (each out of n/2).
    """

    fwd_plus: float
    bwd_plus: float
    fwd_minus: float
    bwd_minus: float
    kl_complexity: float
    n: int
    ref_loss_counts: tuple
    mu: float

    def __post_init__(self):
        if not _is_count(self.n):
            raise DomainError(f"n must be an integer, got {self.n!r}")
        if not all(_is_count(c) for c in self.ref_loss_counts):
            raise DomainError(f"ref_loss_counts must be integers, got {self.ref_loss_counts!r}")
        if self.n < 2 or self.n % 2 != 0:
            raise DomainError("need an even n >= 2")
        if not self.kl_complexity >= 0:  # NaN fails too
            raise DomainError("kl_complexity must be non-negative")
        if not -1.0 <= self.mu <= 1.0:
            raise DomainError("mu outside [-1, 1]")
        half = self.n // 2
        c1, c2 = self.ref_loss_counts
        if not (0 <= c1 <= half and 0 <= c2 <= half):
            raise DomainError("reference error counts outside [0, n/2]")
        for val, cap in [
            (self.fwd_plus, 1.0 - self.mu),
            (self.bwd_plus, 1.0 - self.mu),
            (self.fwd_minus, self.mu + 1.0),
            (self.bwd_minus, self.mu + 1.0),
        ]:
            if not -_SLACK <= val <= cap + _SLACK:
                raise DomainError("split mean outside its range")


def _pb_confidence(n, delta):
    """ln(2 sqrt(n)/delta), the PAC-Bayes-kl confidence term, unvalidated; a
    union over c such terms passes delta/c."""
    return math.log(2.0 * math.sqrt(n) / delta)


def _pb_complexity(kl_complexity, n, delta):
    """KL + ln(2 sqrt(n)/delta), the complexity term of the PAC-Bayes-kl and
    -lambda forms; rejects KL < 0, n < 1, delta outside (0, 1) and NaN."""
    if not (kl_complexity >= 0.0 and n >= 1 and 0.0 < delta < 1.0):
        raise DomainError(f"need KL >= 0, n >= 1, delta in (0, 1): {kl_complexity}, {n}, {delta}")
    return kl_complexity + _pb_confidence(n, delta)


def _check_gibbs_mean(gibbs_mean):
    if not 0.0 <= gibbs_mean <= 1.0:  # NaN fails too
        raise DomainError(f"gibbs_mean outside [0, 1]: {gibbs_mean}")


def pb_kl_bound(gibbs_mean, kl_complexity, n, delta):
    """Invert kl(gibbs_mean || .) at (KL + ln(2 sqrt(n)/delta)) / n."""
    return kl_inv_upper(gibbs_mean, _pb_complexity(kl_complexity, n, delta) / n)


def pb_kl_pinsker_relaxation(gibbs_mean, kl_complexity, n, delta):
    """Refined Pinsker relaxation: mean + sqrt(2 mean eps) + 2 eps."""
    _check_gibbs_mean(gibbs_mean)
    eps = _pb_complexity(kl_complexity, n, delta) / n
    return gibbs_mean + math.sqrt(2.0 * gibbs_mean * eps) + 2.0 * eps


def pb_unexpected_bernstein(inp: PacBayesInput, gamma, delta):
    """mean + psi(-gamma b)/(gamma b^2) E[V] + (KL + ln(1/d))/(gamma n)."""
    _check_unexpected_bernstein(inp.hi, gamma, delta)
    return _unexpected_bernstein_value(
        inp.gibbs_mean, inp.gibbs_second_moment, inp.kl_complexity + math.log(1.0 / delta),
        inp.n, gamma, inp.hi,
    )


def pb_unexpected_bernstein_grid(inp: PacBayesInput, delta) -> BoundReport:
    """Union bound over the gamma grid: min over gamma at delta/k each."""
    return _unexpected_bernstein_grid_report("pbub", inp.gibbs_mean, inp.gibbs_second_moment,
                                             inp.kl_complexity, inp.n, delta, inp.hi)


def pb_split_kl(inp: PacBayesInput, delta):
    """PAC-Bayes split-kl: weighted upper/lower inversions around mu.

    Both inversions run at eps = (KL + ln(2 sqrt(n)/(delta/2))) / n;
    degenerate split weights contribute exactly 0.
    """
    _check_delta(delta)
    eps = (inp.kl_complexity + _pb_confidence(inp.n, delta / 2.0)) / inp.n
    return _split_kl_value(inp.mu, inp.lo, inp.hi, inp.gibbs_plus_mean, inp.gibbs_minus_mean, eps)


def test_set_bound(n, errors, delta):
    """Exact binomial tail inversion of a held-out error count."""
    return binomial_tail_inverse(n, errors, delta)


def excess_informed_bound(x: ExcessLossInput, delta):
    """Excess-loss bound with forward/backward informed priors.

    Split-kl on the averaged excess losses in [-1, 1] (with the mixture
    prior entering through ``kl_complexity``), each inversion at delta/4 on
    n/2, plus half the sum of two binomial tail inversions at delta/4 for
    the reference rules.
    """
    _check_delta(delta)
    half = x.n // 2
    eps = (x.kl_complexity + _pb_confidence(half, delta / 4.0)) / half
    split = _split_kl_value(x.mu, -1.0, 1.0, (x.fwd_plus + x.bwd_plus) / 2.0,
                            (x.fwd_minus + x.bwd_minus) / 2.0, eps)
    c1, c2 = x.ref_loss_counts
    ref_term = 0.5 * (
        binomial_tail_inverse(half, c1, delta / 4.0)
        + binomial_tail_inverse(half, c2, delta / 4.0)
    )
    return split + ref_term


def pb_lambda_upper(gibbs_mean, kl_complexity, n, delta, lam):
    """mean/(1 - lam/2) + (KL + ln(2 sqrt(n)/d))/(lam (1 - lam/2) n)."""
    _check_gibbs_mean(gibbs_mean)
    if not 0.0 < lam < 2.0:
        raise DomainError("lambda must lie in (0, 2)")
    _check_delta(delta)
    return _lambda_upper_value(gibbs_mean, _pb_complexity(kl_complexity, n, delta), n, lam)


def pb_lambda_lower(gibbs_mean, kl_complexity, n, delta, gamma):
    """(1 - gamma/2) mean - (KL + ln(2 sqrt(n)/d))/(gamma n); may be negative.

    gamma = +inf, which :func:`optimal_gamma` returns at a mean of 0, gives
    the limit: 0 at a mean of 0, -inf above it.
    """
    _check_gibbs_mean(gibbs_mean)
    if not gamma > 0.0:  # NaN fails too
        raise DomainError(f"gamma must be positive, got {gamma}")
    _check_delta(delta)
    comp = _pb_complexity(kl_complexity, n, delta)
    if math.isinf(gamma):
        return 0.0 if gibbs_mean == 0.0 else -math.inf
    return _lambda_lower_value(gibbs_mean, comp, n, gamma)


def _lambda_upper_value(emp, comp, n, lam):
    """PAC-Bayes-lambda upper form emp/(1 - lam/2) + comp/(lam (1 - lam/2) n),
    unvalidated; ``comp`` is the full complexity term."""
    return emp / (1.0 - lam / 2.0) + comp / (lam * (1.0 - lam / 2.0) * n)


def _lambda_lower_value(emp, comp, n, gamma):
    """PAC-Bayes-lambda lower form (1 - gamma/2) emp - comp/(gamma n), unvalidated."""
    return (1.0 - gamma / 2.0) * emp - comp / (gamma * n)


def lambda_star(emp, complexity, n):
    """Minimiser 2/(sqrt(2 n emp / complexity + 1) + 1) of the lambda form,
    elementwise in arrays; unvalidated."""
    return 2.0 / (np.sqrt(2.0 * n * emp / complexity + 1.0) + 1.0)


def gamma_star(emp, complexity, n):
    """sqrt(complexity / (n emp)), +inf where emp <= 0, elementwise in
    arrays; unvalidated."""
    if isinstance(emp, float) and isinstance(complexity, float):
        # on Python floats, which overflow to inf without a warning
        return math.inf if emp <= 0.0 else float(np.sqrt(float(complexity) / (float(n) * float(emp))))
    emp = np.asarray(emp, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        return np.where(emp <= 0.0, np.inf, np.sqrt(complexity / (n * emp)))


def optimal_lambda(gibbs_mean, kl_complexity, n, delta):
    """Closed-form lambda for :func:`pb_lambda_upper`."""
    _check_gibbs_mean(gibbs_mean)
    _check_delta(delta)
    return float(lambda_star(gibbs_mean, _pb_complexity(kl_complexity, n, delta), n))


def optimal_gamma(gibbs_mean, kl_complexity, n, delta):
    """Closed-form gamma for :func:`pb_lambda_lower`; +inf when the mean is 0."""
    _check_gibbs_mean(gibbs_mean)
    _check_delta(delta)
    return float(gamma_star(gibbs_mean, _pb_complexity(kl_complexity, n, delta), n))
