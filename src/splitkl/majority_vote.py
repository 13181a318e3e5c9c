"""Weighted majority-vote risk certificates and posterior optimization.

Statistics are estimated from an out-of-bag-masked zero-one loss matrix:
per-hypothesis losses, pairwise tandem losses, and offset (alpha-) tandem
losses together with their second moments, variances and split means.

Five bound families operate on those statistics: TND (second-order Markov
on the tandem loss), and the Chebyshev-Cantelli family CCTND / CCPBB /
CCPBUB / CCPBSkl, which bound the alpha-tandem loss with PAC-Bayes-kl,
-Empirical-Bennett, -Unexpected-Bernstein and -split-kl respectively.
Each family has a compute form and an optimizer that alternates closed-form
or grid parameter steps with iRProp+ steps on the posterior, projected onto
the simplex.  Optimizers track the best compute-form value seen, so the
reported bound never exceeds the value at the initialization rho = pi.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import (
    BoundReport,
    _clamp01,
    _split_kl_value,
    _unexpected_bernstein_value,
    _unexpected_bernstein_weight,
    make_gamma_grid,
)
from .errors import DomainError
from .klcore import _discrete_kl_unchecked, discrete_kl, kl_inv_lower, kl_inv_upper, phi
from .pacbayes import _lambda_lower_value, _lambda_upper_value, gamma_star, lambda_star

# Alpha grid for the offset bounds: step 0.01 over [-0.5, 0.49], which puts
# the TND collapse point alpha = 0 exactly on the grid.
DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(-50, 50) / 100.0, 2))

OUTER_TOL = 1e-9
MAX_OUTER = 50

_TINY = 1e-12


# ---------------------------------------------------------------------------
# Data containers
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PredictionLossMatrix:
    """H x N zero-one losses with an out-of-bag validity mask.

    ``mask[h, i]`` is True when example i is out-of-bag for hypothesis h.
    Every hypothesis needs at least one valid entry and every pair at least
    one jointly valid column.
    ``pair_counts`` is formed once: the H x H counts of jointly valid columns
    (valid, both err, one errs, none errs) and each row's valid count.
    """

    losses: np.ndarray
    mask: np.ndarray
    pair_counts: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        losses = np.asarray(self.losses, dtype=float)
        mask = np.asarray(self.mask, dtype=bool)
        if losses.ndim != 2 or losses.shape != mask.shape:
            raise DomainError("losses and mask must be equal-shape 2-d arrays")
        if not np.all((losses == 0.0) | (losses == 1.0)):
            raise DomainError("losses must be 0/1")
        object.__setattr__(self, "losses", losses)
        object.__setattr__(self, "mask", mask)
        b = mask.astype(float)
        valid = b @ b.T
        if np.any(valid == 0):
            i, j = np.argwhere(valid == 0)[0]
            raise DomainError(
                f"hypothesis pair ({int(i)}, {int(j)}) has an empty OOB intersection"
            )
        u = losses * b  # valid errors
        w = (1.0 - losses) * b  # valid non-errors
        both = u @ u.T
        none = w @ w.T
        counts = (valid, both, valid - both - none, none, b.sum(axis=1))
        object.__setattr__(self, "pair_counts", counts)

    @property
    def h_count(self):
        return self.losses.shape[0]

    @property
    def n_examples(self):
        return self.losses.shape[1]


@dataclass(frozen=True)
class TandemStats:
    """Per-hypothesis and per-pair OOB loss estimates.

    ``n`` is the smallest single-hypothesis OOB count, ``m`` the smallest
    pairwise OOB overlap.
    """

    single_loss: np.ndarray
    tandem_loss: np.ndarray
    n: int
    m: int

    def __post_init__(self):
        single = np.asarray(self.single_loss, dtype=float)
        tandem = np.asarray(self.tandem_loss, dtype=float)
        object.__setattr__(self, "single_loss", single)
        object.__setattr__(self, "tandem_loss", tandem)
        if tandem.shape != (len(single), len(single)):
            raise DomainError("tandem matrix shape mismatch")
        if not np.allclose(tandem, tandem.T, atol=1e-12):
            raise DomainError("tandem matrix must be symmetric")
        if np.any((tandem < -1e-12) | (tandem > 1 + 1e-12)):
            raise DomainError("tandem entries outside [0, 1]")
        if not np.allclose(np.diag(tandem), single, atol=1e-12):
            raise DomainError("tandem diagonal must equal the single losses")
        if self.n < 1 or self.m < 1:
            raise DomainError("need n >= 1 and m >= 1")


@dataclass(frozen=True)
class AlphaTandemStats:
    """Pairwise statistics of the offset tandem loss (l_h - a)(l_h' - a).

    The loss takes the three values a^2, -a(1-a), (1-a)^2; ``a``/``mu``/``b``
    are its sorted range with ``mu`` the middle value, and ``k_range`` =
    b - a = max(1-alpha, 1-2alpha).  ``n`` and ``m`` are the single and
    pairwise minimum OOB counts of the source matrix.
    """

    alpha: float
    mean: np.ndarray
    second_moment: np.ndarray
    variance: np.ndarray
    plus: np.ndarray
    minus: np.ndarray
    a: float
    mu: float
    b: float
    k_range: float
    n: int
    m: int


@dataclass(frozen=True)
class PosteriorWeights:
    """A posterior rho on the hypothesis simplex, paired with its prior pi."""

    rho: np.ndarray
    pi: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=float)
        pi = np.asarray(self.pi, dtype=float)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "pi", pi)
        if rho.shape != pi.shape or rho.ndim != 1:
            raise DomainError("rho and pi must be 1-d vectors of equal length")
        for name, v in (("rho", rho), ("pi", pi)):
            # negated comparisons, so that NaN fails them too
            if not (np.all(v >= -1e-9) and abs(v.sum() - 1.0) <= 1e-9):
                raise DomainError(f"{name} is not on the simplex")


@dataclass(frozen=True)
class EvaluationMatrix:
    """Per-hypothesis predicted labels plus true labels for held-out data."""

    predictions: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        preds = np.asarray(self.predictions, dtype=int)
        labels = np.asarray(self.labels, dtype=int)
        object.__setattr__(self, "predictions", preds)
        object.__setattr__(self, "labels", labels)
        if preds.ndim != 2 or labels.ndim != 1 or preds.shape[1] != len(labels):
            raise DomainError("predictions must be H x N with N labels")
        if len(labels) == 0:
            raise DomainError("empty evaluation set")
        if preds.min() < 0 or labels.min() < 0:
            raise DomainError("labels must be non-negative integers")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------


def compute_tandem_stats(plm: PredictionLossMatrix) -> TandemStats:
    """Average single and pairwise losses over the OOB (intersection) masks."""
    valid, both, _, _, row_counts = plm.pair_counts
    tandem = both / valid
    single = np.diag(tandem).copy()
    return TandemStats(
        single_loss=single,
        tandem_loss=tandem,
        n=int(row_counts.min()),
        m=int(valid.min()),
    )


def alpha_value_range(alpha):
    """Sorted value range (a, mu, b, K) of the offset tandem loss."""
    v_both = (1.0 - alpha) ** 2
    v_one = -alpha * (1.0 - alpha)
    v_none = alpha * alpha
    if alpha >= 0:
        a, mu = v_one, v_none
    else:
        a, mu = v_none, v_one
    b = v_both
    return a, mu, b, max(1.0 - alpha, 1.0 - 2.0 * alpha)


def alpha_stats(plm: PredictionLossMatrix, alpha) -> AlphaTandemStats:
    """Offset tandem loss statistics over pairwise OOB intersections.

    Each pair's offset loss takes one of three values determined by whether
    both, one, or neither hypothesis errs; all moments and splits follow
    from the three per-pair counts.  Pairs with a single overlap sample get
    unbiased variance 0.
    """
    if not -0.5 <= alpha < 0.5:
        raise DomainError("alpha must lie in [-0.5, 0.5)")
    valid, both, one, none, row_counts = plm.pair_counts
    v_both = (1.0 - alpha) ** 2
    v_one = -alpha * (1.0 - alpha)
    v_none = alpha * alpha
    a, mu, b, k_range = alpha_value_range(alpha)

    def pair_mean(f_both, f_one, f_none):
        return (both * f_both + one * f_one + none * f_none) / valid

    mean = pair_mean(v_both, v_one, v_none)
    second = pair_mean(v_both**2, v_one**2, v_none**2)
    with np.errstate(invalid="ignore", divide="ignore"):
        variance = np.where(
            valid >= 2, (second - mean**2) * valid / np.maximum(valid - 1.0, 1.0), 0.0
        )
    variance = np.maximum(variance, 0.0)
    plus = pair_mean(max(0.0, v_both - mu), max(0.0, v_one - mu), max(0.0, v_none - mu))
    minus = pair_mean(max(0.0, mu - v_both), max(0.0, mu - v_one), max(0.0, mu - v_none))
    return AlphaTandemStats(
        alpha=float(alpha),
        mean=mean,
        second_moment=second,
        variance=variance,
        plus=plus,
        minus=minus,
        a=a,
        mu=mu,
        b=b,
        k_range=k_range,
        n=int(row_counts.min()),
        m=int(valid.min()),
    )


def mv_risk(em: EvaluationMatrix, w: PosteriorWeights) -> float:
    """Zero-one risk of the rho-weighted plurality vote on an evaluation set.

    Ties go to the smallest label index.
    """
    if len(w.rho) != em.predictions.shape[0]:
        raise DomainError("weight vector does not match the hypothesis count")
    n_classes = int(max(em.predictions.max(), em.labels.max())) + 1
    scores = np.zeros((em.predictions.shape[1], n_classes))
    for c in range(n_classes):
        scores[:, c] = w.rho @ (em.predictions == c)
    votes = np.argmax(scores, axis=1)
    return float(np.mean(votes != em.labels))


# ---------------------------------------------------------------------------
# Simplex projection and iRProp+
# ---------------------------------------------------------------------------


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by sort-and-threshold."""
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("need a non-empty 1-d vector")
    u = np.sort(v)[::-1]
    css = np.cumsum(u)
    ks = np.arange(1, v.size + 1)
    cond = u - (css - 1.0) / ks > 0
    k = int(ks[cond][-1])
    tau = (css[k - 1] - 1.0) / k
    return np.maximum(v - tau, 0.0)


@dataclass(frozen=True)
class IRPropConfig:
    step_init: float = 0.01
    step_grow: float = 1.2
    step_shrink: float = 0.5
    step_min: float = 1e-8
    step_max: float = 0.1
    max_iter: int = 1000
    tol: float = 1e-9
    patience: int = 10


def irprop_plus(gradient, objective, init, config: IRPropConfig = IRPropConfig()):
    """Minimize over the simplex with sign-based step adaptation.

    Per-coordinate steps grow by ``step_grow`` while the gradient sign holds
    and shrink by ``step_shrink`` on a sign flip; a flip after a worsening
    step reverts that coordinate's move.  Iterates are projected onto the
    simplex; stops after ``patience`` consecutive iterations improving the
    best objective by less than ``tol``.  Never returns a point worse than
    ``init``.
    """
    x = project_simplex(init)
    f = objective(x)
    g = np.asarray(gradient(x), dtype=float)
    if not np.all(np.isfinite(g)):
        raise DomainError("non-finite gradient")
    steps = np.full_like(x, config.step_init)
    prev_g = np.zeros_like(x)
    prev_dx = np.zeros_like(x)
    best_x, best_f = x.copy(), f
    f_prev = f
    stall = 0
    for _ in range(config.max_iter):
        s = g * prev_g
        grow, shrink = s > 0, s < 0
        steps = np.where(grow, np.minimum(steps * config.step_grow, config.step_max), steps)
        steps = np.where(shrink, np.maximum(steps * config.step_shrink, config.step_min), steps)
        dx = np.where(shrink, 0.0, -np.sign(g) * steps)
        if f > f_prev:
            # weight-backtracking: undo the previous move on flipped coords
            dx = np.where(shrink, -prev_dx, dx)
        x_new = project_simplex(x + dx)
        f_prev = f
        prev_g = np.where(shrink, 0.0, g)
        prev_dx = x_new - x
        x = x_new
        f = objective(x)
        g = np.asarray(gradient(x), dtype=float)
        if not np.all(np.isfinite(g)):
            raise DomainError("non-finite gradient")
        if f < best_f - config.tol:
            stall = 0
        else:
            stall += 1
        if f < best_f:
            best_x, best_f = x.copy(), f
        if stall >= config.patience:
            break
    return best_x


# ---------------------------------------------------------------------------
# Bound compute forms
# ---------------------------------------------------------------------------


def _quad(rho, matrix):
    return float(np.clip(rho @ matrix @ rho, 0.0, None))


def _tandem_eps(kl, m, delta):
    return (2.0 * kl + math.log(4.0 * math.sqrt(m) / delta)) / m


def tnd_bound(ts: TandemStats, w: PosteriorWeights, delta) -> float:
    """4 kl_inv_upper(rho' T rho, (2 KL + ln(4 sqrt(m)/d)) / m)."""
    t = _clamp01(_quad(w.rho, ts.tandem_loss))
    kl = discrete_kl(w.rho, w.pi)
    return 4.0 * kl_inv_upper(t, _tandem_eps(kl, ts.m, delta))


def cctnd_bound(ts: TandemStats, w: PosteriorWeights, alpha, delta) -> float:
    """Chebyshev-Cantelli with kl-bounded tandem and single losses.

    The single-loss inverse direction follows the sign of alpha: lower
    inverse for alpha >= 0, upper inverse for alpha < 0.  alpha = 0 is
    exactly the TND bound.
    """
    if alpha >= 0.5:
        raise DomainError("alpha must be below 0.5")
    t = _clamp01(_quad(w.rho, ts.tandem_loss))
    g = _clamp01(float(w.rho @ ts.single_loss))
    kl = discrete_kl(w.rho, w.pi)
    t_term = kl_inv_upper(t, _tandem_eps(kl, ts.m, delta))
    eps_g = (kl + math.log(4.0 * math.sqrt(ts.n) / delta)) / ts.n
    g_term = kl_inv_lower(g, eps_g) if alpha >= 0 else kl_inv_upper(g, eps_g)
    return _cc_value(t_term, g_term, alpha)


def _cc_value(t, u, alpha):
    """Chebyshev-Cantelli combination (T - 2 alpha u + alpha^2) / (1/2 - alpha)^2
    of a tandem-loss bound T and a single-loss bound u."""
    return (t - 2.0 * alpha * u + alpha * alpha) / (0.5 - alpha) ** 2


def ccpbb_bound(ats: AlphaTandemStats, w: PosteriorWeights, lam, gamma, delta,
                k_lambda, k_gamma) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-Empirical-Bennett tandem estimate."""
    lam_max = 2.0 * (ats.m - 1) / ats.m
    if not 0.0 < lam < lam_max:
        raise DomainError(f"lambda must lie in (0, {lam_max})")
    if gamma <= 0.0:
        raise DomainError("gamma must be positive")
    return _ccpbb_value(ats, _quad(w.rho, ats.mean), _quad(w.rho, ats.variance),
                        discrete_kl(w.rho, w.pi), lam, gamma, delta, k_lambda, k_gamma)


def _ccpbb_value(ats, q_mean, q_var, kl, lam, gamma, delta, k_lambda, k_gamma):
    """:func:`ccpbb_bound` from rho' mean rho, rho' variance rho and KL(rho||pi)."""
    m, n, k = ats.m, ats.n, ats.k_range
    comp = 2.0 * kl + math.log(2.0 * k_lambda * k_gamma / delta)
    u = lam * m / (2.0 * (m - 1))
    bennett = phi(gamma * k) / (gamma * k * k)
    val = q_mean + comp / (gamma * m) + bennett * (
        q_var / (1.0 - u) + k * k * comp / (n * lam * (1.0 - u))
    )
    return val / (0.5 - ats.alpha) ** 2


def ccpbub_gamma_grid(ats: AlphaTandemStats, delta):
    """Geometric gamma grid below 1/b for the offset-loss upper range b."""
    return make_gamma_grid(ats.m, delta, ats.b)


def ccpbub_bound(ats: AlphaTandemStats, w: PosteriorWeights, gamma, delta) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-Unexpected-Bernstein estimate.

    The union-bound factor ln(k_gamma/delta) uses the canonical grid size
    for (m, delta, b) even if the supplied gamma is off-grid.
    """
    b = ats.b
    if not 0.0 < gamma < 1.0 / b:
        raise DomainError(f"gamma must lie in (0, {1.0 / b})")
    k_gamma = ccpbub_gamma_grid(ats, delta).count
    return _ccpbub_value(ats, _quad(w.rho, ats.mean), _quad(w.rho, ats.second_moment),
                         discrete_kl(w.rho, w.pi), gamma, delta, k_gamma)


def _ccpbub_value(ats, q_mean, q_second, kl, gamma, delta, k_gamma):
    """:func:`ccpbub_bound` from rho' mean rho, rho' second_moment rho and KL(rho||pi)."""
    comp = 2.0 * kl + math.log(k_gamma / delta)
    val = _unexpected_bernstein_value(q_mean, q_second, comp, ats.m, gamma, ats.b)
    return val / (0.5 - ats.alpha) ** 2


def ccpbskl_bound(ats: AlphaTandemStats, w: PosteriorWeights, delta) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-split-kl tandem estimate.

    Degenerate split weights contribute 0; at alpha = 0 this is exactly the
    TND bound.
    """
    eps = _tandem_eps(discrete_kl(w.rho, w.pi), ats.m, delta)
    val = _split_kl_value(ats.mu, ats.b - ats.mu, ats.mu - ats.a,
                          _quad(w.rho, ats.plus), _quad(w.rho, ats.minus), eps)
    return val / (0.5 - ats.alpha) ** 2


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


class _BestTracker:
    """Keeps the best compute-form value seen; trace is non-increasing."""

    def __init__(self):
        self.value = math.inf
        self.rho = None
        self.params = {}
        self.trace = []

    def update(self, value, rho, **params):
        if value < self.value:
            self.value = value
            self.rho = np.array(rho, dtype=float, copy=True)
            self.params = params
        self.trace.append(self.value)


def _affine_gradient(pi, c_kl, *terms):
    """Gradient in rho of c_kl KL(rho||pi) plus, for each (c, form) in
    ``terms``, c rho' form rho (symmetric matrix form) or c rho . form
    (vector form).

    Every iRProp+ objective below is, for fixed outer parameters, affine in
    its quadratic forms, the linear form rho . single and KL(rho||pi), so
    its gradient is this chain rule with the objective's coefficients.
    """
    def gradient(r):
        grad = c_kl * (np.log(np.maximum(r, _TINY) / pi) + 1.0)
        for c, form in terms:
            grad = grad + c * (2.0 * (form @ r) if form.ndim == 2 else form)
        return grad

    return gradient


def _report(name, tracker, delta, iterations):
    params = dict(tracker.params)
    params["iterations"] = iterations
    params["trace"] = tuple(tracker.trace)
    return BoundReport(name=name, value=tracker.value, delta=delta, params=params)


def tnd_optimize(ts: TandemStats, pi, delta, irprop_config=IRPropConfig()):
    """Alternate the closed-form lambda step with iRProp+ steps on rho."""
    pi = np.asarray(pi, dtype=float)
    matrix = ts.tandem_loss
    m = ts.m
    ln_c = math.log(2.0 * math.sqrt(m) / delta)
    tracker = _BestTracker()
    rho = pi.copy()
    tracker.update(tnd_bound(ts, PosteriorWeights(rho, pi), delta), rho, lam=None)
    prev_val = tracker.value
    iterations = 0
    for _ in range(MAX_OUTER):
        iterations += 1
        t = _quad(rho, matrix)
        kl = discrete_kl(rho, pi)
        lam = lambda_star(t, 2.0 * kl + ln_c, m)

        def objective(r, lam=lam):
            comp = 2.0 * _discrete_kl_unchecked(r, pi) + ln_c
            return 4.0 * _lambda_upper_value(_quad(r, matrix), comp, m, lam)

        gradient = _affine_gradient(
            pi, 8.0 / (lam * (1.0 - lam / 2.0) * m), (4.0 / (1.0 - lam / 2.0), matrix)
        )
        rho = irprop_plus(gradient, objective, rho, irprop_config)
        val = tnd_bound(ts, PosteriorWeights(rho, pi), delta)
        tracker.update(val, rho, lam=lam)
        if abs(prev_val - val) < OUTER_TOL:
            break
        prev_val = val
    w = PosteriorWeights(tracker.rho, pi)
    return w, _report("tnd", tracker, delta, iterations)


def _cctnd_surrogates(t, g, kl, n, m, comp_t, comp_g, lam, gam_lo, gam_up):
    """Relaxed tandem surrogate T and single-loss surrogates (lower, upper);
    ``comp_t``/``comp_g`` are the complexity terms without their KL part."""
    big_t = _lambda_upper_value(t, 2.0 * kl + comp_t, m, lam)
    u_lo = 0.0 if math.isinf(gam_lo) else _lambda_lower_value(g, kl + comp_g, n, gam_lo)
    u_up = _lambda_upper_value(g, kl + comp_g, n, gam_up)
    return big_t, u_lo, u_up


def _alpha_surrogate_min(big_t, u, lo, hi, extra):
    """Minimize (T - 2 a u + a^2) / (0.5 - a)^2 over [lo, hi].

    The derivative numerator is linear in a with stationary point
    a* = (u/2 - T) / (1/2 - u); candidates are a*, the endpoints, and any
    supplied grid points.  Returns (None, inf) for an empty interval.
    """
    if lo > hi:
        return None, math.inf
    cands = [lo, hi] + [a for a in extra if lo <= a <= hi]
    if abs(0.5 - u) > _TINY:
        star = (0.5 * u - big_t) / (0.5 - u)
        if lo <= star <= hi:
            cands.append(star)
    vals = [_cc_value(big_t, u, a) for a in cands]
    best = int(np.argmin(vals))
    return cands[best], vals[best]


def cctnd_optimize(ts: TandemStats, pi, delta, alpha_grid=None, fixed_alpha=None,
                   irprop_config=IRPropConfig()):
    """Alternating minimization over (rho, lambda, gamma, alpha).

    Each round takes the closed-form lambda and gamma for the current rho
    and alpha, minimizes the relaxed objective in alpha analytically (with
    the grid points as safeguard candidates), and then runs iRProp+ on rho.
    alpha = 0 collapses to the TND bound, so the TND optimizer's result is
    always included as a candidate; fixing alpha = 0 delegates outright.
    """
    pi = np.asarray(pi, dtype=float)
    grid = DEFAULT_ALPHA_GRID if alpha_grid is None else tuple(alpha_grid)
    a_lo, a_hi = min(grid), max(grid)
    if fixed_alpha is not None and not -0.5 <= fixed_alpha < 0.5:
        raise DomainError("alpha must lie in [-0.5, 0.5)")

    tnd_w, tnd_rep = tnd_optimize(ts, pi, delta, irprop_config)
    if fixed_alpha == 0.0:
        report = BoundReport("cctnd", tnd_rep.value, delta, dict(tnd_rep.params, alpha=0.0))
        return tnd_w, 0.0, report

    matrix, single = ts.tandem_loss, ts.single_loss
    n, m = ts.n, ts.m
    comp_g_const = math.log(4.0 * math.sqrt(n) / delta)
    comp_t_const = math.log(4.0 * math.sqrt(m) / delta)
    tracker = _BestTracker()
    rho = pi.copy()
    alpha = fixed_alpha if fixed_alpha is not None else 0.0
    tracker.update(
        cctnd_bound(ts, PosteriorWeights(rho, pi), alpha, delta), rho, alpha=alpha
    )
    prev_val = tracker.value
    iterations = 0
    for _ in range(MAX_OUTER):
        iterations += 1
        t = _quad(rho, matrix)
        g = _clamp01(float(rho @ single))
        kl = discrete_kl(rho, pi)
        lam = lambda_star(t, 2.0 * kl + comp_t_const, m)
        gam_lo = gamma_star(g, kl + comp_g_const, n)
        gam_up = lambda_star(g, kl + comp_g_const, n)
        big_t, u_lo, u_up = _cctnd_surrogates(
            t, g, kl, n, m, comp_t_const, comp_g_const, lam, gam_lo, gam_up
        )
        if fixed_alpha is None:
            pos = _alpha_surrogate_min(big_t, u_lo, max(0.0, a_lo), a_hi, grid)
            neg = _alpha_surrogate_min(big_t, u_up, a_lo, min(0.0, a_hi), grid)
            alpha = pos[0] if pos[1] <= neg[1] else neg[0]
            if alpha is None:
                raise DomainError("alpha grid spans no admissible range")

        def objective(r, alpha=alpha, lam=lam, gam_lo=gam_lo, gam_up=gam_up):
            big_t, u_lo, u_up = _cctnd_surrogates(
                _quad(r, matrix), float(r @ single), _discrete_kl_unchecked(r, pi),
                n, m, comp_t_const, comp_g_const, lam, gam_lo, gam_up,
            )
            return _cc_value(big_t, u_lo if alpha >= 0 else u_up, alpha)

        # slopes of the single-loss surrogate in rho . single and in KL
        if alpha < 0:
            gam = gam_up
            u_g, u_kl = 1.0 / (1.0 - gam / 2.0), 1.0 / (gam * (1.0 - gam / 2.0) * n)
        else:
            gam = gam_lo
            u_g, u_kl = (0.0, 0.0) if math.isinf(gam) else (1.0 - gam / 2.0, -1.0 / (gam * n))
        scale = (0.5 - alpha) ** 2
        gradient = _affine_gradient(
            pi, (2.0 / (lam * (1.0 - lam / 2.0) * m) - 2.0 * alpha * u_kl) / scale,
            (1.0 / ((1.0 - lam / 2.0) * scale), matrix), (-2.0 * alpha * u_g / scale, single),
        )
        rho = irprop_plus(gradient, objective, rho, irprop_config)
        val = cctnd_bound(ts, PosteriorWeights(rho, pi), alpha, delta)
        tracker.update(val, rho, alpha=alpha, lam=lam, gam=gam)
        if abs(prev_val - val) < OUTER_TOL:
            break
        prev_val = val

    if fixed_alpha is None and tnd_rep.value < tracker.value:
        tracker.update(tnd_rep.value, tnd_w.rho, alpha=0.0, lam=tnd_rep.params.get("lam"))
    w = PosteriorWeights(tracker.rho, pi)
    alpha_best = tracker.params.get("alpha", 0.0)
    return w, alpha_best, _report("cctnd", tracker, delta, iterations)


def _ccpbb_grids(m):
    lam_max = 2.0 * (m - 1) / m
    lam_grid = lam_max * np.geomspace(1e-3, 1.0, 21)[:-1]
    gam_grid = np.geomspace(1e-3, 10.0, 20)
    return lam_grid, gam_grid


def ccpbb_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                   fixed_alpha=None, irprop_config=IRPropConfig()):
    """Outer alpha grid; per alpha, grid steps on (lambda, gamma) + iRProp+.

    lambda is selected first at the current gamma, then gamma at the new
    lambda, matching the sequential grid policy; both grids enter the bound
    through the ln(2 k_lambda k_gamma / delta) union factor.
    """
    pi = np.asarray(pi, dtype=float)
    grid = _alpha_iteration(alpha_grid, fixed_alpha)
    tracker = _BestTracker()
    iterations = 0
    for alpha in grid:
        ats = alpha_stats(plm, alpha)
        lam_grid, gam_grid = _ccpbb_grids(ats.m)
        k_lam, k_gam = len(lam_grid), len(gam_grid)
        rho = pi.copy()
        gam = gam_grid[len(gam_grid) // 2]
        prev_val = math.inf
        for _ in range(MAX_OUTER):
            iterations += 1
            forms = (_quad(rho, ats.mean), _quad(rho, ats.variance), discrete_kl(rho, pi))
            lam_vals = [
                _ccpbb_value(ats, *forms, lv, gam, delta, k_lam, k_gam) for lv in lam_grid
            ]
            lam = float(lam_grid[int(np.argmin(lam_vals))])
            gam_vals = [
                _ccpbb_value(ats, *forms, lam, gv, delta, k_lam, k_gam) for gv in gam_grid
            ]
            gam = float(gam_grid[int(np.argmin(gam_vals))])
            val0 = min(gam_vals)
            tracker.update(val0, rho, alpha=alpha, lam=lam, gam=gam)

            def objective(r, ats=ats, lam=lam, gam=gam):
                return _ccpbb_value(ats, _quad(r, ats.mean), _quad(r, ats.variance),
                                    _discrete_kl_unchecked(r, pi), lam, gam, delta, k_lam, k_gam)

            u = lam * ats.m / (2.0 * (ats.m - 1))
            bennett = phi(gam * ats.k_range) / (gam * ats.k_range**2)
            scale = (0.5 - alpha) ** 2
            c_comp = 1.0 / (gam * ats.m) + bennett * ats.k_range**2 / (ats.n * lam * (1.0 - u))
            gradient = _affine_gradient(
                pi, 2.0 * c_comp / scale,
                (1.0 / scale, ats.mean), (bennett / ((1.0 - u) * scale), ats.variance),
            )
            rho = irprop_plus(gradient, objective, rho, irprop_config)
            val = ccpbb_bound(ats, PosteriorWeights(rho, pi), lam, gam, delta, k_lam, k_gam)
            tracker.update(val, rho, alpha=alpha, lam=lam, gam=gam)
            if abs(prev_val - val) < OUTER_TOL:
                break
            prev_val = val
    w = PosteriorWeights(tracker.rho, pi)
    params = dict(tracker.params)
    return w, params, _report("ccpbb", tracker, delta, iterations)


def ccpbub_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                    fixed_alpha=None, irprop_config=IRPropConfig()):
    """Outer alpha grid; per alpha, alternate grid-gamma selection and iRProp+."""
    pi = np.asarray(pi, dtype=float)
    grid = _alpha_iteration(alpha_grid, fixed_alpha)
    tracker = _BestTracker()
    iterations = 0
    for alpha in grid:
        ats = alpha_stats(plm, alpha)
        gamma_grid = ccpbub_gamma_grid(ats, delta)
        gam_grid, k_gam = gamma_grid.values, gamma_grid.count
        rho = pi.copy()
        prev_val = math.inf
        for _ in range(MAX_OUTER):
            iterations += 1
            forms = (_quad(rho, ats.mean), _quad(rho, ats.second_moment), discrete_kl(rho, pi))
            gam_vals = [_ccpbub_value(ats, *forms, gv, delta, k_gam) for gv in gam_grid]
            gam = float(gam_grid[int(np.argmin(gam_vals))])
            tracker.update(min(gam_vals), rho, alpha=alpha, gam=gam)

            def objective(r, ats=ats, gam=gam):
                return _ccpbub_value(ats, _quad(r, ats.mean), _quad(r, ats.second_moment),
                                     _discrete_kl_unchecked(r, pi), gam, delta, k_gam)

            scale = (0.5 - alpha) ** 2
            gradient = _affine_gradient(
                pi, 2.0 / (gam * ats.m * scale), (1.0 / scale, ats.mean),
                (_unexpected_bernstein_weight(gam, ats.b) / scale, ats.second_moment),
            )
            rho = irprop_plus(gradient, objective, rho, irprop_config)
            val = ccpbub_bound(ats, PosteriorWeights(rho, pi), gam, delta)
            tracker.update(val, rho, alpha=alpha, gam=gam)
            if abs(prev_val - val) < OUTER_TOL:
                break
            prev_val = val
    w = PosteriorWeights(tracker.rho, pi)
    return w, dict(tracker.params), _report("ccpbub", tracker, delta, iterations)


def ccpbskl_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                     fixed_alpha=None, irprop_config=IRPropConfig()):
    """Outer alpha grid; per alpha, closed-form (lambda, gamma) + iRProp+.

    The relaxed objective applies the lambda upper form to the plus split
    and the gamma lower form to the minus split.  alpha = 0 collapses to
    the TND bound and is delegated to the TND optimizer.
    """
    pi = np.asarray(pi, dtype=float)
    grid = _alpha_iteration(alpha_grid, fixed_alpha)
    ts = compute_tandem_stats(plm)
    tracker = _BestTracker()
    iterations = 0
    for alpha in grid:
        if alpha == 0.0:
            tnd_w, tnd_rep = tnd_optimize(ts, pi, delta, irprop_config)
            iterations += tnd_rep.params["iterations"]
            tracker.update(
                tnd_rep.value, tnd_w.rho, alpha=0.0, lam=tnd_rep.params.get("lam"),
                gam=None,
            )
            continue
        ats = alpha_stats(plm, alpha)
        plus_w = ats.b - ats.mu
        minus_w = ats.mu - ats.a
        comp_const = math.log(4.0 * math.sqrt(ats.m) / delta)
        scale = (0.5 - alpha) ** 2
        rho = pi.copy()
        prev_val = math.inf
        for _ in range(MAX_OUTER):
            iterations += 1
            kl = discrete_kl(rho, pi)
            comp = 2.0 * kl + comp_const
            lam = lambda_star(_quad(rho, ats.plus) / plus_w, comp, ats.m)
            gam = gamma_star(_quad(rho, ats.minus) / minus_w, comp, ats.m)

            def objective(r, ats=ats, lam=lam, gam=gam, plus_w=plus_w, minus_w=minus_w,
                          scale=scale):
                comp_r = 2.0 * _discrete_kl_unchecked(r, pi) + comp_const
                val = ats.mu + _lambda_upper_value(_quad(r, ats.plus), plus_w * comp_r,
                                                   ats.m, lam)
                if not math.isinf(gam):
                    val -= _lambda_lower_value(_quad(r, ats.minus), minus_w * comp_r,
                                               ats.m, gam)
                return val / scale

            c_kl = plus_w / (lam * (1.0 - lam / 2.0) * ats.m)
            terms = [(1.0 / ((1.0 - lam / 2.0) * scale), ats.plus)]
            if not math.isinf(gam):
                c_kl += minus_w / (gam * ats.m)
                terms.append((-(1.0 - gam / 2.0) / scale, ats.minus))
            gradient = _affine_gradient(pi, 2.0 * c_kl / scale, *terms)
            rho = irprop_plus(gradient, objective, rho, irprop_config)
            val = ccpbskl_bound(ats, PosteriorWeights(rho, pi), delta)
            tracker.update(val, rho, alpha=alpha, lam=lam, gam=gam)
            if abs(prev_val - val) < OUTER_TOL:
                break
            prev_val = val
    w = PosteriorWeights(tracker.rho, pi)
    return w, dict(tracker.params), _report("ccpbskl", tracker, delta, iterations)


def _alpha_iteration(alpha_grid, fixed_alpha):
    if fixed_alpha is not None:
        if not -0.5 <= fixed_alpha < 0.5:
            raise DomainError("alpha must lie in [-0.5, 0.5)")
        return (float(fixed_alpha),)
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = tuple(float(a) for a in alpha_grid)
    if any(not -0.5 <= a < 0.5 for a in grid):
        raise DomainError("alpha grid values must lie in [-0.5, 0.5)")
    return grid
