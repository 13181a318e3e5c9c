"""Weighted majority-vote risk certificates and posterior optimization.

Statistics are estimated from an out-of-bag-masked zero-one loss matrix:
per-hypothesis losses, pairwise tandem losses, and offset (alpha-) tandem
losses together with their second moments, variances and split means.

Five bound families operate on those statistics: TND (second-order Markov
on the tandem loss), and the Chebyshev-Cantelli family CCTND / CCPBB /
CCPBUB / CCPBSkl, which bound the alpha-tandem loss with PAC-Bayes-kl,
-Empirical-Bennett, -Unexpected-Bernstein and -split-kl respectively.
Each family has a compute form and an optimizer.  All five optimizers share
one outer-round driver, which alternates closed-form or grid parameter steps
with iRProp+ steps on the posterior, projected onto the simplex: the alpha
families optimize every alpha of the grid as the rows of one batch, and TND
and CCTND are one-row families.  Each family states its iRProp+ objective
once; the driver reads the gradient's coefficients off it, and logs each
compute-form value with its rho and parameters.  One rule picks the record
an optimizer reports, so the reported bound never exceeds the value at rho = pi.
Every optimizer returns ``(PosteriorWeights, BoundReport)``; the report's
params hold the chosen parameters, the iteration count and the trace.
"""

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .concentration import (
    BoundReport,
    _check_delta,
    _clamp01,
    _split_kl_value,
    _unexpected_bernstein_value,
    make_gamma_grid,
)
from .errors import DomainError
from .klcore import _discrete_kl_unchecked, discrete_kl, kl_inv_lower, kl_inv_upper, phi
from .pacbayes import _lambda_lower_value, _lambda_upper_value, gamma_star, lambda_star

# Alpha grid for the offset bounds: step 0.01 over [-0.5, 0.49], which puts
# the TND collapse point alpha = 0 exactly on the grid.
DEFAULT_ALPHA_GRID = tuple(np.round(np.arange(-50, 50) / 100.0, 2).tolist())

OUTER_TOL = 1e-9
MAX_OUTER = 50

_TINY = 1e-12

_STACK_ENTRIES = 1 << 18  # most entries A * H * H of one stacked statistic of A alphas


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
    are its sorted range with ``mu`` the middle value, ``k_range`` =
    b - a = max(1-alpha, 1-2alpha).  ``n`` and ``m`` are the single and
    pairwise minimum OOB counts of the source matrix.  A stacked instance
    holds A alphas: (A, H, H) matrices and (A, 1) columns of the scalars.
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
        _check_simplex("rho", rho)
        _check_simplex("pi", pi)


def _check_simplex(name, v):
    # negated comparisons, so that NaN fails them too
    if not (np.all(v >= -1e-9) and abs(v.sum() - 1.0) <= 1e-9):
        raise DomainError(f"{name} is not on the simplex")


@dataclass(frozen=True)
class EvaluationMatrix:
    """Per-hypothesis predicted labels plus true labels for held-out data.

    ``classes``, the sorted distinct labels of both, is formed once.
    """

    predictions: np.ndarray
    labels: np.ndarray
    classes: np.ndarray = field(init=False, repr=False, compare=False)

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
        object.__setattr__(self, "classes", np.union1d(np.unique(preds), labels))


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


def _offset_values(alpha):
    """The offset tandem loss's three values (both, one, none err) and its
    sorted range (a, mu, b, K), K = b - a, elementwise in an array of alphas."""
    v = ((1.0 - alpha) ** 2, -alpha * (1.0 - alpha), alpha * alpha)
    positive = alpha >= 0
    a, mu = np.where(positive, v[1], v[2]), np.where(positive, v[2], v[1])
    return v, (a, mu, v[0], np.maximum(1.0 - alpha, 1.0 - 2.0 * alpha))


def alpha_value_range(alpha):
    """Sorted value range (a, mu, b, K) of the offset tandem loss."""
    return tuple(float(x[0]) for x in _offset_values(np.array([alpha], dtype=float))[1])


def alpha_stats(plm: PredictionLossMatrix, alpha) -> AlphaTandemStats:
    """Offset tandem loss statistics over pairwise OOB intersections.

    Each pair's offset loss takes one of three values determined by whether
    both, one, or neither hypothesis errs; all moments and splits follow
    from the three per-pair counts.  Pairs with a single overlap sample get
    unbiased variance 0.  A sequence of alphas gives one stacked instance,
    whose row for each alpha is bit-equal to that alpha's own call and to
    :func:`alpha_value_range`: both come from one elementwise pass over the
    alphas.
    """
    alphas = np.atleast_1d(np.asarray(alpha, dtype=float))
    if not np.all((-0.5 <= alphas) & (alphas < 0.5)):
        raise DomainError("alpha must lie in [-0.5, 0.5)")
    valid, both, one, none, row_counts = plm.pair_counts
    v, (lo, mu, hi, k_range) = _offset_values(alphas[:, None, None])

    def pair_mean(f_both, f_one, f_none):
        return (both * f_both + one * f_one + none * f_none) / valid

    mean = pair_mean(*v)
    second = pair_mean(*(x * x for x in v))
    with np.errstate(invalid="ignore", divide="ignore"):
        variance = np.where(
            valid >= 2, (second - mean**2) * valid / np.maximum(valid - 1.0, 1.0), 0.0
        )
    variance = np.maximum(variance, 0.0)
    stats = AlphaTandemStats(
        alpha=alphas[:, None], mean=mean, second_moment=second, variance=variance,
        plus=pair_mean(*(np.maximum(0.0, x - mu) for x in v)),
        minus=pair_mean(*(np.maximum(0.0, mu - x) for x in v)), a=lo[..., 0], mu=mu[..., 0],
        b=hi[..., 0], k_range=k_range[..., 0], n=int(row_counts.min()), m=int(valid.min()),
    )
    if np.ndim(alpha):
        return stats
    return replace(stats, **{name: value[0] if value.ndim == 3 else float(value[0, 0])
                             for name, value in _row_fields(stats)})


def _row_fields(stats):
    """(name, value) of each per-alpha field of a stacked AlphaTandemStats."""
    return [(f.name, getattr(stats, f.name)) for f in fields(stats)
            if np.ndim(getattr(stats, f.name)) > 0]


def _take_rows(stats, rows):
    """The stacked statistics of the selected alphas."""
    return replace(stats, **{name: value[rows] for name, value in _row_fields(stats)})


def mv_risk(em: EvaluationMatrix, w: PosteriorWeights) -> float:
    """Zero-one risk of the rho-weighted plurality vote on an evaluation set.

    Ties go to the smallest label.  Scores are kept only for the labels that
    occur, so the cost does not grow with the label values.
    """
    if len(w.rho) != em.predictions.shape[0]:
        raise DomainError("weight vector does not match the hypothesis count")
    scores = np.zeros((em.predictions.shape[1], len(em.classes)))
    for j, c in enumerate(em.classes):
        scores[:, j] = w.rho @ (em.predictions == c)
    votes = em.classes[np.argmax(scores, axis=1)]
    return float(np.mean(votes != em.labels))


# ---------------------------------------------------------------------------
# Simplex projection and iRProp+
# ---------------------------------------------------------------------------


def project_simplex(v) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = 1} by sort-and-threshold."""
    return _project_rows(_vector(v)[None, :])[0]


def _vector(v):
    v = np.asarray(v, dtype=float)
    if v.ndim != 1 or v.size == 0:
        raise DomainError("need a non-empty 1-d vector")
    if not np.all(np.isfinite(v)):
        raise DomainError("need a finite vector")
    return v


def _project_rows(v):
    """:func:`project_simplex` of each row of an (A, H) matrix."""
    u = np.sort(v, axis=1)[:, ::-1]
    css = np.cumsum(u, axis=1)
    ks = np.arange(1, v.shape[1] + 1)
    # the largest k with u_k > (css_k - 1) / k; k = 1 always qualifies
    k = v.shape[1] - np.argmax((u - (css - 1.0) / ks > 0)[:, ::-1], axis=1)
    tau = (css[np.arange(len(v)), k - 1] - 1.0) / k
    return np.maximum(v - tau[:, None], 0.0)


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
    ``init``.  This is the one-row case of :func:`_irprop_rows`.
    """
    return _irprop_rows(
        lambda x: np.asarray(gradient(x[0]), dtype=float)[None, :],
        lambda x: np.asarray(objective(x[0]), dtype=float).reshape(1),
        _vector(init)[None, :], config,
    )[0]


def _irprop_rows(gradient, objective, init, config: IRPropConfig):
    """iRProp+ on each row of an (A, H) matrix independently.

    ``objective`` maps the (A, H) iterates to A values and ``gradient`` to
    (A, H) gradients, row by row.  Each row has its own steps, backtracking,
    best point and patience counter.  The batch iterates until every row
    has stopped or ``max_iter`` is reached; a row that has stopped keeps
    its best point, so each result row equals a separate run on that row.
    """
    x = _project_rows(init)
    running = np.ones(len(x), dtype=bool)
    f, g = objective(x), _finite_rows(gradient(x), running)
    steps = np.full_like(x, config.step_init)
    prev_g, prev_dx = np.zeros_like(x), np.zeros_like(x)
    best_x, best_f, f_prev = x.copy(), f, f
    stall = np.zeros(len(x), dtype=int)
    for _ in range(config.max_iter):
        s = g * prev_g
        grow, shrink = s > 0, s < 0
        steps = np.where(grow, np.minimum(steps * config.step_grow, config.step_max), steps)
        steps = np.where(shrink, np.maximum(steps * config.step_shrink, config.step_min), steps)
        dx = np.where(shrink, 0.0, -np.sign(g) * steps)
        # weight-backtracking: after a worsening step, undo the previous
        # move on flipped coords
        dx = np.where(shrink & (f > f_prev)[:, None], -prev_dx, dx)
        x_new = _project_rows(x + dx)
        f_prev = f
        prev_g = np.where(shrink, 0.0, g)
        prev_dx = x_new - x
        x = x_new
        f, g = objective(x), _finite_rows(gradient(x), running)
        stall = np.where(f < best_f - config.tol, 0, stall + 1)
        better = running & (f < best_f)
        best_x = np.where(better[:, None], x, best_x)
        best_f = np.where(better, f, best_f)
        running &= stall < config.patience
        if not running.any():
            break
    return best_x


def _finite_rows(g, rows):
    if not np.all(np.isfinite(g[rows])):
        raise DomainError("non-finite gradient")
    return g


# ---------------------------------------------------------------------------
# Bound compute forms
# ---------------------------------------------------------------------------


def _quad(rho, matrix):
    """rho' M rho clipped at 0: shape (1,) for one rho, (A, 1) for the rows
    of an (A, H) rho against stacked matrices, each row bit-equal."""
    return np.clip(rho[..., None, :] @ matrix @ rho[..., :, None], 0.0, None)[..., 0]


def _tandem_eps(kl, m, delta):
    return (2.0 * kl + math.log(4.0 * math.sqrt(m) / delta)) / m


def tnd_bound(ts: TandemStats, w: PosteriorWeights, delta) -> float:
    """4 kl_inv_upper(rho' T rho, (2 KL + ln(4 sqrt(m)/d)) / m)."""
    _check_delta(delta)
    return _tnd_value(_quad(w.rho, ts.tandem_loss).item(), discrete_kl(w.rho, w.pi), ts.m, delta)


def _tnd_value(t, kl, m, delta):
    """:func:`tnd_bound` from the floats rho' T rho and KL(rho||pi)."""
    return 4.0 * kl_inv_upper(_clamp01(t), _tandem_eps(kl, m, delta))


def cctnd_bound(ts: TandemStats, w: PosteriorWeights, alpha, delta) -> float:
    """Chebyshev-Cantelli with kl-bounded tandem and single losses.

    The single-loss inverse direction follows the sign of alpha: lower
    inverse for alpha >= 0, upper inverse for alpha < 0.  alpha = 0 is
    exactly the TND bound.
    """
    _check_delta(delta)
    if not -math.inf < alpha < 0.5:  # NaN fails too
        raise DomainError(f"alpha must be finite and below 0.5, got {alpha}")
    return _cctnd_value(_quad(w.rho, ts.tandem_loss).item(), float(w.rho @ ts.single_loss),
                        discrete_kl(w.rho, w.pi), ts.n, ts.m, alpha, delta)


def _cctnd_value(t, g, kl, n, m, alpha, delta):
    """:func:`cctnd_bound` from the floats rho' T rho, rho . single and KL(rho||pi)."""
    t_term = kl_inv_upper(_clamp01(t), _tandem_eps(kl, m, delta))
    eps_g = (kl + math.log(4.0 * math.sqrt(n) / delta)) / n
    g_term = (kl_inv_lower if alpha >= 0 else kl_inv_upper)(_clamp01(g), eps_g)
    return _cc_value(t_term, g_term, alpha)


def _cc_value(t, u, alpha):
    """Chebyshev-Cantelli combination (T - 2 alpha u + alpha^2) / (1/2 - alpha)^2
    of a tandem-loss bound T and a single-loss bound u."""
    return (t - 2.0 * alpha * u + alpha * alpha) / (0.5 - alpha) ** 2


def ccpbb_bound(ats: AlphaTandemStats, w: PosteriorWeights, lam, gamma, delta,
                k_lambda, k_gamma) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-Empirical-Bennett tandem estimate."""
    _check_delta(delta)
    lam_max = 2.0 * (ats.m - 1) / ats.m
    if not 0.0 < lam < lam_max:
        raise DomainError(f"lambda must lie in (0, {lam_max})")
    if not (0.0 < gamma < math.inf and k_lambda >= 1 and k_gamma >= 1):
        raise DomainError(f"need gamma in (0, inf) and grid counts k_lambda, k_gamma >= 1, "
                          f"got {gamma}, {k_lambda}, {k_gamma}")
    return _ccpbb_value(ats, _quad(w.rho, ats.mean).item(), _quad(w.rho, ats.variance).item(),
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
    return val / np.square(0.5 - ats.alpha)


def ccpbub_gamma_grid(ats: AlphaTandemStats, delta):
    """Geometric gamma grid below 1/b for the offset-loss upper range b."""
    return make_gamma_grid(ats.m, delta, ats.b)


def ccpbub_bound(ats: AlphaTandemStats, w: PosteriorWeights, gamma, delta) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-Unexpected-Bernstein estimate.

    The union-bound factor ln(k_gamma/delta) uses the canonical grid size
    for (m, delta, b) even if the supplied gamma is off-grid.
    """
    _check_delta(delta)
    b = ats.b
    if not 0.0 < gamma < 1.0 / b:
        raise DomainError(f"gamma must lie in (0, {1.0 / b})")
    k_gamma = ccpbub_gamma_grid(ats, delta).count
    return _ccpbub_value(ats, _quad(w.rho, ats.mean).item(),
                         _quad(w.rho, ats.second_moment).item(), discrete_kl(w.rho, w.pi),
                         gamma, delta, k_gamma)


def _ccpbub_value(ats, q_mean, q_second, kl, gamma, delta, k_gamma):
    """:func:`ccpbub_bound` from rho' mean rho, rho' second_moment rho and KL(rho||pi)."""
    comp = 2.0 * kl + math.log(k_gamma / delta)
    val = _unexpected_bernstein_value(q_mean, q_second, comp, ats.m, gamma, ats.b)
    return val / np.square(0.5 - ats.alpha)


def ccpbskl_bound(ats: AlphaTandemStats, w: PosteriorWeights, delta) -> float:
    """Chebyshev-Cantelli with a PAC-Bayes-split-kl tandem estimate.

    Degenerate split weights contribute 0; at alpha = 0 this is exactly the
    TND bound.
    """
    _check_delta(delta)
    return _ccpbskl_value(ats, _quad(w.rho, ats.plus).item(), _quad(w.rho, ats.minus).item(),
                          discrete_kl(w.rho, w.pi), delta)


def _ccpbskl_value(ats, q_plus, q_minus, kl, delta):
    """:func:`ccpbskl_bound` from rho' plus rho, rho' minus rho and KL(rho||pi)."""
    val = _split_kl_value(ats.mu, ats.b - ats.mu, ats.mu - ats.a, q_plus, q_minus,
                          _tandem_eps(kl, ats.m, delta))
    return val / np.square(0.5 - ats.alpha)


# ---------------------------------------------------------------------------
# Optimizers
# ---------------------------------------------------------------------------


def _affine_gradient(pi, c_kl, *terms):
    """Gradient in rho of c_kl KL(rho||pi) plus, for each (c, form) in
    ``terms``, c rho' form rho (symmetric matrix form) or c rho . form
    (vector form), for one rho or for each row of an (A, H) rho.

    Every iRProp+ objective below is, for fixed outer parameters, affine in
    its quadratic forms, the linear form rho . single and KL(rho||pi), so
    its gradient is this chain rule with the objective's coefficients, which
    :func:`_outer_rounds` reads off the objective itself.  For rows, each c
    is an (A, 1) column and each matrix form is stacked.
    """
    def gradient(r):
        grad = c_kl * (np.log(np.maximum(r, _TINY) / pi) + 1.0)
        for c, form in terms:
            grad = grad + c * (form if form.ndim == 1 else 2.0 * (form @ r[..., None])[..., 0])
        return grad

    return gradient


def tnd_optimize(ts: TandemStats, pi, delta, irprop_config=IRPropConfig()):
    """Alternate the closed-form lambda step with iRProp+ steps on rho."""
    _check_delta(delta)
    pi = np.asarray(pi, dtype=float)
    m = ts.m
    ln_c = math.log(2.0 * math.sqrt(m) / delta)

    def objective(s, p, t, kl):
        return 4.0 * _lambda_upper_value(t, 2.0 * kl + ln_c, m, p["lam"])

    def step(s, p, t, kl):
        return {"lam": float(lambda_star(t.item(), 2.0 * kl.item() + ln_c, m))}, None

    family = ("tnd", ("tandem_loss",), step, objective,
              lambda s, p, t, kl: np.array([[_tnd_value(t.item(), kl.item(), m, delta)]]))
    log, iterations = _outer_rounds(family, ts, pi, irprop_config, {"lam": None})
    value, rho, params, trace = _best(log)
    return PosteriorWeights(rho, pi), BoundReport(
        "tnd", value, delta, dict(params, iterations=iterations, trace=trace))


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


def cctnd_optimize(ts: TandemStats, pi, delta, alpha_grid=None,
                   irprop_config=IRPropConfig(), tnd=None):
    """Alternating minimization over (rho, lambda, gamma, alpha).

    Each round takes the closed-form lambda and gamma for the current rho
    and alpha, minimizes the relaxed objective in alpha analytically over
    the grid's range [min, max] (with the grid points as safeguard
    candidates), and then runs iRProp+ on rho.  The start is alpha =
    clip(0, min, max), so a one-point grid fixes alpha.  alpha = 0
    collapses to the TND bound, so when min <= 0 <= max the TND optimizer's
    result is a candidate, and wins only when strictly lower: ``tnd``, what
    :func:`tnd_optimize` returns on ``ts`` (the ``(weights, report)`` every
    optimizer returns), or a fresh run when it is None.  The grid (0,)
    delegates to it outright.
    """
    _check_delta(delta)
    grid = _alpha_iteration(alpha_grid)
    pi = np.asarray(pi, dtype=float)
    a_lo, a_hi = min(grid), max(grid)
    if a_lo <= 0.0 <= a_hi:
        tnd_w, tnd_rep = tnd if tnd is not None else tnd_optimize(ts, pi, delta, irprop_config)
        if grid == (0.0,):
            return tnd_w, BoundReport("cctnd", tnd_rep.value, delta,
                                      dict(tnd_rep.params, alpha=0.0))

    n, m = ts.n, ts.m
    comp_g_const = math.log(4.0 * math.sqrt(n) / delta)
    comp_t_const = math.log(4.0 * math.sqrt(m) / delta)

    def surrogates(t, g, kl, lam, gam_lo, gam_up):
        """Relaxed tandem surrogate T and single-loss surrogates (lower, upper)."""
        big_t = _lambda_upper_value(t, 2.0 * kl + comp_t_const, m, lam)
        u_lo = 0.0 if math.isinf(gam_lo) else _lambda_lower_value(g, kl + comp_g_const, n, gam_lo)
        return big_t, u_lo, _lambda_upper_value(g, kl + comp_g_const, n, gam_up)

    def objective(s, p, t, g, kl):
        big_t, u_lo, u_up = surrogates(t, g, kl, p["lam"], p["gam"], p["gam"])
        return _cc_value(big_t, u_lo if p["alpha"] >= 0 else u_up, p["alpha"])

    def step(s, p, t, g, kl):
        t, g, kl = t.item(), _clamp01(g.item()), kl.item()
        lam = float(lambda_star(t, 2.0 * kl + comp_t_const, m))
        gam_lo = float(gamma_star(g, kl + comp_g_const, n))
        gam_up = float(lambda_star(g, kl + comp_g_const, n))
        big_t, u_lo, u_up = surrogates(t, g, kl, lam, gam_lo, gam_up)
        # a one-point grid's one candidate wins
        pos = _alpha_surrogate_min(big_t, u_lo, max(0.0, a_lo), a_hi, grid)
        neg = _alpha_surrogate_min(big_t, u_up, a_lo, min(0.0, a_hi), grid)
        alpha = pos[0] if pos[1] <= neg[1] else neg[0]
        return {"alpha": alpha, "lam": lam, "gam": gam_up if alpha < 0 else gam_lo}, None

    family = ("cctnd", ("tandem_loss", "single_loss"), step, objective, lambda s, p, t, g, kl:
              np.array([[_cctnd_value(t.item(), g.item(), kl.item(), n, m, p["alpha"], delta)]]))
    alpha0 = min(max(0.0, a_lo), a_hi)
    log, iterations = _outer_rounds(family, ts, pi, irprop_config, {"alpha": alpha0})
    if a_lo <= 0.0 <= a_hi and tnd_rep.value < _best(log)[0]:
        log.append(([0], [tnd_rep.value], tnd_w.rho[None],
                    {"alpha": 0.0, "lam": tnd_rep.params.get("lam")}))
    value, rho, params, trace = _best(log)
    return PosteriorWeights(rho, pi), BoundReport(
        "cctnd", value, delta, dict(params, iterations=iterations, trace=trace))


def _ccpbb_grids(m):
    lam_max = 2.0 * (m - 1) / m
    lam_grid = lam_max * np.geomspace(1e-3, 1.0, 21)[:-1]
    gam_grid = np.geomspace(1e-3, 10.0, 20)
    return lam_grid, gam_grid


def ccpbb_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                   irprop_config=IRPropConfig()):
    """Outer alpha grid; per alpha, grid steps on (lambda, gamma) + iRProp+.

    lambda is selected first at the current gamma (at first the grid's
    middle point), then gamma at the new lambda; both grids enter the bound
    through the ln(2 k_lambda k_gamma / delta) union factor.
    """
    _check_delta(delta)
    m = int(plm.pair_counts[0].min())
    if m < 2:  # lambda ranges over (0, 2(m-1)/m), empty at m = 1
        raise DomainError(f"CCPBB needs m >= 2 OOB examples shared by every pair, got m = {m}")
    lam_grid, gam_grid = _ccpbb_grids(m)

    def objective(s, p, q_mean, q_var, kl):
        return _ccpbb_value(s, q_mean, q_var, kl, p["lam"], p["gam"], delta,
                            len(lam_grid), len(gam_grid))

    def step(s, p, *forms):
        gam = gam_grid[len(gam_grid) // 2] if p is None else p["gam"]
        lam = _grid_min(objective(s, {"lam": lam_grid, "gam": gam}, *forms), lam_grid)[0]
        gam, val0 = _grid_min(objective(s, {"lam": lam, "gam": gam_grid}, *forms), gam_grid)
        return {"lam": lam, "gam": gam}, val0

    family = ("ccpbb", ("mean", "variance"), step, objective, objective)
    return _optimize_alphas(family, plm, pi, delta, alpha_grid, irprop_config)


def ccpbub_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                    irprop_config=IRPropConfig()):
    """Outer alpha grid; per alpha, alternate grid-gamma selection and iRProp+."""
    _check_delta(delta)
    k_gam = make_gamma_grid(int(plm.pair_counts[0].min()), delta, 1.0).count  # set by (m, delta)

    def objective(s, p, q_mean, q_second, kl):
        return _ccpbub_value(s, q_mean, q_second, kl, p["gam"], delta, k_gam)

    def step(s, p, *forms):
        # make_gamma_grid(m, delta, b) of each row's b; a power-of-two scale is exact
        grid = 1.0 / (2.0 ** np.arange(1, k_gam + 1) * s.b)
        gam, val0 = _grid_min(objective(s, {"gam": grid}, *forms), grid)
        return {"gam": gam}, val0

    family = ("ccpbub", ("mean", "second_moment"), step, objective, objective)
    return _optimize_alphas(family, plm, pi, delta, alpha_grid, irprop_config)


def ccpbskl_optimize(plm: PredictionLossMatrix, pi, delta, alpha_grid=None,
                     irprop_config=IRPropConfig(), tnd=None):
    """Outer alpha grid; per alpha, closed-form (lambda, gamma) + iRProp+.

    The relaxed objective applies the lambda upper form to the plus split
    and the gamma lower form to the minus split; gamma = +inf, where the
    minus split is 0, drops the lower form.  alpha = 0 collapses to the TND
    bound and takes the TND optimizer's result, whose iterations count
    toward the report's: ``tnd``, what :func:`tnd_optimize` returns on this
    matrix's statistics (the ``(weights, report)`` every optimizer
    returns), or a fresh run.
    """
    _check_delta(delta)
    comp_const = math.log(4.0 * math.sqrt(int(plm.pair_counts[0].min())) / delta)

    def objective(s, p, q_plus, q_minus, kl):
        comp = 2.0 * kl + comp_const
        val = s.mu + _lambda_upper_value(q_plus, (s.b - s.mu) * comp, s.m, p["lam"])
        finite = np.isfinite(p["gam"])
        lower = _lambda_lower_value(q_minus, (s.mu - s.a) * comp, s.m,
                                    np.where(finite, p["gam"], 1.0))
        return np.where(finite, val - lower, val) / np.square(0.5 - s.alpha)

    def step(s, p, q_plus, q_minus, kl):
        comp = 2.0 * kl + comp_const
        return {"lam": lambda_star(q_plus / (s.b - s.mu), comp, s.m),
                "gam": gamma_star(q_minus / (s.mu - s.a), comp, s.m)}, None

    def at_zero():
        return tnd or tnd_optimize(compute_tandem_stats(plm), pi, delta, irprop_config)

    family = ("ccpbskl", ("plus", "minus"), step, objective,
              lambda s, p, *forms: _ccpbskl_value(s, *forms, delta))
    return _optimize_alphas(family, plm, pi, delta, alpha_grid, irprop_config, at_zero)


def _alpha_iteration(alpha_grid):
    """The alphas to optimize: the grid, or the default one when None; a
    fixed alpha is a one-point grid.  Every alpha must lie in [-0.5, 0.5)."""
    if alpha_grid is None:
        return DEFAULT_ALPHA_GRID
    grid = tuple(float(a) for a in alpha_grid)
    if not grid:
        raise DomainError("alpha grid is empty")
    if any(not -0.5 <= a < 0.5 for a in grid):
        raise DomainError("alpha grid values must lie in [-0.5, 0.5)")
    return grid


def _optimize_alphas(family, plm, pi, delta, alpha_grid, irprop_config, at_zero=None):
    """The alpha families' optimizer: :func:`_outer_rounds` on the stacked
    statistics of every alpha of the grid (see :func:`_alpha_iteration`),
    in chunks of at most ``_STACK_ENTRIES`` stacked entries.  ``at_zero``
    returns the (weights, report) standing in for alpha = 0 when the grid
    holds it, logged as a one-row entry.  The log's rows are grid indices,
    with an alpha column among the params, so :func:`_best` reads the
    alphas in grid order and a one-point grid is a fixed alpha.
    """
    pi = np.asarray(pi, dtype=float)
    grid = _alpha_iteration(alpha_grid)
    alphas = np.array(grid)[:, None]
    runs = np.array([i for i, a in enumerate(grid) if at_zero is None or a != 0.0], dtype=int)
    chunk = max(1, _STACK_ENTRIES // plm.h_count**2)
    log, iterations = [], 0
    for start in range(0, len(runs), chunk):
        part = runs[start:start + chunk]
        part_log, outer = _outer_rounds(family, alpha_stats(plm, alphas[part, 0]), pi,
                                        irprop_config)
        log += [(part[rows], values, rho, {"alpha": alphas[part[rows]], **params})
                for rows, values, rho, params in part_log]
        iterations += outer
    for i in np.setdiff1d(np.arange(len(grid)), runs):
        w0, rep0 = at_zero()
        iterations += rep0.params["iterations"]
        log.append(([i], [rep0.value], w0.rho[None],
                    {"alpha": 0.0, "lam": rep0.params.get("lam"), "gam": None}))
    value, rho, params, trace = _best(log)
    return PosteriorWeights(rho, pi), BoundReport(
        family[0], value, delta, dict(params, iterations=iterations, trace=trace))


def _outer_rounds(family, stats, pi, irprop_config, start=None):
    """Every optimizer's outer rounds: from rho = pi on each row, alternate
    the family's parameter step with iRProp+ on the rows of rho.

    ``family`` is (name, the ``stats`` fields of its forms, step, objective,
    bound).  A matrix field gives the form rho' M rho, a vector the form
    rho . v; the forms and KL(rho||pi) are (A, 1) columns.  ``step(stats,
    params, *forms)`` returns the new params ((A, 1) columns, or floats for
    one row) and the value at them before iRProp+ (or None).  At fixed
    params, ``objective(stats, params, *forms)`` is affine in the forms, so
    its :func:`_affine_gradient` coefficients are its rises from all-zero
    forms to each unit form.  The alpha families' rows are the stacked
    alphas of ``stats``; TND and CCTND have one row and pass ``start``, the
    params at rho = pi, whose bound is recorded first.  Returns the log, one
    entry (rows, values, rho, params) per record of the L live rows (their
    indices, (L,) values, (L, H) rho and params), for :func:`_best`, and the
    outer iteration count.  A row stops once its bound moves by less than
    OUTER_TOL.  Off the support of pi, rho stays 0: the rounds run on the
    statistics of the support alone, where KL(rho||pi) is finite.
    """
    _check_simplex("pi", pi)
    keep = pi > 0
    if not keep.all():
        log, iterations = _outer_rounds(family, _on_support(stats, keep), pi[keep],
                                        irprop_config, start)
        for k, (rows, values, rho, params) in enumerate(log):
            full = np.zeros((len(rho), len(pi)))
            full[:, keep] = rho
            log[k] = rows, values, full, params
        return log, iterations
    _, names, step, objective, bound = family
    live = np.arange(1 if start is not None else len(stats.alpha))
    rho = np.tile(pi, (len(live), 1))
    log = []
    prev_val, params, iterations = math.inf, None, 0

    def forms(s, x):
        fs = [getattr(s, name) for name in names]
        return (*(_quad(x, f) if f.ndim > 1 else x @ f[:, None] for f in fs),
                _discrete_kl_unchecked(x, pi))

    q = forms(stats, rho)
    if start is not None:
        prev_val = bound(stats, start, *q)
        log.append((live, prev_val[:, 0], rho, start))
    for _ in range(MAX_OUTER):
        iterations += len(live)
        params, val0 = step(stats, params, *q)
        if val0 is not None:
            log.append((live, val0[:, 0], rho, params))
        # column 0 puts every form at 0, column j + 1 puts form j alone at 1
        values = objective(stats, params, *np.eye(len(q) + 1)[1:, None, :])
        *cs, c_kl = (values[:, 1:] - values[:, :1]).T[..., None]
        gradient = _affine_gradient(pi, c_kl, *zip(cs, (getattr(stats, n) for n in names)))
        # the objective binds this round's stats and params, which are rebound below
        rho = _irprop_rows(
            gradient, lambda x, s=stats, p=params: objective(s, p, *forms(s, x))[:, 0], rho,
            irprop_config)
        q = forms(stats, rho)
        val = bound(stats, params, *q)
        log.append((live, val[:, 0], rho, params))
        moving = ~(np.abs(prev_val - val) < OUTER_TOL)[:, 0]
        if not moving.any():
            break
        prev_val = val
        if not moving.all():
            live, rho, prev_val, q = live[moving], rho[moving], val[moving], [f[moving] for f in q]
            stats = _take_rows(stats, moving)
            params = {k: v[moving] for k, v in params.items()}
    return log, iterations


def _best(log):
    """The record an optimizer reports, from a log of :func:`_outer_rounds`
    entries (rows, values, rho, params).

    The records are read row by row in row (= grid) order, and within a row
    in record order.  Returns the first strictly least value (NaN never is),
    a copy of its rho, its params as floats, and the trace: the least value
    after each record.  With no value below inf, rho is None and params {}.
    """
    order = np.argsort(np.concatenate([entry[0] for entry in log]), kind="stable")
    ordered = np.concatenate([entry[1] for entry in log])[order]
    trace = np.minimum.accumulate(np.fmin(ordered, math.inf))  # fmin turns NaN into inf
    if not trace[-1] < math.inf:
        return math.inf, None, {}, tuple(trace.tolist())
    k = order[np.argmax(ordered == trace[-1])]
    ends = np.cumsum([len(entry[0]) for entry in log])
    e = int(np.searchsorted(ends, k, side="right"))
    _, values, rho, params = log[e]
    j = k - ends[e] + len(values)
    return (float(values[j]), rho[j].copy(),
            {name: float(c[j, 0]) if np.ndim(c) else c for name, c in params.items()},
            tuple(trace.tolist()))


def _on_support(stats, keep):
    """The statistics of the hypotheses that the mask ``keep`` selects, in
    C order, as matmul takes the same path on them as on fresh statistics."""
    def restrict(value):
        return np.ascontiguousarray(value[..., keep][..., keep, :] if value.ndim > 1
                                    else value[keep])

    if isinstance(stats, TandemStats):
        return replace(stats, single_loss=restrict(stats.single_loss),
                       tandem_loss=restrict(stats.tandem_loss))
    return replace(stats, **{name: restrict(value) for name, value in _row_fields(stats)
                             if value.ndim == 3})


def _grid_min(values, grid):
    """Per row of ``values`` (A, G), the first grid point with the least
    value and that value, as (A, 1) columns; ``grid`` is (G,) or (A, G)."""
    j = np.argmin(values, axis=1)[:, None]
    return (np.take_along_axis(np.broadcast_to(grid, values.shape), j, axis=1),
            np.take_along_axis(values, j, axis=1))
