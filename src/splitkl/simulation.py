"""Monte Carlo comparisons and coverage checks for the concentration bounds.

Sweeps draw repeated ternary or beta samples across a scenario grid and
record the gap (bound - empirical mean) of the kl, Empirical Bernstein,
Unexpected Bernstein (grid) and split-kl bounds, with bounds clipped to the
upper endpoint at emission time only.  Coverage experiments estimate the
violation frequency of each bound's 1-delta guarantee.  A synthetic bagged
ensemble generator feeds the majority-vote module.

Randomness is derived per (grid point, repeat), or per coverage block, from
the master seed through ``numpy.random.SeedSequence``.  Everything runs in
one thread; the ``threads`` arguments are accepted and ignored.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import (
    _empirical_bernstein_value,
    _split_kl_value,
    _unexpected_bernstein_grid,
    kl_upper_bound,
)
from .errors import DomainError
from .majority_vote import EvaluationMatrix, PredictionLossMatrix
from .pacbayes import pb_kl_bound

# 51 points gives step 0.02 on [0, 1], putting the reference scenario
# values 0.6 and 0.9 exactly on the grid.
GRID_POINTS = 51
DEFAULT_REPEATS = 100
BOUND_NAMES = ("kl", "eb", "ub", "skl")
COVERAGE_BOUNDS = BOUND_NAMES + ("pbkl0",)

_SEED_MOD = 2**63


@dataclass(frozen=True)
class TernarySpec:
    """Distribution on {-1, 0, 1} with the three point masses."""

    p_minus1: float
    p_0: float
    p_1: float

    def __post_init__(self):
        probs = (self.p_minus1, self.p_0, self.p_1)
        if any(p < 0 for p in probs):
            raise DomainError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")

    @property
    def mean(self):
        return self.p_1 - self.p_minus1


@dataclass(frozen=True)
class BetaSpec:
    """Beta distribution with positive shape parameters."""

    alpha_shape: float
    beta_shape: float

    def __post_init__(self):
        if self.alpha_shape <= 0 or self.beta_shape <= 0:
            raise DomainError("shape parameters must be positive")

    @property
    def mean(self):
        return self.alpha_shape / (self.alpha_shape + self.beta_shape)

    @property
    def variance(self):
        s = self.alpha_shape + self.beta_shape
        return self.alpha_shape * self.beta_shape / (s * s * (s + 1.0))


@dataclass
class SweepRow:
    """Per-grid-point repeat statistics of the clipped bound gaps."""

    param: float
    n: int
    delta: float
    repeats: int
    seed: int
    gaps: dict = field(default_factory=dict)

    def gap_mean(self, name):
        return float(np.mean(self.gaps[name]))

    def gap_std(self, name):
        return float(np.std(self.gaps[name]))

    def gap_median(self, name):
        return float(np.median(self.gaps[name]))


def _rng(seed, *path):
    entropy = [int(seed) % _SEED_MOD] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


def sample_ternary(spec: TernarySpec, n, seed) -> np.ndarray:
    """n i.i.d. draws from {-1, 0, 1}; deterministic given the seed."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    return rng.choice(
        np.array([-1.0, 0.0, 1.0]), size=n, p=[spec.p_minus1, spec.p_0, spec.p_1]
    )


def sample_beta(spec: BetaSpec, n, seed) -> np.ndarray:
    """n i.i.d. Beta draws; the generator handles shape parameters < 1."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    return rng.beta(spec.alpha_shape, spec.beta_shape, size=n)


def _row_stats(x, mu):
    """Mean, unbiased variance, second moment, and the means of the plus and
    minus parts around mu of each row of a (rows, n) sample matrix."""
    return np.stack([
        x.mean(axis=1),
        x.var(axis=1, ddof=1),
        np.mean(x * x, axis=1),
        np.maximum(0.0, x - mu).mean(axis=1),
        np.maximum(0.0, mu - x).mean(axis=1),
    ])


def _bound_values(stats, n, lo, hi, mu, delta, pbkl0=False):
    """Raw bound values, elementwise over the rows of :func:`_row_stats`
    output (stacked along axis 1 into a batch)."""
    means, var, second, plus, minus = stats
    out = {
        "kl": kl_upper_bound(means, n, delta, lo, hi),
        "eb": _empirical_bernstein_value(means, var, n, delta, hi - lo),
        "ub": np.min(_unexpected_bernstein_grid(means, second, 0.0, n, delta, hi)[0], axis=0),
        "skl": _split_kl_value(mu, hi - mu, mu - lo, plus, minus, math.log(2.0 / delta) / n),
    }
    if pbkl0:
        # PAC-Bayes-kl at KL = 0 (single deterministic hypothesis)
        out["pbkl0"] = lo + (hi - lo) * pb_kl_bound((means - lo) / (hi - lo), 0.0, n, delta)
    return out


def _ternary_probs(mode, p0):
    rest = 1.0 - p0
    if mode == "symmetric":
        return TernarySpec(0.5 * rest, p0, 0.5 * rest)
    if mode == "skew_high":
        return TernarySpec(0.01 * rest, p0, 0.99 * rest)
    if mode == "skew_low":
        return TernarySpec(0.99 * rest, p0, 0.01 * rest)
    raise DomainError(f"unknown ternary mode: {mode}")


def _beta_specs(mode):
    if mode == "constant_mean":
        return [BetaSpec(a, a) for a in np.geomspace(0.01, 10.0, GRID_POINTS)]
    if mode == "spectrum":
        left = [BetaSpec(a, 5.0) for a in np.geomspace(0.01, 5.0, GRID_POINTS // 2)]
        right = [BetaSpec(5.0, b) for b in np.geomspace(5.0, 0.01, GRID_POINTS // 2)]
        return left + right
    raise DomainError(f"unknown beta mode: {mode}")


def _sweep(sample, specs, params, n, delta, repeats, seed, lo, hi, mu):
    """One SweepRow per spec.  Repeat ``rep`` of point ``i`` draws from the
    stream (seed, i, rep); each point's block is reduced as it is drawn, and
    each bound inverts kl once over the stacked (points, repeats) rows."""
    if n < 2:
        raise DomainError("need n >= 2")
    if repeats < 1:
        raise DomainError("need repeats >= 1")
    stats = np.stack([
        _row_stats(
            np.stack([sample(spec, n, _rng(seed, i, rep)) for rep in range(repeats)]),
            mu,
        )
        for i, spec in enumerate(specs)
    ], axis=1)
    bounds = _bound_values(stats, n, lo, hi, mu, delta)
    gaps = {name: np.minimum(bounds[name], hi) - stats[0] for name in BOUND_NAMES}
    return [
        SweepRow(
            param=float(param), n=n, delta=delta, repeats=repeats, seed=seed,
            gaps={name: gap[i] for name, gap in gaps.items()},
        )
        for i, param in enumerate(params)
    ]


def sweep_ternary(mode, n, delta, repeats=DEFAULT_REPEATS, seed=0, threads=1):
    """Gap curves over a 51-point p0 grid for a ternary scenario family."""
    p0_grid = np.linspace(0.0, 1.0, GRID_POINTS)
    specs = [_ternary_probs(mode, p0) for p0 in p0_grid]
    return _sweep(sample_ternary, specs, p0_grid, n, delta, repeats, seed, -1.0, 1.0, 0.0)


def sweep_beta(mode, n, delta, repeats=DEFAULT_REPEATS, seed=0, threads=1):
    """Gap curves over beta scenarios; param is the variance (constant_mean
    mode) or the true mean (spectrum mode)."""
    specs = _beta_specs(mode)
    params = [
        spec.variance if mode == "constant_mean" else spec.mean for spec in specs
    ]
    return _sweep(sample_beta, specs, params, n, delta, repeats, seed, 0.0, 1.0, 0.5)


def sweep_rows_to_records(rows):
    """Flatten sweep rows to (param, bound, gap_mean, gap_std, ...) records."""
    records = []
    for row in rows:
        for name in BOUND_NAMES:
            records.append(
                {
                    "param": row.param,
                    "bound": name,
                    "gap_mean": row.gap_mean(name),
                    "gap_std": row.gap_std(name),
                    "repeats": row.repeats,
                    "n": row.n,
                    "delta": row.delta,
                    "seed": row.seed,
                }
            )
    return records


_COVERAGE_BLOCK = 500


def coverage_experiment(dist, n, delta, trials=10000, seed=0, threads=1):
    """Violation frequency of each bound over independent Monte Carlo trials.

    Returns a dict bound-name -> frequency of {true mean > bound value};
    includes the PAC-Bayes-kl bound at KL = 0 alongside the four sample
    bounds.  Trials are drawn in fixed-size blocks with per-block seed
    derivation; the full blocks are bounded as one batch of rows and a
    shorter last block on its own.
    """
    if trials < 100:
        raise DomainError("need trials >= 100")
    if n < 2:
        raise DomainError("need n >= 2")
    if isinstance(dist, TernarySpec):
        lo, hi, mu, sample = -1.0, 1.0, 0.0, sample_ternary
    elif isinstance(dist, BetaSpec):
        lo, hi, mu, sample = 0.0, 1.0, 0.5, sample_beta
    else:
        raise DomainError("dist must be a TernarySpec or BetaSpec")

    full, rest = divmod(trials, _COVERAGE_BLOCK)
    stats = [
        _row_stats(sample(dist, size * n, _rng(seed, i)).reshape(-1, n), mu)
        for i, size in enumerate([_COVERAGE_BLOCK] * full + [rest] * (rest > 0))
    ]
    batches = ([np.stack(stats[:full], axis=1)] if full else []) + stats[full:]
    violations = dict.fromkeys(COVERAGE_BOUNDS, 0)
    for batch in batches:
        bounds = _bound_values(batch, n, lo, hi, mu, delta, pbkl0=True)
        for name in COVERAGE_BOUNDS:
            violations[name] += int(np.sum(dist.mean > bounds[name]))
    return {name: count / trials for name, count in violations.items()}


def coverage_ceiling(delta, trials):
    """delta + 3 sigma binomial slack for an empirical violation frequency."""
    return delta + 3.0 * math.sqrt(delta * (1.0 - delta) / trials)


def coverage_passes(frequencies, delta, trials):
    ceiling = coverage_ceiling(delta, trials)
    return all(freq <= ceiling for freq in frequencies.values())


# ---------------------------------------------------------------------------
# Synthetic bagged ensembles
# ---------------------------------------------------------------------------

NOISE_PROFILES = ("identical", "independent", "correlated")


def _error_matrix(rng, profile, h_count, size, error_rate, correlation):
    if profile == "identical":
        return np.tile(rng.uniform(size=size) < error_rate, (h_count, 1))
    if profile == "independent":
        return rng.uniform(size=(h_count, size)) < error_rate
    if profile == "correlated":
        shared = rng.uniform(size=size) < error_rate
        own = rng.uniform(size=(h_count, size)) < error_rate
        copy_shared = rng.uniform(size=(h_count, size)) < correlation
        return np.where(copy_shared, shared[None, :], own)
    raise DomainError(f"unknown noise profile: {profile}")


def synth_ensemble(h_count, n_examples, noise_profile="independent",
                   bagging_rate=0.8, seed=0, error_rate=0.3, correlation=0.5,
                   eval_size=10000):
    """Bagged binary ensemble with a known error process.

    Each hypothesis errs according to the noise profile; its training-side
    zero-one losses are masked to the out-of-bag examples of a bootstrap
    draw of ``bagging_rate * n_examples`` samples.  Returns the masked loss
    matrix and an independent evaluation matrix (predictions + labels) from
    the same error process.  Degenerate masks are regenerated with a new
    sub-seed, at most 10 attempts.
    """
    if h_count < 2:
        raise DomainError("need at least 2 hypotheses")
    if n_examples < 2:
        raise DomainError("need at least 2 examples")
    if not (math.isfinite(bagging_rate) and bagging_rate > 0.0):
        raise DomainError(f"need a finite bagging_rate > 0, got {bagging_rate}")
    for name, rate in (("error_rate", error_rate), ("correlation", correlation)):
        if not 0.0 <= rate <= 1.0:
            raise DomainError(f"need {name} in [0, 1], got {rate}")
    for attempt in range(10):
        rng = _rng(seed, attempt)
        errors = _error_matrix(
            rng, noise_profile, h_count, n_examples, error_rate, correlation
        )
        draw_size = int(round(bagging_rate * n_examples))
        mask = np.ones((h_count, n_examples), dtype=bool)
        for h in range(h_count):
            mask[h, rng.integers(0, n_examples, size=draw_size)] = False
        counts = mask.astype(float) @ mask.astype(float).T
        if counts.min() < 2:
            continue
        plm = PredictionLossMatrix(losses=errors.astype(float), mask=mask)
        eval_labels = rng.integers(0, 2, size=eval_size)
        eval_errors = _error_matrix(
            rng, noise_profile, h_count, eval_size, error_rate, correlation
        )
        eval_preds = np.where(eval_errors, 1 - eval_labels[None, :], eval_labels[None, :])
        em = EvaluationMatrix(predictions=eval_preds, labels=eval_labels)
        return plm, em
    raise DomainError("could not generate non-degenerate OOB masks in 10 attempts")
