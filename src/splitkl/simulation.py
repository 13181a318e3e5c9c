"""Monte Carlo comparisons and coverage checks for the concentration bounds.

Sweeps draw repeated ternary or beta samples across a scenario grid and
record the gap (bound - empirical mean) of the kl, Empirical Bernstein,
Unexpected Bernstein (grid) and split-kl bounds, with bounds clipped to the
upper endpoint at emission time only.  Coverage experiments estimate the
violation frequency of each bound's 1-delta guarantee.  A synthetic bagged
ensemble generator feeds the majority-vote module.

Randomness is derived per (grid point, repeat), or per coverage block, from
the master seed: stream ``path`` is PCG64 seeded by
``numpy.random.SeedSequence([seed % 2**63, *path])``.  Sweeps and coverage
runs compute those states in chunks with the SeedSequence hash (fixed by
NEP 19) and PCG64's seeding steps, and set each one on a single reused
generator; the tests check the states against ``SeedSequence`` itself.
Single streams (integer seeds, synthetic ensembles) use ``SeedSequence``
directly.  Everything runs in one thread.  Each block of draws is reduced to
per-row statistics as it is drawn: a ternary row from its counts of -1 and +1
draws among its uniforms, with no samples formed, and a beta row from its
samples by the statistics kernel of :mod:`splitkl.concentration`.
"""

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .concentration import (
    _empirical_bernstein_value,
    _row_stats,
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
        if not all(math.isfinite(p) for p in probs):
            raise DomainError("probabilities must be finite")
        if any(p < 0 for p in probs):
            raise DomainError("negative probability")
        if abs(sum(probs) - 1.0) > 1e-12:
            raise DomainError("probabilities must sum to 1 within 1e-12")

    @property
    def mean(self):
        return self.p_1 - self.p_minus1

    @functools.cached_property
    def _cdf(self):
        """Cumulative masses of -1, 0, 1, normalised to end at 1; formed on
        first use and kept outside the dataclass fields."""
        cdf = np.cumsum(np.array([self.p_minus1, self.p_0, self.p_1], dtype=float))
        cdf /= cdf[-1]
        return cdf


@dataclass(frozen=True)
class BetaSpec:
    """Beta distribution with positive shape parameters."""

    alpha_shape: float
    beta_shape: float

    def __post_init__(self):
        if not (0.0 < self.alpha_shape < math.inf and 0.0 < self.beta_shape < math.inf):
            raise DomainError("shape parameters must be positive and finite")

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


def _rng(seed, *path):
    entropy = [int(seed) % _SEED_MOD] + [int(p) for p in path]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy.random.SeedSequence's hash (NEP 19) with its default pool of four
# 32-bit words, and PCG64's 128-bit LCG multiplier.  The hash runs on uint32
# arrays; its running constant is kept as a Python int, so no numpy scalar
# ever overflows.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_XSHIFT = np.uint32(16)
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MASK128 = 2**128 - 1


class _Hash:
    """SeedSequence's hashmix: each call advances the running constant."""

    def __init__(self, init, mult):
        self.const, self.mult = init, mult

    def __call__(self, value):
        value = value ^ np.uint32(self.const)
        self.const = self.const * self.mult & _MASK32
        value = value * np.uint32(self.const)
        return value ^ value >> _XSHIFT


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _pcg64_states(seed, paths):
    """PCG64 ``(state, inc)`` of ``_rng(seed, *path)`` for each row of
    ``paths``, a sequence of equal-length tuples of ints below 2**32.

    SeedSequence turns ``[seed % 2**63, *path]`` into 32-bit words (one or
    two for the seed, one per path component), mixes them into its pool and
    draws four uint64 words; PCG64 takes the first two as its initial state
    and the last two as its stream, and steps its LCG twice."""
    seed = int(seed) % _SEED_MOD
    rows = np.asarray(paths, dtype=np.uint32)
    words = [seed & _MASK32] + [seed >> 32] * (seed > _MASK32)
    entropy = [np.full(len(rows), w, dtype=np.uint32) for w in words] + list(rows.T)
    entropy += [np.zeros(len(rows), dtype=np.uint32)] * (_POOL_SIZE - len(entropy))
    hashmix = _Hash(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    draw = _Hash(_INIT_B, _MULT_B)
    state = np.stack([draw(pool[i % _POOL_SIZE]) for i in range(8)], axis=1).astype(np.uint64)
    # each uint64 word is a pair of uint32 words, low word first
    state = state[:, 0::2] | state[:, 1::2] << np.uint64(32)
    out = []
    for s_hi, s_lo, i_hi, i_lo in state.tolist():
        inc = ((i_hi << 64 | i_lo) << 1 | 1) & _MASK128
        out.append((((inc + (s_hi << 64 | s_lo)) * _PCG64_MULT + inc) & _MASK128, inc))
    return out


_STREAM_CHUNK = 1024  # paths whose states are derived in one pass


def _streams(seed, paths):
    """Yield, for each path in turn, one Generator set to the stream of
    ``_rng(seed, *path)``.  It is the same object each time, re-seeded per
    path, so a draw must be used before the next one is taken."""
    bit_generator = np.random.PCG64(0)
    rng = np.random.Generator(bit_generator)
    paths = iter(paths)
    while chunk := list(itertools.islice(paths, _STREAM_CHUNK)):
        for state, inc in _pcg64_states(seed, chunk):
            bit_generator.state = {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
                                   "has_uint32": 0, "uinteger": 0}
            yield rng


_TERNARY_VALUES = np.array([-1.0, 0.0, 1.0])


def sample_ternary(spec: TernarySpec, n, seed) -> np.ndarray:
    """n i.i.d. draws from {-1, 0, 1}; deterministic given the seed.  Draws
    exactly as ``Generator.choice(values, p=probs)`` does, without its
    per-call validation (the spec is validated once)."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    uniform = rng.random(n)
    return _TERNARY_VALUES[spec._cdf.searchsorted(uniform, side="right")]


def sample_beta(spec: BetaSpec, n, seed) -> np.ndarray:
    """n i.i.d. Beta draws; the generator handles shape parameters < 1."""
    if n < 1:
        raise DomainError("need n >= 1")
    rng = seed if isinstance(seed, np.random.Generator) else _rng(seed)
    return rng.beta(spec.alpha_shape, spec.beta_shape, size=n)


def _ternary_draw(spec, rng, out):
    """Fill ``out`` with the uniforms that :func:`sample_ternary` maps to
    draws through the spec's cdf."""
    rng.random(out=out)


def _ternary_stats(spec, u):
    """:func:`_row_stats` around mu = 0 of the ternary draws behind each row
    of a (rows, n) block of uniforms, from two counts per row: the -1 draws
    (u < cdf[0]) and the +1 draws (u >= cdf[1]), as :func:`sample_ternary`
    maps them.  Every partial sum of the draws is an integer, so the mean,
    second moment and parts equal numpy's bit for bit.  The variance is the
    one correctly rounded ratio (n s2 - s1^2) / (n (n - 1)) of the integer
    sums s1 and s2 of the draws and their squares: both terms are at most
    n^2, below 2**53 while n < 9.4e7, so each converts to float64 exactly."""
    n = u.shape[1]
    minus = np.count_nonzero(u < spec._cdf[0], axis=1)
    plus = n - np.count_nonzero(u < spec._cdf[1], axis=1)
    s1, s2 = plus - minus, plus + minus
    return np.stack([s1 / n, (n * s2 - s1 * s1) / (n * (n - 1)), s2 / n, plus / n, minus / n])


def _beta_draw(spec, rng, out):
    out[...] = sample_beta(spec, out.size, rng).reshape(out.shape)


def _distribution(spec):
    """(lo, hi, mu, draw, reduce) of a spec's family: its range and the
    split point, ``draw(spec, rng, out)``, which fills a (rows, n) block
    from one generator, and ``reduce(spec, block)``, the block's
    :func:`_row_stats` rows.  A ternary block holds the uniforms behind the
    draws, which are counted and never mapped to samples."""
    if isinstance(spec, TernarySpec):
        return -1.0, 1.0, 0.0, _ternary_draw, _ternary_stats
    if isinstance(spec, BetaSpec):
        return 0.0, 1.0, 0.5, _beta_draw, lambda _, x: _row_stats(x, 0.5)
    raise DomainError("dist must be a TernarySpec or BetaSpec")


def _bound_values(stats, n, lo, hi, mu, delta):
    """Raw bound values, elementwise over the rows of :func:`_row_stats`
    output (stacked along axis 1 into a batch)."""
    means, var, second, plus, minus = stats
    return {
        "kl": kl_upper_bound(means, n, delta, lo, hi),
        "eb": _empirical_bernstein_value(means, var, n, delta, hi - lo),
        "ub": np.min(_unexpected_bernstein_grid(means, second, 0.0, n, delta, hi)[0], axis=0),
        "skl": _split_kl_value(mu, lo, hi, plus, minus, math.log(2.0 / delta) / n),
    }


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


def _sweep(specs, params, n, delta, repeats, seed):
    """One SweepRow per spec.  Repeat ``rep`` of point ``i`` draws row
    ``rep`` of one reused (repeats, n) block from the stream (seed, i, rep);
    each point's block is reduced as it is drawn, and each bound inverts kl
    once over the stacked (points, repeats) rows."""
    if n < 2:
        raise DomainError("need n >= 2")
    if repeats < 1:
        raise DomainError("need repeats >= 1")
    lo, hi, mu, draw, reduce = _distribution(specs[0])
    streams = _streams(seed, np.ndindex(len(specs), repeats))
    block = np.empty((repeats, n))
    stats = np.empty((5, len(specs), repeats))
    for i, spec in enumerate(specs):
        for row in block:
            draw(spec, next(streams), row)
        stats[:, i] = reduce(spec, block)
    bounds = _bound_values(stats, n, lo, hi, mu, delta)
    gaps = {name: np.minimum(bounds[name], hi) - stats[0] for name in BOUND_NAMES}
    return [
        SweepRow(
            param=float(param), n=n, delta=delta, repeats=repeats, seed=seed,
            gaps={name: gap[i] for name, gap in gaps.items()},
        )
        for i, param in enumerate(params)
    ]


def sweep_ternary(mode, n, delta, repeats=DEFAULT_REPEATS, seed=0):
    """Gap curves over a 51-point p0 grid for a ternary scenario family."""
    p0_grid = np.linspace(0.0, 1.0, GRID_POINTS)
    specs = [_ternary_probs(mode, p0) for p0 in p0_grid]
    return _sweep(specs, p0_grid, n, delta, repeats, seed)


def sweep_beta(mode, n, delta, repeats=DEFAULT_REPEATS, seed=0):
    """Gap curves over beta scenarios; param is the variance (constant_mean
    mode) or the true mean (spectrum mode)."""
    specs = _beta_specs(mode)
    params = [
        spec.variance if mode == "constant_mean" else spec.mean for spec in specs
    ]
    return _sweep(specs, params, n, delta, repeats, seed)


_COVERAGE_BLOCK = 500


def coverage_experiment(dist, n, delta, trials=10000, seed=0):
    """Violation frequency of each bound over independent Monte Carlo trials.

    Returns a dict bound-name -> frequency of {true mean > bound value};
    includes the PAC-Bayes-kl bound at KL = 0 alongside the four sample
    bounds.  Trials are drawn in fixed-size blocks with per-block seed
    derivation, and all blocks are bounded as one batch.
    """
    if trials < 100:
        raise DomainError("need trials >= 100")
    if n < 2:
        raise DomainError("need n >= 2")
    lo, hi, mu, draw, reduce = _distribution(dist)
    full, rest = divmod(trials, _COVERAGE_BLOCK)
    sizes = [_COVERAGE_BLOCK] * full + [rest] * (rest > 0)
    block = np.empty((sizes[0], n))
    stats = []
    for size, rng in zip(sizes, _streams(seed, ((i,) for i in range(len(sizes))))):
        draw(dist, rng, block[:size])
        stats.append(reduce(dist, block[:size]))
    stats = np.concatenate(stats, axis=1)
    bounds = _bound_values(stats, n, lo, hi, mu, delta)
    # PAC-Bayes-kl at KL = 0 (single deterministic hypothesis)
    bounds["pbkl0"] = lo + (hi - lo) * pb_kl_bound((stats[0] - lo) / (hi - lo), 0.0, n, delta)
    return {name: int(np.sum(dist.mean > bounds[name])) / trials for name in COVERAGE_BOUNDS}


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
_COPY_SHARED = 0.5  # the correlated profile's chance that a hypothesis copies the shared error


def _error_matrix(rng, profile, h_count, size, error_rate):
    if profile == "identical":
        return np.tile(rng.uniform(size=size) < error_rate, (h_count, 1))
    if profile == "independent":
        return rng.uniform(size=(h_count, size)) < error_rate
    if profile == "correlated":
        shared = rng.uniform(size=size) < error_rate
        own = rng.uniform(size=(h_count, size)) < error_rate
        copy_shared = rng.uniform(size=(h_count, size)) < _COPY_SHARED
        return np.where(copy_shared, shared[None, :], own)
    raise DomainError(f"unknown noise profile: {profile}")


def synth_ensemble(h_count, n_examples, noise_profile="independent",
                   bagging_rate=0.8, seed=0, error_rate=0.3, eval_size=10000):
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
    # each pair needs >= 2 common OOB examples; about n e^(-2 rate) are expected
    overlap = n_examples * math.exp(-2.0 * bagging_rate)
    if overlap < 1e-3:
        raise DomainError(f"bagging_rate {bagging_rate} leaves an expected pairwise OOB "
                          f"overlap of {overlap:.3g} examples, below 1e-3")
    if not 0.0 <= error_rate <= 1.0:
        raise DomainError(f"need error_rate in [0, 1], got {error_rate}")
    for attempt in range(10):
        rng = _rng(seed, attempt)
        errors = _error_matrix(rng, noise_profile, h_count, n_examples, error_rate)
        draw_size = int(round(bagging_rate * n_examples))
        mask = np.ones((h_count, n_examples), dtype=bool)
        for h in range(h_count):
            mask[h, rng.integers(0, n_examples, size=draw_size)] = False
        counts = mask.astype(float) @ mask.astype(float).T
        if counts.min() < 2:
            continue
        plm = PredictionLossMatrix(losses=errors.astype(float), mask=mask)
        eval_labels = rng.integers(0, 2, size=eval_size)
        eval_errors = _error_matrix(rng, noise_profile, h_count, eval_size, error_rate)
        eval_preds = np.where(eval_errors, 1 - eval_labels[None, :], eval_labels[None, :])
        em = EvaluationMatrix(predictions=eval_preds, labels=eval_labels)
        return plm, em
    raise DomainError("could not generate non-degenerate OOB masks in 10 attempts")
