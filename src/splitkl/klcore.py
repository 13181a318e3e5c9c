"""Scalar information-theoretic primitives.

Binary (Bernoulli) KL divergence and its upper/lower inverses, discrete KL,
the exact binomial tail and its inverse, and the auxiliary functions
psi(u) = u - ln(1+u) and phi(x) = e^x - x - 1.

All functions accept scalars or numpy arrays (broadcasting elementwise) and
return a python float for scalar input.  They are pure and thread-safe.
Every kl and binomial inverse halves each value's own bracket until it is at
most ``BISECT_WIDTH`` wide and returns its outward end: at or beyond the exact
inverse, within ``BISECT_WIDTH``.  A kl inverse or psi call on floats (or
``np.float64``) in the domain forms no array; any other input takes the array
path, which validates it.  Each element of an array call equals the scalar
call on it, bit for bit; the array path bisects each distinct (p_hat, eps)
once.  The binomial tail inverse forms ln C(n, i) once per call and re-weights
it per step.  The logs are numpy's ``np.log`` and ``np.log1p``: each gives a
float the same bits as that float inside an array, so both paths do the same
float operations.
"""

import math

import numpy as np

from .errors import DomainError

# Bisection stops once the bracket is at most this wide (or after
# BISECT_MAX_ITER halvings).  1e-11 leaves margin for 1e-8 downstream
# tolerances while staying above double-precision noise.
BISECT_WIDTH = 1e-11
BISECT_MAX_ITER = 200


def _as_array(x, name, lo, hi=None):
    a = np.asarray(x, dtype=float)
    # negated comparisons, so that NaN fails them too
    if not np.all(a >= lo) or hi is not None and not np.all(a <= hi):
        problem = "is NaN" if np.isnan(a).any() else f"outside [{lo}, {hi}]"
        raise DomainError(f"{name} {problem}")
    return a


def _maybe_scalar(value, *inputs):
    if all(np.ndim(i) == 0 for i in inputs):
        return float(value)
    return value


def bernoulli_kl(p_hat, p):
    """kl(p_hat || p) between Bernoulli biases, with 0 ln 0 = 0.

    Returns +inf when p_hat > 0, p = 0 or p_hat < 1, p = 1; kl(0||0) and
    kl(1||1) are 0 by the limit convention.
    """
    ph = _as_array(p_hat, "p_hat", 0.0, 1.0)
    q = _as_array(p, "p", 0.0, 1.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        val = (_xlogy(ph, ph) - _xlogy(ph, q)) + (_xlogy(1.0 - ph, 1.0 - ph) - _xlogy(1.0 - ph, 1.0 - q))
    return _maybe_scalar(np.maximum(val, 0.0), p_hat, p)


def _kl_inv_bisect(p_hat, eps, upper):
    # floats in the domain skip the 0-d arrays; NaN fails these comparisons
    if isinstance(p_hat, float) and isinstance(eps, float) and 0.0 <= p_hat <= 1.0 and eps >= 0.0:
        return _kl_inv_bisect_scalar(float(p_hat), float(eps), upper)
    ph = _as_array(p_hat, "p_hat", 0.0, 1.0)
    ev = _as_array(eps, "eps", 0.0)
    if ph.ndim == 0 and ev.ndim == 0:
        return _kl_inv_bisect_scalar(float(ph), float(ev), upper)
    ph_b, ev_b = np.broadcast_arrays(ph, ev)
    shape = ph_b.shape
    if ph_b.size == 0:
        return np.zeros(shape)
    # each distinct (p_hat, eps) is bisected once; pair[i] is the pair of
    # element i in flat order
    ph_u, ev_u, pair = _distinct_pairs(ph_b, ev_b)
    # eps = 0 forces p = p_hat; bisecting instead would drift by the float
    # cancellation width of kl around p_hat (~1e-8).
    pinned = ev_u == 0.0
    if upper:
        lo, hi = ph_u.copy(), np.ones_like(ph_u)
        hi[pinned] = ph_u[pinned]
        # p_hat = 1 or eps = +inf pin the answer at 1.
        lo[np.isinf(ev_u) | (ph_u >= 1.0)] = 1.0
    else:
        lo, hi = np.zeros_like(ph_u), ph_u.copy()
        lo[pinned] = ph_u[pinned]
        hi[np.isinf(ev_u) | (ph_u <= 0.0)] = 0.0
    # bernoulli_kl(ph, mid) term by term, the mid-free terms computed once
    qh_u = 1.0 - ph_u
    with np.errstate(divide="ignore", invalid="ignore"):
        ph_term, qh_term = _xlogy(ph_u, ph_u), _xlogy(qh_u, qh_u)
        for _ in range(BISECT_MAX_ITER):
            # halve each wide bracket, as the scalar loop does; its mid is in (0, 1)
            wide = hi - lo > BISECT_WIDTH
            if not wide.any():
                break
            mid = 0.5 * (lo + hi)
            kl = (ph_term - ph_u * np.log(mid)) + (qh_term - qh_u * np.log(1.0 - mid))
            up = (kl <= ev_u) == upper
            lo, hi = np.where(wide & up, mid, lo), np.where(wide & ~up, mid, hi)
    return (hi if upper else lo)[pair].reshape(shape)


def _distinct_pairs(a, b):
    """The distinct (a, b) of two float arrays of one shape, as two 1-d
    arrays, and the flat index of each element's pair.  Pairs are told
    apart by bit pattern, so -0.0 and 0.0 stay distinct."""
    a_bits, b_bits = a.ravel().view(np.uint64), b.ravel().view(np.uint64)
    order = np.lexsort((b_bits, a_bits))
    a_bits, b_bits = a_bits[order], b_bits[order]
    first = np.empty(order.size, dtype=bool)
    first[0] = True
    np.not_equal(a_bits[1:], a_bits[:-1], out=first[1:])
    first[1:] |= b_bits[1:] != b_bits[:-1]
    index = np.empty(order.size, dtype=np.intp)
    index[order] = np.cumsum(first) - 1
    return a_bits[first].view(float), b_bits[first].view(float), index


def _xlogy(x, y):
    """x ln y, 0 where x = 0; the caller silences the warnings of y = 0."""
    return np.where(x == 0, 0.0, x * np.log(y))


def _kl_inv_bisect_scalar(ph, ev, upper):
    """:func:`_kl_inv_bisect` for two floats, with the same float operations."""
    if upper:
        lo, hi = 1.0 if math.isinf(ev) or ph >= 1.0 else ph, ph if ev == 0.0 else 1.0
    else:
        lo, hi = ph if ev == 0.0 else 0.0, 0.0 if math.isinf(ev) or ph <= 0.0 else ph
    # bernoulli_kl(ph, mid) term by term; mid stays inside (0, 1)
    log, qh = np.log, 1.0 - ph
    ph_term, qh_term = (ph * float(log(ph)) if ph else 0.0), (qh * float(log(qh)) if qh else 0.0)
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        kl = (ph_term - ph * float(log(mid))) + (qh_term - qh * float(log(1.0 - mid)))
        lo, hi = (mid, hi) if (kl <= ev) == upper else (lo, mid)
    return hi if upper else lo


def kl_inv_upper(p_hat, eps):
    """Largest p in [p_hat, 1] with kl(p_hat || p) <= eps, by bisection.

    kl(p_hat || .) is increasing on [p_hat, 1], so the feasible set is an
    interval; the result is at or beyond the exact inverse, within
    ``BISECT_WIDTH``.  eps = +inf returns 1.  Array inputs broadcast, and
    each element equals the scalar call on it.
    """
    return _kl_inv_bisect(p_hat, eps, upper=True)


def kl_inv_lower(p_hat, eps):
    """Smallest p in [0, p_hat] with kl(p_hat || p) <= eps, by bisection; the
    mirror of :func:`kl_inv_upper`, at or below the exact inverse, within
    ``BISECT_WIDTH``."""
    return _kl_inv_bisect(p_hat, eps, upper=False)


def discrete_kl(rho, pi):
    """KL(rho || pi) between two discrete distributions of equal length."""
    r = np.asarray(rho, dtype=float)
    p = np.asarray(pi, dtype=float)
    if r.shape != p.shape:
        raise DomainError(f"length mismatch: {r.shape} vs {p.shape}")
    if np.any(r < 0) or np.any(p < 0):
        raise DomainError("negative probability weight")
    if abs(r.sum() - 1.0) > 1e-9 or abs(p.sum() - 1.0) > 1e-9:
        raise DomainError("weights must sum to 1 within 1e-9")
    return _discrete_kl_unchecked(r.ravel(), p.ravel()).item()


def _discrete_kl_unchecked(rho, pi):
    """:func:`discrete_kl` for float arrays already validated, e.g. a
    simplex projection against a prior checked once up front.  Keeps a
    trailing axis: shape (1,) for a vector rho, an (A, 1) column of the
    row KLs for an (A, H) rho."""
    # xlogy term by term, with log 0 read as 0; pi = 0 under rho > 0 is +inf below
    log_rho = np.log(rho, out=np.zeros_like(rho), where=rho > 0)
    log_pi = np.log(pi, out=np.zeros_like(pi), where=pi > 0)
    val = np.maximum(np.sum(rho * log_rho - rho * log_pi, axis=-1, keepdims=True), 0.0)
    return np.where(np.any((pi == 0) & (rho > 0), axis=-1, keepdims=True), math.inf, val)


def _check_delta(delta):
    """Raise DomainError unless 0 < delta < 1; NaN fails too."""
    if not 0.0 < delta < 1.0:
        raise DomainError(f"delta outside (0, 1): {delta}")


def _is_count(v):
    """True for a Python or numpy integer that is not a bool."""
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _binomial_tail_fn(n, k):
    """p -> P[Binomial(n, p) <= k] for 0 < p < 1 and integers 0 <= k <= n; forms
    ln C(n, i), i = 0..k, once, and each call takes a max-shifted log-sum-exp."""
    if not (_is_count(n) and _is_count(k)):
        raise DomainError(f"n and k must be integers, got n={n!r}, k={k!r}")
    if not 0 <= k <= n:
        raise DomainError(f"need 0 <= k <= n, got k={k}, n={n}")
    lg_n = math.lgamma(n + 1)
    coef = np.array([lg_n - math.lgamma(i + 1) - math.lgamma(n - i + 1) for i in range(k + 1)])
    i = np.arange(k + 1, dtype=float)
    rest = n - i

    def tail(p):
        log_pmf = coef + i * math.log(p) + rest * math.log1p(-p)
        top = log_pmf.max()
        return min(1.0, math.exp(top + math.log(np.exp(log_pmf - top).sum())))

    return tail


def binomial_tail(n, k, p):
    """P[Binomial(n, p) <= k], exactly, accumulated in log space."""
    tail = _binomial_tail_fn(n, k)
    p = float(p)
    if not 0.0 <= p <= 1.0:
        raise DomainError(f"p outside [0, 1]: {p}")
    if k == n or p == 0.0:
        return 1.0
    if p == 1.0:
        return 0.0
    return tail(p)


def binomial_tail_inverse(n, k, delta):
    """Largest p with P[Binomial(n, p) <= k] >= delta, by bisection.

    The tail is non-increasing in p, equal to 1 at p = 0, so the feasible
    set is an interval [0, p*]; the result is at or beyond the exact inverse
    p*, within ``BISECT_WIDTH``.
    """
    tail = _binomial_tail_fn(n, k)
    _check_delta(delta)
    if k == n:
        return 1.0
    lo, hi = 0.0, 1.0
    for _ in range(BISECT_MAX_ITER):
        if hi - lo <= BISECT_WIDTH:
            break
        mid = 0.5 * (lo + hi)
        if tail(mid) >= delta:
            lo = mid
        else:
            hi = mid
    return hi


def psi(u):
    """psi(u) = u - ln(1+u) for finite u > -1; non-negative everywhere."""
    if isinstance(u, float) and -1.0 < u < math.inf:
        return float(u) - float(np.log1p(u))
    a = np.asarray(u, dtype=float)
    if not np.all((a > -1.0) & (a < math.inf)):
        raise DomainError("psi requires a finite u > -1")
    return _maybe_scalar(a - np.log1p(a), u)


def phi(x):
    """phi(x) = e^x - x - 1 for finite x up to ln(DBL_MAX) ~ 709.78; non-negative."""
    a = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(a)):
        raise DomainError("phi requires a finite x")
    with np.errstate(over="ignore"):
        e = np.expm1(a)
    if not np.all(np.isfinite(e)):
        raise DomainError("phi overflows: e^x is above the largest float for x > 709.78")
    return _maybe_scalar(e - a, x)
