import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from splitkl import majority_vote
from splitkl.errors import DomainError
from splitkl.klcore import discrete_kl, kl_inv_lower, kl_inv_upper, phi, psi
from splitkl.concentration import BoundReport
from splitkl.majority_vote import (
    DEFAULT_ALPHA_GRID,
    AlphaTandemStats,
    EvaluationMatrix,
    IRPropConfig,
    PosteriorWeights,
    PredictionLossMatrix,
    alpha_stats,
    alpha_value_range,
    ccpbb_bound,
    ccpbb_optimize,
    ccpbskl_bound,
    ccpbskl_optimize,
    ccpbub_bound,
    ccpbub_gamma_grid,
    ccpbub_optimize,
    cctnd_bound,
    cctnd_optimize,
    compute_tandem_stats,
    irprop_plus,
    mv_risk,
    project_simplex,
    tnd_bound,
    tnd_optimize,
)
from splitkl.klcore import _discrete_kl_unchecked
from splitkl.majority_vote import (
    _affine_gradient, _ccpbb_grids, _ccpbb_value, _ccpbub_value, _irprop_rows, _quad,
)

SMALL_ALPHA_GRID = tuple(np.arange(-5, 5) / 10.0)  # includes 0


def random_plm(rng, h=4, n=60, rate=0.3, mask_rate=0.5):
    losses = (rng.uniform(size=(h, n)) < rate).astype(float)
    while True:
        mask = rng.uniform(size=(h, n)) < mask_rate
        counts = mask.astype(float) @ mask.astype(float).T
        if counts.min() >= 2:
            return PredictionLossMatrix(losses=losses, mask=mask)


def uniform_w(h):
    u = np.full(h, 1.0 / h)
    return PosteriorWeights(rho=u, pi=u)


# ---------------------------------------------------------------------------
# PredictionLossMatrix / tandem stats
# ---------------------------------------------------------------------------


def test_tandem_stats_identical_rows():
    losses = np.zeros((2, 10))
    losses[:, :3] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((2, 10), dtype=bool))
    ts = compute_tandem_stats(plm)
    assert np.allclose(ts.single_loss, 0.3)
    assert np.allclose(ts.tandem_loss, 0.3)
    assert ts.n == 10 and ts.m == 10


def test_tandem_stats_joint_errors():
    losses = np.zeros((2, 10))
    losses[0, [0, 1]] = 1.0
    losses[1, [1, 2]] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((2, 10), dtype=bool))
    ts = compute_tandem_stats(plm)
    assert ts.tandem_loss[0, 1] == pytest.approx(0.1)
    assert np.allclose(np.diag(ts.tandem_loss), ts.single_loss)


def test_tandem_stats_partial_masks():
    losses = np.array([[1.0, 1, 0, 0, 0, 0], [1, 0, 1, 0, 0, 0]])
    mask = np.array(
        [[True, True, True, True, False, False],
         [True, True, True, False, True, True]]
    )
    plm = PredictionLossMatrix(losses=losses, mask=mask)
    ts = compute_tandem_stats(plm)
    # overlap columns {0,1,2}: joint errors only at column 0
    assert ts.m == 3
    assert ts.tandem_loss[0, 1] == pytest.approx(1.0 / 3.0)
    assert ts.single_loss[0] == pytest.approx(0.5)
    assert ts.single_loss[1] == pytest.approx(0.4)


def test_ccpbb_optimize_needs_two_shared_examples():
    # lambda ranges over (0, 2(m-1)/m), empty at m = 1: a RuntimeWarning, then
    # a "non-finite gradient" error
    mask = np.array([[True, True, True, False, False], [False, False, True, True, True]])
    plm = PredictionLossMatrix(losses=np.array([[0.0, 1, 0, 1, 0], [1, 0, 1, 0, 1]]), mask=mask)
    assert compute_tandem_stats(plm).m == 1
    with pytest.raises(DomainError, match="got m = 1"):
        ccpbb_optimize(plm, np.full(2, 0.5), 0.05)


def test_empty_intersection_rejected():
    losses = np.zeros((2, 4))
    mask = np.array([[True, True, False, False], [False, False, True, True]])
    with pytest.raises(DomainError, match=r"\(0, 1\)"):
        PredictionLossMatrix(losses=losses, mask=mask)


# ---------------------------------------------------------------------------
# alpha stats
# ---------------------------------------------------------------------------


def test_alpha_value_range_rules():
    a, mu, b, k = alpha_value_range(0.25)
    assert (a, mu, b) == (-0.25 * 0.75, 0.0625, 0.75**2)
    assert k == pytest.approx(0.75) and k == pytest.approx(b - a)
    a, mu, b, k = alpha_value_range(-0.25)
    assert (a, mu, b) == (0.0625, 0.25 * 1.25, 1.25**2)
    assert k == pytest.approx(1.5) and k == pytest.approx(b - a)


def test_alpha_stats_zero_collapse():
    rng = np.random.default_rng(0)
    plm = random_plm(rng)
    ts = compute_tandem_stats(plm)
    ats = alpha_stats(plm, 0.0)
    assert np.array_equal(ats.mean, ts.tandem_loss)
    assert np.array_equal(ats.plus, ts.tandem_loss)
    assert np.all(ats.minus == 0.0)
    assert (ats.a, ats.mu, ats.b) == (-0.0, 0.0, 1.0)


def test_alpha_stats_boundary_rejected():
    rng = np.random.default_rng(1)
    plm = random_plm(rng)
    with pytest.raises(DomainError):
        alpha_stats(plm, 0.5)


def test_alpha_stats_both_wrong():
    losses = np.ones((2, 8))
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((2, 8), dtype=bool))
    ats = alpha_stats(plm, -0.5)
    assert np.allclose(ats.mean, 2.25)
    assert ats.b == 2.25


def test_alpha_stats_against_bruteforce():
    rng = np.random.default_rng(2)
    plm = random_plm(rng, h=3, n=40)
    for alpha in (-0.4, -0.1, 0.2, 0.45):
        ats = alpha_stats(plm, alpha)
        h = plm.h_count
        for i in range(h):
            for j in range(h):
                sel = plm.mask[i] & plm.mask[j]
                z = (plm.losses[i, sel] - alpha) * (plm.losses[j, sel] - alpha)
                assert ats.mean[i, j] == pytest.approx(z.mean(), abs=1e-12)
                assert ats.second_moment[i, j] == pytest.approx((z**2).mean(), abs=1e-12)
                assert ats.variance[i, j] == pytest.approx(z.var(ddof=1), abs=1e-12)
                assert ats.plus[i, j] == pytest.approx(
                    np.maximum(0.0, z - ats.mu).mean(), abs=1e-12
                )
                assert ats.minus[i, j] == pytest.approx(
                    np.maximum(0.0, ats.mu - z).mean(), abs=1e-12
                )


@settings(derandomize=True, max_examples=40, deadline=None)
@given(alphas=st.lists(st.floats(-0.5, 0.5, exclude_max=True), min_size=1, max_size=8))
def test_alpha_value_range_equals_stacked_alpha_stats_rows(alphas):
    plm = random_plm(np.random.default_rng(25), h=3, n=30)
    stacked = alpha_stats(plm, alphas)
    for i, alpha in enumerate(alphas):
        expect = tuple(getattr(stacked, name)[i, 0] for name in ("a", "mu", "b", "k_range"))
        assert alpha_value_range(alpha) == expect


def _pair_counts_from_scratch(plm):
    err = plm.losses == 1.0
    joint = plm.mask[:, None, :] & plm.mask[None, :, :]
    valid = joint.sum(axis=2)
    both = (joint & err[:, None, :] & err[None, :, :]).sum(axis=2)
    none = (joint & ~err[:, None, :] & ~err[None, :, :]).sum(axis=2)
    return valid, both, valid - both - none, none


def test_alpha_stats_stacked_rows_equal_single_calls():
    rng = np.random.default_rng(24)
    plm = random_plm(rng, h=5, n=70)
    alphas = (-0.5, -0.37, 0.0, 0.123456789, 0.49)
    stacked = alpha_stats(plm, alphas)
    assert stacked.mean.shape == (5, 5, 5) and stacked.b.shape == (5, 1)
    for i, alpha in enumerate(alphas):
        one = alpha_stats(plm, alpha)
        for name in ("mean", "second_moment", "variance", "plus", "minus"):
            assert np.array_equal(getattr(stacked, name)[i], getattr(one, name))
        for name in ("alpha", "a", "mu", "b", "k_range"):
            assert getattr(stacked, name)[i, 0] == getattr(one, name)
    with pytest.raises(DomainError):
        alpha_stats(plm, (0.1, 0.5))


def test_alpha_stats_recombine_stored_pair_counts():
    rng = np.random.default_rng(21)
    for h, n in ((2, 30), (4, 60), (7, 90)):
        plm = random_plm(rng, h=h, n=n)
        valid, both, one, none = _pair_counts_from_scratch(plm)
        scratch = (valid, both, one, none, plm.mask.sum(axis=1))
        for stored, expect in zip(plm.pair_counts, scratch, strict=True):
            assert np.array_equal(stored, expect)
        for alpha in (-0.5, -0.2, 0.0, 0.3, 0.49):
            ats = alpha_stats(plm, alpha)
            values = ((1.0 - alpha) ** 2, -alpha * (1.0 - alpha), alpha * alpha)

            def pair_mean(f):
                return (both * f[0] + one * f[1] + none * f[2]) / valid

            assert np.array_equal(ats.mean, pair_mean(values))
            assert np.array_equal(ats.second_moment, pair_mean([v * v for v in values]))
            assert np.array_equal(ats.plus, pair_mean([max(0.0, v - ats.mu) for v in values]))
            assert np.array_equal(ats.minus, pair_mean([max(0.0, ats.mu - v) for v in values]))
            assert (ats.n, ats.m) == (int(plm.mask.sum(axis=1).min()), int(valid.min()))


# ---------------------------------------------------------------------------
# simplex projection & iRProp+
# ---------------------------------------------------------------------------


def test_project_simplex_cases():
    assert np.allclose(project_simplex([0.5, 0.5]), [0.5, 0.5])
    assert np.allclose(project_simplex([2.0, 0.0]), [1.0, 0.0])
    assert np.allclose(project_simplex([0.3, 0.3, 0.3]), [1 / 3, 1 / 3, 1 / 3])
    with pytest.raises(DomainError):
        project_simplex([])


def test_project_simplex_is_projection():
    rng = np.random.default_rng(3)
    for _ in range(100):
        v = rng.normal(size=rng.integers(1, 10))
        p = project_simplex(v)
        assert p.min() >= 0 and p.sum() == pytest.approx(1.0, abs=1e-12)
        # optimality: projecting a feasible point returns it
        assert np.allclose(project_simplex(p), p, atol=1e-12)


def test_irprop_quadratic_on_segment():
    # with the 1e-9/10-iteration stopping rule the attainable x-accuracy on
    # this quadratic is ~sqrt(tol); assert the corresponding tolerance
    c = np.array([0.9, 0.1])
    target = project_simplex(c)
    x = irprop_plus(
        lambda x: 2 * (x - c), lambda x: float(np.sum((x - c) ** 2)),
        np.array([0.5, 0.5]),
    )
    assert np.allclose(x, target, atol=1e-4)
    tight = irprop_plus(
        lambda x: 2 * (x - c), lambda x: float(np.sum((x - c) ** 2)),
        np.array([0.5, 0.5]),
        IRPropConfig(tol=1e-14, max_iter=5000, patience=20),
    )
    assert np.allclose(tight, target, atol=1e-6)


def test_irprop_zero_gradient_returns_init():
    init = np.array([0.25, 0.75])
    x = irprop_plus(lambda x: np.zeros_like(x), lambda x: 1.0, init)
    assert np.allclose(x, init)


def test_irprop_matches_grid_on_3simplex():
    a = np.array([1.0, 2.0, 4.0])
    c = np.array([0.2, 0.5, 0.3])

    def obj(x):
        return float(np.sum(a * (x - c) ** 2))

    def grad(x):
        return 2 * a * (x - c)

    x = irprop_plus(grad, obj, np.array([1 / 3, 1 / 3, 1 / 3]))
    # fine grid over the 3-simplex
    best = math.inf
    for p in np.linspace(0, 1, 201):
        for q in np.linspace(0, 1 - p, max(2, int((1 - p) * 200) + 1)):
            best = min(best, obj(np.array([p, q, 1 - p - q])))
    assert obj(x) <= best + 1e-4


def test_irprop_never_worse_than_init():
    rng = np.random.default_rng(4)
    for _ in range(20):
        h = int(rng.integers(2, 6))
        matrix = rng.uniform(size=(h, h))
        matrix = (matrix + matrix.T) / 2
        init = project_simplex(rng.uniform(size=h))

        def obj(x):
            return float(x @ matrix @ x)

        def grad(x):
            return 2 * matrix @ x

        x = irprop_plus(grad, obj, init)
        assert obj(x) <= obj(init) + 1e-12


def test_irprop_rejects_nonfinite_gradient():
    with pytest.raises(DomainError):
        irprop_plus(
            lambda x: np.array([math.nan, 0.0]), lambda x: 0.0, np.array([0.5, 0.5])
        )


@pytest.mark.parametrize("h", [3, 7, 40])
def test_row_forms_bit_equal_to_vector_forms(h):
    # stacked matmul, row sums and row logs keep every row's bits; einsum
    # does not, so the batched optimizers rely on these exact forms.  Each
    # row also equals the plain vector expression r' M r, M r, sum(...).
    rng = np.random.default_rng(h)
    rows = 50
    rho = rng.dirichlet(np.ones(h), size=rows)
    pi = rng.dirichlet(np.ones(h))
    m = rng.uniform(size=(rows, h, h))
    m = m + m.transpose(0, 2, 1)
    c_kl, c_m = rng.uniform(size=(rows, 1)), rng.normal(size=(rows, 1))
    quads, kls = _quad(rho, m), _discrete_kl_unchecked(rho, pi)
    grads = _affine_gradient(pi, c_kl, (c_m, m))(rho)
    for i in range(rows):
        r = rho[i]
        assert quads[i, 0] == _quad(r, m[i]).item() == max(float(r @ m[i] @ r), 0.0)
        assert kls[i, 0] == _discrete_kl_unchecked(r, pi).item() == discrete_kl(r, pi)
        one = _affine_gradient(pi, c_kl[i, 0], (c_m[i, 0], m[i]))(r)
        plain = (c_kl[i, 0] * (np.log(np.maximum(r, 1e-12) / pi) + 1.0)
                 + c_m[i, 0] * (2.0 * (m[i] @ r)))
        assert np.array_equal(grads[i], one) and np.array_equal(one, plain)


# each row of the batched iRProp+ must be bit-equal to irprop_plus on it


def _row_run(gradient, objective, init, config, i):
    """irprop_plus on row i of a batched problem; the other rows are fixed at
    init, so row i's values come from the batched closures; also returns the
    number of objective evaluations, one per iteration plus one."""
    calls = []

    def expand(r):
        x = init.copy()
        x[i] = r
        return x

    def objective_i(r):
        calls.append(None)
        return objective(expand(r))[i]

    rho = irprop_plus(lambda r: gradient(expand(r))[i], objective_i, init[i], config)
    return rho, len(calls)


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), rows=st.integers(1, 6), h=st.sampled_from([2, 3, 7, 40]))
def test_irprop_rows_equal_irprop_plus_per_row(seed, rows, h):
    # c_kl KL(rho||pi) + c rho' M rho + b . rho, a different problem per row;
    # a tight max_iter and a steep linear pull on some rows make rows stop
    # at different iterations and some run to the cap
    rng = np.random.default_rng(seed)
    pi = rng.dirichlet(np.ones(h) * 5.0)
    m = rng.uniform(size=(rows, h, h))
    m = m + m.transpose(0, 2, 1)
    c_kl = rng.uniform(0.0, 2.0, size=(rows, 1))
    c_m = rng.uniform(-1.0, 1.0, size=(rows, 1))
    lin = rng.normal(size=(rows, h)) * rng.choice([0.0, 1.0, 50.0], size=(rows, 1))
    gradient = _affine_gradient(pi, c_kl, (c_m, m))

    def objective(x):
        kl = _discrete_kl_unchecked(x, pi)
        return (c_kl * kl + c_m * _quad(x, m))[:, 0] + np.sum(lin * x, axis=1)

    def gradient_lin(x):
        return gradient(x) + lin

    config = IRPropConfig(max_iter=int(rng.integers(5, 60)), step_max=0.05)
    init = np.vstack([project_simplex(rng.uniform(size=h)) for _ in range(rows)])
    batch = _irprop_rows(gradient_lin, objective, init, config)
    for i in range(rows):
        rho, _ = _row_run(gradient_lin, objective, init, config, i)
        assert np.array_equal(batch[i], rho)


@pytest.mark.parametrize("optimize", [ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize])
def test_alpha_grid_equals_one_alpha_at_a_time(optimize):
    # the batched grid reports what optimizing each alpha alone and keeping
    # the first best, in grid order, reports
    rng = np.random.default_rng(32)
    plm = random_plm(rng, h=4, n=90)
    pi = np.full(4, 0.25)
    grid = (0.2, -0.3, 0.0, -0.1, 0.35)
    w, rep = optimize(plm, pi, 0.05, alpha_grid=grid)
    alone = [optimize(plm, pi, 0.05, alpha_grid=(a,)) for a in grid]
    traces = [r.params["trace"] for _, r in alone]
    assert rep.params["trace"] == tuple(np.minimum.accumulate(np.concatenate(traces)))
    assert rep.params["iterations"] == sum(r.params["iterations"] for _, r in alone)
    first = [r.value for _, r in alone].index(rep.value)
    assert (_chosen(rep) == _chosen(alone[first][1])
            and np.array_equal(w.rho, alone[first][0].rho))


@pytest.mark.parametrize("optimize", [ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize])
def test_alpha_grid_in_chunks_equals_one_batch(monkeypatch, optimize):
    # a grid split into several stacked chunks reports what one batch does
    rng = np.random.default_rng(33)
    plm = random_plm(rng, h=4, n=90)
    pi = np.full(4, 0.25)
    grid = (0.2, -0.3, 0.0, -0.1, 0.35, 0.1, -0.45, 0.05)
    whole_w, whole = optimize(plm, pi, 0.05, alpha_grid=grid)
    batches = []
    stacked = majority_vote.alpha_stats
    monkeypatch.setattr(majority_vote, "alpha_stats",
                        lambda plm, alphas: batches.append(alphas) or stacked(plm, alphas))
    monkeypatch.setattr(majority_vote, "_STACK_ENTRIES", 2 * 4 * 4)  # two alphas per chunk
    w, rep = optimize(plm, pi, 0.05, alpha_grid=grid)
    assert len(batches) >= 3 and max(len(b) for b in batches) == 2
    assert rep.value == whole.value and _chosen(rep) == _chosen(whole)
    assert np.array_equal(w.rho, whole_w.rho)
    assert rep.params["trace"] == whole.params["trace"]
    assert rep.params["iterations"] == whole.params["iterations"]


def _chosen(rep):
    """An optimizer report's chosen parameters: its params without the
    iteration count and the trace."""
    return {k: v for k, v in rep.params.items() if k not in ("iterations", "trace")}


def _best_by_loop(log):
    """The reported record by the plain rule: rows in order, within a row
    records in log order, and a record replaces the best on a strict <."""
    value, rho, params, trace = math.inf, None, {}, []
    for row in sorted({int(r) for rows, *_ in log for r in rows}):
        for rows, values, rhos, cols in log:
            for j in np.flatnonzero(np.asarray(rows) == row):
                if values[j] < value:
                    value, rho = float(values[j]), np.array(rhos[j], dtype=float)
                    params = {k: float(c[j, 0]) if np.ndim(c) else c for k, c in cols.items()}
                trace.append(value)
    return value, rho, params, tuple(trace)


@st.composite
def outer_round_logs(draw):
    """Logs shaped as the alpha families' are: rows that stop after
    different rounds, tied, infinite and NaN values, and maybe a one-row
    stand-in entry for alpha = 0 appended last."""
    rows, h = draw(st.integers(1, 5)), draw(st.integers(1, 4))
    zero = draw(st.one_of(st.none(), st.integers(0, rows - 1)))
    run = np.array([r for r in range(rows) if r != zero], dtype=int)
    stops = np.array([draw(st.integers(1, 4)) for _ in run], dtype=int)
    value = st.sampled_from([0.3, 0.5, 0.5, 0.7, math.inf, math.nan])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    log = []
    for k in range(stops.max(initial=0)):
        live = run[stops > k]
        values = np.array([draw(value) for _ in live])
        rho = rng.dirichlet(np.ones(h), size=len(live))
        cols = {"alpha": live[:, None] / 10.0, "lam": rng.uniform(size=(len(live), 1))}
        log.append((live, values, rho, cols))
    if zero is not None:
        log.append(([zero], [draw(value)], rng.dirichlet(np.ones(h))[None],
                    {"alpha": 0.0, "lam": draw(st.one_of(st.none(), st.floats(0, 1))),
                     "gam": None}))
    return log


@settings(derandomize=True, max_examples=200, deadline=None)
@given(outer_round_logs())
def test_best_equals_the_plain_loop(log):
    value, rho, params, trace = majority_vote._best(log)
    want_value, want_rho, want_params, want_trace = _best_by_loop(log)
    assert value == want_value and params == want_params and trace == want_trace
    if want_rho is None:
        assert rho is None
    else:
        assert np.array_equal(rho, want_rho)
        assert not any(np.shares_memory(rho, rhos) for _, _, rhos, _ in log)


def _recorded_batches(monkeypatch, run):
    """The (gradient, objective, init, config) of every batched iRProp+
    call that ``run`` makes with more than one row."""
    calls = []
    batched = majority_vote._irprop_rows

    def recording(gradient, objective, init, config):
        if len(init) > 1:
            calls.append((gradient, objective, init.copy(), config))
        return batched(gradient, objective, init, config)

    monkeypatch.setattr(majority_vote, "_irprop_rows", recording)
    run()
    monkeypatch.undo()
    return calls


def test_alpha_family_batches_equal_irprop_plus_per_row(monkeypatch):
    # the optimizers' own objectives and gradients: identical loss rows make
    # CCPBSkl's gamma infinite at alpha > 0, H = 40 covers a wide ensemble,
    # tol = 0 lets rows run for different lengths, and a small max_iter
    # makes rows hit the cap
    rng = np.random.default_rng(31)
    full = np.ones((4, 80), dtype=bool)
    same = PredictionLossMatrix(
        losses=np.tile(rng.uniform(size=80) < 0.3, (4, 1)).astype(float), mask=full)
    cases = [(same, IRPropConfig(tol=0.0)),
             (random_plm(rng, h=40, n=120, mask_rate=0.7), IRPropConfig(tol=0.0)),
             (random_plm(rng, h=5, n=90), IRPropConfig(max_iter=12, patience=20))]
    grid = (-0.4, -0.2, 0.15, 0.3)
    stops, infinite_gamma = set(), False
    for plm, config in cases:
        pi = np.full(plm.h_count, 1.0 / plm.h_count)
        for optimize in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize):
            calls = _recorded_batches(
                monkeypatch, lambda: optimize(plm, pi, 0.05, alpha_grid=grid, irprop_config=config))
            assert calls
            for gradient, objective, init, cfg in calls:
                batch = _irprop_rows(gradient, objective, init, cfg)
                for i in range(len(init)):
                    rho, evals = _row_run(gradient, objective, init, cfg, i)
                    assert np.array_equal(batch[i], rho)
                    stops.add((evals - 1, cfg.max_iter))
        _, rep = ccpbskl_optimize(plm, pi, 0.05, alpha_grid=(0.3,))
        infinite_gamma |= rep.params["gam"] == math.inf
    assert infinite_gamma
    assert (12, 12) in stops  # a row that ran to max_iter
    assert len({it for it, cap in stops if it < cap}) >= 3  # rows stopping at different iterations


# ---------------------------------------------------------------------------
# mv_risk
# ---------------------------------------------------------------------------


def test_mv_risk_single_hypothesis():
    em = EvaluationMatrix(predictions=[[1, 0, 1, 1]], labels=[1, 1, 1, 0])
    w = PosteriorWeights(rho=[1.0], pi=[1.0])
    assert mv_risk(em, w) == 0.5


def test_mv_risk_majority():
    # only example 1 has a wrong plurality label
    preds = np.array([[0, 0, 0, 1], [0, 1, 0, 0], [1, 1, 0, 0]])
    labels = np.array([0, 0, 0, 0])
    w = uniform_w(3)
    em = EvaluationMatrix(predictions=preds, labels=labels)
    assert mv_risk(em, w) == 0.25


def test_mv_risk_tie_breaks_to_smallest_label():
    em = EvaluationMatrix(predictions=[[0], [1]], labels=[0])
    assert mv_risk(em, uniform_w(2)) == 0.0
    em = EvaluationMatrix(predictions=[[0], [1]], labels=[1])
    assert mv_risk(em, uniform_w(2)) == 1.0


def test_mv_risk_ignores_label_magnitude():
    # scores are kept per distinct label, so {0, 100000} votes like {0, 1}
    rng = np.random.default_rng(6)
    preds = rng.integers(0, 2, size=(5, 40))
    labels = rng.integers(0, 2, size=40)
    w = PosteriorWeights(rho=project_simplex(rng.uniform(size=5)), pi=np.full(5, 0.2))
    small = mv_risk(EvaluationMatrix(predictions=preds, labels=labels), w)
    big = mv_risk(EvaluationMatrix(predictions=preds * 100000, labels=labels * 100000), w)
    assert big == small
    em = EvaluationMatrix(predictions=[[0, 100000], [100000, 0]], labels=[0, 100000])
    assert mv_risk(em, uniform_w(2)) == 0.5  # both ties go to label 0
    assert em.classes.tolist() == [0, 100000]


def test_mv_risk_concentrated_weights():
    rng = np.random.default_rng(5)
    preds = rng.integers(0, 3, size=(4, 50))
    labels = rng.integers(0, 3, size=50)
    em = EvaluationMatrix(predictions=preds, labels=labels)
    rho = np.array([0.0, 0.0, 1.0, 0.0])
    w = PosteriorWeights(rho=rho, pi=np.full(4, 0.25))
    assert mv_risk(em, w) == pytest.approx(np.mean(preds[2] != labels))


# ---------------------------------------------------------------------------
# bound compute forms
# ---------------------------------------------------------------------------


def test_tnd_bound_single_hypothesis():
    losses = np.zeros((1, 20))
    losses[0, :4] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((1, 20), dtype=bool))
    ts = compute_tandem_stats(plm)
    w = PosteriorWeights(rho=[1.0], pi=[1.0])
    expect = 4.0 * kl_inv_upper(0.2, math.log(4 * math.sqrt(20) / 0.05) / 20)
    assert tnd_bound(ts, w, 0.05) == pytest.approx(expect, abs=1e-12)


def test_tnd_bound_two_hypotheses_by_hand():
    rng = np.random.default_rng(6)
    plm = random_plm(rng, h=2, n=50)
    ts = compute_tandem_stats(plm)
    rho = np.array([0.3, 0.7])
    w = PosteriorWeights(rho=rho, pi=np.array([0.5, 0.5]))
    t = sum(
        rho[i] * rho[j] * ts.tandem_loss[i, j] for i in range(2) for j in range(2)
    )
    kl = discrete_kl(rho, w.pi)
    expect = 4.0 * kl_inv_upper(t, (2 * kl + math.log(4 * math.sqrt(ts.m) / 0.05)) / ts.m)
    assert tnd_bound(ts, w, 0.05) == pytest.approx(expect, abs=1e-12)


def test_rho2_quadratic_matches_double_sum():
    rng = np.random.default_rng(7)
    for _ in range(10):
        h = int(rng.integers(2, 10))
        m = rng.uniform(size=(h, h))
        m = (m + m.T) / 2
        rho = project_simplex(rng.uniform(size=h))
        brute = sum(rho[i] * rho[j] * m[i, j] for i in range(h) for j in range(h))
        assert float(rho @ m @ rho) == pytest.approx(brute, abs=1e-12)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(seed=st.integers(0, 2**32 - 1), h=st.integers(2, 6), n=st.integers(20, 120),
       delta=st.floats(1e-4, 0.9))
def test_cctnd_and_ccpbskl_collapse_at_alpha_zero(seed, h, n, delta):
    # at alpha = 0 both forms are the TND bound, bit for bit, on random
    # ensembles, posteriors and Dirichlet priors
    rng = np.random.default_rng(seed)
    plm = random_plm(rng, h=h, n=n, rate=rng.uniform(0.05, 0.5))
    ts, ats = compute_tandem_stats(plm), alpha_stats(plm, 0.0)
    w = PosteriorWeights(rho=rng.dirichlet(np.ones(h)), pi=rng.dirichlet(np.full(h, 2.0)))
    base = tnd_bound(ts, w, delta)
    assert cctnd_bound(ts, w, 0.0, delta) == base
    assert ccpbskl_bound(ats, w, delta) == base


def _plm_with_rates(n, r1, r2, joint):
    # two hypotheses with given error rates and joint-error rate, full mask
    losses = np.zeros((2, n))
    k1, k2, kj = round(n * r1), round(n * r2), round(n * joint)
    losses[0, :k1] = 1.0
    losses[1, k1 - kj : k1 - kj + k2] = 1.0
    return PredictionLossMatrix(losses=losses, mask=np.ones((2, n), dtype=bool))


def test_cctnd_inverse_direction_by_sign():
    # two stats with identical rho-weighted tandem loss but different single
    # losses: raising the single loss tightens the bound for alpha > 0 and
    # loosens it for alpha < 0 (the lower/upper inverse rule)
    low = compute_tandem_stats(_plm_with_rates(20, 0.3, 0.3, 0.2))
    high = compute_tandem_stats(_plm_with_rates(20, 0.4, 0.4, 0.1))
    w = uniform_w(2)
    t_low = float(w.rho @ low.tandem_loss @ w.rho)
    t_high = float(w.rho @ high.tandem_loss @ w.rho)
    assert t_low == pytest.approx(t_high, abs=1e-12)
    assert cctnd_bound(high, w, 0.3, 0.05) < cctnd_bound(low, w, 0.3, 0.05)
    assert cctnd_bound(high, w, -0.3, 0.05) > cctnd_bound(low, w, -0.3, 0.05)


def test_cctnd_single_hypothesis_dual_implementation():
    losses = np.zeros((1, 40))
    losses[0, :10] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((1, 40), dtype=bool))
    ts = compute_tandem_stats(plm)
    w = PosteriorWeights(rho=[1.0], pi=[1.0])
    alpha = 0.25
    t_term = kl_inv_upper(0.25, math.log(4 * math.sqrt(40) / 0.05) / 40)
    g_term = kl_inv_lower(0.25, math.log(4 * math.sqrt(40) / 0.05) / 40)
    expect = (t_term - 2 * alpha * g_term + alpha**2) / (0.5 - alpha) ** 2
    assert cctnd_bound(ts, w, alpha, 0.05) == pytest.approx(expect, abs=1e-12)


def test_ccpbub_bound_dual_implementation():
    rng = np.random.default_rng(10)
    plm = random_plm(rng, h=2, n=50)
    alpha = -0.2
    ats = alpha_stats(plm, alpha)
    rho = np.array([0.6, 0.4])
    w = PosteriorWeights(rho=rho, pi=np.array([0.5, 0.5]))
    gamma = 0.2
    b = (1 - alpha) ** 2
    k_gamma = ccpbub_gamma_grid(ats, 0.05).count
    kl = discrete_kl(rho, w.pi)
    expect = (
        float(rho @ ats.mean @ rho)
        + psi(-gamma * b) / (gamma * b * b) * float(rho @ ats.second_moment @ rho)
        + (2 * kl + math.log(k_gamma / 0.05)) / (gamma * ats.m)
    ) / (0.5 - alpha) ** 2
    assert ccpbub_bound(ats, w, gamma, 0.05) == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DomainError):
        ccpbub_bound(ats, w, 1.0 / b, 0.05)


def test_ccpbub_grid_min_property():
    rng = np.random.default_rng(11)
    plm = random_plm(rng, h=3, n=80)
    ats = alpha_stats(plm, 0.1)
    w = uniform_w(3)
    grid = ccpbub_gamma_grid(ats, 0.05).values
    vals = [ccpbub_bound(ats, w, g, 0.05) for g in grid]
    assert min(vals) <= max(vals)


def test_ccpbb_bound_hand_evaluation():
    losses = np.zeros((1, 30))
    losses[0, :6] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((1, 30), dtype=bool))
    ats = alpha_stats(plm, 0.0)
    w = PosteriorWeights(rho=[1.0], pi=[1.0])
    lam, gamma = 0.5, 0.7
    m = n = 30
    u = lam * m / (2 * (m - 1))
    comp = math.log(2 * 4 * 5 / 0.05)
    k = 1.0
    var = ats.variance[0, 0]
    expect = 4.0 * (
        0.2
        + comp / (gamma * m)
        + phi(gamma * k) / (gamma * k * k) * (var / (1 - u) + k * k * comp / (n * lam * (1 - u)))
    )
    got = ccpbb_bound(ats, w, lam, gamma, 0.05, k_lambda=4, k_gamma=5)
    assert got == pytest.approx(expect, abs=1e-12)
    with pytest.raises(DomainError):
        ccpbb_bound(ats, w, 2.0, gamma, 0.05, 4, 5)


_MONOTONE_PLM = random_plm(np.random.default_rng(12), h=3, n=80)
_weights = st.lists(st.floats(0.05, 1.0), min_size=3, max_size=3).map(
    lambda v: np.array(v) / sum(v))


@settings(derandomize=True, deadline=None, max_examples=100)
@given(rho=_weights, pi_a=_weights, pi_b=_weights, alpha=st.sampled_from([-0.3, 0.0, 0.1]))
def test_ccpbb_monotone_in_kl(rho, pi_a, pi_b, alpha):
    ts, ats = compute_tandem_stats(_MONOTONE_PLM), alpha_stats(_MONOTONE_PLM, alpha)
    # direct check: same rho, inflated complexity via a farther prior
    near_rho = np.array([0.7, 0.2, 0.1])
    near = PosteriorWeights(rho=near_rho, pi=near_rho)
    far = PosteriorWeights(rho=near_rho, pi=np.array([0.1, 0.2, 0.7]))
    assert ccpbb_bound(ats, far, 0.5, 0.7, 0.05, 20, 20) >= ccpbb_bound(
        ats, near, 0.5, 0.7, 0.05, 20, 20
    )
    # every compute form sees the prior only through KL(rho||pi): at fixed
    # rho and statistics, it does not decrease as KL grows
    gamma = ccpbub_gamma_grid(ats, 0.05).values[0]
    forms = (lambda w: tnd_bound(ts, w, 0.05),
             lambda w: cctnd_bound(ts, w, alpha, 0.05),
             lambda w: ccpbb_bound(ats, w, 0.5, 0.7, 0.05, 20, 20),
             lambda w: ccpbub_bound(ats, w, gamma, 0.05),
             lambda w: ccpbskl_bound(ats, w, 0.05))
    low, high = sorted((PosteriorWeights(rho, pi_a), PosteriorWeights(rho, pi_b)),
                       key=lambda w: discrete_kl(w.rho, w.pi))
    for form in forms:
        assert form(low) <= form(high)


def test_ccpbb_and_ccpbub_bounds_equal_their_value_helpers():
    # the optimizers' grid loops call the helpers with forms computed once
    rng = np.random.default_rng(22)
    for h in (2, 4, 7):
        plm = random_plm(rng, h=h, n=80)
        pi = np.full(h, 1.0 / h)
        for alpha in (-0.4, 0.0, 0.25):
            ats = alpha_stats(plm, alpha)
            rho = project_simplex(rng.uniform(size=h))
            w = PosteriorWeights(rho=rho, pi=pi)
            kl = discrete_kl(rho, pi)
            lam_grid, gam_grid = _ccpbb_grids(ats.m)
            k_lam, k_gam = len(lam_grid), len(gam_grid)
            forms = (_quad(rho, ats.mean), _quad(rho, ats.variance), kl)
            for lv in lam_grid:
                for gv in gam_grid:
                    assert ccpbb_bound(ats, w, lv, gv, 0.05, k_lam, k_gam) == _ccpbb_value(
                        ats, *forms, lv, gv, 0.05, k_lam, k_gam
                    )
            grid = ccpbub_gamma_grid(ats, 0.05)
            forms = (_quad(rho, ats.mean), _quad(rho, ats.second_moment), kl)
            for gv in grid.values:
                assert ccpbub_bound(ats, w, gv, 0.05) == _ccpbub_value(
                    ats, *forms, gv, 0.05, grid.count
                )


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_posterior_weights_reject_non_finite(bad):
    with pytest.raises(DomainError, match="rho is not on the simplex"):
        PosteriorWeights(rho=[0.5, bad], pi=[0.5, 0.5])
    with pytest.raises(DomainError, match="pi is not on the simplex"):
        PosteriorWeights(rho=[0.5, 0.5], pi=[bad, 0.5])


def test_bounds_reject_negative_weights():
    rng = np.random.default_rng(23)
    plm = random_plm(rng, h=3, n=60)
    ts, ats = compute_tandem_stats(plm), alpha_stats(plm, -0.2)
    # PosteriorWeights tolerates -1e-9 of rounding; the bounds' KL check does not
    w = PosteriorWeights(rho=[0.5 + 5e-10, 0.5, -5e-10], pi=np.full(3, 1.0 / 3.0))
    lam_grid, gam_grid = _ccpbb_grids(ats.m)
    gamma = ccpbub_gamma_grid(ats, 0.05).values[0]
    calls = (
        lambda: tnd_bound(ts, w, 0.05),
        lambda: cctnd_bound(ts, w, 0.1, 0.05),
        lambda: ccpbb_bound(ats, w, lam_grid[5], gam_grid[5], 0.05, 20, 20),
        lambda: ccpbub_bound(ats, w, gamma, 0.05),
        lambda: ccpbskl_bound(ats, w, 0.05),
    )
    for call in calls:
        with pytest.raises(DomainError, match="negative probability weight"):
            call()


def test_ccpbskl_single_hypothesis_oracle():
    losses = np.zeros((1, 40))
    losses[0, :10] = 1.0
    plm = PredictionLossMatrix(losses=losses, mask=np.ones((1, 40), dtype=bool))
    alpha = -0.25
    ats = alpha_stats(plm, alpha)
    w = PosteriorWeights(rho=[1.0], pi=[1.0])
    eps = math.log(4 * math.sqrt(40) / 0.05) / 40
    plus_w, minus_w = ats.b - ats.mu, ats.mu - ats.a
    expect = (
        ats.mu
        + plus_w * kl_inv_upper(ats.plus[0, 0] / plus_w, eps)
        - minus_w * kl_inv_lower(ats.minus[0, 0] / minus_w, eps)
    ) / (0.5 - alpha) ** 2
    assert ccpbskl_bound(ats, w, 0.05) == pytest.approx(expect, abs=1e-12)


def test_bounds_invariant_under_hypothesis_permutation():
    rng = np.random.default_rng(13)
    plm = random_plm(rng, h=4, n=60)
    perm = rng.permutation(4)
    plm_p = PredictionLossMatrix(losses=plm.losses[perm], mask=plm.mask[perm])
    rho = project_simplex(rng.uniform(size=4))
    pi = project_simplex(rng.uniform(size=4) + 0.5)
    w = PosteriorWeights(rho=rho, pi=pi)
    w_p = PosteriorWeights(rho=rho[perm], pi=pi[perm])
    ts, ts_p = compute_tandem_stats(plm), compute_tandem_stats(plm_p)
    assert tnd_bound(ts, w, 0.05) == pytest.approx(tnd_bound(ts_p, w_p, 0.05), abs=1e-12)
    assert cctnd_bound(ts, w, 0.2, 0.05) == pytest.approx(
        cctnd_bound(ts_p, w_p, 0.2, 0.05), abs=1e-12
    )
    ats, ats_p = alpha_stats(plm, -0.3), alpha_stats(plm_p, -0.3)
    assert ccpbskl_bound(ats, w, 0.05) == pytest.approx(
        ccpbskl_bound(ats_p, w_p, 0.05), abs=1e-12
    )
    assert ccpbub_bound(ats, w, 0.2, 0.05) == pytest.approx(
        ccpbub_bound(ats_p, w_p, 0.2, 0.05), abs=1e-12
    )
    assert ccpbb_bound(ats, w, 0.5, 0.7, 0.05, 20, 20) == pytest.approx(
        ccpbb_bound(ats_p, w_p, 0.5, 0.7, 0.05, 20, 20), abs=1e-12
    )


# ---------------------------------------------------------------------------
# optimizers
# ---------------------------------------------------------------------------


def test_tnd_optimize_descends():
    rng = np.random.default_rng(14)
    for _ in range(10):
        plm = random_plm(rng, h=int(rng.integers(2, 6)), n=80)
        ts = compute_tandem_stats(plm)
        pi = np.full(plm.h_count, 1.0 / plm.h_count)
        w, rep = tnd_optimize(ts, pi, 0.05)
        init = tnd_bound(ts, PosteriorWeights(pi, pi), 0.05)
        assert rep.value <= init + 1e-12
        assert rep.value == pytest.approx(tnd_bound(ts, w, 0.05), abs=1e-12)
        trace = rep.params["trace"]
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_cctnd_optimize_beats_alpha_zero():
    rng = np.random.default_rng(15)
    for _ in range(10):
        plm = random_plm(rng, h=3, n=80)
        ts = compute_tandem_stats(plm)
        pi = np.full(3, 1.0 / 3.0)
        w, rep = cctnd_optimize(ts, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)
        alpha = rep.params["alpha"]
        init = cctnd_bound(ts, PosteriorWeights(pi, pi), 0.0, 0.05)
        assert rep.value <= init + 1e-12
        assert rep.value == pytest.approx(cctnd_bound(ts, w, alpha, 0.05), abs=1e-12)


def test_cctnd_fixed_alpha_zero_equals_tnd():
    rng = np.random.default_rng(16)
    plm = random_plm(rng, h=4, n=60)
    ts = compute_tandem_stats(plm)
    pi = np.full(4, 0.25)
    w_t, rep_t = tnd_optimize(ts, pi, 0.05)
    w_c, rep_c = cctnd_optimize(ts, pi, 0.05, alpha_grid=(0.0,))
    assert rep_c.params["alpha"] == 0.0
    assert rep_c.value == rep_t.value
    assert np.array_equal(w_c.rho, w_t.rho)


def test_cctnd_takes_the_tnd_candidate_only_when_strictly_lower():
    # a grid around 0 makes the given TND result a candidate; one with no
    # finite value never wins, so that run is CCTND's own best
    rng = np.random.default_rng(21)
    plm = random_plm(rng, h=4, n=80)
    ts, pi = compute_tandem_stats(plm), np.full(4, 0.25)
    grid = (-0.2, 0.0, 0.3)
    cand_rho = np.array([0.4, 0.3, 0.2, 0.1])

    def cctnd_with_tnd(value):
        tnd = (PosteriorWeights(cand_rho, pi),
               BoundReport("tnd", value, 0.05, {"lam": 0.25, "iterations": 3, "trace": ()}))
        return cctnd_optimize(ts, pi, 0.05, alpha_grid=grid, tnd=tnd)

    own_w, own = cctnd_with_tnd(math.inf)
    w, rep = cctnd_with_tnd(np.nextafter(own.value, -math.inf))
    assert rep.value == np.nextafter(own.value, -math.inf)
    assert np.array_equal(w.rho, cand_rho) and w.rho is not cand_rho
    assert {k: rep.params[k] for k in ("alpha", "lam")} == {"alpha": 0.0, "lam": 0.25}
    assert "gam" not in rep.params
    assert rep.params["trace"] == own.params["trace"] + (rep.value,)
    assert rep.params["iterations"] == own.params["iterations"]
    w, rep = cctnd_with_tnd(own.value)  # a tie keeps CCTND's own record
    assert rep.value == own.value and np.array_equal(w.rho, own_w.rho)
    assert rep.params == own.params


def test_alpha_grid_none_is_the_default_grid():
    rng = np.random.default_rng(22)
    plm = random_plm(rng, h=3, n=60)
    pi = np.full(3, 1.0 / 3.0)
    w, rep = ccpbub_optimize(plm, pi, 0.05, alpha_grid=None)
    w_default, rep_default = ccpbub_optimize(plm, pi, 0.05, alpha_grid=DEFAULT_ALPHA_GRID)
    assert rep == rep_default and np.array_equal(w.rho, w_default.rho)


@pytest.mark.parametrize("grid", [(0.3, 0.45), (-0.45, -0.3), (0.3,), (-0.2, 0.1, 0.4)])
def test_cctnd_reports_an_alpha_inside_the_grid_range(grid):
    # (0.3, 0.45) reported alpha = 0, the start point and TND candidate, which
    # a grid that excludes 0 does not hold
    from splitkl.simulation import synth_ensemble

    for seed in range(4):
        plm, _ = synth_ensemble(5, 400, "correlated", seed=seed)
        ts, pi = compute_tandem_stats(plm), np.full(5, 0.2)
        w, rep = cctnd_optimize(ts, pi, 0.05, alpha_grid=grid)
        alpha = rep.params["alpha"]
        assert min(grid) <= alpha <= max(grid)
        assert rep.value == cctnd_bound(ts, w, alpha, 0.05)


def test_cc_optimizers_descend_and_report_consistently():
    rng = np.random.default_rng(17)
    plm = random_plm(rng, h=3, n=100)
    pi = np.full(3, 1.0 / 3.0)
    w_pi = PosteriorWeights(pi, pi)

    w, rep = ccpbub_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)
    params = rep.params
    ats0 = alpha_stats(plm, 0.0)
    grid0 = ccpbub_gamma_grid(ats0, 0.05).values
    init = min(ccpbub_bound(ats0, w_pi, g, 0.05) for g in grid0)
    assert rep.value <= init + 1e-12
    ats = alpha_stats(plm, params["alpha"])
    assert rep.value == pytest.approx(
        ccpbub_bound(ats, w, params["gam"], 0.05), abs=1e-12
    )

    w, rep = ccpbskl_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)
    params = rep.params
    ts = compute_tandem_stats(plm)
    init = tnd_bound(ts, w_pi, 0.05)  # alpha = 0 value at rho = pi
    assert rep.value <= init + 1e-12
    if params["alpha"] == 0.0:
        assert rep.value == pytest.approx(tnd_bound(ts, w, 0.05), abs=1e-12)
    else:
        ats = alpha_stats(plm, params["alpha"])
        assert rep.value == pytest.approx(ccpbskl_bound(ats, w, 0.05), abs=1e-12)

    w, rep = ccpbb_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)
    params = rep.params
    assert rep.value <= ccpbb_first_eval(plm, pi, 0.05) + 1e-9
    ats = alpha_stats(plm, params["alpha"])
    assert rep.value == pytest.approx(
        ccpbb_bound(ats, w, params["lam"], params["gam"], 0.05, 20, 20), abs=1e-12
    )


def ccpbb_first_eval(plm, pi, delta):
    # the optimizer's own initialization value at rho = pi, alpha = grid[0]
    from splitkl.majority_vote import _ccpbb_grids

    ats = alpha_stats(plm, SMALL_ALPHA_GRID[0])
    lam_grid, gam_grid = _ccpbb_grids(ats.m)
    w = PosteriorWeights(pi, pi)
    gam = gam_grid[len(gam_grid) // 2]
    vals = [ccpbb_bound(ats, w, lv, gam, delta, 20, 20) for lv in lam_grid]
    lam = lam_grid[int(np.argmin(vals))]
    vals = [ccpbb_bound(ats, w, lam, gv, delta, 20, 20) for gv in gam_grid]
    return min(vals)


def test_optimize_traces_non_increasing():
    rng = np.random.default_rng(18)
    plm = random_plm(rng, h=4, n=80)
    ts = compute_tandem_stats(plm)
    pi = np.full(4, 0.25)
    for rep in [
        tnd_optimize(ts, pi, 0.05)[1],
        cctnd_optimize(ts, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)[1],
        ccpbub_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)[1],
        ccpbskl_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)[1],
        ccpbb_optimize(plm, pi, 0.05, alpha_grid=SMALL_ALPHA_GRID)[1],
    ]:
        trace = rep.params["trace"]
        assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))


def test_optimizer_gradients_match_finite_differences(monkeypatch):
    # each iRProp+ gradient must be the derivative of its objective: compare
    # it with central differences along simplex tangents at interior points.
    # Every optimizer reaches the batched iRProp+, whose objective and
    # gradient take one posterior per row (the alpha families' rows are
    # alphas; irprop_plus passes one row).
    calls = []
    batched = majority_vote._irprop_rows

    def recording_irprop(gradient, objective, init, config):
        calls.append((gradient, objective, init.shape[0]))
        return batched(gradient, objective, init, config)

    monkeypatch.setattr(majority_vote, "_irprop_rows", recording_irprop)
    rng = np.random.default_rng(11)
    h, n = 4, 80
    full = np.ones((h, n), dtype=bool)
    # zero losses make CCTND's gamma infinite at alpha >= 0; identical rows
    # make CCPBSkl's infinite at alpha > 0
    zero = PredictionLossMatrix(losses=np.zeros((h, n)), mask=full)
    same = PredictionLossMatrix(
        losses=np.tile(rng.uniform(size=n) < 0.3, (h, 1)).astype(float), mask=full
    )
    pi = np.full(h, 1.0 / h)
    for plm in (random_plm(rng, h=h, n=n), zero, same):
        ts = compute_tandem_stats(plm)
        tnd_optimize(ts, pi, 0.05)
        for alpha in (0.2, -0.3):
            cctnd_optimize(ts, pi, 0.05, alpha_grid=(alpha,))
        # no alpha = 0.2 here: rho' mean rho can be negative there, and
        # _quad clips it to 0, where the objective is flat in it
        for optimize in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize):
            optimize(plm, pi, 0.05, alpha_grid=(-0.3, -0.1, 0.1))
    assert sum(rows for _, _, rows in calls) > 30
    step = 1e-6
    for gradient, objective, rows in calls:
        rho = 0.5 * pi + 0.5 * rng.dirichlet(np.ones(h), size=rows)
        for _ in range(2):
            d = rng.normal(size=(rows, h))
            d -= d.mean(axis=1, keepdims=True)
            fd = (objective(rho + step * d) - objective(rho - step * d)) / (2.0 * step)
            slope = np.sum(gradient(rho) * d, axis=1)
            assert slope == pytest.approx(fd, rel=1e-5, abs=1e-7)


@pytest.mark.parametrize("delta", [0.0, 1.0, 1.5, math.nan])
def test_majority_vote_bounds_and_optimizers_reject_delta_outside_unit_interval(delta):
    # delta = 1.5 gave tnd_optimize 1.167 against 1.484 at delta = 0.05, and
    # delta = 0 was a bare ZeroDivisionError in TND, CCTND, CCPBB and CCPBSkl
    from splitkl.simulation import synth_ensemble

    plm, _ = synth_ensemble(4, 300, "correlated", seed=3)
    ts, ats = compute_tandem_stats(plm), alpha_stats(plm, 0.2)
    pi = np.full(4, 0.25)
    w = PosteriorWeights(pi, pi)
    calls = [
        lambda: tnd_bound(ts, w, delta),
        lambda: cctnd_bound(ts, w, 0.2, delta),
        lambda: ccpbb_bound(ats, w, 0.5, 0.5, delta, 20, 20),
        lambda: ccpbub_bound(ats, w, 0.1, delta),
        lambda: ccpbskl_bound(ats, w, delta),
        lambda: tnd_optimize(ts, pi, delta),
        lambda: cctnd_optimize(ts, pi, delta, alpha_grid=(0.2,)),
        lambda: ccpbb_optimize(plm, pi, delta, alpha_grid=(0.2,)),
        lambda: ccpbub_optimize(plm, pi, delta, alpha_grid=(0.2,)),
        lambda: ccpbskl_optimize(plm, pi, delta, alpha_grid=(0.2,)),
    ]
    for call in calls:
        with pytest.raises(DomainError, match=r"delta outside \(0, 1\)"):
            call()


@pytest.mark.parametrize("call", [
    pytest.param(lambda ts, ats, w: cctnd_bound(ts, w, math.nan, 0.05), id="cctnd-alpha-nan"),
    pytest.param(lambda ts, ats, w: cctnd_bound(ts, w, -math.inf, 0.05), id="cctnd-alpha-neginf"),
    pytest.param(lambda ts, ats, w: ccpbb_bound(ats, w, 0.5, math.nan, 0.05, 20, 20),
                 id="ccpbb-gamma-nan"),
    pytest.param(lambda ts, ats, w: ccpbb_bound(ats, w, 0.5, math.inf, 0.05, 20, 20),
                 id="ccpbb-gamma-inf"),
    pytest.param(lambda ts, ats, w: ccpbb_bound(ats, w, 0.5, 0.5, 0.05, 0, 20),
                 id="ccpbb-k_lambda-0"),
    pytest.param(lambda ts, ats, w: ccpbb_bound(ats, w, 0.5, 0.5, 0.05, 20, 0),
                 id="ccpbb-k_gamma-0"),
])
def test_majority_vote_bounds_reject_non_finite_parameters(call):
    # the NaN and infinite parameters returned NaN (CCPBB's with a numpy
    # RuntimeWarning), and a zero grid count was a bare "math domain error"
    from splitkl.simulation import synth_ensemble

    plm, _ = synth_ensemble(4, 300, "correlated", seed=3)
    pi = np.full(4, 0.25)
    with pytest.raises(DomainError):
        call(compute_tandem_stats(plm), alpha_stats(plm, 0.2), PosteriorWeights(pi, pi))


@pytest.mark.parametrize("grid", [(-0.9, 0.0), (0.0, 0.7), (-0.5, math.nan)])
def test_optimizers_reject_alpha_grid_outside_range(grid):
    # CCTND returned alpha = -0.9 and value 0.998 for (-0.9, 0.0)
    rng = np.random.default_rng(19)
    plm = random_plm(rng, h=3, n=60)
    ts, pi = compute_tandem_stats(plm), np.full(3, 1.0 / 3.0)
    for call in (lambda: cctnd_optimize(ts, pi, 0.05, alpha_grid=grid),
                 *(lambda opt=opt: opt(plm, pi, 0.05, alpha_grid=grid)
                   for opt in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize))):
        with pytest.raises(DomainError, match=r"alpha grid values must lie in \[-0.5, 0.5\)"):
            call()


def test_optimizers_reject_empty_alpha_grid():
    # CCTND raised a bare ValueError from min(), CCPBB a misleading
    # "rho and pi must be 1-d vectors" DomainError
    rng = np.random.default_rng(20)
    plm = random_plm(rng, h=3, n=60)
    ts, pi = compute_tandem_stats(plm), np.full(3, 1.0 / 3.0)
    for call in (lambda: cctnd_optimize(ts, pi, 0.05, alpha_grid=()),
                 *(lambda opt=opt: opt(plm, pi, 0.05, alpha_grid=[])
                   for opt in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize))):
        with pytest.raises(DomainError, match="alpha grid is empty"):
            call()


def _run_all_optimizers(plm, pi):
    ts = compute_tandem_stats(plm)
    grid = (-0.3, 0.0, 0.2)
    runs = [tnd_optimize(ts, pi, 0.05), cctnd_optimize(ts, pi, 0.05, alpha_grid=grid)]
    runs += [optimize(plm, pi, 0.05, alpha_grid=grid)
             for optimize in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize)]
    return {rep.name: (w, rep) for w, rep in runs}


def test_optimizers_keep_rho_zero_off_the_prior_support():
    # log(rho / pi) made every optimizer raise "non-finite gradient" here
    from splitkl.simulation import synth_ensemble

    plm, _ = synth_ensemble(4, 300, "correlated", seed=3)
    pi = np.array([0.5, 0.5, 0.0, 0.0])
    ts = compute_tandem_stats(plm)
    runs = _run_all_optimizers(plm, pi)
    assert set(runs) == {"tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl"}
    for name, (w, rep) in runs.items():
        assert math.isfinite(rep.value), name
        assert np.array_equal(w.rho[2:], [0.0, 0.0]) and np.array_equal(w.pi, pi), name
    assert runs["tnd"][1].value == tnd_bound(ts, runs["tnd"][0], 0.05)
    w, rep = runs["cctnd"]
    assert rep.value == cctnd_bound(ts, w, rep.params["alpha"], 0.05)
    w, rep = runs["ccpbb"]
    params = rep.params
    assert rep.value == pytest.approx(
        ccpbb_bound(alpha_stats(plm, params["alpha"]), w, params["lam"], params["gam"],
                    0.05, 20, 20), abs=1e-12)


@pytest.mark.parametrize("pi", [(0.0, 0.0, 0.0, 0.0), (0.5, 0.5, math.nan, 0.0),
                                (1.5, -0.5, 0.0, 0.0), (0.6, 0.6, 0.0, 0.0)])
def test_optimizers_reject_a_prior_off_the_simplex(pi):
    from splitkl.simulation import synth_ensemble

    plm, _ = synth_ensemble(4, 300, "correlated", seed=3)
    ts, pi = compute_tandem_stats(plm), np.array(pi)
    for call in (lambda: tnd_optimize(ts, pi, 0.05),
                 lambda: cctnd_optimize(ts, pi, 0.05, alpha_grid=(0.2,)),
                 *(lambda opt=opt: opt(plm, pi, 0.05, alpha_grid=(0.2,))
                   for opt in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize))):
        with pytest.raises(DomainError, match="pi is not on the simplex"):
            call()


def test_zero_prior_entries_equal_the_optimizer_on_the_support():
    # hypotheses with zero prior weight and full masks leave n and m as they
    # are, so every optimizer must return the support's own run, padded
    rng = np.random.default_rng(3)
    rates = np.array([0.05, 0.3, 0.45])[:, None]
    sub = PredictionLossMatrix(losses=rng.uniform(size=(3, 80)) < rates,
                               mask=rng.uniform(size=(3, 80)) < 0.5)
    pi_sub = rng.dirichlet(np.ones(3))
    support, off = [0, 2, 3], [1, 4]
    losses, mask = np.zeros((5, 80)), np.ones((5, 80), dtype=bool)
    losses[support], mask[support] = sub.losses, sub.mask
    losses[off] = rng.uniform(size=(2, 80)) < 0.3
    pi = np.zeros(5)
    pi[support] = pi_sub
    full = _run_all_optimizers(PredictionLossMatrix(losses=losses, mask=mask), pi)
    sub_runs = _run_all_optimizers(sub, pi_sub)
    # CCPBSkl leaves the prior here, so a moved rho is padded too
    assert np.abs(sub_runs["ccpbskl"][0].rho - pi_sub).max() > 0.1
    for name, (w_sub, rep_sub) in sub_runs.items():
        w, rep = full[name]
        assert rep.value == rep_sub.value, name
        assert w.rho[support].tobytes() == w_sub.rho.tobytes(), name
        assert np.array_equal(w.rho[off], [0.0, 0.0]), name
        assert rep.params == rep_sub.params, name


# ---------------------------------------------------------------------------
# optimizer golden
# ---------------------------------------------------------------------------

OPTIMIZER_GOLDEN = Path(__file__).parent / "golden" / "optimizers_dirichlet_zero_d01.json"


def optimizer_golden_payload():
    """Value, rho, params, trace and iterations of all five optimizers on a
    Dirichlet prior and on an all-zero-loss ensemble (infinite gamma), at
    delta = 0.01, on a 5-point grid, at fixed alphas and under a short
    iRProp+ with tol = 0; floats at 12 significant digits as in the CLI."""
    from splitkl.cli import _round12
    from splitkl.simulation import synth_ensemble

    def entry(w, rep):
        params = dict(rep.params)
        return {"value": rep.value, "rho": w.rho, "iterations": params.pop("iterations"),
                "trace": params.pop("trace"),
                "params": {k: "inf" if v == math.inf else v for k, v in params.items()}}

    grid = (-0.4, -0.15, 0.0, 0.1, 0.3)
    short = IRPropConfig(max_iter=7, tol=0.0)
    delta = 0.01
    plm, _ = synth_ensemble(5, 400, "correlated", seed=7, error_rate=0.2)
    ensembles = {
        "correlated": (plm, np.random.default_rng(5).dirichlet(np.full(5, 2.0))),
        "zero": (PredictionLossMatrix(losses=np.zeros((4, 60)), mask=np.ones((4, 60), bool)),
                 np.full(4, 0.25)),
    }
    payload = {}
    for name, (plm, pi) in ensembles.items():
        ts = compute_tandem_stats(plm)
        out = payload[name] = {}
        tnd = tnd_optimize(ts, pi, delta)
        out["tnd"] = entry(*tnd)
        out["tnd/short"] = entry(*tnd_optimize(ts, pi, delta, short))
        for key, kwargs in (("grid5", {"alpha_grid": grid}), ("fixed0.2", {"alpha_grid": (0.2,)}),
                            ("fixed-0.3", {"alpha_grid": (-0.3,)}),
                            ("grid5/short", {"alpha_grid": grid, "irprop_config": short})):
            out["cctnd/" + key] = entry(*cctnd_optimize(ts, pi, delta, tnd=tnd, **kwargs))
        for optimize in (ccpbb_optimize, ccpbub_optimize, ccpbskl_optimize):
            kw = {"tnd": tnd} if optimize is ccpbskl_optimize else {}
            for key, kwargs in (("grid5", {"alpha_grid": grid}),
                                ("fixed0.2", {"alpha_grid": (0.2,)}),
                                ("fixed-0.3/short", {"alpha_grid": (-0.3,), "irprop_config": short})):
                w, rep = optimize(plm, pi, delta, **kwargs, **kw)
                out[rep.name + "/" + key] = entry(w, rep)
    return json.dumps(_round12(payload), indent=2, sort_keys=True, allow_nan=False) + "\n"


def test_optimizers_match_golden():
    assert optimizer_golden_payload() == OPTIMIZER_GOLDEN.read_text()
