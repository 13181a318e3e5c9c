"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s``.  The majority-vote
criteria use a 10-point alpha grid (0 included) to stay inside the stated
runtime budgets; the library default remains the fine grid.
"""

import json
import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from splitkl.cli import _round12, main as cli_main
from splitkl.klcore import kl_inv_lower, kl_inv_upper, binomial_tail
from splitkl.majority_vote import (
    PosteriorWeights,
    alpha_stats,
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
    mv_risk,
    project_simplex,
    tnd_bound,
    tnd_optimize,
)
from splitkl.majority_vote import _ccpbb_grids
from splitkl.pacbayes import (
    binomial_tail_inverse,
    optimal_lambda,
    pb_kl_bound,
    pb_lambda_upper,
)
from splitkl.simulation import (
    BetaSpec,
    TernarySpec,
    sweep_beta,
    sweep_ternary,
    synth_ensemble,
)

from test_klcore import grid_scan_inv_lower, grid_scan_inv_upper
from test_majority_vote import random_plm

DELTA = 0.05
CEILING_10K = DELTA + 3 * math.sqrt(DELTA * (1 - DELTA) / 10000)  # 0.0565...
ALPHA_GRID = tuple(np.arange(-5, 5) / 10.0)  # includes 0
MV_SUITE_SIZE = 500
MV_SUITE_SEED_BASE = 20_000


class _report:
    def __init__(self, num, desc, budget_s):
        self.num, self.desc, self.budget = num, desc, budget_s

    def __enter__(self):
        self.t0 = time.time()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.time() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"\n[criterion {self.num:2d}] {status} ({dt:.1f}s / budget {self.budget}s): {self.desc}")
        return False

    def check_budget(self):
        assert time.time() - self.t0 < self.budget, "runtime budget exceeded"


# ---------------------------------------------------------------------------
# shared artifact builders (criteria 2-5 and 8 feed criterion 10)
# ---------------------------------------------------------------------------

COVERAGE_CONFIGS = [
    ("tern_bernoulli", ["--dist", "ternary", "--probs", "0.5,0,0.5"]),
    ("tern_mid", ["--dist", "ternary", "--probs", "0.25,0.5,0.25"]),
    ("tern_skew", ["--dist", "ternary", "--probs", "0.005,0.5,0.495"]),
    ("beta_2_5", ["--dist", "beta", "--shape", "2,5"]),
]


def build_coverage_artifacts(tmp, threads, tag):
    out_files = {}
    for name, extra in COVERAGE_CONFIGS:
        out = str(tmp / f"coverage_{name}_{tag}.json")
        code = cli_main(
            ["coverage", *extra, "--n", "100", "--trials", "10000", "--delta",
             "0.05", "--seed", "2024", "--threads", str(threads), "--out", out]
        )
        assert code == 0, f"coverage ceiling breached for {name}"
        out_files[name] = open(out, "rb").read()
    return out_files


def build_sweep_artifact(tmp, mode, n, seed, threads, tag):
    out = str(tmp / f"sweep_{mode}_{n}_{tag}.csv")
    code = cli_main(
        ["simulate", "--mode", mode, "--n", str(n), "--repeats", "100", "--delta",
         "0.05", "--seed", str(seed), "--threads", str(threads), "--out", out]
    )
    assert code == 0
    return open(out, "rb").read()


def _mv_one(seed):
    plm, em = synth_ensemble(
        7, 2000, "correlated", bagging_rate=0.8, seed=seed, error_rate=0.3
    )
    ts = compute_tandem_stats(plm)
    pi = np.full(7, 1.0 / 7.0)
    rec = {"seed": seed}
    # TND runs once and is shared with CCTND and CCPBSkl, as in `splitkl mv`
    tnd = tnd_optimize(ts, pi, DELTA)
    runs = (("tnd", lambda: tnd),
            ("cctnd", lambda: cctnd_optimize(ts, pi, DELTA, alpha_grid=ALPHA_GRID, tnd=tnd)),
            ("ccpbb", lambda: ccpbb_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID)),
            ("ccpbub", lambda: ccpbub_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID)),
            ("ccpbskl", lambda: ccpbskl_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID, tnd=tnd)))
    for name, run in runs:
        w, rep = run()
        rec[name] = {"bound": rep.value, "risk": mv_risk(em, w)}
    return rec


def build_mv_suite(threads):
    seeds = [MV_SUITE_SEED_BASE + i for i in range(MV_SUITE_SIZE)]
    if threads <= 1:
        records = [_mv_one(s) for s in seeds]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            records = list(pool.map(_mv_one, seeds))
    payload = (json.dumps(_round12(records), sort_keys=True) + "\n").encode()
    return records, payload


_CACHE = {}


@pytest.fixture(scope="module")
def artifact_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance_artifacts")


def coverage_artifacts(artifact_dir):
    if "coverage" not in _CACHE:
        _CACHE["coverage"] = build_coverage_artifacts(artifact_dir, threads=1, tag="t1")
    return _CACHE["coverage"]


def sweep_artifact(artifact_dir, mode, n):
    key = ("sweep", mode, n)
    if key not in _CACHE:
        _CACHE[key] = build_sweep_artifact(artifact_dir, mode, n, 2024, 1, "t1")
    return _CACHE[key]


def mv_suite():
    if "mv" not in _CACHE:
        _CACHE["mv"] = build_mv_suite(threads=1)
    return _CACHE["mv"]


# ---------------------------------------------------------------------------
# criteria
# ---------------------------------------------------------------------------


def test_criterion_01_inverse_kl_oracle():
    with _report(1, "kl inverses match 1e-6 brute-force grid scan within 2e-6", 10) as rep:
        rng = np.random.default_rng(2024)
        p_hats = rng.uniform(0, 1, 1000)
        epss = 10.0 ** rng.uniform(-4, 0.5, 1000)
        for p, e in zip(p_hats, epss):
            assert abs(kl_inv_upper(p, e) - grid_scan_inv_upper(p, e)) <= 2e-6
            assert abs(kl_inv_lower(p, e) - grid_scan_inv_lower(p, e)) <= 2e-6
        rep.check_budget()


def test_criterion_02_coverage_suites(artifact_dir):
    with _report(2, "10k-trial coverage <= 0.0565 for all bounds on 4 distributions", 120) as rep:
        for name, blob in coverage_artifacts(artifact_dir).items():
            doc = json.loads(blob)
            assert doc["pass"] is True, name
            assert set(doc["frequencies"]) == {"kl", "eb", "ub", "skl", "pbkl0"}
            for bound, freq in doc["frequencies"].items():
                assert freq <= CEILING_10K, (name, bound, freq)
        rep.check_budget()


def _gap_median(row, name):
    return float(np.median(row.gaps[name]))


def test_criterion_03_symmetric_ordering(artifact_dir):
    with _report(3, "symmetric ternary orderings: kl<=skl<=ub<=eb at p0=0; skl<=kl at p0>=0.9; skl<=eb everywhere", 60) as rep:
        assert sweep_artifact(artifact_dir, "symmetric", 100)  # artifact for criterion 10
        rows = sweep_ternary("symmetric", 100, DELTA, repeats=100, seed=2024)
        first = rows[0]
        assert first.param == 0.0
        kl, skl = _gap_median(first, "kl"), _gap_median(first, "skl")
        ub, eb = _gap_median(first, "ub"), _gap_median(first, "eb")
        assert kl <= skl <= ub <= eb
        for row in rows:
            if row.param >= 0.9:
                assert _gap_median(row, "skl") <= _gap_median(row, "kl"), row.param
            assert _gap_median(row, "skl") <= _gap_median(row, "eb"), row.param
        rep.check_budget()


def test_criterion_04_skew_high_middle(artifact_dir):
    with _report(4, "skew_high: split-kl has the smallest median gap at p0=0.6", 60) as rep:
        assert sweep_artifact(artifact_dir, "skew_high", 100)
        rows = sweep_ternary("skew_high", 100, DELTA, repeats=100, seed=2024)
        row = next(r for r in rows if abs(r.param - 0.6) < 1e-12)
        skl = _gap_median(row, "skl")
        for other in ("kl", "eb", "ub"):
            assert skl <= _gap_median(row, other), other
        rep.check_budget()


def test_criterion_05_beta_constant_mean(artifact_dir):
    with _report(5, "Beta(10,10): eb<=kl at n=1000; Beta(0.01,0.01): kl smallest", 120) as rep:
        assert sweep_artifact(artifact_dir, "constant_mean", 1000)
        rows = sweep_beta("constant_mean", 1000, DELTA, repeats=100, seed=2024)
        low_var = rows[-1]  # alpha = beta = 10
        assert low_var.param == pytest.approx(BetaSpec(10, 10).variance, rel=1e-9)
        assert _gap_median(low_var, "eb") <= _gap_median(low_var, "kl")
        high_var = rows[0]  # alpha = beta = 0.01
        assert high_var.param == pytest.approx(BetaSpec(0.01, 0.01).variance, rel=1e-9)
        kl = _gap_median(high_var, "kl")
        for other in ("eb", "ub", "skl"):
            assert kl <= _gap_median(high_var, other), other
        rep.check_budget()


def test_criterion_06_theorem_identities():
    with _report(6, "lambda* matches grid min within 1e-3; lambda bound >= kl bound; Bin inverse round-trips", 30) as rep:
        rng = np.random.default_rng(6)
        grid = np.arange(0.01, 2.0, 0.01)
        for _ in range(2000):
            m = float(rng.uniform(0, 1))
            k = float(rng.uniform(0, 5))
            n = int(rng.integers(2, 5000))
            star = optimal_lambda(m, k, n, DELTA)
            f_star = pb_lambda_upper(m, k, n, DELTA, star)
            f_grid = min(pb_lambda_upper(m, k, n, DELTA, g) for g in grid)
            assert f_star <= f_grid + 1e-3
            assert f_star >= pb_kl_bound(m, k, n, DELTA) - 1e-9
        for _ in range(200):
            n = int(rng.integers(2, 500))
            kk = int(rng.integers(0, n))
            d = float(rng.uniform(0.01, 0.9))
            p = binomial_tail_inverse(n, kk, d)
            assert abs(binomial_tail(n, kk, p) - d) <= 1e-8
        rep.check_budget()


def test_criterion_07_mv_collapse_and_descent():
    with _report(7, "alpha=0 collapse within 1e-12; optimizers never worse than rho=pi; traces non-increasing", 120) as rep:
        rng = np.random.default_rng(7)
        for _ in range(100):
            plm = random_plm(rng, h=int(rng.integers(2, 7)), n=60)
            ts = compute_tandem_stats(plm)
            ats = alpha_stats(plm, 0.0)
            rho = project_simplex(rng.uniform(size=plm.h_count))
            w = PosteriorWeights(rho=rho, pi=np.full(plm.h_count, 1.0 / plm.h_count))
            base = tnd_bound(ts, w, DELTA)
            assert abs(cctnd_bound(ts, w, 0.0, DELTA) - base) <= 1e-12
            assert abs(ccpbskl_bound(ats, w, DELTA) - base) <= 1e-12

        for i in range(10):
            plm = random_plm(rng, h=4, n=150)
            ts = compute_tandem_stats(plm)
            pi = np.full(4, 0.25)
            w_pi = PosteriorWeights(pi, pi)
            reports = []

            w, rep_t = tnd_optimize(ts, pi, DELTA)
            assert rep_t.value <= tnd_bound(ts, w_pi, DELTA) + 1e-12
            reports.append(rep_t)

            w, rep_c = cctnd_optimize(ts, pi, DELTA, alpha_grid=ALPHA_GRID)
            assert rep_c.value <= cctnd_bound(ts, w_pi, 0.0, DELTA) + 1e-12
            reports.append(rep_c)

            ats0 = alpha_stats(plm, 0.0)
            w, rep_u = ccpbub_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID)
            init_u = min(
                ccpbub_bound(ats0, w_pi, g, DELTA)
                for g in ccpbub_gamma_grid(ats0, DELTA).values
            )
            assert rep_u.value <= init_u + 1e-12
            reports.append(rep_u)

            w, rep_s = ccpbskl_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID)
            assert rep_s.value <= ccpbskl_bound(ats0, w_pi, DELTA) + 1e-12
            reports.append(rep_s)

            w, rep_b = ccpbb_optimize(plm, pi, DELTA, alpha_grid=ALPHA_GRID)
            lam_grid, gam_grid = _ccpbb_grids(ats0.m)
            init_b = min(
                ccpbb_bound(ats0, w_pi, lv, gv, DELTA, len(lam_grid), len(gam_grid))
                for lv in lam_grid for gv in gam_grid
            )
            assert rep_b.value <= init_b + 1e-12
            reports.append(rep_b)

            for rep_x in reports:
                trace = rep_x.params["trace"]
                assert all(a >= b - 1e-12 for a, b in zip(trace, trace[1:]))
        rep.check_budget()


def test_criterion_08_mv_statistical_validity():
    with _report(8, "500-ensemble suite: P[true MV risk > optimized bound] <= 0.0565 per bound", 600) as rep:
        records, _ = mv_suite()
        assert len(records) == MV_SUITE_SIZE
        for name in ("tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl"):
            violations = sum(1 for r in records if r[name]["risk"] > r[name]["bound"])
            freq = violations / MV_SUITE_SIZE
            assert freq <= CEILING_10K, (name, freq)
        rep.check_budget()


def test_criterion_09_cc_ordering():
    with _report(9, "median CCPBUB and CCPBSkl optimized bounds <= median CCPBB", 60) as rep:
        records, _ = mv_suite()
        med = lambda name: float(np.median([r[name]["bound"] for r in records]))
        assert med("ccpbub") <= med("ccpbb")
        assert med("ccpbskl") <= med("ccpbb")
        rep.check_budget()


def test_criterion_10_determinism(artifact_dir):
    with _report(10, "criteria 2-5 and 8 artifacts byte-identical under 1 and 4 threads", 1800):
        redo_cov = build_coverage_artifacts(artifact_dir, threads=4, tag="t4")
        assert redo_cov == coverage_artifacts(artifact_dir)
        for mode, n in (("symmetric", 100), ("skew_high", 100), ("constant_mean", 1000)):
            redo = build_sweep_artifact(artifact_dir, mode, n, 2024, 4, "t4")
            assert redo == sweep_artifact(artifact_dir, mode, n), (mode, n)
        _, payload_t1 = mv_suite()
        _, payload_t4 = build_mv_suite(threads=4)
        assert payload_t4 == payload_t1
