"""The benchmark's four workloads: inputs, requests and correctness checks.

Every input is generated from the workload seed during set-up, into the
run's work directory; the program only receives those files and command
arguments.  A workload is a fixed list of requests (one library call or
one ``splitkl`` command each); one pass over the list is a *round*, and
every round repeats identical work.  Each request carries a check of the
paper's cheap invariants, and on the default seed its numeric output is
also compared with reference values recorded at the seed commit.

Why each workload exists (see README.md for the metric each should move):

- ``scalar_api``: many short scalar library calls (kl inversion, EB, UB
  grid, split-kl and their PAC-Bayes forms, the binomial test set bound,
  the excess-loss bound, closed-form lambda/gamma) plus ``splitkl bound``.
  Stresses the scalar ``klcore`` path and bypasses ``majority_vote`` and
  ``simulation``.
- ``mc_sweep``: the acceptance Monte Carlo commands (``simulate`` and
  ``coverage``).  Stresses ``simulation`` and the vector kl inversion.
- ``mv_grid``: ``splitkl mv`` on a small synthetic ensemble with all five
  bounds and the default 100-point alpha grid.  Stresses the per-alpha
  loops of ``majority_vote``.
- ``mv_ingest``: ``splitkl mv`` on a wide ensemble read from loss and eval
  CSVs with a 10-point alpha grid.  Large H and few alphas, and the only
  workload that exercises the CLI's CSV readers.
"""

import json
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable

import numpy as np

from splitkl import cli, concentration, majority_vote, pacbayes, simulation
from splitkl.concentration import EmpiricalSummary, split_decompose
from splitkl.majority_vote import PosteriorWeights
from splitkl.pacbayes import ExcessLossInput, PacBayesInput

DELTA = 0.05
DEFAULT_SEED = 0
# Outputs are printed with 12 significant digits; a last-digit change is
# allowed, so references compare within 1e-9 relative.
REF_REL_TOL = 1e-9
REF_ABS_TOL = 1e-12
TOL = 1e-9  # float slack for invariant checks on printed values

WORKLOADS = ("scalar_api", "mc_sweep", "mv_grid", "mv_ingest")


@dataclass
class Request:
    """One timed call.  ``check(result)`` returns (errors, output values)."""

    kind: str
    key: str
    items: int
    call: Callable
    check: Callable


@dataclass
class Workload:
    name: str
    requests: list
    warmup: list  # zero-argument calls that load what the requests use


class Check:
    def __init__(self):
        self.errors = []
        self.values = []

    def expect(self, cond, message):
        if not cond:
            self.errors.append(message)

    def result(self):
        return self.errors, self.values


def _seeds(seed, count):
    return [int(s) for s in np.random.SeedSequence(seed).generate_state(count)]


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# scalar_api
# ---------------------------------------------------------------------------


def _check_upper(mean):
    """An upper confidence bound is finite and not below its empirical mean."""
    def check(value):
        c = Check()
        c.expect(math.isfinite(value) and value >= mean - TOL,
                 f"bound {value!r} below its mean {mean}")
        c.values.append(float(value))
        return c.result()
    return check


def _check_split(mean, mu, plus, minus):
    """Split-kl: the parts recombine to the mean, and the bound is above it."""
    upper = _check_upper(mean)

    def check(value):
        errors, values = upper(value)
        if abs(mean - (mu + plus - minus)) > 1e-12:
            errors.append(f"split parts {mu} + {plus} - {minus} do not give the mean {mean}")
        return errors, values
    return check


def _check_cli_bound(path, mean):
    def check(code):
        c = Check()
        c.expect(code == cli.EXIT_OK, f"exit code {code}")
        if code != cli.EXIT_OK:
            return c.result()
        bounds = _read_json(path)["bounds"]
        c.expect([b["name"] for b in bounds] == list(cli.BOUND_CHOICES), "bound names")
        for b in bounds:
            c.expect(math.isfinite(b["value"]) and b["value"] >= mean - TOL,
                     f"{b['name']} {b['value']} below the sample mean {mean}")
            c.values.append(b["value"])
        return c.result()
    return check


def _check_lambda(lam):
    c = Check()
    c.expect(0.0 < lam <= 1.0, f"lambda* {lam} outside (0, 1]")
    c.values.append(lam)
    return c.result()


def _check_gamma(gam):
    c = Check()
    c.expect(gam > 0.0, f"gamma* {gam} not positive")
    c.values.append(gam)
    return c.result()


# Four data shapes per n, spanning low to high means: point masses of the
# ternary sample on {-1, 0, 1}, of the Gibbs losses on {0, 1/2, 1}, of the
# excess losses on {-1, 0, 1}, and the KL complexities.  The seed draws the
# samples and jitters the KL values, so work per round barely moves with it.
SCALAR_SHAPES = (
    ((0.25, 0.5, 0.25), (0.6, 0.25, 0.15), (0.2, 0.6, 0.2), (0.5, 2.0, 8.0)),
    ((0.1, 0.3, 0.6), (0.8, 0.15, 0.05), (0.1, 0.6, 0.3), (0.2, 1.0, 4.0)),
    ((0.6, 0.3, 0.1), (0.4, 0.3, 0.3), (0.3, 0.6, 0.1), (1.0, 3.0, 9.0)),
    ((0.05, 0.9, 0.05), (0.95, 0.04, 0.01), (0.05, 0.9, 0.05), (0.1, 0.5, 2.0)),
)


def _scalar_config(rng, n, shape, tag):
    """Requests for one (n, data shape) configuration of scalar library calls."""
    z_probs, y_probs, e_probs, kl_levels = shape
    # Ternary sample on [-1, 1], split at mu = 0.
    z = rng.choice([-1.0, 0.0, 1.0], size=n, p=z_probs)
    s = EmpiricalSummary.from_samples(z, -1.0, 1.0)
    sp = split_decompose(z, 0.0, -1.0, 1.0)
    mean = float(z.mean())
    # Gibbs losses on [0, 1], split at mu = 1/2.
    y = rng.choice([0.0, 0.5, 1.0], size=n, p=y_probs)
    kls = np.asarray(kl_levels) * rng.uniform(0.8, 1.25, size=3)
    gm = float(y.mean())
    pbi = PacBayesInput(
        gibbs_mean=gm, gibbs_second_moment=float(np.mean(y * y)),
        gibbs_plus_mean=float(np.maximum(0.0, y - 0.5).mean()),
        gibbs_minus_mean=float(np.maximum(0.0, 0.5 - y).mean()),
        kl_complexity=float(kls[1]), n=n, lo=0.0, hi=1.0, mu=0.5,
    )
    errors = int(np.sum(y == 1.0))
    # Excess losses in {-1, 0, 1} for the informed-prior bound, split at 0.
    e = rng.choice([-1.0, 0.0, 1.0], size=n, p=e_probs)
    half = n // 2
    fwd, bwd = e[:half], e[half:]
    ref = (int(np.sum(y[:half] == 1.0)), int(np.sum(y[half:] == 1.0)))
    xin = ExcessLossInput(
        fwd_plus=float(np.maximum(0.0, fwd).mean()), bwd_plus=float(np.maximum(0.0, bwd).mean()),
        fwd_minus=float(np.maximum(0.0, -fwd).mean()), bwd_minus=float(np.maximum(0.0, -bwd).mean()),
        kl_complexity=float(kls[0]), n=n, ref_loss_counts=ref, mu=0.0,
    )
    excess_floor = (0.5 * (xin.fwd_plus + xin.bwd_plus) - 0.5 * (xin.fwd_minus + xin.bwd_minus)
                    + 0.5 * (ref[0] + ref[1]) / half)

    def req(kind, call, check):
        return Request(kind, f"{tag}/{kind}", 1, call, check)

    reqs = [
        req("kl_upper_bound", lambda: concentration.kl_upper_bound(mean, n, DELTA, -1.0, 1.0),
            _check_upper(mean)),
        req("empirical_bernstein_bound",
            lambda: concentration.empirical_bernstein_bound(s, DELTA), _check_upper(mean)),
        req("unexpected_bernstein_grid_bound",
            lambda: concentration.unexpected_bernstein_grid_bound(s, DELTA).value,
            _check_upper(mean)),
        req("split_kl_bound", lambda: concentration.split_kl_bound(sp, DELTA),
            _check_split(mean, sp.mu, sp.plus_mean, sp.minus_mean)),
        req("pb_kl_pinsker_relaxation",
            lambda: pacbayes.pb_kl_pinsker_relaxation(gm, kls[1], n, DELTA), _check_upper(gm)),
        req("pb_unexpected_bernstein_grid",
            lambda: pacbayes.pb_unexpected_bernstein_grid(pbi, DELTA).value, _check_upper(gm)),
        req("excess_informed_bound", lambda: pacbayes.excess_informed_bound(xin, DELTA),
            _check_upper(excess_floor)),
        req("optimal_lambda", lambda: pacbayes.optimal_lambda(gm, kls[1], n, DELTA), _check_lambda),
        req("optimal_gamma", lambda: pacbayes.optimal_gamma(gm, kls[1], n, DELTA), _check_gamma),
    ]
    for i, kl in enumerate(kls):
        reqs.append(Request("pb_kl_bound", f"{tag}/pb_kl_bound/{i}", 1,
                            lambda kl=kl: pacbayes.pb_kl_bound(gm, kl, n, DELTA),
                            _check_upper(gm)))
    for i, inp in enumerate((pbi, replace(pbi, kl_complexity=float(kls[2])))):
        reqs.append(Request("pb_split_kl", f"{tag}/pb_split_kl/{i}", 1,
                            lambda inp=inp: pacbayes.pb_split_kl(inp, DELTA),
                            _check_split(gm, pbi.mu, pbi.gibbs_plus_mean, pbi.gibbs_minus_mean)))
    for i, k in enumerate((errors, int(np.sum(z == 1.0)))):
        reqs.append(Request("test_set_bound", f"{tag}/test_set_bound/{i}", 1,
                            lambda k=k: pacbayes.test_set_bound(n, k, DELTA),
                            _check_upper(k / n)))
    return z, reqs


def build_scalar_api(seed, workdir, small=False):
    """12 data configurations (n in {100, 300, 1000} x 4 shapes) of 16 scalar
    calls each, plus ``splitkl bound --bound all`` on one file per n.

    Per round, 72 calls take microseconds (EB, UB grids, Pinsker, closed-form
    lambda/gamma), 48 invert kl once (about 2 ms) and 75 take longer, so
    the median request sits inside the single-inversion group.
    """
    ns, shapes = ((100,), SCALAR_SHAPES[:1]) if small else ((100, 300, 1000), SCALAR_SHAPES)
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    requests = []
    for n in ns:
        for d, shape in enumerate(shapes):
            z, reqs = _scalar_config(rng, n, shape, f"n{n}/d{d}")
            requests += reqs
            if d == 0:
                path = workdir / f"sample_n{n}.txt"
                path.write_text("# lo=-1 hi=1 mu=0\n" + "".join(f"{v:g}\n" for v in z))
                out = workdir / "out" / f"bound_n{n}.json"
                argv = ["bound", str(path), "--bound", "all", "--out", str(out)]
                requests.append(Request("cli_bound", f"n{n}/cli_bound", len(cli.BOUND_CHOICES),
                                        lambda argv=argv: cli.main(argv),
                                        _check_cli_bound(out, float(z.mean()))))
    first_of_kind = {}
    for r in requests:
        first_of_kind.setdefault(r.kind, r.call)
    return Workload("scalar_api", requests, list(first_of_kind.values()))


# ---------------------------------------------------------------------------
# mc_sweep
# ---------------------------------------------------------------------------

SIMULATE_RUNS = (("symmetric", 100), ("skew_high", 100), ("constant_mean", 1000))
COVERAGE_RUNS = (
    ("tern_bernoulli", ["--dist", "ternary", "--probs", "0.5,0,0.5"]),
    ("tern_mid", ["--dist", "ternary", "--probs", "0.25,0.5,0.25"]),
    ("tern_skew", ["--dist", "ternary", "--probs", "0.005,0.5,0.495"]),
    ("beta_2_5", ["--dist", "beta", "--shape", "2,5"]),
)
SWEEP_HEADER = "param,bound,gap_mean,gap_std,repeats,n,delta,seed"


def _check_sweep(path, n, repeats, seed):
    def check(code):
        c = Check()
        c.expect(code == cli.EXIT_OK, f"exit code {code}")
        if code != cli.EXIT_OK:
            return c.result()
        lines = Path(path).read_text().splitlines()
        c.expect(lines[0] == SWEEP_HEADER, "sweep header")
        rows = [line.split(",") for line in lines[1:]]
        c.expect(len(rows) == simulation.GRID_POINTS * len(simulation.BOUND_NAMES),
                 f"{len(rows)} sweep rows")
        for param, bound, gap_mean, gap_std, reps, nn, delta, sd in rows:
            gm, gs = float(gap_mean), float(gap_std)
            c.expect(bound in simulation.BOUND_NAMES, f"bound {bound}")
            # clipped bound - mean >= 0, since every bound is >= the mean
            c.expect(math.isfinite(gm) and gm >= -TOL and gs >= 0.0,
                     f"gap {gm} +- {gs} at {param} {bound}")
            c.expect((int(reps), int(nn), float(delta), int(sd)) == (repeats, n, DELTA, seed),
                     "sweep row metadata")
            c.values += [float(param), gm, gs]
        return c.result()
    return check


def _check_coverage(path, n, trials):
    ceiling = simulation.coverage_ceiling(DELTA, trials)

    def check(code):
        c = Check()
        c.expect(code == cli.EXIT_OK, f"exit code {code}")
        doc = _read_json(path)
        freqs = doc["frequencies"]
        c.expect(sorted(freqs) == sorted(simulation.COVERAGE_BOUNDS), "coverage bound names")
        c.expect(doc["pass"] is True and (doc["n"], doc["trials"]) == (n, trials),
                 "coverage pass flag or metadata")
        for name in sorted(freqs):
            c.expect(0.0 <= freqs[name] <= ceiling,
                     f"{name} violation frequency {freqs[name]} above {ceiling}")
            c.values.append(freqs[name])
        return c.result()
    return check


def build_mc_sweep(seed, workdir, small=False):
    """Three ``simulate`` sweeps (100 repeats) and four 10k-trial ``coverage``
    runs, each with its own seed derived from the workload seed."""
    repeats, trials = (2, 100) if small else (simulation.DEFAULT_REPEATS, 10000)
    seeds = _seeds(seed, len(SIMULATE_RUNS) + len(COVERAGE_RUNS))
    out = workdir / "out"
    requests, warm = [], []
    for (mode, n), sd in zip(SIMULATE_RUNS, seeds):
        n = min(n, 50) if small else n
        for reps, group in ((repeats, requests), (2, warm)):
            path = out / f"sweep_{mode}_{reps}.csv"
            argv = ["simulate", "--mode", mode, "--n", str(n), "--repeats", str(reps),
                    "--delta", str(DELTA), "--seed", str(sd), "--threads", "1", "--out", str(path)]
            group.append(Request(f"simulate_{mode}", f"simulate/{mode}",
                                 simulation.GRID_POINTS * reps, lambda argv=argv: cli.main(argv),
                                 _check_sweep(path, n, reps, sd)))
    for (name, extra), sd in zip(COVERAGE_RUNS, seeds[len(SIMULATE_RUNS):]):
        for tr, group in ((trials, requests), (100, warm)):
            path = out / f"coverage_{name}_{tr}.json"
            argv = ["coverage", *extra, "--n", "100", "--trials", str(tr), "--delta", str(DELTA),
                    "--seed", str(sd), "--threads", "1", "--out", str(path)]
            group.append(Request(f"coverage_{name}", f"coverage/{name}", tr,
                                 lambda argv=argv: cli.main(argv), _check_coverage(path, 100, tr)))
    return Workload("mc_sweep", requests, [r.call for r in warm])


# ---------------------------------------------------------------------------
# mv_grid and mv_ingest
# ---------------------------------------------------------------------------


class _MVReference:
    """Compute-form values at rho = pi that a certificate may not exceed.

    Every optimizer evaluates its bound at the initialization rho = pi and
    keeps the best value seen, and alpha = 0 (always on the grid) collapses
    CCTND and CCPBSkl to TND.  So TND, CCTND and CCPBSkl are at most TND at
    pi, CCPBUB is at most its best grid-gamma value at pi for any grid
    alpha, and CCPBB at most its best grid-lambda value at the middle grid
    gamma, at pi, for any grid alpha.
    """

    def __init__(self, plm):
        self.plm = plm
        self.ts = majority_vote.compute_tandem_stats(plm)
        self.pi = np.full(plm.h_count, 1.0 / plm.h_count)
        self.w = PosteriorWeights(self.pi, self.pi)
        self.tnd = majority_vote.tnd_bound(self.ts, self.w, DELTA)

    def ccpbub(self, alpha):
        ats = majority_vote.alpha_stats(self.plm, alpha)
        grid = majority_vote.ccpbub_gamma_grid(ats, DELTA).values
        return min(majority_vote.ccpbub_bound(ats, self.w, g, DELTA) for g in grid)

    def ccpbb(self, alpha):
        ats = majority_vote.alpha_stats(self.plm, alpha)
        lam_grid, gam_grid = majority_vote._ccpbb_grids(ats.m)
        gam = gam_grid[len(gam_grid) // 2]
        return min(majority_vote.ccpbb_bound(ats, self.w, lam, gam, DELTA,
                                             len(lam_grid), len(gam_grid)) for lam in lam_grid)

    def ceiling(self, name, alpha):
        if name == "ccpbub":
            return min(self.ccpbub(0.0), self.ccpbub(alpha))
        if name == "ccpbb":
            return min(self.ccpbb(0.0), self.ccpbb(alpha))
        return self.tnd


def _check_mv(path, ref):
    def check(code):
        c = Check()
        c.expect(code == cli.EXIT_OK, f"exit code {code}")
        if code != cli.EXIT_OK:
            return c.result()
        doc = _read_json(path)
        c.expect((doc["h_count"], doc["n"], doc["m"]) == (ref.plm.h_count, ref.ts.n, ref.ts.m),
                 "ensemble shape differs from the generated input")
        c.expect(sorted(doc["bounds"]) == sorted(cli.MV_BOUNDS), "mv bound names")
        for name in cli.MV_BOUNDS:
            entry = doc["bounds"][name]
            value, rho = entry["value"], np.asarray(entry["rho"])
            # A value above 1 is a vacuous but valid certificate (TND exceeds
            # 1 on some seeds of the H=7 ensemble), so the upper side is
            # checked against the value at rho = pi instead.
            c.expect(math.isfinite(value) and value >= 0.0, f"{name} certificate {value}")
            ceiling = ref.ceiling(name, entry["params"].get("alpha") or 0.0)
            c.expect(value <= ceiling * (1 + TOL), f"{name} {value} above its value {ceiling} at pi")
            c.expect(len(rho) == ref.plm.h_count and rho.min() >= 0.0
                     and abs(rho.sum() - 1.0) <= TOL, f"{name} rho off the simplex")
            risk = entry["eval_risk"]
            c.expect(0.0 <= risk <= 1.0, f"{name} eval risk {risk}")
            c.values += [value, *rho, risk]
        return c.result()
    return check


def build_mv_grid(seed, workdir, small=False):
    """``splitkl mv --synthetic correlated`` (H=7, N=2000, all five bounds,
    default alpha grid) on two ensembles seeded from the workload seed."""
    h, n, extra = (3, 200, ["--alpha-points", "3"]) if small else (7, 2000, [])
    out = workdir / "out"
    requests = []
    for k, sd in enumerate(_seeds(seed, 1 if small else 2)):
        plm, _ = simulation.synth_ensemble(h, n, "correlated", seed=sd)
        path = out / f"mv_{k}.json"
        argv = ["mv", "--synthetic", "correlated", "--h-count", str(h), "--n-examples", str(n),
                *extra, "--delta", str(DELTA), "--seed", str(sd), "--threads", "1",
                "--out", str(path)]
        requests.append(Request("mv_synthetic", f"mv/{k}", len(cli.MV_BOUNDS),
                                lambda argv=argv: cli.main(argv), _check_mv(path, _MVReference(plm))))
    argv = ["mv", "--synthetic", "correlated", "--h-count", "3", "--n-examples", "100",
            "--alpha-points", "3", "--seed", "1", "--out", str(out / "mv_warmup.json")]
    return Workload("mv_grid", requests, [lambda: cli.main(argv)])


def _write_ingest_inputs(workdir, tag, h, n, eval_size, seed):
    """Dump a synthetic ensemble's loss CSV through ``splitkl mv
    --dump-losses`` and write the matching eval CSV."""
    losses = workdir / f"{tag}_losses.csv"
    evals = workdir / f"{tag}_eval.csv"
    argv = ["mv", "--synthetic", "correlated", "--h-count", str(h), "--n-examples", str(n),
            "--bounds", "tnd", "--alpha", "0", "--seed", str(seed), "--threads", "1",
            "--dump-losses", str(losses), "--out", str(workdir / "out" / f"{tag}_dump.json")]
    code = cli.main(argv)
    if code != cli.EXIT_OK:
        raise RuntimeError(f"dumping the loss CSV failed with exit code {code}")
    plm, em = simulation.synth_ensemble(h, n, "correlated", seed=seed, eval_size=eval_size)
    rows = [cli.EVAL_CSV_HEADER]
    for i in range(h):
        rows += [f"{i},{j},{p},{y}" for j, (p, y) in enumerate(zip(em.predictions[i], em.labels))]
    evals.write_text("\n".join(rows) + "\n")
    return losses, evals, plm


def _ingest_argv(losses, evals, alpha_points, out):
    return ["mv", "--losses", str(losses), "--eval", str(evals), "--alpha-points", alpha_points,
            "--delta", str(DELTA), "--threads", "1", "--out", str(out)]


def build_mv_ingest(seed, workdir, small=False):
    """``splitkl mv --losses --eval --alpha-points 10`` on a wide ensemble
    (H=40, N=5000: 200k loss rows; 2000 eval examples: 80k eval rows)."""
    h, n, n_eval, points = (4, 300, 50, "3") if small else (40, 5000, 2000, "10")
    sd = _seeds(seed, 1)[0]
    out = workdir / "out"
    losses, evals, plm = _write_ingest_inputs(workdir, "wide", h, n, n_eval, sd)
    argv = _ingest_argv(losses, evals, points, out / "mv_wide.json")
    request = Request("mv_ingest", "mv/wide", len(cli.MV_BOUNDS), lambda: cli.main(argv),
                      _check_mv(out / "mv_wide.json", _MVReference(plm)))
    losses, evals, _ = _write_ingest_inputs(workdir, "small", 3, 100, 20, sd)
    warm_argv = _ingest_argv(losses, evals, "3", out / "mv_small.json")
    return Workload("mv_ingest", [request], [lambda: cli.main(warm_argv)])


BUILDERS = {
    "scalar_api": build_scalar_api,
    "mc_sweep": build_mc_sweep,
    "mv_grid": build_mv_grid,
    "mv_ingest": build_mv_ingest,
}


def build(name, seed, workdir, small=False):
    """Generate the workload's inputs under ``workdir`` and return it."""
    workdir = Path(workdir)
    (workdir / "out").mkdir(parents=True, exist_ok=True)
    return BUILDERS[name](seed, workdir, small)
