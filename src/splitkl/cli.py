"""Command-line interface.

Subcommands: ``bound`` (scalar bounds on a sample file), ``simulate``
(sweep CSVs), ``coverage`` (Monte Carlo violation frequencies, exit 1 on a
ceiling breach), and ``mv`` (majority-vote bound optimization on synthetic
or ingested loss matrices).

Exit codes: 0 success, 1 acceptance-check failure, 2 input/usage error,
3 domain error.  All floats are printed with 12 significant digits and all
outputs are byte-deterministic given (args, seed).  ``simulate``,
``coverage`` and ``mv`` run in one thread: they accept ``--threads`` and
ignore it.
"""

import argparse
import json
import math
import re
import sys
import warnings

import numpy as np

from . import simulation
from .concentration import (
    EmpiricalSummary,
    kl_upper_bound,
    split_decompose,
    split_kl_bound,
    empirical_bernstein_bound,
    unexpected_bernstein_grid_bound,
)
from .errors import DomainError, InputFormatError
from .majority_vote import (
    EvaluationMatrix,
    PredictionLossMatrix,
    ccpbb_optimize,
    ccpbskl_optimize,
    ccpbub_optimize,
    cctnd_optimize,
    compute_tandem_stats,
    mv_risk,
    tnd_optimize,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_DOMAIN = 3

BOUND_CHOICES = ("kl", "eb", "ub", "skl")
MV_BOUNDS = ("tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl")

LOSS_CSV_HEADER = "hypothesis_id,example_id,loss,oob"
EVAL_CSV_HEADER = "hypothesis_id,example_id,prediction,label"


def _fmt(x):
    return f"{x:.12g}"


def _round12(obj):
    if isinstance(obj, float):
        return float(_fmt(obj))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.floating,)):
        return float(_fmt(float(obj)))
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round12(float(v)) for v in obj]
    return obj


def _emit(text, out_path):
    if out_path in (None, "-"):
        sys.stdout.write(text)
    else:
        with open(out_path, "w", newline="") as fh:
            fh.write(text)


def _emit_json(obj, out_path):
    _emit(json.dumps(_round12(obj), indent=2, sort_keys=True, allow_nan=False) + "\n", out_path)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _parse_sample_file(path):
    samples = []
    header = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            for token in line.lstrip("#").split():
                key, sep, value = token.partition("=")
                if not sep or key not in ("lo", "hi", "mu"):
                    raise InputFormatError(
                        f"line {lineno}: bad header token {token!r}"
                    )
                try:
                    header[key] = float(value)
                except ValueError as exc:
                    raise InputFormatError(
                        f"line {lineno}: bad header value {token!r}"
                    ) from exc
            continue
        try:
            value = float(line)
        except ValueError as exc:
            raise InputFormatError(f"line {lineno}: not a number: {line!r}") from exc
        if not math.isfinite(value):
            raise InputFormatError(f"line {lineno}: not a finite number: {line!r}")
        samples.append(value)
    if not samples:
        raise InputFormatError("no samples in input file")
    return np.asarray(samples), header


def cmd_bound(args):
    samples, header = _parse_sample_file(args.file)
    lo = args.lo if args.lo is not None else header.get("lo", 0.0)
    hi = args.hi if args.hi is not None else header.get("hi", 1.0)
    mu = args.mu if args.mu is not None else header.get("mu", 0.5 * (lo + hi))
    if not (math.isfinite(lo) and math.isfinite(mu) and lo < hi < math.inf):
        raise InputFormatError(f"need finite lo < hi and mu, got lo={lo} hi={hi} mu={mu}")
    delta = args.delta
    names = BOUND_CHOICES if args.bound == "all" else (args.bound,)
    n = len(samples)
    reports = []
    for name in names:
        params = {"n": n, "lo": lo, "hi": hi}
        if name == "kl":
            value = kl_upper_bound(samples.mean(), n, delta, lo, hi)
        elif name == "eb":
            s = EmpiricalSummary.from_samples(samples, lo, hi)
            value = empirical_bernstein_bound(s, delta)
        elif name == "ub":
            s = EmpiricalSummary.from_samples(samples, lo, hi)
            rep = unexpected_bernstein_grid_bound(s, delta)
            value, params = rep.value, dict(rep.params, n=n, hi=hi)
        else:
            value = split_kl_bound(split_decompose(samples, mu, lo, hi), delta)
            params["mu"] = mu
        if not math.isfinite(value):
            raise DomainError(f"{name} bound is not finite: {value}")
        value = min(value, hi) if args.clip else value
        reports.append({"name": name, "value": value, "delta": delta, "params": params})
    _emit_json({"bounds": reports}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------

TERNARY_MODES = ("symmetric", "skew_high", "skew_low")
BETA_MODES = ("constant_mean", "spectrum")


def _sweep_csv(rows):
    lines = ["param,bound,gap_mean,gap_std,repeats,n,delta,seed"]
    for rec in simulation.sweep_rows_to_records(rows):
        lines.append(
            ",".join(
                [
                    _fmt(rec["param"]),
                    rec["bound"],
                    _fmt(rec["gap_mean"]),
                    _fmt(rec["gap_std"]),
                    str(rec["repeats"]),
                    str(rec["n"]),
                    _fmt(rec["delta"]),
                    str(rec["seed"]),
                ]
            )
        )
    return "\n".join(lines) + "\n"


def cmd_simulate(args):
    if args.n < 2:
        raise InputFormatError(f"need n >= 2, got {args.n}")
    if args.repeats < 1:
        raise InputFormatError(f"need repeats >= 1, got {args.repeats}")
    sweep = simulation.sweep_ternary if args.mode in TERNARY_MODES else simulation.sweep_beta
    rows = sweep(args.mode, args.n, args.delta, args.repeats, args.seed)
    _emit(_sweep_csv(rows), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def _parse_floats(text, count, what):
    parts = text.split(",")
    if len(parts) != count:
        raise InputFormatError(f"{what} needs {count} comma-separated values")
    try:
        return [float(p) for p in parts]
    except ValueError as exc:
        raise InputFormatError(f"bad {what}: {text!r}") from exc


def cmd_coverage(args):
    if args.trials < 100:
        raise InputFormatError("need trials >= 100")
    if args.n < 2:
        raise InputFormatError(f"need n >= 2, got {args.n}")
    if args.dist == "ternary":
        probs = _parse_floats(args.probs, 3, "--probs")
        dist = simulation.TernarySpec(*probs)
        dist_desc = {"kind": "ternary", "probs": probs}
    else:
        shape = _parse_floats(args.shape, 2, "--shape")
        dist = simulation.BetaSpec(*shape)
        dist_desc = {"kind": "beta", "shape": shape}
    freqs = simulation.coverage_experiment(dist, args.n, args.delta, args.trials, args.seed)
    ceiling = simulation.coverage_ceiling(args.delta, args.trials)
    ok = simulation.coverage_passes(freqs, args.delta, args.trials)
    _emit_json(
        {
            "dist": dist_desc,
            "n": args.n,
            "delta": args.delta,
            "trials": args.trials,
            "ceiling": ceiling,
            "frequencies": freqs,
            "pass": ok,
        },
        args.out,
    )
    return EXIT_OK if ok else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# mv
# ---------------------------------------------------------------------------


_BLANK_LINES = re.compile(r"^\s+$", re.MULTILINE)  # loadtxt skips only empty lines
_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")


def _read_csv_rows(path, expected_header):
    """Parse a CSV of four integer columns under ``expected_header`` into a
    ``(rows, 4)`` int64 array; blank and whitespace-only lines are skipped."""
    try:
        with open(path) as fh:
            header, body = fh.readline(), fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if header.strip() != expected_header:
        raise InputFormatError(f"{path}: expected header {expected_header!r}")
    if not body.strip():
        raise InputFormatError(f"{path}: no data rows")
    with warnings.catch_warnings():
        # numpy < 2 parses "1.0" as the integer 1, with this warning
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(_BLANK_LINES.sub("", body).split("\n"), dtype=np.int64,
                              delimiter=",", comments=None, ndmin=2)
            if rows.shape[1] == 4:
                return rows
        except (ValueError, DeprecationWarning):
            pass
    for lineno, line in enumerate(body.split("\n"), start=2):  # name the bad line
        fields = line.split(",")
        if line.strip() and len(fields) != 4:
            raise InputFormatError(f"{path} line {lineno}: expected 4 fields")
        if line.strip() and not all(_INT_FIELD.fullmatch(f) for f in fields):
            raise InputFormatError(f"{path} line {lineno}: non-integer field")
        if line.strip() and not all(-(2**63) <= int(f) < 2**63 for f in fields):
            raise InputFormatError(f"{path} line {lineno}: field outside the int64 range")
    raise InputFormatError(f"{path}: not a CSV of four integer columns")


def _cell_index(path, rows):
    """Each row's position in the matrix of sorted hypothesis ids by sorted
    example ids, and that matrix's shape; a repeated cell is rejected."""
    h_ids, h = np.unique(rows[:, 0], return_inverse=True)
    e_ids, e = np.unique(rows[:, 1], return_inverse=True)
    _, first = np.unique(h * len(e_ids) + e, return_index=True)
    if len(first) < len(rows):
        i = np.setdiff1d(np.arange(len(rows)), first)[0]  # the first repeat
        raise InputFormatError(f"{path}: duplicate cell {tuple(rows[i, :2].tolist())}")
    return h, e, (len(h_ids), len(e_ids))


def read_loss_csv(path) -> PredictionLossMatrix:
    """Ingest ``hypothesis_id,example_id,loss,oob`` into a loss matrix;
    cells absent from the file are masked out."""
    rows = _read_csv_rows(path, LOSS_CSV_HEADER)
    if not np.isin(rows[:, 2:], (0, 1)).all():
        raise InputFormatError(f"{path}: loss/oob must be 0 or 1")
    h, e, shape = _cell_index(path, rows)
    losses, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    losses[h, e], mask[h, e] = rows[:, 2], rows[:, 3]
    return PredictionLossMatrix(losses=losses, mask=mask)


def write_loss_csv(plm: PredictionLossMatrix, path):
    """Emit every cell of a loss matrix in the ingestion schema."""
    h, e = np.indices(plm.losses.shape).reshape(2, -1)
    table = np.column_stack([h, e, plm.losses.ravel(), plm.mask.ravel()]).astype(np.int64)
    # one %-format over all cells, so no Python loop per row
    body = "%d,%d,%d,%d\n" * len(table) % tuple(table.ravel().tolist())
    _emit(LOSS_CSV_HEADER + "\n" + body, path)


def read_eval_csv(path) -> EvaluationMatrix:
    """Ingest ``hypothesis_id,example_id,prediction,label``; must be dense,
    with non-negative predictions and one non-negative label per example."""
    rows = _read_csv_rows(path, EVAL_CSV_HEADER)
    for col, what in ((2, "predictions"), (3, "labels")):
        if rows[:, col].min() < 0:
            raise InputFormatError(f"{path}: {what} must be non-negative")
    h, e, shape = _cell_index(path, rows)
    labels = rows[np.unique(e, return_index=True)[1], 3]  # each example's first label
    conflict = np.flatnonzero(rows[:, 3] != labels[e])
    if conflict.size:
        raise InputFormatError(f"{path}: conflicting labels for example {rows[conflict[0], 1]}")
    if len(rows) < shape[0] * shape[1]:
        raise InputFormatError(f"{path}: missing (hypothesis, example) cells")
    preds = np.empty(shape, dtype=np.int64)
    preds[h, e] = rows[:, 2]
    return EvaluationMatrix(predictions=preds, labels=labels)


def _alpha_grid_from_args(args):
    if args.alpha is not None or args.alpha_points is None:
        return None  # fixed alpha path, or the library default grid
    if args.alpha_points < 0:
        raise InputFormatError(f"need --alpha-points >= 0, got {args.alpha_points}")
    pts = np.linspace(-0.5, 0.49, args.alpha_points)
    return tuple(np.unique(np.concatenate([pts, [0.0]])))


def cmd_mv(args):
    if (args.synthetic is None) == (args.losses is None):
        raise InputFormatError("exactly one of --synthetic or --losses is required")
    em = None
    if args.synthetic is not None:
        plm, em = simulation.synth_ensemble(
            args.h_count, args.n_examples, args.synthetic, bagging_rate=args.bagging_rate,
            seed=args.seed, error_rate=args.error_rate)
    else:
        plm = read_loss_csv(args.losses)
    if args.eval is not None:
        em = read_eval_csv(args.eval)
        if em.predictions.shape[0] != plm.h_count:
            raise InputFormatError("--eval hypothesis count does not match losses")
    if args.dump_losses:
        write_loss_csv(plm, args.dump_losses)

    names = tuple(args.bounds.split(","))
    for name in names:
        if name not in MV_BOUNDS:
            raise InputFormatError(f"unknown bound {name!r}")
    pi = np.full(plm.h_count, 1.0 / plm.h_count)
    ts = compute_tandem_stats(plm)
    alpha_grid = _alpha_grid_from_args(args)
    fixed = args.alpha

    results = {}
    for name in names:
        if name == "tnd":
            w, rep = tnd_optimize(ts, pi, args.delta)
            params = {"lam": rep.params.get("lam")}
        elif name == "cctnd":
            w, alpha, rep = cctnd_optimize(ts, pi, args.delta, alpha_grid=alpha_grid,
                                           fixed_alpha=fixed)
            params = {"alpha": alpha, "lam": rep.params.get("lam"), "gam": rep.params.get("gam")}
        else:
            optimize = {"ccpbb": ccpbb_optimize, "ccpbub": ccpbub_optimize,
                        "ccpbskl": ccpbskl_optimize}[name]
            w, opt_params, rep = optimize(plm, pi, args.delta, alpha_grid=alpha_grid,
                                          fixed_alpha=fixed)
            params = {k: opt_params[k] for k in ("alpha", "lam", "gam") if k in opt_params}
        if params.get("gam") == math.inf:
            # gamma = inf drops the lower form's term; JSON has no inf
            params["gam"] = None
        entry = {"value": rep.value, "rho": list(w.rho), "params": params,
                 "iterations": rep.params["iterations"]}
        if em is not None:
            entry["eval_risk"] = mv_risk(em, w)
        results[name] = entry

    _emit_json({"bounds": results, "delta": args.delta, "h_count": plm.h_count, "n": ts.n,
                "m": ts.m, "seed": args.seed}, args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitkl",
        description="Concentration and PAC-Bayes bound computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bound", help="scalar bounds on a sample file")
    p.add_argument("file", help="text file, one real per line; optional "
                               "'# lo=<a> hi=<b> mu=<m>' header")
    p.add_argument("--bound", choices=BOUND_CHOICES + ("all",), default="all")
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--clip", action="store_true", help="clip bounds to hi")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", help="bound-gap sweep CSV")
    p.add_argument("--mode", choices=TERNARY_MODES + BETA_MODES, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--repeats", type=int, default=simulation.DEFAULT_REPEATS)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coverage", help="Monte Carlo violation frequencies")
    p.add_argument("--dist", choices=("ternary", "beta"), default="ternary")
    p.add_argument("--probs", default="0.25,0.5,0.25",
                   help="ternary masses p_minus1,p_0,p_1")
    p.add_argument("--shape", default="2,5", help="beta shapes alpha,beta")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1, help="accepted and ignored")
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("mv", help="majority-vote bound optimization")
    p.add_argument("--synthetic", choices=simulation.NOISE_PROFILES, default=None)
    p.add_argument("--losses", default=None, help="loss CSV "
                   f"({LOSS_CSV_HEADER})")
    p.add_argument("--eval", default=None, help=f"eval CSV ({EVAL_CSV_HEADER})")
    p.add_argument("--bounds", default=",".join(MV_BOUNDS))
    p.add_argument("--alpha", type=float, default=None,
                   help="fix the offset instead of optimizing it")
    p.add_argument("--alpha-points", type=int, default=None,
                   help="size of the alpha search grid (0 always included)")
    p.add_argument("--h-count", type=int, default=7)
    p.add_argument("--n-examples", type=int, default=2000)
    p.add_argument("--bagging-rate", type=float, default=0.8)
    p.add_argument("--error-rate", type=float, default=0.3)
    p.add_argument("--delta", type=float, default=0.05)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=1,
                   help="accepted and ignored: mv is single-threaded")
    p.add_argument("--dump-losses", default=None)
    p.add_argument("--out", default="-")
    p.set_defaults(func=cmd_mv)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < args.delta < 1.0:
        print(f"error: delta must lie in (0, 1), got {args.delta}", file=sys.stderr)
        return EXIT_INPUT
    if getattr(args, "seed", 0) < 0:
        print("error: seed must be non-negative", file=sys.stderr)
        return EXIT_INPUT
    try:
        return args.func(args)
    except InputFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
