"""Command-line interface.

Subcommands: ``bound`` (scalar bounds on a sample file), ``simulate``
(sweep CSVs), ``coverage`` (Monte Carlo violation frequencies, exit 1 on a
ceiling breach), and ``mv`` (majority-vote bound optimization on synthetic
or ingested loss matrices).

Exit codes: 0 success, 1 acceptance-check failure, 2 input/usage error,
3 domain error.  All floats are printed with 12 significant digits and all
outputs are byte-deterministic given (args, seed).  Every command takes
``--delta`` and ``--out``; ``simulate``, ``coverage`` and ``mv`` also take
``--seed`` and ``--threads``.  Each is declared once, on a parent parser.
Every command runs in one Python thread, so ``--threads`` is accepted and ignored.
``mv``'s pair counts use numpy's BLAS, which may start threads (``OPENBLAS_NUM_THREADS=1``
pins it to one); they are exact integer sums, so the output is the same at any thread count.
"""

import argparse
import functools
import io
import json
import math
import os
import re
import sys
import warnings

import numpy as np

from . import simulation
from .concentration import (
    EmpiricalSummary,
    SplitSummary,
    _row_stats,
    _validate_samples,
    kl_upper_bound,
    split_kl_bound,
    empirical_bernstein_bound,
    unexpected_bernstein_grid_bound,
)
from .errors import DomainError, InputFormatError
from .majority_vote import (
    DEFAULT_ALPHA_GRID,
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

BOUND_CHOICES = simulation.BOUND_NAMES
# the params mv prints for each bound, as null where the reported record lacks one
MV_PARAMS = {"tnd": ("lam",), "cctnd": ("alpha", "lam", "gam"), "ccpbb": ("alpha", "lam", "gam"),
             "ccpbub": ("alpha", "gam"), "ccpbskl": ("alpha", "lam", "gam")}
MV_BOUNDS = tuple(MV_PARAMS)

LOSS_CSV_HEADER = "hypothesis_id,example_id,loss,oob"
EVAL_CSV_HEADER = "hypothesis_id,example_id,prediction,label"


def _fmt(x):
    return f"{x:.12g}"


def _round12(obj):
    if isinstance(obj, (float, np.floating)):
        return float(_fmt(float(obj)))
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, np.ndarray):
        return [_round12(float(v)) for v in obj]
    return obj


def _emit(chunks, out_path):
    if out_path in (None, "-"):
        sys.stdout.writelines(chunks)
        return
    try:
        with open(out_path, "w", newline="") as fh:
            fh.writelines(chunks)
    except OSError as exc:
        raise InputFormatError(f"cannot write {out_path}: {exc}") from exc


def _target(out_path):
    """The file ``_emit`` writes ``out_path`` to, for comparing two outputs."""
    return os.path.realpath("/dev/stdout" if out_path in (None, "-") else out_path)


def _emit_json(obj, out_path):
    _emit([json.dumps(_round12(obj), indent=2, sort_keys=True, allow_nan=False) + "\n"], out_path)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def _parse_sample_file(path):
    samples = []
    header = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except (OSError, UnicodeDecodeError) as exc:
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
    samples = _validate_samples(samples, lo, hi)  # every bound, kl too, needs them in [lo, hi]
    delta = args.delta
    names = BOUND_CHOICES if args.bound == "all" else (args.bound,)
    n = len(samples)
    # one pass of the statistics kernel; the summaries' checks reject an overflowed sum
    mean, var, second, plus, minus = _row_stats(samples[None, :], mu)[:, 0].tolist()
    summary = None  # built on first use: kl and skl never read the moments
    reports = []
    for name in names:
        params = {"n": n, "lo": lo, "hi": hi}
        if name == "kl":
            value = kl_upper_bound(mean, n, delta, lo, hi)
        elif name == "skl":
            if not lo <= mu <= hi:
                raise DomainError(f"mu {mu} outside [{lo}, {hi}]")
            value = split_kl_bound(SplitSummary(n, mu, plus, minus, lo, hi), delta)
            params["mu"] = mu
        else:
            summary = summary or EmpiricalSummary(n, mean, second, var, lo, hi)
            if name == "eb":
                value = empirical_bernstein_bound(summary, delta)
            else:
                rep = unexpected_bernstein_grid_bound(summary, delta)
                value, params = rep.value, dict(rep.params, n=n, hi=hi)
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
    yield "param,bound,gap_mean,gap_std,repeats,n,delta,seed\n"
    for row in rows:
        meta = f"{row.repeats},{row.n},{_fmt(row.delta)},{row.seed}"
        for name in simulation.BOUND_NAMES:
            gaps = f"{_fmt(row.gap_mean(name))},{_fmt(row.gap_std(name))}"
            yield f"{_fmt(row.param)},{name},{gaps},{meta}\n"


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


_INT_FIELD = re.compile(r"\s*[+-]?[0-9]+\s*")


def _loadtxt_int4(lines, dtype=np.int32):
    """``lines`` (a text file or a list) as a ``(rows, 4)`` array of ``dtype``, or
    None if not one or a field overflows.  A warning fails: numpy < 2 parses "1.0" with one."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy also warns on input with no rows
        try:  # ValueError covers the UnicodeDecodeError of a streamed file
            rows = np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=2)
        except (ValueError, Warning):
            return None
    return rows if rows.shape[1] == 4 else None


def _read_csv_rows(path, expected_header):
    """Parse a CSV of four integer columns under ``expected_header`` into a
    ``(rows, 4)`` integer array, skipping blank and whitespace-only lines.  A file
    is streamed to ``np.loadtxt`` as int32 and read again whole as int64 if that
    pass fails; a pipe is read whole first, by the same calls, so a decode error
    names the same byte."""
    try:
        with open(path) as fh:
            src = fh if fh.seekable() else io.StringIO(fh.readline() + fh.read())
            rows = _loadtxt_int4(src) if src.readline().strip() == expected_header else None
            if rows is not None:
                return rows
            src.seek(0)
            header, body = src.readline(), src.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputFormatError(f"cannot read {path}: {exc}") from exc
    if header.strip() != expected_header:
        raise InputFormatError(f"{path}: expected header {expected_header!r}")
    lines = body.split("\n")
    # loadtxt skips only empty lines, so drop whitespace-only ones
    rows = _loadtxt_int4([line for line in lines if line.strip()], np.int64)
    if rows is not None:
        return rows
    for lineno, line in enumerate(lines, start=2):  # name the bad line
        fields = line.split(",")
        if line.strip() and len(fields) != 4:
            raise InputFormatError(f"{path} line {lineno}: expected 4 fields")
        if line.strip() and not all(_INT_FIELD.fullmatch(f) for f in fields):
            raise InputFormatError(f"{path} line {lineno}: non-integer field")
        if line.strip() and not all(-(2**63) <= int(f) < 2**63 for f in fields):
            raise InputFormatError(f"{path} line {lineno}: field outside the int64 range")
    raise InputFormatError(f"{path}: no data rows" if not body.strip()
                           else f"{path}: not a CSV of four integer columns")


def _id_index(col):
    """``np.unique(col, return_inverse=True)``, with the ids as int64 and the
    inverse as int32 below 2**31 rows.  Ids spanning fewer values than there
    are rows are ranked through a presence table, with no sort."""
    rank = np.int32 if len(col) < 2**31 else np.int64
    lo = int(col.min())
    span = int(col.max()) - lo
    if span >= len(col):
        ids, inverse = np.unique(col, return_inverse=True)
        return ids.astype(np.int64, copy=False), inverse.astype(rank)
    offset = col - lo
    present = np.zeros(span + 1, dtype=bool)
    present[offset] = True
    return np.flatnonzero(present) + lo, (np.cumsum(present, dtype=rank) - 1)[offset]


def _cell_index(path, rows):
    """Each row's flat position in the matrix of sorted hypothesis ids by
    sorted example ids, its example's position, that matrix's shape, and
    the sorted hypothesis ids; a repeated cell is rejected.  The positions
    are int32 while the matrix has fewer than 2**31 cells."""
    h_ids, h = _id_index(rows[:, 0])
    e_ids, e = _id_index(rows[:, 1])
    shape = (len(h_ids), len(e_ids))
    flat = h.astype(np.int32 if shape[0] * shape[1] < 2**31 else np.int64, copy=False)
    flat *= shape[1]
    flat += e
    seen = np.zeros(shape[0] * shape[1], dtype=bool)
    seen[flat] = True
    if np.count_nonzero(seen) < len(flat):
        _, first = np.unique(flat, return_index=True)
        i = np.setdiff1d(np.arange(len(rows)), first)[0]  # the first repeat
        raise InputFormatError(f"{path}: duplicate cell {tuple(rows[i, :2].tolist())}")
    return flat, e, shape, h_ids


def read_loss_csv(path):
    """Ingest ``hypothesis_id,example_id,loss,oob`` into a loss matrix;
    cells absent from the file are masked out.  Returns the
    :class:`PredictionLossMatrix` and the sorted hypothesis ids, one per row."""
    rows = _read_csv_rows(path, LOSS_CSV_HEADER)
    if rows[:, 2:].min() < 0 or rows[:, 2:].max() > 1:
        raise InputFormatError(f"{path}: loss/oob must be 0 or 1")
    flat, e, shape, h_ids = _cell_index(path, rows)
    losses, mask = np.zeros(shape), np.zeros(shape, dtype=bool)
    losses.reshape(-1)[flat], mask.reshape(-1)[flat] = rows[:, 2], rows[:, 3]
    del rows, flat, e  # free the row-length arrays before the pair counts
    return PredictionLossMatrix(losses=losses, mask=mask), h_ids


def write_loss_csv(plm: PredictionLossMatrix, path):
    """Emit every cell of a loss matrix in the ingestion schema, 4096 cells per %-format."""
    def blocks():
        yield LOSS_CSV_HEADER + "\n"
        for start in range(0, plm.losses.size, 4096):
            cells = np.arange(start, min(start + 4096, plm.losses.size))
            table = np.column_stack([*np.divmod(cells, plm.losses.shape[1]),
                                     plm.losses.flat[cells], plm.mask.flat[cells]])
            yield "%d,%d,%d,%d\n" * len(cells) % tuple(table.astype(np.int64).ravel().tolist())

    _emit(blocks(), path)


def read_eval_csv(path):
    """Ingest ``hypothesis_id,example_id,prediction,label``; must be dense,
    with non-negative predictions and one non-negative label per example.
    Returns the :class:`EvaluationMatrix` and the sorted hypothesis ids,
    one per row."""
    rows = _read_csv_rows(path, EVAL_CSV_HEADER)
    for col, what in ((2, "predictions"), (3, "labels")):
        if rows[:, col].min() < 0:
            raise InputFormatError(f"{path}: {what} must be non-negative")
    flat, e, shape, h_ids = _cell_index(path, rows)
    first = np.full(shape[1], len(rows))
    np.minimum.at(first, e, np.arange(len(rows)))
    labels = rows[first, 3]  # each example's first label
    conflict = np.flatnonzero(rows[:, 3] != labels[e])
    if conflict.size:
        raise InputFormatError(f"{path}: conflicting labels for example {rows[conflict[0], 1]}")
    if len(rows) < shape[0] * shape[1]:
        raise InputFormatError(f"{path}: missing (hypothesis, example) cells")
    preds = np.empty(shape, dtype=np.int64)
    preds.reshape(-1)[flat] = rows[:, 2]
    return EvaluationMatrix(predictions=preds, labels=labels), h_ids


def _alpha_grid_from_args(args):
    if args.alpha is not None:
        return (args.alpha,)  # a fixed alpha is a one-point grid
    if args.alpha_points is None:
        return DEFAULT_ALPHA_GRID
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
        h_ids = np.arange(plm.h_count)  # the ids --dump-losses writes
    else:
        plm, h_ids = read_loss_csv(args.losses)
    if args.eval is not None:
        em, eval_ids = read_eval_csv(args.eval)
        if em.predictions.shape[0] != plm.h_count:
            raise InputFormatError("--eval hypothesis count does not match losses")
        if not np.array_equal(eval_ids, h_ids):
            raise InputFormatError("--eval hypothesis ids do not match the losses'")
    names = tuple(args.bounds.split(","))
    for name in names:
        if name not in MV_BOUNDS:
            raise InputFormatError(f"unknown bound {name!r}")
    if args.dump_losses is not None and _target(args.dump_losses) == _target(args.out):
        raise InputFormatError(f"--dump-losses {args.dump_losses} needs --out FILE naming "
                               "another file: both would write to one file")
    alpha_grid = _alpha_grid_from_args(args)
    if args.dump_losses:
        write_loss_csv(plm, args.dump_losses)

    pi = np.full(plm.h_count, 1.0 / plm.h_count)
    ts = compute_tandem_stats(plm)
    # one TND run serves tnd, and cctnd and ccpbskl at alpha = 0, which
    # every grid but a fixed nonzero alpha holds
    tnd = None
    if "tnd" in names or 0.0 in alpha_grid and {"cctnd", "ccpbskl"} & set(names):
        tnd = tnd_optimize(ts, pi, args.delta)

    optimize = {
        "tnd": lambda: tnd,
        "cctnd": lambda: cctnd_optimize(ts, pi, args.delta, alpha_grid=alpha_grid, tnd=tnd),
        "ccpbb": lambda: ccpbb_optimize(plm, pi, args.delta, alpha_grid=alpha_grid),
        "ccpbub": lambda: ccpbub_optimize(plm, pi, args.delta, alpha_grid=alpha_grid),
        "ccpbskl": lambda: ccpbskl_optimize(plm, pi, args.delta, alpha_grid=alpha_grid, tnd=tnd),
    }
    results = {}
    for name in names:
        w, rep = optimize[name]()
        params = {k: rep.params.get(k) for k in MV_PARAMS[name]}
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


@functools.cache  # built once per process: add_argument sizes the terminal each call
def build_parser():
    parser = argparse.ArgumentParser(
        prog="splitkl",
        description="Concentration and PAC-Bayes bound computation",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options every command shares, and those of the seeded commands
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--delta", type=float, default=0.05)
    shared.add_argument("--out", default="-")
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0)
    seeded.add_argument("--threads", type=int, default=1, help="accepted and ignored")

    p = sub.add_parser("bound", parents=[shared], help="scalar bounds on a sample file")
    p.add_argument("file", help="text file, one real per line; optional "
                               "'# lo=<a> hi=<b> mu=<m>' header")
    p.add_argument("--bound", choices=BOUND_CHOICES + ("all",), default="all")
    p.add_argument("--lo", type=float, default=None)
    p.add_argument("--hi", type=float, default=None)
    p.add_argument("--mu", type=float, default=None)
    p.add_argument("--clip", action="store_true", help="clip bounds to hi")
    p.set_defaults(func=cmd_bound)

    p = sub.add_parser("simulate", parents=[shared, seeded], help="bound-gap sweep CSV")
    p.add_argument("--mode", choices=TERNARY_MODES + BETA_MODES, required=True)
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--repeats", type=int, default=simulation.DEFAULT_REPEATS)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("coverage", parents=[shared, seeded],
                       help="Monte Carlo violation frequencies")
    p.add_argument("--dist", choices=("ternary", "beta"), default="ternary")
    p.add_argument("--probs", default="0.25,0.5,0.25",
                   help="ternary masses p_minus1,p_0,p_1")
    p.add_argument("--shape", default="2,5", help="beta shapes alpha,beta")
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--trials", type=int, default=10000)
    p.set_defaults(func=cmd_coverage)

    p = sub.add_parser("mv", parents=[shared, seeded], help="majority-vote bound optimization")
    p.add_argument("--synthetic", choices=simulation.NOISE_PROFILES, default=None)
    p.add_argument("--losses", default=None, help="loss CSV "
                   f"({LOSS_CSV_HEADER})")
    p.add_argument("--eval", default=None, help=f"eval CSV ({EVAL_CSV_HEADER})")
    p.add_argument("--bounds", default=",".join(MV_BOUNDS))
    alpha = p.add_mutually_exclusive_group()
    alpha.add_argument("--alpha", type=float, default=None,
                       help="fix the offset instead of optimizing it (a one-point grid)")
    alpha.add_argument("--alpha-points", type=int, default=None,
                       help="size of the alpha search grid (0 always included)")
    p.add_argument("--h-count", type=int, default=7)
    p.add_argument("--n-examples", type=int, default=2000)
    p.add_argument("--bagging-rate", type=float, default=0.8)
    p.add_argument("--error-rate", type=float, default=0.3)
    p.add_argument("--dump-losses", default=None)
    p.set_defaults(func=cmd_mv)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not 0.0 < args.delta < 1.0:
        print(f"error: delta must lie in (0, 1), got {args.delta}", file=sys.stderr)
        return EXIT_INPUT
    # the streams reduce a seed mod 2**63, so a larger one would repeat a smaller one
    if not 0 <= getattr(args, "seed", 0) < 2**63:
        print(f"error: seed must lie in [0, 2**63), got {args.seed}", file=sys.stderr)
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
