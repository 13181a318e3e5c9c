"""splitkl benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload scalar_api --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  With ``--trace 0`` the last stdout line is a JSON object holding
the end-to-end metrics; with ``--trace 1`` it holds the per-layer metrics
of a traced run.  Lines before it are a readable report: the environment,
the set-up probes, the request counts, failures and latency percentiles,
and the median latency of each request kind.  See README.md.
"""

import time

# A set-up probe times itself from here, so every import counts.
T_START = time.perf_counter()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

# One thread everywhere: BLAS may not spread a request over cores, so the
# timings are those of one single-threaded process.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
sys.path[:0] = [str(SRC), str(HERE)]
# ``workloads`` and ``tracing`` import splitkl, so functions import them
# only after main() has checked that splitkl comes from src/.

SETUP_REPEATS = 3
PERCENTILES = (50, 90, 99)
_perf = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True,
                   choices=("scalar_api", "mc_sweep", "mv_grid", "mv_ingest"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", default=None, help=argparse.SUPPRESS)
    return p.parse_args(argv)


# ---------------------------------------------------------------------------
# environment
# ---------------------------------------------------------------------------


def _blas_threads():
    """Threads the bundled OpenBLAS will use, or the environment's setting."""
    import numpy as np

    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*")
    for lib in glob.glob(libs):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return os.environ["OPENBLAS_NUM_THREADS"]


def _git_sha():
    """HEAD of the checkout's git repository, read without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    for line in packed.read_text().splitlines() if packed.is_file() else ():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def environment():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": _blas_threads(),
        "git_sha": _git_sha(),
    }


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


def warm_up(wl):
    """Call each warm-up request once, so first-call costs (lazy imports,
    caches) land in set-up and not in the first timed request."""
    for call in wl.warmup:
        call()


def setup_probe(workload, seed, directory):
    """Child-process set-up: import, input generation and warm-up, timed
    from the interpreter's start of this script."""
    import workloads

    import_s = _perf() - T_START
    wl = workloads.build(workload, seed, directory)
    warm_up(wl)
    return {"setup_s": _perf() - T_START, "import_s": import_s}


def probe_setups(workload, seed, work, repeats):
    """Median-ready set-up times from ``repeats`` fresh processes, plus the
    input directories they generated (for the determinism check)."""
    probes, dirs = [], []
    for i in range(repeats):
        d = work / f"probe{i}"
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
               "--seed", str(seed), "--setup-probe", str(d)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=150, cwd=ROOT)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        probes.append(json.loads(proc.stdout.splitlines()[-1]))
        dirs.append(d)
    return probes, dirs


def _input_files(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir()) if p.is_file()}


# ---------------------------------------------------------------------------
# timed rounds
# ---------------------------------------------------------------------------


class Round:
    def __init__(self):
        self.wall = 0.0
        self.cpu = 0.0
        self.items = 0
        self.latencies = []  # (kind, seconds)
        self.failures = []  # (key, message)
        self.stats = None  # per-layer numbers of a traced round


def _timed_call(req, rnd, reference, tracer=None):
    """Call one request, time only the call, then check its result."""
    if tracer:
        tracer.request_id += 1
        tracer.install()
    c0 = time.process_time()
    t0 = _perf()
    try:
        result, error = req.call(), None
    except Exception as exc:  # a raising request is a failed request
        result, error = None, f"{type(exc).__name__}: {exc}"
    t1 = _perf()
    c1 = time.process_time()
    if tracer:
        tracer.uninstall()
    rnd.wall += t1 - t0
    rnd.cpu += c1 - c0
    rnd.latencies.append((req.kind, t1 - t0))
    errors = [error] if error else _check(req, result, reference)
    if errors:
        rnd.failures.append((req.key, "; ".join(errors)))
    else:
        rnd.items += req.items


def run_round(wl, reference, tracer=None):
    """One pass over the workload's requests.

    With a tracer, every request runs twice in a row, untraced and traced
    in alternating order, so both rounds see the same machine state and
    their difference is the tracing overhead.  Returns (untraced, traced).
    """
    plain = Round()
    traced = Round() if tracer else None
    mark = tracer.mark() if tracer else None
    for req in wl.requests:
        traced_first = tracer is not None and tracer.request_id % 2 == 1
        if traced_first:
            _timed_call(req, traced, reference, tracer)
        _timed_call(req, plain, reference)
        if tracer and not traced_first:
            _timed_call(req, traced, reference, tracer)
    if tracer:
        traced.stats = tracer.round_stats(mark)
    return plain, traced


def _check(req, result, reference):
    import workloads

    try:
        errors, values = req.check(result)
    except Exception as exc:  # unparseable output fails the request
        return [f"check raised {type(exc).__name__}: {exc}"]
    if reference is not None:
        expected = reference.get(req.key)
        if expected is None or len(expected) != len(values):
            errors.append("output shape differs from the seed-commit reference")
        else:
            for got, want in zip(values, expected):
                if not math.isclose(got, want, rel_tol=workloads.REF_REL_TOL,
                                    abs_tol=workloads.REF_ABS_TOL):
                    errors.append(f"{got!r} differs from reference {want!r}")
                    break
    return errors


def timed_rounds(wl, seconds, reference, tracer=None):
    """Repeat rounds for about ``seconds``: a round starts only if it is
    expected to end in time, and at least one always runs."""
    plain, traced = [], []
    begin = _perf()
    while True:
        start = _perf()
        untraced_round, traced_round = run_round(wl, reference, tracer)
        plain.append(untraced_round)
        if tracer:
            traced.append(traced_round)
        now = _perf()
        if now - begin + (now - start) > seconds:
            return plain, traced


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def percentile(sorted_values, q):
    """Nearest-rank percentile, or None unless ten samples lie beyond it."""
    n = len(sorted_values)
    if n * (100 - q) / 100 < 10:
        return None
    return sorted_values[max(0, math.ceil(q / 100 * n) - 1)]


def end_to_end(rounds, setup_s):
    lat = sorted(t for r in rounds for _, t in r.latencies)
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(r.wall for r in rounds), "s"),
        "cpu_s": (statistics.median(r.cpu for r in rounds), "s"),
        "items_per_s": (statistics.median(r.items / r.wall for r in rounds), "1/s"),
        "req_ms.p50": (1e3 * statistics.median(lat), "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(plain, traced):
    """Counts from the first traced round; times as medians over traced rounds."""
    import tracing

    metrics = {}
    for name, unit in tracing.PER_LAYER:
        if name == "trace.overhead_s":
            value = statistics.median(t.wall - p.wall for p, t in zip(plain, traced))
        elif unit == "count":
            value = int(traced[0].stats[name])
        else:
            value = statistics.median(r.stats[name] for r in traced)
        metrics[name] = (value, unit)
    return metrics


def _count_mismatch(traced):
    """Counter names whose values differ between traced rounds of one run."""
    import tracing

    names = [n for n, unit in tracing.PER_LAYER if unit == "count"]
    return sorted(n for n in names for r in traced[1:] if r.stats[n] != traced[0].stats[n])


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def load_reference(workload, seed):
    import workloads

    if seed != workloads.DEFAULT_SEED:
        return None
    with open(HERE / "reference_seed0.json") as fh:
        return json.load(fh)[workload]


def run_benchmark(workload, seed, seconds, trace, small=False, setup_repeats=SETUP_REPEATS):
    """Set up, warm up, time and check one workload; return the result
    object and the report lines.  ``small`` shrinks every input (used by the
    self-test; it skips the seed-commit reference)."""
    import tracing
    import workloads

    WORK.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=WORK))
    report = [f"workload {workload}  seed {seed}  seconds {seconds:g}  trace {trace}",
              "env " + json.dumps(environment(), sort_keys=True)]
    problems = []
    try:
        probes, probe_dirs = probe_setups(workload, seed, work, setup_repeats)
        t0 = _perf()
        wl = workloads.build(workload, seed, work / "inputs", small)
        warm_up(wl)
        inproc_s = _perf() - t0
        inputs = _input_files(work / "inputs")
        for d in probe_dirs:
            if _input_files(d) != inputs:
                problems.append(f"inputs generated in {d.name} differ from the run's own")
        setup_s = (statistics.median(p["setup_s"] for p in probes) if probes else inproc_s)
        report.append("setup probes " + " ".join(
            f"{p['setup_s']:.3f}s(import {p['import_s']:.3f}s)" for p in probes)
            + f"  median {setup_s:.4f}s  in-process build+warm-up {inproc_s:.3f}s")

        reference = None if small else load_reference(workload, seed)
        tracer = tracing.Tracer() if trace else None
        plain, traced = timed_rounds(wl, seconds, reference, tracer)
        rounds = plain + traced
        if tracer:
            if tracer.missing:
                problems.append(f"functions not found for tracing: {tracer.missing}")
            mismatch = _count_mismatch(traced)
            if mismatch:
                problems.append(f"counts differ between traced rounds: {mismatch}")
            tracer.dump(WORK / f"spans-{workload}.jsonl.gz")
            metrics = per_layer(plain, traced)
        else:
            metrics = end_to_end(plain, setup_s)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(len(r.latencies) for r in rounds)
    failures = [f for r in rounds for f in r.failures]
    report += _summary_lines(plain, traced, attempted, failures, reference is not None)
    report += [f"failed {key}: {msg}" for key, msg in failures[:20]]
    report += [f"problem: {p}" for p in problems]
    report += [f"{name} = {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
    result = {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    return result, report


def _summary_lines(plain, traced, attempted, failures, referenced):
    lines = [f"rounds {len(plain)} untraced + {len(traced)} traced; requests {attempted}; "
             f"fail_ratio {len(failures)}/{attempted} = {len(failures) / attempted:.4g}; "
             f"seed-commit reference {'compared' if referenced else 'not used on this seed'}"]
    for label, rounds in (("untraced", plain), ("traced", traced)):
        lat = sorted(t for r in rounds for _, t in r.latencies)
        if not lat:
            continue
        parts = []
        for q in PERCENTILES:
            v = percentile(lat, q) if q != 50 else statistics.median(lat)
            parts.append(f"p{q} " + (f"{1e3 * v:.4g} ms" if v is not None else "n/a"))
        lines.append(f"{label} req_ms ({len(lat)} samples): " + ", ".join(parts)
                     + f"; wall_s {statistics.median(r.wall for r in rounds):.4g}")
        kinds = {}
        for r in rounds:
            for kind, t in r.latencies:
                kinds.setdefault(kind, []).append(t)
        lines.append(f"{label} median ms by kind: " + ", ".join(
            f"{k} {1e3 * statistics.median(v):.4g} (x{len(v)})" for k, v in kinds.items()))
    return lines


def main(argv=None):
    args = parse_args(argv)
    try:
        import splitkl
        import splitkl.cli  # noqa: F401
    except ImportError as exc:
        print(f"error: cannot import splitkl from {SRC}: {exc}", file=sys.stderr)
        return 2
    if Path(splitkl.__file__).resolve().parent.parent != SRC:
        print(f"error: imported splitkl from {splitkl.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        print(json.dumps(setup_probe(args.workload, args.seed, args.setup_probe)))
        return 0
    result, report = run_benchmark(args.workload, args.seed, args.seconds, args.trace)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
