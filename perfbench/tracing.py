"""Span tracer for the traced benchmark run.

The tracer wraps public functions of the ``splitkl`` modules from outside:
no code under ``src/`` knows about it.  Each wrapped call records one span
(name, start, end, parent span, request id) or, for the hottest helpers,
only increments a counter.  Because modules re-bind names at import time
(``from .klcore import kl_inv_upper`` in four modules), a wrapper replaces
*every* module attribute that refers to the original function, not just
the defining one.

Spans stay in memory; :meth:`Tracer.round_stats` turns the spans of one
round into per-layer numbers and :meth:`Tracer.dump` writes them out when
the run ends.
"""

import gzip
import json
import sys
import time
from collections import Counter

import numpy as np

_perf = time.perf_counter

# (module, function, span name).  Spans sharing a name are aggregated as one
# layer; nested spans of the same name count once toward its time.
SPANNED = [
    ("klcore", "binomial_tail_inverse", "klcore.binomial_tail_inverse"),
    ("klcore", "discrete_kl", "klcore.discrete_kl"),
    *[("concentration", f, "concentration.bounds") for f in (
        "kl_upper_bound", "kl_lower_bound", "empirical_bernstein_bound",
        "unexpected_bernstein_bound", "unexpected_bernstein_grid_bound",
        "split_kl_bound",
    )],
    *[("pacbayes", f, "pacbayes.bounds") for f in (
        "pb_kl_bound", "pb_kl_pinsker_relaxation", "pb_unexpected_bernstein",
        "pb_unexpected_bernstein_grid", "pb_split_kl", "test_set_bound",
        "excess_informed_bound", "pb_lambda_upper", "pb_lambda_lower",
        "optimal_lambda", "optimal_gamma",
    )],
    ("majority_vote", "compute_tandem_stats", "majority_vote.compute_tandem_stats"),
    ("majority_vote", "alpha_stats", "majority_vote.alpha_stats"),
    *[("majority_vote", f"{b}_bound", f"majority_vote.{b}_bound") for b in (
        "tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl",
    )],
    ("majority_vote", "mv_risk", "majority_vote.mv_risk"),
    ("simulation", "sample_ternary", "simulation.sample"),
    ("simulation", "sample_beta", "simulation.sample"),
    ("simulation", "sweep_ternary", "simulation.sweep"),
    ("simulation", "sweep_beta", "simulation.sweep"),
    ("simulation", "coverage_experiment", "simulation.coverage"),
    ("simulation", "synth_ensemble", "simulation.synth_ensemble"),
    ("cli", "main", "cli.main"),
    ("cli", "read_loss_csv", "cli.read_loss_csv"),
    ("cli", "read_eval_csv", "cli.read_eval_csv"),
]

# Called too often for a span each; counted only.
COUNTED = [
    ("klcore", "bernoulli_kl", "klcore.bernoulli_kl.calls"),
    ("klcore", "binomial_tail", "klcore.binomial_tail.calls"),
    ("pacbayes", "lambda_star", "pacbayes.lambda_star.calls"),
    ("pacbayes", "gamma_star", "pacbayes.gamma_star.calls"),
    ("majority_vote", "project_simplex", "majority_vote.project_simplex.calls"),
]

MV_BOUNDS = ("tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl")

# Every per-layer metric the traced run reports, with its unit.
PER_LAYER = [
    ("klcore.kl_inv_scalar.calls", "count"),
    ("klcore.kl_inv_scalar.s", "s"),
    ("klcore.bernoulli_kl.calls", "count"),
    ("klcore.kl_inv_vector.calls", "count"),
    ("klcore.kl_inv_vector.elements", "count"),
    ("klcore.kl_inv_vector.s", "s"),
    ("klcore.binomial_tail_inverse.calls", "count"),
    ("klcore.binomial_tail_inverse.s", "s"),
    ("klcore.binomial_tail.calls", "count"),
    ("klcore.discrete_kl.calls", "count"),
    ("klcore.discrete_kl.s", "s"),
    ("concentration.bounds.calls", "count"),
    ("concentration.bounds.s", "s"),
    ("concentration.bounds.self_s", "s"),
    ("pacbayes.bounds.calls", "count"),
    ("pacbayes.bounds.s", "s"),
    ("pacbayes.bounds.self_s", "s"),
    ("pacbayes.lambda_star.calls", "count"),
    ("pacbayes.gamma_star.calls", "count"),
    ("majority_vote.compute_tandem_stats.calls", "count"),
    ("majority_vote.compute_tandem_stats.s", "s"),
    ("majority_vote.alpha_stats.calls", "count"),
    ("majority_vote.alpha_stats.s", "s"),
    *[(f"majority_vote.{b}_bound.{stat}", unit) for b in MV_BOUNDS
      for stat, unit in (("calls", "count"), ("s", "s"))],
    *[(f"majority_vote.{b}_optimize.{stat}", unit) for b in MV_BOUNDS
      for stat, unit in (("s", "s"), ("outer_iterations", "count"))],
    ("majority_vote.irprop_plus.calls", "count"),
    ("majority_vote.irprop_plus.s", "s"),
    ("majority_vote.irprop_plus.self_s", "s"),
    ("majority_vote.irprop_plus.objective_evals", "count"),
    ("majority_vote.project_simplex.calls", "count"),
    ("majority_vote.mv_risk.s", "s"),
    ("simulation.sample.calls", "count"),
    ("simulation.sample.s", "s"),
    ("simulation.sweep.s", "s"),
    ("simulation.sweep.self_s", "s"),
    ("simulation.coverage.s", "s"),
    ("simulation.coverage.self_s", "s"),
    ("simulation.synth_ensemble.s", "s"),
    ("cli.main.s", "s"),
    ("cli.main.self_s", "s"),
    ("cli.read_loss_csv.s", "s"),
    ("cli.read_eval_csv.s", "s"),
    ("cli.rows_parsed", "count"),
    ("trace.overhead_s", "s"),
]


class Tracer:
    """Records spans and counters for calls into ``splitkl`` while installed.

    The benchmark installs it around each traced call only, so its own
    correctness checks, which call the library too, stay out of the trace.
    """

    def __init__(self):
        self.spans = []  # (id, parent, request, name, start, end, self_s, outer)
        self.counts = Counter()
        self.request_id = 0
        self.missing = []
        self._stack = []  # [span id, name, start, child time]
        self._depth = Counter()  # open spans per name
        self._next_id = 0
        self._patched = []  # (module, attribute, original)
        self._modules = []
        self._wrappers = None  # id(original) -> wrapper, made on first install

    # -- recording ---------------------------------------------------------

    def _call(self, name, fn, args, kwargs):
        span_id = self._next_id
        self._next_id += 1
        outer = self._depth[name] == 0
        self._depth[name] += 1
        frame = [span_id, name, 0.0, 0.0]
        self._stack.append(frame)
        frame[2] = _perf()
        try:
            return fn(*args, **kwargs)
        finally:
            end = _perf()
            self._stack.pop()
            self._depth[name] -= 1
            dur = end - frame[2]
            parent = self._stack[-1] if self._stack else None
            if parent is not None:
                parent[3] += dur
            self.spans.append((
                span_id, parent[0] if parent else None, self.request_id, name,
                frame[2], end, dur - frame[3], outer,
            ))

    def _span(self, name, fn):
        def wrapped(*args, **kwargs):
            return self._call(name, fn, args, kwargs)
        return wrapped

    def _counted(self, key, fn):
        def wrapped(*args, **kwargs):
            self.counts[key] += 1
            return fn(*args, **kwargs)
        return wrapped

    def _kl_inv(self, fn):
        def wrapped(p_hat, eps):
            if np.ndim(p_hat) or np.ndim(eps):
                self.counts["klcore.kl_inv_vector.elements"] += np.broadcast(p_hat, eps).size
                return self._call("klcore.kl_inv_vector", fn, (p_hat, eps), {})
            return self._call("klcore.kl_inv_scalar", fn, (p_hat, eps), {})
        return wrapped

    def _irprop(self, fn):
        def wrapped(gradient, objective, *args, **kwargs):
            def counted_objective(x):
                self.counts["majority_vote.irprop_plus.objective_evals"] += 1
                return objective(x)
            return self._call("majority_vote.irprop_plus", fn,
                              (gradient, counted_objective, *args), kwargs)
        return wrapped

    def _optimize(self, name, fn):
        def wrapped(*args, **kwargs):
            result = self._call(name, fn, args, kwargs)
            self.counts[f"{name}.outer_iterations"] += int(result[-1].params["iterations"])
            return result
        return wrapped

    def _rows(self, fn):
        def wrapped(*args, **kwargs):
            rows = fn(*args, **kwargs)
            self.counts["cli.rows_parsed"] += len(rows)
            return rows
        return wrapped

    # -- patching ----------------------------------------------------------

    def _build(self):
        """Make one wrapper per traced function, keyed by the original's id."""
        import splitkl

        self._modules = [m for n, m in sys.modules.items()
                         if n == "splitkl" or n.startswith("splitkl.")]
        plan = [(mod, fn, lambda f, s=span: self._span(s, f)) for mod, fn, span in SPANNED]
        plan += [(mod, fn, lambda f, k=key: self._counted(k, f)) for mod, fn, key in COUNTED]
        plan += [("klcore", "kl_inv_upper", self._kl_inv), ("klcore", "kl_inv_lower", self._kl_inv),
                 ("majority_vote", "irprop_plus", self._irprop), ("cli", "_read_csv_rows", self._rows)]
        plan += [("majority_vote", f"{b}_optimize",
                  lambda f, s=f"majority_vote.{b}_optimize": self._optimize(s, f))
                 for b in MV_BOUNDS]
        self._wrappers = {}
        for mod_name, attr, make in plan:
            original = getattr(getattr(splitkl, mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
            else:
                self._wrappers[id(original)] = make(original)

    def install(self):
        """Replace every reference to a traced function in ``splitkl.*``."""
        if self._wrappers is None:
            self._build()
        for module in self._modules:
            for name, value in list(vars(module).items()):
                wrapper = self._wrappers.get(id(value))
                if wrapper is not None:
                    setattr(module, name, wrapper)
                    self._patched.append((module, name, value))

    def uninstall(self):
        for module, name, original in reversed(self._patched):
            setattr(module, name, original)
        self._patched = []

    # -- reporting ---------------------------------------------------------

    def mark(self):
        """Position to pass to :meth:`round_stats` for the spans that follow."""
        return len(self.spans), Counter(self.counts)

    def round_stats(self, mark):
        """Per-layer numbers for the spans and counts recorded since ``mark``."""
        first, counts_before = mark
        stats = Counter()
        for _, _, _, name, start, end, self_s, outer in self.spans[first:]:
            stats[f"{name}.calls"] += 1
            stats[f"{name}.self_s"] += self_s
            if outer:
                stats[f"{name}.s"] += end - start
        counts = Counter(self.counts)
        counts.subtract(counts_before)
        stats.update(counts)
        return stats

    def dump(self, path):
        """Write every recorded span as one JSON object per line, gzipped."""
        keys = ("id", "parent", "request", "name", "start", "end", "self_s")
        with gzip.open(path, "wt") as fh:
            for span in self.spans:
                fh.write(json.dumps(dict(zip(keys, span))) + "\n")
