"""Self-test of the benchmark at reduced size.

    python3 -m pytest perfbench -q

Checks that every metric named in BENCHMARK.json is emitted with its unit
on each workload, that traced counts repeat exactly on the same seed, that
a wrong answer is counted as a failed request, and that the benchmark
refuses to run without the sources.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (puts src/ on sys.path)
import workloads  # noqa: E402
from splitkl import concentration  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# A counter each workload must move, proving the tracer reached its layer
# (including names that other modules re-bind at import time).
LAYER_REACHED = {
    "scalar_api": "klcore.kl_inv_scalar.calls",
    "mc_sweep": "klcore.kl_inv_vector.elements",
    "mv_grid": "majority_vote.alpha_stats.calls",
    "mv_ingest": "cli.rows_parsed",
}


def small_run(workload, trace, seed=1):
    result, _ = run.run_benchmark(workload, seed, seconds=0.01, trace=trace, small=True,
                                  setup_repeats=0)
    return result


def units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_end_to_end_metrics_emitted(workload):
    result = small_run(workload, trace=0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert units(result) == {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_metrics_emitted_and_counts_repeat(workload):
    first, second = small_run(workload, trace=1), small_run(workload, trace=1)
    assert first["correct"] and second["correct"]
    assert units(first) == {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}

    def counts(result):
        return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}

    assert counts(first) == counts(second)
    assert counts(first)[LAYER_REACHED[workload]] > 0


def test_wrong_answer_counts_as_failure(monkeypatch):
    real = concentration.split_kl_bound
    monkeypatch.setattr(concentration, "split_kl_bound", lambda s, delta: real(s, delta) - 1.0)
    result = small_run("scalar_api", trace=0)
    assert not result["correct"]
    assert 1 <= result["failed"] < result["attempted"]


def test_moved_output_fails_the_reference_check():
    run.WORK.mkdir(exist_ok=True)
    work = tempfile.mkdtemp(prefix="reference-check-", dir=run.WORK)
    wl = workloads.build("scalar_api", 1, work, small=True)
    shutil.rmtree(work)
    req = next(r for r in wl.requests if r.kind == "kl_upper_bound")
    value = req.call()
    assert run._check(req, value, {req.key: [value * (1 + 1e-10)]}) == []
    assert run._check(req, value, {req.key: [value * (1 + 1e-6)]})


def test_command_prints_result_last():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "mv_grid", "--seed", "3",
         "--seconds", "0.1", "--trace", "0"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and set(result["metrics"]) == set(units(result))


def test_fails_without_sources():
    run.WORK.mkdir(exist_ok=True)
    bare = Path(tempfile.mkdtemp(prefix="bare-", dir=run.WORK))
    try:
        shutil.copy(run.ROOT / "BENCHMARK.json", bare)
        shutil.copytree(run.HERE, bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "scalar_api", "--seed", "1",
             "--seconds", "1", "--trace", "0"],
            capture_output=True, text=True, timeout=170, cwd=bare,
        )
    finally:
        shutil.rmtree(bare)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
