import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from splitkl.cli import main, read_loss_csv, write_loss_csv
from splitkl.majority_vote import compute_tandem_stats
from splitkl.simulation import synth_ensemble


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def write_sample(tmp_path, lines, name="sample.txt"):
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n")
    return str(path)


# ---------------------------------------------------------------------------
# bound
# ---------------------------------------------------------------------------


def test_bound_eb_on_zero_file(tmp_path, capsys):
    path = write_sample(tmp_path, ["# lo=0 hi=1 mu=0.5"] + ["0"] * 100)
    assert run(["bound", path, "--bound", "eb"]) == 0
    out = json.loads(capsys.readouterr().out)
    expect = 7.0 * math.log(40.0) / (3.0 * 99.0)
    assert out["bounds"][0]["name"] == "eb"
    assert out["bounds"][0]["value"] == pytest.approx(expect, rel=1e-11)


def test_bound_all_on_ternary_file(tmp_path, capsys):
    rng = np.random.default_rng(0)
    z = rng.choice(["-1", "0", "1"], size=200)
    path = write_sample(tmp_path, ["# lo=-1 hi=1 mu=0"] + list(z))
    assert run(["bound", path]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [b["name"] for b in out["bounds"]] == ["kl", "eb", "ub", "skl"]
    for b in out["bounds"]:
        assert np.isfinite(b["value"])


def test_bound_empty_file_exit_2(tmp_path, capsys):
    path = write_sample(tmp_path, [""])
    assert run(["bound", path]) == 2


def test_bound_parse_error_reports_line(tmp_path, capsys):
    path = write_sample(tmp_path, ["0.1", "oops", "0.2"])
    assert run(["bound", path]) == 2
    assert "line 2" in capsys.readouterr().err


def test_bound_undecodable_file_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_bytes(b"# lo=0 hi=1\n0.5\n\xff\xfe\n")
    assert run(["bound", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("bound", ["kl", "eb", "ub", "skl", "all"])
def test_bound_non_finite_sample_exit_2(tmp_path, capsys, bad, bound):
    path = write_sample(tmp_path, ["# lo=0 hi=1", "0.5", bad, "0.2"])
    assert run(["bound", path, "--bound", bound]) == 2
    assert f"line 3: not a finite number: '{bad}'" in capsys.readouterr().err


@pytest.mark.parametrize("header, flags", [
    ("# lo=nan hi=1", []), ("# lo=0 hi=inf", []), ("# mu=nan", []),
    ("", ["--lo=-inf"]), ("", ["--hi", "nan"]), ("", ["--mu", "inf"]),
])
def test_bound_non_finite_range_exit_2(tmp_path, capsys, header, flags):
    path = write_sample(tmp_path, [header, "0.5", "0.2"])
    assert run(["bound", path, *flags]) == 2
    assert "need finite lo < hi and mu" in capsys.readouterr().err


def test_bound_domain_violation_exit_3(tmp_path, capsys):
    path = write_sample(tmp_path, ["# lo=0 hi=1", "0.5", "2.5"])
    assert run(["bound", path]) == 3


@pytest.mark.parametrize("bound, message", [
    ("eb", "eb bound is not finite"),
    ("all", "eb bound is not finite"),
    ("ub", "too large for a positive gamma grid"),
])
@pytest.mark.parametrize("clip", [[], ["--clip"]])
def test_bound_non_finite_result_exit_3(tmp_path, capsys, bound, message, clip):
    # the variance and the second moment overflow to inf
    path = write_sample(tmp_path, ["# lo=0 hi=1e308", "1e308", "0", "5e307"])
    with np.errstate(over="ignore"):
        assert run(["bound", path, "--bound", bound] + clip) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


@pytest.mark.parametrize("bound", ["kl", "all"])
def test_bound_samples_all_at_hi(tmp_path, capsys, bound):
    # the mean of three 0.1s rounds one ulp above hi
    path = write_sample(tmp_path, ["# lo=0 hi=0.1", "0.1", "0.1", "0.1"])
    assert run(["bound", path, "--bound", bound]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds"][0] == {"name": "kl", "value": 0.1, "delta": 0.05,
                                "params": {"n": 3, "lo": 0.0, "hi": 0.1}}


def test_bound_clip_flag(tmp_path, capsys):
    path = write_sample(tmp_path, ["# lo=0 hi=1 mu=0.5"] + ["1"] * 5)
    assert run(["bound", path, "--bound", "eb", "--clip"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["bounds"][0]["value"] == 1.0


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def test_simulate_deterministic_and_schema(tmp_path):
    out1, out2 = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
    args = ["simulate", "--mode", "symmetric", "--n", "50", "--repeats", "10",
            "--seed", "7"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    b1 = open(out1, "rb").read()
    assert b1 == open(out2, "rb").read()
    lines = b1.decode().splitlines()
    assert lines[0] == "param,bound,gap_mean,gap_std,repeats,n,delta,seed"
    assert len(lines) == 1 + 51 * 4


def test_simulate_thread_invariance(tmp_path):
    out1, out4 = str(tmp_path / "t1.csv"), str(tmp_path / "t4.csv")
    base = ["simulate", "--mode", "constant_mean", "--n", "40", "--repeats", "5",
            "--seed", "3"]
    assert run(base + ["--threads", "1", "--out", out1]) == 0
    assert run(base + ["--threads", "4", "--out", out4]) == 0
    assert open(out1, "rb").read() == open(out4, "rb").read()


@pytest.mark.parametrize("argv, message", [
    (["simulate", "--mode", "symmetric", "--n", "1"], "need n >= 2, got 1"),
    (["simulate", "--mode", "symmetric", "--repeats", "0"], "need repeats >= 1, got 0"),
    (["coverage", "--n", "1", "--trials", "100"], "need n >= 2, got 1"),
])
def test_monte_carlo_degenerate_sizes_exit_2(capsys, argv, message):
    # one sample leaves the sample variance and EB's 1 / (n - 1) undefined
    assert run(argv) == 2
    assert message in capsys.readouterr().err


GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, golden", [
    (["simulate", "--mode", "skew_high", "--n", "50", "--repeats", "8", "--seed", "11"],
     "simulate_skew_high_n50_r8_seed11.csv"),
    (["simulate", "--mode", "spectrum", "--n", "40", "--repeats", "6", "--seed", "4"],
     "simulate_spectrum_n40_r6_seed4.csv"),
    # 1234 trials: two full 500-trial blocks and a ragged one of 234
    (["coverage", "--dist", "ternary", "--probs", "0.45,0.1,0.45", "--n", "20",
      "--trials", "1234", "--delta", "0.8", "--seed", "6"],
     "coverage_ternary_n20_t1234_d08_seed6.json"),
    # seeds of one and of two 32-bit words
    (["simulate", "--mode", "symmetric", "--n", "30", "--repeats", "5",
      "--seed", "4294967296"],
     "simulate_symmetric_n30_r5_seed4294967296.csv"),
    (["simulate", "--mode", "constant_mean", "--n", "30", "--repeats", "4",
      "--seed", "1"],
     "simulate_constant_mean_n30_r4_seed1.csv"),
    (["coverage", "--dist", "ternary", "--probs", "0.3,0.2,0.5", "--n", "20",
      "--trials", "700", "--delta", "0.3", "--seed", "4294967296"],
     "coverage_ternary_n20_t700_d03_seed4294967296.json"),
    (["coverage", "--dist", "beta", "--shape", "0.5,2", "--n", "20",
      "--trials", "600", "--delta", "0.8", "--seed", "1"],
     "coverage_beta_n20_t600_d08_seed1.json"),
])
def test_monte_carlo_output_matches_golden_bytes(capsys, argv, golden):
    # batching the kl inversions over all rows of a sweep or coverage run
    # must not move a single printed digit
    assert run(argv) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


@pytest.mark.parametrize("command", [
    ["simulate", "--mode", "symmetric", "--n", "30", "--repeats", "2"],
    ["coverage", "--n", "20", "--trials", "100"],
    ["mv", "--synthetic", "correlated", "--h-count", "3", "--n-examples", "50"],
])
@pytest.mark.parametrize("seed", [-1, 2**63, 2**63 + 1])
def test_seed_outside_63_bits_exit_2(capsys, command, seed):
    # the streams take a seed mod 2**63, so 2**63 + 1 printed the rows of seed 1
    assert run(command + ["--seed", str(seed)]) == 2
    assert f"seed must lie in [0, 2**63), got {seed}" in capsys.readouterr().err


def test_simulate_unknown_mode_exit_2(capsys):
    assert run(["simulate", "--mode", "bogus"]) == 2


def test_simulate_spectrum_param_span(tmp_path):
    out = str(tmp_path / "s.csv")
    assert run(["simulate", "--mode", "spectrum", "--n", "40", "--repeats", "5",
                "--out", out]) == 0
    params = sorted(
        {float(line.split(",")[0]) for line in open(out).read().splitlines()[1:]}
    )
    assert params[0] == pytest.approx(0.002, abs=1e-3)
    assert params[-1] == pytest.approx(0.998, abs=1e-3)


# ---------------------------------------------------------------------------
# coverage
# ---------------------------------------------------------------------------


def test_coverage_exit_0(tmp_path, capsys):
    assert run(["coverage", "--probs", "0.25,0.5,0.25", "--n", "60",
                "--trials", "500", "--seed", "1"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is True
    assert set(out["frequencies"]) == {"kl", "eb", "ub", "skl", "pbkl0"}
    assert out["ceiling"] == pytest.approx(
        0.05 + 3 * math.sqrt(0.05 * 0.95 / 500), rel=1e-9
    )


def test_coverage_small_trials_exit_2():
    assert run(["coverage", "--trials", "10"]) == 2


def test_coverage_beta_dist(capsys):
    assert run(["coverage", "--dist", "beta", "--shape", "2,5", "--n", "60",
                "--trials", "300", "--seed", "2"]) == 0


@pytest.mark.parametrize("flags", [
    ["--dist", "ternary", "--probs", "nan,0.5,0.5"],
    ["--dist", "ternary", "--probs", "0.5,0.5,inf"],
    ["--dist", "beta", "--shape", "nan,2"],
    ["--dist", "beta", "--shape", "inf,2"],
    ["--dist", "beta", "--shape", "2,-inf"],
])
def test_coverage_non_finite_distribution_exit_3(capsys, flags):
    assert run(["coverage", *flags, "--n", "20", "--trials", "100"]) == 3
    err = capsys.readouterr().err
    assert err.startswith("domain error: ") and "must be" in err
    assert "Traceback" not in err


def test_coverage_ceiling_breach_exit_1(capsys, monkeypatch):
    # frequencies above the delta + 3 sigma ceiling flip the exit code to 1
    import splitkl.simulation as simulation

    monkeypatch.setattr(
        simulation, "coverage_experiment",
        lambda *a, **k: {"kl": 0.5, "eb": 0.0, "ub": 0.0, "skl": 0.0, "pbkl0": 0.0},
    )
    assert run(["coverage", "--trials", "200", "--seed", "1"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["pass"] is False


# ---------------------------------------------------------------------------
# mv
# ---------------------------------------------------------------------------


def test_mv_requires_one_input(capsys):
    assert run(["mv"]) == 2
    assert run(["mv", "--synthetic", "independent", "--losses", "x.csv"]) == 2


def test_mv_synthetic_all_bounds(capsys):
    assert run(["mv", "--synthetic", "independent", "--h-count", "4",
                "--n-examples", "300", "--alpha-points", "5", "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert set(out["bounds"]) == {"tnd", "cctnd", "ccpbb", "ccpbub", "ccpbskl"}
    for entry in out["bounds"].values():
        assert entry["value"] > 0
        assert len(entry["rho"]) == 4
        # statistical validity on synthetic truth: bound covers the
        # evaluation risk up to its own 3 sigma estimation noise
        risk = entry["eval_risk"]
        sigma = math.sqrt(max(risk * (1 - risk), 1e-12) / 10000)
        assert entry["value"] >= risk - 3 * sigma


def test_mv_alpha_zero_collapse(capsys):
    assert run(["mv", "--synthetic", "independent", "--h-count", "4",
                "--n-examples", "300", "--bounds", "tnd,ccpbskl",
                "--alpha", "0", "--seed", "6"]) == 0
    out = json.loads(capsys.readouterr().out)
    tnd = out["bounds"]["tnd"]["value"]
    skl = out["bounds"]["ccpbskl"]["value"]
    assert abs(tnd - skl) <= 1e-12


def test_mv_infinite_gamma_is_valid_json(capsys):
    # identical hypotheses never err alone, so at alpha > 0 the minus split
    # is empty and CCPBSkl's gamma is infinite
    assert run(["mv", "--synthetic", "identical", "--h-count", "4",
                "--n-examples", "300", "--bounds", "ccpbskl", "--alpha", "0.2"]) == 0

    def reject(constant):
        raise ValueError(f"{constant} is not JSON")

    out = json.loads(capsys.readouterr().out, parse_constant=reject)
    assert out["bounds"]["ccpbskl"]["params"]["gam"] is None


@pytest.mark.parametrize("flags, code, message", [
    (["--alpha-points", "-1"], 2, "need --alpha-points >= 0, got -1"),
    (["--bagging-rate", "nan"], 3, "need a finite bagging_rate > 0, got nan"),
    (["--bagging-rate", "-1"], 3, "need a finite bagging_rate > 0, got -1.0"),
    (["--bagging-rate", "inf"], 3, "need a finite bagging_rate > 0, got inf"),
    (["--error-rate", "nan"], 3, "need error_rate in [0, 1], got nan"),
    (["--error-rate", "2"], 3, "need error_rate in [0, 1], got 2.0"),
    (["--error-rate", "-0.1"], 3, "need error_rate in [0, 1], got -0.1"),
])
def test_mv_out_of_range_numeric_flags(capsys, flags, code, message):
    assert run(["mv", "--synthetic", "independent", "--h-count", "3",
                "--n-examples", "100", "--bounds", "tnd", *flags]) == code
    assert message in capsys.readouterr().err


def test_mv_alpha_and_alpha_points_are_mutually_exclusive(capsys):
    # --alpha-points was ignored next to --alpha: the output was byte-identical
    assert run(["mv", "--synthetic", "correlated", "--h-count", "3", "--n-examples", "100",
                "--alpha", "0.2", "--alpha-points", "5"]) == 2
    assert "not allowed with argument" in capsys.readouterr().err


def test_mv_single_hypothesis_value(tmp_path, capsys):
    # single hypothesis: TND value is 4 kl_inv_upper(L, ln(4 sqrt(m)/d)/m)
    lines = ["hypothesis_id,example_id,loss,oob"]
    rng = np.random.default_rng(7)
    losses = (rng.uniform(size=50) < 0.2).astype(int)
    for e, val in enumerate(losses):
        lines.append(f"0,{e},{val},1")
    path = tmp_path / "loss.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["mv", "--losses", str(path), "--bounds", "tnd"]) == 0
    out = json.loads(capsys.readouterr().out)
    from splitkl.klcore import kl_inv_upper

    expect = 4.0 * kl_inv_upper(losses.mean(), math.log(4 * math.sqrt(50) / 0.05) / 50)
    assert out["bounds"]["tnd"]["value"] == pytest.approx(expect, rel=1e-9)


def test_mv_empty_pair_exit_3(tmp_path, capsys):
    lines = ["hypothesis_id,example_id,loss,oob"]
    for e in range(4):
        lines.append(f"0,{e},0,{1 if e < 2 else 0}")
        lines.append(f"1,{e},0,{0 if e < 2 else 1}")
    path = tmp_path / "loss.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["mv", "--losses", str(path), "--bounds", "tnd"]) == 3
    assert "(0, 1)" in capsys.readouterr().err


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mv_ccpbb_on_a_pair_sharing_one_example_exit_3(tmp_path, capsys):
    # CCPBB's lambda range (0, 2(m-1)/m) is empty at m = 1: this printed a
    # RuntimeWarning and exited 3 with "non-finite gradient"
    lines = ["hypothesis_id,example_id,loss,oob"]
    for e in range(5):
        lines += [f"0,{e},{e % 2},{int(e <= 2)}", f"1,{e},{(e + 1) % 2},{int(e >= 2)}"]
    path = tmp_path / "loss.csv"
    path.write_text("\n".join(lines) + "\n")
    assert run(["mv", "--losses", str(path), "--bounds", "ccpbb"]) == 3
    assert "got m = 1" in capsys.readouterr().err
    assert run(["mv", "--losses", str(path), "--bounds", "tnd,cctnd,ccpbub,ccpbskl"]) == 0


def test_mv_malformed_csv_exit_2(tmp_path):
    path = tmp_path / "loss.csv"
    path.write_text("hypothesis,example\n0,0\n")
    assert run(["mv", "--losses", str(path), "--bounds", "tnd"]) == 2


def test_loss_csv_round_trip(tmp_path):
    plm, _ = synth_ensemble(4, 200, "independent", seed=8, eval_size=10)
    path = str(tmp_path / "dump.csv")
    write_loss_csv(plm, path)
    again, _ = read_loss_csv(path)
    assert np.array_equal(plm.losses, again.losses)
    assert np.array_equal(plm.mask, again.mask)
    a, b = compute_tandem_stats(plm), compute_tandem_stats(again)
    assert np.array_equal(a.tandem_loss, b.tandem_loss)
    assert (a.n, a.m) == (b.n, b.m)


def test_mv_deterministic_output(tmp_path):
    out1, out2 = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    args = ["mv", "--synthetic", "correlated", "--h-count", "4",
            "--n-examples", "300", "--bounds", "tnd,cctnd",
            "--alpha-points", "5", "--seed", "9"]
    assert run(args + ["--out", out1]) == 0
    assert run(args + ["--out", out2]) == 0
    assert open(out1, "rb").read() == open(out2, "rb").read()


GOLDEN_MV = GOLDEN / "mv_correlated_h4_n300_a5_seed3.json"


def test_mv_output_matches_golden_bytes(capsys):
    # the majority-vote fast paths keep every float operation of the
    # reference implementation, so stdout must not change by one byte
    args = ["mv", "--synthetic", "correlated", "--h-count", "4",
            "--n-examples", "300", "--alpha-points", "5", "--seed", "3"]
    assert run(args) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_MV.read_bytes()


# the benchmark's shape on the default 100-point grid, all five bounds, and
# one fixed-alpha run; captured before the alpha grid was batched
@pytest.mark.parametrize("flags, golden", [
    (["--seed", "0"], "mv_correlated_h7_n2000_seed0.json"),
    (["--seed", "1"], "mv_correlated_h7_n2000_seed1.json"),
    (["--alpha", "-0.3", "--seed", "2"], "mv_correlated_h7_n2000_seed2_alpha-0.3.json"),
])
def test_mv_default_grid_matches_golden_bytes(capsys, flags, golden):
    args = ["mv", "--synthetic", "correlated", "--h-count", "7", "--n-examples", "2000"]
    assert run(args + flags) == 0
    assert capsys.readouterr().out.encode() == (GOLDEN / golden).read_bytes()


def test_mv_huge_bagging_rate_exit_3(capsys):
    # rejected before the bootstrap draw would ask for 1e15 indices
    assert run(["mv", "--synthetic", "independent", "--h-count", "3", "--n-examples", "100",
                "--bagging-rate", "1e13"]) == 3
    assert "expected pairwise OOB overlap" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["bound", "SAMPLE", "--out", "TARGET"],
    ["simulate", "--mode", "symmetric", "--n", "10", "--repeats", "1", "--out", "TARGET"],
    ["coverage", "--n", "20", "--trials", "100", "--out", "TARGET"],
    ["mv", "--synthetic", "independent", "--h-count", "3", "--n-examples", "100",
     "--bounds", "tnd", "--out", "TARGET"],
    ["mv", "--synthetic", "independent", "--h-count", "3", "--n-examples", "100",
     "--bounds", "tnd", "--dump-losses", "TARGET"],
])
@pytest.mark.parametrize("target", [".", "missing/out.txt"])
def test_unwritable_output_exit_2(tmp_path, capsys, argv, target):
    # a directory or a missing parent directory exited 1, coverage's
    # ceiling-failure code, with a traceback
    sample = write_sample(tmp_path, ["0.5"] * 10)
    target = str(tmp_path / target)
    argv = [sample if a == "SAMPLE" else target if a == "TARGET" else a for a in argv]
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot write ") and err.count("\n") == 1


@pytest.mark.parametrize("flags", [["--bounds", "bogus"], ["--alpha-points", "-1"]])
def test_mv_flag_errors_write_no_dump(tmp_path, flags):
    dump = tmp_path / "x.csv"
    assert run(["mv", "--synthetic", "correlated", "--h-count", "3", "--n-examples", "100",
                "--dump-losses", str(dump), *flags]) == 2
    assert not dump.exists()


@pytest.mark.parametrize("out", [[], ["--out", "-"]])
def test_mv_dump_losses_and_json_both_on_stdout_exit_2(capsys, out):
    # the CSV came out ahead of the JSON, so stdout was not valid JSON
    argv = ["mv", "--synthetic", "independent", "--h-count", "2", "--n-examples", "4",
            "--bounds", "tnd", "--dump-losses", "-"]
    assert run(argv + out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--dump-losses - needs --out FILE" in captured.err


@pytest.mark.parametrize("dump, out, code", [
    ("x.csv", "x.csv", 2), ("./x.csv", "x.csv", 2), ("x.csv", "y.json", 0)])
def test_mv_dump_losses_and_out_naming_one_file(tmp_path, monkeypatch, dump, out, code):
    # the JSON overwrote the dump, and the command exited 0
    monkeypatch.chdir(tmp_path)
    assert run(["mv", "--synthetic", "independent", "--h-count", "2", "--n-examples", "4",
                "--bounds", "tnd", "--dump-losses", dump, "--out", out]) == code
    assert sorted(p.name for p in tmp_path.iterdir()) == ([] if code else ["x.csv", "y.json"])


@pytest.mark.parametrize("dump", ["/dev/stdout", "/dev/fd/1"])
def test_mv_dump_losses_to_dev_stdout_with_json_on_stdout_exit_2(dump):
    # the CSV came out ahead of the JSON; a subprocess, as pytest replaces stdout
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "splitkl.cli", "mv", "--synthetic", "independent", "--h-count",
         "2", "--n-examples", "4", "--bounds", "tnd", "--dump-losses", dump],
        env={**os.environ, "PYTHONPATH": path}, capture_output=True, text=True, check=False,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert f"--dump-losses {dump} needs --out FILE" in proc.stderr


def test_mv_dump_losses_to_stdout_with_json_to_a_file(tmp_path, capsys):
    path = tmp_path / "mv.json"
    assert run(["mv", "--synthetic", "independent", "--h-count", "2", "--n-examples", "4",
                "--bounds", "tnd", "--dump-losses", "-", "--out", str(path)]) == 0
    dumped = capsys.readouterr().out
    assert dumped.startswith("hypothesis_id,example_id,loss,oob\n")
    assert len(dumped.splitlines()) == 1 + 2 * 4
    assert set(json.loads(path.read_text())["bounds"]) == {"tnd"}


def test_exit_code_contract_bad_delta():
    assert run(["coverage", "--delta", "1.5", "--trials", "200"]) == 2
