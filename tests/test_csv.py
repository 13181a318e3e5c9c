"""The loss and eval CSV contract of ``splitkl mv``: what is rejected, with
which message, what is accepted, and that a read reproduces the matrices."""

import json
import os
import threading
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from splitkl.cli import (
    EVAL_CSV_HEADER,
    LOSS_CSV_HEADER,
    _id_index,
    main,
    read_eval_csv,
    read_loss_csv,
    write_loss_csv,
)
from splitkl.simulation import synth_ensemble

GOLDEN = Path(__file__).parent / "golden"

# two hypotheses sharing both out-of-bag examples, and a dense eval set
LOSS_ROWS = "0,0,0,1\n0,1,1,1\n1,0,1,1\n1,1,0,1\n"
EVAL_ROWS = "0,0,1,1\n0,1,0,0\n1,0,1,1\n1,1,1,0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode(errors="surrogateescape"))
    return str(path)


def _pipe_read(reader, text):
    """``reader`` on ``/dev/fd/<r>`` of a pipe that a thread fills with ``text``."""
    r, w = os.pipe()

    def feed():
        try:
            with os.fdopen(w, "wb") as fh:
                fh.write(text.encode(errors="surrogateescape"))
        except BrokenPipeError:  # the reader closed the pipe early
            pass

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        return reader(f"/dev/fd/{r}")
    finally:
        os.close(r)
        writer.join()


def _file_and_pipe(tmp_path, reader, text):
    """``(reader(path), path)`` for ``text`` in a regular file, which the CSV
    readers stream, and in a pipe, which they read whole first."""
    path = _write(tmp_path, "input.csv", text)
    results = [(reader(path), path)]
    if os.path.isdir("/dev/fd"):
        results.append(_pipe_read(lambda fd_path: (reader(fd_path), fd_path), text))
    return results


def _mv(losses, evals=None):
    argv = ["mv", "--losses", losses, "--bounds", "tnd", "--alpha", "0"]
    return main(argv + (["--eval", evals] if evals else []))


# ---------------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------------

# (file, text, message, line): ``file`` is the schema the bad text is put
# in, ``message`` a part of the error with PATH for the file's path, and
# ``line`` the 1-based line the message names, or None if it names none
_PAST_8K = LOSS_CSV_HEADER + "\n" + "0,0,0,1\n" * 1200  # 9634 bytes
REJECTIONS = {
    "bad header": ("loss", "hypothesis,example,loss,oob\n" + LOSS_ROWS,
                   "expected header", None),
    "empty file": ("loss", "", "expected header", None),
    "ragged line": ("loss", LOSS_CSV_HEADER + "\n0,0,0,1\n\n0,1,1\n", "expected 4 fields", 4),
    "non-integer": ("loss", LOSS_CSV_HEADER + "\n0,0,0,1\n0,x,1,1\n", "non-integer field", 3),
    "float literal": ("loss", LOSS_CSV_HEADER + "\n0,0,0,1\n \n0,1,1.0,1\n",
                      "non-integer field", 4),
    "empty field": ("loss", LOSS_CSV_HEADER + "\n0,0,0,1\n0,1,1,\n", "non-integer field", 3),
    "trailing comma": ("loss", LOSS_CSV_HEADER + "\n0,0,0,1\n0,1,1,1,\n", "expected 4 fields", 3),
    "comment line": ("loss", LOSS_CSV_HEADER + "\n# note\n" + LOSS_ROWS, "expected 4 fields", 2),
    "header only": ("loss", LOSS_CSV_HEADER + "\n\n  \n", "no data rows", None),
    "loss not 0/1": ("loss", LOSS_CSV_HEADER + "\n0,0,2,1\n0,1,1,1\n",
                     "loss/oob must be 0 or 1", None),
    "oob not 0/1": ("loss", LOSS_CSV_HEADER + "\n0,0,0,-1\n0,1,1,1\n",
                    "loss/oob must be 0 or 1", None),
    "duplicate loss cell": ("loss", LOSS_CSV_HEADER + "\n" + LOSS_ROWS + "1,0,0,1\n",
                            "duplicate cell (1, 0)", None),
    # compact unsorted ids, two repeats after a whitespace-only line: the
    # message names the earlier one
    "blank then duplicates": ("loss", LOSS_CSV_HEADER
                              + "\n2,1,0,1\n \n0,0,0,1\n2,0,1,1\n0,0,1,1\n2,1,1,1\n",
                              "duplicate cell (0, 0)", None),
    "id beyond int64": ("loss", LOSS_CSV_HEADER + "\n" + LOSS_ROWS
                        + "99999999999999999999999,0,0,1\n", "int64", 6),
    # "\udcff" is written as the byte 0xff; the reader decodes what follows
    # the header's 8 KB chunk in one piece, and the position counts from there
    "undecodable byte past 8 KB": ("loss", _PAST_8K + "\udcff0,1,1,1\n",
                                   f"cannot read PATH: 'utf-8' codec can't decode byte 0xff "
                                   f"in position {len(_PAST_8K) - 8192}: invalid start byte",
                                   None),
    "digit separator": ("loss", LOSS_CSV_HEADER + "\n1_0,0,0,1\n" + LOSS_ROWS,
                        "non-integer field", 2),
    "eval bad header": ("eval", "hypothesis_id,example_id,loss,oob\n" + EVAL_ROWS,
                        "expected header", None),
    "eval ragged line": ("eval", EVAL_CSV_HEADER + "\n" + EVAL_ROWS + "1,1\n",
                         "expected 4 fields", 6),
    "eval header only": ("eval", EVAL_CSV_HEADER + "\n", "no data rows", None),
    "conflicting labels": ("eval", EVAL_CSV_HEADER + "\n" + EVAL_ROWS.replace("1,1,1,0", "1,1,1,1"),
                           "conflicting labels for example 1", None),
    "missing eval cell": ("eval", EVAL_CSV_HEADER + "\n" + EVAL_ROWS[:-8],
                          "missing (hypothesis, example) cells", None),
    "duplicate eval cell": ("eval", EVAL_CSV_HEADER + "\n" + EVAL_ROWS + "1,1,0,0\n",
                            "duplicate cell (1, 1)", None),
    "negative prediction": ("eval", EVAL_CSV_HEADER + "\n" + EVAL_ROWS.replace("0,1,0,0", "0,1,-1,0"),
                            "predictions must be non-negative", None),
    "negative label": ("eval", EVAL_CSV_HEADER + "\n"
                       + EVAL_ROWS.replace("0,1,0,0", "0,1,0,-1").replace("1,1,1,0", "1,1,1,-1"),
                       "labels must be non-negative", None),
}


@pytest.mark.parametrize("case", sorted(REJECTIONS))
def test_csv_rejection_exits_2_naming_the_file(tmp_path, capsys, case):
    # the same message through a file and through a pipe, its path aside
    schema, text, message, line = REJECTIONS[case]
    losses = _write(tmp_path, "loss.csv", LOSS_CSV_HEADER + "\n" + LOSS_ROWS)

    def run(path):
        code = _mv(path) if schema == "loss" else _mv(losses, path)
        return code, capsys.readouterr().err

    errs = set()
    for (code, err), bad in _file_and_pipe(tmp_path, run, text):
        assert code == 2
        assert message.replace("PATH", bad) in err
        assert (f"{bad} line {line}: " if line else f"{bad}: ") in err
        errs.add(err.replace(bad, "PATH"))
    assert len(errs) == 1


def test_header_only_prints_only_its_error(tmp_path, capsys):
    path = _write(tmp_path, "loss.csv", LOSS_CSV_HEADER + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert _mv(path) == 2
    assert capsys.readouterr().err == f"error: {path}: no data rows\n"


# ---------------------------------------------------------------------------
# accepted inputs
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("variant", [
    # blank and whitespace-only lines anywhere after the header
    "\n" + LOSS_ROWS.replace("\n", "\n \n\t\n", 2) + "\n\n",
    # CRLF line endings, the header's too
    LOSS_ROWS.replace("\n", "\r\n"),
    # and with no final newline
    LOSS_ROWS.replace("\n", "\r\n").rstrip("\r\n"),
    # fields padded with spaces and tabs, and signed zeros
    " +0 ,\t0\t, 0,1 \n 0,  1, 1 ,1\n1, -0,1,1\n\t1,1,0,1\n",
])
def test_loss_csv_accepted_variants(tmp_path, variant):
    plain, _ = read_loss_csv(_write(tmp_path, "plain.csv", LOSS_CSV_HEADER + "\n" + LOSS_ROWS))
    header = LOSS_CSV_HEADER + ("\r\n" if "\r" in variant else "\n")
    for (again, _), _ in _file_and_pipe(tmp_path, read_loss_csv, header + variant):
        assert np.array_equal(again.losses, plain.losses)
        assert np.array_equal(again.mask, plain.mask)


def test_eval_csv_accepts_blank_lines_and_padding(tmp_path):
    plain, _ = read_eval_csv(_write(tmp_path, "plain.csv", EVAL_CSV_HEADER + "\n" + EVAL_ROWS))
    padded = EVAL_ROWS.replace(",", " , ").replace("\n", "\r\n  \r\n")
    for (again, _), _ in _file_and_pipe(tmp_path, read_eval_csv,
                                         EVAL_CSV_HEADER + "\r\n\r\n" + padded):
        assert np.array_equal(again.predictions, plain.predictions)
        assert np.array_equal(again.labels, plain.labels)


def test_eval_hypothesis_ids_must_match_loss_ids(tmp_path, capsys):
    # the same hypothesis count under other ids would score the posterior on
    # the wrong hypotheses
    losses = _write(tmp_path, "loss.csv", LOSS_CSV_HEADER + "\n" + LOSS_ROWS)
    other_ids = "5,0,1,1\n5,1,0,0\n6,0,1,1\n6,1,1,0\n"  # EVAL_ROWS under ids 5 and 6
    evals = _write(tmp_path, "eval.csv", EVAL_CSV_HEADER + "\n" + other_ids)
    assert _mv(losses, evals) == 2
    assert "--eval hypothesis ids do not match the losses'" in capsys.readouterr().err
    matching = _write(tmp_path, "eval_ok.csv", EVAL_CSV_HEADER + "\n" + EVAL_ROWS)
    assert _mv(losses, matching) == 0
    # a synthetic ensemble's hypotheses are 0..H-1, as --dump-losses writes them
    synthetic = ["mv", "--synthetic", "independent", "--h-count", "2", "--n-examples", "60",
                 "--bounds", "tnd", "--alpha", "0", "--eval"]
    assert main(synthetic + [evals]) == 2
    assert main(synthetic + [matching]) == 0


@pytest.mark.parametrize("big", [2**40, -(2**40), 2**63 - 1])
def test_ids_beyond_int32_are_read_as_int64(tmp_path, capsys, big):
    # the int32 pass rejects such a field and the whole-text re-read takes it
    # as int64; the id is the second hypothesis's if positive, so the first
    # rows fit in int32, and the first's if negative, so the first row does not
    lo, hi = sorted((7, big))

    def remap(rows):  # hypothesis 0 to lo and 1 to hi
        return "".join(f"{(lo, hi)[int(line[0])]}{line[1:]}\n" for line in rows.splitlines())

    for reader, header, rows, fields in (
            (read_loss_csv, LOSS_CSV_HEADER, LOSS_ROWS, ("losses", "mask")),
            (read_eval_csv, EVAL_CSV_HEADER, EVAL_ROWS, ("predictions", "labels"))):
        plain, _ = reader(_write(tmp_path, "plain.csv", header + "\n" + rows))
        for (matrix, ids), _ in _file_and_pipe(tmp_path, reader, header + "\n" + remap(rows)):
            assert ids.dtype == np.int64 and ids.tolist() == [lo, hi]
            for field in fields:
                got, want = getattr(matrix, field), getattr(plain, field)
                assert got.dtype == want.dtype and np.array_equal(got, want), field

    def run(path):
        return _mv(path), capsys.readouterr().err

    # a loss field beyond int32 is read too, and rejected as a loss
    for (code, err), bad in _file_and_pipe(tmp_path, run,
                                           LOSS_CSV_HEADER + f"\n0,0,{2**40},1\n0,1,1,1\n"):
        assert code == 2 and f"{bad}: loss/oob must be 0 or 1" in err


def test_readers_return_sorted_hypothesis_ids(tmp_path):
    text = LOSS_CSV_HEADER + "\n7,0,0,1\n7,1,1,1\n3,0,1,1\n3,1,0,1\n"
    plm, ids = read_loss_csv(_write(tmp_path, "loss.csv", text))
    assert ids.tolist() == [3, 7] and plm.h_count == 2
    em, ids = read_eval_csv(_write(tmp_path, "eval.csv", EVAL_CSV_HEADER + "\n" + EVAL_ROWS))
    assert ids.tolist() == [0, 1] and em.predictions.shape == (2, 2)


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="no /dev/fd")
def test_readers_read_a_pipe_whole(tmp_path):
    # 2400 rows, well past the 8 KB chunk the header's readline buffers, so
    # a reader that opened the path a second time would lose rows
    plm, em = synth_ensemble(4, 600, "correlated", seed=0, eval_size=600)
    losses = tmp_path / "loss.csv"
    write_loss_csv(plm, str(losses))
    rows = [f"{i},{j},{p},{y}" for i in range(4)
            for j, (p, y) in enumerate(zip(em.predictions[i], em.labels))]
    evals = _write(tmp_path, "eval.csv", EVAL_CSV_HEADER + "\n" + "\n".join(rows) + "\n")
    for reader, path, fields in ((read_loss_csv, str(losses), ("losses", "mask")),
                                 (read_eval_csv, evals, ("predictions", "labels"))):
        piped, _ = _pipe_read(reader, Path(path).read_text())
        plain, _ = reader(path)
        for field in fields:
            got, want = getattr(piped, field), getattr(plain, field)
            assert got.dtype == want.dtype and np.array_equal(got, want), field


def _traced_peak(call):
    """The most memory ``call()`` held at once, as tracemalloc counts it."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_loss_csv_read_holds_less_than_the_file(tmp_path):
    # 12 000 rows padded to 188 bytes a line: a reader that held the text, or
    # a string per line, would peak above the file's size
    rows = "".join(f"{i:>46},{j:>46},{(i * j) % 2:>46},{1:>46}\n"
                   for i in range(4) for j in range(3000))
    path = _write(tmp_path, "loss.csv", LOSS_CSV_HEADER + "\n" + rows)
    assert _traced_peak(lambda: read_loss_csv(path)) < os.path.getsize(path)


def test_loss_csv_read_peak_is_a_small_multiple_of_the_file(tmp_path):
    # 200 000 cells: int32 rows and indices, freed before the pair counts,
    # peak near 2.9 times the file; int64 ones peaked near 7 times it
    plm, _ = synth_ensemble(40, 5000, "independent", seed=0)
    path = tmp_path / "loss.csv"
    write_loss_csv(plm, str(path))
    assert _traced_peak(lambda: read_loss_csv(str(path))) < 4 * path.stat().st_size


def test_write_loss_csv_holds_less_than_the_file(tmp_path):
    plm, _ = synth_ensemble(20, 5000, "independent", seed=0)  # 100 000 cells
    path = tmp_path / "loss.csv"
    assert _traced_peak(lambda: write_loss_csv(plm, str(path))) < path.stat().st_size


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_dump_losses_write_error_exit_2(tmp_path, capsys):
    # /dev/full fails a write partway through the dump's five blocks
    out = tmp_path / "out.json"
    assert main(["mv", "--synthetic", "independent", "--h-count", "10", "--n-examples", "2000",
                 "--bounds", "tnd", "--alpha", "0", "--dump-losses", "/dev/full",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("error: cannot write /dev/full: ")
    assert not out.exists()


# ---------------------------------------------------------------------------
# id index
# ---------------------------------------------------------------------------


@st.composite
def _id_column(draw):
    """Shuffled int64 ids whose span is below, at or above the row count."""
    n = draw(st.integers(2, 40))
    span = draw(st.one_of(st.integers(0, n - 2), st.sampled_from([n - 1, n]),
                          st.integers(n, 2**64 - 1)))
    lo = draw(st.one_of(st.sampled_from([-(2**63), 2**63 - 1 - span]),
                        st.integers(-(2**63), 2**63 - 1 - span)))
    inner = st.integers(lo, lo + span)
    ids = [lo, lo + span] + draw(st.lists(inner, min_size=n - 2, max_size=n - 2))
    return np.array(draw(st.permutations(ids)), dtype=np.int64)


@settings(derandomize=True, deadline=None)
@given(col=_id_column())
@example(col=np.array([7], dtype=np.int64))
@example(col=np.array([2**63 - 1, -(2**63)], dtype=np.int64))
@example(col=np.array([2**63 - 1, 2**63 - 2, 2**63 - 1], dtype=np.int64))
@example(col=np.array([-(2**63) + 1, -(2**63), -(2**63)], dtype=np.int64))
@example(col=np.array([5, 3, 5, 4], dtype=np.int64))
@example(col=np.array([2**31 - 1, -(2**31), 0, 2**31 - 1], dtype=np.int64))
def test_id_index_equals_np_unique(col):
    # the ids bit for bit and as int64, the inverse by value and as int32;
    # a column that fits in int32, as the first reading pass gives it, alike
    want_ids, want_inverse = np.unique(col, return_inverse=True)
    int32 = np.iinfo(np.int32)
    narrow = [col.astype(np.int32)] if int32.min <= col.min() and col.max() <= int32.max else []
    for c in [col] + narrow:
        ids, inverse = _id_index(c)
        assert ids.dtype == np.int64 and ids.shape == want_ids.shape
        assert ids.tobytes() == want_ids.tobytes()
        assert inverse.dtype == np.int32 and np.array_equal(inverse, want_inverse)


# ---------------------------------------------------------------------------
# golden bytes of the ingest path
# ---------------------------------------------------------------------------

GOLDEN_LOSSES = GOLDEN / "losses_independent_h4_n300_e02_seed3.csv"
GOLDEN_EVAL = GOLDEN / "eval_independent_h4_n50_e02_seed3.csv"
GOLDEN_MV_INGEST = GOLDEN / "mv_losses_eval_independent_h4_n300_a5.json"


def test_dump_losses_matches_golden_bytes(tmp_path):
    dump = tmp_path / "dump.csv"
    assert main(["mv", "--synthetic", "independent", "--h-count", "4", "--n-examples", "300",
                 "--error-rate", "0.2", "--seed", "3", "--bounds", "tnd", "--alpha", "0",
                 "--dump-losses", str(dump), "--out", str(tmp_path / "out.json")]) == 0
    assert dump.read_bytes() == GOLDEN_LOSSES.read_bytes()


def test_mv_ingest_output_matches_golden_bytes(capsys):
    assert main(["mv", "--losses", str(GOLDEN_LOSSES), "--eval", str(GOLDEN_EVAL),
                 "--alpha-points", "5"]) == 0
    assert capsys.readouterr().out.encode() == GOLDEN_MV_INGEST.read_bytes()


def test_mv_default_grid_moved_rho_matches_golden_bytes(capsys):
    # hypotheses with error rates from 0.01 to 0.45, so the alpha families'
    # optimized rho leaves the uniform prior; default 100-point grid.
    # Captured before the alpha grid was batched.
    losses = GOLDEN / "losses_skewed_h5_n600_seed0.csv"
    golden = (GOLDEN / "mv_losses_skewed_h5_n600_seed0.json").read_bytes()
    assert main(["mv", "--losses", str(losses)]) == 0
    assert capsys.readouterr().out.encode() == golden
    bounds = json.loads(golden)["bounds"]
    for name in ("ccpbb", "ccpbub", "ccpbskl"):
        assert max(abs(r - 0.2) for r in bounds[name]["rho"]) > 0.1


# ---------------------------------------------------------------------------
# round trip
# ---------------------------------------------------------------------------

_IDS = st.integers(-(2**63), 2**63 - 1)
_BLANKS = st.sampled_from(["", "", "\n", "  \n", "\t\n"])


def _csv_text(draw, header, rows):
    """``rows`` in a drawn order, each after a drawn run of blank lines."""
    rows = draw(st.permutations(rows))
    blanks = draw(st.lists(_BLANKS, min_size=len(rows), max_size=len(rows)))
    return header + "\n" + "".join(b + r + "\n" for b, r in zip(blanks, rows))


@st.composite
def _loss_file(draw):
    """A sparse loss file with non-contiguous ids, and its matrices in
    sorted-id order.  Hypothesis 0 has every example and example 0 is
    out-of-bag for every hypothesis, so every id occurs and every pair
    has a joint out-of-bag column."""
    h_ids = sorted(draw(st.lists(_IDS, min_size=1, max_size=4, unique=True)))
    e_ids = sorted(draw(st.lists(_IDS, min_size=1, max_size=6, unique=True)))
    shape = (len(h_ids), len(e_ids))
    cells = st.lists(st.booleans(), min_size=shape[0] * shape[1], max_size=shape[0] * shape[1])
    present, loss, oob = (np.array(draw(cells)).reshape(shape) for _ in range(3))
    present[0, :] = present[:, 0] = oob[:, 0] = True
    rows = [f"{h_ids[i]},{e_ids[j]},{int(loss[i, j])},{int(oob[i, j])}"
            for i, j in zip(*np.nonzero(present))]
    return _csv_text(draw, LOSS_CSV_HEADER, rows), np.where(present, loss, 0), present & oob


@st.composite
def _eval_file(draw):
    """A dense eval file with non-contiguous ids, and its matrices."""
    h_ids = sorted(draw(st.lists(_IDS, min_size=1, max_size=4, unique=True)))
    e_ids = sorted(draw(st.lists(_IDS, min_size=1, max_size=6, unique=True)))
    labels = np.array(draw(st.lists(st.integers(0, 3), min_size=len(e_ids), max_size=len(e_ids))))
    size = len(h_ids) * len(e_ids)
    preds = np.array(draw(st.lists(st.integers(0, 3), min_size=size, max_size=size)))
    preds = preds.reshape(len(h_ids), len(e_ids))
    rows = [f"{h},{e},{preds[i, j]},{labels[j]}"
            for i, h in enumerate(h_ids) for j, e in enumerate(e_ids)]
    return _csv_text(draw, EVAL_CSV_HEADER, rows), preds, labels


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_loss_file())
def test_loss_csv_read_reproduces_the_matrices(tmp_path, data):
    text, losses, mask = data
    plm, _ = read_loss_csv(_write(tmp_path, "loss.csv", text))
    assert np.array_equal(plm.losses, losses)
    assert np.array_equal(plm.mask, mask)


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_eval_file())
def test_eval_csv_read_reproduces_the_matrices(tmp_path, data):
    text, preds, labels = data
    em, _ = read_eval_csv(_write(tmp_path, "eval.csv", text))
    assert np.array_equal(em.predictions, preds)
    assert np.array_equal(em.labels, labels)
