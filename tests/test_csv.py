"""The loss and eval CSV contract of ``splitkl mv``: what is rejected, with
which message, what is accepted, and that a read reproduces the matrices."""

import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from splitkl.cli import (
    EVAL_CSV_HEADER,
    LOSS_CSV_HEADER,
    main,
    read_eval_csv,
    read_loss_csv,
)

GOLDEN = Path(__file__).parent / "golden"

# two hypotheses sharing both out-of-bag examples, and a dense eval set
LOSS_ROWS = "0,0,0,1\n0,1,1,1\n1,0,1,1\n1,1,0,1\n"
EVAL_ROWS = "0,0,1,1\n0,1,0,0\n1,0,1,1\n1,1,1,0\n"


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_bytes(text.encode())
    return str(path)


def _mv(losses, evals=None):
    argv = ["mv", "--losses", losses, "--bounds", "tnd", "--alpha", "0"]
    return main(argv + (["--eval", evals] if evals else []))


# ---------------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------------

# (file, text, message, line): ``file`` is the schema the bad text is put
# in, ``line`` the 1-based line the message names, or None if it names none
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
    "id beyond int64": ("loss", LOSS_CSV_HEADER + "\n" + LOSS_ROWS
                        + "99999999999999999999999,0,0,1\n", "int64", 6),
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
    schema, text, message, line = REJECTIONS[case]
    bad = _write(tmp_path, f"{schema}.csv", text)
    if schema == "loss":
        code = _mv(bad)
    else:
        code = _mv(_write(tmp_path, "loss.csv", LOSS_CSV_HEADER + "\n" + LOSS_ROWS), bad)
    err = capsys.readouterr().err
    assert code == 2
    assert message in err
    assert (f"{bad} line {line}: " if line else f"{bad}: ") in err


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
    # fields padded with spaces and tabs, and signed zeros
    " +0 ,\t0\t, 0,1 \n 0,  1, 1 ,1\n1, -0,1,1\n\t1,1,0,1\n",
])
def test_loss_csv_accepted_variants(tmp_path, variant):
    plain = read_loss_csv(_write(tmp_path, "plain.csv", LOSS_CSV_HEADER + "\n" + LOSS_ROWS))
    header = LOSS_CSV_HEADER + ("\r\n" if "\r" in variant else "\n")
    again = read_loss_csv(_write(tmp_path, "variant.csv", header + variant))
    assert np.array_equal(again.losses, plain.losses)
    assert np.array_equal(again.mask, plain.mask)


def test_eval_csv_accepts_blank_lines_and_padding(tmp_path):
    plain = read_eval_csv(_write(tmp_path, "plain.csv", EVAL_CSV_HEADER + "\n" + EVAL_ROWS))
    padded = EVAL_ROWS.replace(",", " , ").replace("\n", "\r\n  \r\n")
    again = read_eval_csv(_write(tmp_path, "padded.csv", EVAL_CSV_HEADER + "\r\n\r\n" + padded))
    assert np.array_equal(again.predictions, plain.predictions)
    assert np.array_equal(again.labels, plain.labels)


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
    plm = read_loss_csv(_write(tmp_path, "loss.csv", text))
    assert np.array_equal(plm.losses, losses)
    assert np.array_equal(plm.mask, mask)


@settings(derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=_eval_file())
def test_eval_csv_read_reproduces_the_matrices(tmp_path, data):
    text, preds, labels = data
    em = read_eval_csv(_write(tmp_path, "eval.csv", text))
    assert np.array_equal(em.predictions, preds)
    assert np.array_equal(em.labels, labels)
