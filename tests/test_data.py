"""CSV ingestion, dataset invariants, and trial splitting."""

import os
import tempfile
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import _reference as ref
from ppboot import (
    DataError,
    LabeledDataset,
    ParseError,
    RngStream,
    SchemaError,
    UnlabeledDataset,
    ValidationError,
    load_csv,
    read_table,
    split_trial,
)

SCHEMA_1D = {"outcome": "y", "prediction": "fhat", "features": ["x"]}


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestLoadCsv:
    def test_labeled_three_rows(self, tmp_path):
        path = _write(tmp_path, "l.csv", "x,y,fhat\n1,2,2.5\n2,4,3.5\n3,6,6.5\n")
        ds = load_csv(path, SCHEMA_1D, expect="labeled")
        assert isinstance(ds, LabeledDataset)
        assert ds.n == 3 and ds.d == 1
        assert ds.outcomes.tolist() == [2.0, 4.0, 6.0]
        assert ds.predictions.tolist() == [2.5, 3.5, 6.5]

    def test_unparsable_cell_names_row(self, tmp_path):
        path = _write(tmp_path, "bad.csv", "x,y,fhat\n1,2,2.5\n2,abc,3.5\n3,6,6.5\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv(path, SCHEMA_1D, expect="labeled")

    def test_unlabeled_without_outcome_column(self, tmp_path):
        path = _write(tmp_path, "u.csv", "x1,x2,fhat\n" + "\n".join(f"{i},{i + 1},{i * 0.5}" for i in range(5)) + "\n")
        schema = {"prediction": "fhat", "features": ["x1", "x2"]}
        ds = load_csv(path, schema, expect="unlabeled")
        assert isinstance(ds, UnlabeledDataset)
        assert ds.N == 5 and ds.d == 2

    def test_unlabeled_ignores_outcome_entry(self, tmp_path):
        path = _write(tmp_path, "u.csv", "x,fhat\n1,0.5\n2,0.7\n3,0.1\n")
        ds = load_csv(path, SCHEMA_1D, expect="unlabeled")
        assert ds.N == 3

    def test_missing_column_is_schema_error(self, tmp_path):
        path = _write(tmp_path, "m.csv", "x,y\n1,2\n2,4\n")
        with pytest.raises(SchemaError, match="fhat"):
            load_csv(path, SCHEMA_1D, expect="labeled")

    def test_nan_cell_is_validation_error(self, tmp_path):
        path = _write(tmp_path, "n.csv", "x,y,fhat\n1,nan,2.5\n2,4,3.5\n")
        with pytest.raises(ValidationError, match="row 1"):
            load_csv(path, SCHEMA_1D, expect="labeled")

    @pytest.mark.parametrize(
        "body, error, message",
        [
            pytest.param("1,2,2.5\n2,inf,3.5\n3,abc,6.5\n", ValidationError,
                         "non-finite value 'inf' at row 2, column 'y'", id="non-finite-first"),
            pytest.param("1,2,2.5\n2,abc,3.5\n3,-inf,6.5\n", ParseError,
                         "cannot parse 'abc' at row 2, column 'y'", id="unparsable-first"),
            pytest.param("1,nan,2.5\n2,4,x\nz,6,6.5\n", ParseError,
                         "cannot parse 'z' at row 3, column 'x'", id="features-before-outcome"),
        ],
    )
    def test_first_bad_cell_is_reported(self, tmp_path, body, error, message):
        path = _write(tmp_path, "b.csv", "x,y,fhat\n" + body)
        with pytest.raises(error) as info:
            load_csv(path, SCHEMA_1D, expect="labeled")
        assert str(info.value) == f"{path}: {message}"

    def test_ragged_row_rejected(self, tmp_path):
        path = _write(tmp_path, "r.csv", "x,y,fhat\n1,2\n2,4,3.5\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv(path, SCHEMA_1D, expect="labeled")

    def test_duplicate_role_rejected(self, tmp_path):
        path = _write(tmp_path, "d.csv", "x,y\n1,2\n2,4\n")
        with pytest.raises(SchemaError):
            load_csv(path, {"outcome": "y", "prediction": "y", "features": ["x"]}, expect="labeled")

    def test_row_order_preserved(self, tmp_path):
        path = _write(tmp_path, "o.csv", "x,y,fhat\n9,1,1\n3,2,2\n7,3,3\n5,4,4\n")
        ds = load_csv(path, SCHEMA_1D, expect="labeled")
        assert ds.features[:, 0].tolist() == [9.0, 3.0, 7.0, 5.0]


NAMES = ["a", "b", "c", "d"]
# Cells that float() parses, bare and quoted, and cells that it parses to a
# non-finite value or rejects.  Good cells come three times as often.
GOOD = ["1", "-2.5", " 3 ", "-0.0", "+.5", "1e-320", "1_000", '"4"', '" 7"']
BAD = ["1e999", "-inf", " inf", "nan", "NaN", "0x10", "abc", " x ", "", '"1,5"', '"nan"']


@st.composite
def csv_cases(draw):
    """CSV text with shuffled, quoted or repeated header names, blank lines,
    CRLF line ends, ragged rows and bad cells, plus roles that now and then
    name a column the header lacks ("z")."""
    header = draw(st.lists(st.sampled_from(NAMES + ['"a"', '"b"']), min_size=1, max_size=5))
    cell = st.sampled_from(GOOD * 3 + BAD)
    row = st.lists(cell, min_size=len(header), max_size=len(header))
    ragged = st.lists(cell, min_size=1, max_size=len(header) + 2)
    rows = draw(st.lists(st.one_of(row, row, row, st.just([])), max_size=8))
    if draw(st.integers(0, 3)) == 0:
        rows.insert(draw(st.integers(0, len(rows))), draw(ragged))
    newline = draw(st.sampled_from(["\n", "\r\n"]))
    text = newline.join(",".join(cells) for cells in [header, *rows]) + draw(st.sampled_from(["", newline]))
    names = sorted({name.strip('"') for name in header}) + draw(st.sampled_from([[]] * 7 + [["z"]]))
    features = draw(st.lists(st.sampled_from(names), min_size=1, max_size=3, unique=True))
    outcome = draw(st.sampled_from([None] + [c for c in names if c not in features]))
    prediction = draw(st.sampled_from([None] + [c for c in names if c not in features + [outcome]]))
    return text, features, outcome, prediction


def _arrays_or_error(read, *args, **kwargs):
    try:
        return read(*args, **kwargs)
    except DataError as exc:
        return type(exc), str(exc)


class TestReadTable:
    @settings(max_examples=400, deadline=None)
    @given(case=csv_cases())
    def test_matches_the_two_pass_reader(self, case):
        text, features, outcome, prediction = case
        schema = {"features": features, "outcome": outcome, "prediction": prediction}
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "t.csv")
            with open(path, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
            got = _arrays_or_error(read_table, path, schema, need_outcome=outcome is not None,
                                   need_prediction=prediction is not None)
            want = _arrays_or_error(ref.read_table, path, features, outcome, prediction)
        if isinstance(want[0], type):
            assert isinstance(got[0], type) and got == want, got
            return
        assert not isinstance(got[0], type), got
        for g, w in zip(got, want):
            assert (g is None) == (w is None)
            if w is not None:
                assert g.dtype == w.dtype and g.shape == w.shape and g.tobytes() == w.tobytes()

    def test_holds_little_more_than_the_table(self, tmp_path):
        # Only the parsed floats are kept, never the rows of strings.
        rows, cols = 20_000, 4
        path = str(tmp_path / "u.csv")
        np.savetxt(path, np.random.default_rng(0).standard_normal((rows, cols)), fmt="%.10g", delimiter=",",
                   header="x1,x2,x3,fhat", comments="")
        tracemalloc.start()
        try:
            features, _, predictions = read_table(path, {"prediction": "fhat", "features": ["x1", "x2", "x3"]},
                                                  need_outcome=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert features.shape == (rows, cols - 1) and predictions.shape == (rows,)
        assert peak < 3 * rows * cols * 8


class TestDatasetInvariants:
    def test_row_count_mismatch(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.zeros((3, 1)), np.zeros(2), np.zeros(3))

    def test_nonfinite_rejected(self):
        with pytest.raises(ValidationError):
            LabeledDataset(np.zeros((2, 1)), np.array([1.0, np.inf]), np.zeros(2))

    def test_minimum_two_rows(self):
        with pytest.raises(ValidationError):
            UnlabeledDataset(np.zeros((1, 1)), np.zeros(1))

    def test_arrays_are_read_only(self):
        ds = LabeledDataset(np.zeros((2, 1)), np.zeros(2), np.zeros(2))
        with pytest.raises(ValueError):
            ds.outcomes[0] = 1.0


def _full(total=10, seed=0):
    g = np.random.default_rng(seed)
    X = g.standard_normal((total, 2))
    y = g.standard_normal(total)
    f = y + 0.1 * g.standard_normal(total)
    return LabeledDataset(X, y, f)


class TestSplitTrial:
    def test_partition_sizes_and_disjointness(self):
        full = _full(10)
        labeled, unlabeled = split_trial(full, 4, RngStream(0, (1,)))
        assert labeled.n == 4 and unlabeled.N == 6

        # every row lands on exactly one side, bit-identically
        source = {tuple(full.features[i]) + (full.outcomes[i], full.predictions[i]) for i in range(10)}
        got = {
            tuple(labeled.features[i]) + (labeled.outcomes[i], labeled.predictions[i])
            for i in range(labeled.n)
        }
        got |= {tuple(unlabeled.features[i]) + (None, unlabeled.predictions[i]) for i in range(unlabeled.N)}
        keys_lab = {tuple(labeled.features[i]) for i in range(labeled.n)}
        keys_unl = {tuple(unlabeled.features[i]) for i in range(unlabeled.N)}
        assert keys_lab.isdisjoint(keys_unl)
        assert {k[:2] for k in source} == keys_lab | keys_unl

    def test_same_seed_same_split(self):
        full = _full(12)
        a = split_trial(full, 5, RngStream(9, (3,)))
        b = split_trial(full, 5, RngStream(9, (3,)))
        assert np.array_equal(a[0].outcomes, b[0].outcomes)
        assert np.array_equal(a[1].predictions, b[1].predictions)

    def test_out_of_range_n(self):
        full = _full(10)
        for n in (1, 9, 10, 0, -3):
            with pytest.raises(ValueError):
                split_trial(full, n, RngStream(0))

    def test_labeled_membership_frequency(self):
        # P(row labeled) = n/total; check over 2000 independent splits.
        full = _full(10)
        trials = 2000
        counts = np.zeros(10)
        marker = full.outcomes
        for t in range(trials):
            labeled, _ = split_trial(full, 4, RngStream(5, (t,)))
            for value in labeled.outcomes:
                counts[np.flatnonzero(marker == value)[0]] += 1
        freqs = counts / trials
        se = np.sqrt(0.4 * 0.6 / trials)
        assert np.all(np.abs(freqs - 0.4) < 3 * se)

    def test_rows_bit_identical(self):
        full = _full(10)
        labeled, unlabeled = split_trial(full, 4, RngStream(2, (0,)))
        for i in range(labeled.n):
            j = int(np.flatnonzero(full.outcomes == labeled.outcomes[i])[0])
            assert np.array_equal(full.features[j], labeled.features[i])
            assert full.predictions[j] == labeled.predictions[i]
        for i in range(unlabeled.N):
            j = int(np.flatnonzero(full.predictions == unlabeled.predictions[i])[0])
            assert np.array_equal(full.features[j], unlabeled.features[i])
