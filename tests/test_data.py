import numpy as np
import pytest

from mecalib import (
    AnalysisSpec,
    DataError,
    Dataset,
    load_csv,
)
from mecalib.data import design_matrix
from mecalib.util import write_csv_rows, write_json


def test_load_csv_happy_path(csv_file, toy_spec):
    data = load_csv(csv_file, toy_spec)
    assert data.n_rows == 3
    assert data.column_names == ("y", "x1", "x2", "age")
    assert data.column("x1").tolist() == [5.0, 7.0, 4.0]


def test_load_csv_missing_column(csv_file):
    spec = AnalysisSpec("y", ("x1", "x9"), ("age",))
    with pytest.raises(DataError, match="column not found.*x9"):
        load_csv(csv_file, spec)


def test_load_csv_na_cell_names_row_and_column(tmp_path, toy_spec):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1,x2,age\n1,2,3,4\n1,NA,3,4\n")
    with pytest.raises(DataError, match=r"row 2.*'x1'"):
        load_csv(path, toy_spec)


def test_load_csv_empty_cell(tmp_path, toy_spec):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1,x2,age\n1,2,,4\n")
    with pytest.raises(DataError, match=r"empty cell in row 1.*'x2'"):
        load_csv(path, toy_spec)


def test_load_csv_duplicate_header(tmp_path, toy_spec):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1,x1,age\n1,2,3,4\n")
    with pytest.raises(DataError, match="duplicate header"):
        load_csv(path, toy_spec)


def test_load_csv_missing_file(tmp_path, toy_spec):
    with pytest.raises(FileNotFoundError):
        load_csv(tmp_path / "nope.csv", toy_spec)


def test_load_csv_rejects_inf_and_ragged_rows(tmp_path, toy_spec):
    path = tmp_path / "bad.csv"
    path.write_text("y,x1,x2,age\n1,inf,3,4\n")
    with pytest.raises(DataError, match="non-finite"):
        load_csv(path, toy_spec)
    path.write_text("y,x1,x2,age\n1,2,3\n")
    with pytest.raises(DataError, match="row 1 has 3 cells"):
        load_csv(path, toy_spec)


def test_load_csv_no_data_rows(tmp_path, toy_spec):
    path = tmp_path / "empty.csv"
    path.write_text("y,x1,x2,age\n")
    with pytest.raises(DataError, match="no data rows"):
        load_csv(path, toy_spec)


def test_csv_round_trip_bit_identical(tmp_path):
    rng = np.random.default_rng(7)
    values = np.concatenate(
        [rng.normal(size=40), [0.1, 1 / 3, np.e, 1e-300, 1e300, -0.0, 123456789.123456789]]
    ).reshape(-1, 1)
    values = np.column_stack([values, rng.exponential(size=len(values))])
    data = Dataset(("a", "b"), values)
    path = tmp_path / "round.csv"
    write_csv_rows(path, data.column_names, data.values)
    reloaded = load_csv(path, AnalysisSpec("a", ("b",)))
    assert np.array_equal(reloaded.values, data.values)


def test_shared_csv_writer_cells(tmp_path):
    floats = [0.1, 1 / 3, -0.0, 1e-300, 123456789.123456789, np.float64(np.pi)]
    rows = [
        ("none", None, 7, True),
        ("nan", float("nan"), np.int64(500), False),
        ("inf", float("-inf"), 0, True),
        ("whole", 30.0, 500, False),
    ] + [("float", value, 1, False) for value in floats]
    path = tmp_path / "rows.csv"
    write_csv_rows(path, ("label", "value", "n", "flag"), rows)
    lines = path.read_text().splitlines()
    assert lines[0] == "label,value,n,flag"
    assert lines[1:5] == ["none,,7,true", "nan,,500,false", "inf,,0,true", "whole,30,500,false"]
    for line, value in zip(lines[5:], floats):
        text = line.split(",")[1]
        assert np.float64(float(text)).tobytes() == np.float64(value).tobytes()


def test_shared_json_writer_is_strict(tmp_path):
    path = tmp_path / "out.json"
    write_json(path, {"a": float("nan"), "b": [1.5, float("inf")], "c": (np.float64(2.0),)})
    assert path.read_text() == (
        '{\n  "a": null,\n  "b": [\n    1.5,\n    null\n  ],\n  "c": [\n    2.0\n  ]\n}\n'
    )


def test_dataset_invariants():
    with pytest.raises(DataError, match="duplicate"):
        Dataset(("a", "a"), np.ones((2, 2)))
    with pytest.raises(DataError, match="non-finite"):
        Dataset(("a", "b"), np.array([[1.0, np.nan], [1.0, 2.0]]))
    with pytest.raises(DataError, match="at least one row"):
        Dataset(("a",), np.empty((0, 1)))
    with pytest.raises(DataError, match="2-D"):
        Dataset(("a",), np.ones(3))
    with pytest.raises(DataError, match="column names"):
        Dataset(("a",), np.ones((2, 2)))


def test_dataset_is_immutable_and_does_not_freeze_caller_array():
    source = np.ones((2, 2))
    data = Dataset(("a", "b"), source)
    source[0, 0] = 5.0  # caller's buffer must stay writeable
    assert data.values[0, 0] == 1.0
    with pytest.raises(ValueError):
        data.values[0, 0] = 9.0


def test_dataset_take_rows_keeps_order_and_repeats():
    data = Dataset(("a", "b"), np.array([[1.0, 10.0], [2.0, 20.0], [3.0, 30.0]]))
    sub = data.take_rows([2, 0, 2])
    assert sub.column("a").tolist() == [3.0, 1.0, 3.0]


def test_dataset_take_rows_returns_fresh_read_only_values():
    values = np.arange(12.0).reshape(4, 3)
    data = Dataset(("a", "b", "c"), values)
    idx = np.array([3, 3, 0, 2, 1])
    sub = data.take_rows(idx)
    assert np.array_equal(sub.values, values[idx])
    assert not sub.values.flags.writeable
    assert not np.shares_memory(sub.values, data.values)
    assert not np.shares_memory(sub.values, values)


def test_analysis_spec_validation():
    with pytest.raises(ValueError, match="at least one"):
        AnalysisSpec("y", ())
    with pytest.raises(ValueError, match="more than one role"):
        AnalysisSpec("y", ("y",))
    with pytest.raises(ValueError, match="more than one role"):
        AnalysisSpec("y", ("x", "x"))
    spec = AnalysisSpec("y", ["x1", "x2"], ["z"])
    assert spec.exposure == "x1"
    assert spec.n_replicates == 2
    assert spec.all_columns() == ("y", "x1", "x2", "z")


def test_design_matrix_two_rows_with_covariate():
    data = Dataset(("y", "x", "age"), np.array([[0.0, 5.0, 30.0], [0.0, 7.0, 40.0]]))
    X = design_matrix(data, "x", ("age",))
    assert X.tolist() == [[1.0, 5.0, 30.0], [1.0, 7.0, 40.0]]


def test_design_matrix_single_row_no_covariates():
    data = Dataset(("y", "x"), np.array([[0.0, 2.0]]))
    X = design_matrix(data, "x")
    assert X.tolist() == [[1.0, 2.0]]


def test_design_matrix_column_order_and_count():
    rng = np.random.default_rng(3)
    values = rng.normal(size=(5, 5))
    data = Dataset(("y", "x", "c1", "c2", "c3"), values)
    X = design_matrix(data, "x", ("c1", "c2", "c3"))
    assert X.shape == (5, 5)
    assert np.all(X[:, 0] == 1.0)
    assert np.array_equal(X[:, 1], data.column("x"))
    assert np.array_equal(X[:, 2:], data.columns(("c1", "c2", "c3")))


def test_design_matrix_without_exposure_is_covariate_design():
    data = Dataset(("y", "x", "age"), np.array([[0.0, 5.0, 30.0], [0.0, 7.0, 40.0]]))
    assert design_matrix(data, None, ("age",)).tolist() == [[1.0, 30.0], [1.0, 40.0]]
    assert np.array_equal(design_matrix(data, None, ("age",)),
                          np.delete(design_matrix(data, "x", ("age",)), 1, axis=1))
    assert design_matrix(data, None).tolist() == [[1.0], [1.0]]


def test_design_matrix_unknown_column():
    data = Dataset(("y", "x"), np.ones((3, 2)))
    with pytest.raises(DataError, match="column not found"):
        design_matrix(data, "nope")


def test_take_rows_equals_a_dataset_of_the_rows():
    values = np.arange(24.0).reshape(6, 4)
    data = Dataset(("a", "b", "c", "d"), values)
    rows = np.array([5, 0, 0, 3, -1])
    taken = data.take_rows(rows)
    expected = Dataset(data.column_names, values[rows])
    assert taken.column_names == expected.column_names
    assert np.array_equal(taken.values, expected.values)
    assert taken.values.dtype == np.float64 and not taken.values.flags.writeable
    with pytest.raises(ValueError):
        taken.values[0, 0] = 1.0
    for bad in ([], [[0, 1]]):
        with pytest.raises(DataError, match="nonempty 1-D"):
            data.take_rows(bad)
