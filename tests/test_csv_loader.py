"""Differential tests of load_csv: NumPy's C parser against the per-cell path.

The per-cell path (``csv`` + ``float`` per cell) is the oracle: every file
must load to the same ``Dataset`` bit for bit, or fail with the same
``DataError`` text, whichever body parser runs.  A load that reuses the
remembered body of the last load must give the same bits or the same error
as a load that parses.
"""

import os
import random
import subprocess
import sys

import numpy as np
import pytest

from mecalib import AnalysisSpec, DataError, Dataset, ScenarioConfig, generate_dataset
from mecalib import data as data_module
from mecalib.data import load_csv
from mecalib.util import write_csv_rows

SPEC = AnalysisSpec("y", ("x",))


def load_outcome(path, spec=SPEC):
    """``("ok", names, shape, bytes)`` or ``("error", message)`` for one load."""
    try:
        data = load_csv(path, spec)
    except DataError as exc:
        return ("error", str(exc))
    assert not data.values.flags.writeable
    return ("ok", data.column_names, data.values.shape, data.values.tobytes())


def outcome(path, monkeypatch, per_cell):
    """:func:`load_outcome` of a cold load, so one of the two body parsers runs.

    The remembered body is the same afterwards as before.
    """
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_last_body", None)
        if per_cell:
            patch.setattr(data_module, "_loadtxt_rows", lambda handle, width: None)
        return load_outcome(path)


def parses(path, monkeypatch):
    """One load from the current memo: (C-parser results, :func:`load_outcome`).

    The parser results are [] when no body parser ran.
    """
    used = []
    original = data_module._loadtxt_rows

    def recording(handle, width):
        values = original(handle, width)
        used.append(values is not None)
        return values

    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_loadtxt_rows", recording)
        result = load_outcome(path)
    return used, result


def fast_path_used(path, monkeypatch):
    with monkeypatch.context() as patch:
        patch.setattr(data_module, "_last_body", None)
        return parses(path, monkeypatch)[0] == [True]


def write_bytes(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return path


# name -> (file text, whether the C parser takes the body)
CORPUS = {
    "crlf": ("y,x\r\n1,2\r\n3,4\r\n", True),
    "cr_only": ("y,x\r1,2\r3,4\r", True),
    "blank_lines": ("y,x\n\n1,2\n\n\n3,4\n", True),
    "crlf_blank_lines": ("y,x\r\n1,2\r\n\r\n3,4\r\n", True),
    "whitespace_only_line": ("y,x\n1,2\n   \n3,4\n", False),
    "tab_only_line": ("y,x\n1,2\n\t\n3,4\n", False),
    "no_final_newline": ("y,x\n1,2\n3,4", True),
    "space_padding": ("y,x\n 1 ,  2\n3 , 4 \n", True),
    "tab_padding": ("y,x\n\t1,2\t\n3\t,\t4\n", True),
    "padded_header": (" y , x \n1,2\n", True),
    "quoted_cells": ('y,x\n"1","2"\n3,"4.5"\n', False),
    "quoted_header": ('"y","x"\n1,2\n', True),
    "quoted_empty": ('y,x\n1,""\n', False),
    "quoted_comma": ('y,x\n"1,5",2\n', False),
    "underscore_digits": ("y,x\n1_000,2\n", False),
    "arabic_indic_digits": ("y,x\n١٢,2\n", False),
    "fullwidth_digits": ("y,x\n３,2\n", False),
    "nan": ("y,x\n1,nan\n", False),
    "inf": ("y,x\ninf,2\n", False),
    "minus_infinity": ("y,x\n1,-Infinity\n", False),
    "overflow": ("y,x\n1e999,2\n", False),
    "nan_after_bad_row": ("y,x\n1,2\n1,x\n1,nan\n", False),
    "exponents": ("y,x\n1e5,-2.5E-3\n+3e+2,.5\n5.,1E0\n", True),
    "subnormals": ("y,x\n4.9e-324,2.2250738585072014e-308\n1e-310,-5e-324\n", True),
    "underflow_to_zero": ("y,x\n1e-400,2\n", True),
    "negative_zero": ("y,x\n-0,-0.0\n0,2\n", True),
    "leading_zeros": ("y,x\n007,00.50\n", True),
    "long_mantissa": ("y,x\n0.1000000000000000055511151231257827,2\n", True),
    "hex": ("y,x\n0x10,2\n", False),
    "nbsp_padding": ("y,x\n 1,2 \n", True),
    "form_feed_padding": ("y,x\n1\x0c,\x0b2\n", True),
    "empty_cell": ("y,x\n1,\n", False),
    "space_cell": ("y,x\n1, \n", False),
    "trailing_comma": ("y,x\n1,2,\n", False),
    "trailing_comma_header": ("y,x,\n1,2,\n", False),
    "ragged_short": ("y,x\n1,2\n3\n", False),
    "ragged_long": ("y,x\n1,2\n3,4,5\n", False),
    "all_rows_short": ("y,x\n1\n3\n", False),
    "header_only": ("y,x\n", False),
    "header_only_blank_body": ("y,x\n\n\n", False),
    "header_no_newline": ("y,x", False),
    "empty_file": ("", False),
    "one_column": ("y\n1\n2\n", True),
    "one_column_header_only": ("y\n", False),
    "one_column_blank_lines": ("y\n\n\n", False),
    "one_column_whitespace_line": ("y\n1\n \n", False),
    "duplicate_header": ("y,x,y\n1,2,3\n", False),
    "missing_spec_column": ("y,z\n1,2\n", True),
    "comment_line": ("y,x\n# note\n1,2\n", False),
    "hash_in_cell": ("y,x\n1,2#3\n", False),
    "single_row": ("y,x\n1,2\n", True),
    "extra_columns": ("y,x,age\n1,2,30\n4,5,31\n", True),
    "nul_byte": ("y,x\n1\x00,2\n", False),
    "embedded_space": ("y,x\n1 2,3\n", False),
}


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_matches_per_cell_path(name, tmp_path, monkeypatch):
    text, fast = CORPUS[name]
    path = write_bytes(tmp_path, text)
    assert outcome(path, monkeypatch, False) == outcome(path, monkeypatch, True)
    assert fast_path_used(path, monkeypatch) == fast


def test_corpus_error_messages_are_the_per_cell_ones(tmp_path, monkeypatch):
    cases = {
        "nan_after_bad_row": "cannot parse 'x' as a number in row 2, column 'x'",
        "whitespace_only_line": "row 2 has 1 cells, header has 2",
        "trailing_comma": "row 1 has 3 cells, header has 2",
        "trailing_comma_header": "empty cell in row 1, column ''",
        "overflow": "non-finite value '1e999' in row 1, column 'y'",
        "header_only": "no data rows",
        "missing_spec_column": "column not found: 'x'",
    }
    for name, message in cases.items():
        path = write_bytes(tmp_path, CORPUS[name][0], f"{name}.csv")
        kind, text = outcome(path, monkeypatch, False)
        assert kind == "error" and message in text, (name, text)


def test_fast_values_are_the_float_of_each_cell(tmp_path, monkeypatch):
    text, _ = CORPUS["subnormals"]
    path = write_bytes(tmp_path, text)
    data = load_csv(path, SPEC)
    cells = [line.split(",") for line in text.splitlines()[1:]]
    assert data.values.tobytes() == np.array(
        [[float(c) for c in row] for row in cells]).tobytes()
    assert fast_path_used(path, monkeypatch)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_write_csv_round_trip_is_bit_exact(seed, tmp_path, monkeypatch):
    rng = np.random.default_rng(seed)
    values = rng.normal(size=(200, 3)) * 10.0 ** rng.integers(-300, 300, size=(200, 3))
    values[0] = [-0.0, 5e-324, np.finfo(np.float64).max]
    values[1] = [np.finfo(np.float64).tiny, -1e-310, 0.1]
    original = Dataset(("y", "x", "age"), values)
    path = tmp_path / "round_trip.csv"
    write_csv_rows(path, original.column_names, original.values)
    loaded = load_csv(path, SPEC)
    assert loaded.column_names == original.column_names
    assert loaded.values.tobytes() == original.values.tobytes()
    assert fast_path_used(path, monkeypatch)
    assert outcome(path, monkeypatch, True)[3] == original.values.tobytes()


NUMBERS = ["1", "2.5", "-3e2", "0.1", "-0", "1e-310", "4.9e-324", "1.7976931348623157e308"]
ODD_CELLS = [
    "", " ", "\t", '"3"', '"', "x", "nan", "inf", "-inf", "1e999", "1_000", "١",
    "+1", ".5", "5.", "0x1", " 7 ", "\t8\t", " 9", "\x0c", "#", "1e", "NaN",
    "Infinity", "-", "00012", "1E+03", "1 2", ",", "\x00",
]


def random_file(rng: random.Random) -> str:
    header = rng.choice(["y,x", "y,x", "y,x,age", "x,y", " y , x ", "y,x,y", "y,x,"])
    width = header.count(",") + 1
    lines = []
    for _ in range(rng.randint(0, 6)):
        roll = rng.random()
        if roll < 0.7:
            cells = [rng.choice(NUMBERS) for _ in range(width)]
            if rng.random() < 0.15:
                cells[rng.randrange(width)] = rng.choice(ODD_CELLS) + rng.choice(
                    ["", "", rng.choice(ODD_CELLS)])
            if rng.random() < 0.05:
                cells = cells[: rng.randrange(width)] if rng.random() < 0.5 else cells + ["1"]
            lines.append(",".join(cells))
        elif roll < 0.9:
            lines.append(rng.choice(["", "", "", " ", "\t"]))
        else:
            lines.append("".join(rng.choice(ODD_CELLS + NUMBERS) for _ in range(rng.randint(1, 4))))
    eol = rng.choice(["\n", "\r\n", "\r"])
    return header + eol + eol.join(lines) + rng.choice(["", eol])


def test_random_files_match_per_cell_path(tmp_path, monkeypatch):
    rng = random.Random(20261018)
    kinds = {"ok": 0, "error": 0}
    for i in range(300):
        path = write_bytes(tmp_path, random_file(rng), f"random_{i}.csv")
        fast = outcome(path, monkeypatch, False)
        assert fast == outcome(path, monkeypatch, True), path.read_bytes()
        kinds[fast[0]] += 1
    # the corpus exercises both outcomes, not only one of them
    assert kinds["ok"] >= 60 and kinds["error"] >= 60, kinds


# The csv module refuses a field over 131,072 characters.
LONG_FIELDS = {
    "header": "y,x," + "a" * 200_000 + "\n1,2,3\n",
    "body_cell": "y,x,z\n1,2,3\n4,5," + "1" * 200_001 + "\n",  # read on the per-cell path
}


@pytest.mark.parametrize("where", sorted(LONG_FIELDS))
def test_field_over_the_csv_limit_is_a_data_error(where, tmp_path):
    path = write_bytes(tmp_path, LONG_FIELDS[where])
    with pytest.raises(DataError, match="field limit") as info:
        load_csv(path, SPEC)
    assert str(path) in str(info.value)


@pytest.mark.parametrize("where", sorted(LONG_FIELDS))
def test_field_over_the_csv_limit_exits_1_without_traceback(where, tmp_path):
    path = write_bytes(tmp_path, LONG_FIELDS[where])
    proc = subprocess.run(
        [sys.executable, "-m", "mecalib.cli", "fit", "--input", str(path),
         "--outcome", "y", "--exposure", "x"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 1
    assert "field limit" in proc.stderr and str(path) in proc.stderr
    assert "Traceback" not in proc.stderr


# -- the memo of the last body -----------------------------------------------

def remembered():
    """The file bytes of the body ``load_csv`` remembers, or None."""
    last = data_module._last_body
    return None if last is None else last[1]


def cold_then_warm(path, monkeypatch):
    """Outcomes of a cold load and of the load that follows it."""
    monkeypatch.setattr(data_module, "_last_body", None)
    cold_parses, cold = parses(path, monkeypatch)
    warm_parses, warm = parses(path, monkeypatch)
    # a body that loaded is reused; a load that failed parses again
    assert warm_parses == ([] if cold[0] == "ok" else cold_parses), path.read_bytes()
    return cold, warm


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_loads_the_same_from_the_cache(name, tmp_path, monkeypatch):
    path = write_bytes(tmp_path, CORPUS[name][0])
    cold, warm = cold_then_warm(path, monkeypatch)
    assert cold == warm == outcome(path, monkeypatch, True)
    assert remembered() == (path.read_bytes() if cold[0] == "ok" else None)


def test_random_files_load_the_same_from_the_cache(tmp_path, monkeypatch):
    rng = random.Random(20261018)
    for i in range(300):
        path = write_bytes(tmp_path, random_file(rng), f"random_{i}.csv")
        cold, warm = cold_then_warm(path, monkeypatch)
        assert cold == warm, path.read_bytes()


def test_a_failing_load_leaves_no_entry(tmp_path):
    failing = []
    load_outcome(write_bytes(tmp_path, "y,x\n1,2\n", "loads.csv"))
    for name, (text, _) in CORPUS.items():
        before = data_module._last_body
        if load_outcome(write_bytes(tmp_path, text, f"{name}.csv"))[0] == "error":
            assert data_module._last_body is before, name  # the memo is left as it was
            failing.append(name)
    assert "missing_spec_column" in failing and len(failing) > 20


def test_a_hit_reuses_the_matrix_and_still_checks_header_and_spec(tmp_path, monkeypatch):
    path = write_bytes(tmp_path, "y,x,z\n1.5,2,3\n3,-4e-3,5\n")
    first = load_csv(path, SPEC)
    assert load_csv(path, SPEC).values is first.values  # read-only, so shared
    last = data_module._last_body
    with pytest.raises(DataError, match="column not found: 'w'"):
        load_csv(path, AnalysisSpec("y", ("w",)))
    assert data_module._last_body is last
    # the text encoding is part of the key: the same bytes read otherwise miss
    monkeypatch.setattr(data_module, "_last_body", ("other", last[1], np.zeros((1, 3))))
    assert parses(path, monkeypatch) == ([True], load_outcome(path))
    assert load_csv(path, SPEC).values.tobytes() == first.values.tobytes()


@pytest.mark.parametrize("where", [0, 4, -2])  # the header, the first cell, the last cell
def test_one_changed_byte_misses(where, tmp_path, monkeypatch):
    text = "y,x\n" + "".join(f"{i}.25,{i % 7}\n" for i in range(2000))  # past 8 KiB
    path = write_bytes(tmp_path, text)
    first = load_outcome(path)
    changed = bytearray(path.read_bytes())
    changed[where] = ord("z") if where == 0 else changed[where] ^ 1  # "z,x", or another digit
    path.write_bytes(bytes(changed))
    assert parses(path, monkeypatch)[0] != []
    second = load_outcome(path)
    assert second == outcome(path, monkeypatch, True) != first


def test_the_cap_evicts_the_least_recently_used_entry(tmp_path, monkeypatch):
    """One body is remembered: loading another replaces it."""
    first = write_bytes(tmp_path, "y,x\n1,2\n", "first.csv")
    second = write_bytes(tmp_path, "y,x\n3,4\n", "second.csv")
    load_outcome(first)
    assert parses(first, monkeypatch)[0] == []
    load_outcome(second)
    assert parses(second, monkeypatch)[0] == []
    assert parses(first, monkeypatch)[0] == [True]
    assert remembered() == first.read_bytes()


def test_one_shot_commands_write_only_their_outputs(tmp_path):
    """``fit``, ``correct`` and ``sensitivity`` write nothing under HOME or the cache home."""
    study = tmp_path / "study.csv"
    generated = generate_dataset(ScenarioConfig(n=300), 0)
    write_csv_rows(study, generated.column_names, generated.values)
    home, cache_home, out = tmp_path / "home", tmp_path / "xdg", tmp_path / "out"
    for directory in (home, cache_home, out):
        directory.mkdir()
    # earlier releases wrote their CSV cache to MECALIB_CACHE_DIR when it was set
    env = {name: value for name, value in os.environ.items() if name != "MECALIB_CACHE_DIR"}
    env.update(HOME=str(home), XDG_CACHE_HOME=str(cache_home))
    data = ["--input", str(study), "--outcome", "creatinine", "--covariates", "age"]
    commands = [
        ["fit", *data, "--exposure", "bp_star_1", "--output", str(out / "fit.csv")],
        ["correct", *data, "--method", "rc", "--replicates", "bp_star_1,bp_star_2,bp_star_3",
         "--output", str(out / "correct.json")],
        ["sensitivity", *data, "--exposure", "bp_star_1", "--method", "rc", "--n-boot", "0",
         "--tau2-dist", "uniform", "--tau2-min", "10", "--tau2-max", "20", "--draws", "10",
         "--output", str(out / "sensitivity.csv")],
    ]
    for command in commands:
        proc = subprocess.run([sys.executable, "-m", "mecalib.cli", *command], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    assert os.listdir(home) == [] and os.listdir(cache_home) == []
    assert sorted(os.listdir(out)) == [
        "correct.json", "fit.csv", "sensitivity.csv", "sensitivity.json"]
