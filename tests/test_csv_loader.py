"""Differential tests of load_csv: NumPy's C parser against the per-cell path.

The per-cell path (``csv`` + ``float`` per cell) is the oracle: every file
must load to the same ``Dataset`` bit for bit, or fail with the same
``DataError`` text, whichever body parser runs.  A load from the body cache
must give the same bits or the same error as a load that parses.
"""

import os
import random
import subprocess
import sys
import tempfile
import warnings

import numpy as np
import pytest

from mecalib import AnalysisSpec, DataError, Dataset
from mecalib import data as data_module
from mecalib.data import load_csv
from mecalib.util import write_csv_rows

SPEC = AnalysisSpec("y", ("x",))


def load_outcome(path):
    """``("ok", names, shape, bytes)`` or ``("error", message)`` for one load."""
    try:
        data = load_csv(path, SPEC)
    except DataError as exc:
        return ("error", str(exc))
    assert not data.values.flags.writeable
    return ("ok", data.column_names, data.values.shape, data.values.tobytes())


def outcome(path, monkeypatch, per_cell):
    """:func:`load_outcome` against a cold cache, so one of the two body parsers runs."""
    with monkeypatch.context() as patch, tempfile.TemporaryDirectory() as cold:
        patch.setenv("MECALIB_CACHE_DIR", cold)
        if per_cell:
            patch.setattr(data_module, "_loadtxt_rows", lambda handle, width: None)
        return load_outcome(path)


def parses(path, monkeypatch):
    """One load from the current cache: (C-parser results, :func:`load_outcome`).

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
    with monkeypatch.context() as patch, tempfile.TemporaryDirectory() as cold:
        patch.setenv("MECALIB_CACHE_DIR", cold)
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


# -- the body cache ------------------------------------------------------------

def entries(cache_dir):
    return sorted(name for name in os.listdir(cache_dir) if name.endswith(".npy"))


def cold_then_warm(path, monkeypatch):
    """Outcomes of a load that fills the cache and of the load that follows it."""
    cold_parses, cold = parses(path, monkeypatch)
    warm_parses, warm = parses(path, monkeypatch)
    # a body that loaded comes from the cache; a load that failed parses again
    assert warm_parses == ([] if cold[0] == "ok" else cold_parses), path.read_bytes()
    return cold, warm


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_corpus_loads_the_same_from_the_cache(name, tmp_path, monkeypatch, csv_cache_dir):
    path = write_bytes(tmp_path, CORPUS[name][0])
    cold, warm = cold_then_warm(path, monkeypatch)
    assert cold == warm == outcome(path, monkeypatch, True)
    assert len(entries(csv_cache_dir)) == (cold[0] == "ok")


def test_random_files_load_the_same_from_the_cache(tmp_path, monkeypatch):
    rng = random.Random(20261018)
    for i in range(300):
        path = write_bytes(tmp_path, random_file(rng), f"random_{i}.csv")
        cold, warm = cold_then_warm(path, monkeypatch)
        assert cold == warm, path.read_bytes()


def test_a_failing_load_leaves_no_entry(tmp_path, csv_cache_dir):
    failing = []
    for name, (text, _) in CORPUS.items():
        before = entries(csv_cache_dir)
        if load_outcome(write_bytes(tmp_path, text, f"{name}.csv"))[0] == "error":
            assert entries(csv_cache_dir) == before, name
            failing.append(name)
    assert "missing_spec_column" in failing and len(failing) > 20


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


def npz_bytes(values):
    with tempfile.TemporaryDirectory() as directory:
        target = os.path.join(directory, "values.npz")
        np.savez(target, values=values)
        with open(target, "rb") as handle:
            return handle.read()


# Ways to spoil the entry of a 2-column file; each must be ignored and rewritten.
GOOD = np.arange(4.0).reshape(2, 2)
BAD_ENTRIES = {
    "truncated": lambda entry: entry.write_bytes(entry.read_bytes()[:-5]),
    "header_only": lambda entry: entry.write_bytes(entry.read_bytes()[:40]),
    "empty": lambda entry: entry.write_bytes(b""),
    "wrong_width": lambda entry: np.save(entry, GOOD[:, :-1]),
    "float32": lambda entry: np.save(entry, GOOD.astype(np.float32)),
    "big_endian": lambda entry: np.save(entry, GOOD.astype(">f8")),
    "one_dimensional": lambda entry: np.save(entry, GOOD.ravel()),
    "no_rows": lambda entry: np.save(entry, GOOD[:0]),
    "object": lambda entry: np.save(entry, GOOD.astype(object), allow_pickle=True),
    "npz": lambda entry: entry.write_bytes(npz_bytes(GOOD)),
    "huge_shape": lambda entry: entry.write_bytes(entry.read_bytes().replace(
        b"(2, 2), }" + b" " * 13, b"(10000000000000, 2), }")),  # header length kept
}


@pytest.mark.parametrize("damage", sorted(BAD_ENTRIES))
def test_a_bad_entry_is_ignored_and_rewritten(damage, tmp_path, monkeypatch, csv_cache_dir):
    path = write_bytes(tmp_path, "y,x\n1.5,2\n3,-4e-3\n")
    expected = load_outcome(path)
    [name] = entries(csv_cache_dir)
    entry = csv_cache_dir / name
    BAD_ENTRIES[damage](entry)
    assert parses(path, monkeypatch)[0] == [True]
    assert load_outcome(path) == expected
    assert entries(csv_cache_dir) == [name]
    assert np.load(entry, allow_pickle=False).tobytes() == expected[3]
    assert parses(path, monkeypatch)[0] == []


@pytest.mark.parametrize("where", ["under_a_file", "is_a_file"])
def test_an_unwritable_cache_still_loads_and_warns_nothing(where, tmp_path, monkeypatch):
    blocker = tmp_path / "blocker"
    blocker.write_text("not a directory\n")
    cache = blocker / "cache" if where == "under_a_file" else blocker
    monkeypatch.setenv("MECALIB_CACHE_DIR", str(cache))
    path = write_bytes(tmp_path, "y,x\n1,2\n3,4\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        for _ in range(2):
            assert load_outcome(path) == outcome(path, monkeypatch, True)
            assert parses(path, monkeypatch)[0] == [True]
    assert caught == []
    assert sorted(os.listdir(tmp_path)) == ["blocker", "data.csv"]
    assert blocker.read_text() == "not a directory\n"


def test_the_cap_evicts_the_least_recently_used_entry(tmp_path, monkeypatch, csv_cache_dir):
    cap = data_module.CACHE_ENTRIES
    names = []
    for i in range(cap):
        path = write_bytes(tmp_path, f"y,x\n{i},1\n", f"file_{i}.csv")
        before = set(entries(csv_cache_dir))
        load_outcome(path)
        [name] = set(entries(csv_cache_dir)) - before
        names.append(name)
        os.utime(csv_cache_dir / name, ns=(i * 10**9, (1000 + i) * 10**9))  # distinct ages
    assert parses(tmp_path / "file_0.csv", monkeypatch)[0] == []  # a hit: now the newest
    load_outcome(write_bytes(tmp_path, "y,x\n-1,1\n", "newest.csv"))
    left = entries(csv_cache_dir)
    assert len(left) == cap
    assert names[1] not in left and set(names) - {names[1]} <= set(left)


def test_the_cache_directory_follows_the_environment(tmp_path, monkeypatch):
    monkeypatch.setenv("MECALIB_CACHE_DIR", str(tmp_path / "explicit"))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "xdg"))
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    assert data_module._cache_dir() == str(tmp_path / "explicit")
    monkeypatch.delenv("MECALIB_CACHE_DIR")
    assert data_module._cache_dir() == str(tmp_path / "xdg" / "mecalib")
    monkeypatch.delenv("XDG_CACHE_HOME")
    assert data_module._cache_dir() == str(tmp_path / "home" / ".cache" / "mecalib")
    load_outcome(write_bytes(tmp_path, "y,x\n1,2\n"))
    home_cache = tmp_path / "home" / ".cache" / "mecalib"
    assert len(entries(home_cache)) == 1
    assert os.stat(home_cache).st_mode & 0o777 == 0o700


def test_two_fits_sharing_a_cache_write_one_entry(tmp_path, csv_cache_dir):
    rng = np.random.default_rng(3)
    values = rng.normal(size=(2000, 3)) * [1.0, 10.0, 5.0] + [30.0, 120.0, 32.0]
    write_csv_rows(tmp_path / "study.csv", ("y", "x", "age"), values)

    def fit(name):
        return subprocess.Popen(
            [sys.executable, "-m", "mecalib.cli", "fit", "--input", str(tmp_path / "study.csv"),
             "--outcome", "y", "--exposure", "x", "--covariates", "age",
             "--output", str(tmp_path / name)],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)

    procs = [fit("first.csv"), fit("second.csv")]
    for proc in procs:
        _, stderr = proc.communicate()
        assert proc.returncode == 0, stderr
    assert len(entries(csv_cache_dir)) == 1 and len(os.listdir(csv_cache_dir)) == 1
    warm = fit("warm.csv")
    assert warm.communicate()[1] == "" and warm.returncode == 0
    first = (tmp_path / "first.csv").read_bytes()
    assert first == (tmp_path / "second.csv").read_bytes() == (tmp_path / "warm.csv").read_bytes()


def test_eviction_keeps_files_the_cache_did_not_write(tmp_path, monkeypatch, csv_cache_dir):
    foreign = ["results.npy", "A" * 64 + ".npy", "0" * 63 + ".npy", "notes.txt"]
    for name in foreign:
        (csv_cache_dir / name).write_bytes(b"kept\n")
        os.utime(csv_cache_dir / name, ns=(0, 0))  # older than any entry
    for i in range(data_module.CACHE_ENTRIES + 3):
        load_outcome(write_bytes(tmp_path, f"y,x\n{i},1\n", f"file_{i}.csv"))
    left = sorted(os.listdir(csv_cache_dir))
    assert set(foreign) <= set(left)
    assert len(left) == len(foreign) + data_module.CACHE_ENTRIES
    assert all((csv_cache_dir / name).read_bytes() == b"kept\n" for name in foreign)


@pytest.mark.parametrize("owner", ["group_writable", "world_writable", "another_user"])
def test_a_directory_others_may_write_is_neither_read_nor_written(owner, tmp_path, monkeypatch,
                                                                  csv_cache_dir):
    path = write_bytes(tmp_path, "y,x\n1.5,2\n3,-4e-3\n")
    expected = load_outcome(path)
    [name] = entries(csv_cache_dir)
    planted = csv_cache_dir / name
    np.save(planted, GOOD)  # a well-formed entry with other values
    if owner == "another_user":
        uid = os.getuid()
        monkeypatch.setattr(data_module.os, "getuid", lambda: uid + 1)
    else:
        os.chmod(csv_cache_dir, 0o770 if owner == "group_writable" else 0o707)
    try:
        assert parses(path, monkeypatch)[0] == [True]
        assert load_outcome(path) == expected
        other = write_bytes(tmp_path, "y,x\n7,8\n", "other.csv")
        assert load_outcome(other) == outcome(other, monkeypatch, True)
        assert entries(csv_cache_dir) == [name]
        assert np.array_equal(np.load(planted), GOOD)
    finally:
        os.chmod(csv_cache_dir, 0o700)
