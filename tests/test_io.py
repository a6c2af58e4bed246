import hashlib
import json
import os
import re
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from czfid import core, io, model, simulate

from golden import WRITTEN_DIGESTS, digest

#: Few examples: each one writes and parses a 1296-row file.
PROPERTY_SETTINGS = settings(
    max_examples=25, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.fixture
def dataset():
    config = simulate.ExperimentConfig(pair_rate=1e3, visibility=0.5, seed=77)
    table, refs = simulate.simulate_counts(config)
    return config, table, refs


def test_counts_roundtrip(tmp_path, dataset):
    config, table, _ = dataset
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, table, {"seed": config.seed, "N": config.pair_rate, "V": 0.5})
    loaded, metadata, _ = io.read_counts_csv(path)
    np.testing.assert_array_equal(loaded, table.counts)
    assert metadata == {"seed": "77", "N": "1000.0", "V": "0.5"}


def test_counts_file_layout(tmp_path, dataset):
    _, table, _ = dataset
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, table, {"seed": 1, "N": 10.0, "V": None})
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "j,k,l,m,count"
    data = [line for line in lines[1:] if not line.startswith("#")]
    meta = [line for line in lines[1:] if line.startswith("#")]
    assert len(data) == 1296
    assert data[0].split(",")[:4] == ["H", "H", "H", "H"]
    assert meta == ["#seed=1", "#N=10.0"]


def test_counts_roundtrip_with_real_values(tmp_path, dataset):
    _, table, refs = dataset
    renorm = simulate.renormalize_counts(table, refs)
    path = tmp_path / "renorm.csv"
    io.write_counts_csv(path, renorm)
    loaded, _, _ = io.read_counts_csv(path)
    np.testing.assert_array_equal(loaded, renorm)


def test_counts_incomplete_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("j,k,l,m,count\nH,H,H,H,5\n")
    with pytest.raises(ValueError, match="incomplete"):
        io.read_counts_csv(path)


def test_counts_bad_header_rejected(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n")
    with pytest.raises(ValueError, match="header"):
        io.read_counts_csv(path)


def test_references_roundtrip(tmp_path, dataset):
    _, _, refs = dataset
    path = tmp_path / "refs.csv"
    io.write_references_csv(path, refs)
    loaded, _ = io.read_references_csv(path)
    np.testing.assert_array_equal(loaded, refs)


def test_references_writer_takes_a_plain_array(tmp_path):
    refs = np.arange(36) * 2.5 + 0.1
    path = tmp_path / "refs.csv"
    io.write_references_csv(path, refs)
    loaded, _ = io.read_references_csv(path)
    assert isinstance(loaded, np.ndarray) and loaded.dtype == float
    np.testing.assert_array_equal(loaded, refs)
    refs[7] = -3.0
    with pytest.raises(ValueError, match="^reference counts has negative counts; counts must be nonnegative$"):
        io.write_references_csv(tmp_path / "negative.csv", refs)
    assert not (tmp_path / "negative.csv").exists()


def test_reader_skips_blank_lines_under_crlf_endings(tmp_path, dataset):
    config, table, _ = dataset
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, table, {"seed": config.seed, "N": config.pair_rate, "V": 0.5})
    lines = path.read_text().splitlines()
    lines[5:5] = ["", "  \t "]
    path.write_bytes(("\r\n".join(lines) + "\r\n").encode())
    loaded, metadata, sha256 = io.read_counts_csv(path)
    np.testing.assert_array_equal(loaded, table.counts)
    assert metadata == {"seed": "77", "N": "1000.0", "V": "0.5"}
    # the hash is of the bytes on disk, before the line endings are read as \n
    assert sha256 == hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(0.0, np.inf), complex(-np.inf, 1.0)])
def test_choi_writer_rejects_non_finite_entries(tmp_path, bad):
    chi = model.model_choi(0.7)
    chi[3, 5] = bad
    with pytest.raises(ValueError, match="16x16 matrix has 1 non-finite entries"):
        io.write_choi_csv(tmp_path / "choi.csv", chi)
    assert list(tmp_path.iterdir()) == []


def test_choi_roundtrip(tmp_path):
    chi = model.model_choi(0.7)
    path = tmp_path / "choi.csv"
    io.write_choi_csv(path, chi)
    loaded = io.read_choi_csv(path)
    np.testing.assert_allclose(loaded, chi, atol=0.0)
    text = path.read_text()
    assert text.startswith("row,col,re,im\n")
    assert "#trace=" in text
    assert "np.float64" not in text


@pytest.mark.parametrize(
    "row, message",
    [
        ("16,0,0.0,0.0", r"choi.csv:2: row must be an integer in 0\.\.15, got '16'"),
        ("-1,0,0.0,0.0", r"row must be an integer in 0\.\.15, got '-1'"),
        ("0,1.5,0.0,0.0", r"col must be an integer in 0\.\.15, got '1\.5'"),
        ("0,x,0.0,0.0", "col must be an integer"),
        ("0,1,0.0,0.0", "choi.csv:3: duplicate entry for row,col 0,1"),
        pytest.param("0,0,nan,0.0", "choi.csv:2: re must be a finite number, got 'nan' .non-finite.$",
                     id="re-non-finite"),
        pytest.param("0,0,0.5,x", "choi.csv:2: im must be a finite number, got 'x' .not a number.$",
                     id="im-not-a-number"),
    ],
)
def test_choi_malformed_row_is_named(tmp_path, row, message):
    path = tmp_path / "choi.csv"
    io.write_choi_csv(path, model.model_choi(0.7))
    lines = path.read_text().splitlines()
    lines[1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message):
        io.read_choi_csv(path)


def test_config_roundtrip(tmp_path):
    payload = {
        "pair_rate": 5000.0,
        "visibility": 0.8,
        "drift": {"kind": "sinusoidal", "amplitude": 0.1, "period": 200.0},
        "seed": 3,
        "noise_admixture": 0.05,
    }
    path = tmp_path / "config.json"
    io.write_json(path, payload)
    raw, config = io.read_config(path)
    assert raw == payload
    assert config.pair_rate == 5000.0
    assert config.visibility == 0.8
    assert config.drift.kind == "sinusoidal"
    assert config.seed == 3
    assert config.noise_admixture == 0.05


def test_config_with_choi_file(tmp_path):
    chi = model.model_choi(0.9)
    io.write_choi_csv(tmp_path / "gate.csv", chi)
    io.write_json(tmp_path / "config.json", {"pair_rate": 100.0, "choi_file": "gate.csv"})
    _, config = io.read_config(tmp_path / "config.json")
    np.testing.assert_allclose(config.choi, chi, atol=0.0)
    with pytest.raises(ValueError, match="exactly one of visibility and choi"):
        io.parse_config({"pair_rate": 1.0, "visibility": 0.5, "choi_file": "gate.csv"}, tmp_path)


def test_config_requires_pair_rate():
    with pytest.raises(ValueError, match="pair_rate"):
        io.parse_config({"visibility": 0.5})


def test_config_seed_must_be_integral():
    config = io.parse_config({"pair_rate": 1.0, "visibility": 0.5, "seed": 3})
    assert config.seed == 3 and isinstance(config.seed, int)
    for seed in (3.0, 1e30, 1.7, "3", True):
        with pytest.raises(ValueError, match="^seed must be a nonnegative integer, got "):
            io.parse_config({"pair_rate": 1.0, "visibility": 0.5, "seed": seed})
    with pytest.raises(ValueError, match="^config seed must not be null$"):
        io.parse_config({"pair_rate": 1.0, "visibility": 0.5, "seed": None})


def test_config_numbers_are_named():
    config = io.parse_config({"pair_rate": 10, "visibility": 1, "noise_admixture": 0})
    assert (config.pair_rate, config.visibility, config.noise_admixture) == (10.0, 1.0, 0.0)
    assert all(isinstance(x, float) for x in (config.pair_rate, config.visibility))
    for value in ("1e3", True, float("nan"), float("inf"), 10**400):
        with pytest.raises(ValueError, match="^pair_rate must be positive and finite, got "):
            io.parse_config({"pair_rate": value, "visibility": 0.5})
    with pytest.raises(ValueError, match="^config pair_rate must not be null$"):
        io.parse_config({"pair_rate": None, "visibility": 0.5})


#: Bad config-JSON values, each with the class whose rule judges it: the same
#: value given in Python must get the same message.  A null has no Python
#: twin (a ``visibility=None`` reads as absent), so the JSON door names it.
BAD_CONFIG_VALUES = [
    *(
        pytest.param({key: value}, simulate.ExperimentConfig, id=f"{key}-{value!r}")
        for key, values in (
            ("pair_rate", ("x", True, float("nan"), float("inf"), -1.0, 0)),
            ("visibility", ("0.5", False, float("nan"), 1.5, -0.1)),
            ("noise_admixture", ("0", True, float("nan"), 1.0, -0.1)),
            ("seed", (3.0, 1e30, 1.7, "3", True, -1)),
        )
        for value in values
    ),
    *(
        pytest.param({"drift": drift}, simulate.DriftProfile, id="drift-" + ",".join(map(repr, drift.values())))
        for drift in (
            {"kind": "bogus"},
            {"kind": 3},
            {"kind": "linear", "amplitude": "0.1"},
            {"kind": "linear", "amplitude": 0.9},
            {"kind": "sinusoidal", "amplitude": 0.1, "period": True},
            {"kind": "sinusoidal", "amplitude": 0.1, "period": None},
            {"kind": "random-walk", "step": float("nan")},
            {"kind": "random-walk", "step": 0.01, "period": 100},
            {"kind": "constant", "amplitude": "0"},
        )
    ),
    *(pytest.param({key: None}, None, id=f"null-{key}") for key in io.CONFIG_KEYS),
]


@pytest.mark.parametrize("fields, owner", BAD_CONFIG_VALUES)
def test_a_bad_config_value_gets_the_same_message_from_json_and_python(fields, owner):
    payload = {"pair_rate": 1.0, "visibility": 0.5, **fields}
    if owner is None:
        expected = f"config {next(iter(fields))} must not be null"
    else:
        with pytest.raises(ValueError) as python:
            owner(**fields["drift"]) if owner is simulate.DriftProfile else owner(**payload)
        expected = str(python.value)
    with pytest.raises(ValueError) as from_json:
        io.parse_config(json.loads(json.dumps(payload)))
    assert str(from_json.value) == expected


def test_atomic_write_leaves_no_temp_files(tmp_path):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_atomic_write_that_fails_leaves_no_file(tmp_path):
    with pytest.raises(UnicodeEncodeError):
        io.atomic_write_text(tmp_path / "x.txt", "\ud800")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("writer", ["write_json", "write_json_lines"])
def test_a_non_finite_number_is_a_program_fault_and_writes_nothing(tmp_path, writer, value):
    path = tmp_path / "out.json"
    path.write_text("old\n")
    payload = {"f_chi": {"value": 0.5, "sigma": value}}
    with pytest.raises(RuntimeError, match=f"^{re.escape(str(path))}: refusing to write Out of range float") as fault:
        getattr(io, writer)(path, payload if writer == "write_json" else [payload])
    assert not isinstance(fault.value, ValueError)  # the CLI would report a ValueError as bad usage, exit 2
    assert path.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


@pytest.mark.parametrize("target", ["missing/out.txt", "out"], ids=["no-such-directory", "is-a-directory"])
def test_atomic_write_that_cannot_create_or_rename_names_the_target(tmp_path, target):
    path = tmp_path / target
    if target == "out":
        path.mkdir()  # the temp file is made, then cannot replace a directory
    with pytest.raises(OSError) as failed:
        io.atomic_write_text(path, "hello\n")
    assert failed.value.filename == str(path)
    assert str(failed.value).endswith(f": {str(path)!r}") and ".tmp" not in str(failed.value)
    assert [p.name for p in tmp_path.rglob("*")] == (["out"] if path.is_dir() else [])


@pytest.mark.parametrize("target", ["missing/out.txt", "out", "new.txt"],
                         ids=["no-such-directory", "is-a-directory", "writable"])
def test_check_writable_raises_what_the_write_would_and_writes_nothing(tmp_path, target):
    path = tmp_path / target
    if target == "out":
        path.mkdir()
    if target == "new.txt":
        io.check_writable(path)
    else:
        with pytest.raises(OSError) as checked:
            io.check_writable(path)
        with pytest.raises(OSError) as written:
            io.atomic_write_text(path, "hello\n")
        assert str(checked.value) == str(written.value)
    assert [p.name for p in tmp_path.rglob("*")] == (["out"] if path.is_dir() else [])


def test_an_output_name_near_the_filesystems_limit_is_written(tmp_path):
    # the temporary file beside the output must not need a longer name than the output itself
    path = tmp_path / ("r" * (os.pathconf(tmp_path, "PC_NAME_MAX") - 10))
    io.check_writable(path)
    assert list(tmp_path.iterdir()) == []
    io.atomic_write_text(path, "hello\n")
    assert path.read_text() == "hello\n"
    assert list(tmp_path.iterdir()) == [path]


def mode(path) -> int:
    return stat.S_IMODE(path.stat().st_mode)


def test_a_new_output_gets_the_mode_a_plain_write_gives(tmp_path, umask):
    plain = tmp_path / "plain.txt"
    with open(plain, "w", encoding="utf-8") as handle:
        handle.write("hello\n")
    io.atomic_write_text(tmp_path / "out.txt", "hello\n")
    assert mode(tmp_path / "out.txt") == mode(plain) == 0o666 & ~umask


@pytest.mark.parametrize("kept", [0o640, 0o604], ids=["0640", "0604"])
def test_an_overwritten_output_keeps_its_mode(tmp_path, umask, kept):
    path = tmp_path / "out.txt"
    io.atomic_write_text(path, "old\n")
    path.chmod(kept)
    io.atomic_write_text(path, "new\n")
    assert mode(path) == kept and path.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


@pytest.mark.parametrize("ending", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
def test_a_byte_that_is_not_utf8_is_named_by_its_line(tmp_path, ending):
    path = tmp_path / "references.csv"
    path.write_bytes(ending.join(["j,k,count", "H,H,1", "H,V,\xe92"]).encode("latin-1"))
    with pytest.raises(ValueError) as failed:
        io.read_references_csv(path)
    assert str(failed.value) == f"{path}:3: byte 0xe9 is not UTF-8 (invalid continuation byte)"


def test_simulate_to_files(tmp_path, dataset):
    config, table, refs = dataset
    paths = io.simulate_to_files(config, table, refs, tmp_path / "run", {"pair_rate": 1e3}, tmp_path)
    assert paths["counts"].exists()
    assert paths["references"].exists()
    assert paths["config"].exists()
    loaded, metadata, _ = io.read_counts_csv(paths["counts"])
    np.testing.assert_array_equal(loaded, table.counts)
    assert metadata["seed"] == "77"
    # a numpy-integer seed draws the same table and is written as a JSON integer
    numpy_config = simulate.ExperimentConfig(pair_rate=1e3, visibility=0.5, seed=np.int64(77))
    numpy_table, numpy_refs = simulate.simulate_counts(numpy_config)
    np.testing.assert_array_equal(numpy_table.counts, table.counts)
    payload = {"pair_rate": 1e3, "visibility": 0.5}
    paths = io.simulate_to_files(numpy_config, numpy_table, numpy_refs, tmp_path / "numpy", payload, tmp_path)
    assert json.loads(paths["config"].read_text()) == {**payload, "seed": 77}
    assert io.read_config(paths["config"])[1] == numpy_config
    assert io.read_counts_csv(paths["counts"])[1]["seed"] == "77"


@PROPERTY_SETTINGS
@given(
    table=st.one_of(
        arrays(np.int64, (36, 36), elements=st.integers(0, 10**12)),
        arrays(np.float64, (36, 36), elements=st.floats(0.0, 1e15, allow_subnormal=True)),
    )
)
def test_counts_roundtrip_is_exact(tmp_path, table):
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, table)
    loaded, _, _ = io.read_counts_csv(path)
    np.testing.assert_array_equal(loaded, table)


@PROPERTY_SETTINGS
@given(
    row=st.integers(0, 1295),
    field=st.integers(0, 3),
    label=st.sampled_from(core.PROBE_LABELS + ("X", "h", "")),
    duplicate=st.booleans(),
)
def test_counts_duplicated_or_relabelled_row_is_rejected(tmp_path, row, field, label, duplicate):
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, np.arange(1296.0).reshape(36, 36))
    lines = path.read_text().splitlines()
    fields = lines[1 + row].split(",")
    if duplicate:
        lines.insert(1 + (row + 7) % 1296, lines[1 + row])
    elif fields[field] == label:
        return
    else:
        fields[field] = label
        lines[1 + row] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match="duplicate|unknown probe label"):
        io.read_counts_csv(path)


@pytest.mark.parametrize(
    "row, message",
    [
        ("H,H,H,H,nan", "non-finite"),
        ("H,H,H,H,inf", "non-finite"),
        ("H,H,H,H,-3", "negative"),
        ("H,H,H,H,five", "counts.csv:2: count .* got 'five'"),
        ("H,H,H,H", "expected 5 fields"),
        ("H,H,X,H,5", "unknown probe label 'X'"),
        ("H,H,H,H,-inf", "counts.csv:2: count .* got '-inf' .non-finite"),
        ("H,H,H,H,-0.5", "counts.csv:2: count .* got '-0.5' .negative"),
        ("H,H,H,H,1e308", "counts.csv:2: count .* got '1e308' .too large"),
        ("H,H,H,V,1", "counts.csv:3: duplicate row for j,k,l,m H,H,H,V"),
        ("#note", "counts.csv: incomplete, 1 of 1296 rows missing"),
    ],
)
def test_counts_malformed_row_is_named(tmp_path, row, message):
    path = tmp_path / "counts.csv"
    io.write_counts_csv(path, np.ones((36, 36)))
    lines = path.read_text().splitlines()
    lines[1] = row
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=message) as excinfo:
        io.read_counts_csv(path)
    assert str(excinfo.value).startswith(f"{path}:")


def test_references_duplicate_and_unknown_rows_rejected(tmp_path, dataset):
    _, _, refs = dataset
    path = tmp_path / "refs.csv"
    io.write_references_csv(path, refs)
    lines = path.read_text().splitlines()

    def row(text):
        return [lines[0], text] + lines[2:]

    for edited, message in [
        (lines[:2] + lines[1:], "duplicate"),
        (row("Q" + lines[1][1:]), "unknown probe label 'Q'"),
        (row(lines[1].rsplit(",", 1)[0] + ",nan"), "non-finite"),
        (row("H,H,five"), "refs.csv:2: count .* got 'five' .not a number"),
        (row("H,H,-2"), "refs.csv:2: count .* got '-2' .negative"),
        (lines[:3] + lines[2:], "refs.csv:4: duplicate row for j,k H,V"),
        (lines[:1] + lines[2:], "refs.csv: incomplete, 1 of 36 rows missing"),
    ]:
        path.write_text("\n".join(edited) + "\n")
        with pytest.raises(ValueError, match=message) as excinfo:
            io.read_references_csv(path)
        assert str(excinfo.value).startswith(f"{path}:")


#: The fault each value breaks as a count ("" for none).
RULE_CASES = [
    pytest.param(float("nan"), "non-finite", id="nan"),
    pytest.param(float("inf"), "non-finite", id="inf"),
    pytest.param(-1.0, "negative", id="negative"),
    pytest.param(1.5, "", id="fractional"),
    pytest.param(2.0**53 + 2, "too large", id="2**53+2"),
    pytest.param(1e30, "too large", id="1e30"),
]


def _fault_word(call) -> str:
    """The one fault word the error of ``call()`` names, or "" if it raises nothing."""
    try:
        call()
    except ValueError as error:
        (word,) = set(re.findall(r"\b(non-finite|negative|too large)\b", str(error)))
        return word
    return ""


@pytest.mark.parametrize("value, as_count", RULE_CASES)
def test_arrays_and_files_share_one_value_rule(tmp_path, value, as_count):
    table = np.ones((36, 36))
    table[0, 0] = value
    counts_path = tmp_path / "counts.csv"
    io.write_counts_csv(counts_path, np.ones((36, 36)))
    lines = counts_path.read_text().splitlines()
    lines[1] = f"H,H,H,H,{value!r}"
    counts_path.write_text("\n".join(lines) + "\n")
    assert _fault_word(lambda: core.count_table(table)) == as_count
    assert _fault_word(lambda: io.read_counts_csv(counts_path)) == as_count

    refs_path = tmp_path / "refs.csv"
    io.write_references_csv(refs_path, np.ones(36))
    lines = refs_path.read_text().splitlines()
    values = np.ones(36)
    values[0] = value
    lines[1] = f"H,H,{value!r}"
    refs_path.write_text("\n".join(lines) + "\n")
    assert _fault_word(lambda: core.reference_values(values)) == as_count
    assert _fault_word(lambda: io.read_references_csv(refs_path)) == as_count


def test_written_files_match_pinned_digests(tmp_path, dataset):
    from czfid import tomography

    config, table, refs = dataset
    io.write_counts_csv(tmp_path / "counts.csv", table, {"seed": config.seed, "N": config.pair_rate, "V": 0.5})
    io.write_references_csv(tmp_path / "references.csv", refs)
    io.write_choi_csv(tmp_path / "choi.csv", tomography.maxlik_reconstruct(table).chi)
    digests = {name: digest((tmp_path / name).read_bytes()) for name in WRITTEN_DIGESTS}
    assert digests == WRITTEN_DIGESTS
