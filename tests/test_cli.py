import argparse
import dataclasses
import hashlib
import json
import stat
import sys
import warnings

import numpy as np
import pytest

from czfid import cli, core, estimators, io, model, simulate, tomography

from golden import GOLDEN_FIT_DIGESTS, NOISY_SWEEP_ROWS, NOISY_SWEEP_SPEC, digest


def run(*argv):
    return cli.main([str(a) for a in argv])


@pytest.fixture
def config_path(tmp_path):
    path = tmp_path / "config.json"
    io.write_json(
        path,
        {"pair_rate": 1e4, "visibility": 0.5, "drift": {"kind": "constant"}, "seed": 42},
    )
    return path


@pytest.fixture
def dataset_dir(tmp_path, config_path):
    out = tmp_path / "run"
    assert run("simulate", config_path, out) == 0
    return out


def sha(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_format_uncertainty():
    assert cli.format_uncertainty(0.8596, 0.0013) == "0.860(1)"
    assert cli.format_uncertainty(-0.0341, 0.0021) == "-0.034(2)"
    assert cli.format_uncertainty(0.531, 0.00096) == "0.531(1)"
    assert cli.format_uncertainty(0.25, None) == "0.2500"
    assert cli.format_uncertainty(0.25, 0.0) == "0.2500"


def test_simulate_writes_expected_files(dataset_dir):
    lines = (dataset_dir / "counts.csv").read_text().strip().splitlines()
    data_rows = [line for line in lines[1:] if not line.startswith("#")]
    assert len(data_rows) == 1296
    echoed = json.loads((dataset_dir / "config.json").read_text())
    assert echoed["seed"] == 42
    refs, _ = io.read_references_csv(dataset_dir / "references.csv")
    assert np.all(refs > 0)


def test_simulate_is_reproducible(tmp_path, config_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert run("simulate", config_path, out_a) == 0
    assert run("simulate", config_path, out_b) == 0
    for name in ("counts.csv", "references.csv"):
        assert sha(out_a / name) == sha(out_b / name)


def test_simulate_resolves_missing_seed(tmp_path):
    config = tmp_path / "noseed.json"
    io.write_json(config, {"pair_rate": 1e3, "visibility": 0.9})
    out = tmp_path / "out"
    assert run("simulate", config, out) == 0
    echoed = json.loads((out / "config.json").read_text())
    assert isinstance(echoed["seed"], int)


@pytest.mark.parametrize(
    "payload, message",
    [
        pytest.param({"visibility": 1.2}, "visibility must lie in [0, 1]", id="visibility-above-1"),
        pytest.param({"seed": 1.7}, "seed must be a nonnegative integer, got 1.7", id="fractional-seed"),
        pytest.param({"seed": -1}, "seed must be a nonnegative integer", id="negative-seed"),
        pytest.param(
            {"drift": {"kind": "random-walk", "step": -0.1}}, "drift step must be nonnegative",
            id="negative-step",
        ),
        pytest.param(
            {"drift": {"kind": "linear", "amplitude": 0.9}}, "amplitude must lie in [-0.5, 0.5]",
            id="linear-amplitude",
        ),
        pytest.param(
            {"drift": {"kind": "sinusoidal", "amplitude": -0.9, "period": 100}},
            "amplitude must lie in [-0.5, 0.5]", id="sinusoidal-amplitude",
        ),
        pytest.param(
            {"drift": {"kind": "constant", "amplitude": 0.3}},
            "constant drift takes no amplitude, got amplitude=0.3", id="constant-amplitude",
        ),
        pytest.param(
            {"drift": {"kind": "random-walk", "step": 0.01, "period": 100}},
            "random-walk drift takes no period, got period=100", id="random-walk-period",
        ),
        pytest.param({"sed": 1}, "config has unknown keys ['sed']", id="unknown-key"),
        pytest.param(
            {"drift": {"kind": "linear", "amp": 0.1}}, "config drift has unknown keys ['amp']",
            id="unknown-drift-key",
        ),
        pytest.param({"drift": "linear"}, "config drift must be a JSON object", id="drift-not-object"),
        pytest.param({"pair_rate": "x"}, "pair_rate must be positive and finite, got 'x'", id="string-pair-rate"),
        pytest.param({"visibility": True}, "visibility must lie in [0, 1], got True", id="bool-visibility"),
        *(
            pytest.param(
                {"visibility": None, **choi}, "config visibility must not be null", id=f"null-visibility{tag}"
            )
            for choi, tag in (({}, ""), ({"choi_file": "gate.csv"}, "-with-choi-file"))
        ),
        pytest.param(
            {"choi_file": "gate.csv"}, "config must define exactly one of visibility and choi", id="both-sources"
        ),
        pytest.param(
            {"noise_admixture": None}, "config noise_admixture must not be null",
            id="null-noise",
        ),
        pytest.param(
            {"drift": {"kind": "linear", "amplitude": "0.1"}},
            "linear drift amplitude must lie in [-0.5, 0.5], got '0.1'", id="string-amplitude",
        ),
        pytest.param(
            {"drift": {"kind": "sinusoidal", "amplitude": 0.1, "period": None}},
            "sinusoidal drift requires a positive finite period, got None", id="null-period",
        ),
        pytest.param(
            {"drift": {"kind": "random-walk", "step": False}}, "drift step must be nonnegative and finite, got False",
            id="bool-step",
        ),
        *(
            pytest.param(
                {"drift": value}, f"config drift must be a JSON object, got {kind}", id=f"drift-{kind}"
            )
            for value, kind in ((False, "bool"), ([], "list"))
        ),
        pytest.param({"drift": None}, "config drift must not be null", id="drift-NoneType"),
        *(
            pytest.param(
                {"choi_file": value},
                f"choi_file must be a non-empty string, got {value!r}", id=f"choi-file-{value!r}",
            )
            for value in (5, True, "", False)
        ),
        pytest.param({"choi_file": None}, "config choi_file must not be null", id="choi-file-None"),
        pytest.param(
            {"pair_rate": 1e20}, "pair_rate 1e+20 gives mean counts above 2**53", id="pair-rate-too-large"
        ),
        pytest.param(
            {"pair_rate": 1.7e308, "drift": {"kind": "linear", "amplitude": 0.5}},
            "pair_rate 1.7e+308 gives mean counts above 2**53", id="pair-rate-overflows",
        ),
    ],
)
def test_simulate_rejects_bad_config(tmp_path, capsys, payload, message):
    io.write_choi_csv(tmp_path / "gate.csv", model.model_choi(0.9))
    config = tmp_path / "bad.json"
    io.write_json(config, {"pair_rate": 1e3, "visibility": 0.5, "seed": 1, **payload})
    assert run("simulate", config, tmp_path / "out") == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("visibility, clamped", [(1.0005, 1.0), (-0.0005, 0.0)])
def test_simulate_reports_clamped_visibility_once(tmp_path, capsys, visibility, clamped):
    io.write_json(tmp_path / "edge.json", {"pair_rate": 100, "visibility": visibility, "seed": 1})
    io.write_json(tmp_path / "exact.json", {"pair_rate": 100, "visibility": clamped, "seed": 1})
    assert run("simulate", tmp_path / "edge.json", tmp_path / "edge") == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: visibility {visibility} outside [0, 1], clamped to {clamped}"
    ]
    assert run("simulate", tmp_path / "exact.json", tmp_path / "exact") == 0
    assert capsys.readouterr().err == ""
    counts = (tmp_path / "edge" / "counts.csv").read_text()
    assert counts.splitlines()[-1] == f"#V={clamped}"
    assert counts == (tmp_path / "exact" / "counts.csv").read_text()
    assert json.loads((tmp_path / "edge" / "config.json").read_text())["visibility"] == visibility


@pytest.mark.parametrize(
    "row, message",
    [
        pytest.param("16,0,0.0,0.0", "gate.csv:2: row must be an integer in 0..15, got '16'", id="row-16"),
        pytest.param("-1,0,0.0,0.0", "gate.csv:2: row must be an integer in 0..15, got '-1'", id="row-negative"),
        pytest.param("0,1,0.0,0.0", "gate.csv:3: duplicate entry for row,col 0,1", id="duplicate"),
    ],
)
def test_simulate_rejects_malformed_choi_file(tmp_path, capsys, row, message):
    io.write_choi_csv(tmp_path / "gate.csv", model.model_choi(0.9))
    lines = (tmp_path / "gate.csv").read_text().splitlines()
    lines[1] = row
    (tmp_path / "gate.csv").write_text("\n".join(lines) + "\n")
    io.write_json(tmp_path / "config.json", {"pair_rate": 100.0, "choi_file": "gate.csv", "seed": 1})
    assert run("simulate", tmp_path / "config.json", tmp_path / "out") == 2
    assert message in capsys.readouterr().err


def test_a_choi_file_near_float_range_is_checked_without_numpy_warnings(tmp_path, capsys):
    # numpy warnings are errors here, so no check may overflow; the last chi passes its checks and is
    # simulated at a rate that fits it
    for diagonal, pair_rate, code, err in (
        ((1e308,) * 16, 300.0, 2, "error: 16x16 process matrix is too large: its trace is not a finite number\n"),
        ((1e308,) + (0.0,) * 15, 300.0, 2, "error: pair_rate 300.0 gives mean counts above 2**53, the largest count\n"),
        ((1e308,) + (0.0,) * 15, 1e-300, 0, ""),
    ):
        rows = [f"{i},{j},{diagonal[i] if i == j else 0.0!r},0.0" for i in range(16) for j in range(16)]
        (tmp_path / "gate.csv").write_text("\n".join(["row,col,re,im", *rows]) + "\n")
        io.write_json(tmp_path / "config.json", {"pair_rate": pair_rate, "choi_file": "gate.csv", "seed": 1})
        assert run("simulate", tmp_path / "config.json", tmp_path / "out") == code
        assert capsys.readouterr().err == err
    assert io.read_counts_csv(tmp_path / "out" / "counts.csv")[0].sum() > 0


@pytest.mark.parametrize("pair_rate", [1e3, 2**53 - 2e9])
def test_simulate_prints_the_exact_total_of_the_counts_it_writes(tmp_path, capsys, pair_rate):
    # near 2**53 per setting the total passes 2**63, where an int64 sum wraps and a float one drops digits
    io.write_choi_csv(tmp_path / "gate.csv", np.eye(16))
    io.write_json(tmp_path / "config.json", {"pair_rate": pair_rate, "choi_file": "gate.csv", "seed": 1})
    assert run("simulate", tmp_path / "config.json", tmp_path / "out") == 0
    counts, _, _ = io.read_counts_csv(tmp_path / "out" / "counts.csv")
    total = sum(int(count) for count in counts.ravel())  # each count is at most 2**53, so exact as a float
    first_line = capsys.readouterr().out.splitlines()[0]
    assert first_line == f"wrote {tmp_path / 'out' / 'counts.csv'} ({total} coincidences, seed 1)"


def test_simulate_rejects_non_object_config(tmp_path, capsys):
    config = tmp_path / "list.json"
    config.write_text("[1000.0, 0.5]")
    assert run("simulate", config, tmp_path / "out") == 2
    assert "config must be a JSON object" in capsys.readouterr().err


def test_simulate_reads_choi_file_once(tmp_path, monkeypatch):
    io.write_choi_csv(tmp_path / "gate.csv", model.model_choi(0.9))
    io.write_json(tmp_path / "noseed.json", {"pair_rate": 100.0, "choi_file": "gate.csv"})
    reads, checks = [], []
    read_choi_csv, finite_matrix = io.read_choi_csv, core.finite_matrix
    monkeypatch.setattr(io, "read_choi_csv", lambda path: reads.append(path) or read_choi_csv(path))

    def recorded(*args, **kwargs):
        checks.append(args)
        return finite_matrix(*args, **kwargs)

    for name, module in list(sys.modules.items()):  # every module that binds the check, so no caller escapes
        if name.split(".")[0] == "czfid" and getattr(module, "finite_matrix", None) is finite_matrix:
            monkeypatch.setattr(module, "finite_matrix", recorded)
    assert run("simulate", tmp_path / "noseed.json", tmp_path / "out") == 0
    assert reads == [tmp_path / "gate.csv"]
    # the seedless config is built once, with its drawn seed, so its matrix is checked once
    assert len(checks) == 1
    assert isinstance(json.loads((tmp_path / "out" / "config.json").read_text())["seed"], int)


def test_simulate_writes_each_file_with_the_mode_a_plain_write_gives(tmp_path, config_path, umask):
    assert run("simulate", config_path, tmp_path / "out") == 0
    modes = {path.name: stat.S_IMODE(path.stat().st_mode) for path in (tmp_path / "out").iterdir()}
    assert modes == dict.fromkeys(["counts.csv", "references.csv", "config.json"], 0o666 & ~umask)


def test_simulate_checks_every_output_before_it_writes_one(tmp_path, config_path, capsys):
    out = tmp_path / "out"
    (out / "config.json").mkdir(parents=True)
    assert run("simulate", config_path, out) == 2
    assert capsys.readouterr().err == f"error: [Errno 21] Is a directory: {str(out / 'config.json')!r}\n"
    assert [p.name for p in out.iterdir()] == ["config.json"]


def test_a_refused_simulate_leaves_the_earlier_dataset_as_it_was(tmp_path, config_path):
    out = tmp_path / "out"
    assert run("simulate", config_path, out) == 0
    before = {name: (out / name).read_bytes() for name in ("counts.csv", "references.csv")}
    (out / "config.json").unlink()
    (out / "config.json").mkdir()
    io.write_json(tmp_path / "other.json", {"pair_rate": 1e3, "visibility": 0.9, "seed": 1})
    assert run("simulate", tmp_path / "other.json", out) == 2
    assert {name: (out / name).read_bytes() for name in before} == before
    assert sorted(p.name for p in out.iterdir()) == ["config.json", "counts.csv", "references.csv"]


def test_simulate_rejects_missing_config(tmp_path):
    assert run("simulate", tmp_path / "absent.json", tmp_path / "out") == 2


def test_the_config_echo_re_simulates_the_same_dataset(tmp_path):
    # the echo keeps a relative choi_file pointing at the same file from its new directory
    (tmp_path / "cfg").mkdir()
    io.write_choi_csv(tmp_path / "cfg" / "gate.csv", model.model_choi(0.9))
    io.write_json(tmp_path / "cfg" / "config.json", {"pair_rate": 1e3, "choi_file": "gate.csv"})
    first, again = tmp_path / "first", tmp_path / "again"
    assert run("simulate", tmp_path / "cfg" / "config.json", first) == 0
    assert json.loads((first / "config.json").read_text())["choi_file"] == "../cfg/gate.csv"
    assert run("simulate", first / "config.json", again) == 0
    for name in ("counts.csv", "references.csv"):
        assert (again / name).read_bytes() == (first / name).read_bytes()
    # in place, the echo replaces its own config, which reads back as the same config
    before = {name: (first / name).read_bytes() for name in ("counts.csv", "references.csv", "config.json")}
    assert run("simulate", first / "config.json", first) == 0
    assert {name: (first / name).read_bytes() for name in before} == before


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_a_json_syntax_fault_is_named_by_path_line_and_column(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_text('{"pair_rate": 1e3,\n}\n')
    assert run(command, path, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {path}:2:1: Expecting property name enclosed in double quotes\n"


@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_json_nested_too_deeply_is_named_by_path(tmp_path, capsys, command):
    path = tmp_path / "in.json"
    path.write_text('{"pair_rate": 1e3, "drift": ' + "[" * 10**6 + "]" * 10**6 + "}")
    assert run(command, path, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {path}: JSON nested too deeply to parse\n"


@pytest.mark.parametrize("command, text, key", [
    pytest.param("simulate", '{"pair_rate": 1e4, "visibility": 0.9, "seed": 3, "visibility": 0.1}', "visibility",
                 id="config"),
    pytest.param("simulate", '{"pair_rate": 1e4, "visibility": 0.9, "drift": {"kind": "linear", "kind": "constant"}}',
                 "kind", id="config-drift"),
    pytest.param("sweep", '{"grid": {"start": 0, "stop": 1, "points": 3}, "grid": {"start": 0, "stop": 0.5, '
                 '"points": 2}}', "grid", id="sweep"),
    pytest.param("sweep", '{"grid": {"start": 0, "stop": 1, "points": 3}, "config": {"pair_rate": 1e3, '
                 '"pair_rate": 1e4}}', "pair_rate", id="sweep-config"),
])
def test_a_json_key_given_twice_is_refused_and_nothing_is_written(tmp_path, capsys, command, text, key):
    # a parser that keeps the last value would run on a config or grid the file does not state once
    path = tmp_path / "in.json"
    path.write_text(text)
    assert run(command, path, tmp_path / "out") == 2
    assert capsys.readouterr().err == f"error: {path}: duplicate key {key!r} in a JSON object\n"
    assert list(tmp_path.iterdir()) == [path]


def simulate_config_as(name):
    """``make_argv`` for a simulate run whose config is the file ``name`` in its output directory."""
    def make_argv(d):
        io.write_json(d / name, {"pair_rate": 1e3, "visibility": 0.9, "seed": 1})
        return ["simulate", d / name, d]
    return make_argv


def simulate_choi_as(name):
    """``make_argv`` for a simulate run whose ``choi_file`` is the file ``name`` in its output directory."""
    def make_argv(d):
        io.write_choi_csv(d / name, model.model_choi(0.9))
        io.write_json(d.parent / "gate.json", {"pair_rate": 1e3, "choi_file": f"{d.name}/{name}", "seed": 1})
        return ["simulate", d.parent / "gate.json", d]
    return make_argv


# the refused output is the last argument, or simulate's file of the victim's name in it
@pytest.mark.parametrize("make_argv, victim", [
    pytest.param(lambda d: ["estimate", d / "counts.csv", "--report", d / "counts.csv"], "counts.csv",
                 id="estimate-report-counts"),
    pytest.param(lambda d: ["estimate", d / "counts.csv", "--references", d / "references.csv",
                            "--report", d / "references.csv"], "references.csv", id="estimate-report-references"),
    pytest.param(lambda d: ["estimate", d / "counts.csv", "--report", d / ".." / d.name / "counts.csv"], "counts.csv",
                 id="estimate-another-spelling"),
    pytest.param(lambda d: ["reconstruct", d / "counts.csv", "--out", d / "counts.csv"], "counts.csv",
                 id="reconstruct-out-counts"),
    pytest.param(lambda d: ["sweep", d / "spec.json", d / "spec.json"], "spec.json", id="sweep-csv-spec"),
    *(pytest.param(simulate_config_as(name), name, id=f"simulate-config-{name}")
      for name in ("counts.csv", "references.csv")),
    *(pytest.param(simulate_choi_as(name), name, id=f"simulate-choi-{name}")
      for name in ("counts.csv", "references.csv", "config.json")),
])
def test_an_output_that_would_replace_an_input_is_refused_and_nothing_is_written(
        dataset_dir, capsys, make_argv, victim):
    # the report or fit written over its own counts would leave no copy of the data
    (dataset_dir / "spec.json").write_text('{"grid": {"start": 0, "stop": 1, "points": 2}, "analytic_only": false}')
    argv = make_argv(dataset_dir)
    before = {path: path.read_bytes() for path in dataset_dir.parent.rglob("*") if path.is_file()}
    output = argv[-1] / victim if argv[0] == "simulate" else argv[-1]
    assert run(*argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"error: output {output} is the input file {dataset_dir / victim}; "
                            "writing it would replace the input\n")
    assert {path: path.read_bytes() for path in dataset_dir.parent.rglob("*") if path.is_file()} == before


def test_a_sweep_whose_points_file_would_replace_its_spec_is_refused(tmp_path, capsys):
    spec = tmp_path / "c.csv.points.jsonl"
    spec.write_text('{"grid": {"start": 0, "stop": 1, "points": 2}, "analytic_only": false}')
    assert run("sweep", spec, tmp_path / "c.csv") == 2
    assert capsys.readouterr().err == (f"error: output {spec} is the input file {spec}; "
                                       "writing it would replace the input\n")
    assert list(tmp_path.iterdir()) == [spec]


def test_a_counts_metadata_key_given_twice_is_refused(dataset_dir, capsys):
    counts = dataset_dir / "counts.csv"
    text = counts.read_text()
    assert "#seed=42\n" in text
    counts.write_text(text + "#seed=999\n")
    lineno = len(text.splitlines()) + 1
    report = dataset_dir / "r.json"
    assert run("estimate", counts, "--report", report) == 2
    assert capsys.readouterr().err == f"error: {counts}:{lineno}: duplicate metadata key 'seed'\n"
    assert not report.exists()


@pytest.mark.parametrize("command", ["simulate", "sweep", "estimate"])
def test_a_byte_that_is_not_utf8_is_named_by_path_and_line(tmp_path, capsys, command):
    path = tmp_path / "in"
    path.write_bytes(b'{"pair_rate": 1e3,\n "seed": "\xff"}\n')
    assert run(command, path, *(() if command == "estimate" else (tmp_path / "out",))) == 2
    assert capsys.readouterr().err == f"error: {path}:2: byte 0xff is not UTF-8 (invalid start byte)\n"


def test_an_error_that_is_no_library_error_propagates_from_main(config_path, tmp_path, monkeypatch):
    def broken(path):
        raise KeyError("a fault in the program")

    monkeypatch.setattr(io, "read_config", broken)
    with pytest.raises(KeyError, match="a fault in the program"):
        run("simulate", config_path, tmp_path / "out")


def test_estimate_on_simulated_dataset(dataset_dir, capsys):
    report_path = dataset_dir / "report.json"
    rc = run(
        "estimate", dataset_dir / "counts.csv",
        "--references", dataset_dir / "references.csv",
        "--renormalize", "--bootstrap", "15", "--report", report_path,
    )
    assert rc == 0
    out = capsys.readouterr().out
    assert "F_chi" in out and "F_D" in out and "F_H" in out
    report = json.loads(report_path.read_text())
    # model values at V = 0.5: F_chi 0.625, F_H 0.5 (3-sigma statistical slack)
    assert abs(report["f_chi"]["value"] - 0.625) < 0.02
    assert abs(report["hofmann"]["f_h"] - 0.5) < 0.03
    assert report["f_chi"]["sigma"] is not None
    assert set(report["f_mc"]) == {"hv", "da", "rl"}
    assert set(report["f_mc_renormalized"]) == {"hv", "da", "rl"}
    assert report["f_chi"]["converged"] is True
    assert report["provenance"]["counts_sha256"] == sha(dataset_dir / "counts.csv")


def test_estimate_report_is_library_report_plus_file_provenance(dataset_dir):
    from czfid import __version__, estimate, tomography

    report_path = dataset_dir / "report.json"
    rc = run(
        "estimate", dataset_dir / "counts.csv", "--references", dataset_dir / "references.csv",
        "--renormalize", "--bootstrap", "4", "--seed", "7", "--report", report_path,
    )
    assert rc == 0
    written = json.loads(report_path.read_text())
    counts, metadata, _ = io.read_counts_csv(dataset_dir / "counts.csv")
    library = estimate(
        counts, io.read_references_csv(dataset_dir / "references.csv")[0],
        bootstrap=4, seed=7, settings=tomography.MaxLikSettings(),
    ).as_dict()
    # JSON has no tuples and no non-string keys, so compare through it
    library = json.loads(json.dumps(library))
    provenance = written.pop("provenance")
    assert written == {key: value for key, value in library.items() if key != "provenance"}
    # the library report states the versions; the CLI adds only what it learned from the files
    assert library["provenance"]["czfid_version"] == __version__
    assert library["provenance"]["numpy_version"] == np.__version__
    assert provenance == {
        **library["provenance"],
        "counts_file": str(dataset_dir / "counts.csv"),
        "counts_sha256": sha(dataset_dir / "counts.csv"),
        "references_file": str(dataset_dir / "references.csv"),
        "references_sha256": sha(dataset_dir / "references.csv"),
        "metadata": metadata,
    }
    assert {"min_eigenvalue", "guard_activations"} <= set(written["f_chi"])
    assert written["f_chi"]["bootstrap_nonconverged"] == 0
    assert written["f_chi"]["loglik_gap_bound"] >= 0.0
    assert written["f_chi"]["bootstrap_max_gap_bound"] >= 0.0


def test_estimate_reads_each_input_once_and_hashes_the_bytes_it_parsed(dataset_dir, monkeypatch):
    counts, refs = dataset_dir / "counts.csv", dataset_dir / "references.csv"
    report_path = dataset_dir / "report.json"
    argv = ("estimate", counts, "--references", refs, "--renormalize", "--report", report_path)
    watched, opened = {str(counts), str(refs)}, []

    def record_open(event, args):
        if event == "open" and str(args[0]) in watched:
            opened.append(str(args[0]))

    # an audit hook sees every open, whatever API makes it; it cannot be removed, so it is disarmed after use
    sys.addaudithook(record_open)
    try:
        assert run(*argv) == 0
    finally:
        watched.clear()
    assert opened == [str(counts), str(refs)]

    # the counts file is replaced right after io parsed it: the report keeps the hash of what was parsed
    parsed = sha(counts)
    read_text = io._read_text

    def parse_then_replace(path):
        result = read_text(path)
        if path == counts:
            counts.write_text(counts.read_text() + "#note=replaced\n")
        return result

    monkeypatch.setattr(io, "_read_text", parse_then_replace)
    assert run(*argv) == 0
    provenance = json.loads(report_path.read_text())["provenance"]
    assert sha(counts) != parsed
    assert provenance["counts_sha256"] == parsed
    assert provenance["references_sha256"] == sha(refs)


def test_estimate_warns_about_nonconverged_bootstrap_fits(dataset_dir, capsys):
    report_path = dataset_dir / "report.json"
    rc = run(
        "estimate", dataset_dir / "counts.csv", "--bootstrap", "3", "--max-iterations", "5",
        "--report", report_path,
    )
    assert rc == 0
    fit = json.loads(report_path.read_text())["f_chi"]
    assert fit["bootstrap_nonconverged"] == 3
    assert fit["iterations"] == 5 and not fit["converged"]
    assert capsys.readouterr().err.splitlines() == [
        "warning: reconstruction did not reach the stopping threshold "
        f"(5 iterations, residual {fit['residual']:.3e}, threshold 1.000e-05)",
        "warning: 3 of 3 bootstrap reconstructions did not reach the stopping threshold",
    ]


def test_estimate_reads_no_environment_variable(dataset_dir, capsys, monkeypatch):
    argv = ["estimate", dataset_dir / "counts.csv", "--max-iterations", "2"]
    plain = run(*argv), capsys.readouterr()
    monkeypatch.setenv("CZFID_LOG_LEVEL", "bogus")
    assert (run(*argv), capsys.readouterr()) == plain
    assert plain[0] == 0 and len(plain[1].err.splitlines()) == 1


def test_estimate_rejects_negative_bootstrap(dataset_dir, capsys):
    assert run("estimate", dataset_dir / "counts.csv", "--bootstrap", "-1") == 2
    assert "bootstrap must be a nonnegative number of resamples" in capsys.readouterr().err
    assert run("estimate", dataset_dir / "counts.csv", "--bootstrap", "3", "--seed", "-1") == 2
    assert "bootstrap seed must be a nonnegative integer, got -1" in capsys.readouterr().err


def test_estimate_refuses_one_bootstrap_run_before_any_fit(dataset_dir, capsys, monkeypatch):
    counts, _, _ = io.read_counts_csv(dataset_dir / "counts.csv")

    def no_fit(*args, **kwargs):
        raise AssertionError("an ML fit ran before the bootstrap count was checked")

    monkeypatch.setattr(tomography, "_rchir", no_fit)
    with pytest.raises(ValueError, match="^need an integer of at least 2 bootstrap runs, got 1$"):
        estimators.estimate(counts, bootstrap=1)
    assert run("estimate", dataset_dir / "counts.csv", "--bootstrap", "1") == 2
    assert capsys.readouterr().err == "error: need an integer of at least 2 bootstrap runs, got 1\n"


@pytest.mark.parametrize("runs", [2**40, 2**62])
def test_a_bootstrap_count_too_large_to_hold_is_refused_before_any_fit(dataset_dir, capsys, monkeypatch, runs):
    # unbounded, the bootstrap allocates one fidelity per resample after the main fit: 8 TiB for 2**40
    counts, _, _ = io.read_counts_csv(dataset_dir / "counts.csv")

    def no_fit(*args, **kwargs):
        raise AssertionError("an ML fit ran before the bootstrap count was checked")

    monkeypatch.setattr(tomography, "_rchir", no_fit)
    message = f"need an integer of at least 2 bootstrap runs and at most {tomography.MAX_BOOTSTRAP_RUNS}, got {runs}"
    for fit in (lambda: estimators.estimate(counts, bootstrap=runs),
                lambda: tomography.bootstrap_fidelity_uncertainty(core.cz_choi(), 1e4, n_runs=runs)):
        with pytest.raises(ValueError, match=f"^{message}$"):
            fit()
    assert run("estimate", dataset_dir / "counts.csv", "--bootstrap", runs) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "command, target, directory, fault",
    [
        *(
            pytest.param(command, target, directory, fault, id=f"{command}-{slug}")
            for command in ("estimate", "reconstruct", "sweep")
            for target, directory, fault, slug in (
                ("missing/out", None, "[Errno 2] No such file or directory", "no-such-directory"),
                ("out", "out", "[Errno 21] Is a directory", "is-a-directory"),
            )
        ),
        pytest.param("sweep", "o.csv", "o.csv.points.jsonl", "[Errno 21] Is a directory", id="sweep-points-file"),
    ],
)
def test_an_unwritable_output_is_refused_before_any_fit(dataset_dir, tmp_path, capsys, monkeypatch,
                                                         command, target, directory, fault):
    def no_fit(*args, **kwargs):
        raise AssertionError("an ML fit ran before the output path was checked")

    monkeypatch.setattr(tomography, "_rchir", no_fit)
    if directory:
        (tmp_path / directory).mkdir()
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": GRID, "analytic_only": False})
    path = tmp_path / target
    argv = {"estimate": ("--report", path), "reconstruct": ("--out", path), "sweep": (path,)}[command]
    assert run(command, spec if command == "sweep" else dataset_dir / "counts.csv", *argv) == 2
    assert capsys.readouterr().err == f"error: {fault}: {str(tmp_path / (directory or target))!r}\n"
    assert list(tmp_path.rglob("*.tmp")) == []


@pytest.mark.parametrize("command", ["estimate", "reconstruct"])
def test_ml_flags_default_to_settings_and_reject_non_finite_threshold(dataset_dir, capsys, command):
    extra = ["--out", str(dataset_dir / "chi.csv")] if command == "reconstruct" else []
    args = cli.build_parser().parse_args([command, "counts.csv", *extra])
    defaults = dataclasses.asdict(tomography.MaxLikSettings())
    ml_flags = argparse.ArgumentParser()
    cli._add_maxlik_flags(ml_flags)
    # every setting is an ML flag and every ML flag a setting, with one default
    assert vars(ml_flags.parse_args([])) == defaults
    assert {name: getattr(args, name) for name in defaults} == defaults
    assert run(command, dataset_dir / "counts.csv", *extra, "--stop-threshold", "inf") == 2
    assert "stop_threshold must be positive and finite, got inf" in capsys.readouterr().err


def test_estimate_single_expansion(dataset_dir, capsys):
    rc = run("estimate", dataset_dir / "counts.csv", "--expansion", "da")
    assert rc == 0
    report = json.loads((dataset_dir / "counts.report.json").read_text())
    assert list(report["f_mc"]) == ["da"]
    assert report["f_mc_renormalized"] is None
    assert report["f_chi"]["sigma"] is None and report["f_chi"]["bootstrap_nonconverged"] is None
    assert report["f_chi"]["bootstrap_max_gap_bound"] is None
    out = capsys.readouterr().out
    assert out.count("D/A") == 1


def test_estimate_all_expansions_prints_three_rows(dataset_dir, capsys):
    assert run("estimate", dataset_dir / "counts.csv") == 0
    out = capsys.readouterr().out
    for row in ("H/V", "D/A", "R/L"):
        assert row in out


def test_references_alone_add_the_renormalized_estimates(dataset_dir):
    # as estimate(counts, references) does; --renormalize adds nothing more
    argv = ("estimate", dataset_dir / "counts.csv", "--references", dataset_dir / "references.csv")
    assert run(*argv, "--report", dataset_dir / "alone.json") == 0
    assert run(*argv, "--renormalize", "--report", dataset_dir / "flag.json") == 0
    alone, flag = (json.loads((dataset_dir / name).read_text()) for name in ("alone.json", "flag.json"))
    assert set(alone["f_mc_renormalized"]) == {"hv", "da", "rl"}
    assert alone == flag


def test_estimate_renormalize_requires_references(dataset_dir):
    assert run("estimate", dataset_dir / "counts.csv", "--renormalize") == 2


def test_estimate_renormalize_names_a_zero_reference(dataset_dir, capsys):
    refs, _ = io.read_references_csv(dataset_dir / "references.csv")
    values = refs.copy()
    values[core.pair_index("D", "A")] = 0.0
    zero = dataset_dir / "zero_references.csv"
    io.write_references_csv(zero, values)
    capsys.readouterr()
    assert run("estimate", dataset_dir / "counts.csv", "--references", zero, "--renormalize") == 3
    assert capsys.readouterr().err == (
        "error: reference count for input block |DA> is zero; cannot renormalize\n"
    )


#: A positive reference too small to divide by, on the R,L line of a simulated dataset: C/D overflows at
#: 1e-320 and the variance of C/D at 1e-300.  Either wrote NaN or infinity into report.json with exit 0.
SUBNORMAL_REFERENCES = {
    "1e-320": "error: reference count 1e-320 for input block |RL> is too small to divide by: its C/D is not "
              "finite; cannot renormalize\n",
    "1e-300": "error: reference count 1e-300 for input block |RL> is too small to divide by: its variance is not "
              "finite; cannot renormalize\n",
}


@pytest.mark.parametrize("value", SUBNORMAL_REFERENCES)
def test_estimate_refuses_a_reference_too_small_to_divide_by(tmp_path, capsys, value):
    config = tmp_path / "config.json"
    io.write_json(config, {"pair_rate": 300, "visibility": 0.9, "seed": 3, "noise_admixture": 0.02})
    assert run("simulate", config, tmp_path / "run") == 0
    references = tmp_path / "run" / "references.csv"
    lines = references.read_text().splitlines()
    (at,) = [i for i, line in enumerate(lines) if line.startswith("R,L,")]
    lines[at] = f"R,L,{value}"
    references.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    report = tmp_path / "report.json"
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy warning on the way to the refusal
        assert run("estimate", tmp_path / "run" / "counts.csv", "--references", references,
                   "--report", report) == 3
    assert capsys.readouterr().err == SUBNORMAL_REFERENCES[value]
    assert not report.exists()


def test_sweep_that_cannot_encode_a_point_writes_nothing(tmp_path, monkeypatch):
    # a NaN reaching an output is a fault of the program: no JSON token, no exit 2, no file
    def broken(table):
        report = estimate(table)
        fit = dataclasses.replace(report.reconstruction, final_residual=float("nan"))
        return dataclasses.replace(report, reconstruction=fit)

    estimate = cli.estimate
    monkeypatch.setattr(cli, "estimate", broken)
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": {"start": 0.9, "stop": 1.0, "points": 2}, "analytic_only": False})
    with pytest.raises(RuntimeError, match="Out of range float values are not JSON compliant") as fault:
        run("sweep", spec, tmp_path / "o.csv")
    assert not isinstance(fault.value, ValueError)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def test_estimate_degenerate_counts_exit_code(tmp_path, capsys):
    path = tmp_path / "zeros.csv"
    io.write_counts_csv(path, np.zeros((36, 36)))
    assert run("estimate", path) == 3
    # a total far below any real table's: R chi R would underflow to a zero trace
    tiny = tmp_path / "tiny.csv"
    io.write_counts_csv(tiny, simulate.expected_counts(model.model_choi(0.9), 1e4) * 1e-300)
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run("estimate", tiny) == 3
    assert capsys.readouterr().err.startswith(
        "error: total coincidence count is zero or below 1e-100, got 3.789"
    )


def test_estimate_marks_hofmann_invalid_on_empty_probe_row(tmp_path, capsys):
    # wipe one state-fidelity block row; the report flags the basis instead
    # of failing the other estimators
    from czfid import core, estimators, simulate

    counts = simulate.expected_counts(model.model_choi(0.8), pair_rate=1e3)
    row = core.pair_index("D", "V")
    for probe in estimators.HOFMANN_BASIS_OUTPUTS[0]:
        counts[row, core.pair_index(probe[0], probe[1])] = 0.0
    path = tmp_path / "gappy.csv"
    io.write_counts_csv(path, counts)
    assert run("estimate", path) == 0
    captured = capsys.readouterr()
    assert "unavailable" in captured.err
    assert "invalid" in captured.out
    report = json.loads((tmp_path / "gappy.report.json").read_text())
    assert report["hofmann"]["invalid"]
    assert "DV" in report["hofmann"]["invalid"]
    assert abs(report["f_chi"]["value"] - model.model_fidelity(0.8)) < 0.02


def test_estimate_reports_a_zero_sigma_as_null(tmp_path, capsys):
    # F_H = F_D = 1 with a Poisson sigma of 0 is no error bar: keep F, null the sigma, warn once
    io.write_json(tmp_path / "cfg.json",
                  {"pair_rate": 100, "visibility": 0.953, "noise_admixture": 0.02, "seed": 1075})
    assert run("simulate", tmp_path / "cfg.json", tmp_path / "data") == 0
    capsys.readouterr()
    assert run("estimate", tmp_path / "data" / "counts.csv", "--report", tmp_path / "report.json") == 0
    captured = capsys.readouterr()
    hofmann = json.loads((tmp_path / "report.json").read_text())["hofmann"]
    assert (hofmann["f_h"], hofmann["f_d"]) == (1.0, 1.0)
    assert (hofmann["sigma_f_h"], hofmann["sigma_f_d"]) == (None, None)
    assert "sigma_null" not in hofmann
    assert captured.err.splitlines() == ["warning: no error bar for F_H, F_D: its sigma is exactly 0"]
    assert "  F_H          1.0000\n" in captured.out


def _write_u_hv_vanishing_table(tmp_path):
    """Counts only where u_hv = 0, over two different u_da, with flat references; the estimate argv."""
    u_hv, u_da = estimators.u_coefficients("hv"), estimators.u_coefficients("da")
    cells = [tuple(cell) for cell in np.argwhere(np.abs(u_hv) < 1e-14)]
    pair = next((a, b) for a, b in zip(cells, cells[1:]) if u_da[a] != u_da[b])
    counts = np.zeros((36, 36))
    counts[pair[0]], counts[pair[1]] = 40.0, 60.0
    io.write_counts_csv(tmp_path / "counts.csv", counts)
    io.write_references_csv(tmp_path / "refs.csv", np.full(36, 50.0))
    return [tmp_path / "counts.csv", "--references", tmp_path / "refs.csv", "--renormalize"]


def _write_three_count_table(tmp_path):
    """Three single counts, in cells that leave the basis-1 row |DH> empty; the estimate argv."""
    counts = np.zeros((36, 36))
    for j, k, l, m in ("HVVD", "VLRV", "LLRR"):
        counts[core.pair_index(j, k), core.pair_index(l, m)] = 1.0
    io.write_counts_csv(tmp_path / "counts.csv", counts)
    return [tmp_path / "counts.csv"]


def test_estimate_reports_a_zero_monte_carlo_sigma_as_null(tmp_path, capsys):
    # F_MC (hv) has no error bar, F_MC (da) has one
    assert run("estimate", *_write_u_hv_vanishing_table(tmp_path), "--report", tmp_path / "report.json") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    for block in ("f_mc", "f_mc_renormalized"):
        assert report[block]["hv"] == {"value": 0.0, "sigma": None}
        assert report[block]["da"]["sigma"] > 0 and report[block]["rl"]["sigma"] > 0
    lines = [line for line in capsys.readouterr().err.splitlines() if "F_MC" in line]
    assert lines == ["warning: no error bar for F_MC (hv), F_MC renormalized (hv): its sigma is exactly 0"]


def _null_sigmas(report: dict) -> list[str]:
    """The names of the estimates a report gives without an error bar."""
    entries = []
    if report["f_chi"]["bootstrap_nonconverged"] is not None:  # a bootstrap ran
        entries.append(("F_chi", report["f_chi"]["sigma"]))
    if "invalid" not in report["hofmann"]:
        entries += [("F_H", report["hofmann"]["sigma_f_h"]), ("F_D", report["hofmann"]["sigma_f_d"])]
    for block, kind in (("f_mc", ""), ("f_mc_renormalized", " renormalized")):
        entries += [(f"F_MC{kind} ({label})", entry["sigma"]) for label, entry in (report[block] or {}).items()]
    return [name for name, sigma in entries if sigma is None]


def _sigma_values(node):
    """Every ``sigma`` and ``sigma_f_*`` value in a report, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "sigma" or key.startswith("sigma_f_"):
                yield value
            else:
                yield from _sigma_values(value)


#: The estimates without an error bar on each table, in the order the warning names them.
NULL_SIGMAS = {
    "seed-1075": ["F_H", "F_D"],
    "u_hv-vanishing": ["F_MC (hv)", "F_MC renormalized (hv)"],
    "three-count": ["F_chi", "F_MC (hv)", "F_MC (da)"],
}


@pytest.mark.parametrize("case", NULL_SIGMAS)
def test_estimate_gives_every_sigma_positive_or_null_and_names_the_nulls(tmp_path, capsys, case):
    if case == "seed-1075":
        io.write_json(tmp_path / "cfg.json",
                      {"pair_rate": 100, "visibility": 0.953, "noise_admixture": 0.02, "seed": 1075})
        assert run("simulate", tmp_path / "cfg.json", tmp_path / "data") == 0
        argv = [tmp_path / "data" / "counts.csv"]
    elif case == "u_hv-vanishing":
        argv = _write_u_hv_vanishing_table(tmp_path)
    else:  # both resamples fit to F = 0.125: a bootstrap sigma of exactly 0
        argv = [*_write_three_count_table(tmp_path), "--bootstrap", 2, "--seed", 94]
    capsys.readouterr()
    assert run("estimate", *argv, "--report", tmp_path / "report.json") == 0
    report = json.loads((tmp_path / "report.json").read_text())
    sigmas = list(_sigma_values(report))
    assert sigmas and 0.0 not in sigmas
    assert sorted(_null_sigmas(report)) == sorted(NULL_SIGMAS[case])
    lines = [line for line in capsys.readouterr().err.splitlines() if "no error bar" in line]
    assert lines == [f"warning: no error bar for {', '.join(NULL_SIGMAS[case])}: its sigma is exactly 0"]


def test_estimate_names_the_bootstrap_resample_that_drew_no_counts(tmp_path, capsys):
    # a total of 3 expected counts: stream 21 of SeedSequence(0).spawn(100) draws none
    argv = _write_three_count_table(tmp_path)
    capsys.readouterr()
    assert run("estimate", *argv, "--bootstrap", 100, "--seed", 0) == 3
    assert capsys.readouterr().err == ("error: total coincidence count is zero in bootstrap resample 21 (stream 21 "
                                       "of SeedSequence(0).spawn(100)), drawn from an input total of 3.0\n")
    fit = tomography.maxlik_reconstruct(io.read_counts_csv(argv[0])[0])
    p = simulate.outcome_probabilities(fit.chi)
    mu = 3.0 * p / p.sum()
    totals = [np.random.default_rng(stream).poisson(mu).sum() for stream in np.random.SeedSequence(0).spawn(22)]
    assert min(totals[:21]) > 0 and totals[21] == 0


def test_sweep_analytic(tmp_path):
    spec = tmp_path / "sweep.json"
    io.write_json(spec, {"grid": {"start": 0.0, "stop": 1.0, "points": 4}, "analytic_only": True})
    out_csv = tmp_path / "sweep.csv"
    assert run("sweep", spec, out_csv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.csv", "sweep.json"]
    lines = out_csv.read_text().strip().splitlines()
    assert lines[0] == "V,F_chi,F_H,F_D"
    rows = [list(map(float, line.split(","))) for line in lines[1:]]
    assert len(rows) == 4
    v0, f0, h0, d0 = rows[0]
    assert (v0, f0, h0) == (0.0, 0.25, 0.0) and abs(d0 - 1.0 / 3.0) < 1e-12
    assert rows[-1] == [1.0, 1.0, 1.0, 1.0]
    # the second grid point sits at the crossover V = 1/3 where F_D = F_chi = 0.5
    v, f_chi, _, f_d = rows[1]
    assert abs(v - 1.0 / 3.0) < 1e-12
    assert abs(f_chi - 0.5) < 1e-12 and abs(f_d - 0.5) < 1e-12


GRID = {"start": 0.0, "stop": 1.0, "points": 3}


@pytest.mark.parametrize(
    "spec, message",
    [
        pytest.param(
            {"grid": {"start": 0.0, "stop": 1.5, "points": 5}}, "sweep grid stop must lie in [0, 1], got 1.5",
            id="stop-above-1",
        ),
        pytest.param({"grid": {"start": 0.0, "stop": 1.0, "points": 1}}, "at least 2", id="one-point"),
        pytest.param({"grid": {"start": 0.0, "points": 5}}, "missing 'stop'", id="missing-stop"),
        pytest.param([{"grid": GRID}], "sweep spec must be a JSON object", id="spec-is-list"),
        pytest.param({"grid": 0}, "sweep grid must be a JSON object, got int", id="grid-zero"),
        *(
            pytest.param(
                {"grid": GRID, "analytic_only": False, "config": value},
                f"sweep config must be a JSON object, got {kind}", id=f"config-{kind}",
            )
            for value, kind in ((False, "bool"), ([], "list"))
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": "false"}, "analytic_only must be true or false",
            id="analytic-only-string",
        ),
        pytest.param(
            {"grid": {**GRID, "points": 2.5}}, "grid points must be an integer", id="fractional-points"
        ),
        *(
            pytest.param(
                {"grid": {**GRID, "points": points}}, "sweep grid points must be an integer of at least 2 and at "
                f"most {io.MAX_SWEEP_POINTS}, got {points}", id=f"points-2**{exponent}",
            )
            for exponent, points in ((40, 2**40), (62, 2**62))
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": False, "seed": 1.5}, "sweep seed must be a nonnegative integer, got 1.5",
            id="fractional-seed",
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": False, "seed": -1}, "sweep seed must be a nonnegative integer, got -1",
            id="negative-seed",
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": False, "config": {"drift": {"kind": "bogus"}}},
            "drift kind must be one of", id="bogus-drift",
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": False, "config": {"pair_rate": 1e4, "noise": 0.1}},
            "config has unknown keys ['noise']", id="unknown-config-key",
        ),
        pytest.param({"grid": GRID, "analytic": False}, "unknown keys ['analytic']", id="unknown-key"),
        pytest.param(
            {"grid": {**GRID, "start": "0"}}, "sweep grid start must lie in [0, 1], got '0'",
            id="string-start",
        ),
        pytest.param(
            {"grid": {**GRID, "stop": None}}, "sweep grid stop must lie in [0, 1], got None",
            id="null-stop",
        ),
        pytest.param(
            {"grid": GRID, "analytic_only": False, "config": {"pair_rate": "1e4"}},
            "pair_rate must be positive and finite, got '1e4'", id="string-config-pair-rate",
        ),
        *(
            pytest.param(
                {"grid": GRID, "analytic_only": False, "config": {"pair_rate": 1e4, key: value}},
                f"sweep config has unknown keys ['{key}']", id=f"config-{key.replace('_', '-')}",
            )
            for key, value in (("visibility", 0.1), ("seed", 99), ("choi_file", "gate.csv"))
        ),
        *(
            pytest.param(
                {"grid": GRID, **analytic, "config": {"noise_admixture": 0.5}},
                "sweep config noise_admixture must be 0 in an analytic sweep, whose closed-form curves "
                "are those of the noiseless gate; got 0.5", id=f"{kind}-noise",
            )
            for analytic, kind in (({"analytic_only": True}, "analytic"), ({}, "default-analytic"))
        ),
    ],
)
def test_sweep_validation(tmp_path, capsys, spec, message):
    path = tmp_path / "spec.json"
    specs = [spec]
    if isinstance(spec, dict) and spec.get("analytic_only") is False:
        # an analytic sweep (the default) rejects the same spec
        specs.append({key: value for key, value in spec.items() if key != "analytic_only"})
    for each in specs:
        path.write_text(json.dumps(each))
        assert run("sweep", path, tmp_path / "o.csv") == 2
        assert message in capsys.readouterr().err
    assert [p.name for p in tmp_path.iterdir()] == ["spec.json"]


def test_an_analytic_sweep_takes_zero_noise_and_any_drift_or_pair_rate(tmp_path):
    # neither changes the true curves, so the rows are those of a spec with no config
    written = []
    for config in ({}, {"pair_rate": 1e3, "noise_admixture": 0.0, "drift": {"kind": "linear", "amplitude": 0.1}}):
        io.write_json(tmp_path / "spec.json", {"grid": GRID, "config": config})
        assert run("sweep", tmp_path / "spec.json", tmp_path / "o.csv") == 0
        written.append((tmp_path / "o.csv").read_bytes())
    assert written[0] == written[1]


def test_an_analytic_sweep_removes_the_points_file_of_an_earlier_simulated_one(tmp_path):
    spec, out_csv = tmp_path / "spec.json", tmp_path / "c.csv"
    io.write_json(spec, {"grid": GRID, "analytic_only": False})
    assert run("sweep", spec, out_csv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "c.csv.points.jsonl", "spec.json"]
    io.write_json(spec, {"grid": GRID})
    assert run("sweep", spec, out_csv) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv", "spec.json"]
    # the points path is checked before any write in an analytic sweep too
    out_csv.unlink()
    (tmp_path / "c.csv.points.jsonl").mkdir()
    assert run("sweep", spec, out_csv) == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.csv.points.jsonl", "spec.json"]


def test_sweep_names_a_degenerate_point_and_writes_nothing(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": {"start": 0.5, "stop": 0.5, "points": 2}, "analytic_only": False,
                         "config": {"pair_rate": 0.3}, "seed": 0})
    assert run("sweep", spec, tmp_path / "o.csv") == 3
    assert capsys.readouterr().err == (
        "error: sweep point V=0.5: row sum for probe |DH> (basis 1) is zero\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == ["spec.json"]


def _csv_rows(path) -> np.ndarray:
    lines = path.read_text().strip().splitlines()[1:]
    return np.array([list(map(float, line.split(","))) for line in lines])


def test_sweep_simulated_rows_match_reference_values(tmp_path):
    # pins the rows of a 5-point noisy sweep, so a change to the estimation
    # pipeline or the config path cannot move them unnoticed
    spec = tmp_path / "spec.json"
    io.write_json(spec, NOISY_SWEEP_SPEC)
    out_csv = tmp_path / "noisy.csv"
    assert run("sweep", spec, out_csv) == 0
    np.testing.assert_allclose(_csv_rows(out_csv), NOISY_SWEEP_ROWS, rtol=0.0, atol=1e-12)


def test_simulated_sweep_writes_one_fit_diagnostic_line_per_point(tmp_path, monkeypatch):
    reports, estimate = [], cli.estimate

    def recording(table):
        reports.append((table, estimate(table)))
        return reports[-1][1]

    monkeypatch.setattr(cli, "estimate", recording)
    spec = tmp_path / "spec.json"
    io.write_json(spec, NOISY_SWEEP_SPEC)
    out_csv = tmp_path / "noisy.csv"
    assert run("sweep", spec, out_csv) == 0
    np.testing.assert_array_equal(_csv_rows(out_csv), NOISY_SWEEP_ROWS)
    points_path = tmp_path / "noisy.csv.points.jsonl"
    points = [json.loads(line) for line in points_path.read_text().splitlines()]
    assert len(points) == 5
    for point, v, (table, report) in zip(points, NOISY_SWEEP_ROWS[:, 0], reports, strict=True):
        assert list(point) == ["V", "seed", "f_chi"] and point["V"] == v
        assert point["f_chi"] == report.as_dict()["f_chi"]
        assert point["f_chi"]["iterations"] == report.reconstruction.iterations
        # the point's V and seed reproduce its table
        config = simulate.ExperimentConfig(pair_rate=1e4, visibility=v, seed=point["seed"], noise_admixture=0.02)
        np.testing.assert_array_equal(simulate.simulate_counts(config)[0].counts, table.counts)
    first = points_path.read_bytes()
    assert run("sweep", spec, out_csv) == 0
    assert points_path.read_bytes() == first


@pytest.mark.parametrize("batched", [False, True], ids=["lone", "batch"])
def test_ml_iterates_match_golden_digests(tmp_path, dataset_dir, monkeypatch, batched):
    # Pins the ML iterate bits directly: a change to the RchiR kernel must
    # leave every fit's chi, iteration count and residual as they were.
    tables, estimate = [], cli.estimate

    def recording(table):
        tables.append(table.counts)
        return estimate(table)

    monkeypatch.setattr(cli, "estimate", recording)
    spec = tmp_path / "spec.json"
    io.write_json(spec, NOISY_SWEEP_SPEC)
    assert run("sweep", spec, tmp_path / "noisy.csv") == 0
    tables.append(io.read_counts_csv(dataset_dir / "counts.csv")[0])
    if batched:
        fits = tomography.maxlik_reconstruct_batch(tables)
    else:
        fits = [tomography.maxlik_reconstruct(table) for table in tables]
    assert tuple(digest(fit.chi, fit.iterations, fit.final_residual) for fit in fits) == GOLDEN_FIT_DIGESTS


def test_sweep_honours_config_drift(tmp_path):
    def sweep(config):
        spec = tmp_path / "spec.json"
        io.write_json(spec, {"grid": GRID, "analytic_only": False, "config": config, "seed": 3})
        out_csv = tmp_path / "drift.csv"
        assert run("sweep", spec, out_csv) == 0
        return out_csv.read_text()

    plain = sweep({"pair_rate": 1e3})
    assert sweep({"pair_rate": 1e3, "drift": {"kind": "constant"}}) == plain
    assert sweep({"pair_rate": 1e3, "drift": {"kind": "linear", "amplitude": 0.4}}) != plain


def test_sweep_full_simulation_monotone(tmp_path):
    spec = tmp_path / "spec.json"
    io.write_json(
        spec,
        {
            "grid": {"start": 0.1, "stop": 0.9, "points": 5},
            "analytic_only": False,
            "config": {"pair_rate": 1e4},
            "seed": 5,
        },
    )
    out_csv = tmp_path / "sim_sweep.csv"
    assert run("sweep", spec, out_csv) == 0
    rows = [
        list(map(float, line.split(",")))
        for line in out_csv.read_text().strip().splitlines()[1:]
    ]
    f_chi = [row[1] for row in rows]
    assert all(b - a > -0.05 for a, b in zip(f_chi, f_chi[1:]))
    for row in rows:
        assert abs(row[1] - model.model_fidelity(row[0])) < 0.05


def test_reconstruct_warns_once_when_capped(dataset_dir, tmp_path, capsys):
    assert run("reconstruct", dataset_dir / "counts.csv", "--out", tmp_path / "chi.csv",
               "--max-iterations", "2") == 0
    captured = capsys.readouterr()
    residual = captured.out.split("residual ")[1].split(",")[0]
    assert captured.err.splitlines() == [
        "warning: reconstruction did not reach the stopping threshold "
        f"(2 iterations, residual {residual}, threshold 1.000e-05)"
    ]


def test_sweep_warns_once_per_capped_point(tmp_path, capsys, monkeypatch):
    fits, estimate = [], cli.estimate

    def capped(table):
        report = estimate(table, settings=tomography.MaxLikSettings(max_iterations=2))
        fits.append(report.reconstruction)
        return report

    monkeypatch.setattr(cli, "estimate", capped)
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": GRID, "analytic_only": False})
    assert run("sweep", spec, tmp_path / "o.csv") == 0
    assert capsys.readouterr().err.splitlines() == [
        f"warning: sweep point V={v!r}: reconstruction did not reach the stopping threshold "
        f"(2 iterations, residual {fit.final_residual:.3e}, threshold 1.000e-05)"
        for v, fit in zip((0.0, 0.5, 1.0), fits, strict=True)
    ]


def test_reconstruct_writes_choi(dataset_dir, tmp_path):
    out = tmp_path / "choi.csv"
    assert run("reconstruct", dataset_dir / "counts.csv", "--out", out) == 0
    chi = io.read_choi_csv(out)
    assert abs(np.trace(chi).real - 1.0) < 1e-9
    assert np.linalg.eigvalsh((chi + chi.conj().T) / 2).min() >= -1e-10


def test_roundtrip_simulate_estimate_no_warnings(dataset_dir, capsys):
    rc = run(
        "estimate", dataset_dir / "counts.csv",
        "--references", dataset_dir / "references.csv", "--renormalize",
    )
    assert rc == 0
    captured = capsys.readouterr()
    assert captured.err == ""


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 2


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda lines, refs: (lines[:2] + lines[1:], refs), "duplicate row"),
        (lambda lines, refs: ([lines[0], "X" + lines[1][1:]] + lines[2:], refs),
         "unknown probe label 'X'"),
        (lambda lines, refs: ([lines[0], lines[1].rsplit(",", 1)[0] + ",nan"] + lines[2:], refs),
         "non-finite"),
        (lambda lines, refs: (lines, [refs[0], "H,H,-2"] + refs[2:]),
         "references.csv:2: count must be a finite nonnegative number, got '-2' (negative)"),
        (lambda lines, refs: (lines, ["j,k,window,count"] + refs[1:]),
         "unexpected header 'j,k,window,count', expected 'j,k,count'"),
        (lambda lines, refs: ([lines[0], lines[1].rsplit(",", 1)[0] + ",1e200"] + lines[2:], refs),
         "counts.csv:2: count must be a finite nonnegative number, got '1e200' (too large)"),
    ],
)
def test_estimate_rejects_malformed_counts_row(dataset_dir, capsys, edit, message):
    paths = [dataset_dir / "counts.csv", dataset_dir / "references.csv"]
    edited = edit(*(path.read_text().splitlines() for path in paths))
    for path, lines in zip(paths, edited):
        path.write_text("\n".join(lines) + "\n")
    assert run("estimate", paths[0], "--references", paths[1]) == 2
    assert message in capsys.readouterr().err


def test_every_main_fit_goes_through_maxlik_reconstruct(dataset_dir, tmp_path, monkeypatch):
    # bench/run.py ``layer_metrics`` divides by the iterations of the
    # ``maxlik_reconstruct`` spans its tracer records, so a CLI main fit made
    # any other way leaves it dividing by zero.  A tracer that also counts
    # batch fits changes what this test expects.
    calls, original = [], tomography.maxlik_reconstruct

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "czfid" and getattr(module, "maxlik_reconstruct", None) is original:
            monkeypatch.setattr(module, "maxlik_reconstruct", counted)

    def fits(*argv):
        calls.clear()
        assert run(*argv) == 0
        return len(calls)

    counts = dataset_dir / "counts.csv"
    assert fits("estimate", counts) == 1
    assert fits("estimate", counts, "--bootstrap", 3) == 1
    assert fits("reconstruct", counts, "--out", tmp_path / "chi.csv") == 1
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": GRID, "analytic_only": False, "config": {"pair_rate": 1e3}})
    assert fits("sweep", spec, tmp_path / "o.csv") == 3
