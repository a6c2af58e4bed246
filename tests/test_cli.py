import hashlib
import json

import numpy as np
import pytest

from czfid import cli, io, model, simulate


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
    refs = io.read_references_csv(dataset_dir / "references.csv")
    assert np.all(refs.values > 0)


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


def test_simulate_rejects_bad_visibility(tmp_path):
    config = tmp_path / "bad.json"
    io.write_json(config, {"pair_rate": 1e3, "visibility": 1.2, "seed": 1})
    assert run("simulate", config, tmp_path / "out") == 2


def test_simulate_rejects_missing_config(tmp_path):
    assert run("simulate", tmp_path / "absent.json", tmp_path / "out") == 2


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


def test_estimate_single_expansion(dataset_dir, capsys):
    rc = run("estimate", dataset_dir / "counts.csv", "--expansion", "da")
    assert rc == 0
    report = json.loads((dataset_dir / "counts.report.json").read_text())
    assert list(report["f_mc"]) == ["da"]
    assert report["f_mc_renormalized"] is None
    assert report["f_chi"]["sigma"] is None
    out = capsys.readouterr().out
    assert out.count("D/A") == 1


def test_estimate_all_expansions_prints_three_rows(dataset_dir, capsys):
    assert run("estimate", dataset_dir / "counts.csv") == 0
    out = capsys.readouterr().out
    for row in ("H/V", "D/A", "R/L"):
        assert row in out


def test_estimate_renormalize_requires_references(dataset_dir):
    assert run("estimate", dataset_dir / "counts.csv", "--renormalize") == 2


def test_estimate_degenerate_counts_exit_code(tmp_path):
    path = tmp_path / "zeros.csv"
    io.write_counts_csv(path, np.zeros((36, 36)))
    assert run("estimate", path) == 3


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


def test_sweep_analytic(tmp_path):
    spec = tmp_path / "sweep.json"
    io.write_json(spec, {"grid": {"start": 0.0, "stop": 1.0, "points": 4}, "analytic_only": True})
    out_csv = tmp_path / "sweep.csv"
    assert run("sweep", spec, out_csv) == 0
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


def test_sweep_validation(tmp_path):
    spec = tmp_path / "spec.json"
    io.write_json(spec, {"grid": {"start": 0.0, "stop": 1.5, "points": 5}})
    assert run("sweep", spec, tmp_path / "o.csv") == 2
    io.write_json(spec, {"grid": {"start": 0.0, "stop": 1.0, "points": 1}})
    assert run("sweep", spec, tmp_path / "o.csv") == 2
    io.write_json(spec, {"grid": {"start": 0.0, "points": 5}})
    assert run("sweep", spec, tmp_path / "o.csv") == 2


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
        (lambda lines: lines[:2] + lines[1:], "duplicate row"),
        (lambda lines: [lines[0], "X" + lines[1][1:]] + lines[2:], "unknown probe label 'X'"),
        (lambda lines: [lines[0], lines[1].rsplit(",", 1)[0] + ",nan"] + lines[2:], "non-finite"),
    ],
)
def test_estimate_rejects_malformed_counts_row(dataset_dir, capsys, edit, message):
    path = dataset_dir / "counts.csv"
    path.write_text("\n".join(edit(path.read_text().splitlines())) + "\n")
    assert run("estimate", path) == 2
    assert message in capsys.readouterr().err
