"""README's examples run against the package as it is."""

import builtins
import dataclasses
import json
import re
from pathlib import Path

import czfid
from czfid import cli, io, simulate

README = Path(__file__).resolve().parent.parent / "README.md"
TEXT = README.read_text(encoding="utf-8")
BLOCKS = re.findall(r"^```python\n(.*?)^```", TEXT, re.M | re.S)
JSON_BLOCKS = [json.loads(block) for block in re.findall(r"^```json\n(.*?)^```", TEXT, re.M | re.S)]


def test_readme_python_blocks_run(tmp_path, monkeypatch):
    assert BLOCKS, "README has no python example"
    monkeypatch.chdir(tmp_path)
    for n, block in enumerate(BLOCKS):
        exec(compile(block, f"README.md python block {n + 1}", "exec"), {})


def test_readme_config_example_parses():
    (config,) = [block for block in JSON_BLOCKS if "grid" not in block]
    parsed = io.parse_config(config)
    assert (parsed.visibility, parsed.seed) == (config["visibility"], config["seed"])


def test_readme_sweep_spec_example_runs(tmp_path):
    (spec,) = [block for block in JSON_BLOCKS if "grid" in block]
    path = tmp_path / "sweep.json"
    io.write_json(path, spec)
    out_csv = tmp_path / "curves.csv"
    assert cli.main(["sweep", str(path), str(out_csv)]) == 0
    assert len(out_csv.read_text().splitlines()) == 1 + spec["grid"]["points"]


def test_readme_names_every_public_name():
    missing = [name for name in czfid.__all__ if not re.search(rf"\b{re.escape(name)}\b", TEXT)]
    assert missing == []


def test_readme_lists_only_public_names_as_public():
    section = TEXT.split("\n### Public names\n", 1)[1].split("\n#", 1)[0]
    listed = re.findall(r"^- `(\w+)", section, re.M)
    assert listed and [name for name in listed if name not in czfid.__all__] == []


def test_readme_names_no_class_czfid_lacks():
    named = set(re.findall(r"`([A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+)(?:\.\w+)?`", TEXT))
    assert "FidelityReport" in named and "ValueError" in named
    unknown = sorted(name for name in named if name not in czfid.__all__ and not hasattr(builtins, name))
    assert unknown == []


def test_readme_names_each_csv_header():
    missing = [fmt[0] for fmt in (io.COUNTS_CSV, io.REFERENCES_CSV, io.CHOI_CSV) if f"`{fmt[0]}`" not in TEXT]
    assert missing == []


def test_readme_names_every_config_and_sweep_key_and_drift_kind():
    # config keys follow ExperimentConfig's fields, so a new field is a new key that needs a README line
    drift = [field.name for field in dataclasses.fields(simulate.DriftProfile)]
    names = [*io.CONFIG_KEYS, *drift, *simulate.DRIFT_PARAMETERS, *io.SWEEP_KEYS, *io.SWEEP_GRID_KEYS]
    # named in the prose, `name`, or in a JSON example, "name"
    missing = [name for name in names if f"`{name}`" not in TEXT and f'"{name}"' not in TEXT]
    assert missing == []
