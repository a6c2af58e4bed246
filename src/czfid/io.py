"""File formats: counts/reference CSV, Choi CSV, config JSON, report JSON.

Each CSV format is stated once, as :data:`COUNTS_CSV`, :data:`REFERENCES_CSV`
and :data:`CHOI_CSV`: its header, its key fields, and the value rule of each
other field from :mod:`czfid.core`.  One writer emits the keys in row-major
cell order; one reader requires every cell exactly once, then checks each
value column against its rule and names the first bad row by ``path:line``.

All writers are atomic (write to a temporary file in the target directory,
then rename): a run stopped mid-write leaves the old file or none, never a
truncated one.
"""

from __future__ import annotations

import itertools
import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import (
    COUNT_RULE, FINITE_RULE, PROBE_LABELS, count_table, finite_matrix, real_number, reference_values, value_faults,
)
from .simulate import CoincidenceTable, DriftProfile, ExperimentConfig


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to ``path`` via a temp file + rename in the same dir."""
    path = Path(path)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _format_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: Key fields of the CSV formats: the texts a field may hold, in cell order,
#: what one key names in a duplicate error, and the error for any other text.
_PROBE_KEY = (PROBE_LABELS, "row", f"unknown probe label {{text!r}}; expected one of {PROBE_LABELS}")
_INDEX_KEY = (tuple(map(str, range(16))), "entry", "{name} must be an integer in 0..15, got {text!r}")

#: CSV formats: (header, key, number of key fields, rule per value field).
#: The key fields of a row name its cell, a flat index into
#: ``len(labels) ** n_keys`` cells in row-major order of the key fields.
COUNTS_CSV = ("j,k,l,m,count", _PROBE_KEY, 4, (COUNT_RULE,))
REFERENCES_CSV = ("j,k,count", _PROBE_KEY, 2, (COUNT_RULE,))
CHOI_CSV = ("row,col,re,im", _INDEX_KEY, 2, (FINITE_RULE, FINITE_RULE))


def _write_csv(path: Path | str, fmt: tuple, rows, comments=()) -> None:
    """Write one row of value texts per cell, in cell order, then ``#comment`` rows."""
    header, (labels, _, _), n_keys, _ = fmt
    keys = itertools.product(labels, repeat=n_keys)
    lines = [header]
    lines += [",".join((*key, *row)) for key, row in zip(keys, rows, strict=True)]
    lines += [f"#{comment}" for comment in comments]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path: Path | str, fmt: tuple, metadata: dict | None = None) -> np.ndarray:
    """The value fields of a CSV in format ``fmt``, one float row per field, in cell order.

    Every cell must appear exactly once, and every value must be a number
    obeying its field's rule; the first bad row is named by ``path:line``.
    Comment rows ``#key=value`` go to ``metadata`` when given.
    """
    header, (labels, noun, bad_key), n_keys, rules = fmt
    names = header.split(",")
    positions = {label: i for i, label in enumerate(labels)}
    n_cells = len(labels) ** n_keys
    texts = np.empty((len(rules), n_cells), dtype=object)
    values = np.empty((len(rules), n_cells))
    linenos = np.zeros(n_cells, dtype=int)  # the line of each cell, 0 until it is read

    def fault(field: int, cell: int, problem: str) -> ValueError:
        name, (description, *_) = names[n_keys + field], rules[field]
        text = texts[field, cell]
        return ValueError(f"{path}:{linenos[cell]}: {name} must be {description}, got {text!r} ({problem})")

    with open(path, encoding="utf-8") as handle:
        first = handle.readline().strip()
        if first != header:
            raise ValueError(f"{path}: unexpected header {first!r}, expected {header!r}")
        for lineno, line in enumerate(handle, start=2):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                if metadata is not None:
                    name, _, value = line[1:].partition("=")
                    metadata[name] = value
                continue
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"{path}:{lineno}: expected {len(names)} fields, got {len(fields)}")
            cell = 0
            for name, text in zip(names, fields[:n_keys]):
                if text not in positions:
                    raise ValueError(f"{path}:{lineno}: " + bad_key.format(name=name, text=text))
                cell = cell * len(labels) + positions[text]
            if linenos[cell]:
                keys, shown = ",".join(names[:n_keys]), ",".join(fields[:n_keys])
                raise ValueError(f"{path}:{lineno}: duplicate {noun} for {keys} {shown}")
            linenos[cell] = lineno
            for field, text in enumerate(fields[n_keys:]):
                texts[field, cell] = text
                try:
                    values[field, cell] = float(text)
                except ValueError:
                    raise fault(field, cell, "not a number") from None
    missing = int(np.count_nonzero(linenos == 0))
    if missing:
        raise ValueError(f"{path}: incomplete, {missing} of {n_cells} rows missing")
    faults = np.array([value_faults(column, rule) for column, rule in zip(values, rules)])
    bad = [(linenos[cell], field, cell) for field, cell in zip(*np.nonzero(faults != ""))]
    if bad:
        _, field, cell = min(bad)
        raise fault(field, cell, faults[field, cell])
    return values


def write_counts_csv(path: Path | str, counts, metadata: dict | None = None) -> None:
    """Write a 36x36 table as :data:`COUNTS_CSV`; metadata ``seed``, ``N``, ``V`` become ``#key=`` rows."""
    metadata = metadata or {}
    rows = ((_format_count(value),) for value in count_table(counts).ravel())
    comments = [f"{key}={metadata[key]}" for key in ("seed", "N", "V") if metadata.get(key) is not None]
    _write_csv(path, COUNTS_CSV, rows, comments)


def read_counts_csv(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read a :data:`COUNTS_CSV` file into a (36, 36) float table plus its ``#key=`` metadata."""
    metadata: dict = {}
    (table,) = _read_csv(path, COUNTS_CSV, metadata)
    return table.reshape(36, 36), metadata


def write_references_csv(path: Path | str, references) -> None:
    """Write 36 reference counts, in block order, as :data:`REFERENCES_CSV`."""
    rows = ((_format_count(value),) for value in reference_values(references))
    _write_csv(path, REFERENCES_CSV, rows)


def read_references_csv(path: Path | str) -> np.ndarray:
    """Read a :data:`REFERENCES_CSV` file into 36 float reference counts, in block order."""
    (values,) = _read_csv(path, REFERENCES_CSV)
    return values


def write_choi_csv(path: Path | str, chi: np.ndarray) -> None:
    """Write a finite 16x16 complex matrix as :data:`CHOI_CSV` plus a ``#trace=`` row."""
    chi = finite_matrix(chi)
    rows = ((repr(float(z.real)), repr(float(z.imag))) for z in chi.ravel())
    _write_csv(path, CHOI_CSV, rows, [f"trace={float(np.trace(chi).real)!r}"])


def read_choi_csv(path: Path | str) -> np.ndarray:
    """Read a :data:`CHOI_CSV` file into a 16x16 complex matrix."""
    re, im = _read_csv(path, CHOI_CSV)
    return (re + 1j * im).reshape(16, 16)


#: Keys a config JSON may hold, at the top level and in its ``drift`` object.
CONFIG_KEYS = ("pair_rate", "visibility", "choi_file", "drift", "seed", "noise_admixture")
DRIFT_KEYS = ("kind", "amplitude", "period", "step")


def json_object(value, name: str, keys: tuple[str, ...]) -> dict:
    """``value`` if it is a JSON object whose keys are all among ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"{name} has unknown keys {unknown}; allowed keys are {list(keys)}")
    return value


def json_integer(value, name: str, minimum: int | None = None) -> int:
    """``value`` as an int; integral floats pass, fractions and other types do not."""
    if isinstance(value, bool) or not (
        isinstance(value, int) or (isinstance(value, float) and value.is_integer())
    ):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be at least {minimum}, got {value!r}")
    return int(value)


def parse_config(payload: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a config-JSON payload.

    Only converts JSON types: a present key must hold its type, and unknown
    keys are rejected by name.  Only present keys are passed on, so every
    default is the one :class:`ExperimentConfig` or :class:`DriftProfile`
    states.  :class:`ExperimentConfig` enforces the rest,
    such as exactly one of ``visibility`` or ``choi_file``.  A missing
    ``seed`` must be resolved by the caller if reproducible output is required.
    """
    json_object(payload, "config", CONFIG_KEYS)
    if "pair_rate" not in payload:
        raise ValueError("config must define pair_rate")
    args: dict = {key: real_number(payload[key], f"{key} must be a finite number")
                  for key in ("pair_rate", "visibility", "noise_admixture") if key in payload}
    if "choi_file" in payload:
        choi_file = payload["choi_file"]
        if not isinstance(choi_file, str) or not choi_file:
            raise ValueError(f"choi_file must be a non-empty string, got {choi_file!r}")
        args["choi"] = read_choi_csv(Path(base_dir) / choi_file)
    if "drift" in payload:
        drift = json_object(payload["drift"], "config drift", DRIFT_KEYS)
        args["drift"] = DriftProfile(**{
            key: drift[key] if key == "kind"
            else real_number(drift[key], f"drift {key} must be a finite number")
            for key in DRIFT_KEYS if key in drift
        })
    if "seed" in payload:
        args["seed"] = json_integer(payload["seed"], "seed")
    return ExperimentConfig(**args)


def read_config(path: Path | str) -> tuple[dict, ExperimentConfig]:
    """Load a config JSON file; returns the raw payload and the parsed config."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    return payload, parse_config(payload, base_dir=path.parent)


def write_json(path: Path | str, payload: dict) -> None:
    atomic_write_text(path, json.dumps(payload, indent=2, sort_keys=True) + "\n")


def simulate_to_files(
    config: ExperimentConfig,
    table: CoincidenceTable,
    references: np.ndarray,
    out_dir: Path | str,
    config_echo: dict | None = None,
) -> dict[str, Path]:
    """Write one simulated dataset (counts, references, config echo)."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    counts_path = out_dir / "counts.csv"
    refs_path = out_dir / "references.csv"
    config_path = out_dir / "config.json"
    metadata = {"seed": config.seed, "N": config.pair_rate, "V": config.visibility}
    write_counts_csv(counts_path, table, metadata)
    write_references_csv(refs_path, references)
    echo = dict(config_echo or {})
    echo["seed"] = config.seed
    write_json(config_path, echo)
    return {"counts": counts_path, "references": refs_path, "config": config_path}
