"""File formats: counts/reference CSV, Choi CSV, config JSON, report JSON.

All writers are atomic (write to a temporary file in the target directory,
then rename) so concurrent sweep points never observe partial files.
"""

from __future__ import annotations

import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from .core import MAX_COUNT, PROBE_LABELS, count_table, pair_labels
from .simulate import CoincidenceTable, DriftProfile, ExperimentConfig, ReferenceCounts


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


def write_counts_csv(path: Path | str, counts, metadata: dict | None = None) -> None:
    """Write a 36x36 table as rows ``j,k,l,m,count`` plus trailing metadata.

    Metadata keys ``seed``, ``N`` and ``V`` become trailing comment rows
    ``#seed=``, ``#N=``, ``#V=``.
    """
    table = count_table(counts)
    lines = ["j,k,l,m,count"]
    for n in range(36):
        j, k = pair_labels(n)
        for m in range(36):
            l_lab, m_lab = pair_labels(m)
            lines.append(f"{j},{k},{l_lab},{m_lab},{_format_count(table[n, m])}")
    for key in ("seed", "N", "V"):
        if metadata and metadata.get(key) is not None:
            lines.append(f"#{key}={metadata[key]}")
    atomic_write_text(path, "\n".join(lines) + "\n")


#: Key fields of the CSV formats: the texts a field may hold, in cell order,
#: what one key names in a duplicate error, and the error for any other text.
_PROBE_KEY = (PROBE_LABELS, "row", f"unknown probe label {{text!r}}; expected one of {PROBE_LABELS}")
_INDEX_KEY = (tuple(map(str, range(16))), "entry", "{name} must be an integer in 0..15, got {text!r}")

#: Value rules: (what the error says a value must be, nonnegative, integer,
#: largest value).  A window must fit an int64, so it stays below 2**63.
_COUNT = ("a finite nonnegative number", True, False, MAX_COUNT)
_WINDOW = ("a nonnegative integer", True, True, math.nextafter(2.0**63, 0.0))
_FINITE = ("finite numbers", False, False, math.inf)


def _csv_cells(path: Path | str, header: str, key, n_keys: int, metadata: dict | None = None):
    """Yield ``("path:line", cell, value_fields)`` for each data row under ``header``.

    The first ``n_keys`` fields of a row name its cell, a flat index into
    ``len(labels) ** n_keys`` cells in row-major order of the key fields
    (``key`` is one of ``_PROBE_KEY`` / ``_INDEX_KEY``).  Every cell must
    appear exactly once.  Comment rows ``#key=value`` go to ``metadata``
    when given.
    """
    labels, noun, bad_key = key
    positions = {label: i for i, label in enumerate(labels)}
    names = header.split(",")
    seen: set[int] = set()
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
            where = f"{path}:{lineno}"
            fields = line.split(",")
            if len(fields) != len(names):
                raise ValueError(f"{where}: expected {len(names)} fields, got {len(fields)}")
            cell = 0
            for name, text in zip(names, fields[:n_keys]):
                if text not in positions:
                    raise ValueError(f"{where}: " + bad_key.format(name=name, text=text))
                cell = cell * len(labels) + positions[text]
            if cell in seen:
                keys, texts = ",".join(names[:n_keys]), ",".join(fields[:n_keys])
                raise ValueError(f"{where}: duplicate {noun} for {keys} {texts}")
            seen.add(cell)
            yield where, cell, fields[n_keys:]
    missing = len(labels) ** n_keys - len(seen)
    if missing:
        raise ValueError(f"{path}: incomplete, {missing} of {len(labels) ** n_keys} rows missing")


def _csv_numbers(where: str, names: str, texts: list[str], rule: tuple) -> list[float]:
    """The CSV fields ``names`` of one row as floats obeying ``rule``.

    A value that is not a number, not finite, negative under a nonnegative
    rule, fractional under an integer rule or above the rule's largest value
    is an error naming ``where``.
    """
    description, nonnegative, integer, largest = rule
    values = []
    for text in texts:
        try:
            value = float(text)
        except ValueError:
            problem = "not a number"
        else:
            if not math.isfinite(value):
                problem = "non-finite"
            elif nonnegative and value < 0:
                problem = "negative"
            elif integer and not value.is_integer():
                problem = "not an integer"
            elif value > largest:
                problem = "too large"
            else:
                values.append(value)
                continue
        shown = ",".join(repr(text) for text in texts)
        raise ValueError(f"{where}: {names} must be {description}, got {shown} ({problem})")
    return values


def read_counts_csv(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read a counts CSV back into a (36, 36) float table plus its metadata.

    Each ``j,k,l,m`` setting must appear exactly once with a finite
    nonnegative count.
    """
    table = np.zeros(1296)
    metadata: dict = {}
    for where, cell, fields in _csv_cells(path, "j,k,l,m,count", _PROBE_KEY, 4, metadata):
        (table[cell],) = _csv_numbers(where, "count", fields, _COUNT)
    return table.reshape(36, 36), metadata


def write_references_csv(path: Path | str, references: ReferenceCounts) -> None:
    """Write reference counts as rows ``j,k,window,count``."""
    lines = ["j,k,window,count"]
    for n in range(36):
        j, k = pair_labels(n)
        lines.append(
            f"{j},{k},{int(references.windows[n])},{_format_count(references.values[n])}"
        )
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_references_csv(path: Path | str) -> ReferenceCounts:
    """Read a references CSV; each input block ``j,k`` must appear exactly once.

    Windows are nonnegative integers and counts finite nonnegative numbers.
    """
    values = np.zeros(36)
    windows = np.zeros(36, dtype=int)
    for where, cell, (window, count) in _csv_cells(path, "j,k,window,count", _PROBE_KEY, 2):
        (windows[cell],) = _csv_numbers(where, "window", [window], _WINDOW)
        (values[cell],) = _csv_numbers(where, "count", [count], _COUNT)
    return ReferenceCounts(values, windows)


def write_choi_csv(path: Path | str, chi: np.ndarray) -> None:
    """Write a finite 16x16 complex matrix as ``row,col,re,im`` plus ``#trace=``."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {chi.shape}")
    n_bad = int(np.count_nonzero(~np.isfinite(chi)))
    if n_bad:
        raise ValueError(f"16x16 matrix has {n_bad} non-finite entries; cannot write it")
    lines = ["row,col,re,im"]
    for r in range(16):
        for c in range(16):
            lines.append(f"{r},{c},{float(chi[r, c].real)!r},{float(chi[r, c].imag)!r}")
    lines.append(f"#trace={float(np.trace(chi).real)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_choi_csv(path: Path | str) -> np.ndarray:
    """Read a 16x16 complex matrix; each ``row,col`` entry must appear exactly once.

    Indices outside 0..15, repeated entries and non-finite values are named
    errors.
    """
    chi = np.zeros(256, dtype=complex)
    for where, cell, fields in _csv_cells(path, "row,col,re,im", _INDEX_KEY, 2):
        re, im = _csv_numbers(where, "re,im", fields, _FINITE)
        chi[cell] = re + 1j * im
    return chi.reshape(16, 16)


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


def json_number(value, name: str) -> float:
    """``value`` as a float; finite JSON numbers pass, strings, booleans and null do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    if not abs(value) <= sys.float_info.max:  # nan, inf, or an int beyond float range
        raise ValueError(f"{name} must be a finite number, got {value!r}")
    return float(value)


def parse_config(payload: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a config-JSON payload.

    Only converts JSON types: a present key must hold its type, and unknown
    keys are rejected by name.  :class:`ExperimentConfig` enforces the rest,
    such as exactly one of ``visibility`` or ``choi_file``.  A missing
    ``seed`` must be resolved by the caller if reproducible output is required.
    """
    json_object(payload, "config", CONFIG_KEYS)
    if "pair_rate" not in payload:
        raise ValueError("config must define pair_rate")
    visibility = json_number(payload["visibility"], "visibility") if "visibility" in payload else None
    choi = None
    if "choi_file" in payload:
        choi_file = payload["choi_file"]
        if not isinstance(choi_file, str) or not choi_file:
            raise ValueError(f"choi_file must be a non-empty string, got {choi_file!r}")
        choi = read_choi_csv(Path(base_dir) / choi_file)
    drift_payload = json_object(payload.get("drift", {}), "config drift", DRIFT_KEYS)
    drift = DriftProfile(
        kind=drift_payload.get("kind", "constant"),
        amplitude=json_number(drift_payload.get("amplitude", 0.0), "drift amplitude"),
        period=json_number(drift_payload.get("period", 0.0), "drift period"),
        step=json_number(drift_payload.get("step", 0.0), "drift step"),
    )
    return ExperimentConfig(
        pair_rate=json_number(payload["pair_rate"], "pair_rate"),
        visibility=visibility,
        choi=choi,
        drift=drift,
        seed=json_integer(payload.get("seed", 0), "seed"),
        noise_admixture=json_number(payload.get("noise_admixture", 0.0), "noise_admixture"),
    )


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
    references: ReferenceCounts,
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
