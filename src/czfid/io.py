"""File formats: counts/reference CSV, Choi CSV, config JSON, sweep spec JSON, report JSON.

This module is the only one that parses input files, the sweep spec among
them: :func:`read_sweep_spec` turns one into a config per grid point.  Every
file is read once, by one reader that hashes its bytes and decodes them as
UTF-8, naming a byte that is not UTF-8 by ``path:line``; both JSON formats
are parsed by one JSON reader, which names a syntax fault by ``path:line:col``
and refuses a key given twice in one object.

Each CSV format is stated once, as :data:`COUNTS_CSV`, :data:`REFERENCES_CSV`
and :data:`CHOI_CSV`: its header, its key fields, and the value rule of each
other field from :mod:`czfid.core`.  One writer emits the keys in row-major
cell order; one reader requires every cell exactly once, then checks each
value column against its rule and names the first bad row by ``path:line``.

All writers are atomic: each writes a new file beside its target, with the
mode a plain write would give, then renames it, so a run stopped mid-write
leaves the old file or none, never a truncated one.
"""

from __future__ import annotations

import contextlib
import dataclasses
import errno
import hashlib
import itertools
import json
import os
import shutil
from pathlib import Path

import numpy as np

from .core import (
    COUNT_RULE, FINITE_RULE, PROBE_LABELS, count_table, finite_matrix, real_number, reference_values,
    value_faults, whole_number,
)
from .simulate import CoincidenceTable, DriftProfile, ExperimentConfig


@contextlib.contextmanager
def _create_beside(path: Path):
    """Yield a new text file beside ``path``, open for writing, and its name; remove it if it is still there.

    A directory at ``path`` is refused.  The new file's name has a fixed length,
    so any name ``path`` may have fits it.  It gets the mode a plain write to
    ``path`` gives: that of the file there, or 0o666 less the umask.  An ``OSError``
    here or in the block is raised again naming ``path``, not the new file.
    """
    try:
        if path.is_dir():
            raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
        tmp = path.with_name(f".czfid-{os.urandom(8).hex()}.tmp")
        with open(tmp, "x", encoding="utf-8") as handle:  # O_WRONLY | O_CREAT | O_EXCL, mode 0o666
            try:
                if path.exists():
                    shutil.copymode(path, tmp)
                yield handle, tmp
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def atomic_write_text(path: Path | str, text: str) -> None:
    """Write ``text`` to a new file beside ``path`` (:func:`_create_beside`), then rename it to ``path``."""
    with _create_beside(Path(path)) as (handle, tmp):
        handle.write(text)
        handle.close()
        os.replace(tmp, path)


def check_writable(path: Path | str) -> None:
    """Raise the ``OSError`` :func:`atomic_write_text` would raise on ``path``: its step without the write."""
    with _create_beside(Path(path)):
        pass


def remove_file(path: Path | str) -> None:
    """Remove the file at ``path``, if there is one."""
    with contextlib.suppress(FileNotFoundError):
        os.unlink(path)


def _read_text(path: Path | str) -> tuple[str, str]:
    """The text of the UTF-8 file at ``path``, every line ending read as ``\\n``, and the sha256 of its bytes.

    One read gives both.  A byte that is not UTF-8 is a ``ValueError`` naming ``path:line``.
    """
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len((data[:exc.start] + b"_").splitlines())  # \n, \r and \r\n each end a line
        raise ValueError(f"{path}:{line}: byte 0x{data[exc.start]:02x} is not UTF-8 ({exc.reason})") from None
    return text.replace("\r\n", "\n").replace("\r", "\n"), hashlib.sha256(data).hexdigest()


def _read_json(path: Path | str):
    """The JSON value in the file at ``path``.

    A syntax fault is a ``ValueError`` naming ``path:line:col``, a key given
    twice in one object (at any depth) one naming ``path`` and the key, and
    nesting too deep for the parser's recursion one naming ``path``.
    """
    def unique_keys(pairs: list) -> dict:
        payload = {}
        for key, value in pairs:
            if key in payload:
                raise ValueError(f"{path}: duplicate key {key!r} in a JSON object")
            payload[key] = value
        return payload

    try:
        return json.loads(_read_text(path)[0], object_pairs_hook=unique_keys)
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from None
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply to parse") from None


def _format_count(value: float) -> str:
    if float(value).is_integer():
        return str(int(value))
    return repr(float(value))


#: Key fields of the CSV formats: the texts a field may hold, in cell order,
#: what one key names in a duplicate error, and the error for any other text.
_PROBE_KEY = (PROBE_LABELS, "row", f"unknown probe label {{text!r}}; expected one of {PROBE_LABELS}")
_INDEX_KEY = (tuple(map(str, range(16))), "entry", "{name} must be an integer in 0..15, got {text!r}")

#: CSV formats: (header, key, rule per value field); the header names the key fields, then one field per rule.
#: The key fields of a row name its cell, a flat index into
#: ``len(labels) ** n_keys`` cells in row-major order of the key fields.
COUNTS_CSV = ("j,k,l,m,count", _PROBE_KEY, (COUNT_RULE,))
REFERENCES_CSV = ("j,k,count", _PROBE_KEY, (COUNT_RULE,))
CHOI_CSV = ("row,col,re,im", _INDEX_KEY, (FINITE_RULE, FINITE_RULE))


def _write_csv(path: Path | str, fmt: tuple, rows, comments=()) -> None:
    """Write one row of value texts per cell, in cell order, then ``#comment`` rows."""
    header, (labels, _, _), rules = fmt
    keys = itertools.product(labels, repeat=len(header.split(",")) - len(rules))
    lines = [header]
    lines += [",".join((*key, *row)) for key, row in zip(keys, rows, strict=True)]
    lines += [f"#{comment}" for comment in comments]
    atomic_write_text(path, "\n".join(lines) + "\n")


def _read_csv(path: Path | str, fmt: tuple, metadata: dict | None = None) -> tuple[np.ndarray, str]:
    """The value fields of a CSV in format ``fmt``, one float row per field, in cell order, and the file's sha256.

    Every cell must appear exactly once, and every value must be a number
    obeying its field's rule; the first bad row is named by ``path:line``.
    Comment rows ``#key=value`` go to ``metadata`` when given.
    """
    header, (labels, noun, bad_key), rules = fmt
    names = header.split(",")
    n_keys = len(names) - len(rules)
    positions = {label: i for i, label in enumerate(labels)}
    n_cells = len(labels) ** n_keys
    texts = np.empty((len(rules), n_cells), dtype=object)
    values = np.empty((len(rules), n_cells))
    linenos = np.zeros(n_cells, dtype=int)  # the line of each cell, 0 until it is read

    def fault(field: int, cell: int, problem: str) -> ValueError:
        name, (description, *_) = names[n_keys + field], rules[field]
        text = texts[field, cell]
        return ValueError(f"{path}:{linenos[cell]}: {name} must be {description}, got {text!r} ({problem})")

    text, sha256 = _read_text(path)
    lines = text.split("\n")
    first = lines[0].strip()
    if first != header:
        raise ValueError(f"{path}: unexpected header {first!r}, expected {header!r}")
    for lineno, line in enumerate(lines[1:], start=2):
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
    return values, sha256


def write_counts_csv(path: Path | str, counts, metadata: dict | None = None) -> None:
    """Write a 36x36 table as :data:`COUNTS_CSV`; metadata ``seed``, ``N``, ``V`` become ``#key=`` rows."""
    metadata = metadata or {}
    rows = ((_format_count(value),) for value in count_table(counts).ravel())
    comments = [f"{key}={metadata[key]}" for key in ("seed", "N", "V") if metadata.get(key) is not None]
    _write_csv(path, COUNTS_CSV, rows, comments)


def read_counts_csv(path: Path | str) -> tuple[np.ndarray, dict, str]:
    """Read a :data:`COUNTS_CSV` file into a (36, 36) float table, its ``#key=`` metadata and its sha256."""
    metadata: dict = {}
    (table,), sha256 = _read_csv(path, COUNTS_CSV, metadata)
    return table.reshape(36, 36), metadata, sha256


def write_references_csv(path: Path | str, references) -> None:
    """Write 36 reference counts, in block order, as :data:`REFERENCES_CSV`."""
    rows = ((_format_count(value),) for value in reference_values(references))
    _write_csv(path, REFERENCES_CSV, rows)


def read_references_csv(path: Path | str) -> tuple[np.ndarray, str]:
    """Read a :data:`REFERENCES_CSV` file into 36 float reference counts, in block order, and its sha256."""
    (values,), sha256 = _read_csv(path, REFERENCES_CSV)
    return values, sha256


def write_choi_csv(path: Path | str, chi: np.ndarray) -> None:
    """Write a finite 16x16 complex matrix as :data:`CHOI_CSV` plus a ``#trace=`` row."""
    chi = finite_matrix(chi)
    rows = ((repr(float(z.real)), repr(float(z.imag))) for z in chi.ravel())
    _write_csv(path, CHOI_CSV, rows, [f"trace={float(np.trace(chi).real)!r}"])


def read_choi_csv(path: Path | str) -> np.ndarray:
    """Read a :data:`CHOI_CSV` file into a 16x16 complex matrix."""
    (re, im), _ = _read_csv(path, CHOI_CSV)
    return (re + 1j * im).reshape(16, 16)


#: Config JSON keys: :class:`ExperimentConfig`'s fields, ``choi`` as ``choi_file``; ``drift`` holds DriftProfile's.
CONFIG_KEYS = tuple("choi_file" if f.name == "choi" else f.name for f in dataclasses.fields(ExperimentConfig))


def json_object(value, name: str, keys: tuple[str, ...]) -> dict:
    """``value`` if it is a JSON object whose keys are all among ``keys``."""
    if not isinstance(value, dict):
        raise ValueError(f"{name} must be a JSON object, got {type(value).__name__}")
    unknown = sorted(set(value) - set(keys))
    if unknown:
        raise ValueError(f"{name} has unknown keys {unknown}; allowed keys are {list(keys)}")
    return value


def parse_config(payload: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a config-JSON payload.

    Checks structure only: the config and its ``drift`` are JSON objects with
    known keys, ``pair_rate`` is present, ``choi_file`` is a non-empty string,
    and no top-level value is null (a null ``visibility`` would read as
    absent).  Every other value goes unconverted to :class:`ExperimentConfig`
    or :class:`DriftProfile`, whose rule judges it once, with the message the
    same value gets from Python.  Only present keys are passed on, so every
    default is the one those classes state, ``seed`` 0 among them.
    """
    json_object(payload, "config", CONFIG_KEYS)
    if "pair_rate" not in payload:
        raise ValueError("config must define pair_rate")
    for key, value in payload.items():
        if value is None:
            raise ValueError(f"config {key} must not be null")
    args = {key: value for key, value in payload.items() if key not in ("choi_file", "drift")}
    if "choi_file" in payload:
        choi_file = payload["choi_file"]
        if not isinstance(choi_file, str) or not choi_file:
            raise ValueError(f"choi_file must be a non-empty string, got {choi_file!r}")
        args["choi"] = read_choi_csv(Path(base_dir) / choi_file)
    if "drift" in payload:
        keys = tuple(field.name for field in dataclasses.fields(DriftProfile))
        args["drift"] = DriftProfile(**json_object(payload["drift"], "config drift", keys))
    return ExperimentConfig(**args)


def read_config(path: Path | str) -> tuple[dict, ExperimentConfig]:
    """Load a config JSON file; returns its payload and the config :func:`parse_config` builds from it.

    A payload with no ``seed`` first gets a random 63-bit one from ``os.urandom``, so it re-runs the same draw.
    """
    path = Path(path)
    payload = _read_json(path)
    if isinstance(payload, dict) and "seed" not in payload:
        payload["seed"] = int.from_bytes(os.urandom(8), "big") >> 1
    return payload, parse_config(payload, base_dir=path.parent)


#: Keys a sweep spec may hold, and those of its ``grid``.  Its ``config``
#: takes the config keys except ``visibility`` and ``seed``, which the sweep
#: sets for each point, and ``choi_file``, which cannot be combined with a
#: visibility.
SWEEP_KEYS = ("grid", "analytic_only", "config", "seed")
SWEEP_GRID_KEYS = ("start", "stop", "points")
SWEEP_CONFIG_KEYS = tuple(k for k in CONFIG_KEYS if k not in ("visibility", "seed", "choi_file"))


def read_sweep_spec(path: Path | str) -> tuple[bool, list[ExperimentConfig]]:
    """Load a sweep spec JSON file; returns ``analytic_only`` and one config per grid point.

    Point i's ``visibility`` is ``linspace(start, stop, points)[i]``, its
    other values are the spec's ``config`` (``pair_rate`` 1e4 when absent),
    and its ``seed`` is the first 32-bit word of stream i of
    ``SeedSequence(seed).spawn(points)``.  Every point's config is built in
    both modes, so the whole spec is checked before any point runs.  An
    analytic sweep refuses a nonzero ``noise_admixture``: its closed-form
    curves are those of the noiseless gate.
    """
    spec = json_object(_read_json(path), "sweep spec", SWEEP_KEYS)
    grid = json_object(spec.get("grid", {}), "sweep grid", SWEEP_GRID_KEYS)
    for key in SWEEP_GRID_KEYS:
        if key not in grid:
            raise ValueError(f"sweep spec grid is missing {key!r}")
    start, stop = (real_number(grid[key], f"sweep grid {key} must lie in [0, 1]", lambda x: 0 <= x <= 1)
                   for key in ("start", "stop"))
    points = whole_number(grid["points"], 2, "sweep grid points must be an integer of at least 2")
    analytic = spec.get("analytic_only", True)
    if not isinstance(analytic, bool):
        raise ValueError(f"sweep analytic_only must be true or false, got {analytic!r}")
    overrides = json_object(spec.get("config", {}), "sweep config", SWEEP_CONFIG_KEYS)
    seed = whole_number(spec.get("seed", 0), 0, "sweep seed must be a nonnegative integer")
    configs = [
        parse_config({"pair_rate": 1e4, **overrides, "visibility": float(v),
                      "seed": int(stream.generate_state(1)[0])})
        for v, stream in zip(np.linspace(start, stop, points), np.random.SeedSequence(seed).spawn(points))
    ]
    if analytic and configs[0].noise_admixture:
        raise ValueError("sweep config noise_admixture must be 0 in an analytic sweep, whose closed-form curves "
                         f"are those of the noiseless gate; got {configs[0].noise_admixture!r}")
    return analytic, configs


def _json_text(path: Path | str, payload, **layout) -> str:
    """``payload`` as strict JSON text for ``path``.

    A NaN or infinity has no JSON token; one in an output is a fault of the
    program, not of its input, so it is a ``RuntimeError``, not a ``ValueError``.
    """
    try:
        return json.dumps(payload, allow_nan=False, **layout)
    except ValueError as exc:
        raise RuntimeError(f"{path}: refusing to write {exc}") from exc


def write_json(path: Path | str, payload: dict) -> None:
    """Write ``payload`` as indented JSON with sorted keys; nothing is written if it holds a NaN or infinity."""
    atomic_write_text(path, _json_text(path, payload, indent=2, sort_keys=True) + "\n")


def write_json_lines(path: Path | str, payloads) -> None:
    """Write one JSON line per payload, by the rule of :func:`write_json`."""
    atomic_write_text(path, "".join(_json_text(path, payload) + "\n" for payload in payloads))


def simulate_to_files(
    config: ExperimentConfig,
    table: CoincidenceTable,
    references: np.ndarray,
    out_dir: Path | str,
    config_echo: dict,
    base_dir: Path | str,
) -> dict[str, Path]:
    """Write one simulated dataset (counts, references, config echo), each path checked before the first write.

    ``config_echo`` is the config payload as read from ``base_dir``.  The echo
    holds it with the resolved seed, and a relative ``choi_file`` rewritten to
    resolve from ``out_dir`` to the same file, so the echo re-runs as is.
    """
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = dict(counts=out_dir / "counts.csv", references=out_dir / "references.csv", config=out_dir / "config.json")
    for path in paths.values():
        check_writable(path)
    write_counts_csv(paths["counts"], table, {"seed": config.seed, "N": config.pair_rate, "V": config.visibility})
    write_references_csv(paths["references"], references)
    echo = {**config_echo, "seed": config.seed}
    if "choi_file" in echo and not os.path.isabs(echo["choi_file"]):
        echo["choi_file"] = os.path.relpath(Path(base_dir, echo["choi_file"]).resolve(), out_dir.resolve())
    write_json(paths["config"], echo)
    return paths
