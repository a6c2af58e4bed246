"""File formats: counts/reference CSV, Choi CSV, config JSON, report JSON.

All writers are atomic (write to a temporary file in the target directory,
then rename) so concurrent sweep points never observe partial files.
"""

from __future__ import annotations

import json
import os
import tempfile
from pathlib import Path

import numpy as np

from .core import PROBE_LABELS, count_table, pair_labels
from .simulate import CoincidenceTable, DriftProfile, ExperimentConfig, ReferenceCounts

_PROBE_POS = {label: i for i, label in enumerate(PROBE_LABELS)}


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


def _csv_rows(path: Path | str, header: str, metadata: dict | None = None):
    """Yield ``("path:line", fields)`` for each data row under ``header``.

    Comment rows ``#key=value`` go to ``metadata`` when given.
    """
    n_fields = header.count(",") + 1
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
                    key, _, value = line[1:].partition("=")
                    metadata[key] = value
                continue
            fields = line.split(",")
            if len(fields) != n_fields:
                raise ValueError(f"{path}:{lineno}: expected {n_fields} fields, got {len(fields)}")
            yield f"{path}:{lineno}", fields


def _pair_position(where: str, j: str, k: str) -> int:
    """Flat index 6*j + k of an exact probe-label pair from a CSV row."""
    for label in (j, k):
        if label not in _PROBE_POS:
            raise ValueError(f"{where}: unknown probe label {label!r}; expected one of {PROBE_LABELS}")
    return 6 * _PROBE_POS[j] + _PROBE_POS[k]


def read_counts_csv(path: Path | str) -> tuple[np.ndarray, dict]:
    """Read a counts CSV back into a (36, 36) float table plus its metadata.

    Each ``j,k,l,m`` setting must appear exactly once with a valid count.
    """
    table = np.zeros((36, 36))
    seen = np.zeros((36, 36), dtype=bool)
    metadata: dict = {}
    for where, (j, k, l_lab, m_lab, count) in _csv_rows(path, "j,k,l,m,count", metadata):
        row = _pair_position(where, j, k)
        col = _pair_position(where, l_lab, m_lab)
        if seen[row, col]:
            raise ValueError(f"{where}: duplicate row for setting {j},{k},{l_lab},{m_lab}")
        seen[row, col] = True
        table[row, col] = float(count)
    missing = int((~seen).sum())
    if missing:
        raise ValueError(f"{path}: counts table incomplete, {missing} entries missing")
    return count_table(table), metadata


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
    """Read a references CSV; each input block ``j,k`` must appear exactly once."""
    values = np.zeros(36)
    windows = np.zeros(36, dtype=int)
    seen = np.zeros(36, dtype=bool)
    for where, (j, k, window, count) in _csv_rows(path, "j,k,window,count"):
        n = _pair_position(where, j, k)
        if seen[n]:
            raise ValueError(f"{where}: duplicate row for input block {j},{k}")
        seen[n] = True
        values[n] = float(count)
        windows[n] = int(window)
    if not seen.all():
        raise ValueError(f"{path}: references incomplete, {int((~seen).sum())} blocks missing")
    return ReferenceCounts(values, windows)


def write_choi_csv(path: Path | str, chi: np.ndarray) -> None:
    """Write a 16x16 complex matrix as ``row,col,re,im`` plus ``#trace=``."""
    chi = np.asarray(chi, dtype=complex)
    if chi.shape != (16, 16):
        raise ValueError(f"expected a 16x16 matrix, got shape {chi.shape}")
    lines = ["row,col,re,im"]
    for r in range(16):
        for c in range(16):
            lines.append(f"{r},{c},{float(chi[r, c].real)!r},{float(chi[r, c].imag)!r}")
    lines.append(f"#trace={float(np.trace(chi).real)!r}")
    atomic_write_text(path, "\n".join(lines) + "\n")


def read_choi_csv(path: Path | str) -> np.ndarray:
    chi = np.zeros((16, 16), dtype=complex)
    seen = np.zeros((16, 16), dtype=bool)
    for _, (r, c, re, im) in _csv_rows(path, "row,col,re,im"):
        chi[int(r), int(c)] = float(re) + 1j * float(im)
        seen[int(r), int(c)] = True
    if not seen.all():
        raise ValueError(f"{path}: matrix incomplete")
    return chi


def parse_config(payload: dict, base_dir: Path | str = ".") -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` from a config-JSON payload.

    Exactly one of ``visibility`` or ``choi_file`` selects the process; a
    missing ``seed`` must be resolved by the caller before parsing if
    reproducible output is required.
    """
    if "pair_rate" not in payload:
        raise ValueError("config must define pair_rate")
    visibility = payload.get("visibility")
    choi = None
    if payload.get("choi_file"):
        if visibility is not None:
            raise ValueError("config must define either visibility or choi_file, not both")
        choi = read_choi_csv(Path(base_dir) / payload["choi_file"])
    drift_payload = payload.get("drift") or {}
    drift = DriftProfile(
        kind=drift_payload.get("kind", "constant"),
        amplitude=float(drift_payload.get("amplitude", 0.0)),
        period=float(drift_payload.get("period", 0.0)),
        step=float(drift_payload.get("step", 0.0)),
    )
    return ExperimentConfig(
        pair_rate=float(payload["pair_rate"]),
        visibility=None if visibility is None else float(visibility),
        choi=choi,
        drift=drift,
        seed=int(payload.get("seed", 0)),
        noise_admixture=float(payload.get("noise_admixture", 0.0)),
    )


def read_config(path: Path | str) -> tuple[dict, ExperimentConfig]:
    """Load a config JSON file; returns the raw payload and the parsed config."""
    path = Path(path)
    with open(path, encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: config must be a JSON object")
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
