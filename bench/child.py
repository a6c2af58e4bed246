"""Work the benchmark runs inside fresh interpreters.

    python bench/child.py trace OUT.json CLI_ARGS...  run czfid.cli.main(CLI_ARGS) with spans
    python bench/child.py corpus OUT.json MAX_ITERATIONS
    python bench/child.py micro OUT.json
    python bench/child.py env OUT.json

Each mode writes one JSON object to OUT.json.  ``src`` must be on PYTHONPATH.
Only public functions of czfid are called or wrapped; nothing in the package
is edited.
"""

from __future__ import annotations

import functools
import json
import os
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Public functions wrapped with a span, by layer (= czfid module name).
LAYERS = {
    "io": (
        "read_counts_csv", "read_references_csv", "read_choi_csv", "read_config",
        "parse_config", "write_counts_csv", "write_references_csv", "write_choi_csv",
        "write_json", "simulate_to_files", "atomic_write_text",
    ),
    "simulate": ("simulate_counts", "outcome_probabilities", "expected_counts", "renormalize_counts"),
    "tomography": ("maxlik_reconstruct", "bootstrap_fidelity_uncertainty", "r_operator"),
    "estimators": (
        "monte_carlo_fidelity", "monte_carlo_fidelity_renormalized",
        "hofmann_bounds", "bound_gap_decomposition",
    ),
    "core": ("process_fidelity",),
}
#: io functions whose first argument names the file they read or write.  All
#: writers end in atomic_write_text, so counting it and the readers counts
#: every byte once.
SIZED = {"read_counts_csv", "read_references_csv", "read_choi_csv", "read_config", "atomic_write_text"}


def _write(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)


class Tracer:
    """In-memory spans ``[name, layer, parent index, start, end, attrs]``."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []

    def wrap(self, name: str, layer: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, layer, stack[-1] if stack else -1, 0.0, 0.0, {}]
            stack.append(len(spans))
            spans.append(record)
            record[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[4] = time.perf_counter()
                stack.pop()
            if name in SIZED:
                record[5]["bytes"] = os.path.getsize(args[0])
            elif name == "maxlik_reconstruct":
                record[5].update(
                    iterations=int(result.iterations),
                    converged=bool(result.converged),
                    guard_activations=int(result.guard_activations),
                )
            return result

        return wrapper

    def install(self) -> None:
        """Replace each public function in every czfid module that binds it.

        ``cli`` imports names with ``from .tomography import ...`` and the
        bootstrap finds ``maxlik_reconstruct`` in the tomography globals, so
        patching only the defining module would miss calls.
        """
        modules = [m for n, m in sys.modules.items() if n == "czfid" or n.startswith("czfid.")]
        for layer, names in LAYERS.items():
            home = sys.modules[f"czfid.{layer}"]
            for name in names:
                original = getattr(home, name)
                wrapped = self.wrap(name, layer, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        setattr(module, name, wrapped)


def trace(out: str, argv: list[str]) -> int:
    start = time.perf_counter()
    import czfid.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.install()
    main = tracer.wrap("main", "cli", czfid.cli.main)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    _write(out, {"import_s": import_s, "exit": code, "spans": tracer.spans})
    return code


def corpus(out: str, max_iterations: int) -> int:
    """ML iterations to converge on noiseless counts of a fixed set of chi."""
    import importlib.util

    import numpy as np

    from czfid import MaxLikSettings, cz_choi, expected_counts, maxlik_reconstruct, model_choi

    spec = importlib.util.spec_from_file_location("bench_conftest", ROOT / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    rng = np.random.default_rng(20240817)
    entries = {
        "v0": model_choi(0.0),
        "v0.5": model_choi(0.5),
        "v0.953": model_choi(0.953),
        "v1": model_choi(1.0),
        "cz": cz_choi(),
        "rand1e-4": conftest.random_psd_choi(rng, 1e-4),
        "rand1e-6": conftest.random_psd_choi(rng, 1e-6),
    }
    results = {}
    busy = 0.0
    for entry, chi in entries.items():
        counts = expected_counts(chi / np.trace(chi).real, 1e4)
        for label in ("1e-5", "1e-7"):
            settings = MaxLikSettings(stop_threshold=float(label), max_iterations=max_iterations)
            t0 = time.perf_counter()
            result = maxlik_reconstruct(counts, settings=settings)
            busy += time.perf_counter() - t0
            results[f"{entry}.{label}"] = {
                "iterations": int(result.iterations),
                "residual": float(result.final_residual),
                "converged": bool(result.converged),
            }
    _write(out, {"busy_s": busy, "entries": results})
    return 0


def _per_call_us(fn, *args) -> float:
    """Median per-call time of ``fn(*args)`` after warm-up, in microseconds."""
    for _ in range(5):
        fn(*args)
    batch = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(batch):
            fn(*args)
        if time.perf_counter() - t0 >= 0.02:
            break
        batch *= 2
    samples = []
    for _ in range(15):
        t0 = time.perf_counter()
        for _ in range(batch):
            fn(*args)
        samples.append((time.perf_counter() - t0) / batch)
    return statistics.median(samples) * 1e6


def micro(out: str) -> int:
    """Warm per-call times of the kernels the layers are built from."""
    from czfid import (
        DriftProfile, ExperimentConfig, hofmann_bounds, maxlik_reconstruct, model_choi,
        monte_carlo_fidelity, monte_carlo_fidelity_renormalized, outcome_probabilities,
        r_operator, simulate_counts,
    )

    config = ExperimentConfig(
        pair_rate=1e4, visibility=0.953, seed=1,
        drift=DriftProfile("sinusoidal", amplitude=0.1, period=666),
    )
    table, refs = simulate_counts(config)
    chi = maxlik_reconstruct(table.counts).chi
    timings = {
        "simulate.p_table_us": _per_call_us(outcome_probabilities, model_choi(0.953)),
        "simulate.call_us": _per_call_us(simulate_counts, config),
        "tomography.r_operator_us": _per_call_us(r_operator, chi, table.counts),
        "estimators.f_mc_us": _per_call_us(monte_carlo_fidelity, table.counts, "hv"),
        "estimators.f_mc_renorm_us": _per_call_us(
            monte_carlo_fidelity_renormalized, table.counts, refs, "hv"
        ),
        "estimators.hofmann_us": _per_call_us(hofmann_bounds, table.counts),
    }
    _write(out, timings)
    return 0


def env(out: str) -> int:
    import platform

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = {}
    _write(out, {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
    })
    return 0


if __name__ == "__main__":
    mode, target, rest = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "trace":
        sys.exit(trace(target, rest))
    if mode == "corpus":
        sys.exit(corpus(target, int(rest[0])))
    if mode == "micro":
        sys.exit(micro(target))
    if mode == "env":
        sys.exit(env(target))
    sys.exit(f"unknown mode {mode!r}")
