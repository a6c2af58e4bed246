"""czfid benchmark: drive the real CLI in fresh processes and measure it.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --self-test

Run from anywhere inside a checkout of the repository; nothing needs to be
installed.  Each workload is a closed loop with one client: one job at a
time, each job one or two fresh ``python -m czfid.cli`` processes, as users
run the CLI.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The full record (environment, every job) goes to ``bench/out/``.
See bench/README.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from dataclasses import dataclass, field
from functools import partial
from itertools import count
from pathlib import Path
from typing import Callable

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
OUT = BENCH / "out"
PY = sys.executable
CHILD_TIMEOUT_S = 60.0
SETUP_REPEATS = 7
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class JobFailed(Exception):
    """A job broke the correctness gate."""


# --- workloads -------------------------------------------------------------

#: (visibility, pair_rate, drift) of the pipeline datasets: V over [0, 1],
#: all four drift kinds, pair_rate 1e2..1e6, no white-noise admixture.
PIPELINE_DATASETS = (
    (0.0, 1e2, {"kind": "constant"}),
    (0.25, 1e3, {"kind": "linear", "amplitude": 0.1}),
    (0.5, 1e4, {"kind": "sinusoidal", "amplitude": 0.1, "period": 666}),
    (0.75, 1e5, {"kind": "random-walk", "step": 0.002}),
    (1.0, 1e6, {"kind": "constant"}),
    (0.953, 1e4, {"kind": "sinusoidal", "amplitude": 0.1, "period": 666}),
    (0.333, 1e6, {"kind": "linear", "amplitude": 0.05}),
    (0.9, 1e2, {"kind": "random-walk", "step": 0.002}),
)
BOOTSTRAP_DATASET = (0.953, 1e4, {"kind": "sinusoidal", "amplitude": 0.1, "period": 666})
SWEEP_PAIR_RATE = 1e4
SWEEP_NOISE = 0.02
ESTIMATE_ARGS = ["--references", "data/references.csv", "--renormalize", "--expansion", "all",
                 "--report", "report.json"]


def model_fidelity(v: float, eps: float = 0.0) -> float:
    """F_model = (1 - eps)(1 + 3V)/4 + eps/16."""
    return (1.0 - eps) * (1.0 + 3.0 * v) / 4.0 + eps / 16.0


def tolerance(pair_rate: float) -> float:
    """Allowed |F_chi - F_model|: above 5 sigma of the Poisson scatter at this
    pair rate plus the bias the drift profiles above leave in F_chi."""
    return 0.01 + 0.5 / math.sqrt(pair_rate)


@dataclass
class Job:
    """One user-visible job: files to write, untimed preparation, timed CLI runs."""

    files: dict[str, str]
    prepare: list[list[str]]
    steps: list[list[str]]
    outputs: list[str]
    check: Callable[[Path], list[float]]  # |F_chi - F_model| per output; raises JobFailed
    tolerance: float  # largest |F_chi - F_model| that passes


def _config(v: float, pair_rate: float, drift: dict, seed: int) -> str:
    return json.dumps({"pair_rate": pair_rate, "visibility": v, "drift": drift, "seed": seed})


def _check_report(v: float, bootstrap: bool):
    def check(jobdir: Path) -> list[float]:
        report = json.loads((jobdir / "report.json").read_text(encoding="utf-8"))
        f_mc = list(report["f_mc"].values()) + list((report["f_mc_renormalized"] or {}).values())
        if any(math.isnan(entry["value"]) for entry in f_mc):
            raise JobFailed("F_MC is NaN")
        # A documented ``hofmann.invalid`` (empty probe row) is a valid answer.
        if "invalid" not in report["hofmann"] and math.isnan(report["hofmann"]["f_h"]):
            raise JobFailed("F_H is NaN")
        sigma = report["f_chi"]["sigma"]
        if bootstrap and not (sigma is not None and math.isfinite(sigma) and sigma > 0):
            raise JobFailed(f"bootstrap sigma {sigma!r} is not finite and positive")
        return [abs(report["f_chi"]["value"] - model_fidelity(v))]

    return check


def _check_sweep(points: int):
    def check(jobdir: Path) -> list[float]:
        rows = (jobdir / "curves.csv").read_text(encoding="utf-8").split()
        if rows[0] != "V,F_chi,F_H,F_D" or len(rows) != points + 1:
            raise JobFailed(f"sweep wrote {len(rows) - 1} rows, expected {points}")
        errors = []
        for row in rows[1:]:
            v, f_chi, f_h, f_d = map(float, row.split(","))
            if math.isnan(f_h) or math.isnan(f_d):
                raise JobFailed(f"F_H or F_D is NaN at V={v}")
            errors.append(abs(f_chi - model_fidelity(v, SWEEP_NOISE)))
        return errors

    return check


def pipeline_job(v, pair_rate, drift, seed) -> Job:
    return Job(
        files={"cfg.json": _config(v, pair_rate, drift, seed)},
        prepare=[],
        steps=[["simulate", "cfg.json", "data"], ["estimate", "data/counts.csv", *ESTIMATE_ARGS]],
        outputs=["data/counts.csv", "data/references.csv", "report.json"],
        check=_check_report(v, bootstrap=False),
        tolerance=tolerance(pair_rate),
    )


def bootstrap_job(sim_seed, boot_seed, runs) -> Job:
    v, pair_rate, drift = BOOTSTRAP_DATASET
    return Job(
        files={"cfg.json": _config(v, pair_rate, drift, sim_seed)},
        prepare=[["simulate", "cfg.json", "data"]],
        steps=[["estimate", "data/counts.csv", *ESTIMATE_ARGS,
                "--bootstrap", str(runs), "--seed", str(boot_seed)]],
        outputs=["report.json"],
        check=_check_report(v, bootstrap=True),
        tolerance=tolerance(pair_rate),
    )


def sweep_job(seed, points) -> Job:
    spec = {
        "grid": {"start": 0.0, "stop": 1.0, "points": points},
        "analytic_only": False,
        "config": {"pair_rate": SWEEP_PAIR_RATE, "noise_admixture": SWEEP_NOISE},
        "seed": seed,
    }
    return Job(
        files={"spec.json": json.dumps(spec)},
        prepare=[],
        steps=[["sweep", "spec.json", "curves.csv"]],
        outputs=["curves.csv"],
        check=_check_sweep(points),
        tolerance=tolerance(SWEEP_PAIR_RATE),
    )


def workload_jobs(name: str, seed: int, smoke: bool):
    """Reference jobs (fixed inputs, the same for every seed), then an endless
    stream of jobs whose inputs are drawn from ``seed``.

    ``fid_err_max`` is taken over the reference jobs only: their outputs are
    identical on every run of the same code, so a solver change that moves
    F_chi moves the metric, and Poisson scatter of the seeded inputs does not.
    """
    rng = random.Random(f"czfid-bench/{name}/{seed}")
    draw = partial(rng.getrandbits, 31)
    if name == "pipeline":
        datasets = PIPELINE_DATASETS[:2] if smoke else PIPELINE_DATASETS
        reference = [pipeline_job(*ds, seed=1000 + i) for i, ds in enumerate(datasets)]
        seeded = (pipeline_job(*ds, seed=draw()) for _ in count() for ds in datasets)
    elif name == "bootstrap":
        runs = 10 if smoke else 100
        reference = [bootstrap_job(42, 0, runs)]
        seeded = (bootstrap_job(draw(), draw(), runs) for _ in count())
    else:
        points = 5 if smoke else 21
        reference = [sweep_job(0, points)]
        seeded = (sweep_job(draw(), points) for _ in count())
    return reference, seeded


WORKLOADS = ("pipeline", "bootstrap", "noisy-sweep")


# --- processes -------------------------------------------------------------


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list[str], cwd: Path, log: Path) -> tuple[int, float, float]:
    """Run one process to completion; return (exit code, wall s, peak RSS MB)."""
    with open(log, "wb") as handle:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=handle, stderr=handle)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_maxrss / 1024.0


@dataclass
class JobResult:
    wall: float = 0.0
    rss_mb: float = 0.0
    errors: list[float] = field(default_factory=list)
    failure: str | None = None
    digest: str = ""
    traces: list[Path] = field(default_factory=list)


def run_job(job: Job, jobdir: Path, traced: bool) -> JobResult:
    jobdir.mkdir(parents=True)
    for name, text in job.files.items():
        (jobdir / name).write_text(text, encoding="utf-8")
    result = JobResult()
    try:
        for i, argv in enumerate(job.prepare):
            code, _, _ = run_child([PY, "-m", "czfid.cli", *argv], jobdir, jobdir / f"prepare{i}.log")
            if code != 0:
                raise JobFailed(f"preparing {argv[0]} exited {code}")
        for i, argv in enumerate(job.steps):
            if traced:
                trace_file = jobdir / f"trace{i}.json"
                cmd = [PY, str(CHILD), "trace", str(trace_file), *argv]
                result.traces.append(trace_file)
            else:
                cmd = [PY, "-m", "czfid.cli", *argv]
            code, wall, rss = run_child(cmd, jobdir, jobdir / f"step{i}.log")
            result.wall += wall
            result.rss_mb = max(result.rss_mb, rss)
            if code != 0:
                raise JobFailed(f"{argv[0]} exited {code}")
        result.errors = job.check(jobdir)
        if not max(result.errors) <= job.tolerance:
            raise JobFailed(f"F_chi off the model by {max(result.errors):.3g} "
                            f"(tolerance {job.tolerance:.3g})")
        digest = hashlib.sha256()
        for name in job.outputs:
            digest.update((jobdir / name).read_bytes())
        result.digest = digest.hexdigest()
    except (JobFailed, OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        result.failure = f"{type(exc).__name__}: {exc}"
    return result


# --- per-layer analysis of traced jobs -------------------------------------


def layer_totals(traces: list[Path]) -> Counter:
    """Per-job totals from the span files of the job's processes."""
    total = Counter()
    for path in traces:
        record = json.loads(path.read_text(encoding="utf-8"))
        spans = record["spans"]
        child_time = [0.0] * len(spans)
        for _, _, parent, start, end, _ in spans:
            if parent >= 0:
                child_time[parent] += end - start
        seen = set()
        total["processes"] += 1
        total["import_s"] += record["import_s"]
        for i, (name, layer, _, start, end, attrs) in enumerate(spans):
            own = end - start - child_time[i]
            total["spans_s"] += own
            total[f"{layer}.calls"] += 1
            total[f"{layer}.busy_s"] += own
            total["io.bytes"] += attrs.get("bytes", 0)
            if name == "maxlik_reconstruct":
                total["ml_self_s"] += own
                total["tomography.iterations"] += attrs["iterations"]
                total["tomography.nonconverged"] += not attrs["converged"]
                total["tomography.guard_activations"] += attrs["guard_activations"]
            elif name == "bootstrap_fidelity_uncertainty":
                total["tomography.bootstrap_self_s"] += own
            elif layer == "estimators" and name not in seen:
                seen.add(name)
                total["estimators.cold_s"] += end - start
    return total


JOB_MEDIANS = (
    "io.calls", "io.busy_s", "io.bytes", "simulate.calls", "simulate.busy_s",
    "tomography.calls", "tomography.busy_s", "tomography.iterations", "tomography.nonconverged",
    "tomography.guard_activations", "tomography.bootstrap_self_s", "estimators.calls",
    "estimators.busy_s", "estimators.cold_s", "core.busy_s",
)


def layer_metrics(pairs: list[tuple[JobResult, JobResult]], interp_s: float) -> dict[str, float]:
    """Per-layer metrics from (untraced, traced) runs of the same jobs.

    ``trace.accounted_frac`` is the share of a traced job's wall time covered
    by span self times, ``import czfid.cli`` and, per process, the bare
    interpreter start and exit ``interp_s``.
    """
    traced = [t for u, t in pairs if t.failure is None]
    untraced = [u for u, t in pairs if u.failure is None]
    totals = [layer_totals(t.traces) for t in traced]
    out = {name: statistics.median(tot[name] for tot in totals) for name in JOB_MEDIANS}
    out["cli.import_s"] = statistics.median(tot["import_s"] / tot["processes"] for tot in totals)
    out["cli.self_s"] = statistics.median(tot["cli.busy_s"] for tot in totals)
    iterations = sum(tot["tomography.iterations"] for tot in totals)
    out["tomography.iter_us"] = sum(tot["ml_self_s"] for tot in totals) / iterations * 1e6
    traced_s = statistics.median(t.wall for t in traced)
    untraced_s = statistics.median(u.wall for u in untraced)
    out["trace.job_s"] = traced_s
    out["trace.untraced_job_s"] = untraced_s
    out["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    out["trace.accounted_frac"] = statistics.median(
        (tot["spans_s"] + tot["import_s"] + tot["processes"] * interp_s) / t.wall
        for tot, t in zip(totals, traced)
    )
    return out


def numpy_import_s(work: Path) -> float:
    """numpy's cumulative share of ``import czfid.cli``, from -X importtime."""
    samples = []
    for i in range(3):
        log = work / f"importtime{i}.log"
        code, _, _ = run_child([PY, "-X", "importtime", "-c", "import czfid.cli"], work, log)
        if code != 0:
            raise RuntimeError(f"import czfid.cli exited {code}")
        for line in log.read_text(encoding="utf-8").splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() == "numpy":
                samples.append(int(parts[1]) * 1e-6)
    return statistics.median(samples)


def corpus_metrics(work: Path, smoke: bool) -> tuple[dict[str, float], bool]:
    """Fixed ML corpus, run in two fresh processes; iteration counts must repeat."""
    runs = []
    for i in range(2):
        out = work / f"corpus{i}.json"
        cap = "300" if smoke else "100000"
        code, _, _ = run_child([PY, str(CHILD), "corpus", str(out), cap], work, work / f"corpus{i}.log")
        if code != 0:
            raise RuntimeError(f"corpus run exited {code}")
        runs.append(json.loads(out.read_text(encoding="utf-8")))
    first, second = (run["entries"] for run in runs)
    repeat = all(
        first[key]["iterations"] == second[key]["iterations"]
        and first[key]["converged"] == second[key]["converged"]
        for key in first
    )
    busy = statistics.median(run["busy_s"] for run in runs)
    metrics = {"tomography.corpus.busy_s": busy}
    metrics["tomography.corpus.iter_us"] = busy / sum(e["iterations"] for e in first.values()) * 1e6
    for key, entry in first.items():
        for stat in ("iterations", "residual", "converged"):
            metrics[f"tomography.corpus.{key}.{stat}"] = float(entry[stat])
    return metrics, repeat


def child_json(mode: str, work: Path) -> dict:
    out = work / f"{mode}.json"
    code, _, _ = run_child([PY, str(CHILD), mode, str(out)], work, work / f"{mode}.log")
    if code != 0:
        raise RuntimeError(f"bench child {mode!r} exited {code}")
    return json.loads(out.read_text(encoding="utf-8"))


# --- one run ---------------------------------------------------------------


def environment(work: Path, args: argparse.Namespace) -> dict:
    record = child_json("env", work)
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    record.update(
        nproc=os.cpu_count(),
        usable_cpus=len(os.sched_getaffinity(0)),
        blas_threads={name: os.environ.get(name) for name in BLAS_THREAD_VARS},
        git_commit=commit,
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        smoke=args.smoke,
    )
    return record


def startup_walls(statement: str, work: Path, repeats: int) -> list[float]:
    """Wall times of fresh interpreters running ``python -c statement``.

    A first, untimed run writes the bytecode cache, which users pay once.
    """
    walls = []
    for _ in range(repeats + 1):
        code, wall, _ = run_child([PY, "-c", statement], work, work / "startup.log")
        if code != 0:
            raise RuntimeError(f"python -c {statement!r} exited {code}; see {work / 'startup.log'}")
        walls.append(wall)
    return walls[1:]


def run_jobs(args: argparse.Namespace, work: Path) -> tuple[list, list[JobResult]]:
    """Closed loop, one client.  Returns (reference results, all results in
    run order); with --trace 1 each entry is an (untraced, traced) pair."""
    reference, seeded = workload_jobs(args.workload, args.seed, args.smoke)
    started = 0

    def run(job: Job):
        nonlocal started
        started += 1
        if not args.trace:
            return run_job(job, work / f"job{started}", traced=False)
        plain = run_job(job, work / f"job{started}u", traced=False)
        traced = run_job(job, work / f"job{started}t", traced=True)
        if traced.failure is None and plain.failure is None and traced.digest != plain.digest:
            traced.failure = "traced outputs differ from untraced outputs of the same inputs"
        return plain, traced

    def wall(entry) -> float:
        return sum(r.wall for r in entry) if args.trace else entry.wall

    start = time.perf_counter()
    results = [run(job) for job in reference]
    for job in seeded:
        expected = statistics.median(wall(entry) for entry in results)
        if time.perf_counter() - start + expected > args.seconds:
            break
        results.append(run(job))
    if not args.trace:
        # Bit-for-bit determinism: the first job again, in fresh processes.
        repeat = run(reference[0])
        if repeat.failure is None and results[0].failure is None and repeat.digest != results[0].digest:
            repeat.failure = "same inputs gave different outputs on a second run"
        results.append(repeat)
    return results[: len(reference)], results


def measure(args: argparse.Namespace) -> tuple[dict, dict]:
    OUT.mkdir(exist_ok=True)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir()
    try:
        env = environment(work, args)
        correct = True
        if args.trace:
            metrics = {
                "cli.interp_s": statistics.median(startup_walls("pass", work, 5)),
                "cli.import_numpy_s": numpy_import_s(work),
            }
            metrics.update(child_json("micro", work))
            corpus, repeat = corpus_metrics(work, args.smoke)
            metrics.update(corpus)
            correct &= repeat
            _, pairs = run_jobs(args, work)
            jobs = [r for pair in pairs for r in pair]
            metrics.update(layer_metrics(pairs, metrics["cli.interp_s"]))
            setup = None
        else:
            setup = startup_walls("import czfid.cli", work, SETUP_REPEATS)
            reference, jobs = run_jobs(args, work)
            ok = [r for r in jobs if r.failure is None]
            ref_errors = [e for r in reference for e in r.errors]
            metrics = {
                "setup_s": statistics.median(setup),
                "job_s": statistics.median(r.wall for r in jobs),
                # 1 is the largest possible error: no reference job got that far.
                "fid_err_max": max(ref_errors) if ref_errors else 1.0,
                "ok_frac": len(ok) / len(jobs),
                "peak_rss_mb": max(r.rss_mb for r in jobs),
            }
        failed = [r for r in jobs if r.failure is not None]
        correct &= not failed
        record = {
            "env": env,
            "setup_s": setup,
            "jobs": [{"wall_s": r.wall, "rss_mb": r.rss_mb, "fid_err": r.errors,
                      "failure": r.failure} for r in jobs],
            "metrics": metrics,
            "corpus_repeat_ok": repeat if args.trace else None,
        }
        summary = {"correct": bool(correct), "attempted": len(jobs), "failed": len(failed)}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return record, summary


# --- output and self-test --------------------------------------------------


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def main_run(args: argparse.Namespace) -> int:
    if not (ROOT / "src" / "czfid" / "cli.py").is_file():
        print(f"error: {ROOT / 'src' / 'czfid'} not found; run inside a czfid checkout",
              file=sys.stderr)
        return 2
    spec = load_spec()
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    record, summary = measure(args)
    metrics = record["metrics"]
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    out_name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / out_name).write_text(json.dumps(record, indent=1, sort_keys=True) + "\n", encoding="utf-8")

    jobs = record["jobs"]
    print("env " + json.dumps(record["env"], sort_keys=True))
    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{summary['attempted']} jobs, {summary['failed']} failed, "
          f"failed_frac {summary['failed'] / summary['attempted']:g}")
    for job in jobs:
        if job["failure"]:
            print(f"  failed job: {job['failure']}")
    if not args.trace:
        walls = sorted(job["wall_s"] for job in jobs)
        print(f"  job_s median of {len(walls)} jobs, min {walls[0]:.4f} s, max {walls[-1]:.4f} s")
        print(f"  setup_s median of {SETUP_REPEATS} imports")
    for m in wanted:
        print(f"  {m['name']:<44} {metrics[m['name']]:.6g} {m['unit']}")
    print(f"  record: {OUT / out_name}")
    result = dict(summary)
    result["metrics"] = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted}
    print(json.dumps(result))
    return 0


def self_test() -> int:
    """Quick check, on shrunken jobs, that every named metric is printed with
    its unit for each workload in both modes.  Takes about a minute."""
    spec = load_spec()
    ok = True
    for workload in WORKLOADS:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            argv = [PY, str(Path(__file__).resolve()), "--workload", workload, "--seed", "1",
                    "--seconds", "1", "--trace", str(trace), "--smoke"]
            proc = subprocess.run(argv, capture_output=True, text=True, timeout=170)
            problems = []
            try:
                result = json.loads(proc.stdout.strip().splitlines()[-1])
            except (IndexError, json.JSONDecodeError):
                result = {}
                problems.append(f"no result line (exit {proc.returncode}): {proc.stderr[-500:]}")
            if result:
                if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
                    problems.append(f"result keys {sorted(result)}")
                if not (result.get("correct") and result.get("attempted", 0) >= 1):
                    problems.append(f"correct={result.get('correct')} attempted={result.get('attempted')}")
                expected = {m["name"]: m["unit"] for m in spec[key]}
                got = {n: v.get("unit") for n, v in result.get("metrics", {}).items()}
                if got != expected:
                    problems.append(f"metric names/units differ: {set(got.items()) ^ set(expected.items())}")
                if any(not isinstance(v.get("value"), (int, float)) for v in result.get("metrics", {}).values()):
                    problems.append("non-numeric metric value")
            if proc.returncode != 0:
                problems.append(f"exit {proc.returncode}")
            ok &= not problems
            print(f"{'PASS' if not problems else 'FAIL'} {workload} trace={trace} " + "; ".join(problems))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="shrink every job (used by --self-test; numbers are not comparable)")
    parser.add_argument("--self-test", action="store_true",
                        help="check that each workload prints every metric with its unit")
    args = parser.parse_args()
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main())
