"""Command-line pipeline: simulate, estimate, sweep, reconstruct.

Exit codes map library errors only: 0 on success, 2 for a ``ValueError``
or ``OSError`` (bad usage, an input that breaks its rule, a file that cannot
be read or written), 3 for a ``DegenerateDataError`` (data too degenerate to
estimate from).  Any other exception is a fault of the program and propagates
with its traceback.  Files are read, checked and written by :mod:`czfid.io`;
each output path is checked before any fit and any write, and one that names
an input file is refused.  Warnings go to
stderr: one line per main ML fit (of ``estimate``, ``reconstruct`` or a sweep
point) that stopped short of its threshold, one line counting the bootstrap
resample fits that did, one line when ``estimate`` finds the state-fidelity
bounds unavailable, one line naming every estimate whose sigma is exactly 0
(no error bar), and one line when ``simulate`` clamps a config's visibility
into [0, 1].
The one environment variable touched is ``OPENBLAS_NUM_THREADS``: it defaults
to 1 before numpy loads, and a value already set is kept.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import os
import sys
from pathlib import Path

# czfid's BLAS operands are at most 36x36 (stacks go slice by slice), so a thread pool only costs
# start-up time; a value the user set still wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from . import io  # numpy loads here, after the default above
from .core import cz_choi, process_fidelity
from .estimators import EXPANSIONS, FidelityReport, estimate
from .exceptions import DegenerateDataError
from .model import model_fidelity, model_hofmann_curves
from .simulate import simulate_counts
from .tomography import MaxLikSettings, ReconstructionResult, maxlik_reconstruct


def format_uncertainty(value: float, sigma: float | None) -> str:
    """Render ``value`` with its error in parenthesis notation, e.g. 0.860(1)."""
    if sigma is None or not math.isfinite(sigma) or sigma <= 0:
        return f"{value:.4f}"
    exponent = math.floor(math.log10(sigma))
    digit = round(sigma / 10.0**exponent)
    if digit == 10:
        digit = 1
        exponent += 1
    if exponent >= 0:
        return f"{value:.0f}({digit * 10**exponent})"
    decimals = -exponent
    return f"{value:.{decimals}f}({digit})"


def cmd_simulate(args: argparse.Namespace) -> int:
    payload, config = io.read_config(args.config)
    if config.visibility is not None and config.visibility != payload["visibility"]:
        print(f"warning: visibility {float(payload['visibility'])} outside [0, 1], "
              f"clamped to {config.visibility}", file=sys.stderr)
    table, references = simulate_counts(config)
    paths = io.simulate_to_files(config, table, references, args.out_dir, payload, args.config.parent)
    print(f"wrote {paths['counts']} ({int(table.total)} coincidences, seed {config.seed})")
    print(f"wrote {paths['references']}")
    print(f"wrote {paths['config']}")
    return 0


def cmd_estimate(args: argparse.Namespace) -> int:
    counts, metadata, counts_sha256 = io.read_counts_csv(args.counts)
    refs, refs_sha256 = io.read_references_csv(args.references) if args.references else (None, None)
    if args.renormalize and refs is None:
        raise ValueError("--renormalize requires --references")
    report_path = args.report or Path(args.counts).with_suffix(".report.json")
    _check_outputs([args.counts, args.references], report_path)

    report = estimate(
        counts, refs,
        expansions=EXPANSIONS if args.expansion == "all" else [args.expansion],
        bootstrap=args.bootstrap, seed=args.seed, settings=_maxlik_settings(args),
    )
    report = dataclasses.replace(report, provenance={
        **report.provenance,
        "counts_file": str(args.counts),
        "counts_sha256": counts_sha256,
        "references_file": str(args.references) if args.references else None,
        "references_sha256": refs_sha256,
        "metadata": metadata,
    })
    io.write_json(report_path, report.as_dict())

    sigmas = {"F_chi": report.f_chi_sigma} if report.bootstrap is not None else {}
    if report.hofmann is None:
        print(f"warning: state-fidelity bounds unavailable: {report.hofmann_invalid}", file=sys.stderr)
    else:
        sigmas.update(F_H=report.hofmann.sigma_f_h, F_D=report.hofmann.sigma_f_d)
    for kind, f_mc in (("", report.f_mc), (" renormalized", report.f_mc_renormalized or {})):
        sigmas.update({f"F_MC{kind} ({label})": sigma for label, (_, sigma) in f_mc.items()})
    null = [name for name, sigma in sigmas.items() if sigma is None]
    if null:
        print(f"warning: no error bar for {', '.join(null)}: its sigma is exactly 0", file=sys.stderr)
    _warn_unconverged(report.reconstruction, args.stop_threshold)
    if report.bootstrap is not None and report.bootstrap.nonconverged:
        print(f"warning: {report.bootstrap.nonconverged} of {args.bootstrap} bootstrap "
              "reconstructions did not reach the stopping threshold", file=sys.stderr)
    _print_report(report)
    print(f"\nreport written to {report_path}")
    return 0


def _print_report(report: FidelityReport) -> None:
    hof = report.hofmann
    invalid = f"invalid ({report.hofmann_invalid})"
    first = next(iter(report.f_mc))
    rows = [
        ("F_D", invalid if hof is None else format_uncertainty(hof.f_d, hof.sigma_f_d)),
        ("F_H", invalid if hof is None else format_uncertainty(hof.f_h, hof.sigma_f_h)),
        ("F_chi", format_uncertainty(report.f_chi, report.f_chi_sigma)),
        (f"F_MC ({first})", format_uncertainty(*report.f_mc[first])),
        ("min(F1,F2)", invalid if hof is None else format_uncertainty(hof.min_f12, None)),
    ]
    print("process fidelity estimates")
    for name, value in rows:
        print(f"  {name:<12} {value}")
    print("\nlinear estimators per identity expansion")
    header = f"  {'sigma0':<8} {'F_MC':<12}"
    if report.f_mc_renormalized is not None:
        header += "F_MC (renormalized)"
    print(header)
    for label, f_mc in report.f_mc.items():
        line = f"  {label.upper()[0]}/{label.upper()[1]:<6} {format_uncertainty(*f_mc):<12}"
        if report.f_mc_renormalized is not None:
            line += format_uncertainty(*report.f_mc_renormalized[label])
        print(line)


def cmd_sweep(args: argparse.Namespace) -> int:
    analytic, configs = io.read_sweep_spec(args.spec)
    points_path = Path(f"{args.out_csv}.points.jsonl")
    _check_outputs([args.spec], args.out_csv, points_path)

    lines, points = ["V,F_chi,F_H,F_D"], []
    for config in configs:
        v = config.visibility
        if analytic:
            _, _, f_h, f_d = model_hofmann_curves(v)
            f_chi = model_fidelity(v)
        else:
            table, _ = simulate_counts(config)
            report = estimate(table)
            if report.hofmann is None:
                raise DegenerateDataError(f"sweep point V={v!r}: {report.hofmann_invalid}")
            _warn_unconverged(report.reconstruction, MaxLikSettings().stop_threshold,
                              f"sweep point V={v!r}: ")
            f_chi, f_h, f_d = report.f_chi, report.hofmann.f_h, report.hofmann.f_d
            points.append({"V": v, "seed": config.seed, "f_chi": report.as_dict()["f_chi"]})
        lines.append(f"{v!r},{f_chi!r},{f_h!r},{f_d!r}")
    if not analytic:
        io.write_json_lines(points_path, points)  # first: a point JSON cannot encode leaves the CSV unwritten
    io.atomic_write_text(args.out_csv, "\n".join(lines) + "\n")
    print(f"wrote {args.out_csv} ({len(configs)} grid points, {'analytic' if analytic else 'simulated'})")
    if analytic:
        io.remove_file(points_path)  # an earlier simulated sweep's points describe no row of this CSV
    else:
        print(f"wrote {points_path} (one fit diagnostic line per grid point)")
    return 0


def cmd_reconstruct(args: argparse.Namespace) -> int:
    counts, _, _ = io.read_counts_csv(args.counts)
    _check_outputs([args.counts], args.out)
    result = maxlik_reconstruct(counts, settings=_maxlik_settings(args))
    io.write_choi_csv(args.out, result.chi)
    _warn_unconverged(result, args.stop_threshold)
    print(
        f"wrote {args.out} (iterations {result.iterations}, residual {result.final_residual:.3e}, "
        f"F vs CZ {process_fidelity(result.chi, cz_choi()):.6f})"
    )
    return 0


def _check_outputs(inputs: list, *outputs: Path) -> None:
    """Refuse an output that is one of the ``inputs`` files (``os.path.samefile``), then check each is writable."""
    for output in outputs:
        for source in filter(None, inputs):
            if os.path.exists(output) and os.path.samefile(output, source):
                raise ValueError(f"output {output} is the input file {source}; writing it would replace the input")
        io.check_writable(output)


def _warn_unconverged(fit: ReconstructionResult, threshold: float, where: str = "") -> None:
    """One stderr line for an ML fit that stopped short of ``threshold``."""
    if not fit.converged:
        print(f"warning: {where}reconstruction did not reach the stopping threshold "
              f"({fit.iterations} iterations, residual {fit.final_residual:.3e}, "
              f"threshold {threshold:.3e})", file=sys.stderr)


def _add_maxlik_flags(parser: argparse.ArgumentParser) -> None:
    """``--stop-threshold`` and ``--max-iterations``, defaulting to :class:`MaxLikSettings`."""
    defaults = MaxLikSettings()
    parser.add_argument("--stop-threshold", type=float, default=defaults.stop_threshold)
    parser.add_argument("--max-iterations", type=int, default=defaults.max_iterations)


def _maxlik_settings(args: argparse.Namespace) -> MaxLikSettings:
    return MaxLikSettings(stop_threshold=args.stop_threshold, max_iterations=args.max_iterations)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="czfid",
        description="Simulate two-photon CZ-gate datasets and compare process-fidelity estimators.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="draw a synthetic coincidence dataset from a config")
    sim.add_argument("config", type=Path, help="experiment config JSON")
    sim.add_argument("out_dir", type=Path, help="output directory for counts/references/config")
    sim.set_defaults(func=cmd_simulate)

    est = sub.add_parser("estimate", help="run all fidelity estimators on a counts file")
    est.add_argument("counts", type=Path, help="counts CSV")
    est.add_argument("--references", type=Path, help="reference-counts CSV; adds the drift-renormalized estimates")
    est.add_argument(
        "--expansion", choices=(*EXPANSIONS, "all"), default="all",
        help="identity-operator expansion(s) for the linear estimator",
    )
    est.add_argument(
        "--renormalize", action="store_true",
        help="requires --references, which alone adds the drift-renormalized estimates",
    )
    est.add_argument(
        "--bootstrap", type=int, default=0, metavar="N",
        help="parametric-bootstrap runs for the tomography fidelity uncertainty",
    )
    est.add_argument("--seed", type=int, default=0, help="bootstrap seed")
    est.add_argument("--report", type=Path, help="report JSON path (default: alongside counts)")
    _add_maxlik_flags(est)
    est.set_defaults(func=cmd_estimate)

    swp = sub.add_parser("sweep", help="tabulate fidelity curves over a visibility grid")
    swp.add_argument("spec", type=Path, help="sweep spec JSON")
    swp.add_argument("out_csv", type=Path, help="output CSV (columns V,F_chi,F_H,F_D); a simulated "
                     "sweep also writes per-point fit diagnostics to <out_csv>.points.jsonl")
    swp.set_defaults(func=cmd_sweep)

    rec = sub.add_parser("reconstruct", help="maximum-likelihood process matrix from counts")
    rec.add_argument("counts", type=Path, help="counts CSV")
    rec.add_argument("--out", type=Path, required=True, help="output Choi CSV")
    _add_maxlik_flags(rec)
    rec.set_defaults(func=cmd_reconstruct)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DegenerateDataError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
