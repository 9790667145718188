"""Command-line front end.

    poptree                                   # control run, print a summary
    poptree --steps 20000 --seed 7 --out out/ # write series/histograms/majority
    poptree --sweep p_update 0.1,0.2,0.5,0.9 --out sweep/ --dot
    poptree --jobs 1                          # realizations one after another

Flags override values loaded with --config; defaults are the control
parameters.
"""

from __future__ import annotations

import argparse
import json
import sys

from .engine import SimConfig, check_jobs
from .experiment import ExperimentSpec, run_experiment, spec_from_dict


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="poptree",
        description="Simulate a popularity-governed, multi-version shared directory tree.",
    )
    parser.add_argument("--config", metavar="FILE", help="JSON experiment file to start from")
    # each SimConfig field's flag stores into the field's name
    parser.add_argument(
        "--peers", dest="n_peers", metavar="PEERS", type=int, help="population size (default 100)"
    )
    parser.add_argument("--s", type=float, help="quality shape; mean quality is 1/(1+s)")
    parser.add_argument("--p-update", type=float, help="update probability per traversal")
    parser.add_argument("--p-add", type=float, help="probability an update adds rather than deletes a link")
    parser.add_argument("--p-file", type=float, help="probability an added node is a file")
    parser.add_argument("--p-leave", type=float, help="churn probability per chosen peer")
    parser.add_argument(
        "--steps",
        dest="t_max",
        metavar="STEPS",
        type=int,
        help="time steps per realization (default 100000)",
    )
    parser.add_argument("--seed", type=int, help="base RNG seed")
    parser.add_argument("--realizations", type=int, help="independent runs to average (default 10)")
    parser.add_argument("--snapshot-interval", type=int, help="steps between snapshots (default 1000)")
    parser.add_argument(
        "--sweep",
        nargs=2,
        metavar=("PARAM", "VALUES"),
        help="sweep one config field over a comma list, e.g. --sweep p_update 0.1,0.2,0.5,0.9",
    )
    parser.add_argument("--out", metavar="DIR", help="directory for CSV/JSON/DOT outputs")
    parser.add_argument(
        "--dot", action="store_true", default=None, help="also write the final main tree as DOT"
    )
    parser.add_argument(
        "--jobs",
        type=_job_count,
        help="processes that run a config's realizations (default: the available CPUs)",
    )
    return parser


def _job_count(text: str) -> int:
    try:
        jobs = int(text)
        check_jobs(jobs)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an int >= 1, got {text!r}") from None
    return jobs


def parse_config(argv: list[str] | None = None) -> ExperimentSpec:
    """Resolve CLI flags (and an optional config file) to an ExperimentSpec."""
    return _parse(argv)[0]


def _parse(argv: list[str] | None) -> tuple[ExperimentSpec, int | None]:
    """The ExperimentSpec and the --jobs value (None when not given)."""
    parser = build_parser()
    args = parser.parse_args(argv)

    spec = ExperimentSpec()
    if args.config:
        try:
            with open(args.config) as handle:
                spec = spec_from_dict(json.load(handle))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            parser.error(f"cannot load config {args.config}: {exc}")

    # a field with no flag keeps the loaded value
    flagged = {name: getattr(args, name, None) for name in SimConfig._fields}
    overrides = {name: value for name, value in flagged.items() if value is not None}

    sweep = spec.sweep
    if args.sweep is not None:
        raw_param, raw_values = args.sweep
        sweep = (raw_param, tuple(v for v in raw_values.split(",") if v.strip()))

    try:
        spec = ExperimentSpec(
            base=spec.base._replace(**overrides),
            sweep=sweep,
            out_dir=spec.out_dir if args.out is None else args.out,
            snapshot_interval=args.snapshot_interval
            if args.snapshot_interval is not None
            else spec.snapshot_interval,
            emit_dot=True if args.dot else spec.emit_dot,
        )
    except ValueError as exc:
        parser.error(str(exc))
    return spec, args.jobs


def main(argv: list[str] | None = None) -> int:
    spec, jobs = _parse(argv)
    if spec.out_dir is not None:  # an unusable --out fails before any realization runs
        try:
            spec.out_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            build_parser().error(f"cannot write outputs to {spec.out_dir}: {exc}")
    bundles = run_experiment(spec, jobs)
    for bundle in bundles:
        label = "run" if bundle.sweep_value is None else (
            f"{spec.sweep[0]}={bundle.sweep_value}"  # type: ignore[index]
        )
        final = bundle.average[-1]
        print(
            f"{label}: t={final.t} main tree {final.main_tree_size:.1f} nodes, "
            f"mean quality {final.main_tree_avg_quality:.3f}, "
            f"{final.total_nodes:.0f} nodes / {final.total_versions:.0f} versions total "
            f"({len(bundle.series)} realizations)"
        )
    if spec.out_dir is not None:
        print(f"outputs written to {spec.out_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
