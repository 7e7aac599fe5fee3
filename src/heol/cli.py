"""Command-line interface: run, validate, and list simulation scenarios.

Exit codes: 0 success, 2 usage, 3 invalid configuration, 4 runtime failure
(divergence or a singularity hit during the run).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .errors import ExportError, HeolError
from .scenarios import (
    Scenario,
    _simulate,
    _write_csv,
    builtin_names,
    builtin_scenario,
    compute_metrics,
    export_metrics,
    load_scenario,
    validate_scenario,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INVALID = 3
EXIT_RUNTIME = 4


def _load(config: str) -> Scenario:
    """Resolve a --config value: built-in scenario name or path to a JSON file."""
    if config in builtin_names():
        return builtin_scenario(config)
    return load_scenario(config)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="heol",
        description="Simulate homeostat-based model-free control scenarios.",
    )
    sub = parser.add_subparsers(dest="command")

    run = sub.add_parser("run", help="simulate a scenario and write CSV + metrics files")
    run.add_argument("--config", required=True, help="scenario JSON file or built-in name")
    run.add_argument(
        "--out",
        default=None,
        help="output directory (default: $HEOL_OUT_DIR or the current directory)",
    )

    val = sub.add_parser("validate", help="check a scenario file without running it")
    val.add_argument("--config", required=True, help="scenario JSON file or built-in name")

    sub.add_parser("list", help="list built-in scenarios")
    return parser


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)

    if args.command is None:
        parser.print_usage(sys.stderr)
        return EXIT_USAGE

    if args.command == "list":
        for name in builtin_names():
            print(name)
        return EXIT_OK

    try:
        scenario = _load(args.config)
        built = validate_scenario(scenario)
    except HeolError as exc:
        print(f"heol: invalid scenario: {exc}", file=sys.stderr)
        return EXIT_INVALID

    if args.command == "validate":
        print(f"{scenario.name}: ok")
        return EXIT_OK

    # run
    out_dir = Path(args.out if args.out is not None else os.environ.get("HEOL_OUT_DIR", "."))
    try:
        log = next(steps := _simulate(built))  # no sample yet: the CSV is formatted as the loop runs
        csv_path = _write_csv(log, out_dir / f"{scenario.name}.csv", steps)
        metrics_path = export_metrics(
            compute_metrics(log, scenario.rms_fraction), out_dir / f"{scenario.name}.metrics.txt"
        )
    except (ExportError, OSError) as exc:
        print(f"heol: export failed: {exc}", file=sys.stderr)
        return 1
    except HeolError as exc:
        print(f"heol: run failed: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    print(csv_path)
    print(metrics_path)
    return EXIT_OK


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
