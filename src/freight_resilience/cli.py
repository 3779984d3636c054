"""Command-line entry point.

Subcommands map onto pipeline stage prefixes (``ingest`` runs just the
loader, ``run`` everything); ``synth`` emits a seeded synthetic dataset
and ``report`` re-renders tables and plots from an existing curves CSV.
Flags override the corresponding config fields; precedence is flag >
config file > built-in default.

Exit codes: 0 success, 2 configuration error, 3 data error, 4 internal
invariant violation.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from .disruption import RANKING_MODES, SCENARIOS
from .errors import EXIT_OK, ConfigError, exit_code_for
from .metrics import DEFAULT_COLLAPSE_THRESHOLD
from .network import MODES
from .pipeline import STAGES, ReportBundle, load_config, report_from_curves, run
from .synth import DEFAULT_MODELS, SynthSpec, generate_synthetic

_STAGE_PREFIX = {
    "ingest": ("ingest",),
    "centrality": ("ingest", "centrality"),
    "hotdays": ("ingest", "climate"),
    "simulate": ("ingest", "climate", "simulate"),
    "run": STAGES,
}

_COLLAPSE_HELP = f"SCF collapse threshold (default {DEFAULT_COLLAPSE_THRESHOLD})"


def _add_config_flags(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--config", required=True, help="JSON run config")
    sub.add_argument("--mode", choices=MODES, help="filter the network to one mode")
    sub.add_argument(
        "--scenario",
        nargs="+",
        choices=SCENARIOS,
        metavar="NAME",
        help=f"scenario subset to run (choices: {', '.join(SCENARIOS)})",
    )
    sub.add_argument("--seeds", type=int, help="number of random-removal trials")
    sub.add_argument("--ranking", choices=RANKING_MODES, help="targeted ranking mode")
    sub.add_argument(
        "--threshold-c", type=float, help="hot-day temperature threshold in Celsius"
    )
    sub.add_argument("--scf-collapse", type=float, help=_COLLAPSE_HELP)
    sub.add_argument("--out", help="output directory (overrides config out_dir)")


# flag (argparse dest) -> the config field it overrides; threshold_c is
# the climate section's
_FLAG_FIELDS = {
    "mode": "mode", "scenario": "scenarios", "seeds": "seeds", "ranking": "ranking",
    "threshold_c": "threshold_c", "scf_collapse": "collapse_threshold", "out": "out_dir",
}


def _overrides(args: argparse.Namespace) -> dict:
    values = {name: getattr(args, dest) for dest, name in _FLAG_FIELDS.items()}
    # nargs="+" gives a list; list-valued config fields hold tuples
    return {k: tuple(v) if isinstance(v, list) else v for k, v in values.items() if v is not None}


def _print_bundle(bundle: ReportBundle) -> None:
    print(f"wrote {len(bundle.files)} file(s) to {bundle.out_dir}")
    print(f"manifest sha256 {bundle.manifest_sha256}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="freight-resilience",
        description="Freight network robustness under random, targeted, and hot-day disruption.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in (
        ("ingest", "load and validate the network, emit its canonical CSV form"),
        ("centrality", "ingest plus centrality scores and rankings"),
        ("hotdays", "ingest plus hot-day profiles, deltas, and ensemble tables"),
        ("simulate", "everything up to removal sequences and robustness curves"),
        ("run", "full pipeline including collapse report and SVG plots"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_config_flags(p)

    p = sub.add_parser("report", help="re-render collapse tables and plots from a curves CSV")
    p.add_argument("--curves", required=True, help="curves CSV from an earlier simulate/run")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument(
        "--scf-collapse", type=float, default=DEFAULT_COLLAPSE_THRESHOLD, help=_COLLAPSE_HELP
    )

    p = sub.add_parser("synth", help="generate a seeded synthetic network and daily series")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--nodes", type=int, default=12, help="node count (default 12)")
    p.add_argument(
        "--avg-degree", type=float, default=4.0, help="target average degree (default 4.0)"
    )
    p.add_argument("--seed", type=int, default=0, help="generator seed (default 0)")
    p.add_argument("--mode", choices=MODES, default="rail", help="node mode label")
    p.add_argument(
        "--models",
        nargs="*",
        default=list(DEFAULT_MODELS),
        metavar="NAME",
        help="climate model names (empty list: skip series files)",
    )
    p.add_argument(
        "--years",
        nargs=2,
        type=int,
        default=(2000, 2009),
        metavar=("FIRST", "LAST"),
        help="daily-series year span (default 2000 2009)",
    )
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "synth":
            try:
                spec = SynthSpec(
                    n_nodes=args.nodes,
                    avg_degree=args.avg_degree,
                    seed=args.seed,
                    mode=args.mode,
                    models=tuple(args.models),
                    start_year=args.years[0],
                    end_year=args.years[1],
                )
            except ValueError as exc:  # bad generator parameters are config errors
                raise ConfigError(str(exc)) from exc
            paths = generate_synthetic(spec, args.out)
            for role in sorted(paths):
                print(f"{role}: {paths[role]}")
        elif args.command == "report":
            bundle = report_from_curves(args.curves, args.out, args.scf_collapse)
            _print_bundle(bundle)
        else:
            config = load_config(args.config, _overrides(args))
            bundle = run(config, stages=_STAGE_PREFIX[args.command])
            _print_bundle(bundle)
    except Exception as exc:  # noqa: BLE001 - single boundary maps errors to exit codes
        print(f"error: {exc}", file=sys.stderr)
        return exit_code_for(exc)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
