"""Command-line entry point: ``repro-experiments``.

Examples
--------
Reproduce one figure at CI scale::

    repro-experiments --figure fig1a

Reproduce everything at the paper's scale (slow!)::

    repro-experiments --all --profile paper

The cross-cutting flags (``--trace``, ``--metrics``, ``--parallel``,
``--openmetrics``/``--telemetry``, ``--faults``) come from the shared
runtime option layer and behave exactly as on ``repro`` subcommands.
``--profile`` keeps its domain meaning here — the *scale* profile
(quick/paper) — so the shared deterministic-profiler group is excluded.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.experiments.config import get_profile
from repro.experiments.figures import DEFAULT_SEED, FIGURES, run_figure
from repro.experiments.report import render_figure
from repro.runtime import GROUP_PROFILE, add_runtime_options, runtime_session
from repro.version import __version__


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-experiments",
        description=(
            "Reproduce the evaluation figures of 'Static and Adaptive Data "
            "Replication Algorithms for Fast Information Access in Large "
            "Distributed Systems' (ICDCS 2000)."
        ),
    )
    parser.add_argument(
        "--version",
        action="version",
        version=f"%(prog)s {__version__}",
    )
    parser.add_argument(
        "--figure",
        action="append",
        choices=sorted(FIGURES),
        help="figure id to reproduce (repeatable)",
    )
    parser.add_argument(
        "--all", action="store_true", help="reproduce every figure"
    )
    parser.add_argument(
        "--ablation",
        action="append",
        help="ablation id to run (repeatable); see --list-ablations",
    )
    parser.add_argument(
        "--list-ablations",
        action="store_true",
        help="list available ablation studies and exit",
    )
    parser.add_argument(
        "--verify-claims",
        action="store_true",
        help="check the paper's claims against the reproduced figures; "
        "exit 1 if any is NOT REPRODUCED",
    )
    parser.add_argument(
        "--export",
        metavar="DIR",
        default=None,
        help=(
            "export every figure, ablation and the claim verdicts "
            "(JSON + rendered tables) into DIR and exit"
        ),
    )
    parser.add_argument(
        "--profile",
        default="",
        help="scale profile: quick (default) or paper",
    )
    parser.add_argument(
        "--scale",
        action="append",
        metavar="TIER",
        help=(
            "run the sparse large-instance path at TIER "
            "(small=128x1k, medium=512x10k, large=1024x10k; repeatable)"
        ),
    )
    parser.add_argument(
        "--seed",
        type=int,
        default=DEFAULT_SEED,
        help=f"master seed (default {DEFAULT_SEED})",
    )
    parser.add_argument(
        "--precision",
        type=int,
        default=2,
        help="decimal places in the rendered tables",
    )
    # --profile here selects the scale profile above; the shared
    # deterministic-profiler flags would collide, so that group is out
    add_runtime_options(parser, exclude=(GROUP_PROFILE,))
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    from repro.experiments.ablations import ABLATIONS, run_ablation
    from repro.experiments.report import render_metrics

    args = build_parser().parse_args(argv)
    if args.list_ablations:
        for ablation_id in sorted(ABLATIONS):
            print(ablation_id)
        return 0
    figure_ids = sorted(FIGURES) if args.all else (args.figure or [])
    ablation_ids = args.ablation or []
    scale_tiers = args.scale or []
    if (
        not figure_ids
        and not ablation_ids
        and not scale_tiers
        and not args.verify_claims
        and not args.export
    ):
        build_parser().print_help()
        return 2
    profile = get_profile(args.profile)
    with runtime_session(args) as ctx:
        registry = ctx.metrics
        if args.export:
            from repro.experiments.export import export_results

            manifest = export_results(args.export, profile, seed=args.seed)
            print(
                f"exported {len(manifest['files'])} files to {args.export} "
                f"(profile={manifest['profile']}, seed={manifest['seed']})"
            )
            if registry is not None:
                print(render_metrics(registry))
            return 0
        failed_claims = []
        if args.verify_claims:
            from repro.experiments.claims import (
                NOT_REPRODUCED,
                render_verdicts,
                verify_claims,
            )

            verdicts = verify_claims(profile, seed=args.seed)
            print(render_verdicts(verdicts))
            print()
            failed_claims = [
                r.claim_id for r in verdicts if r.verdict == NOT_REPRODUCED
            ]
        for figure_id in figure_ids:
            result = run_figure(figure_id, profile, seed=args.seed)
            print(render_figure(result, precision=args.precision))
            print()
        for ablation_id in ablation_ids:
            result = run_ablation(ablation_id, profile)
            print(result.render(precision=args.precision))
            print()
        if scale_tiers:
            from repro.experiments.scale import run_scale

            for tier in scale_tiers:
                report = run_scale(tier, seed=args.seed)
                print(
                    f"scale[{tier}]: M={report['num_sites']} "
                    f"N={report['num_objects']} "
                    f"read_nnz={report['read_nnz']:,} "
                    f"write_nnz={report['write_nnz']:,}"
                )
                print(
                    f"  SRA savings={report['savings_percent']:.2f}% "
                    f"replicas=+{report['extra_replicas']} "
                    f"gen={report['generate_seconds']:.2f}s "
                    f"solve={report['solve_seconds']:.2f}s"
                )
                print()
        if registry is not None:
            print(render_metrics(registry))
        if failed_claims:
            print(f"claims NOT REPRODUCED: {', '.join(failed_claims)}", file=sys.stderr)
            return 1
        return 0


if __name__ == "__main__":
    sys.exit(main())
