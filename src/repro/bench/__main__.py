"""Command-line entry point for the experiment harness.

Examples
--------
::

    python -m repro.bench table2
    python -m repro.bench fig3  --datasets DE NH --mode exact
    python -m repro.bench fig8  --datasets DE NH --queries 50
    python -m repro.bench fig9  --datasets DE --queries 30
    python -m repro.bench fig10 --datasets DE NH ME CO
    python -m repro.bench table1 --datasets DE NH ME
    python -m repro.bench ablation --datasets DE
    python -m repro.bench --summary

Every sub-command prints the corresponding paper panel as text; redirect
to a file to archive a run (``results/run_all.py`` does this for every
panel; the README's *Datasets and experiments* lists the commands).
``--summary`` instead folds every committed ``BENCH_*.json`` into one
perf-trajectory table (see :mod:`repro.bench.summary`).
"""

from __future__ import annotations

import argparse
import sys
from typing import List

from . import summary
from .experiments import ablation, fig3, fig10, fig89, table1, table2


def _add_datasets(parser: argparse.ArgumentParser, default: List[str]) -> None:
    parser.add_argument(
        "--datasets",
        nargs="+",
        default=default,
        help=f"suite dataset names (default: {' '.join(default)})",
    )


def main(argv: List[str] = None) -> int:
    """Parse arguments, run the selected experiment, print its panel."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Regenerate the paper's tables and figures.",
    )
    parser.add_argument(
        "--summary",
        action="store_true",
        help="print the perf trajectory over every BENCH_*.json and exit",
    )
    parser.add_argument(
        "--bench-root",
        default=".",
        help="directory holding the BENCH_*.json files (default: .)",
    )
    sub = parser.add_subparsers(dest="command")

    p = sub.add_parser("table1", help="Table 1: bounds + empirical scaling")
    _add_datasets(p, ["DE", "NH", "ME"])
    p.add_argument("--queries", type=int, default=100)

    p = sub.add_parser("table2", help="Table 2: dataset characteristics")
    _add_datasets(p, list(table2.SUITE[:6]) if hasattr(table2, "SUITE") else ["DE"])

    p = sub.add_parser("fig3", help="Figure 3: arterial dimension")
    _add_datasets(p, ["DE", "NH"])
    p.add_argument("--mode", choices=["exact", "reduced"], default="exact")
    p.add_argument("--max-region-nodes", type=int, default=2500)

    for name, kind in (("fig8", "distance"), ("fig9", "path")):
        p = sub.add_parser(name, help=f"Figure {name[-1]}: {kind} query times")
        _add_datasets(p, ["DE", "NH"])
        p.add_argument("--queries", type=int, default=50)
        p.add_argument(
            "--engines",
            nargs="+",
            default=list(fig89.DEFAULT_ENGINES),
            help="engines to compare",
        )
        p.set_defaults(kind=kind)

    p = sub.add_parser("fig10", help="Figure 10: space and preprocessing")
    _add_datasets(p, ["DE", "NH", "ME", "CO"])
    p.add_argument(
        "--engines", nargs="+", default=["SILC", "CH", "AH"], help="engines to build"
    )

    p = sub.add_parser("ablation", help="AH component ablations")
    _add_datasets(p, ["DE"])
    p.add_argument("--queries", type=int, default=100)

    args = parser.parse_args(argv)

    if args.summary:
        print(summary.main(args.bench_root))
        return 0
    if args.command is None:
        parser.error("a sub-command (or --summary) is required")

    if args.command == "table1":
        print(table1.render(table1.run(args.datasets, queries=args.queries)))
    elif args.command == "table2":
        print(table2.render(table2.run(args.datasets)))
    elif args.command == "fig3":
        print(
            fig3.render(
                fig3.run(
                    args.datasets,
                    mode=args.mode,
                    max_region_nodes=args.max_region_nodes,
                )
            )
        )
    elif args.command in ("fig8", "fig9"):
        print(
            fig89.render(
                fig89.run(
                    args.datasets,
                    engines=args.engines,
                    kind=args.kind,
                    queries_per_bucket=args.queries,
                )
            )
        )
    elif args.command == "fig10":
        print(fig10.render(fig10.run(args.datasets, engines=args.engines)))
    elif args.command == "ablation":
        for name in args.datasets:
            print(ablation.render(ablation.run(name, queries=args.queries)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
