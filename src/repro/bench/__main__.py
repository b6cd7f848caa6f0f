"""Command-line entry point: ``python -m repro.bench <figure> [--full]``.

Examples::

    python -m repro.bench fig11
    python -m repro.bench all --full
    python -m repro.bench fig15 --csv fig15.csv
    python -m repro.bench fig12 --metrics            # writes BENCH_fig12.json
    python -m repro.bench all --metrics --metrics-dir artifacts/
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from repro.bench.ablations import ABLATIONS
from repro.bench.figures import FIGURES
from repro.bench.reporting import (
    render_chart,
    render_claims,
    render_figure,
    write_bench_json,
)
from repro.obs.metrics import default_registry, reset_default_registry

__all__ = ["main"]


def _write_csv(figure, path: str) -> None:
    with open(path, "w") as handle:
        handle.write("figure,series,batch_size,ms_per_document,hits\n")
        for sweep in figure.series:
            for point in sweep.points:
                handle.write(
                    f"{figure.figure_id},{sweep.label},{point.batch_size},"
                    f"{point.ms_per_document:.4f},{point.hits}\n"
                )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.bench",
        description="Reproduce the evaluation figures of the MDV paper "
        "(ICDE 2002).",
    )
    parser.add_argument(
        "figure",
        choices=[*FIGURES, "all", "ablations"],
        help="which figure to reproduce, 'all' figures, or 'ablations'",
    )
    parser.add_argument(
        "--full",
        action="store_true",
        help="use the paper's rule base sizes (slower; quick mode scales "
        "them down)",
    )
    parser.add_argument("--csv", help="also write the points to a CSV file")
    parser.add_argument(
        "--chart",
        action="store_true",
        help="also render an ASCII chart of each figure",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="write BENCH_<figure>.json (wall time + hot-path counters "
        "per point) and dump the metrics registry snapshot",
    )
    parser.add_argument(
        "--metrics-dir",
        default=".",
        help="directory for BENCH_*.json artifacts (default: cwd)",
    )
    args = parser.parse_args(argv)
    # Fresh registry per invocation: the run's metrics, nothing else's.
    reset_default_registry()

    if args.figure == "ablations":
        failures = 0
        for name, build in ABLATIONS.items():
            started = time.perf_counter()
            result = build()
            elapsed = time.perf_counter() - started
            print(result.render())
            print(f"(wall time: {elapsed:.1f}s)\n")
            if not result.all_claims_hold:
                failures += 1
        return 1 if failures else 0

    names = list(FIGURES) if args.figure == "all" else [args.figure]

    failures = 0
    for name in names:
        started = time.perf_counter()
        figure = FIGURES[name](quick=not args.full)
        elapsed = time.perf_counter() - started
        print(render_figure(figure))
        if args.chart:
            print(render_chart(figure))
        print(render_claims(figure))
        print(f"(wall time: {elapsed:.1f}s)\n")
        if args.csv:
            _write_csv(figure, args.csv if len(names) == 1 else f"{name}.csv")
        if args.metrics:
            path = write_bench_json(
                figure,
                args.metrics_dir,
                extra={
                    "elapsed_seconds": round(elapsed, 6),
                    "mode": "full" if args.full else "quick",
                },
            )
            print(f"(wrote {path})")
        if not figure.all_claims_hold:
            failures += 1
    if args.metrics:
        print(json.dumps(default_registry().snapshot(), indent=2))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
