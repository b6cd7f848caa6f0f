"""Numbers out: percentiles, the printed tables and ``--compare``."""

from __future__ import annotations

import statistics

__all__ = ["compare", "percentile", "print_result"]


def percentile(values: list[float], q: float) -> float | None:
    """Linear-interpolation percentile; ``None`` for no samples."""
    if not values:
        return None
    ordered = sorted(values)
    rank = (len(ordered) - 1) * q / 100.0
    low = int(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, float):
        return f"{value:.4f}"
    return str(value)


def print_result(result: dict) -> None:
    """Every metric by name with value, unit and sample count."""
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(
        f"== {result['workload']}  seed {result['seed']}  {kind}  "
        f"rounds {result['rounds']}  attempted {result['attempted']}  "
        f"failed {result['failed']}"
    )
    print("  phases (s): " + "  ".join(
        f"{name} {seconds}" for name, seconds in result["phases_s"].items()
    ))
    for name, metric in result["metrics"].items():
        print(
            f"  {name:<46} {_format(metric['value']):>14} "
            f"{metric['unit']:<7} n={metric['n']}"
        )
    shares = result.get("shares")
    if shares:
        print("  -- layer shares of the traced wall (self time)")
        for name, per_op, share in shares:
            print(f"  {name:<46} {per_op:>10.4f} ms/op {share:>7.1%}")


def _spread(values: list[float]) -> float | None:
    """Interquartile range over the median; needs four runs."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    middle = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / middle if middle else None


def _values(runs: list[dict], workload: str, metric: str) -> list[float]:
    return [
        run["metrics"][metric]["value"]
        for run in runs
        if run["workload"] == workload and not run["trace"]
        and run["metrics"].get(metric, {}).get("value") is not None
    ]


def compare(base: dict, change: dict, end_to_end: list[dict]) -> int:
    """Per workload and end-to-end metric: ``ok``, ``worse``,
    ``unresolved`` or ``missing`` against the metric's bound; returns
    the exit code (non-zero on ``worse`` and on ``missing``).

    Every workload either side ran is compared on every metric of the
    manifest: a side that crashed, skipped a workload or reported no
    value has not shown that it is no worse.
    """
    bad = 0
    workloads = sorted({
        run["workload"] for side in (base, change) for run in side["runs"]
    })
    if not workloads:
        print("missing: neither file holds a run")
        return 1
    print(
        f"{'workload':<14}{'metric':<26}{'base':>12}{'change':>12}"
        f"{'diff':>9}{'bound':>7}{'spread':>8}  verdict"
    )
    for workload in workloads:
        for spec in end_to_end:
            a = _values(base["runs"], workload, spec["name"])
            b = _values(change["runs"], workload, spec["name"])
            # A base median of 0 is no measurement either (and no base
            # for a relative difference).
            if not a or not b or not statistics.median(a):
                bad += 1
                print(
                    f"{workload:<14}{spec['name']:<26}"
                    f"{len(a):>10} n{len(b):>10} n{'-':>9}"
                    f"{spec['bound']:>7.2f}{'-':>8}  missing"
                )
                continue
            base_median, change_median = (
                statistics.median(a), statistics.median(b)
            )
            sign = 1.0 if spec["better"] == "lower" else -1.0
            worsening = sign * (change_median - base_median) / base_median
            spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
            spread = max(spreads) if spreads else None
            better_everywhere = (
                max(b) < min(a) if sign > 0 else min(b) > max(a)
            )
            if spread is not None and spread > spec["bound"]:
                verdict = "ok" if better_everywhere else "unresolved"
            elif worsening > spec["bound"]:
                verdict = "worse"
                bad += 1
            else:
                verdict = "ok"
            shown = "-" if spread is None else f"{spread:.3f}"
            print(
                f"{workload:<14}{spec['name']:<26}{base_median:>12.4f}"
                f"{change_median:>12.4f}{worsening:>+9.3f}"
                f"{spec['bound']:>7.2f}{shown:>8}  {verdict}"
            )
    return 1 if bad else 0
