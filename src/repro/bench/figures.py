"""Reproduction of every figure in the paper's evaluation (Section 4).

Each ``figure1x`` function runs the corresponding experiment and checks
the paper's *qualitative* findings as explicit claims — absolute
milliseconds differ (Python + SQLite here, Java + a commercial RDBMS on
a Sun E450 there), the curve shapes are what reproduces:

- **Figure 11 (OID)**: registration cost falls with batch size, then
  flattens; the rule base size "does not influence the runtime of the
  algorithm as the curves for 10,000 and 100,000 are almost identical".
- **Figure 12 (PATH)**: same amortization; cost *does* depend on the
  rule base size.
- **Figure 13 (COMP, 10%)**: costs nearly constant from some batch size
  on, but "registering few documents in one batch is preferable".
- **Figure 14 (JOIN)**: as Figure 12 with deeper dependency trees.
- **Figure 15 (COMP, varying %)**: "a higher rule percentage results in
  higher registration costs independent of the batch size".

Figures 13 and 15 additionally carry ``contains`` (CON) series beyond
the paper: the same workload measured with the O(rules) scan join
(``triggering="sql"``) and with the counting matcher's in-memory
substring dictionary (``triggering="counting"``), sharing one prepared
rule base per size via :meth:`FilterBench.variant` so both curves see
identical rules and documents.

``quick`` mode shrinks rule bases and batch grids so the whole suite
runs in minutes; ``full`` mode uses the paper's sizes (10k/100k rules).
"""

from __future__ import annotations

from repro.bench.matcher import figure_matcher
from repro.bench.semantics import figure_semantics
from repro.bench.harness import FilterBench, SweepResult
from repro.bench.reporting import FigureResult
from repro.workload.scenarios import WorkloadSpec

__all__ = [
    "figure11",
    "figure12",
    "figure13",
    "figure14",
    "figure15",
    "all_figures",
    "FIGURES",
]

_QUICK_BATCHES = (1, 2, 5, 10, 20, 50, 100)
_FULL_BATCHES = (1, 2, 5, 10, 20, 50, 100, 200, 500)

#: Tolerance for "curves are almost identical" (Figure 11): the larger
#: rule base may cost at most this factor more per document, averaged
#: over the sweep.
_OID_IDENTICAL_FACTOR = 1.6


#: Tokens embedded in every CON document's host value: each document
#: matches exactly this many ``contains`` rules regardless of the rule
#: base size, so the CON curves isolate how the *miss* cost scales.
_CON_TOKENS = 10


def _sweep(spec: WorkloadSpec, quick: bool, batches=None) -> SweepResult:
    bench = FilterBench(spec)
    try:
        if batches is None:
            batches = _QUICK_BATCHES if quick else _FULL_BATCHES
        return bench.sweep(batches)
    finally:
        bench.close()


def _con_sweep_pair(
    size: int, quick: bool, batches=None, tokens: int = _CON_TOKENS
) -> tuple[SweepResult, SweepResult]:
    """(scan, counting) sweeps of one CON workload on a shared rule base."""
    if batches is None:
        batches = _QUICK_BATCHES if quick else _FULL_BATCHES
    spec = WorkloadSpec("CON", size, match_fraction=tokens / size)
    scan_bench = FilterBench(spec)
    try:
        counting_bench = scan_bench.variant(triggering="counting")
        try:
            return scan_bench.sweep(batches), counting_bench.sweep(batches)
        finally:
            counting_bench.close()
    finally:
        scan_bench.close()


def _mean_cost(sweep: SweepResult) -> float:
    return sum(p.ms_per_document for p in sweep.points) / len(sweep.points)


def _plateau_cost(sweep: SweepResult) -> float:
    """Mean cost over the three largest batch sizes.

    "The curves are almost identical" is judged where amortization is
    complete; at batch 1 the absolute times are fractions of a
    millisecond and timer noise dominates any real signal.
    """
    tail = sweep.points[-3:] if len(sweep.points) >= 3 else sweep.points
    return sum(p.ms_per_document for p in tail) / len(tail)


def _amortizes(sweep: SweepResult) -> bool:
    """Cost at the smallest batch exceeds cost at the largest batch."""
    first = sweep.points[0].ms_per_document
    last = sweep.points[-1].ms_per_document
    return first > last


def figure11(quick: bool = True, sizes=None, batches=None) -> FigureResult:
    """OID rules: batch amortization; rule base size irrelevant."""
    sizes = sizes or ((2_000, 20_000) if quick else (10_000, 100_000))
    small = _sweep(WorkloadSpec("OID", sizes[0]), quick, batches)
    large = _sweep(WorkloadSpec("OID", sizes[1]), quick, batches)
    ratio = _plateau_cost(large) / _plateau_cost(small)
    figure = FigureResult(
        "Figure 11",
        "OID rules — average registration cost vs. batch size",
        series=[small, large],
    )
    figure.claims = [
        (
            "registration of few documents costs more per document than "
            "large batches (amortization)",
            _amortizes(small) and _amortizes(large),
        ),
        (
            f"rule base size does not influence cost "
            f"({sizes[0]} vs {sizes[1]} curves nearly identical; "
            f"plateau ratio {ratio:.2f})",
            ratio < _OID_IDENTICAL_FACTOR,
        ),
    ]
    return figure


def figure12(quick: bool = True, sizes=None, batches=None) -> FigureResult:
    """PATH rules: amortization; cost depends on rule base size."""
    sizes = sizes or ((1_000, 5_000) if quick else (1_000, 10_000))
    small = _sweep(WorkloadSpec("PATH", sizes[0]), quick, batches)
    large = _sweep(WorkloadSpec("PATH", sizes[1]), quick, batches)
    ratio = _mean_cost(large) / _mean_cost(small)
    figure = FigureResult(
        "Figure 12",
        "PATH rules — average registration cost vs. batch size",
        series=[small, large],
    )
    figure.claims = [
        ("amortization with batch size", _amortizes(small) and _amortizes(large)),
        (
            f"registration cost depends on the rule base size "
            f"(mean ratio {ratio:.2f} > 1)",
            ratio > 1.0,
        ),
    ]
    return figure


def figure13(
    quick: bool = True, sizes=None, batches=None, con_sizes=None
) -> FigureResult:
    """COMP rules at 10% match rate, plus contains scan vs. counting."""
    sizes = sizes or ((1_000, 5_000) if quick else (1_000, 10_000))
    # The scan join is O(rules) per document while the probe cost is
    # nearly flat, so the speedup claim needs a rule base large enough
    # for the scan to dominate measurement noise.
    con_sizes = con_sizes or ((4_000, 40_000) if quick else (5_000, 50_000))
    small = _sweep(WorkloadSpec("COMP", sizes[0], match_fraction=0.1), quick, batches)
    large = _sweep(WorkloadSpec("COMP", sizes[1], match_fraction=0.1), quick, batches)
    ratio = _mean_cost(large) / _mean_cost(small)
    # The upward trend is judged on the larger rule base, where each
    # document produces enough ResultObjects rows for the effect to rise
    # above timer noise (the small base is nearly flat).
    small_batch = large.points[0].ms_per_document
    big_batch = large.points[-1].ms_per_document
    con_pairs = [
        _con_sweep_pair(size, quick, batches) for size in con_sizes
    ]
    hits_identical = all(
        scan.batch_sizes() == counting.batch_sizes()
        and [p.hits for p in scan.points] == [p.hits for p in counting.points]
        for scan, counting in con_pairs
    )
    big_scan, big_counting = con_pairs[-1]
    largest_batch = big_scan.points[-1].batch_size
    speedup = big_scan.cost_at(largest_batch) / big_counting.cost_at(largest_batch)
    growth = _plateau_cost(big_counting) / _plateau_cost(con_pairs[0][1])
    size_ratio = con_sizes[1] / con_sizes[0]
    figure = FigureResult(
        "Figure 13",
        "COMP rules (10% of rule base) and CON rules (sql scan vs. "
        "counting matcher) — cost vs. batch size",
        series=[small, large, *(s for pair in con_pairs for s in pair)],
    )
    figure.claims = [
        (
            "registering few documents in one batch is preferable "
            f"(cost at batch 1: {small_batch:.2f} ms <= cost at largest "
            f"batch: {big_batch:.2f} ms)",
            small_batch <= big_batch * 1.25,
        ),
        (
            f"registration cost depends on the rule base size "
            f"(mean ratio {ratio:.2f} > 1)",
            ratio > 1.0,
        ),
        (
            "scan and counting contains paths register identical hit "
            "counts at every batch size (exactness)",
            hits_identical,
        ),
        (
            f"the counting matcher beats the contains scan at least 5x at "
            f"the largest batch of the {con_sizes[1]}-rule base "
            f"(speedup {speedup:.1f}x)",
            speedup >= 5.0,
        ),
        (
            f"counting per-document contains cost grows sub-linearly in "
            f"the rule base size (plateau cost ratio {growth:.1f}x for "
            f"{size_ratio:.0f}x more rules)",
            growth < size_ratio / 2,
        ),
    ]
    return figure


def figure14(quick: bool = True, sizes=None, batches=None) -> FigureResult:
    """JOIN rules: the complete filter machinery."""
    sizes = sizes or ((1_000, 5_000) if quick else (1_000, 10_000))
    small = _sweep(WorkloadSpec("JOIN", sizes[0]), quick, batches)
    large = _sweep(WorkloadSpec("JOIN", sizes[1]), quick, batches)
    ratio = _mean_cost(large) / _mean_cost(small)
    figure = FigureResult(
        "Figure 14",
        "JOIN rules — average registration cost vs. batch size",
        series=[small, large],
    )
    figure.claims = [
        ("amortization with batch size", _amortizes(small) and _amortizes(large)),
        (
            f"registration cost depends on the rule base size "
            f"(mean ratio {ratio:.2f} > 1)",
            ratio > 1.0,
        ),
    ]
    return figure


def figure15(
    quick: bool = True,
    rule_count: int | None = None,
    batches=None,
    con_rules: int | None = None,
) -> FigureResult:
    """COMP rules: varying triggered percentage; CON: varying tokens."""
    if rule_count is None:
        rule_count = 2_000 if quick else 10_000
    if con_rules is None:
        con_rules = 10_000 if quick else 20_000
    fractions = (0.01, 0.05, 0.1, 0.2)
    series = [
        _sweep(WorkloadSpec("COMP", rule_count, match_fraction=f), quick, batches)
        for f in fractions
    ]
    # CON at two match levels (k and 4k embedded tokens), each measured
    # on both contains paths over the same prepared rule base.
    token_counts = (_CON_TOKENS, 4 * _CON_TOKENS)
    con_pairs = [
        _con_sweep_pair(con_rules, quick, batches, tokens=tokens)
        for tokens in token_counts
    ]
    figure = FigureResult(
        "Figure 15",
        f"{rule_count} COMP rules — varying batch sizes and triggered "
        f"rule base percentage; {con_rules} CON rules — sql scan vs. "
        f"counting matcher at varying match levels",
        series=[*series, *(s for pair in con_pairs for s in pair)],
    )
    monotone = True
    for batch_size in series[0].batch_sizes():
        costs = [sweep.cost_at(batch_size) for sweep in series]
        if any(b < a * 0.95 for a, b in zip(costs, costs[1:])):
            monotone = False
            break
    (scan_low, counting_low), (scan_high, counting_high) = con_pairs
    con_monotone = (
        _plateau_cost(scan_high) > _plateau_cost(scan_low)
        and _plateau_cost(counting_high) > _plateau_cost(counting_low)
    )
    counting_below = (
        _plateau_cost(counting_low) < _plateau_cost(scan_low)
        and _plateau_cost(counting_high) < _plateau_cost(scan_high)
    )
    figure.claims = [
        (
            "a higher triggered rule percentage results in higher "
            "registration costs, independent of the batch size",
            monotone,
        ),
        (
            "embedding more contains needles per document raises the "
            "plateau cost of both the scan and the counting path",
            con_monotone,
        ),
        (
            "the counting path stays cheaper than the contains scan at "
            "both match levels",
            counting_below,
        ),
    ]
    return figure


FIGURES = {
    "fig11": figure11,
    "fig12": figure12,
    "fig13": figure13,
    "fig14": figure14,
    "fig15": figure15,
    # Triggering backends (sql scan / counting) vs.
    # rule-base size (BENCH_matcher.json; see repro.bench.matcher).
    "matcher": figure_matcher,
    # Semantic tier hot-path cost: publish ms/document per semantics=
    # degree over a vocabulary-divergent COMP base
    # (BENCH_semantics.json; see repro.bench.semantics).
    "semantics": figure_semantics,
}


def all_figures(quick: bool = True) -> list[FigureResult]:
    return [build(quick) for build in FIGURES.values()]
