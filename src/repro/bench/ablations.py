"""Ablation experiments for the design choices Section 3.3 argues for.

Each ablation returns a :class:`AblationResult` with one timed variant
per design alternative plus the qualitative expectation as a claim —
mirroring how :mod:`repro.bench.figures` handles the paper's figures.

Available ablations (also runnable via ``python -m repro.bench``):

- ``rule-groups`` — grouped versus per-join-rule evaluation (§3.3.3);
- ``dedup`` — dependency-graph merging versus private atoms (§3.3.2);
- ``join-evaluation`` — the paper's member-scan combined evaluation
  versus the delta-probe optimization (beyond the paper).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.bench.harness import FilterBench
from repro.workload.scenarios import WorkloadSpec

__all__ = [
    "AblationResult",
    "ablation_rule_groups",
    "ablation_dedup",
    "ablation_join_evaluation",
    "ABLATIONS",
]


@dataclass
class AblationResult:
    """Timed variants of one design choice."""

    ablation_id: str
    title: str
    #: variant label → seconds per measured operation.
    timings: dict[str, float] = field(default_factory=dict)
    claims: list[tuple[str, bool]] = field(default_factory=list)

    @property
    def all_claims_hold(self) -> bool:
        return all(holds for __, holds in self.claims)

    def render(self) -> str:
        lines = [f"== Ablation: {self.title} =="]
        for label, seconds in self.timings.items():
            lines.append(f"  {label:>14s}: {seconds * 1000:8.1f} ms")
        for text, holds in self.claims:
            status = "HOLDS" if holds else "VIOLATED"
            lines.append(f"  [{status:8s}] {text}")
        return "\n".join(lines)


def _measure_batch(bench: FilterBench, batch_size: int, repeats: int = 3) -> float:
    """Median total seconds for one batch registration."""
    samples = []
    for __ in range(repeats):
        db, engine = bench.fresh_engine()
        documents = bench.spec.documents(batch_size)
        resources = [r for doc in documents for r in doc]
        started = time.perf_counter()
        engine.process_insertions(resources, collect="none")
        samples.append(time.perf_counter() - started)
        db.close()
    samples.sort()
    return samples[len(samples) // 2]


def ablation_rule_groups(
    rule_count: int = 2_000, batch_size: int = 50
) -> AblationResult:
    """Grouped vs. per-join-rule evaluation (paper, §3.3.3)."""
    result = AblationResult(
        "rule-groups",
        f"rule groups on/off (PATH n={rule_count}, batch {batch_size})",
    )
    for label, use_groups in (("grouped", True), ("ungrouped", False)):
        bench = FilterBench(
            WorkloadSpec("PATH", rule_count), use_rule_groups=use_groups
        )
        try:
            result.timings[label] = _measure_batch(bench, batch_size)
        finally:
            bench.close()
    result.claims = [
        (
            "grouped evaluation beats per-join-rule evaluation",
            result.timings["grouped"] < result.timings["ungrouped"],
        )
    ]
    return result


def ablation_dedup(
    rule_count: int = 1_000, batch_size: int = 50
) -> AblationResult:
    """Dependency-graph merging vs. private atoms (paper, §3.3.2)."""
    result = AblationResult(
        "dedup",
        f"dependency-graph merge on/off (JOIN n={rule_count}, "
        f"batch {batch_size})",
    )
    atom_counts = {}
    for label, dedup in (("merged", True), ("private", False)):
        bench = FilterBench(
            WorkloadSpec("JOIN", rule_count), deduplicate=dedup
        )
        try:
            result.timings[label] = _measure_batch(bench, batch_size)
            db, __ = bench.fresh_engine()
            atom_counts[label] = db.count("atomic_rules")
            db.close()
        finally:
            bench.close()
    result.claims = [
        (
            f"merging shrinks the atomic-rule base "
            f"({atom_counts['merged']} vs {atom_counts['private']})",
            atom_counts["merged"] < atom_counts["private"],
        ),
        (
            "merged evaluation is faster",
            result.timings["merged"] < result.timings["private"],
        ),
    ]
    return result


def ablation_join_evaluation(
    rule_count: int = 5_000, batch_size: int = 5
) -> AblationResult:
    """Member-scan (the paper) vs. delta-probe (beyond the paper)."""
    result = AblationResult(
        "join-evaluation",
        f"member-scan vs delta-probe (PATH n={rule_count}, "
        f"batch {batch_size})",
    )
    for label in ("scan", "probe"):
        bench = FilterBench(
            WorkloadSpec("PATH", rule_count), join_evaluation=label
        )
        try:
            result.timings[label] = _measure_batch(bench, batch_size)
        finally:
            bench.close()
    result.claims = [
        (
            "delta-probe removes the member-scan cost at small batches",
            result.timings["probe"] < result.timings["scan"],
        )
    ]
    return result


ABLATIONS = {
    "rule-groups": ablation_rule_groups,
    "dedup": ablation_dedup,
    "join-evaluation": ablation_join_evaluation,
}
