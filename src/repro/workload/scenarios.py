"""Workload assembly: rule bases + matching document batches.

Combines the generators of :mod:`repro.workload.rules` and
:mod:`repro.workload.documents` into the exact measurement setup of the
paper's Section 4: *"In a single measurement, we first created a rule
base consisting of rules of the same type.  Then, we registered a number
of RDF documents and measured the overall runtime of the filter
algorithm to process them."*
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rdf.model import Document
from repro.workload.documents import benchmark_batch
from repro.workload.rules import (
    RULE_TYPES,
    con_token,
    rules_of_type,
    synth_value_for_fraction,
)

__all__ = ["WorkloadSpec"]


@dataclass(frozen=True)
class WorkloadSpec:
    """One benchmark configuration.

    ``match_fraction`` only matters for COMP and CON workloads: the
    fraction of the rule base every registered document triggers (the
    paper's Figures 13 and 15 vary it between 1% and 20%; the CON
    series reuse the knob for ``contains`` rules).
    """

    rule_type: str
    rule_count: int
    match_fraction: float = 0.1

    def __post_init__(self) -> None:
        if self.rule_type not in RULE_TYPES:
            raise ValueError(f"unknown rule type {self.rule_type!r}")
        if self.rule_count <= 0:
            raise ValueError("rule_count must be positive")

    def rule_texts(self) -> list[str]:
        """The full rule base."""
        return rules_of_type(self.rule_type, self.rule_count)

    def synth_value(self) -> int:
        """The document synthValue triggering ``match_fraction`` of COMP
        rules (0 for the other workloads)."""
        if self.rule_type != "COMP":
            return 0
        return synth_value_for_fraction(self.rule_count, self.match_fraction)

    def matched_token_count(self) -> int:
        """How many CON tokens each document's host embeds (0 otherwise)."""
        if self.rule_type != "CON":
            return 0
        return synth_value_for_fraction(self.rule_count, self.match_fraction)

    def server_host(self, index: int) -> str | None:
        """The host name of document ``index`` (``None`` = default).

        CON documents embed the tokens of rules ``0 … k-1``, separated
        by ``.`` so no token match can straddle a boundary; the
        ``h{index}`` prefix keeps host values distinct per document, so
        the counting matcher pays one trigram probe per document rather
        than one per batch.
        """
        if self.rule_type != "CON":
            return None
        tokens = [con_token(j) for j in range(self.matched_token_count())]
        return ".".join([f"h{index}", *tokens])

    def documents(self, batch_size: int, start_index: int = 0) -> list[Document]:
        """A batch of documents honouring the matching contract.

        For OID/PATH/JOIN workloads the document indices must stay below
        ``rule_count`` so each document is matched by exactly one rule.
        """
        if (
            self.rule_type not in ("COMP", "CON")
            and start_index + batch_size > self.rule_count
        ):
            raise ValueError(
                f"documents {start_index}..{start_index + batch_size - 1} "
                f"exceed the rule base of {self.rule_count} one-to-one rules"
            )
        return benchmark_batch(
            batch_size,
            start_index=start_index,
            synth_value=self.synth_value(),
            server_host=self.server_host,
        )

    def expected_matches_per_document(self) -> int:
        """How many rules one registered document triggers."""
        if self.rule_type == "COMP":
            return self.synth_value()
        if self.rule_type == "CON":
            return self.matched_token_count()
        return 1

    def label(self) -> str:
        if self.rule_type == "COMP":
            percent = round(self.match_fraction * 100)
            return f"COMP n={self.rule_count} match={percent}%"
        if self.rule_type == "CON":
            # Fractions are tiny here (k matched rules out of n); the
            # absolute token count reads better than "match=0%".
            return f"CON n={self.rule_count} k={self.matched_token_count()}"
        return f"{self.rule_type} n={self.rule_count}"
