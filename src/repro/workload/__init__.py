"""Synthetic benchmark workloads (paper, Section 4 and Figure 10)."""

from repro.workload.documents import (
    HOST_DOMAIN,
    JOIN_CPU,
    benchmark_batch,
    benchmark_document,
    document_uri,
    host_uri,
    info_uri,
)
from repro.workload.rules import (
    RULE_TYPES,
    comp_rule,
    join_rule,
    oid_rule,
    path_rule,
    rules_of_type,
    synth_value_for_fraction,
)
from repro.workload.scenarios import WorkloadSpec

__all__ = [
    "HOST_DOMAIN",
    "JOIN_CPU",
    "benchmark_batch",
    "benchmark_document",
    "document_uri",
    "host_uri",
    "info_uri",
    "RULE_TYPES",
    "comp_rule",
    "join_rule",
    "oid_rule",
    "path_rule",
    "rules_of_type",
    "synth_value_for_fraction",
    "WorkloadSpec",
]
