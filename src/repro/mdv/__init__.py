"""The MDV system tiers: providers (MDPs), repositories (LMRs), clients.

See the paper's Figure 2: MDV clients query Local Metadata Repositories,
which cache global metadata from the Metadata Provider backbone via the
publish & subscribe mechanism.
"""

from repro.mdv.backbone import Backbone
from repro.mdv.cache import CacheEntry, CacheStore
from repro.mdv.stats import ProviderStatistics, collect_statistics
from repro.mdv.client import MDVClient, ProviderHandle, ServiceClient
from repro.mdv.gc import GarbageCollector, GcReport
from repro.mdv.outbox import (
    DeadLetter,
    DedupIndex,
    Outbox,
    OutboxEntry,
    ReplicaUpdate,
    RetryPolicy,
)
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import CachedQueryResult, LocalMetadataRepository

__all__ = [
    "CachedQueryResult",
    "DeadLetter",
    "DedupIndex",
    "Outbox",
    "OutboxEntry",
    "ReplicaUpdate",
    "RetryPolicy",
    "Backbone",
    "CacheEntry",
    "CacheStore",
    "ProviderStatistics",
    "collect_statistics",
    "MDVClient",
    "ProviderHandle",
    "ServiceClient",
    "GarbageCollector",
    "GcReport",
    "MetadataProvider",
    "LocalMetadataRepository",
]
