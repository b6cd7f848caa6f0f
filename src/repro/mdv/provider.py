"""The Metadata Provider (MDP) — the backbone tier (paper, Section 2.2).

An MDP stores global metadata in a relational database, accepts document
registrations/updates/deletions ("this is the only way to add, update,
or delete metadata"), runs the publish & subscribe filter, and pushes
notifications to the Local Metadata Repositories subscribed to it.

Public surface:

- :meth:`MetadataProvider.register_document` — register or re-register
  (update) an RDF document; returns the :class:`PublishOutcome`.
- :meth:`MetadataProvider.delete_document`.
- :meth:`MetadataProvider.subscribe` / :meth:`unsubscribe` — manage an
  LMR's subscription rules; subscribing immediately delivers the
  currently matching resources.
- :meth:`MetadataProvider.register_named_rule` — register a rule under a
  name so later rules can use it as a search extension (Section 2.3).
- :meth:`MetadataProvider.browse` — evaluate a query directly at the MDP
  (the "real users can also browse metadata at an MDP" path), via the
  SQL translation.
"""

from __future__ import annotations

import json
from collections.abc import (
    Callable,
    Collection,
    Iterable,
    Iterator,
    Sequence,
)
from contextlib import contextmanager
from typing import Any

from repro.analysis import check_subsumption, lint_rule_text
from repro.analysis.diagnostics import Diagnostic
from repro.errors import (
    DocumentNotFoundError,
    NetworkError,
    RuleAnalysisError,
    RuleError,
    SchemaValidationError,
    SubscriptionError,
)
from repro.filter.engine import FilterEngine
from repro.filter.matcher import initialize_triggering_rule
from repro.filter.results import PublishOutcome
from repro.mdv.outbox import (
    DedupIndex,
    Outbox,
    OutboxStore,
    ReplicaUpdate,
    RetryPolicy,
)
from repro.mdv.recovery import RecoveryManager, RecoveryReport
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.pubsub.notifications import NotificationBatch
from repro.pubsub.publisher import Publisher
from repro.query.sql import run_query_sql
from repro.rdf.diff import deletion_diff, diff_documents
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.parser import parse_document
from repro.rdf.schema import Schema
from repro.rdf.serializer import to_rdfxml
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_query, parse_rule
from repro.rules.registry import ANALYZE_POLICIES, RuleRegistry, Subscription
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.storage.tables import DocumentTable, ResourceTable

__all__ = ["MetadataProvider"]


def _merge_outcomes(into, outcome) -> None:
    """Accumulate one publish outcome into another."""
    for rule_id, uris in outcome.matched.items():
        into.matched.setdefault(rule_id, set()).update(uris)
    for rule_id, uris in outcome.unmatched.items():
        into.unmatched.setdefault(rule_id, set()).update(uris)
    into.deleted.update(outcome.deleted)
    into.passes.extend(outcome.passes)

#: Handler type for directly connected subscribers (no network bus).
BatchHandler = Callable[[NotificationBatch], None]


class MetadataProvider:
    """One MDP node: storage, filter, subscriptions, publishing."""

    def __init__(
        self,
        schema: Schema,
        name: str = "mdp",
        db: Database | None = None,
        bus: Transport | None = None,
        use_rule_groups: bool = True,
        consistency: str = "filter",
        join_evaluation: str = "probe",
        analyze: str = "off",
        retry_policy: RetryPolicy | None = None,
        metrics: MetricsRegistry | None = None,
        triggering: str = "sql",
        dedupe: str = "off",
        durability: str = "fast",
        durable_delivery: bool = False,
        recovery: str = "off",
        semantics: str = "off",
    ):
        if consistency not in ("filter", "resource-list", "ttl"):
            raise ValueError(
                f"consistency must be 'filter', 'resource-list' or 'ttl', "
                f"got {consistency!r}"
            )
        if analyze not in ANALYZE_POLICIES:
            raise ValueError(
                f"analyze must be one of {ANALYZE_POLICIES}, got {analyze!r}"
            )
        if recovery not in ("off", "auto"):
            raise ValueError(
                f"recovery must be 'off' or 'auto', got {recovery!r}"
            )
        self.name = name
        self.schema = schema
        self.metrics = metrics if metrics is not None else default_registry()
        labels = {"mdp": name}
        self._m_registrations = self.metrics.counter(
            "mdp.registrations", labels
        )
        self._m_deletions = self.metrics.counter("mdp.deletions", labels)
        self._m_batches_sent = self.metrics.counter(
            "mdp.notification_batches", labels
        )
        self._m_stale_replicas = self.metrics.counter(
            "mdp.stale_replicas_ignored", labels
        )
        self.db = db or Database(metrics=self.metrics, durability=durability)
        create_all(self.db)
        #: Crash-atomic operations: every state change plus the outbox
        #: rows carrying its notifications commit in one transaction,
        #: and delivery happens after commit (docs/DURABILITY.md).
        self.durable_delivery = durable_delivery
        self._in_op = False
        self._pending_flush: set[str] = set()
        self.registry = RuleRegistry(self.db, dedupe=dedupe, semantics=semantics)
        #: Active S-ToPSS degree (``repro.semantics``, docs/SEMANTICS.md);
        #: the registry constructor validates the mode.
        self.semantics = semantics
        if semantics in ("taxonomy", "mappings"):
            # The RDF-Schema class hierarchy doubles as the seed concept
            # taxonomy; user edges arrive via register_taxonomy_edge().
            self.registry.seed_schema_taxonomy(schema)
        self.engine = FilterEngine(
            self.db, self.registry, use_rule_groups, join_evaluation,
            metrics=self.metrics, triggering=triggering,
        )
        #: Triggering-stage evaluator ("sql" = the paper's joins,
        #: "counting" = the in-memory predicate index; the engine
        #: constructor validates the mode).
        self.triggering = triggering
        self.publisher = Publisher(schema, self.registry, self.resource)
        #: Update-consistency strategy (paper §3.5 and its alternatives);
        #: instantiated lazily to avoid a circular import.
        self.consistency = consistency
        self._strategy = None
        #: Default pre-subscription analysis policy (see ANALYZE_POLICIES).
        self.analyze = analyze
        #: Diagnostics of the most recent analyzed subscribe call.
        self.last_diagnostics: list[Diagnostic] = []
        self.bus = bus
        self._documents: dict[str, Document] = {}
        self._document_table = DocumentTable(self.db)
        self._resource_table = ResourceTable(self.db)
        self._direct_subscribers: dict[str, BatchHandler] = {}
        #: Peers notified of document changes (backbone replication).
        self._replication_hook: (
            Callable[[str, Document | None, tuple[int, str]], None] | None
        ) = None
        #: Per-document ``(counter, origin)`` versions; deletions keep a
        #: tombstone version so anti-entropy can order them.  Persisted
        #: in the ``doc_versions`` table and reloaded on startup.
        self._doc_versions: dict[str, tuple[int, str]] = {}
        #: Exactly-once application of replicated changes by (source,
        #: seq); durable providers persist the index (``dedup_entries``).
        self.replica_dedup = DedupIndex(self.db if durable_delivery else None)
        #: Replica updates ignored because a newer version was applied.
        self.stale_replicas_ignored = 0
        #: Report of the startup recovery pass (``recovery="auto"``).
        self.last_recovery: RecoveryReport | None = None
        #: Reliable delivery of notifications and replication; present
        #: with a bus, or without one when ``durable_delivery`` routes
        #: direct subscribers through the transactional outbox too.
        self.outbox: Outbox | None = None
        store = OutboxStore(self.db) if durable_delivery else None
        if bus is not None:
            bus.register(name, self._handle_message)
            self.outbox = Outbox(
                name,
                transport=self._transport,
                clock=bus.now_ms,
                sleep=bus.sleep,
                policy=retry_policy,
                metrics=self.metrics,
                store=store,
            )
        elif durable_delivery:
            self.outbox = Outbox(
                name,
                transport=self._transport,
                policy=retry_policy,
                metrics=self.metrics,
                store=store,
            )
        if recovery == "auto":
            # Audit and repair the store before trusting anything in it
            # — and before the outbox resumes the delivery streams.
            self.last_recovery = RecoveryManager(
                self.db, schema, self.metrics
            ).recover()
        if triggering == "counting":
            # Build the in-memory predicate index eagerly — after any
            # recovery repairs, so a provider reopened on a crashed
            # store matches against the repaired rule base from the
            # first publish on.
            self.engine.warm()
        if self.outbox is not None:
            self.outbox.recover()
        self._load_persisted_documents()
        self._load_persisted_versions()

    def _transport(self, destination: str, kind: str, payload: Any) -> Any:
        """Route one outbox delivery: direct handler first, then bus."""
        handler = self._direct_subscribers.get(destination)
        if handler is not None:
            return handler(payload)
        if self.bus is not None:
            return self.bus.send(self.name, destination, kind, payload)
        raise NetworkError(
            f"no route from {self.name!r} to {destination!r}: "
            f"subscriber not attached"
        )

    def close(self) -> None:
        """Release the filter engine's counting index (idempotent).

        The database stays open (callers own it when they passed one
        in).
        """
        self.engine.close()

    def _load_persisted_documents(self) -> None:
        """Rebuild the in-memory document store from the database.

        A provider opened on an existing (file-backed) database resumes
        with its full state: documents, filter tables, rule catalogue
        and subscriptions all live in SQLite; only the parsed
        :class:`Document` objects need reconstruction.
        """
        for uri in self._document_table.uris():
            xml = self._document_table.get_xml(uri)
            if xml is None:  # pragma: no cover - table just listed it
                continue
            self._documents[uri] = parse_document(xml, uri, self.schema)

    def _load_persisted_versions(self) -> None:
        for row in self.db.query_all(
            "SELECT document_uri, counter, origin FROM doc_versions"
        ):
            self._doc_versions[row["document_uri"]] = (
                int(row["counter"]),
                row["origin"],
            )

    @contextmanager
    def _op(self) -> Iterator[None]:
        """One crash-atomic provider operation (docs/DURABILITY.md).

        With ``durable_delivery`` every write the operation performs —
        filter tables, documents, subscriptions, versions, and the
        outbox rows carrying its notifications — joins one transaction;
        nested ``transaction()`` calls become savepoints.  Deliveries
        requested during the operation are deferred and flushed *after*
        the commit, so a crash at any statement or commit boundary
        either leaves no trace of the operation or leaves it fully
        committed with its notifications queued for redelivery.
        Without ``durable_delivery`` this is a no-op wrapper.
        """
        if not self.durable_delivery or self._in_op:
            yield
            return
        self._in_op = True
        self._pending_flush = set()
        try:
            with self.db.transaction():
                yield
        except BaseException:
            self._pending_flush = set()
            raise
        finally:
            self._in_op = False
        pending = sorted(self._pending_flush)
        self._pending_flush = set()
        if self.outbox is not None:
            for destination in pending:
                self.outbox.flush(destination)

    # ------------------------------------------------------------------
    # Document administration (paper, Section 2.2)
    # ------------------------------------------------------------------
    def register_document(
        self,
        document: Document | str,
        document_uri: str | None = None,
        _replicated: bool = False,
    ) -> PublishOutcome:
        """Register a new document or re-register (update) an old one."""
        if isinstance(document, str):
            if document_uri is None:
                raise ValueError("document_uri is required for XML input")
            document = parse_document(document, document_uri, self.schema)
        self.schema.validate_document(document)
        self._check_uri_ownership([document])
        with self._op():
            old = self._documents.get(document.uri)
            diff = diff_documents(old, document)
            outcome = self._process_diff(diff)
            self._store_document(document, diff.deleted)
            self._republish_strong_parents(outcome, diff)
            self._publish(outcome)
            self._m_registrations.inc()
            if not _replicated:
                version = self._next_version(document.uri)
                if self._replication_hook is not None:
                    self._replication_hook(document.uri, document, version)
        return outcome

    def _process_diff(self, diff) -> PublishOutcome:
        """Route a diff through the configured consistency strategy."""
        if self.consistency == "filter":
            return self.engine.process_diff(diff)
        if self._strategy is None:
            from repro.mdv.consistency import (
                ResourceListStrategy,
                TTLStrategy,
            )

            strategy_class = (
                ResourceListStrategy
                if self.consistency == "resource-list"
                else TTLStrategy
            )
            self._strategy = strategy_class(self)
        return self._strategy.process_diff(diff)

    def register_documents(
        self, documents: Sequence[Document]
    ) -> PublishOutcome:
        """Register several documents with one filter execution.

        The paper's evaluation exists "to decide if the filter should be
        started either when a new document is registered or periodically,
        to process several documents in one batch" — and finds batching
        amortizes the per-run cost for most rule types.  This is the
        batching entry point: brand-new documents share a single filter
        run; re-registrations (updates — of a stored document or of an
        earlier document of this batch) fall back to the per-document
        three-pass algorithm.  Returns the merged outcome.
        """
        #: The pending group of brand-new documents, by URI.
        fresh: dict[str, Document] = {}
        merged = PublishOutcome()
        with self._op():
            for document in documents:
                if document.uri in fresh:
                    # A later version of a document of this very batch
                    # updates the earlier one, as two calls would.
                    _merge_outcomes(
                        merged, self._register_fresh(fresh.values())
                    )
                    fresh = {}
                if document.uri in self._documents:
                    _merge_outcomes(merged, self.register_document(document))
                else:
                    self.schema.validate_document(document)
                    fresh[document.uri] = document
            if fresh:
                _merge_outcomes(merged, self._register_fresh(fresh.values()))
        return merged

    def _register_fresh(
        self, documents: Collection[Document]
    ) -> PublishOutcome:
        """Register brand-new documents: one filter run, and one
        statement per table to store them and their versions."""
        self._check_uri_ownership(documents)
        outcome = self.engine.process_insertions(
            [resource for document in documents for resource in document]
        )
        versions = {}
        for document in documents:
            self._documents[document.uri] = document
            versions[document.uri] = self._bump_version(document.uri)
        with self.db.transaction():
            self._document_table.upsert_many(
                (document.uri, to_rdfxml(document)) for document in documents
            )
            self._resource_table.insert_many(
                (str(resource.uri), resource.rdf_class, document.uri)
                for document in documents
                for resource in document
            )
            self._persist_versions(versions.items())
        if self._replication_hook is not None:
            for document in documents:
                self._replication_hook(
                    document.uri, document, versions[document.uri]
                )
        self._publish(outcome)
        return outcome

    def delete_document(
        self, document_uri: str, _replicated: bool = False
    ) -> PublishOutcome:
        """Remove a document with all its content."""
        old = self._documents.get(document_uri)
        if old is None:
            raise DocumentNotFoundError(document_uri)
        with self._op():
            outcome = self._process_diff(deletion_diff(old))
            del self._documents[document_uri]
            with self.db.transaction():
                self._document_table.delete(document_uri)
                self._resource_table.delete_many(str(r.uri) for r in old)
            self._publish(outcome)
            self._m_deletions.inc()
            if not _replicated:
                version = self._next_version(document_uri)
                if self._replication_hook is not None:
                    self._replication_hook(document_uri, None, version)
        return outcome

    def _check_uri_ownership(self, documents: Iterable[Document]) -> None:
        """A resource URI may not be claimed by two different documents."""
        claimed = {
            str(resource.uri): document.uri
            for document in documents
            for resource in document
        }
        for uri, owner in self._resource_table.owners_of(claimed).items():
            if owner != claimed[uri]:
                raise SchemaValidationError(
                    f"resource <{uri}> is already registered by "
                    f"document {owner!r}"
                )

    def _store_document(self, document: Document, deleted: list[Resource]) -> None:
        self._documents[document.uri] = document
        with self.db.transaction():
            self._document_table.upsert(document.uri, to_rdfxml(document))
            self._resource_table.delete_many(str(r.uri) for r in deleted)
            self._resource_table.insert_many(
                (str(r.uri), r.rdf_class, document.uri) for r in document
            )

    # ------------------------------------------------------------------
    # Schema exchange (the backbone "shares the same schema", §2.2)
    # ------------------------------------------------------------------
    def schema_document(self) -> str:
        """The provider's schema as an RDF Schema document (§2.4).

        LMRs and peer MDPs bootstrap from this document instead of
        sharing Python objects — the wire format the paper implies.
        """
        from repro.rdf.schema_io import schema_to_rdfxml

        return schema_to_rdfxml(self.schema)

    # ------------------------------------------------------------------
    # Content lookup
    # ------------------------------------------------------------------
    def resource(self, uri: URIRef | str) -> Resource | None:
        """The current content of a resource, or ``None``."""
        reference = URIRef(uri)
        document = self._documents.get(reference.document_uri)
        if document is None:
            return None
        return document.get(reference)

    def document(self, uri: str) -> Document | None:
        return self._documents.get(uri)

    def document_count(self) -> int:
        return len(self._documents)

    def resource_count(self) -> int:
        return self._resource_table.count()

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def connect_subscriber(self, name: str, handler: BatchHandler) -> None:
        """Attach a directly connected subscriber (no network bus)."""
        self._direct_subscribers[name] = handler

    def subscribe(
        self,
        subscriber: str,
        rule_text: str,
        analyze: str | None = None,
    ) -> list[Subscription]:
        """Register a subscription rule for ``subscriber``.

        Rules containing ``or`` are split into conjuncts (Section 2.3);
        one subscription per conjunct is registered, all labelled with
        the original rule text.  Current matches are delivered right
        away.  Returns the registered subscriptions.

        ``analyze`` overrides the provider's default analysis policy for
        this call.  With ``"warn"`` or ``"reject"`` the rule is linted
        and subsumption-checked *before anything is stored*, so a
        rejected multi-conjunct rule never registers partially; findings
        land in :attr:`last_diagnostics`.
        """
        policy = self.analyze if analyze is None else analyze
        if policy not in ANALYZE_POLICIES:
            raise ValueError(
                f"analyze must be one of {ANALYZE_POLICIES}, got {policy!r}"
            )
        self.last_diagnostics = []
        if policy != "off":
            diagnostics = self.analyze_rule(rule_text, subscriber=subscriber)
            self.last_diagnostics = diagnostics
            if policy == "reject" and any(d.is_error for d in diagnostics):
                first = next(d for d in diagnostics if d.is_error)
                raise RuleAnalysisError(
                    f"subscription rejected by analysis: "
                    f"[{first.code}] {first.message}",
                    diagnostics=diagnostics,
                )
        rule = parse_rule(rule_text)
        conjuncts = normalize_rule(
            rule, self.schema, self.registry.named_rule_types()
        )
        named_producers = self.registry.named_producers()
        subscriptions: list[Subscription] = []
        with self._op():
            for index, normalized in enumerate(conjuncts):
                decomposed = decompose_rule(
                    normalized, self.schema, named_producers
                )
                stored_text = (
                    rule_text
                    if len(conjuncts) == 1
                    else f"{rule_text}#or{index}"
                )
                registration = self.registry.register_subscription(
                    subscriber, stored_text, decomposed
                )
                self.engine.initialize_rules(registration.created)
                subscription = registration.subscription
                subscriptions.append(subscription)
                matches = self.engine.current_matches(subscription.end_rule)
                if matches:
                    batch = self.publisher.initial_batch(
                        subscriber, subscription.sub_id, stored_text, matches
                    )
                    self._deliver(batch)
        return subscriptions

    # -- semantic vocabulary (repro.semantics, docs/SEMANTICS.md) -------

    def register_synonyms(self, kind: str, terms: list[str]) -> int:
        """Register a synonym set (``kind`` is ``property`` or ``value``)."""
        with self._op():
            set_id = self.registry.register_synonyms(kind, terms)
            self._reinitialize_semantics()
        return set_id

    def register_taxonomy_edge(self, narrower: str, broader: str) -> None:
        """Add a broader/narrower concept edge to the taxonomy."""
        with self._op():
            affected = self.registry.register_taxonomy_edge(narrower, broader)
            self._reinitialize_semantics(affected)

    def register_affine_mapping(
        self,
        source_property: str,
        target_property: str,
        scale: float,
        offset: float = 0.0,
    ) -> int:
        """Register ``target = scale * source + offset``."""
        with self._op():
            map_id = self.registry.register_affine_mapping(
                source_property, target_property, scale, offset
            )
            self._reinitialize_semantics()
        return map_id

    def register_enum_mapping(
        self,
        source_property: str,
        target_property: str,
        pairs: list[tuple[str, str]],
    ) -> int:
        """Register a finite value rename mapping."""
        with self._op():
            map_id = self.registry.register_enum_mapping(
                source_property, target_property, pairs
            )
            self._reinitialize_semantics()
        return map_id

    def _reinitialize_semantics(
        self, affected: list[int] | None = None
    ) -> None:
        """Rematerialize triggering rules after a vocabulary change.

        Vocabulary registered after subscriptions widens already-stored
        rules, so their materialized result sets must be recomputed
        against the existing metadata — future publications resync via
        the registry's mutation log, but stored state does not.
        """
        if self.registry.semantics == "off":
            return
        rule_ids = affected
        if rule_ids is None:
            rows = self.db.query_all(
                "SELECT rule_id FROM atomic_rules "
                "WHERE kind = 'triggering' ORDER BY rule_id"
            )
            rule_ids = [int(row["rule_id"]) for row in rows]
        for rule_id in rule_ids:
            initialize_triggering_rule(self.db, rule_id)

    def analyze_rule(
        self, rule_text: str, subscriber: str | None = None
    ) -> list[Diagnostic]:
        """Statically analyze a rule without registering anything.

        Runs the linter (schema, typing, satisfiability) and — when the
        rule is lintably clean — the subsumption check of each conjunct
        against the live registry.  Never raises on a bad rule; parse
        and normalization failures come back as diagnostics.
        """
        named_types = self.registry.named_rule_types()
        report = lint_rule_text(rule_text, self.schema, named_types)
        if report.has_errors:
            return list(report.diagnostics)
        try:
            rule = parse_rule(rule_text)
            conjuncts = normalize_rule(rule, self.schema, named_types)
            named_producers = self.registry.named_producers()
            for normalized in conjuncts:
                decomposed = decompose_rule(
                    normalized, self.schema, named_producers
                )
                report.extend(
                    check_subsumption(
                        decomposed,
                        self.registry,
                        subscriber=subscriber,
                        source=rule_text,
                    )
                )
        except RuleError:
            # The linter accepted what it could check; the rest of the
            # pipeline rejected the rule for a reason the linter does
            # not model (e.g. named-rule restrictions).  Registration
            # will surface that error; analysis reports what it has.
            pass
        return list(report.diagnostics)

    def unsubscribe(self, subscriber: str, rule_text: str) -> None:
        """Remove every subscription registered under ``rule_text``."""
        # Stored under the text itself or, per or-conjunct, under
        # ``<text>#or<i>``: an equality and a range probe of the
        # (subscriber, rule_text) index.
        conjunct = rule_text + "#or"
        rows = self.db.query_all(
            "SELECT rule_text FROM subscriptions WHERE subscriber = ? "
            "AND (rule_text = ? OR (rule_text >= ? AND rule_text < ?)) "
            "ORDER BY sub_id",
            (subscriber, rule_text, conjunct, rule_text + "#os"),
        )
        stored = [
            row["rule_text"]
            for row in rows
            if row["rule_text"] == rule_text
            or row["rule_text"][len(conjunct):].isdigit()
        ]
        if not stored:
            raise SubscriptionError(
                f"subscriber {subscriber!r} has no subscription "
                f"{rule_text!r}"
            )
        for stored_text in stored:
            self.registry.unsubscribe(subscriber, stored_text)

    def register_named_rule(self, name: str, rule_text: str) -> None:
        """Register a rule usable as a search extension by later rules."""
        rule = parse_rule(rule_text)
        conjuncts = normalize_rule(
            rule, self.schema, self.registry.named_rule_types()
        )
        if len(conjuncts) != 1:
            raise SubscriptionError(
                "named rules must be or-free (they serve as extensions)"
            )
        decomposed = decompose_rule(
            conjuncts[0], self.schema, self.registry.named_producers()
        )
        registration = self.registry.register_named_rule(
            name, rule_text, decomposed
        )
        self.engine.initialize_rules(registration.created)

    # ------------------------------------------------------------------
    # Browsing (direct MDP queries)
    # ------------------------------------------------------------------
    def browse(self, query_text: str) -> list[Resource]:
        """Evaluate a query at the MDP via the SQL translation.

        Named-rule extensions are inlined first so their predicates
        apply — the query paths have no atomic rules to carry them.
        """
        from repro.rules.inline import inline_named_query
        from repro.rules.parser import parse_rule as _parse_rule

        query = parse_query(query_text)
        definitions = {
            name: _parse_rule(text)
            for name, text in self.registry.named_rule_definitions().items()
        }
        if definitions:
            query = inline_named_query(query, definitions)
        uris = run_query_sql(self.db, query, self.schema)
        resources = []
        for uri in uris:
            content = self.resource(uri)
            if content is not None:
                resources.append(content)
        return resources

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def _republish_strong_parents(self, outcome, diff) -> None:
        """Re-publish matched resources whose strong closure changed.

        When a resource is updated, LMRs holding it *through a strong
        reference* must refresh their copy even though the referencing
        resource's own match set is untouched (its content, and hence
        its filter derivations, did not change).  The paper's filter
        cannot see this case — the updated resource's atoms reach no
        rule of the referencing resource — so the provider walks the
        strong-reference edges backwards and re-sends every transitive
        parent that currently matches a subscribed rule.
        """
        updated_uris = [str(new.uri) for __, new in diff.updated]
        if not updated_uris:
            return
        strong_pairs: set[tuple[str, str]] = set()
        for class_name in self.schema.class_names():
            for prop in self.schema.strong_reference_properties(class_name):
                strong_pairs.add((class_name, prop.name))
        if not strong_pairs:
            return
        # Naming the properties lets idx_fd_prop_value serve the probe;
        # on ``value`` alone it is a scan of every stored atom.
        strong_names = json.dumps(sorted({name for __, name in strong_pairs}))
        parents: set[str] = set()
        frontier = list(updated_uris)
        seen = set(frontier)
        while frontier:
            target = frontier.pop()
            rows = self.db.query_all(
                "SELECT DISTINCT uri_reference, class, property "
                "FROM filter_data WHERE property IN "
                "(SELECT value FROM json_each(?)) AND value = ?",
                (strong_names, target),
            )
            for row in rows:
                if (row["class"], row["property"]) not in strong_pairs:
                    continue
                parent = row["uri_reference"]
                if parent in seen:
                    continue
                seen.add(parent)
                parents.add(parent)
                frontier.append(parent)
        if not parents:
            return
        already = {
            str(uri) for uris in outcome.matched.values() for uri in uris
        }
        for parent in sorted(parents - already):
            rows = self.db.query_all(
                "SELECT DISTINCT m.rule_id FROM materialized m "
                "JOIN subscriptions s ON s.end_rule = m.rule_id "
                "WHERE m.uri_reference = ?",
                (parent,),
            )
            for row in rows:
                outcome.add_matched(int(row["rule_id"]), URIRef(parent))

    def _publish(self, outcome: PublishOutcome) -> None:
        if not outcome.has_notifications:
            return
        for batch in self.publisher.batches_for(outcome):
            self._deliver(batch)

    def _deliver(self, batch: NotificationBatch) -> None:
        if not batch.notifications:
            return
        self._m_batches_sent.inc()
        if self.outbox is not None and (
            self.durable_delivery
            or batch.subscriber not in self._direct_subscribers
        ):
            # Reliable at-least-once delivery: stamp, queue, attempt.
            # Failures are retried by later flushes; they never abort
            # the publish that produced the batch.  Inside a durable
            # operation the entry is persisted with the transaction and
            # the flush is deferred until after the commit.
            seq = self.outbox.reserve_seq(batch.subscriber)
            batch.source = self.name
            batch.seq = seq
            self.outbox.enqueue(batch.subscriber, "notifications", batch, seq)
            if self._in_op:
                self._pending_flush.add(batch.subscriber)
            else:
                self.outbox.flush(batch.subscriber)
            return
        handler = self._direct_subscribers.get(batch.subscriber)
        if handler is not None:
            handler(batch)
            return
        if self.bus is not None:  # pragma: no cover - bus implies outbox
            self.bus.send_one_way(
                self.name, batch.subscriber, "notifications", batch
            )

    def resync_subscriber(self, subscriber: str, after_seq: int) -> int:
        """Replay everything a restarted subscriber may have missed.

        Dead letters for the subscriber are redriven, acknowledged
        batches with ``seq > after_seq`` are re-enqueued, and the queue
        is flushed.  Redelivered duplicates are ignored by the
        subscriber's ``(source, seq)`` dedup index.  Returns the number
        of batches delivered by the flush.
        """
        if self.outbox is None:
            return 0
        self.outbox.redrive(subscriber)
        self.outbox.replay_since(subscriber, after_seq)
        return self.outbox.flush(subscriber)

    def deliver_pending(self) -> int:
        """Flush every queued outbox entry (post-recovery redelivery).

        A restarted durable provider recovers its committed-but-
        undelivered batches into the outbox queues; call this once the
        subscribers are reattached to push them out.  Receivers dedup
        by ``(source, seq)``, so redelivering an already-applied batch
        is harmless.  Returns the number of batches delivered.
        """
        if self.outbox is None:
            return 0
        return self.outbox.flush()

    def outbox_watermark(self, destination: str) -> int:
        """Highest notification seq ever reserved for ``destination``.

        Read from the persistent store when there is one, so the value
        reflects committed state — exactly what a snapshot of this
        provider's database would carry.
        """
        if self.durable_delivery:
            row = self.db.query_one(
                "SELECT MAX(seq) AS high FROM outbox_messages "
                "WHERE destination = ?",
                (destination,),
            )
            if row is not None and row["high"] is not None:
                return int(row["high"])
            return 0
        if self.outbox is None:
            return 0
        return self.outbox._next_seq.get(destination, 0)

    # ------------------------------------------------------------------
    # Snapshots (docs/DURABILITY.md)
    # ------------------------------------------------------------------
    def snapshot(self, path: str | None = None,
                 durability: str | None = None) -> Database:
        """A transactionally consistent copy of the provider's store.

        Uses SQLite's online backup API via :meth:`Database.clone`;
        the copy includes documents, rules, subscriptions, outbox and
        version state, so a new provider constructed on it resumes
        exactly where the snapshot was taken — and an LMR can catch up
        from it via
        :meth:`~repro.mdv.repository.LocalMetadataRepository.catch_up_from_snapshot`.
        """
        return self.db.clone(path, durability=durability)

    # ------------------------------------------------------------------
    # Backbone integration
    # ------------------------------------------------------------------
    def set_replication_hook(
        self, hook: Callable[[str, Document | None, tuple[int, str]], None]
    ) -> None:
        """Called after local registration with ``(uri, document,
        version)``; the backbone uses this to replicate the document to
        peer MDPs (``document=None`` = deletion)."""
        self._replication_hook = hook

    def _next_version(self, document_uri: str) -> tuple[int, str]:
        """Bump a document's version for a local (non-replicated) write.

        Versions are ``(counter, origin)`` pairs, totally ordered by
        tuple comparison — concurrent writes resolve deterministically
        (last writer wins, origin name breaking counter ties).
        """
        version = self._bump_version(document_uri)
        self._persist_versions([(document_uri, version)])
        return version

    def _bump_version(self, document_uri: str) -> tuple[int, str]:
        current = self._doc_versions.get(document_uri)
        counter = (current[0] if current is not None else 0) + 1
        version = (counter, self.name)
        self._doc_versions[document_uri] = version
        return version

    def _persist_versions(
        self, versions: Iterable[tuple[str, tuple[int, str]]]
    ) -> None:
        with self.db.transaction():
            self.db.executemany(
                "INSERT OR REPLACE INTO doc_versions "
                "(document_uri, counter, origin) VALUES (?, ?, ?)",
                ((uri, counter, origin) for uri, (counter, origin) in versions),
            )

    def document_version(self, document_uri: str) -> tuple[int, str] | None:
        return self._doc_versions.get(document_uri)

    def version_digest(self) -> dict[str, tuple[int, str]]:
        """Every known document version, tombstones included.

        Peers exchange these digests during anti-entropy
        (:meth:`~repro.mdv.backbone.Backbone.reconcile`) to find
        documents they missed during a partition.
        """
        return dict(self._doc_versions)

    def fetch_document(self, document_uri: str):
        """A document's current content and version (anti-entropy pull)."""
        return (
            self._documents.get(document_uri),
            self._doc_versions.get(document_uri),
        )

    def apply_replica(
        self,
        document_uri: str,
        document: Document | None,
        version: tuple[int, str] | None = None,
        source: str | None = None,
        seq: int | None = None,
    ) -> str:
        """Apply a replicated change originating at a peer MDP.

        Idempotent: redeliveries of the same ``(source, seq)`` and
        changes older than the locally applied version are ignored, so
        at-least-once delivery yields exactly-once application.
        Returns ``"applied"``, ``"duplicate"`` or ``"stale"``.
        """
        with self._op():
            if source is not None and seq is not None:
                if not self.replica_dedup.check_and_record(source, seq):
                    return "duplicate"
            if version is not None:
                local = self._doc_versions.get(document_uri)
                if local is not None and local >= version:
                    self.stale_replicas_ignored += 1
                    self._m_stale_replicas.inc()
                    return "stale"
                self._doc_versions[document_uri] = version
                self._persist_versions([(document_uri, version)])
            if document is None:
                if document_uri in self._documents:
                    self.delete_document(document_uri, _replicated=True)
                return "applied"
            self.register_document(document.copy(), _replicated=True)
        return "applied"

    # ------------------------------------------------------------------
    # Bus endpoint
    # ------------------------------------------------------------------
    def _handle_message(self, message) -> object:
        """Requests arriving over the simulated network."""
        kind = message.kind
        payload = message.payload
        if kind == "register_document":
            return self.register_document(payload)
        if kind == "delete_document":
            return self.delete_document(payload)
        if kind == "subscribe":
            subscriber, rule_text = payload
            return self.subscribe(subscriber, rule_text)
        if kind == "analyze":
            subscriber, rule_text = payload
            return self.analyze_rule(rule_text, subscriber=subscriber)
        if kind == "unsubscribe":
            subscriber, rule_text = payload
            return self.unsubscribe(subscriber, rule_text)
        if kind == "browse":
            return self.browse(payload)
        if kind == "schema":
            return self.schema_document()
        if kind == "named_definitions":
            return self.registry.named_rule_definitions()
        if kind == "replicate":
            if isinstance(payload, ReplicaUpdate):
                return self.apply_replica(
                    payload.document_uri,
                    payload.document,
                    version=payload.version,
                    source=payload.source,
                    seq=payload.seq,
                )
            document_uri, document = payload
            return self.apply_replica(document_uri, document)
        if kind == "ping":
            return "pong"
        if kind == "digest":
            return self.version_digest()
        if kind == "fetch_document":
            return self.fetch_document(payload)
        if kind == "resync":
            subscriber, watermark = payload
            return self.resync_subscriber(subscriber, watermark)
        raise ValueError(f"unknown message kind {kind!r}")
