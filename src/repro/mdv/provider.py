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
  (the "real users can also browse metadata at an MDP" path): the query
  is initialized like a new rule over the stored metadata, through the
  filter's SQL joins, in an operation that always rolls back.
"""

from __future__ import annotations

import json
from collections.abc import (
    Callable,
    Collection,
    Iterator,
    Sequence,
)
from contextlib import contextmanager, suppress
from functools import partial
from typing import Any

from repro.errors import (
    DocumentNotFoundError,
    NetworkError,
    SchemaValidationError,
    SubscriptionError,
)
from repro.filter.engine import FilterEngine
from repro.filter.joins import initialize_join_rule, load_group
from repro.filter.matcher import initialize_triggering_rule
from repro.filter.results import PublishOutcome
from repro.mdv.outbox import (
    DedupIndex,
    Outbox,
    OutboxEntry,
    OutboxStore,
    ReplicaUpdate,
)
from repro.net.transport import Transport
from repro.obs.metrics import MetricsRegistry, default_registry
from repro.pubsub.notifications import NotificationBatch
from repro.pubsub.publisher import Publisher
from repro.rdf.diff import deletion_diff, diff_documents
from repro.rdf.model import Document, Resource, URIRef
from repro.rdf.parser import parse_document
from repro.rdf.schema import Schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_query, parse_rule
from repro.rules.registry import RuleRegistry, Subscription
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.storage.tables import DocumentLoader, DocumentTable, ResourceTable

__all__ = ["MetadataProvider"]

#: Bumps a document's ``(counter, origin)`` version for a local write;
#: a deleted document's tombstone keeps counting.
_BUMP_VERSION = (
    "INSERT INTO doc_versions (document_uri, counter, origin) "
    "VALUES (?, 1, ?) ON CONFLICT (document_uri) DO UPDATE SET "
    "counter = counter + 1, origin = excluded.origin"
)

#: The atoms that read the given rules, directly or through joins, and
#: the rules themselves, children first: an atom's inputs exist when it
#: is inserted, and ``AUTOINCREMENT`` ids only grow.
_DEPENDENCY_CONE = (
    "WITH RECURSIVE cone (rule_id) AS ("
    "SELECT value FROM json_each(?) UNION "
    "SELECT d.target_rule FROM rule_dependencies d "
    "JOIN cone c ON d.source_rule = c.rule_id) "
    "SELECT a.rule_id, a.kind, a.left_rule, a.right_rule, a.group_id "
    "FROM cone c JOIN atomic_rules a ON a.rule_id = c.rule_id "
    "ORDER BY a.rule_id"
)


def _merge_outcomes(into, outcome) -> None:
    """Accumulate one publish outcome into another."""
    for rule_id, uris in outcome.matched.items():
        into.matched.setdefault(rule_id, set()).update(uris)
    for rule_id, uris in outcome.unmatched.items():
        into.unmatched.setdefault(rule_id, set()).update(uris)
    into.deleted.update(outcome.deleted)
    into.passes.extend(outcome.passes)


class _Discard(Exception):
    """Unwinds :meth:`MetadataProvider.browse`'s always-rolled-back op."""


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
        join_evaluation: str = "probe",
        metrics: MetricsRegistry | None = None,
        triggering: str = "sql",
        durability: str = "fast",
        durable_delivery: bool = False,
        semantics: str = "off",
    ):
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
        #: The outbox and the replica dedup index persist, so
        #: notifications committed with an operation survive a crash
        #: until delivered (docs/DURABILITY.md).
        self.durable_delivery = durable_delivery
        self._in_op = False
        #: Per-operation state of :meth:`_op`: how to undo in-memory
        #: changes on rollback, and what to hand out after the commit.
        self._undo: list[Callable[[], None]] = []
        self._batches: list[NotificationBatch] = []
        self._replications: list[tuple[str, Document | None,
                                       tuple[int, str]]] = []
        self.registry = RuleRegistry(self.db, semantics=semantics)
        #: Active S-ToPSS degree (``repro.semantics``, docs/SEMANTICS.md);
        #: the registry constructor validates the mode.
        self.semantics = semantics
        if semantics in ("taxonomy", "mappings"):
            # The RDF-Schema class hierarchy doubles as the seed concept
            # taxonomy; user edges arrive via register_taxonomy_edge().
            self.registry.seed_schema_taxonomy(schema)
        self.engine = FilterEngine(
            self.db, self.registry, join_evaluation=join_evaluation,
            metrics=self.metrics, triggering=triggering,
        )
        #: Triggering-stage evaluator ("sql" = the paper's joins,
        #: "counting" = the in-memory predicate index; the engine
        #: constructor validates the mode).
        self.triggering = triggering
        self.publisher = Publisher(schema, self.registry, self.resource)
        self.bus = bus
        #: Documents live only as their ``filter_data`` rows; every
        #: lookup rebuilds them (docs/DURABILITY.md).
        self._loader = DocumentLoader(self.db, schema)
        #: The resources of the running :meth:`_op`'s own documents, so
        #: its publish reads them from the objects in hand; emptied when
        #: the operation ends.
        self._in_hand: dict[URIRef, Resource] = {}
        self._document_table = DocumentTable(self.db)
        self._resource_table = ResourceTable(self.db)
        self._direct_subscribers: dict[str, BatchHandler] = {}
        #: Peers notified of document changes (backbone replication).
        self._replication_hook: (
            Callable[[str, Document | None, tuple[int, str]], None] | None
        ) = None
        #: Exactly-once application of replicated changes by (source,
        #: seq); durable providers persist the index (``dedup_entries``).
        self.replica_dedup = DedupIndex(self.db if durable_delivery else None)
        #: Replica updates ignored because a newer version was applied.
        self.stale_replicas_ignored = 0
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
                metrics=self.metrics,
                store=store,
            )
        elif durable_delivery:
            self.outbox = Outbox(
                name,
                transport=self._transport,
                metrics=self.metrics,
                store=store,
            )
        if triggering == "counting":
            # Build the in-memory predicate index eagerly, so the first
            # publish does not pay for it.
            self.engine.warm()
        if self.outbox is not None:
            self.outbox.recover()

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

    @contextmanager
    def _op(self) -> Iterator[None]:
        """One provider operation, one transaction (docs/DURABILITY.md).

        Every write the operation performs — filter tables, documents,
        subscriptions, versions and, with ``durable_delivery``, the
        outbox rows carrying its notifications — joins one SQLite
        transaction; nested ``transaction()`` blocks join it too.  The
        batches and replicated changes the operation produces are handed
        out only *after* the commit, so a crash at any statement or
        commit boundary leaves either no trace of the operation or all
        of it.  A rolled-back operation also undoes its in-memory
        changes (reserved seqs, replica dedup) from the undo journal,
        so memory agrees with the store again.
        """
        if self._in_op:
            yield
            return
        self._in_op = True
        staged: list[OutboxEntry] = []
        try:
            with self.db.transaction():
                yield
                if self.durable_delivery:
                    staged = [self._stage(batch) for batch in self._batches]
        except BaseException:
            for undo in reversed(self._undo):
                undo()
            raise
        finally:
            self._in_op = False
            self._in_hand = {}
            batches, self._batches = self._batches, []
            replications, self._replications = self._replications, []
            self._undo = []
        self._m_batches_sent.inc(len(batches))
        if self.durable_delivery:
            for entry in staged:
                self.outbox.queue(entry)
            for destination in sorted({entry.destination for entry in staged}):
                self.outbox.flush(destination)
        else:
            for batch in batches:
                self._send(batch)
        for uri, document, version in replications:
            self._replication_hook(uri, document, version)

    def _replicate(
        self, uri: str, document: Document | None, version: tuple[int, str]
    ) -> None:
        """Queue a local change for the replication hook (after commit)."""
        if self._replication_hook is not None:
            self._replications.append((uri, document, version))

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
        with self._op():
            old, owners = self._loader.stored_version(
                document.uri, (str(resource.uri) for resource in document)
            )
            self._check_uri_ownership(owners)
            diff = diff_documents(old, document)
            outcome = self.engine.process_diff(diff)
            self._store_document(document, diff.deleted)
            self._republish_strong_parents(outcome, diff)
            self._publish(outcome)
            self._m_registrations.inc()
            if not _replicated:
                self._replicate(
                    document.uri, document, self._next_version(document.uri)
                )
        return outcome

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
            stored = self._document_table.existing(
                document.uri for document in documents
            )
            for document in documents:
                if document.uri in fresh:
                    # A later version of a document of this very batch
                    # updates the earlier one, as two calls would.
                    _merge_outcomes(
                        merged, self._register_fresh(fresh.values())
                    )
                    stored.update(fresh)
                    fresh = {}
                if document.uri in stored:
                    _merge_outcomes(merged, self.register_document(document))
                else:
                    self.schema.validate_document(document)
                    fresh[document.uri] = document
            if fresh:
                _merge_outcomes(merged, self._register_fresh(fresh.values()))
        return merged

    def _register_fresh(  # mdv: allow(MDV065): runs inside _op()
        self, documents: Collection[Document]
    ) -> PublishOutcome:
        """Register brand-new documents: one filter run, and one
        statement per table to store them and their versions."""
        resources = [resource for document in documents for resource in document]
        self._check_uri_ownership(
            self._resource_table.owners_of(str(r.uri) for r in resources)
        )
        outcome = self.engine.process_insertions(resources)
        self._in_hand.update((resource.uri, resource) for resource in resources)
        self._document_table.upsert_many(
            document.uri for document in documents
        )
        self._resource_table.insert_many(
            (str(resource.uri), resource.rdf_class, document.uri)
            for document in documents
            for resource in document
        )
        self.db.executemany(
            _BUMP_VERSION, ((document.uri, self.name) for document in documents)
        )
        if self._replication_hook is not None:
            for document in documents:
                self._replicate(
                    document.uri, document, self.document_version(document.uri)
                )
        self._publish(outcome)
        return outcome

    def delete_document(  # mdv: allow(MDV065): writes inside its _op()
        self, document_uri: str, _replicated: bool = False
    ) -> PublishOutcome:
        """Remove a document with all its content."""
        old = self._loader.document(document_uri)
        if old is None:
            raise DocumentNotFoundError(document_uri)
        with self._op():
            outcome = self.engine.process_diff(deletion_diff(old))
            # Its ``resources`` rows go with it (ON DELETE CASCADE).
            self._document_table.delete(document_uri)
            self._publish(outcome)
            self._m_deletions.inc()
            if not _replicated:
                self._replicate(
                    document_uri, None, self._next_version(document_uri)
                )
        return outcome

    @staticmethod
    def _check_uri_ownership(owners: dict[str, str]) -> None:
        """A resource URI may not be claimed by two different documents:
        ``owners`` maps the claimed resources other documents own."""
        if owners:
            uri = min(owners)
            raise SchemaValidationError(
                f"resource <{uri}> is already registered by "
                f"document {owners[uri]!r}"
            )

    def _store_document(  # mdv: allow(MDV065): runs inside _op()
        self, document: Document, deleted: list[Resource]
    ) -> None:
        for resource in deleted:
            self._in_hand.pop(resource.uri, None)
        self._in_hand.update((resource.uri, resource) for resource in document)
        self._document_table.upsert(document.uri)
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
        """The current content of a resource, or ``None``.

        Inside an operation the resources of its own documents are the
        objects in hand; everything else is rebuilt from its rows.
        """
        held = self._in_hand.get(URIRef(uri))
        if held is not None:
            return held
        return self._loader.resource(uri)

    def document(self, uri: str) -> Document | None:
        """The stored document ``uri``, rebuilt from its rows (a new
        object on every call), or ``None``."""
        return self._loader.document(uri)

    def document_uris(self) -> list[str]:
        """The URIs of every stored document, sorted."""
        return self._document_table.uris()

    def document_count(self) -> int:
        return self._document_table.count()

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
    ) -> list[Subscription]:
        """Register a subscription rule for ``subscriber``.

        Rules containing ``or`` are split into conjuncts (Section 2.3);
        one subscription per conjunct is registered, all labelled with
        the original rule text.  Current matches are delivered right
        away.  Returns the registered subscriptions.
        """
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
                produced = self.engine.initialize_rules(registration.created)
                subscription = registration.subscription
                subscriptions.append(subscription)
                if registration.end_is_new and not produced:
                    continue  # a new end rule that matched nothing
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
        """Re-run the rules a vocabulary change widened, and notify.

        Vocabulary registered after subscriptions widens stored
        triggering rules (``affected``; every triggering rule when
        ``None``) and with them each join that reads them, directly or
        through other joins: the dependency cone.  The cone's result sets
        are recomputed over the stored metadata, children first, as a new
        subscription's are.  A vocabulary change never narrows a rule, so
        a re-run only adds rows, and a join runs again only when one of
        its inputs gained some; it then reads both inputs whole.  A
        subscription whose end rule gains matches is notified of them,
        as a publish would notify it.
        """
        if self.registry.semantics == "off":
            return
        if affected is None:
            rows = self.db.query_all(
                "SELECT rule_id FROM atomic_rules WHERE kind = 'triggering'"
            )
            affected = [int(row["rule_id"]) for row in rows]
        cone = self.db.query_all(_DEPENDENCY_CONE, (json.dumps(affected),))
        subscribed = self.registry.end_rules_among(
            {int(row["rule_id"]) for row in cone}
        )
        grown: set[int] = set()
        outcome = PublishOutcome()
        for row in cone:
            rule_id = int(row["rule_id"])
            join = row["kind"] == "join"
            if join and not {row["left_rule"], row["right_rule"]} & grown:
                continue
            before = (
                set(self.engine.current_matches(rule_id))
                if rule_id in subscribed
                else set()
            )
            if join:
                added = initialize_join_rule(
                    self.db, rule_id, int(row["left_rule"]),
                    int(row["right_rule"]),
                    load_group(self.db, int(row["group_id"])),
                )
            else:
                added = initialize_triggering_rule(self.db, rule_id)
            if not added:
                continue
            grown.add(rule_id)
            if rule_id in subscribed:
                for uri in set(self.engine.current_matches(rule_id)) - before:
                    outcome.add_matched(rule_id, uri)
        self._publish(outcome)

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
        with self._op():
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
        with self._op():
            # The registry's named-rule memo must not outlive a rollback.
            self._undo.append(self.registry.forget_named_rules)
            registration = self.registry.register_named_rule(
                name, rule_text, decomposed
            )
            self.engine.initialize_rules(registration.created)

    # ------------------------------------------------------------------
    # Browsing (direct MDP queries)
    # ------------------------------------------------------------------
    def browse(self, query_text: str) -> list[Resource]:
        """Evaluate a query at the MDP through the filter's own joins.

        The query runs the subscription pipeline — normalize, decompose
        with named rules as producers, merge into the rule base and
        initialize the new atoms over the stored metadata (§3.4) — and
        reads each conjunct's end rule; the operation then always rolls
        back, so no rule, group or materialized row outlives the call.
        A query equal to a live rule creates no atom and reads that
        rule's materialized matches.
        """
        query = parse_query(query_text)
        conjuncts = normalize_rule(
            query.as_rule(), self.schema, self.registry.named_rule_types()
        )
        named_producers = self.registry.named_producers()
        uris: set[URIRef] = set()
        with suppress(_Discard), self._op():
            for normalized in conjuncts:
                decomposed = decompose_rule(
                    normalized, self.schema, named_producers
                )
                end, __, created = self.registry.ensure_atoms(decomposed)
                self.engine.initialize_rules(created)
                uris.update(self.engine.current_matches(end))
            raise _Discard
        resources = (self.resource(uri) for uri in sorted(uris))
        return [resource for resource in resources if resource is not None]

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
        """Hold a batch of the running :meth:`_op` until it commits."""
        if batch.notifications:
            self._batches.append(batch)

    def _stamp(self, batch: NotificationBatch) -> int:
        """Give ``batch`` its source and its subscriber's next seq."""
        seq = self.outbox.reserve_seq(batch.subscriber)
        batch.source = self.name
        batch.seq = seq
        return seq

    def _stage(self, batch: NotificationBatch) -> OutboxEntry:
        """Stamp a batch and persist its outbox row in the open
        transaction; :meth:`_op` queues it once that commits."""
        seq = self._stamp(batch)
        self._undo.append(
            partial(self.outbox.rewind_seq, batch.subscriber, seq)
        )
        return self.outbox.stage(batch.subscriber, "notifications", batch, seq)

    def _send(self, batch: NotificationBatch) -> None:
        """Hand a committed batch to its subscriber."""
        if self.outbox is not None and (
            batch.subscriber not in self._direct_subscribers
        ):
            # Reliable at-least-once delivery: stamp, queue, attempt.
            # Failures are retried by later flushes; they never abort
            # the publish that produced the batch.
            seq = self._stamp(batch)
            self.outbox.enqueue(batch.subscriber, "notifications", batch, seq)
            self.outbox.flush(batch.subscriber)
            return
        handler = self._direct_subscribers.get(batch.subscriber)
        if handler is not None:
            handler(batch)

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
        """Flush every queued outbox entry (redelivery after a restart).

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
        (row,) = self.db.query_all(
            _BUMP_VERSION + " RETURNING counter, origin",
            (document_uri, self.name),
        )
        return int(row["counter"]), row["origin"]

    def document_version(self, document_uri: str) -> tuple[int, str] | None:
        row = self.db.query_one(
            "SELECT counter, origin FROM doc_versions WHERE document_uri = ?",
            (document_uri,),
        )
        return None if row is None else (int(row["counter"]), row["origin"])

    def version_digest(self) -> dict[str, tuple[int, str]]:
        """Every known document version, tombstones included.

        Peers exchange these digests during anti-entropy
        (:meth:`~repro.mdv.backbone.Backbone.reconcile`) to find
        documents they missed during a partition.
        """
        return {
            row["document_uri"]: (int(row["counter"]), row["origin"])
            for row in self.db.query_all(
                "SELECT document_uri, counter, origin FROM doc_versions"
            )
        }

    def fetch_document(self, document_uri: str):
        """A document's current content and version (anti-entropy pull)."""
        return (
            self._loader.document(document_uri),
            self.document_version(document_uri),
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
                self._undo.append(
                    partial(self.replica_dedup.forget, source, seq)
                )
            if version is not None:
                local = self.document_version(document_uri)
                if local is not None and local >= version:
                    self.stale_replicas_ignored += 1
                    self._m_stale_replicas.inc()
                    return "stale"
                self.db.execute(
                    "INSERT OR REPLACE INTO doc_versions "
                    "(document_uri, counter, origin) VALUES (?, ?, ?)",
                    (document_uri, *version),
                )
            if document is None:
                if self._document_table.exists(document_uri):
                    self.delete_document(document_uri, _replicated=True)
                return "applied"
            self.register_document(document, _replicated=True)
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
