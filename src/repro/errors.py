"""Exception hierarchy for the MDV reproduction.

Every error raised by this library derives from :class:`MDVError` so that
applications can catch library failures with a single ``except`` clause
while still being able to distinguish the individual failure modes.

The hierarchy mirrors the subsystems of the library:

- :class:`SchemaError` and friends — RDF schema definition and validation.
- :class:`ParseError` subclasses — RDF/XML documents and the rule/query
  language.
- :class:`RuleError` subclasses — rule normalization and decomposition.
- :class:`StorageError` — the relational storage engine.
- :class:`SubscriptionError`, :class:`PublishError` — the publish &
  subscribe machinery.
- :class:`RepositoryError` — LMR cache and client-facing operations.
- :class:`NetworkError` subclasses — the simulated network substrate:
  unreachable endpoints and messages lost in transit.  All of them are
  *retryable* from the sender's point of view; the reliable delivery
  layer (:mod:`repro.mdv.outbox`) catches exactly this branch of the
  hierarchy when deciding whether to retry.
"""

from __future__ import annotations

__all__ = [
    "MDVError",
    "SchemaError",
    "UnknownClassError",
    "UnknownPropertyError",
    "SchemaValidationError",
    "ParseError",
    "DocumentParseError",
    "RuleSyntaxError",
    "QuerySyntaxError",
    "RuleError",
    "NormalizationError",
    "DecompositionError",
    "SemanticError",
    "StorageError",
    "CrashError",
    "SubscriptionError",
    "PublishError",
    "RepositoryError",
    "DocumentNotFoundError",
    "DuplicateDocumentError",
    "NetworkError",
    "EndpointDownError",
    "DeliveryError",
    "WireCodecError",
    "FrameError",
    "FrameTooLargeError",
    "RemoteError",
]


class MDVError(Exception):
    """Base class for all errors raised by the MDV library."""


class SchemaError(MDVError):
    """Base class for schema definition and lookup failures."""


class UnknownClassError(SchemaError):
    """A class name was referenced that is not defined in the schema."""

    def __init__(self, class_name: str):
        super().__init__(f"unknown class: {class_name!r}")
        self.class_name = class_name


class UnknownPropertyError(SchemaError):
    """A property was referenced that its class does not define."""

    def __init__(self, class_name: str, property_name: str):
        super().__init__(
            f"class {class_name!r} does not define property {property_name!r}"
        )
        self.class_name = class_name
        self.property_name = property_name


class SchemaValidationError(SchemaError):
    """An RDF document does not conform to the schema it was checked against."""


class ParseError(MDVError):
    """Base class for all parsing failures (documents, rules, queries)."""


class DocumentParseError(ParseError):
    """An RDF/XML document could not be parsed."""


class RuleSyntaxError(ParseError):
    """A subscription rule could not be parsed.

    Carries the character ``position`` at which parsing failed, when known.
    """

    def __init__(self, message: str, position: int | None = None):
        if position is not None:
            message = f"{message} (at position {position})"
        super().__init__(message)
        self.position = position


class QuerySyntaxError(RuleSyntaxError):
    """A metadata query could not be parsed.

    The query language shares its grammar with the rule language, hence
    this error is a refinement of :class:`RuleSyntaxError`.
    """


class RuleError(MDVError):
    """Base class for semantic rule-processing failures."""


class NormalizationError(RuleError):
    """A rule could not be normalized (e.g. a path does not type-check)."""


class DecompositionError(RuleError):
    """A normalized rule could not be decomposed into atomic rules."""


class SemanticError(RuleError):
    """A semantic-tier construct was rejected (repro.semantics).

    ``code`` names the MDV07x diagnostic that triggered the rejection
    (cyclic taxonomy edge, non-invertible mapping, ...), so callers can
    map the failure onto the analysis catalogue.
    """

    def __init__(self, message: str, code: str):
        super().__init__(message)
        self.code = code


class StorageError(MDVError):
    """A failure in the relational storage engine."""


class CrashError(StorageError):
    """An injected process crash (fault injection, never spontaneous).

    Raised by :class:`~repro.storage.engine.Database` when an armed
    :class:`~repro.storage.durability.CrashPlan` fires at a statement or
    commit boundary.  The open transaction is rolled back before the
    raise — exactly what SQLite's journal guarantees for a real process
    death — so everything above the storage layer observes a machine
    that stopped mid-operation with only committed state surviving.

    ``boundary`` names the crash point (``"statement"`` or ``"commit"``)
    and ``ordinal`` its 1-based position in the plan's counting.
    """

    def __init__(self, boundary: str, ordinal: int):
        super().__init__(
            f"injected crash at {boundary} boundary #{ordinal}; "
            f"open transaction discarded"
        )
        self.boundary = boundary
        self.ordinal = ordinal


class SubscriptionError(MDVError):
    """A subscription could not be registered or cancelled."""


class PublishError(MDVError):
    """A failure while publishing notifications to subscribers."""


class RepositoryError(MDVError):
    """A failure in a Local Metadata Repository or MDV client operation."""


class DocumentNotFoundError(RepositoryError):
    """The referenced RDF document is not registered."""

    def __init__(self, document_uri: str):
        super().__init__(f"document not registered: {document_uri!r}")
        self.document_uri = document_uri


class DuplicateDocumentError(RepositoryError):
    """An RDF document with the same URI is already registered.

    Raised only by APIs that explicitly forbid re-registration; the normal
    :meth:`~repro.mdv.provider.MetadataProvider.register_document` path
    treats re-registration as an update (paper, Section 2.2).
    """

    def __init__(self, document_uri: str):
        super().__init__(f"document already registered: {document_uri!r}")
        self.document_uri = document_uri


class NetworkError(MDVError):
    """A failure in the (simulated) network substrate.

    The whole branch is retryable: a sender that sees a
    :class:`NetworkError` learned nothing about whether the receiver
    processed the message, so at-least-once delivery retries it.
    """


class EndpointDownError(NetworkError):
    """The destination endpoint is unknown, crashed, or partitioned away.

    ``endpoint`` names the unreachable destination.
    """

    def __init__(self, endpoint: str, reason: str = "unreachable"):
        super().__init__(f"endpoint {endpoint!r} is {reason}")
        self.endpoint = endpoint
        self.reason = reason


class DeliveryError(NetworkError):
    """A message was lost in transit (dropped or errored by a link)."""


class WireCodecError(MDVError):
    """A payload could not be converted to or from the wire encoding.

    Deliberately *not* a :class:`NetworkError`: an unencodable payload
    (or a corrupt wire form) will not become encodable by retrying, so
    the reliable-delivery layer must treat it as poison, not as a
    transient transport failure.
    """


class FrameError(MDVError):
    """A length-prefixed frame was malformed (bad JSON, bad shape).

    The offending frame's bytes are consumed before this is raised, so
    a server can answer with an error frame and keep reading the same
    connection.  Like :class:`WireCodecError` this is not retryable and
    therefore not a :class:`NetworkError`.
    """


class FrameTooLargeError(FrameError):
    """A frame header declared a length above the protocol maximum.

    Unlike a garbled frame body, an oversized (or garbage) length
    prefix cannot be skipped reliably — the connection has lost frame
    sync and must be closed after the error response.
    """


class RemoteError(MDVError):
    """A request was rejected by the remote endpoint.

    Raised by the socket transport when the peer answered with an error
    frame whose exception type could not be reconstructed locally (or
    reconstructs to a retryable :class:`NetworkError`, which would lie:
    the request *was* processed and rejected).  ``remote_type`` names
    the exception class the remote side raised.
    """

    def __init__(self, remote_type: str, message: str):
        super().__init__(f"{remote_type}: {message}")
        self.remote_type = remote_type
        self.remote_message = message
