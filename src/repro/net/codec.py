"""The wire codec: every cross-tier payload as tagged, canonical JSON.

The simulated bus passes Python objects by reference; the socket
transport (:mod:`repro.net.socket`) has to serialize them.  Both must
agree on *one* encoding so that

- the two transports carry byte-identical information (the sim-vs-
  socket differential oracle compares the streams), and
- byte accounting agrees: :meth:`repro.net.bus.Message.approximate_size`
  measures :func:`wire_size` — the serialized JSON length — on the
  simulated bus, which is exactly what the socket transport puts on the
  wire.

Scalars (``None``, ``bool``, ``int``, ``float``, ``str``) pass through
as themselves.  Everything else becomes a JSON object carrying a
``"_t"`` tag: containers (``tuple`` — JSON has no tuple, and document
versions are compared as tuples — ``list``, ``dict``, ``set``) and the
domain types that cross tier boundaries (URI references, literals,
resources, documents, notifications, subscriptions, replica updates,
publish outcomes).  Unknown types raise
:class:`~repro.errors.WireCodecError` — the caller may fall back to a
size estimate, but never to pickling: frames cross process boundaries.

Only leaf modules are imported at module scope; the domain types are
resolved lazily on first use because this module sits *below*
:mod:`repro.net.bus` in the import graph while the payload types sit
far above it.
"""

from __future__ import annotations

import json
from typing import Any

from repro.errors import WireCodecError
from repro.rdf.model import Document, Literal, Resource, URIRef

__all__ = ["to_wire", "from_wire", "wire_size", "dumps", "loads", "serialize"]

#: The tag key marking an encoded non-scalar value.
TAG = "_t"

_DOMAIN: dict[str, Any] | None = None


def _domain() -> dict[str, Any]:
    """The lazily imported payload types, keyed by wire tag."""
    global _DOMAIN
    if _DOMAIN is None:
        from repro.filter.results import FilterRunResult, PublishOutcome
        from repro.mdv.outbox import ReplicaUpdate
        from repro.pubsub.notifications import (
            DeleteNotification,
            MatchNotification,
            NotificationBatch,
            ResourcePayload,
            UnmatchNotification,
        )
        from repro.rules.registry import Subscription

        _DOMAIN = {
            "run": FilterRunResult,
            "outcome": PublishOutcome,
            "replica": ReplicaUpdate,
            "del": DeleteNotification,
            "match": MatchNotification,
            "batch": NotificationBatch,
            "payload": ResourcePayload,
            "unmatch": UnmatchNotification,
            "sub": Subscription,
        }
    return _DOMAIN


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def to_wire(value: Any) -> Any:
    """Convert a payload into JSON-serializable wire form."""
    if isinstance(value, URIRef):
        return {TAG: "uri", "v": str(value)}
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, Literal):
        return {TAG: "lit", "v": value.value}
    if isinstance(value, tuple):
        return {TAG: "tup", "v": [to_wire(item) for item in value]}
    if isinstance(value, list):
        return [to_wire(item) for item in value]
    if isinstance(value, (set, frozenset)):
        # Canonical order: sets have none, the wire must (byte-identical
        # streams and sizes across runs and transports).
        encoded = [to_wire(item) for item in value]
        return {TAG: "set", "v": sorted(encoded, key=_canonical_key)}
    if isinstance(value, dict):
        return _encode_dict(value)
    if isinstance(value, Resource):
        return {
            TAG: "res",
            "uri": str(value.uri),
            "cls": value.rdf_class,
            "props": [
                [name, to_wire(item)]
                for name in value.property_names()
                for item in value.get(name)
            ],
        }
    if isinstance(value, Document):
        return {
            TAG: "doc",
            "uri": value.uri,
            "resources": [to_wire(resource) for resource in value],
        }
    return _encode_domain(value)


def _canonical_key(encoded: Any) -> str:
    return json.dumps(encoded, sort_keys=True, separators=(",", ":"))


def _encode_dict(value: dict) -> Any:
    if all(
        isinstance(key, str) and not isinstance(key, URIRef)
        for key in value
    ) and TAG not in value:
        return {key: to_wire(item) for key, item in value.items()}
    # Non-string (or URIRef, or tag-colliding) keys: keep the exact key
    # types through an explicit pair list.
    return {
        TAG: "map",
        "v": [[to_wire(key), to_wire(item)] for key, item in value.items()],
    }


def _encode_domain(value: Any) -> dict:
    domain = _domain()
    if isinstance(value, domain["payload"]):
        return {
            TAG: "payload",
            "r": to_wire(value.resource),
            "sc": [to_wire(item) for item in value.strong_closure],
        }
    if isinstance(value, domain["match"]):
        return {
            TAG: "match",
            "sub": value.sub_id,
            "rule": value.rule_text,
            "p": to_wire(value.payload),
        }
    if isinstance(value, domain["unmatch"]):
        return {
            TAG: "unmatch",
            "sub": value.sub_id,
            "rule": value.rule_text,
            "uri": str(value.uri),
        }
    if isinstance(value, domain["del"]):
        return {TAG: "del", "uri": str(value.uri)}
    if isinstance(value, domain["batch"]):
        return {
            TAG: "batch",
            "to": value.subscriber,
            "n": [to_wire(item) for item in value.notifications],
            "src": value.source,
            "seq": value.seq,
        }
    if isinstance(value, domain["sub"]):
        return {
            TAG: "sub",
            "id": value.sub_id,
            "to": value.subscriber,
            "rule": value.rule_text,
            "end": value.end_rule,
        }
    if isinstance(value, domain["replica"]):
        return {
            TAG: "replica",
            "uri": value.document_uri,
            "doc": to_wire(value.document),
            "ver": to_wire(value.version),
            "src": value.source,
            "seq": value.seq,
        }
    if isinstance(value, domain["outcome"]):
        return {
            TAG: "outcome",
            "matched": to_wire(value.matched),
            "unmatched": to_wire(value.unmatched),
            "deleted": to_wire(value.deleted),
            "passes": [to_wire(item) for item in value.passes],
        }
    if isinstance(value, domain["run"]):
        # The wall-clock fields stay behind: their decimal length varies
        # from run to run, and wire bytes must repeat for a seed.
        return {
            TAG: "run",
            "pairs": to_wire(value.pairs),
            "it": value.iterations,
            "hits": value.triggering_hits,
        }
    raise WireCodecError(
        f"cannot encode {type(value).__name__!r} for the wire"
    )


# ----------------------------------------------------------------------
# Decoding
# ----------------------------------------------------------------------
def from_wire(value: Any) -> Any:
    """Reconstruct a payload from its wire form."""
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        return [from_wire(item) for item in value]
    if not isinstance(value, dict):
        raise WireCodecError(
            f"unexpected wire value of type {type(value).__name__!r}"
        )
    tag = value.get(TAG)
    if tag is None:
        return {key: from_wire(item) for key, item in value.items()}
    try:
        return _decode_tagged(tag, value)
    except WireCodecError:
        raise
    except Exception as exc:
        raise WireCodecError(
            f"malformed wire value tagged {tag!r}: {exc}"
        ) from exc


def _decode_tagged(tag: str, value: dict) -> Any:
    if tag == "uri":
        return URIRef(value["v"])
    if tag == "lit":
        return Literal(value["v"])
    if tag == "tup":
        return tuple(from_wire(item) for item in value["v"])
    if tag == "set":
        return {from_wire(item) for item in value["v"]}
    if tag == "map":
        return {
            from_wire(key): from_wire(item) for key, item in value["v"]
        }
    if tag == "res":
        return Resource(
            URIRef(value["uri"]),
            value["cls"],
            [(name, from_wire(item)) for name, item in value["props"]],
        )
    if tag == "doc":
        document = Document(value["uri"])
        for encoded in value["resources"]:
            document.add(from_wire(encoded))
        return document
    domain = _domain()
    if tag == "payload":
        return domain["payload"](
            resource=from_wire(value["r"]),
            strong_closure=[from_wire(item) for item in value["sc"]],
        )
    if tag == "match":
        return domain["match"](
            sub_id=value["sub"],
            rule_text=value["rule"],
            payload=from_wire(value["p"]),
        )
    if tag == "unmatch":
        return domain["unmatch"](
            sub_id=value["sub"],
            rule_text=value["rule"],
            uri=URIRef(value["uri"]),
        )
    if tag == "del":
        return domain["del"](uri=URIRef(value["uri"]))
    if tag == "batch":
        return domain["batch"](
            subscriber=value["to"],
            notifications=[from_wire(item) for item in value["n"]],
            source=value["src"],
            seq=value["seq"],
        )
    if tag == "sub":
        return domain["sub"](
            sub_id=value["id"],
            subscriber=value["to"],
            rule_text=value["rule"],
            end_rule=value["end"],
        )
    if tag == "replica":
        return domain["replica"](
            document_uri=value["uri"],
            document=from_wire(value["doc"]),
            version=from_wire(value["ver"]),
            source=value["src"],
            seq=value["seq"],
        )
    if tag == "outcome":
        return domain["outcome"](
            matched=from_wire(value["matched"]),
            unmatched=from_wire(value["unmatched"]),
            deleted=from_wire(value["deleted"]),
            passes=[from_wire(item) for item in value["passes"]],
        )
    if tag == "run":
        return domain["run"](
            pairs=from_wire(value["pairs"]),
            iterations=value["it"],
            triggering_hits=value["hits"],
        )
    raise WireCodecError(f"unknown wire tag {tag!r}")


# ----------------------------------------------------------------------
# Serialized form
# ----------------------------------------------------------------------
def dumps(value: Any) -> bytes:
    """Wire-encode and serialize a payload to canonical JSON bytes."""
    return serialize(to_wire(value))


def serialize(wire: Any) -> bytes:
    """Serialize a value already in wire form to canonical JSON bytes:
    sorted keys, compact separators, ASCII only."""
    try:
        return json.dumps(
            wire, separators=(",", ":"), sort_keys=True
        ).encode("utf-8")
    except (TypeError, ValueError) as exc:
        raise WireCodecError(f"payload is not JSON-serializable: {exc}") from exc


def loads(data: bytes | str) -> Any:
    """Parse canonical JSON bytes and decode the payload."""
    try:
        parsed = json.loads(data)
    except ValueError as exc:
        raise WireCodecError(f"invalid wire JSON: {exc}") from exc
    return from_wire(parsed)


def wire_size(value: Any) -> int:
    """The payload's serialized size in bytes — the cost both transports
    charge to ``net.bytes``."""
    return len(dumps(value))
