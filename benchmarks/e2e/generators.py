"""The benchmark's own rule and document generators.

The five Figure-10 rule templates and the Figure-1 document, carried
here instead of importing ``repro.workload`` (which a later change will
rework).  Documents are built with the model's ``Document`` only.

Matching contracts the oracle relies on (``k`` = the rule's ordinal
within its type):

- OID  ``k``: the CycleProvider of document ``k * oid_stride``;
- COMP ``k``: documents with ``synthValue > k``;
- PATH ``k``: documents whose ServerInformation has ``memory = k``;
- JOIN ``k``: the same, plus two predicates every document satisfies;
- CON  ``k``: documents whose host name embeds token ``k`` whole.

Every rule registers the CycleProvider; its ``#info`` resource travels
to the LMR through the strong ``serverInformation`` reference.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from adapter import Document, URIRef

__all__ = [
    "DocParams",
    "Rule",
    "build_document",
    "con_token",
    "document_uri",
    "host_uri",
    "info_uri",
    "query_text",
    "rule_text",
]

HOST_DOMAIN = "uni-passau.de"
JOIN_CPU = 600


@dataclass(frozen=True, order=True)
class Rule:
    """The ``k``-th rule of one Figure-10 type."""

    type: str
    k: int


@dataclass(frozen=True)
class DocParams:
    """Everything that decides which rules a document matches."""

    d: int
    synth: int
    memory: int
    tokens: tuple[int, ...] = ()


def document_uri(d: int) -> str:
    return f"doc{d}.rdf"


def host_uri(d: int) -> str:
    return f"doc{d}.rdf#host"


def info_uri(d: int) -> str:
    return f"doc{d}.rdf#info"


def con_token(k: int) -> str:
    """Eight lowercase letters unique to CON rule ``k``.

    Letters only, so a token never straddles the dots or digits of a
    host name: it is a substring of a host exactly when embedded whole.
    """
    digest = hashlib.md5(f"con{k}".encode()).digest()
    return "".join(chr(97 + byte % 26) for byte in digest[:8])


def rule_text(rule: Rule, oid_stride: int = 1) -> str:
    head = "search CycleProvider c register c where "
    if rule.type == "OID":
        return head + f"c = '{host_uri(rule.k * oid_stride)}'"
    if rule.type == "COMP":
        return head + f"c.synthValue > {rule.k}"
    if rule.type == "PATH":
        return head + f"c.serverInformation.memory = {rule.k}"
    if rule.type == "JOIN":
        return head + (
            f"c.serverHost contains '{HOST_DOMAIN}' "
            f"and c.serverInformation.cpu = {JOIN_CPU} "
            f"and c.serverInformation.memory = {rule.k}"
        )
    if rule.type == "CON":
        return head + f"c.serverHost contains '{con_token(rule.k)}'"
    raise ValueError(f"unknown rule type {rule.type!r}")


def query_text(rule: Rule, oid_stride: int = 1) -> str:
    """The rule as a query (the rule grammar without ``register``)."""
    return rule_text(rule, oid_stride).replace(" register c", "")


def build_document(params: DocParams) -> Document:
    """One Figure-1-shaped document: a CycleProvider and its
    ServerInformation."""
    document = Document(document_uri(params.d))
    host = document.new_resource("host", "CycleProvider")
    embedded = "".join(f"{con_token(k)}." for k in params.tokens)
    host.add("serverHost", f"host{params.d}.{embedded}{HOST_DOMAIN}")
    host.add("serverPort", 5000 + params.d % 1000)
    host.add("synthValue", params.synth)
    host.add("serverInformation", URIRef(info_uri(params.d)))
    info = document.new_resource("info", "ServerInformation")
    info.add("memory", params.memory)
    info.add("cpu", JOIN_CPU)
    return document
