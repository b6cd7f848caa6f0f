"""Strong-reference closure computation (paper, Section 2.4).

MDV introduces *strong* and *weak* references to solve the dangling
reference problem: following every reference could transmit the whole
database, following none leaves dangling references.  Resources
referenced through strong properties are always transmitted with the
referencing resource; weak references are never followed.

:func:`strong_closure` computes the transitive closure over strong
reference properties, cycle-safe (strong cycles are legal schema-wise;
the closure just stops when it revisits a resource).
"""

from __future__ import annotations

from collections.abc import Callable

from repro.rdf.model import Resource, URIRef
from repro.rdf.schema import Schema

__all__ = ["strong_closure", "strong_targets"]

#: Resolves a URI reference to the resource's current content, or None
#: when the reference dangles (target unknown or deleted).
ResourceLookup = Callable[[URIRef], Resource | None]


def strong_targets(resource: Resource, schema: Schema) -> list[URIRef]:
    """The URI references this resource strongly references (direct)."""
    if not schema.has_class(resource.rdf_class):
        return []
    strong_props = schema.strong_reference_names(resource.rdf_class)
    if not strong_props:
        return []
    return [
        target
        for name, target in resource.references()
        if name in strong_props
    ]


def strong_closure(
    resource: Resource, schema: Schema, lookup: ResourceLookup
) -> list[Resource]:
    """All resources transitively reachable over strong references.

    The starting resource itself is *not* included.  Dangling strong
    references (lookup returns ``None``) are skipped — the receiving
    side's garbage collector deals with missing children.  Traversal
    order is breadth-first and deterministic.
    """
    closure: list[Resource] = []
    seen: set[URIRef] = {resource.uri}
    frontier: list[URIRef] = strong_targets(resource, schema)
    while frontier:
        target = frontier.pop(0)
        if target in seen:
            continue
        seen.add(target)
        content = lookup(target)
        if content is None:
            continue
        closure.append(content)
        frontier.extend(strong_targets(content, schema))
    return closure
