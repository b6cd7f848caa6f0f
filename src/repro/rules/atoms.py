"""Atomic rules: the units the filter algorithm evaluates.

The paper (Section 3.3) distinguishes two kinds of atomic rules:

- a **triggering rule** refers to a single class, needs no results of
  other atomic rules and contains no path expressions — only property
  accesses compared to constants, or no predicate at all;
- a **join rule** represents a join of two extensions with a single join
  predicate and always depends on two other atomic rules.

Atomic rules carry a *canonical key* — a deterministic textual rendering
used for deduplication: "There are no duplicates, i.e., no rules having
the same rule text but different rule_ids" (Section 3.3.4).  Join rules
additionally carry a *group signature* that ignores which concrete input
rules feed them; join rules sharing a signature form a **rule group**
(Section 3.3.3) and are evaluated together.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from typing import Union

__all__ = ["TriggeringAtom", "JoinAtom", "AtomNode", "make_join", "iter_atoms"]


@dataclass(frozen=True, slots=True)
class TriggeringAtom:
    """A triggering rule.

    ``prop``/``operator``/``value`` are all ``None`` for class-only rules
    (``search C x register x`` with no where part).  ``extension_classes``
    lists every class whose instances belong to the rule's extension —
    the class itself plus its subclasses; the registry writes one index
    row per extension class so subclass instances match (rdfs:subClassOf
    semantics).
    """

    rdf_class: str
    extension_classes: tuple[str, ...]
    prop: str | None = None
    operator: str | None = None
    value: str | None = None
    numeric: bool = False
    #: Canonical rule text (deduplication key), computed once.
    key: str = field(init=False, repr=False, compare=False)

    kind = "triggering"

    def __post_init__(self) -> None:
        has_predicate = self.prop is not None
        if has_predicate != (self.operator is not None) or has_predicate != (
            self.value is not None
        ):
            raise ValueError(
                "triggering atoms have either a full predicate or none"
            )
        if has_predicate:
            tag = "#" if self.numeric else "$"
            key = (
                f"T[{self.rdf_class}|{self.prop} {self.operator} "
                f"{tag}{self.value}]"
            )
        else:
            key = f"T[{self.rdf_class}]"
        object.__setattr__(self, "key", key)

    @property
    def is_class_only(self) -> bool:
        return self.prop is None

    def __str__(self) -> str:
        if self.is_class_only:
            return f"search {self.rdf_class} x register x"
        return (
            f"search {self.rdf_class} x register x "
            f"where x.{self.prop} {self.operator} {self.value}"
        )


@dataclass(frozen=True, slots=True)
class JoinAtom:
    """A join rule over two input atomic rules.

    The join predicate relates the *left* and *right* inputs through
    optional property accesses: ``l.left_prop op r.right_prop`` where a
    ``None`` property denotes the resource itself (its URI reference).
    ``register_side`` says which input's resources the rule registers.

    ``self_join`` marks the degenerate case where both sides refer to the
    same resource (a predicate such as ``c.a = c.b``): evaluation then
    constrains the two property accesses to one subject.
    """

    left: "AtomNode"
    right: "AtomNode"
    left_class: str
    right_class: str
    left_prop: str | None
    right_prop: str | None
    operator: str
    register_side: str
    numeric: bool = False
    self_join: bool = False
    #: Canonical rule text: the group signature plus the input keys,
    #: computed once.
    key: str = field(init=False, repr=False, compare=False)

    kind = "join"

    def __post_init__(self) -> None:
        if self.register_side not in ("left", "right"):
            raise ValueError(f"bad register side {self.register_side!r}")
        object.__setattr__(
            self,
            "key",
            f"J[{self.left.key}|{self.right.key}|{self.group_signature}]",
        )

    @property
    def rdf_class(self) -> str:
        """The class of the resources this rule registers (its *type*)."""
        return self.left_class if self.register_side == "left" else self.right_class

    @property
    def is_identity(self) -> bool:
        return self.left_prop is None and self.right_prop is None

    @property
    def group_signature(self) -> str:
        """Rule-group key: equal where part and equal variable classes.

        Deliberately excludes the input rules — that is the whole point
        of rule groups (paper, Section 3.3.3: rules C1 and C2 share the
        group although their inputs differ).
        """
        left = f"{self.left_class}.{self.left_prop or '*'}"
        right = f"{self.right_class}.{self.right_prop or '*'}"
        flags = ("n" if self.numeric else "") + ("s" if self.self_join else "")
        return f"G[{left} {self.operator} {right}|reg={self.register_side}|{flags}]"

    def __str__(self) -> str:
        left = "l" if self.left_prop is None else f"l.{self.left_prop}"
        right = "r" if self.right_prop is None else f"r.{self.right_prop}"
        out = "l" if self.register_side == "left" else "r"
        return (
            f"search ({self.left}) l, ({self.right}) r register {out} "
            f"where {left} {self.operator} {right}"
        )


AtomNode = Union[TriggeringAtom, JoinAtom]


def make_join(
    left: AtomNode,
    left_class: str,
    left_prop: str | None,
    operator: str,
    right: AtomNode,
    right_class: str,
    right_prop: str | None,
    register_side: str,
    numeric: bool = False,
    self_join: bool = False,
) -> JoinAtom:
    """Build a join atom in canonical orientation.

    Orientation rule: when exactly one side accesses a property, that
    side goes left; when the orientation is ambiguous, sides are ordered
    by ``(class, property, input key)``.  Swapping mirrors the operator
    and the register side.  Canonical orientation maximizes rule-group
    sharing: ``c.serverInformation = s`` and ``s = c.serverInformation``
    land in the same group.
    """
    from repro.rules.ast import flip_operator

    def swap() -> JoinAtom:
        return JoinAtom(
            left=right,
            right=left,
            left_class=right_class,
            right_class=left_class,
            left_prop=right_prop,
            right_prop=left_prop,
            operator=flip_operator(operator),
            register_side="left" if register_side == "right" else "right",
            numeric=numeric,
            self_join=self_join,
        )

    def keep() -> JoinAtom:
        return JoinAtom(
            left=left,
            right=right,
            left_class=left_class,
            right_class=right_class,
            left_prop=left_prop,
            right_prop=right_prop,
            operator=operator,
            register_side=register_side,
            numeric=numeric,
            self_join=self_join,
        )

    left_has_prop = left_prop is not None
    right_has_prop = right_prop is not None
    if left_has_prop and not right_has_prop:
        return keep()
    if right_has_prop and not left_has_prop:
        return swap()
    left_order = (left_class, left_prop or "", left.key)
    right_order = (right_class, right_prop or "", right.key)
    return keep() if left_order <= right_order else swap()


def iter_atoms(root: AtomNode) -> Iterator[AtomNode]:
    """Yield every atom of a decomposition tree, children before parents.

    Each distinct atom (by key) is yielded once even when shared within
    the tree.
    """
    seen: set[str] = set()

    def walk(node: AtomNode) -> Iterator[AtomNode]:
        if node.key in seen:
            return
        if isinstance(node, JoinAtom):
            yield from walk(node.left)
            yield from walk(node.right)
        if node.key not in seen:
            seen.add(node.key)
            yield node

    yield from walk(root)
