"""The naive post-hoc semantic evaluator — the tier's correctness oracle.

The production path never evaluates semantics at match time: atoms are
expanded once at registration and the syntactic engine does the rest.
This module is the deliberately *unoptimized* alternative: given a
resource's raw statement rows and a subscription's **original,
unexpanded** atom, decide semantically whether the resource matches
under a given degree — walking the vocabulary store per evaluation,
no rewriting, no index.

The differential suites (tests/semantics/) publish workloads through
both and require byte-identical match sets across every seed and
triggering knob.  For that to be a fair check the
oracle must mirror the engine's *comparison* semantics exactly, so it
reuses the canonical helpers: string comparison for ``=``/``!=``,
:func:`repro.text.ngrams.contains_match` for ``contains`` and
:func:`repro.filter.counting.sqlite_cast_real` (SQLite's ``CAST``
replica) for the ordered operators — including for constants pushed
through affine mappings, where the engine stores the mapped constant as
a canonically formatted string.
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.filter.counting import sqlite_cast_real
from repro.rules.atoms import TriggeringAtom
from repro.semantics.store import SEMANTICS_MODES, SemanticStore, format_numeric
from repro.text.ngrams import contains_match

__all__ = ["SemanticOracle"]

_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}
_AFFINE_OPERATORS = ("=", "<", "<=", ">", ">=")


def _compare(operator: str, published: str, constant: str) -> bool:
    """One syntactic predicate, exactly as the triggering joins do it."""
    if operator == "=":
        return published == constant
    if operator == "!=":
        return published != constant
    if operator == "contains":
        return contains_match(published, constant)
    left = sqlite_cast_real(published)
    right = sqlite_cast_real(constant)
    if operator == "<":
        return left < right
    if operator == "<=":
        return left <= right
    if operator == ">":
        return left > right
    if operator == ">=":
        return left >= right
    raise ValueError(f"unknown operator {operator!r}")


class SemanticOracle:
    """Evaluate original atoms semantically, one resource at a time."""

    def __init__(self, store: SemanticStore, mode: str):
        if mode not in SEMANTICS_MODES:
            raise ValueError(
                f"semantics must be one of {SEMANTICS_MODES}, got {mode!r}"
            )
        self.store = store
        self.mode = mode
        self.degree = SEMANTICS_MODES.index(mode)

    def class_matches(self, atom: TriggeringAtom, rdf_class: str) -> bool:
        """Is ``rdf_class`` in the atom's (semantic) class extension?"""
        if rdf_class in atom.extension_classes:
            return True
        if self.degree < 2:
            return False
        return any(
            rdf_class in self.store.descendants(cls)
            for cls in atom.extension_classes
        )

    def matches_resource(
        self,
        atom: TriggeringAtom,
        rdf_class: str,
        rows: Sequence[tuple[str, str]],
    ) -> bool:
        """Does a resource (class + ``(property, value)`` rows) match?"""
        if not self.class_matches(atom, rdf_class):
            return False
        if atom.is_class_only:
            return True
        prop = atom.prop
        operator = atom.operator
        constant = atom.value
        assert prop is not None and operator is not None and constant is not None
        props = {prop}
        if self.degree >= 1:
            props.update(self.store.synonyms_of("property", prop))
        equality_values = self._equality_values(atom)
        for published_prop, published_value in rows:
            if published_prop in props:
                if equality_values is not None:
                    if published_value in equality_values:
                        return True
                elif _compare(operator, published_value, constant):
                    return True
            if self.degree >= 3 and self._mapping_matches(
                atom, props, equality_values, published_prop, published_value
            ):
                return True
        return False

    def _equality_values(self, atom: TriggeringAtom) -> set[str] | None:
        """The accepted constants of an expandable ``=`` atom.

        ``None`` means the atom's comparison is not value-expandable
        (numeric, or not ``=``) and must run as a plain comparison.
        """
        if atom.operator != "=" or atom.numeric or self.degree < 1:
            return None
        assert atom.value is not None
        accepted = {atom.value}
        accepted.update(self.store.synonyms_of("value", atom.value))
        if self.degree >= 2:
            for value in sorted(accepted):
                accepted.update(self.store.descendants(value))
        return accepted

    def _mapping_matches(
        self,
        atom: TriggeringAtom,
        props: set[str],
        equality_values: set[str] | None,
        published_prop: str,
        published_value: str,
    ) -> bool:
        operator = atom.operator
        constant = atom.value
        assert operator is not None and constant is not None
        for target in sorted(props):
            for mapping in self.store.mappings_to(target):
                if mapping.source_property != published_prop:
                    continue
                if mapping.kind == "affine":
                    if operator not in _AFFINE_OPERATORS:
                        continue
                    if not atom.numeric and operator != "=":
                        continue
                    try:
                        parsed = float(constant)
                    except ValueError:
                        continue
                    mapped = (parsed - mapping.offset) / mapping.scale
                    rewritten = operator
                    if mapping.scale < 0:
                        rewritten = _FLIPPED.get(operator, operator)
                    if _compare(
                        rewritten, published_value, format_numeric(mapped)
                    ):
                        return True
                elif mapping.kind == "enum":
                    if atom.numeric or operator != "=":
                        continue
                    targets = (
                        equality_values
                        if equality_values is not None
                        else {constant}
                    )
                    for target_value in sorted(targets):
                        if published_value in self.store.enum_sources(
                            mapping.map_id, target_value
                        ):
                            return True
        return False
