"""Registration-time semantic expansion of triggering atoms (S-ToPSS).

The central design decision of the tier: semantics are paid for **when a
rule is registered, not when a document is published**.  A subscription
atom is rewritten into the set of purely syntactic variants the active
degree licenses, and every variant lands as an ordinary row in the
existing triggering index tables (marked ``semantic = 1``).  Both
triggering paths — the paper's SQL joins and the counting matcher —
already give several index rows of one rule OR semantics (any matching
row fires the rule, each path deduplicates hits per rule), so the
hot publish path is byte-identical in mechanism and pays zero extra
cost beyond the larger index.

Soundness restrictions (why not every operator gets every degree):

- **Property synonyms** apply to every operator: the predicate is
  unchanged, only the path spelling varies.
- **Value synonyms and taxonomy descendants** apply to non-numeric
  ``=`` atoms only.  An ``!=`` expansion over a synonym pair would be
  an always-true disjunction (``x != a OR x != b``); ordered operators
  have no defined semantics over unordered vocabularies.
- **Affine mappings** apply to ordering atoms (the ``numeric`` flag)
  and to ``=`` atoms whose constant parses as a number.  The subscribed
  constant is pushed through the *inverse* (``(value - offset) /
  scale``) and the comparison flips direction under negative scale;
  equality variants compare the canonically formatted mapped constant
  as a string, exactly like the base row.  ``!=`` is excluded (same
  always-true hazard), ``contains`` is not numeric.
- **Enum mappings** apply to non-numeric ``=`` atoms: every source
  value the mapping sends to the subscribed constant (or one of its
  synonym/taxonomy equivalents) becomes a variant.

Equality constants produced by affine mappings are rendered with
:func:`repro.semantics.store.format_numeric` — equality triggering
compares strings, so ``=`` variants must spell values exactly as a
publisher serializes them.

Instruments (in the caller's registry): per-degree variant counters
``semantics.rewrites.synonyms|taxonomy|mappings``,
``semantics.mapping.applications`` and the ``semantics.rewrite_ms``
histogram; the registry adds the fan-out pair ``semantics.rules_in`` /
``semantics.atoms_out`` at insert time.
"""

from __future__ import annotations

import time
from collections.abc import Callable
from dataclasses import dataclass

from repro.obs.metrics import MetricsRegistry, default_registry
from repro.rules.atoms import TriggeringAtom
from repro.semantics.store import SEMANTICS_MODES, SemanticStore, format_numeric

__all__ = ["SemanticExpansion", "SemanticRewriter", "VariantRow"]

#: Comparison direction flips when an affine mapping's scale is
#: negative: ``price <= 10`` with ``price = -2 * discount + 20``
#: becomes ``discount >= 5``.
_FLIPPED = {"<": ">", "<=": ">=", ">": "<", ">=": "<="}

#: Operators an affine mapping may rewrite.  ``!=`` would OR two
#: inequalities (always true), ``contains`` is not numeric.
_AFFINE_OPERATORS = ("=", "<", "<=", ">", ">=")

#: Signature of the variant collector threaded through the expanders.
_AddVariant = Callable[["VariantRow", int], None]


@dataclass(frozen=True, slots=True)
class VariantRow:
    """One semantic variant of a predicate atom (one index row set)."""

    operator: str
    prop: str
    value: str
    numeric: bool


@dataclass(frozen=True, slots=True)
class SemanticExpansion:
    """Everything the registry must add for one atom beyond its base rows.

    ``extra_classes`` are taxonomy-licensed extension classes the base
    atom does not already cover; ``variants`` are the predicate variants
    (base predicate excluded).  The full semantic row set is
    ``(base classes ∪ extra_classes) × ({base} ∪ variants)`` minus the
    base rows.
    """

    extra_classes: tuple[str, ...]
    variants: tuple[VariantRow, ...]

    @property
    def is_empty(self) -> bool:
        return not self.extra_classes and not self.variants


class SemanticRewriter:
    """Expand triggering atoms under a fixed ``semantics=`` degree."""

    def __init__(
        self,
        store: SemanticStore,
        mode: str,
        metrics: MetricsRegistry | None = None,
    ):
        if mode not in SEMANTICS_MODES:
            raise ValueError(
                f"semantics must be one of {SEMANTICS_MODES}, got {mode!r}"
            )
        self.store = store
        self.mode = mode
        self.degree = SEMANTICS_MODES.index(mode)
        registry = metrics if metrics is not None else default_registry()
        self._m_synonyms = registry.counter("semantics.rewrites.synonyms")
        self._m_taxonomy = registry.counter("semantics.rewrites.taxonomy")
        self._m_mappings = registry.counter("semantics.rewrites.mappings")
        self._m_applied = registry.counter("semantics.mapping.applications")
        self._m_rewrite_ms = registry.histogram("semantics.rewrite_ms")

    def expand(self, atom: TriggeringAtom) -> SemanticExpansion:
        """The semantic expansion of one atom under the active degree."""
        started = time.perf_counter()
        extra_classes = self._expand_classes(atom)
        variants = self._expand_predicate(atom)
        self._m_rewrite_ms.observe((time.perf_counter() - started) * 1000.0)
        return SemanticExpansion(
            extra_classes=extra_classes, variants=variants
        )

    def _expand_classes(self, atom: TriggeringAtom) -> tuple[str, ...]:
        """Taxonomy descendants of the atom's extension classes."""
        if self.degree < 2:
            return ()
        base = set(atom.extension_classes)
        extra: set[str] = set()
        for cls in atom.extension_classes:
            extra.update(self.store.descendants(cls))
        found = tuple(sorted(extra - base))
        if found:
            self._m_taxonomy.inc(len(found))
        return found

    def _expand_predicate(self, atom: TriggeringAtom) -> tuple[VariantRow, ...]:
        if atom.is_class_only or self.degree < 1:
            return ()
        prop = atom.prop
        operator = atom.operator
        value = atom.value
        assert prop is not None and operator is not None and value is not None
        variants: dict[VariantRow, None] = {}

        def add(row: VariantRow, degree_counter: int) -> None:
            if row.prop == prop and row.operator == operator and (
                row.value == value
            ):
                return  # the base predicate, never a semantic row
            if row not in variants:
                variants[row] = None
                if degree_counter == 1:
                    self._m_synonyms.inc()
                elif degree_counter == 2:
                    self._m_taxonomy.inc()
                else:
                    self._m_mappings.inc()

        prop_synonyms = self.store.synonyms_of("property", prop)
        props = (prop, *prop_synonyms)
        for alias in prop_synonyms:
            add(VariantRow(operator, alias, value, atom.numeric), 1)

        value_synonyms: tuple[str, ...] = ()
        taxonomy_values: tuple[str, ...] = ()
        if operator == "=" and not atom.numeric:
            value_synonyms = self.store.synonyms_of("value", value)
            for p in props:
                for alias in value_synonyms:
                    add(VariantRow("=", p, alias, False), 1)
            if self.degree >= 2:
                seen = {value, *value_synonyms}
                narrower: set[str] = set()
                for v in sorted(seen):
                    narrower.update(self.store.descendants(v))
                taxonomy_values = tuple(sorted(narrower - seen))
                for p in props:
                    for descendant in taxonomy_values:
                        add(VariantRow("=", p, descendant, False), 2)

        if self.degree >= 3:
            self._expand_mappings(
                atom, props, value_synonyms, taxonomy_values, add
            )
        return tuple(variants)

    def _expand_mappings(
        self,
        atom: TriggeringAtom,
        props: tuple[str, ...],
        value_synonyms: tuple[str, ...],
        taxonomy_values: tuple[str, ...],
        add: _AddVariant,
    ) -> None:
        operator = atom.operator
        value = atom.value
        assert operator is not None and value is not None
        for target in props:
            for mapping in self.store.mappings_to(target):
                if mapping.kind == "affine":
                    if operator not in _AFFINE_OPERATORS:
                        continue
                    if not atom.numeric and operator != "=":
                        continue
                    try:
                        constant = float(value)
                    except ValueError:
                        continue
                    mapped = (constant - mapping.offset) / mapping.scale
                    rewritten = operator
                    if mapping.scale < 0:
                        rewritten = _FLIPPED.get(operator, operator)
                    self._m_applied.inc()
                    add(
                        VariantRow(
                            rewritten,
                            mapping.source_property,
                            format_numeric(mapped),
                            atom.numeric,
                        ),
                        3,
                    )
                elif mapping.kind == "enum":
                    if atom.numeric or operator != "=":
                        continue
                    targets = {value, *value_synonyms, *taxonomy_values}
                    for target_value in sorted(targets):
                        for source_value in self.store.enum_sources(
                            mapping.map_id, target_value
                        ):
                            self._m_applied.inc()
                            add(
                                VariantRow(
                                    "=",
                                    mapping.source_property,
                                    source_value,
                                    False,
                                ),
                                3,
                            )
