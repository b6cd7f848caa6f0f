"""RDF Schema support: class/property definitions and validation.

MDV uses RDF Schema to define the schema its RDF metadata must conform to
(paper, Section 2) and augments it with vocabulary for declaring *strong*
and *weak* references (Section 2.4):

- a **strong** reference means the referenced resource is always
  transmitted together with the referencing resource;
- a **weak** reference is never followed when transmitting.

The decision is made by the schema designer, which is why reference
strength lives here and not on individual documents.

The schema is also what makes rule normalization possible: resolving a
path expression such as ``c.serverInformation.memory`` requires knowing
that ``serverInformation`` on ``CycleProvider`` references a
``ServerInformation`` resource.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass, field
from enum import Enum

from repro.errors import (
    SchemaError,
    SchemaValidationError,
    UnknownClassError,
    UnknownPropertyError,
)
from repro.rdf.model import Document, Literal, Resource, URIRef

__all__ = [
    "PropertyKind",
    "RefStrength",
    "PropertyDef",
    "ClassDef",
    "Schema",
]


class PropertyKind(Enum):
    """The value type of a schema property."""

    STRING = "string"
    INTEGER = "integer"
    FLOAT = "float"
    REFERENCE = "reference"


class RefStrength(Enum):
    """Reference strength for :attr:`PropertyKind.REFERENCE` properties.

    See paper Section 2.4; the strength decides whether the referenced
    resource travels with the referencing one when it is published.
    """

    STRONG = "strong"
    WEAK = "weak"


@dataclass(frozen=True, slots=True)
class PropertyDef:
    """Definition of a property on a schema class.

    ``target_class`` and ``strength`` are only meaningful for reference
    properties; ``multivalued`` marks set-valued properties, the ones the
    rule language's ``?`` (any) operator applies to.
    """

    name: str
    kind: PropertyKind
    target_class: str | None = None
    strength: RefStrength = RefStrength.WEAK
    multivalued: bool = False
    required: bool = False

    def __post_init__(self) -> None:
        if self.kind is PropertyKind.REFERENCE and not self.target_class:
            raise SchemaError(
                f"reference property {self.name!r} needs a target class"
            )
        if self.kind is not PropertyKind.REFERENCE and self.target_class:
            raise SchemaError(
                f"non-reference property {self.name!r} must not declare a "
                f"target class"
            )

    @property
    def is_reference(self) -> bool:
        return self.kind is PropertyKind.REFERENCE

    @property
    def is_strong(self) -> bool:
        return self.is_reference and self.strength is RefStrength.STRONG

    @property
    def is_numeric(self) -> bool:
        return self.kind in (PropertyKind.INTEGER, PropertyKind.FLOAT)


@dataclass
class ClassDef:
    """Definition of a schema class with its properties.

    ``superclass`` implements ``rdfs:subClassOf``: instances of a subclass
    are members of every superclass extension, which matters for rule
    matching (a rule over the superclass also matches subclass instances).
    """

    name: str
    properties: dict[str, PropertyDef] = field(default_factory=dict)
    superclass: str | None = None

    def add(self, prop: PropertyDef) -> None:
        if prop.name in self.properties:
            raise SchemaError(
                f"class {self.name!r} already defines property {prop.name!r}"
            )
        self.properties[prop.name] = prop


class Schema:
    """A complete MDV schema: a set of class definitions.

    The schema offers the lookups the rest of the library relies on:

    - :meth:`property_def` — resolve a property on a class, walking the
      superclass chain;
    - :meth:`resolve_path` — type a rule path expression;
    - :meth:`subclasses_of` / :meth:`extension_classes` — the classes whose
      instances belong to a class extension;
    - :meth:`validate_document` — check a document before registration;
    - :meth:`strong_reference_properties` — drive the strong-ref closure.
    """

    def __init__(self, classes: Iterable[ClassDef] = ()):
        self._classes: dict[str, ClassDef] = {}
        #: class → names of its strong reference properties, filled on
        #: demand by :meth:`strong_reference_names`.
        self._strong_names: dict[str, frozenset[str]] = {}
        for class_def in classes:
            self.add_class(class_def)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_class(self, class_def: ClassDef) -> ClassDef:
        """Register a class definition (names must be unique)."""
        if class_def.name in self._classes:
            raise SchemaError(f"class {class_def.name!r} already defined")
        self._classes[class_def.name] = class_def
        self._strong_names.clear()
        return class_def

    def define_class(
        self,
        name: str,
        properties: Iterable[PropertyDef] = (),
        superclass: str | None = None,
    ) -> ClassDef:
        """Convenience wrapper: build and register a :class:`ClassDef`."""
        class_def = ClassDef(name, superclass=superclass)
        for prop in properties:
            class_def.add(prop)
        return self.add_class(class_def)

    def freeze_check(self) -> None:
        """Verify referential integrity of the whole schema.

        Checks that every superclass and every reference target is itself
        a defined class and that the superclass graph is acyclic.  Call
        this once after the schema is fully built.
        """
        for class_def in self._classes.values():
            if class_def.superclass and class_def.superclass not in self._classes:
                raise UnknownClassError(class_def.superclass)
            for prop in class_def.properties.values():
                if prop.is_reference and prop.target_class not in self._classes:
                    raise UnknownClassError(str(prop.target_class))
        for name in self._classes:
            seen = set()
            current: str | None = name
            while current is not None:
                if current in seen:
                    raise SchemaError(
                        f"superclass cycle involving class {name!r}"
                    )
                seen.add(current)
                current = self._classes[current].superclass

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------
    def class_names(self) -> list[str]:
        return list(self._classes)

    def has_class(self, name: str) -> bool:
        return name in self._classes

    def class_def(self, name: str) -> ClassDef:
        try:
            return self._classes[name]
        except KeyError:
            raise UnknownClassError(name) from None

    def superclass_chain(self, name: str) -> Iterator[str]:
        """Yield ``name`` and then each (transitive) superclass."""
        current: str | None = name
        while current is not None:
            yield current
            current = self.class_def(current).superclass

    def subclasses_of(self, name: str) -> list[str]:
        """All classes whose instances belong to ``name``'s extension.

        Includes ``name`` itself and every direct or transitive subclass.
        """
        self.class_def(name)  # raise early on unknown classes
        return [
            candidate
            for candidate in self._classes
            if name in self.superclass_chain(candidate)
        ]

    # Kept as an alias that reads well at rule-compilation call sites.
    extension_classes = subclasses_of

    def property_def(self, class_name: str, property_name: str) -> PropertyDef:
        """Resolve ``property_name`` on ``class_name`` (superclasses too)."""
        for ancestor in self.superclass_chain(class_name):
            prop = self._classes[ancestor].properties.get(property_name)
            if prop is not None:
                return prop
        raise UnknownPropertyError(class_name, property_name)

    def has_property(self, class_name: str, property_name: str) -> bool:
        try:
            self.property_def(class_name, property_name)
        except UnknownPropertyError:
            return False
        return True

    def resolve_path(self, class_name: str, path: Iterable[str]) -> PropertyDef:
        """Type-check a path expression starting at ``class_name``.

        Every step except the last must be a reference property; the
        definition of the final step is returned.  This is the lookup
        rule normalization uses to split ``c.serverInformation.memory``
        into single-property accesses with fresh variables.
        """
        steps = list(path)
        if not steps:
            raise SchemaError("empty property path")
        current_class = class_name
        prop: PropertyDef | None = None
        for index, step in enumerate(steps):
            prop = self.property_def(current_class, step)
            is_last = index == len(steps) - 1
            if not is_last:
                if not prop.is_reference:
                    raise SchemaError(
                        f"path step {step!r} on class {current_class!r} is "
                        f"not a reference property"
                    )
                current_class = str(prop.target_class)
        assert prop is not None
        return prop

    def path_classes(self, class_name: str, path: Iterable[str]) -> list[str]:
        """The class at each step of a path (the *target* of each step).

        For a terminal literal step the literal kind has no class; the
        list therefore has one entry per reference step.
        """
        classes: list[str] = []
        current_class = class_name
        for step in path:
            prop = self.property_def(current_class, step)
            if prop.is_reference:
                current_class = str(prop.target_class)
                classes.append(current_class)
        return classes

    def strong_reference_properties(self, class_name: str) -> list[PropertyDef]:
        """All strong reference properties visible on ``class_name``."""
        result: dict[str, PropertyDef] = {}
        for ancestor in reversed(list(self.superclass_chain(class_name))):
            for prop in self._classes[ancestor].properties.values():
                if prop.is_strong:
                    result[prop.name] = prop
        return list(result.values())

    def strong_reference_names(self, class_name: str) -> frozenset[str]:
        """The names of :meth:`strong_reference_properties`, memoised.

        The strong-reference closure asks once per resource it visits;
        the answer only changes when a class is added.  (Properties
        are declared before their class is registered — a
        :meth:`ClassDef.add` afterwards is not seen here.)
        """
        names = self._strong_names.get(class_name)
        if names is None:
            names = self._strong_names[class_name] = frozenset(
                prop.name
                for prop in self.strong_reference_properties(class_name)
            )
        return names

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate_resource(self, resource: Resource) -> None:
        """Check a single resource against its class definition."""
        if not self.has_class(resource.rdf_class):
            raise SchemaValidationError(
                f"resource <{resource.uri}> has undefined class "
                f"{resource.rdf_class!r}"
            )
        for name in resource.property_names():
            try:
                prop = self.property_def(resource.rdf_class, name)
            except UnknownPropertyError as exc:
                raise SchemaValidationError(str(exc)) from None
            values = resource.get(name)
            if len(values) > 1 and not prop.multivalued:
                raise SchemaValidationError(
                    f"property {name!r} of <{resource.uri}> is single-valued "
                    f"but has {len(values)} values"
                )
            for value in values:
                self._validate_value(resource, prop, value)
        for ancestor in self.superclass_chain(resource.rdf_class):
            for prop in self._classes[ancestor].properties.values():
                if prop.required and not resource.get(prop.name):
                    raise SchemaValidationError(
                        f"required property {prop.name!r} missing on "
                        f"<{resource.uri}>"
                    )

    def _validate_value(
        self, resource: Resource, prop: PropertyDef, value: Literal | URIRef
    ) -> None:
        if prop.is_reference:
            if not isinstance(value, URIRef):
                raise SchemaValidationError(
                    f"property {prop.name!r} of <{resource.uri}> must be a "
                    f"resource reference"
                )
            return
        if isinstance(value, URIRef):
            raise SchemaValidationError(
                f"property {prop.name!r} of <{resource.uri}> must be a "
                f"literal, not a reference"
            )
        if prop.kind is PropertyKind.INTEGER and not isinstance(value.value, int):
            raise SchemaValidationError(
                f"property {prop.name!r} of <{resource.uri}> must be an "
                f"integer, got {value.value!r}"
            )
        if prop.kind is PropertyKind.FLOAT and not isinstance(
            value.value, (int, float)
        ):
            raise SchemaValidationError(
                f"property {prop.name!r} of <{resource.uri}> must be a "
                f"number, got {value.value!r}"
            )
        if prop.kind is PropertyKind.STRING and not isinstance(value.value, str):
            raise SchemaValidationError(
                f"property {prop.name!r} of <{resource.uri}> must be a "
                f"string, got {value.value!r}"
            )

    def validate_document(self, document: Document) -> None:
        """Check every resource of a document.

        References *within* the document must point at resources of the
        declared target class; references leaving the document cannot be
        checked locally and are accepted (RDF does not distinguish nested
        from referenced resources — paper, Section 2.1).
        """
        for resource in document:
            self.validate_resource(resource)
        for resource in document:
            for name, target in resource.references():
                prop = self.property_def(resource.rdf_class, name)
                local_target = document.get(target)
                if local_target is None:
                    continue
                expected = str(prop.target_class)
                if expected not in self.superclass_chain(local_target.rdf_class):
                    raise SchemaValidationError(
                        f"reference {name!r} of <{resource.uri}> points at "
                        f"<{target}> of class {local_target.rdf_class!r}, "
                        f"expected {expected!r}"
                    )


def objectglobe_schema() -> Schema:
    """The example schema used throughout the paper (Figures 1 and 10).

    Defines ``CycleProvider`` and ``ServerInformation`` with the
    properties exercised by the paper's examples and benchmarks.  The
    ``serverInformation`` reference is *strong* so the referenced
    ``ServerInformation`` travels with its provider (Section 2.4 uses
    exactly this pair to motivate strong references).
    """
    schema = Schema()
    schema.define_class(
        "ServerInformation",
        [
            PropertyDef("memory", PropertyKind.INTEGER),
            PropertyDef("cpu", PropertyKind.INTEGER),
        ],
    )
    schema.define_class(
        "CycleProvider",
        [
            PropertyDef("serverHost", PropertyKind.STRING),
            PropertyDef("serverPort", PropertyKind.INTEGER),
            PropertyDef(
                "serverInformation",
                PropertyKind.REFERENCE,
                target_class="ServerInformation",
                strength=RefStrength.STRONG,
            ),
            PropertyDef("synthValue", PropertyKind.INTEGER),
        ],
    )
    schema.freeze_check()
    return schema


__all__.append("objectglobe_schema")
