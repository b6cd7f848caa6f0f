"""The marketplace scenario: vocabulary-divergent publish/subscribe.

The worked example behind docs/SEMANTICS.md.  Sellers list items under
a small e-commerce schema but do not share a vocabulary: some spell the
asking price ``price``, others ``cost``, one publishes ``priceCents``;
categories arrive as ``car``, ``automobile``, ``truck`` or ``pickup``;
one feed grades condition as ``A``/``B``/``C`` instead of
``new``/``used``/``parts``.  Subscribers write their rules in *their*
vocabulary, and each degree of the ``semantics`` knob recovers one
family of the resulting misses:

- ``synonyms`` — ``cost``-spelled listings reach a ``price`` rule,
  ``automobile`` reaches a ``car`` watcher;
- ``taxonomy`` — ``truck`` and ``pickup`` listings reach a ``vehicle``
  watcher (transitively), and the standalone ``Pickup`` class joins the
  ``Vehicle`` extension through a runtime class edge;
- ``mappings`` — ``priceCents`` listings reach a ``price`` bound
  through an affine mapping, graded feeds reach a condition rule
  through an enum mapping.

:data:`MINIMUM_DEGREE` records, for every (subscriber, resource) pair
that ever matches, the smallest degree at which it does — the tests and
the CLI check the live engine against it.  Run it with::

    python -m repro.workload.marketplace --semantics taxonomy
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.mdv.provider import MetadataProvider
from repro.rdf.model import Document
from repro.rdf.schema import PropertyDef, PropertyKind, Schema
from repro.semantics.store import SEMANTICS_MODES

__all__ = [
    "MINIMUM_DEGREE",
    "SUBSCRIPTIONS",
    "expected_matches",
    "listings",
    "main",
    "marketplace_schema",
    "run_marketplace",
    "seed_vocabulary",
]


def marketplace_schema() -> Schema:
    """A small e-commerce schema with deliberate vocabulary overlap.

    ``price``, ``cost`` and ``priceCents`` all mean the asking price;
    ``condition`` and ``grade`` both describe wear.  ``Pickup`` is
    *deliberately* not declared a subclass of ``Vehicle`` — the
    scenario bridges the two with a runtime taxonomy edge instead.
    """
    schema = Schema()
    schema.define_class(
        "Listing",
        [
            PropertyDef("title", PropertyKind.STRING),
            PropertyDef("price", PropertyKind.INTEGER),
            PropertyDef("cost", PropertyKind.INTEGER),
            PropertyDef("priceCents", PropertyKind.INTEGER),
            PropertyDef("category", PropertyKind.STRING),
            PropertyDef("condition", PropertyKind.STRING),
            PropertyDef("grade", PropertyKind.STRING),
        ],
    )
    schema.define_class("Vehicle", superclass="Listing")
    schema.define_class("Truck", superclass="Vehicle")
    schema.define_class("Pickup", superclass="Listing")
    schema.freeze_check()
    return schema


#: The subscribers and the rules they write — each in *their* words.
SUBSCRIPTIONS: tuple[tuple[str, str], ...] = (
    ("bargain-hunter", "search Vehicle v register v where v.price <= 50"),
    (
        "vehicle-watcher",
        "search Listing l register l where l.category = 'vehicle'",
    ),
    ("car-watcher", "search Listing l register l where l.category = 'car'"),
    (
        "condition-new",
        "search Listing l register l where l.condition = 'new'",
    ),
)


def seed_vocabulary(mdp: MetadataProvider) -> None:
    """Register the marketplace vocabulary (all three degrees' worth)."""
    mdp.register_synonyms("property", ["price", "cost"])
    mdp.register_synonyms("value", ["car", "automobile"])
    mdp.register_taxonomy_edge("truck", "vehicle")
    mdp.register_taxonomy_edge("pickup", "truck")
    mdp.register_taxonomy_edge("Pickup", "Vehicle")
    mdp.register_affine_mapping("priceCents", "price", scale=0.01)
    mdp.register_enum_mapping(
        "grade", "condition", [("A", "new"), ("B", "used"), ("C", "parts")]
    )


def listings() -> list[Document]:
    """The seller feed: one listing per vocabulary-divergence family."""
    specs: list[tuple[str, str, dict[str, object]]] = [
        # Spelled exactly as the subscribers expect — matches at "off".
        ("classic", "Vehicle", {"price": 45, "category": "car"}),
        ("van", "Listing", {"category": "vehicle"}),
        # Property and value synonyms.
        ("cost-spelled", "Vehicle", {"cost": 40, "title": "roadster"}),
        ("automobile", "Listing", {"category": "automobile"}),
        # Value taxonomy (one hop, then transitively) and the runtime
        # class edge Pickup -> Vehicle.
        ("truck", "Listing", {"category": "truck"}),
        ("pickup", "Pickup", {"price": 30, "category": "pickup"}),
        # Mapping functions: affine (cents -> whole units) and enum.
        ("cents", "Vehicle", {"priceCents": 4500}),
        ("graded", "Listing", {"grade": "A"}),
        # Never matches anything, at any degree.
        ("expensive", "Vehicle", {"price": 500, "category": "boat"}),
    ]
    documents = []
    for label, rdf_class, properties in specs:
        doc = Document(f"listing-{label}.rdf")
        item = doc.new_resource("item", rdf_class)
        for prop, value in properties.items():
            item.add(prop, value)
        documents.append(doc)
    return documents


#: For every (subscriber, resource URI) pair that ever matches: the
#: smallest semantics degree at which the engine must report it.
MINIMUM_DEGREE: dict[tuple[str, str], int] = {
    ("bargain-hunter", "listing-classic.rdf#item"): 0,
    ("car-watcher", "listing-classic.rdf#item"): 0,
    ("vehicle-watcher", "listing-van.rdf#item"): 0,
    ("bargain-hunter", "listing-cost-spelled.rdf#item"): 1,
    ("car-watcher", "listing-automobile.rdf#item"): 1,
    ("vehicle-watcher", "listing-truck.rdf#item"): 2,
    ("vehicle-watcher", "listing-pickup.rdf#item"): 2,
    ("bargain-hunter", "listing-pickup.rdf#item"): 2,
    ("bargain-hunter", "listing-cents.rdf#item"): 3,
    ("condition-new", "listing-graded.rdf#item"): 3,
}


def expected_matches(semantics: str) -> dict[str, list[str]]:
    """The match sets :data:`MINIMUM_DEGREE` predicts for a degree."""
    degree = SEMANTICS_MODES.index(semantics)
    matches: dict[str, list[str]] = {
        subscriber: [] for subscriber, __ in SUBSCRIPTIONS
    }
    for (subscriber, uri), minimum in sorted(MINIMUM_DEGREE.items()):
        if minimum <= degree:
            matches[subscriber].append(uri)
    return matches


def run_marketplace(
    semantics: str = "off",
    triggering: str = "sql",
) -> dict[str, list[str]]:
    """Run the scenario end to end; returns matches per subscriber."""
    mdp = MetadataProvider(
        marketplace_schema(),
        name="marketplace",
        semantics=semantics,
        triggering=triggering,
    )
    try:
        seed_vocabulary(mdp)
        end_rules: dict[str, list[int]] = {}
        for subscriber, rule_text in SUBSCRIPTIONS:
            subscriptions = mdp.subscribe(subscriber, rule_text)
            end_rules[subscriber] = [s.end_rule for s in subscriptions]
        for doc in listings():
            mdp.register_document(doc)
        return {
            subscriber: sorted(
                str(uri)
                for end_rule in ends
                for uri in mdp.engine.current_matches(end_rule)
            )
            for subscriber, ends in end_rules.items()
        }
    finally:
        mdp.close()


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.marketplace",
        description="Run the vocabulary-divergent marketplace scenario "
        "and check the engine against the expected match sets.",
    )
    parser.add_argument(
        "--semantics", choices=SEMANTICS_MODES, default="taxonomy",
        help="semantic degree to run at (default: taxonomy)",
    )
    parser.add_argument(
        "--triggering", choices=("sql", "counting"), default="sql",
        help="triggering path (default: sql)",
    )
    args = parser.parse_args(argv)
    matches = run_marketplace(args.semantics, args.triggering)
    expected = expected_matches(args.semantics)
    print(json.dumps(
        {"semantics": args.semantics, "matches": matches}, indent=2
    ))
    if matches != expected:
        print(
            f"MISMATCH: expected {json.dumps(expected, indent=2)}",
            file=sys.stderr,
        )
        return 1
    print(f"ok: all match sets as predicted at degree {args.semantics!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
