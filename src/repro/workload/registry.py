"""Bulk synthetic rule registries for audits and benchmarks.

The rule-base audit (:mod:`repro.analysis.rulebase`) is only interesting
against registries far larger than any bundled scenario builds.  This
module mass-registers Figure-10 rule bases — through the *real*
parse/normalize/decompose/register pipeline, so every triggering index,
rule group and canonical-hash row is exactly what live
subscriptions would have produced — and exposes the same thing as a CLI
for CI jobs::

    python -m repro.workload.registry --db /tmp/audit.db \
        --count 40000 --mix fig13

Mixes name rule-type blends, not absolute counts:

- ``fig13`` — half COMP, half CON: the two rule families of the paper's
  Figure 13, the workload the index advisor's ``contains``
  heuristic is aimed at;
- ``uniform`` — all five Figure-10 types in equal parts;
- ``comp`` — a pure COMP base: consecutive ``synthValue`` thresholds
  form one long covering chain, the worst case for the subsumption
  index.

``equivalent_fraction`` re-spells that fraction of the COMP rules into
a semantically equivalent form (a float-spelled threshold plus a
redundant bound), seeding the equivalence classes the canonicalizer and
the registry ``dedupe`` knob exist to find.
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.filter.engine import FilterEngine
from repro.rdf.schema import PropertyDef, PropertyKind, Schema, objectglobe_schema
from repro.semantics.store import SEMANTICS_MODES
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from repro.workload.rules import (
    comp_rule,
    con_rule,
    join_rule,
    oid_rule,
    path_rule,
)

__all__ = [
    "MIXES",
    "build_registry",
    "equivalent_comp_rule",
    "mix_rule_texts",
    "main",
    "semantic_schema",
]

#: Rule-type blends: ``(rule type, weight)`` pairs; weights sum to 1.
MIXES: dict[str, tuple[tuple[str, float], ...]] = {
    "fig13": (("COMP", 0.5), ("CON", 0.5)),
    "uniform": (
        ("OID", 0.2),
        ("COMP", 0.2),
        ("PATH", 0.2),
        ("JOIN", 0.2),
        ("CON", 0.2),
    ),
    "comp": (("COMP", 1.0),),
}

_GENERATORS = {
    "OID": oid_rule,
    "COMP": comp_rule,
    "PATH": path_rule,
    "JOIN": join_rule,
    "CON": con_rule,
}


def equivalent_comp_rule(index: int) -> str:
    """A COMP rule semantically equivalent to :func:`comp_rule` (index).

    The threshold is spelled as a float and a vacuous lower bound is
    appended; canonicalization normalizes the spelling and drops the
    implied bound, so this rule lands in the same equivalence class as
    the plainly spelled one — different atoms, same canonical hash.
    """
    return (
        f"search CycleProvider c register c "
        f"where c.synthValue > {index}.0 and c.synthValue > -1"
    )


def semantic_schema() -> Schema:
    """The ObjectGlobe schema plus the divergent spellings.

    ``synthMeasure`` is an alternative spelling of ``synthValue`` (the
    property-synonym workload) and ``synthMilli`` its thousandths
    (the affine-mapping workload).  Normalization validates every rule
    path against the schema, so divergent *rules* need the alias
    declared even though only the vocabulary relates the two.
    """
    schema = objectglobe_schema()
    provider = schema.class_def("CycleProvider")
    provider.add(PropertyDef("synthMeasure", PropertyKind.INTEGER))
    provider.add(PropertyDef("synthMilli", PropertyKind.INTEGER))
    return schema


def mix_rule_texts(
    count: int, mix: str = "fig13", equivalent_fraction: float = 0.0
) -> list[str]:
    """``count`` rule texts blended per ``mix`` (deterministic order).

    ``equivalent_fraction`` of the COMP rules are emitted in the
    re-spelled equivalent form *in addition to* their plain spelling
    replacing other COMP slots, so the total stays ``count`` while that
    fraction of COMP thresholds appears twice (once per spelling).
    """
    try:
        blend = MIXES[mix]
    except KeyError:
        raise ValueError(
            f"unknown mix {mix!r}; expected one of {sorted(MIXES)}"
        ) from None
    if not 0.0 <= equivalent_fraction <= 1.0:
        raise ValueError(
            f"equivalent_fraction must be within [0, 1], "
            f"got {equivalent_fraction}"
        )
    texts: list[str] = []
    remaining = count
    for position, (rule_type, weight) in enumerate(blend):
        slots = (
            remaining
            if position == len(blend) - 1
            else min(remaining, round(count * weight))
        )
        remaining -= slots
        generator = _GENERATORS[rule_type]
        if rule_type == "COMP" and equivalent_fraction > 0.0:
            stride = max(2, round(1.0 / equivalent_fraction))
            for index in range(slots):
                if index % stride == 1:
                    # Re-spell the *previous* threshold: both spellings
                    # of threshold index-1 are registered, forming one
                    # two-member equivalence class per stride.
                    texts.append(equivalent_comp_rule(index - 1))
                else:
                    texts.append(generator(index))
        else:
            texts.extend(generator(index) for index in range(slots))
    return texts


def build_registry(
    db: Database,
    count: int,
    mix: str = "fig13",
    equivalent_fraction: float = 0.0,
    schema: Schema | None = None,
    dedupe: str = "off",
    subscribers: int = 1,
    semantics: str = "off",
) -> RuleRegistry:
    """Mass-register a ``mix`` rule base of ``count`` rules into ``db``.

    Every rule runs through the full registration pipeline (including
    filter-engine rule initialization), inside one transaction.
    ``subscribers`` spreads the subscriptions over that many distinct
    subscriber names round-robin.

    With ``semantics`` enabled the COMP slice of the mix becomes
    vocabulary-divergent: every third COMP rule is spelled over the
    ``synthMeasure`` alias, the ``{synthValue, synthMeasure}`` synonym
    set unifies the spellings (doubling those rules' triggering rows)
    and — at the ``mappings`` degree — an affine ``synthMilli``
    mapping adds a third row per comparison.  The resulting registries
    exercise the index advisor's fan-out heuristic (``MDV075``) at
    realistic scale.
    """
    if semantics not in SEMANTICS_MODES:
        raise ValueError(
            f"semantics must be one of {SEMANTICS_MODES}, got {semantics!r}"
        )
    if schema is None:
        schema = semantic_schema() if semantics != "off" else (
            objectglobe_schema()
        )
    create_all(db)
    registry = RuleRegistry(
        db, deduplicate=True, dedupe=dedupe, semantics=semantics
    )
    if semantics != "off":
        # Vocabulary first: expansion happens at registration, which is
        # far cheaper than re-expanding the whole base afterwards.
        registry.register_synonyms(
            "property", ["synthValue", "synthMeasure"]
        )
        if SEMANTICS_MODES.index(semantics) >= 3:
            registry.register_affine_mapping(
                "synthMilli", "synthValue", scale=0.001
            )
    engine = FilterEngine(db, registry, True, "scan")
    texts = mix_rule_texts(count, mix, equivalent_fraction)
    with db.transaction():
        for index, text in enumerate(texts):
            if semantics != "off" and index % 3 == 1:
                # The divergent spelling: same thresholds, the alias
                # property — only the synonym set relates the two.
                text = text.replace("c.synthValue", "c.synthMeasure")
            normalized = normalize_rule(parse_rule(text), schema)[0]
            decomposed = decompose_rule(normalized, schema)
            registration = registry.register_subscription(
                f"bulk-{index % subscribers}", text, decomposed
            )
            engine.initialize_rules(registration.created)
    db.execute("ANALYZE")
    db.commit()
    return registry


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.workload.registry",
        description="Mass-register a synthetic Figure-10 rule base into "
        "an MDP database (for rule-base audits and benchmarks).",
    )
    parser.add_argument(
        "--db", required=True, help="path of the SQLite database to build"
    )
    parser.add_argument(
        "--count", type=int, default=10_000, help="number of rules"
    )
    parser.add_argument(
        "--mix", choices=sorted(MIXES), default="fig13",
        help="rule-type blend (default: fig13)",
    )
    parser.add_argument(
        "--equivalent-fraction", type=float, default=0.0, metavar="F",
        help="fraction of COMP rules re-spelled into an equivalent form",
    )
    parser.add_argument(
        "--dedupe", choices=("off", "report", "merge"), default="off",
        help="registry dedupe knob during the build (default: off)",
    )
    parser.add_argument(
        "--subscribers", type=int, default=1,
        help="spread subscriptions over this many subscriber names",
    )
    parser.add_argument(
        "--semantics", choices=SEMANTICS_MODES, default="off",
        help="semantic degree: makes the COMP slice vocabulary-"
        "divergent and expands it through the synonym/mapping "
        "vocabulary (default: off)",
    )
    args = parser.parse_args(argv)
    if args.count <= 0:
        print("error: --count must be positive", file=sys.stderr)
        return 2
    started = time.perf_counter()
    db = Database(args.db)
    try:
        build_registry(
            db,
            args.count,
            mix=args.mix,
            equivalent_fraction=args.equivalent_fraction,
            dedupe=args.dedupe,
            subscribers=args.subscribers,
            semantics=args.semantics,
        )
    finally:
        db.close()
    elapsed = time.perf_counter() - started
    print(
        f"registered {args.count} {args.mix} rules into {args.db} "
        f"in {elapsed:.1f}s"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
