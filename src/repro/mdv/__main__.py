"""Command-line entry point: ``python -m repro.mdv <command>``.

Commands:

- ``demo`` — run a scripted three-tier scenario and print the system
  statistics and network accounting at the end.
- ``explain "<rule text>"`` — show how a subscription rule is
  normalized and decomposed into atomic rules (uses the ObjectGlobe
  example schema unless ``--schema-class`` pairs are given).
- ``serve --config PATH`` — run one MDV node (MDP or LMR) as a
  long-lived process over real sockets (docs/SERVICE.md); prints an
  ``MDV-SERVE READY`` line with the bound port, drains gracefully on
  SIGTERM, and ``--metrics-dump PATH`` writes the final metrics
  snapshot on exit.
- ``--metrics`` — after any command, dump the metrics registry snapshot
  (counters, gauges, histograms accumulated by the run) as JSON.
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.errors import MDVError
from repro.mdv.provider import MetadataProvider
from repro.mdv.repository import LocalMetadataRepository
from repro.mdv.stats import collect_statistics
from repro.net.bus import NetworkBus
from repro.obs.metrics import default_registry, reset_default_registry
from repro.rdf.model import Document, URIRef
from repro.rdf.schema import objectglobe_schema
from repro.rules.explain import explain_rule

__all__ = ["main"]


def _demo_document(index: int, host: str, memory: int) -> Document:
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", host)
    provider.add("serverPort", 5000 + index)
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return doc


def run_demo() -> int:
    schema = objectglobe_schema()
    bus = NetworkBus()
    mdp = MetadataProvider(schema, name="mdp-1", bus=bus)
    lmr = LocalMetadataRepository("lmr-passau", mdp, bus=bus)

    rule = (
        "search CycleProvider c register c "
        "where c.serverHost contains 'uni-passau.de' "
        "and c.serverInformation.memory > 64"
    )
    print(f"subscribing lmr-passau: {rule}\n")
    lmr.subscribe(rule)

    fleet = [
        ("pirates.uni-passau.de", 92),
        ("db.tum.de", 256),
        ("kat.uni-passau.de", 32),
        ("hal.uni-passau.de", 512),
    ]
    for index, (host, memory) in enumerate(fleet):
        outcome = mdp.register_document(_demo_document(index, host, memory))
        print(f"registered doc{index}.rdf ({host}, {memory}MB): "
              f"{outcome.summary()}")

    print("\ncache after registrations:", lmr.stats())
    print("local query:", [
        str(r.uri) for r in lmr.query("search CycleProvider c")
    ])

    print("\nupgrading kat.uni-passau.de to 1024MB …")
    mdp.register_document(
        _demo_document(2, "kat.uni-passau.de", 1024)
    )
    print("local query:", [
        str(r.uri) for r in lmr.query("search CycleProvider c")
    ])

    print("\n--- provider statistics ---")
    print(collect_statistics(mdp).summary())
    print("\n--- network accounting ---")
    print(bus.stats_summary())
    bus.publish_link_metrics()
    return 0


def run_explain(rule_text: str) -> int:
    schema = objectglobe_schema()
    try:
        print(explain_rule(rule_text, schema))
    except MDVError as exc:  # surface parse/normalize errors readably
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.mdv",
        description="MDV demo, rule-inspection and serve commands.",
    )
    parser.add_argument(
        "--metrics",
        action="store_true",
        help="dump the metrics registry snapshot as JSON after the run",
    )
    subparsers = parser.add_subparsers(dest="command")
    demo_parser = subparsers.add_parser(
        "demo", help="run a scripted 3-tier scenario"
    )
    explain_parser = subparsers.add_parser(
        "explain", help="explain a subscription rule"
    )
    explain_parser.add_argument("rule", help="the rule text (quote it)")
    serve_parser = subparsers.add_parser(
        "serve", help="serve one MDV node over real sockets (SERVICE.md)"
    )
    serve_parser.add_argument(
        "--config", required=True, metavar="PATH",
        help="JSON service config (name, role, port, peers, knobs)",
    )
    serve_parser.add_argument(
        "--metrics-dump", default=None, metavar="PATH",
        help="write the final metrics snapshot here on graceful exit",
    )
    serve_parser.add_argument(
        "--port", type=int, default=None, metavar="N",
        help="override the configured listen port (0 = OS-assigned)",
    )
    for sub in (demo_parser, explain_parser):
        # Accepted before or after the subcommand; SUPPRESS keeps the
        # subparser from overwriting a pre-subcommand --metrics.
        sub.add_argument(
            "--metrics", action="store_true", default=argparse.SUPPRESS
        )
    args = parser.parse_args(argv)
    # Fresh registry per invocation: the run's metrics, nothing else's.
    reset_default_registry()
    if args.command == "demo":
        status = run_demo()
    elif args.command == "explain":
        status = run_explain(args.rule)
    elif args.command == "serve":
        from repro.mdv.daemon import serve_from_args

        status = serve_from_args(
            args.config, metrics_dump=args.metrics_dump, port=args.port
        )
    else:
        parser.error(
            "a command (demo|explain|serve) is required"
        )
        return 2  # pragma: no cover - parser.error raises SystemExit
    if args.metrics:
        print(json.dumps(default_registry().snapshot(), indent=2))
    return status


if __name__ == "__main__":
    sys.exit(main())
