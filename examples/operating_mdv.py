"""Operating MDV: persistence, batch registration, statistics.

The systems side of the reproduction, beyond the paper's algorithms:

1. a **file-backed** MDP that survives a restart with documents, rules
   and subscriptions intact;
2. **batch registration**, the operating mode the paper's evaluation
   motivates ("to process several documents in one batch"), via
   :meth:`~repro.mdv.provider.MetadataProvider.register_documents`;
3. the statistics snapshot operators monitor.

Run:  python examples/operating_mdv.py
"""

import tempfile
from pathlib import Path

from repro import (
    Document,
    LocalMetadataRepository,
    MetadataProvider,
    URIRef,
    objectglobe_schema,
)
from repro.mdv.stats import collect_statistics
from repro.storage.engine import Database

RULE = (
    "search CycleProvider c register c "
    "where c.serverInformation.memory > 64"
)


def make_doc(index: int, memory: int) -> Document:
    doc = Document(f"doc{index}.rdf")
    provider = doc.new_resource("host", "CycleProvider")
    provider.add("serverHost", f"host{index}.uni-passau.de")
    provider.add("serverInformation", URIRef(f"doc{index}.rdf#info"))
    info = doc.new_resource("info", "ServerInformation")
    info.add("memory", memory)
    info.add("cpu", 600)
    return doc


def main() -> None:
    schema = objectglobe_schema()
    with tempfile.TemporaryDirectory() as tmp:
        db_path = str(Path(tmp) / "mdp.sqlite")

        # --- 1. run a provider, then restart it ------------------------
        mdp = MetadataProvider(schema, db=Database(db_path))
        mdp.connect_subscriber("ops-lmr", lambda batch: None)
        mdp.subscribe("ops-lmr", RULE)
        mdp.register_document(make_doc(0, memory=92))
        mdp.db.commit()
        mdp.db.close()
        print("provider stopped with 1 document on disk")

        mdp = MetadataProvider(schema, db=Database(db_path))
        print(
            "after restart:", mdp.document_count(), "document(s),",
            len(mdp.registry.subscriptions_of("ops-lmr")), "subscription(s)",
        )
        assert mdp.document_count() == 1

        # --- 2. batched imports ----------------------------------------
        lmr = LocalMetadataRepository("ops-lmr", mdp)
        lmr.subscribe(RULE + " and c.serverInformation.cpu > 100")
        documents = [make_doc(i, memory=64 + i * 16) for i in range(1, 8)]
        for start in range(0, len(documents), 4):
            # One filter run per batch of (up to) four documents.
            mdp.register_documents(documents[start:start + 4])
        print(
            f"batched import: {len(documents)} documents in 2 batches, "
            f"{mdp.document_count()} documents total"
        )
        assert mdp.document_count() == 8

        # --- 3. statistics ----------------------------------------------
        print("\n" + collect_statistics(mdp).summary())
        mdp.db.close()

    print("\noperating MDV OK")


if __name__ == "__main__":
    main()
