"""Package-surface tests: every advertised name must resolve."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGES = [
    "repro",
    "repro.rdf",
    "repro.storage",
    "repro.rules",
    "repro.filter",
    "repro.query",
    "repro.pubsub",
    "repro.net",
    "repro.obs",
    "repro.mdv",
    "repro.analysis",
    "repro.text",
    "repro.workload",
    "repro.bench",
]


def _every_module() -> list[str]:
    """All importable module names under the ``repro`` package."""
    import repro

    names = ["repro"]
    for info in pkgutil.walk_packages(repro.__path__, prefix="repro."):
        names.append(info.name)
    return sorted(names)


@pytest.mark.parametrize("module_name", _every_module())
def test_every_module_declares_all(module_name):
    module = importlib.import_module(module_name)
    assert hasattr(module, "__all__"), f"{module_name} lacks __all__"
    for name in module.__all__:
        assert hasattr(module, name), f"{module_name}.{name} does not resolve"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_all_names_resolve(package_name):
    package = importlib.import_module(package_name)
    assert hasattr(package, "__all__"), package_name
    for name in package.__all__:
        assert hasattr(package, name), f"{package_name}.{name}"


@pytest.mark.parametrize("package_name", PACKAGES)
def test_package_has_docstring(package_name):
    package = importlib.import_module(package_name)
    assert package.__doc__, package_name


def test_version_exposed():
    import repro

    assert repro.__version__ == "1.0.0"


MODULES_WITH_DOCSTRINGS = [
    "repro.errors",
    "repro.rdf.model",
    "repro.rdf.schema",
    "repro.rdf.schema_io",
    "repro.rdf.parser",
    "repro.rdf.serializer",
    "repro.rdf.diff",
    "repro.storage.engine",
    "repro.storage.schema",
    "repro.storage.tables",
    "repro.rules.tokens",
    "repro.rules.parser",
    "repro.rules.ast",
    "repro.rules.normalize",
    "repro.rules.decompose",
    "repro.rules.atoms",
    "repro.rules.graph",
    "repro.rules.registry",
    "repro.rules.explain",
    "repro.filter.decompose",
    "repro.filter.matcher",
    "repro.filter.joins",
    "repro.filter.engine",
    "repro.filter.results",
    "repro.pubsub.notifications",
    "repro.pubsub.closure",
    "repro.pubsub.publisher",
    "repro.net.bus",
    "repro.analysis.diagnostics",
    "repro.analysis.intervals",
    "repro.analysis.lint",
    "repro.analysis.subsume",
    "repro.analysis.invariants",
    "repro.analysis.code",
    "repro.mdv.provider",
    "repro.mdv.repository",
    "repro.mdv.cache",
    "repro.mdv.gc",
    "repro.mdv.client",
    "repro.mdv.backbone",
    "repro.mdv.stats",
    "repro.text.ngrams",
    "repro.workload.documents",
    "repro.workload.rules",
    "repro.workload.scenarios",
    "repro.workload.registry",
    "repro.bench.harness",
    "repro.bench.figures",
    "repro.bench.ablations",
    "repro.bench.reporting",
]


@pytest.mark.parametrize("module_name", MODULES_WITH_DOCSTRINGS)
def test_every_module_documented(module_name):
    module = importlib.import_module(module_name)
    assert module.__doc__ and len(module.__doc__) > 40, module_name


def test_tiers_do_not_import_the_analyzer():
    """Only ``python -m repro.analysis`` and the oracles load the analyzer."""
    root = Path(__file__).resolve().parent.parent
    probe = (
        "import sys, repro, repro.mdv.provider; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[:2] == ['repro', 'analysis']))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert completed.stdout.strip() == "[]"


def test_a_served_node_loads_no_network_mail_or_tls_stack():
    """A daemon serves over its own sockets and writes RDF/XML with
    :func:`repro.rdf.serializer.escape_xml`; ``xml.sax.saxutils`` would
    load ``urllib.request`` and with it these modules, several MB of
    RSS in every node."""
    root = Path(__file__).resolve().parent.parent
    heavy = ["email", "hashlib", "http.client", "ssl", "urllib.request"]
    probe = (
        "import sys, repro.mdv.daemon; "
        f"print(sorted(m for m in {heavy!r} if m in sys.modules))"
    )
    completed = subprocess.run(
        [sys.executable, "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(root / "src")),
        capture_output=True,
        text=True,
        timeout=60,
        check=True,
    )
    assert completed.stdout.strip() == "[]"
