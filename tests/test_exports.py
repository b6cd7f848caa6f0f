"""Package-surface tests: every advertised name must resolve."""

import importlib
import importlib.util
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
    assert isinstance(module.__all__, (list, tuple)), module_name
    assert all(isinstance(name, str) for name in module.__all__), module_name
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


def _load_benchmark_adapter():
    """``benchmarks/e2e/adapter.py``, loaded from its file."""
    root = Path(__file__).resolve().parent.parent
    spec = importlib.util.spec_from_file_location(
        "e2e_adapter", root / "benchmarks" / "e2e" / "adapter.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


#: Wrap points whose binding is gone and that the benchmark's next
#: upkeep drops (the RDF/XML writer left the provider).
GONE_WRAP_POINTS = {"rdf.to_rdfxml"}


def test_benchmark_wrap_points_resolve():
    """Every function the benchmark's traced pass wraps still exists: a
    missing one reads null in its per-layer metric, and CI's smoke step
    fails on a null ``end_rule_ids`` call count."""
    adapter = _load_benchmark_adapter()
    missing = sorted(
        span
        for span, target in adapter.WRAP_POINTS.items()
        if span not in GONE_WRAP_POINTS
        and adapter.resolve_wrap_point(target) is None
    )
    assert missing == []
    assert "rules.registry.end_rule_ids" in adapter.WRAP_POINTS
