"""Property tests: decomposition persists and reloads losslessly.

The registry stores every atom of a decomposed rule relationally
(trigger-index rows, join rows, dependency edges).  Reconstructing the
atom tree from those tables (:meth:`RuleRegistry.load_atom`) must yield
the same canonical key as the in-memory decomposition — otherwise
deduplication (matching new rules against stored ones by key) would
silently diverge from the stored semantics.  Rule initialization
additionally relies on children-first persistence order, and the
counting matcher on the mutation counter moving with every index change.
"""

from __future__ import annotations

from hypothesis import given, strategies as st

from repro.rdf.schema import objectglobe_schema
from repro.rules.decompose import decompose_rule
from repro.rules.normalize import normalize_rule
from repro.rules.parser import parse_rule
from repro.rules.registry import RuleRegistry
from repro.storage.engine import Database
from repro.storage.schema import create_all
from tests.conftest import prop_settings

SCHEMA = objectglobe_schema()

string_constants = st.sampled_from(["passau", "tum", "de", "uni", "org"])
int_constants = st.integers(min_value=0, max_value=1000)
comparison_ops = st.sampled_from(["<", "<=", ">", ">=", "=", "!="])


@st.composite
def predicates(draw):
    kind = draw(
        st.sampled_from(
            ["host_contains", "host_eq", "synth_cmp", "memory_path", "cpu_path"]
        )
    )
    if kind == "host_contains":
        return f"c.serverHost contains '{draw(string_constants)}'"
    if kind == "host_eq":
        op = draw(st.sampled_from(["=", "!="]))
        return f"c.serverHost {op} '{draw(string_constants)}'"
    if kind == "synth_cmp":
        return f"c.synthValue {draw(comparison_ops)} {draw(int_constants)}"
    if kind == "memory_path":
        return (
            f"c.serverInformation.memory {draw(comparison_ops)} "
            f"{draw(int_constants)}"
        )
    return (
        f"c.serverInformation.cpu {draw(comparison_ops)} {draw(int_constants)}"
    )


@st.composite
def rule_texts(draw):
    parts = draw(st.lists(predicates(), min_size=1, max_size=4))
    return "search CycleProvider c register c where " + " and ".join(parts)


def _decompose(text: str):
    return decompose_rule(normalize_rule(parse_rule(text), SCHEMA)[0], SCHEMA)


@prop_settings(50)
@given(text=rule_texts())
def test_atoms_are_listed_children_first(text):
    decomposed = _decompose(text)
    seen: set[str] = set()
    for atom in decomposed.atoms:
        if atom.kind == "join":
            assert atom.left.key in seen, "left child after parent"
            assert atom.right.key in seen, "right child after parent"
        seen.add(atom.key)
    assert decomposed.end.key in seen


@prop_settings(50)
@given(text=rule_texts())
def test_persisted_atoms_reload_to_equal_keys(text):
    decomposed = _decompose(text)
    db = Database()
    create_all(db)
    try:
        registry = RuleRegistry(db)
        end_id, all_ids, __ = registry.ensure_atoms(decomposed)

        # Reload through a *fresh* registry so nothing comes from the
        # in-memory node cache — only from the tables.
        fresh = RuleRegistry(db)
        assert fresh.load_atom(end_id).key == decomposed.end.key
        stored_keys = {fresh.load_atom(rule_id).key for rule_id in all_ids}
        assert stored_keys == {atom.key for atom in decomposed.atoms}
    finally:
        db.close()


@prop_settings(30)
@given(text=rule_texts())
def test_registration_bumps_mutation_version(text):
    """New trigger-index rows must move the version the counting
    matcher keys its refresh on."""
    db = Database()
    create_all(db)
    try:
        registry = RuleRegistry(db)
        before = registry.mutation_version
        registry.ensure_atoms(_decompose(text))
        assert registry.mutation_version > before
    finally:
        db.close()
