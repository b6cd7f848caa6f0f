"""In-memory view of the global dependency graph (paper, Section 3.3.2).

The authoritative graph lives in the ``atomic_rules`` /
``rule_dependencies`` tables; this module loads it for analysis:
acyclicity checking (the filter's termination argument relies on it),
the longest leaf-to-root path (the paper's bound on filter iterations),
per-group statistics and a Graphviz rendering for debugging.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.storage.engine import Database

__all__ = ["GraphNode", "DependencyGraph"]


@dataclass(frozen=True, slots=True)
class GraphNode:
    """One atomic rule as seen by the graph view."""

    rule_id: int
    kind: str
    rdf_class: str
    group_id: int | None
    refcount: int


@dataclass
class DependencyGraph:
    """The merged dependency trees of all registered rules."""

    nodes: dict[int, GraphNode] = field(default_factory=dict)
    #: ``(source, target, side)`` directed edges: source feeds target.
    edges: list[tuple[int, int, str]] = field(default_factory=list)

    @classmethod
    def load(cls, db: Database) -> "DependencyGraph":
        graph = cls()
        for row in db.query_all(
            "SELECT rule_id, kind, class, group_id, refcount FROM atomic_rules"
        ):
            node = GraphNode(
                int(row["rule_id"]),
                row["kind"],
                row["class"],
                None if row["group_id"] is None else int(row["group_id"]),
                int(row["refcount"]),
            )
            graph.nodes[node.rule_id] = node
        for row in db.query_all(
            "SELECT source_rule, target_rule, side FROM rule_dependencies"
        ):
            graph.edges.append(
                (int(row["source_rule"]), int(row["target_rule"]), row["side"])
            )
        return graph

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def successors(self, rule_id: int) -> list[int]:
        return [target for source, target, __ in self.edges if source == rule_id]

    def predecessors(self, rule_id: int) -> list[int]:
        return [source for source, target, __ in self.edges if target == rule_id]

    def leaves(self) -> list[int]:
        """Triggering rules: nodes with no incoming dependency edges."""
        targets = {target for __, target, __side in self.edges}
        return sorted(set(self.nodes) - targets)

    def roots(self) -> list[int]:
        """End-rule candidates: nodes feeding no other rule."""
        sources = {source for source, __, __side in self.edges}
        return sorted(set(self.nodes) - sources)

    def is_acyclic(self) -> bool:
        """Kahn's algorithm; the decomposition guarantees acyclicity."""
        in_degree = {rule_id: 0 for rule_id in self.nodes}
        for __, target, __side in self.edges:
            in_degree[target] += 1
        frontier = [rule_id for rule_id, deg in in_degree.items() if deg == 0]
        visited = 0
        while frontier:
            current = frontier.pop()
            visited += 1
            for source, target, __side in self.edges:
                if source != current:
                    continue
                in_degree[target] -= 1
                if in_degree[target] == 0:
                    frontier.append(target)
        return visited == len(self.nodes)

    def longest_path_length(self) -> int:
        """The longest leaf-to-root path (max filter iterations, §3.4)."""
        depth: dict[int, int] = {}

        def node_depth(rule_id: int) -> int:
            if rule_id in depth:
                return depth[rule_id]
            inputs = self.predecessors(rule_id)
            value = 0 if not inputs else 1 + max(map(node_depth, inputs))
            depth[rule_id] = value
            return value

        if not self.nodes:
            return 0
        return max(node_depth(rule_id) for rule_id in self.nodes)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, int]:
        triggering = sum(1 for n in self.nodes.values() if n.kind == "triggering")
        joins = len(self.nodes) - triggering
        groups = {
            n.group_id for n in self.nodes.values() if n.group_id is not None
        }
        return {
            "atoms": len(self.nodes),
            "triggering": triggering,
            "joins": joins,
            "groups": len(groups),
            "edges": len(self.edges),
            "max_depth": self.longest_path_length(),
        }
