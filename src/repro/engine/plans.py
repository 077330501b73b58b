"""Physical plan trees.

A plan node covers a set of tables; its estimated row count is always
looked up from a cardinality mapping (estimated or true), so the same
tree can be costed under either — which is how P-Error is computed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.engine.catalog import JoinEdge
from repro.engine.predicates import Predicate

SCAN_SEQ = "seq_scan"
SCAN_INDEX = "index_scan"
JOIN_HASH = "hash_join"
JOIN_MERGE = "merge_join"
JOIN_INDEX_NL = "index_nl_join"

JOIN_METHODS = (JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL)

# Codified plan-choice tie-breaking: candidates are totally ordered by
# ``(cost, method_rank, left_mask)``, so equally-cheap plans resolve the
# same way no matter what order they were scored in (Python loop or
# vectorised argmin).  Lower rank wins a cost tie; a smaller left-half
# bitmask breaks method ties across bipartitions.
JOIN_METHOD_RANK = {JOIN_HASH: 0, JOIN_MERGE: 1, JOIN_INDEX_NL: 2}
JOIN_METHOD_BY_RANK = (JOIN_HASH, JOIN_MERGE, JOIN_INDEX_NL)
SCAN_METHOD_RANK = {SCAN_SEQ: 0, SCAN_INDEX: 1}


@dataclass
class PlanNode:
    """Base physical plan node."""

    tables: frozenset[str]

    def walk(self):
        """Yield this node and all descendants, pre-order."""
        yield self
        if isinstance(self, JoinNode):
            yield from self.left.walk()
            yield from self.right.walk()

    def describe(self, cards: dict[frozenset[str], float] | None = None, indent: int = 0) -> str:
        """Human-readable plan rendering (EXPLAIN-style)."""
        raise NotImplementedError


@dataclass
class ScanNode(PlanNode):
    """Base-table access: sequential or index scan with filters."""

    table: str = ""
    predicates: tuple[Predicate, ...] = ()
    method: str = SCAN_SEQ
    index_column: str | None = None

    def describe(self, cards=None, indent: int = 0) -> str:
        pad = "  " * indent
        label = "Seq Scan" if self.method == SCAN_SEQ else f"Index Scan ({self.index_column})"
        rows = ""
        if cards is not None and self.tables in cards:
            rows = f" rows={cards[self.tables]:.0f}"
        filters = ""
        if self.predicates:
            filters = "  [" + " AND ".join(p.to_sql() for p in self.predicates) + "]"
        return f"{pad}{label} on {self.table}{rows}{filters}"


@dataclass
class JoinNode(PlanNode):
    """Binary equi-join of two sub-plans on one join edge.

    ``left`` is the outer/probe side, ``right`` the inner/build side
    (for hash joins the build relation; for index-NL the indexed base
    table).
    """

    left: PlanNode = field(default=None)  # type: ignore[assignment]
    right: PlanNode = field(default=None)  # type: ignore[assignment]
    edge: JoinEdge = field(default=None)  # type: ignore[assignment]
    method: str = JOIN_HASH

    def describe(self, cards=None, indent: int = 0) -> str:
        pad = "  " * indent
        label = {
            JOIN_HASH: "Hash Join",
            JOIN_MERGE: "Merge Join",
            JOIN_INDEX_NL: "Index Nested Loop",
        }[self.method]
        rows = ""
        if cards is not None and self.tables in cards:
            rows = f" rows={cards[self.tables]:.0f}"
        condition = (
            f"{self.edge.left}.{self.edge.left_column}"
            f" = {self.edge.right}.{self.edge.right_column}"
        )
        lines = [f"{pad}{label} on ({condition}){rows}"]
        lines.append(self.left.describe(cards, indent + 1))
        lines.append(self.right.describe(cards, indent + 1))
        return "\n".join(lines)


def join_order_signature(plan: PlanNode) -> tuple:
    """A nested-tuple signature of the join order (ignores methods).

    Used by the Figure-2 case study to compare join orders chosen by
    different estimators.
    """
    if isinstance(plan, ScanNode):
        return (plan.table,)
    assert isinstance(plan, JoinNode)
    return (join_order_signature(plan.left), join_order_signature(plan.right))


def plan_methods(plan: PlanNode) -> list[str]:
    """Physical operator names used in the plan, pre-order."""
    methods = []
    for node in plan.walk():
        if isinstance(node, JoinNode):
            methods.append(node.method)
        else:
            assert isinstance(node, ScanNode)
            methods.append(node.method)
    return methods
