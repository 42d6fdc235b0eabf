"""Semantic analysis of SELECT statements against a relational schema.

Resolves FROM-item aliases to relations, classifies WHERE conjuncts into
**join conditions** (column = column across two bindings) and **filters**
(column vs literal/parameter), and determines which join conditions are
key/foreign-key joins — the only kind the Synergy system materializes.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SqlError
from repro.relational.schema import ForeignKey, Schema
from repro.sql.ast import (
    BinOp,
    ColumnRef,
    DerivedTable,
    Select,
    TableRef,
)


@dataclass(frozen=True)
class JoinCondition:
    """An equi (or theta) column-column conjunct across two FROM bindings."""

    op: str
    left_binding: str
    left_relation: str | None  # None when the binding is a derived table
    left_attr: str
    right_binding: str
    right_relation: str | None
    right_attr: str

    @property
    def is_equi(self) -> bool:
        return self.op == "="

    def involves(self, binding: str) -> bool:
        return binding in (self.left_binding, self.right_binding)

    def attr_pair_for(
        self, relation_a: str, relation_b: str
    ) -> tuple[str, str] | None:
        """Return (attr of a, attr of b) if this condition joins a with b."""
        if self.left_relation == relation_a and self.right_relation == relation_b:
            return (self.left_attr, self.right_attr)
        if self.left_relation == relation_b and self.right_relation == relation_a:
            return (self.right_attr, self.left_attr)
        return None


@dataclass(frozen=True)
class FilterCondition:
    """A single-binding conjunct: ``binding.attr op (literal | ?)``."""

    op: str
    binding: str
    relation: str | None
    attr: str
    value: object  # Literal value or the Param node


@dataclass
class AnalyzedSelect:
    """Result of :func:`analyze_select`."""

    select: Select
    bindings: dict[str, str | None] = field(default_factory=dict)
    """binding name -> relation name (None for derived tables)."""

    joins: list[JoinCondition] = field(default_factory=list)
    filters: list[FilterCondition] = field(default_factory=list)

    def relations(self) -> tuple[str, ...]:
        """Distinct base relations bound in the top-level FROM clause."""
        return tuple(
            dict.fromkeys(r for r in self.bindings.values() if r is not None)
        )

    def equi_joins(self) -> list[JoinCondition]:
        return [j for j in self.joins if j.is_equi]

    def is_equi_join_query(self) -> bool:
        """True when the query has at least one equi-join condition."""
        return any(j.is_equi for j in self.joins)

    def filters_on(self, binding: str) -> list[FilterCondition]:
        return [f for f in self.filters if f.binding == binding]


def _resolve_column(
    col: ColumnRef,
    bindings: dict[str, str | None],
    schema: Schema | None,
) -> tuple[str, str | None]:
    """Resolve to (binding, relation name). Unqualified columns are matched
    against the bound relations' attribute sets (must be unambiguous)."""
    if col.qualifier is not None:
        if col.qualifier not in bindings:
            raise SqlError(f"unknown table alias {col.qualifier!r} in {col}")
        return col.qualifier, bindings[col.qualifier]
    if schema is None:
        raise SqlError(f"cannot resolve unqualified column {col.name!r} without schema")
    owners = [
        (b, rel)
        for b, rel in bindings.items()
        if rel is not None
        and schema.has_relation(rel)
        and schema.relation(rel).has_attribute(col.name)
    ]
    if len(owners) == 1:
        return owners[0]
    if not owners:
        raise SqlError(f"column {col.name!r} not found in any FROM relation")
    raise SqlError(f"ambiguous column {col.name!r}: {[b for b, _ in owners]}")


def analyze_select(select: Select, schema: Schema | None = None) -> AnalyzedSelect:
    """Bind and classify a SELECT. ``schema`` enables unqualified-column
    resolution and is required for key/FK classification."""
    bindings: dict[str, str | None] = {}
    for item in select.from_items:
        if isinstance(item, TableRef):
            if item.binding in bindings:
                raise SqlError(f"duplicate FROM binding {item.binding!r}")
            bindings[item.binding] = item.name
        elif isinstance(item, DerivedTable):
            if item.binding in bindings:
                raise SqlError(f"duplicate FROM binding {item.binding!r}")
            bindings[item.binding] = None

    result = AnalyzedSelect(select=select, bindings=bindings)

    for cond in select.where:
        pair = cond.column_pair()
        if pair is not None:
            lb, lrel = _resolve_column(pair[0], bindings, schema)
            rb, rrel = _resolve_column(pair[1], bindings, schema)
            if lb == rb:
                # same binding on both sides: a degenerate filter; keep as a
                # filter with the raw condition attached.
                result.filters.append(
                    FilterCondition(cond.op, lb, lrel, pair[0].name, pair[1])
                )
                continue
            result.joins.append(
                JoinCondition(
                    op=cond.op,
                    left_binding=lb,
                    left_relation=lrel,
                    left_attr=pair[0].name,
                    right_binding=rb,
                    right_relation=rrel,
                    right_attr=pair[1].name,
                )
            )
        else:
            col, value = None, None
            if isinstance(cond.left, ColumnRef):
                col, value = cond.left, cond.right
                op = cond.op
            elif isinstance(cond.right, ColumnRef):
                col, value = cond.right, cond.left
                op = _flip_op(cond.op)
            else:
                raise SqlError(f"unsupported condition {cond}")
            b, rel = _resolve_column(col, bindings, schema)
            result.filters.append(FilterCondition(op, b, rel, col.name, value))
    return result


def _flip_op(op: str) -> str:
    return {"<": ">", ">": "<", "<=": ">=", ">=": "<="}.get(op, op)


def matches_fk_edge(
    schema: Schema,
    parent: str,
    child: str,
    fk: ForeignKey,
    joins: list[JoinCondition],
) -> bool:
    """True when ``joins`` contains conjuncts equating every PK attribute of
    ``parent`` with the corresponding attribute of ``child``'s ``fk``.

    This is the test used to *mark* schema-graph edges during view
    selection (Sec. VI-A) and to weight edges in the candidate-view
    generation heuristic (Sec. V-B2)."""
    pk = schema.relation(parent).primary_key
    needed = list(zip(pk, fk.attributes))
    for pk_attr, fk_attr in needed:
        found = False
        for j in joins:
            if not j.is_equi:
                continue
            pair = j.attr_pair_for(parent, child)
            if pair == (pk_attr, fk_attr):
                found = True
                break
        if not found:
            return False
    return True
