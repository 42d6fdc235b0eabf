"""VoltDB wrapped in the evaluated-system interface.

Per the paper, three partitioning schemes are needed to support the
maximum number of TPC-W joins; :meth:`statement`/:meth:`supports` pick
the first scheme that admits a query, and writes run under the primary
scheme. Queries unsupported under every scheme report
``supports() == False`` and show as X in Fig. 12."""

from __future__ import annotations

from typing import Any, Sequence

from repro.errors import UnsupportedStatementError
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sql.analyzer import AnalyzedSelect
from repro.sql.ast import ColumnRef, Delete, Insert, Literal, Param, Select, Update
from repro.sql.cache import StatementCache
from repro.systems.base import EvaluatedSystem, SystemDescription, SystemSession
from repro.voltdb.system import PartitionScheme, TPCW_SCHEMES, VoltDBSystem


class VoltdbSession(SystemSession):
    """VoltDB's serial-partition execution model under multi-client
    scheduling: each partition executor site is single-threaded, so an
    operation queues until every site it is routed to (one for
    single-partition procedures, all of them for multi-partition reads
    and replicated-table writes) is free in virtual time. Auto-commit
    like the base session (every VoltDB procedure is its own
    serializable transaction)."""

    system: "VoltDBEvaluatedSystem"

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        sim = self.system.sim
        ctx = sim.concurrency
        if ctx is None:
            return self.system.execute(sql, params)
        engine = self.system.engine
        scheme = self.system.scheme_for(sql)
        if scheme is None:
            raise UnsupportedStatementError(
                "query joins are not supported under any partitioning scheme"
            )
        engine.set_scheme(scheme)
        stmt, analyzed = engine.prepare(sql)
        sites = [
            (engine, p) for p in engine.partitions_for(stmt, params, analyzed)
        ]
        clock = sim.clock
        wait_ms = ctx.serial_delay_ms(sites, clock.now_ms)
        if wait_ms > 0:
            # queueing delay, not work: bypass jitter, advance exactly
            clock.advance(wait_ms)
            sim.metrics.timer("voltdb.queue_wait").record(wait_ms)
        result = engine.execute(sql, params)
        ctx.serial_occupy(sites, clock.now_ms)
        return result


class VoltDBEvaluatedSystem(EvaluatedSystem):
    description = SystemDescription(
        name="VoltDB",
        mv_selection="None",
        concurrency_control="Single-threaded partition processing",
    )

    def __init__(
        self,
        schema: Schema,
        workload: Workload,
        sim: Simulation | None = None,
        schemes: Sequence[PartitionScheme] = TPCW_SCHEMES,
        num_partitions: int = 5,
    ) -> None:
        self.schemes = tuple(schemes)
        self.engine = VoltDBSystem(
            schema, sim, self.schemes[0], num_partitions
        )
        self._statements = {s.statement_id: s.sql for s in workload}
        self._schemes: StatementCache[PartitionScheme | None] = StatementCache()

    @property
    def sim(self) -> Simulation:
        return self.engine.sim

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    def scheme_for(self, sql: str) -> PartitionScheme | None:
        """The first scheme that admits a read (chosen once per text), or
        the primary scheme for a write. A read leaves the engine on the
        chosen scheme, or on the last one when none admits it, exactly
        as probing the schemes in order does."""
        stmt, analyzed = self.engine.prepare(sql)
        if analyzed is None:
            return self.schemes[0]
        scheme = self._schemes.get(sql, lambda: self._first_admitting(stmt, analyzed))
        self.engine.set_scheme(scheme or self.schemes[-1])
        return scheme

    def _first_admitting(
        self, stmt: Select, analyzed: AnalyzedSelect
    ) -> PartitionScheme | None:
        for scheme in self.schemes:
            self.engine.set_scheme(scheme)
            try:
                self.engine.check_supported(stmt, analyzed)
                return scheme
            except UnsupportedStatementError:
                continue
        return None

    def register_statement(self, statement_id: str, sql: str) -> None:
        self._statements[statement_id] = sql

    def supports(self, statement_id: str) -> bool:
        sql = self._statements.get(statement_id)
        if sql is None:
            return False
        stmt, analyzed = self.engine.prepare(sql)
        if analyzed is None:
            # scheme_for admits every write under the primary scheme, but
            # the procedure layer can only route writes that bind the full
            # primary key with equality — claiming support for anything
            # else fails at execute() with UnsupportedStatementError
            return self._write_supported(stmt)
        return self.scheme_for(sql) is not None

    def _write_supported(self, stmt: Any) -> bool:
        """Static mirror of the engine's write routing rules: inserts
        must provide the full key; updates/deletes must bind every key
        attribute with ``= constant`` conjuncts."""
        table = self.engine.tables.get(stmt.table)
        if table is None:
            return False
        if isinstance(stmt, Insert):
            columns = stmt.columns or table.relation.attribute_names
            return all(a in columns for a in table.key_attrs)
        if not isinstance(stmt, (Update, Delete)):
            return False
        bound: set[str] = set()
        for cond in stmt.where:
            col = cond.left if isinstance(cond.left, ColumnRef) else cond.right
            val = cond.right if isinstance(cond.left, ColumnRef) else cond.left
            if (
                not isinstance(col, ColumnRef)
                or cond.op != "="
                or not isinstance(val, (Literal, Param))
            ):
                return False
            bound.add(col.name)
        return all(a in bound for a in table.key_attrs)

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        scheme = self.scheme_for(sql)
        if scheme is None:
            raise UnsupportedStatementError(
                "query joins are not supported under any partitioning scheme"
            )
        self.engine.set_scheme(scheme)
        return self.engine.execute(sql, params)

    def open_session(self, client_name: str = "client") -> VoltdbSession:
        return VoltdbSession(self, client_name)

    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        self.engine.load_row(relation, row)

    def finish_load(self) -> None:
        self.engine.set_scheme(self.schemes[0])
        self.sim.reset_clock()

    def db_size_bytes(self) -> int:
        return self.engine.db_size_bytes()
