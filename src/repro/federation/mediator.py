"""Cross-system federation mediator.

The five evaluated systems run side by side everywhere else in the
repo; this module lets them cooperate. A :class:`Mediator` fronts a
registry of :class:`~repro.systems.base.EvaluatedSystem` backends and,
per workload statement, follows the decomposer → planner → non-blocking
executor shape of a federated query processor:

* **decompose** — a SELECT either routes *whole* to one backend, or is
  split into per-binding single-table sub-plans (one fragment per FROM
  binding, pushable filters included; derived tables become their own
  fragments) that may land on *different* backends;
* **plan** — the route is chosen from each backend's truthful
  ``supports()`` plus a cost signal: Phoenix-backed systems are priced
  with the PR 8 :class:`~repro.phoenix.planner.CostBasedPlanner`
  estimates over their own catalogs (so Synergy's view rewrites
  genuinely change its price), VoltDB with an arithmetic model over its
  in-memory row counts. The online
  :class:`~repro.federation.advisor.RoutingAdvisor` overrides estimates
  whose observed EWMA has diverged;
* **execute** — fragments are *lazy streaming pulls*: each sub-plan
  executes on its backend only when the merge tree first pulls from it
  (a satisfied LIMIT early-closes unexecuted fragments), and results
  merge through the non-blocking operators of
  :mod:`repro.phoenix.operators` (symmetric hash joins, hash group-by,
  streaming sort/limit) mirroring the single-system plan shape, so
  routed execution is row-for-row identical to single-system execution
  (pinned by the equivalence suite).

Writes broadcast to every supporting backend — that is what keeps the
backends convergent and routing row-equivalent. Virtual time: the
mediator has its own jitter-free :class:`Simulation`; backend
executions advance it by the backend's observed virtual latency, merge
operators charge it directly, and under a scheduled multi-client run
each backend is a serial resource at the mediator (two clients routed
to the same backend queue; different backends overlap).

Everything is opt-in: nothing here is imported by the anchored
experiment paths.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from repro.errors import PlanError, ReproError, SqlError
from repro.federation.advisor import RoutingAdvisor
from repro.phoenix.operators import (
    HashDistinct,
    HashGroupBy,
    Limit,
    PhysicalOperator,
    StreamingFilter,
    StreamingProject,
    StreamingSort,
    SymmetricHashJoin,
)
from repro.phoenix.planner import CostBasedPlanner
from repro.phoenix.plans import ColumnPredicate, ExecutionContext, ValuePredicate
from repro.relational.schema import Schema
from repro.relational.workload import Workload
from repro.sim.clock import Simulation
from repro.sim.latency import LatencyCharger
from repro.sim.rng import derive_seed
from repro.sql.analyzer import AnalyzedSelect, analyze_select
from repro.sql.ast import (
    ColumnRef,
    DerivedTable,
    FuncCall,
    Literal,
    Param,
    Select,
    Star,
    TableRef,
)
from repro.sql.parser import parse_statement
from repro.sql.printer import to_sql
from repro.systems.base import EvaluatedSystem, SystemDescription, SystemSession


class FederationError(ReproError):
    """Mediator routing or merge failure."""


class FederationWriteHazardError(FederationError):
    """Refused to re-execute a write whose effects may already have
    applied on a backend that cannot roll back (auto-commit sessions
    report ``rolls_back_on_abort == False``) — retrying would
    double-apply."""


# ---------------------------------------------------------------- route log
@dataclass
class RouteRecord:
    """One routed statement, JSON-friendly and fully deterministic."""

    seq: int
    statement_id: str
    mode: str  # "whole" | "split" | "broadcast"
    assignments: list[dict] = field(default_factory=list)
    """Per sub-plan: fragment label, backend, executed flag, virtual ms."""
    total_ms: float = 0.0

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "statement_id": self.statement_id,
            "mode": self.mode,
            "assignments": [
                {**a, "ms": round(a["ms"], 6)} for a in self.assignments
            ],
            "total_ms": round(self.total_ms, 6),
        }


@dataclass
class _Fragment:
    binding: str
    sql: str
    params: tuple[Any, ...]
    attrs: tuple[str, ...]
    derived: bool = False

    @property
    def label(self) -> str:
        return self.binding


class _MediatorConn:
    """The minimal connection surface the streaming operators touch:
    ``sim`` (for metrics and charges), ``charge.transfer`` (symmetric
    hash join shuffle) and ``hashjoin_row_bytes``. Merge-side work is
    thereby metered on the mediator's own virtual clock."""

    hashjoin_row_bytes = 150

    def __init__(self, sim: Simulation) -> None:
        self.sim = sim
        self.charge = LatencyCharger(sim, "federation")


class _FragmentSource(PhysicalOperator):
    """Leaf of the merge tree: executes its sub-plan on the assigned
    backend at the FIRST pull (a lazy streaming pull — LIMIT-abandoned
    fragments never run), then remaps the backend's shaped rows to the
    mediator's ``(binding, attr)`` row dialect."""

    def __init__(
        self,
        mediator: "Mediator",
        fragment: _Fragment,
        backend: str,
        record: RouteRecord,
        slot: int,
    ) -> None:
        self.mediator = mediator
        self.fragment = fragment
        self.backend = backend
        self.record = record
        self.slot = slot
        self._rows: list[dict] | None = None
        self._pos = 0

    def open(self, ctx: ExecutionContext) -> None:
        self._ctx = ctx

    def next_batch(self) -> list[dict] | None:
        if self._rows is None:
            binding = self.fragment.binding
            rows, ms = self.mediator._run_on_backend(
                self.backend,
                self.fragment.sql,
                self.fragment.params,
                advisor_key=f"{self.record.statement_id}#{binding}",
            )
            slot = self.record.assignments[self.slot]
            slot["executed"] = True
            slot["ms"] = ms
            self._rows = [
                {(binding, k): v for k, v in row.items()} for row in rows
            ]
        if self._pos >= len(self._rows):
            return None
        batch = self._rows[self._pos : self._pos + 256]
        self._pos += len(batch)
        return batch

    def _label(self) -> str:
        return f"FRAGMENT {self.fragment.binding} @ {self.backend}"


# ---------------------------------------------------------------- mediator
class Mediator(EvaluatedSystem):
    """Federated execution over an ordered backend registry.

    ``mode`` picks the decomposition policy: ``"auto"`` (split a
    multi-binding SELECT when the summed best fragment estimates beat
    the best whole-statement estimate, or when no backend supports the
    whole statement), ``"whole"`` (never split) or ``"split"`` (always
    split eligible statements). ``pin`` restricts routing to one
    backend — the pinned-single-system baseline the bench sweeps
    against, running through the identical mediator code path.
    """

    description = SystemDescription(
        name="Federation",
        mv_selection="Delegated to backends",
        concurrency_control="Delegated to backends",
    )

    def __init__(
        self,
        backends: Mapping[str, EvaluatedSystem],
        schema: Schema,
        workload: Workload | None = None,
        seed: int = 171001792,
        mode: str = "auto",
        advisor: RoutingAdvisor | None = None,
        pin: str | None = None,
    ) -> None:
        if not backends:
            raise FederationError("mediator needs at least one backend")
        if mode not in ("auto", "whole", "split"):
            raise FederationError(f"unknown decomposition mode {mode!r}")
        if pin is not None and pin not in backends:
            raise FederationError(f"pinned backend {pin!r} is not registered")
        self.backends: dict[str, EvaluatedSystem] = dict(backends)
        self.schema = schema
        self.mode = mode
        self.pin = pin
        first = next(iter(self.backends.values()))
        self._sim = Simulation(
            cost=first.sim.cost,
            seed=derive_seed(seed, "federation/sim"),
            jitter_fraction=0.0,
        )
        self._conn = _MediatorConn(self._sim)
        self.advisor = advisor or RoutingAdvisor(seed=seed)
        self.route_log: list[RouteRecord] = []
        self._statements: dict[str, str] = {}
        self._by_text: dict[str, str] = {}
        self._estimates: dict[tuple[str, str], float] = {}
        if workload is not None:
            for stmt in workload:
                self._statements[stmt.statement_id] = stmt.sql
                self._by_text.setdefault(stmt.sql, stmt.statement_id)

    # -- evaluated-system surface --------------------------------------------------
    @property
    def sim(self) -> Simulation:
        return self._sim

    def statement(self, statement_id: str) -> str:
        return self._statements[statement_id]

    def register_statement(self, statement_id: str, sql: str) -> None:
        self._statements[statement_id] = sql
        self._by_text.setdefault(sql, statement_id)
        for backend in self.backends.values():
            try:
                backend.statement(statement_id)
            except KeyError:
                backend.register_statement(statement_id, sql)

    def supports(self, statement_id: str) -> bool:
        sql = self._statements.get(statement_id)
        if sql is None:
            return False
        stmt, analyzed = self._parse(sql)
        if not isinstance(stmt, Select):
            return any(
                self._backend_supports(name, statement_id, sql)
                for name in self._routable()
            )
        if any(
            self._backend_supports(name, statement_id, sql)
            for name in self._routable()
        ):
            return True
        if self.mode == "whole":
            return False
        return self._split_eligible(stmt, analyzed)

    def load_row(self, relation: str, row: dict[str, Any]) -> None:
        for backend in self.backends.values():
            backend.load_row(relation, row)

    def finish_load(self) -> None:
        for backend in self.backends.values():
            backend.finish_load()
        self._sim.reset_clock()

    def db_size_bytes(self) -> int:
        return sum(b.db_size_bytes() for b in self.backends.values())

    def open_session(self, client_name: str = "client") -> "FederatedSession":
        return FederatedSession(self, client_name)

    # -- execution ----------------------------------------------------------------
    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        return self._execute(sql, params, sessions=None)

    def _execute(
        self,
        sql: str,
        params: tuple[Any, ...],
        sessions: "dict[str, SystemSession] | None",
    ) -> Any:
        # accept either a statement id or statement text (the base
        # class's timed_id resolves ids to text before calling execute)
        if sql in self._statements:
            sid: str | None = sql
            canonical = self._statements[sql]
        else:
            sid = self._by_text.get(sql)
            canonical = sql
        stmt, analyzed = self._parse(canonical)
        sw = self._sim.stopwatch()
        if isinstance(stmt, Select):
            rows, record = self._route_select(
                sid or canonical, sid, canonical, analyzed, params
            )
        else:
            rows, record = self._broadcast_write(
                sid or canonical, sid, canonical, params, sessions
            )
        record.total_ms = sw.stop()
        self.route_log.append(record)
        return rows

    # -- select routing -----------------------------------------------------------
    def _route_select(
        self,
        label: str,
        sid: str | None,
        canonical: str,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
    ) -> tuple[list[dict], RouteRecord]:
        record = RouteRecord(
            seq=len(self.route_log), statement_id=label, mode="whole"
        )
        whole = self._whole_candidates(sid, canonical)
        eligible = self._split_eligible(analyzed.select, analyzed)
        use_split = False
        if self.mode == "split":
            use_split = eligible
        elif self.mode == "auto":
            if not whole:
                use_split = True
            elif eligible:
                use_split = self._split_estimate(label, analyzed, params) < min(
                    self.advisor.advised_cost(label, name, est)[0]
                    for name, est in whole
                )
        if use_split:
            if not eligible:
                raise FederationError(
                    f"{label}: statement cannot be decomposed"
                )
            record.mode = "split"
            return self._execute_split(label, analyzed, params, record), record
        if not whole:
            raise FederationError(
                f"{label}: no backend supports the whole statement "
                "and it cannot be decomposed"
            )
        chosen = self.advisor.choose(label, whole, self._sim.clock.now_ms)
        rows, ms = self._run_on_backend(
            chosen,
            self._backend_text(chosen, sid, canonical),
            params,
            advisor_key=label,
        )
        record.assignments.append(
            {"fragment": "*", "backend": chosen, "executed": True, "ms": ms}
        )
        return rows, record

    def _execute_split(
        self,
        label: str,
        analyzed: AnalyzedSelect,
        params: tuple[Any, ...],
        record: RouteRecord,
    ) -> list[dict]:
        fragments = self._decompose(analyzed, params)
        sources: dict[str, PhysicalOperator] = {}
        for fragment in fragments:
            frag_label = f"{label}#{fragment.label}"
            candidates = [
                (name, self._estimate(name, fragment.sql))
                for name in self._routable()
                if self._sql_supported(name, fragment.sql)
            ]
            chosen = self.advisor.choose(
                frag_label, candidates, self._sim.clock.now_ms
            )
            slot = len(record.assignments)
            record.assignments.append(
                {
                    "fragment": fragment.label,
                    "backend": chosen,
                    "executed": False,
                    "ms": 0.0,
                }
            )
            sources[fragment.binding] = _FragmentSource(
                self, fragment, chosen, record, slot
            )
        derived_attrs = {f.binding: f.attrs for f in fragments if f.derived}
        root, output = self._build_merge(analyzed, sources, derived_attrs)
        ctx = ExecutionContext(self._conn, params)  # type: ignore[arg-type]
        root.open(ctx)
        return list(root.rows())

    def _split_estimate(
        self, label: str, analyzed: AnalyzedSelect, params: tuple[Any, ...]
    ) -> float:
        total = 0.0
        for fragment in self._decompose(analyzed, params):
            frag_label = f"{label}#{fragment.label}"
            best = min(
                self.advisor.advised_cost(
                    frag_label, name, self._estimate(name, fragment.sql)
                )[0]
                for name in self._routable()
                if self._sql_supported(name, fragment.sql)
            )
            total += best
        return total

    # -- write broadcast ------------------------------------------------------------
    def _broadcast_write(
        self,
        label: str,
        sid: str | None,
        canonical: str,
        params: tuple[Any, ...],
        sessions: "dict[str, SystemSession] | None",
    ) -> tuple[Any, RouteRecord]:
        record = RouteRecord(
            seq=len(self.route_log), statement_id=label, mode="broadcast"
        )
        targets = [
            name
            for name in self._routable()
            if self._backend_supports(name, sid, canonical)
        ]
        if not targets:
            raise FederationError(f"{label}: no backend supports this write")
        ctx = self._sim.concurrency
        clock = self._sim.clock
        resources = [("federation", name) for name in targets]
        if ctx is not None:
            wait = ctx.serial_delay_ms(resources, clock.now_ms)
            if wait > 0:
                clock.advance(wait)
                self._sim.metrics.timer("federation.queue_wait").record(wait)
        result: Any = None
        slowest = 0.0
        for name in targets:
            text = self._backend_text(name, sid, canonical)
            if sessions is not None:
                sw = self.backends[name].sim.stopwatch()
                out = sessions[name].execute(text, params)
                ms = sw.stop()
            else:
                out, ms = self.backends[name].timed(text, params)
            self.advisor.observe(label, name, ms)
            record.assignments.append(
                {"fragment": "*", "backend": name, "executed": True, "ms": ms}
            )
            slowest = max(slowest, ms)
            if result is None:
                result = out
        # the fan-out is concurrent in virtual time: the mediator waits
        # for the slowest backend, not the sum
        clock.advance(slowest)
        if ctx is not None:
            ctx.serial_occupy(resources, clock.now_ms)
        return result, record

    # -- backend execution ----------------------------------------------------------
    def _run_on_backend(
        self,
        name: str,
        sql: str,
        params: tuple[Any, ...],
        advisor_key: str,
    ) -> tuple[Any, float]:
        """Execute one sub-plan on a backend, queueing on the backend's
        mediator-level serial resource under multi-client scheduling and
        advancing the mediator clock by the observed virtual latency."""
        ctx = self._sim.concurrency
        clock = self._sim.clock
        resource = ("federation", name)
        if ctx is not None:
            wait = ctx.serial_delay_ms((resource,), clock.now_ms)
            if wait > 0:
                clock.advance(wait)
                self._sim.metrics.timer("federation.queue_wait").record(wait)
        rows, ms = self.backends[name].timed(sql, params)
        self.advisor.observe(advisor_key, name, ms)
        self._sim.metrics.timer(f"federation.backend.{name}").record(ms)
        clock.advance(ms)
        if ctx is not None:
            ctx.serial_occupy((resource,), clock.now_ms)
        return rows, ms

    # -- candidates and estimates ----------------------------------------------------
    def _routable(self) -> tuple[str, ...]:
        if self.pin is not None:
            return (self.pin,)
        return tuple(self.backends)

    def _whole_candidates(
        self, sid: str | None, canonical: str
    ) -> list[tuple[str, float]]:
        out = []
        for name in self._routable():
            if not self._backend_supports(name, sid, canonical):
                continue
            out.append(
                (name, self._estimate(name, self._backend_text(name, sid, canonical)))
            )
        return out

    def _backend_text(self, name: str, sid: str | None, canonical: str) -> str:
        """The statement text a backend executes: its own (possibly
        view-rewritten) registered text for workload ids, the canonical
        text for ad-hoc SQL."""
        if sid is None:
            return canonical
        try:
            return self.backends[name].statement(sid)
        except KeyError:
            return canonical

    def _backend_supports(
        self, name: str, sid: str | None, canonical: str
    ) -> bool:
        if sid is not None:
            return self.backends[name].supports(sid)
        return self._sql_supported(name, canonical)

    def _sql_supported(self, name: str, sql: str) -> bool:
        backend = self.backends[name]
        scheme_for = getattr(backend, "scheme_for", None)
        if scheme_for is None:
            return True
        stmt = parse_statement(sql)
        if isinstance(stmt, Select):
            return scheme_for(sql) is not None
        return backend._write_supported(stmt)  # type: ignore[attr-defined]

    def _estimate(self, name: str, sql: str) -> float:
        key = (name, sql)
        cached = self._estimates.get(key)
        if cached is not None:
            return cached
        backend = self.backends[name]
        stmt, analyzed = self._parse(sql)
        if getattr(backend, "scheme_for", None) is not None:
            ms = self._voltdb_estimate(backend, analyzed)
        else:
            ms = self._phoenix_estimate(backend, sql)
            if ms is None:
                ms = self._fallback_estimate(backend, analyzed)
        self._estimates[key] = ms
        return ms

    def _phoenix_estimate(
        self, backend: EvaluatedSystem, sql: str
    ) -> float | None:
        inner = backend if hasattr(backend, "catalog") else getattr(
            backend, "system", None
        )
        if inner is None or not hasattr(inner, "catalog"):
            return None
        try:
            planner = CostBasedPlanner(
                inner.catalog,
                cluster=getattr(inner, "cluster", None),
                cost=backend.sim.cost,
            )
            planned = planner.plan_select(parse_statement(sql))
        except ReproError:
            return None
        est = getattr(planned.root, "_est", None)
        return float(est[1]) if est else None

    def _voltdb_estimate(
        self, backend: EvaluatedSystem, analyzed: AnalyzedSelect | None
    ) -> float:
        cost = backend.sim.cost
        tables = backend.engine.tables  # type: ignore[attr-defined]
        total = 1.0
        if analyzed is not None:
            for b, rel in analyzed.bindings.items():
                if rel is None or rel not in tables:
                    total += 100.0  # derived / unknown: nominal charge
                    continue
                table = tables[rel]
                eq_attrs = {
                    f.attr
                    for f in analyzed.filters_on(b)
                    if f.op == "=" and isinstance(f.value, (Literal, Param))
                }
                if any(table.has_index(a) for a in eq_attrs):
                    total += 1.0
                else:
                    total += float(len(table.rows))
        return cost.voltdb_proc_base_ms + cost.voltdb_row_ms * total

    def _fallback_estimate(
        self, backend: EvaluatedSystem, analyzed: AnalyzedSelect | None
    ) -> float:
        cost = backend.sim.cost
        rows = 100.0
        if analyzed is not None:
            rows = float(len(analyzed.bindings)) * 100.0
        return cost.rpc_base_ms + cost.read_row_ms * rows

    # -- decomposition ----------------------------------------------------------------
    def _parse(self, sql: str) -> tuple[Any, AnalyzedSelect | None]:
        stmt = parse_statement(sql)
        analyzed = (
            analyze_select(stmt, self.schema) if isinstance(stmt, Select) else None
        )
        return stmt, analyzed

    def _split_eligible(
        self, stmt: Any, analyzed: AnalyzedSelect | None
    ) -> bool:
        """A SELECT splits when it has >= 2 FROM bindings and every
        derived table is parameter-free (a reparsed derived fragment
        would renumber ``?`` placeholders)."""
        if not isinstance(stmt, Select) or analyzed is None:
            return False
        if len(stmt.from_items) < 2:
            return False
        for item in stmt.from_items:
            if isinstance(item, DerivedTable) and _contains_param(item.select):
                return False
        return True

    def _decompose(
        self, analyzed: AnalyzedSelect, params: tuple[Any, ...]
    ) -> list[_Fragment]:
        fragments: list[_Fragment] = []
        for item in analyzed.select.from_items:
            if isinstance(item, DerivedTable):
                fragments.append(
                    _Fragment(
                        binding=item.binding,
                        sql=to_sql(item.select),
                        params=(),
                        attrs=self._select_output_names(item.select),
                        derived=True,
                    )
                )
                continue
            assert isinstance(item, TableRef)
            binding = item.binding
            conds: list[str] = []
            values: list[Any] = []
            for f in analyzed.filters_on(binding):
                if not isinstance(f.value, (Literal, Param)):
                    continue  # degenerate column-column filter: merge-side
                conds.append(f"{binding}.{f.attr} {f.op} ?")
                values.append(
                    f.value.value
                    if isinstance(f.value, Literal)
                    else params[f.value.index]
                )
            sql = f"SELECT * FROM {item.name} as {binding}"
            if conds:
                sql += " WHERE " + " and ".join(conds)
            fragments.append(
                _Fragment(
                    binding=binding,
                    sql=sql,
                    params=tuple(values),
                    attrs=self.schema.relation(item.name).attribute_names,
                )
            )
        return fragments

    def _select_output_names(self, select: Select) -> tuple[str, ...]:
        analyzed = analyze_select(select, self.schema)
        spec = self._output_spec(
            analyzed,
            {
                item.binding: self._select_output_names(item.select)
                for item in select.from_items
                if isinstance(item, DerivedTable)
            },
        )
        return tuple(name for name, _ in spec)

    # -- merge construction ------------------------------------------------------------
    def _build_merge(
        self,
        analyzed: AnalyzedSelect,
        sources: dict[str, PhysicalOperator],
        derived_attrs: dict[str, tuple[str, ...]],
    ) -> tuple[PhysicalOperator, tuple[tuple[str, Any], ...]]:
        """Compose the mediator-side plan over fragment sources,
        mirroring the single-system planner's composition order (joins →
        group-by → distinct → sort → limit → project) so the output is
        row- and name-identical."""
        select = analyzed.select
        bindings = list(analyzed.bindings)
        root = sources[bindings[0]]
        joined = [bindings[0]]
        remaining = bindings[1:]
        consumed: set[int] = set()
        while remaining:
            next_b = None
            for b in remaining:
                if any(
                    j.is_equi and j.involves(b)
                    and (j.left_binding in joined or j.right_binding in joined)
                    for j in analyzed.joins
                ):
                    next_b = b
                    break
            if next_b is None:
                next_b = remaining[0]  # cartesian attach
            remaining.remove(next_b)
            left_keys: list[tuple[str, str]] = []
            right_keys: list[tuple[str, str]] = []
            for i, j in enumerate(analyzed.joins):
                if i in consumed or not j.is_equi:
                    continue
                if j.left_binding in joined and j.right_binding == next_b:
                    left_keys.append((j.left_binding, j.left_attr))
                    right_keys.append((next_b, j.right_attr))
                elif j.right_binding in joined and j.left_binding == next_b:
                    left_keys.append((j.right_binding, j.right_attr))
                    right_keys.append((next_b, j.left_attr))
                else:
                    continue
                consumed.add(i)
            root = SymmetricHashJoin(
                root, sources[next_b], tuple(left_keys), tuple(right_keys)
            )
            joined.append(next_b)

        residuals: list[Any] = []
        for i, j in enumerate(analyzed.joins):
            if i in consumed:
                continue
            residuals.append(
                ColumnPredicate(
                    left=(j.left_binding, j.left_attr),
                    op=j.op,
                    right=(j.right_binding, j.right_attr),
                )
            )
        for f in analyzed.filters:
            if isinstance(f.value, ColumnRef):
                # degenerate same-binding column comparison
                residuals.append(
                    ColumnPredicate(
                        left=(f.binding, f.attr),
                        op=f.op,
                        right=(f.binding, f.value.name),
                    )
                )
            elif analyzed.bindings[f.binding] is None:
                # filter on a derived binding: not pushed into the
                # fragment, applied at the mediator
                residuals.append(
                    ValuePredicate(
                        binding=f.binding, attr=f.attr, op=f.op, value_expr=f.value
                    )
                )
        if residuals:
            root = StreamingFilter(root, tuple(residuals))

        has_aggregates = any(isinstance(p, FuncCall) for p in select.projections)
        output = self._output_spec(analyzed, derived_attrs)
        if select.group_by or has_aggregates:
            root = self._add_group_by(root, analyzed)
        if select.distinct:
            root = HashDistinct(root, keys=tuple(src for _, src in output))
        if select.order_by:
            keys = tuple(
                (self._source_for(o.expr, analyzed), o.descending)
                for o in select.order_by
            )
            root = StreamingSort(root, keys)
        if select.limit is not None:
            root = Limit(root, select.limit)
        return StreamingProject(root, output), output

    def _add_group_by(
        self, root: PhysicalOperator, analyzed: AnalyzedSelect
    ) -> PhysicalOperator:
        select = analyzed.select
        group_keys = tuple(
            self._source_for(g, analyzed) for g in select.group_by
        )
        aggregates: list[tuple[str, str, Any]] = []
        for p in select.projections:
            if isinstance(p, FuncCall):
                if p.star:
                    source = None
                else:
                    if len(p.args) != 1 or not isinstance(p.args[0], ColumnRef):
                        raise PlanError(f"unsupported aggregate argument: {p}")
                    source = self._source_for(p.args[0], analyzed)
                aggregates.append((str(p), p.name, source))
        for o in select.order_by:
            if isinstance(o.expr, FuncCall) and not any(
                a[0] == str(o.expr) for a in aggregates
            ):
                src = (
                    None
                    if o.expr.star
                    else self._source_for(o.expr.args[0], analyzed)
                )
                aggregates.append((str(o.expr), o.expr.name, src))
        return HashGroupBy(root, group_keys, tuple(aggregates))

    def _source_for(self, expr: Any, analyzed: AnalyzedSelect) -> Any:
        if isinstance(expr, ColumnRef):
            if expr.qualifier is not None:
                return (expr.qualifier, expr.name)
            owners = [
                b
                for b, rel in analyzed.bindings.items()
                if rel is not None
                and self.schema.has_relation(rel)
                and self.schema.relation(rel).has_attribute(expr.name)
            ]
            if len(owners) == 1:
                return (owners[0], expr.name)
            if not owners:
                return expr.name  # aggregate alias / bare-name lookup
            raise SqlError(f"ambiguous column {expr.name!r}")
        if isinstance(expr, FuncCall):
            return str(expr)
        raise PlanError(f"unsupported expression in this clause: {expr}")

    def _output_spec(
        self,
        analyzed: AnalyzedSelect,
        derived_attrs: dict[str, tuple[str, ...]],
    ) -> tuple[tuple[str, Any], ...]:
        select = analyzed.select
        out: list[tuple[str, Any]] = []
        for p in select.projections:
            if isinstance(p, Star):
                targets = (
                    [p.qualifier]
                    if p.qualifier is not None
                    else list(analyzed.bindings)
                )
                for b in targets:
                    rel = analyzed.bindings[b]
                    if rel is None:
                        attrs: tuple[str, ...] = derived_attrs[b]
                    else:
                        attrs = tuple(self.schema.relation(rel).attribute_names)
                    for a in attrs:
                        out.append((a, (b, a)))
            elif isinstance(p, ColumnRef):
                out.append((p.name, self._source_for(p, analyzed)))
            elif isinstance(p, FuncCall):
                out.append((str(p), str(p)))
            else:
                raise PlanError(f"unsupported projection {p}")
        seen: dict[str, int] = {}
        final: list[tuple[str, Any]] = []
        for name, src in out:
            if name in seen:
                seen[name] += 1
                qualified = (
                    f"{src[0]}.{name}"
                    if isinstance(src, tuple)
                    else f"{name}_{seen[name]}"
                )
                final.append((qualified, src))
            else:
                seen[name] = 0
                final.append((name, src))
        return tuple(final)


def _contains_param(select: Select) -> bool:
    def expr_has(expr: Any) -> bool:
        if isinstance(expr, Param):
            return True
        args = getattr(expr, "args", None)
        if args:
            return any(expr_has(a) for a in args)
        return False

    for cond in select.where:
        if expr_has(cond.left) or expr_has(cond.right):
            return True
    for item in select.from_items:
        if isinstance(item, DerivedTable) and _contains_param(item.select):
            return True
    return False


# ---------------------------------------------------------------- sessions
class FederatedSession(SystemSession):
    """One virtual client's connection to the federation.

    Reads route exactly like :meth:`Mediator.execute`. Writes broadcast
    through per-backend *sessions*, so Tephra-backed backends buffer
    them transactionally while auto-commit backends (Synergy, VoltDB)
    apply immediately — which is why the retry path below exists:

    * every write executed inside the session is tracked with the set
      of backends where it has *already applied irrevocably* (session
      ``rolls_back_on_abort`` False);
    * ``abort()`` rolls back what can be rolled back, and **poisons**
      the writes that cannot be;
    * re-executing a poisoned write raises
      :class:`FederationWriteHazardError` instead of double-applying.
    """

    system: Mediator

    def __init__(self, system: Mediator, client_name: str = "client") -> None:
        super().__init__(system, client_name)
        self._sessions: dict[str, SystemSession] = {
            name: backend.open_session(client_name)
            for name, backend in system.backends.items()
        }
        self.rolls_back_on_abort = all(
            s.rolls_back_on_abort for s in self._sessions.values()
        )
        self._open = False
        self._txn_writes: list[tuple[tuple[str, tuple], tuple[str, ...]]] = []
        self._poisoned: dict[tuple[str, tuple], tuple[str, ...]] = {}

    def begin(self) -> None:
        for session in self._sessions.values():
            session.begin()
        self._open = True
        self._txn_writes = []

    def execute(self, sql: str, params: tuple[Any, ...] = ()) -> Any:
        canonical = self.system._statements.get(sql, sql)
        if isinstance(parse_statement(canonical), Select):
            return self.system._execute(sql, params, sessions=None)
        key = (canonical, tuple(params))
        if key in self._poisoned:
            raise FederationWriteHazardError(
                f"refusing to re-execute {canonical!r}: its writes may "
                f"already have applied on {list(self._poisoned[key])} "
                "(no rollback on abort)"
            )
        try:
            result = self.system._execute(sql, params, sessions=self._sessions)
        except BaseException:
            # a partial broadcast: anything that applied on an
            # auto-commit backend is now unretriable
            applied = tuple(
                name
                for name, session in self._sessions.items()
                if not session.rolls_back_on_abort
            )
            self._poisoned[key] = applied
            raise
        applied = tuple(
            name
            for name, session in self._sessions.items()
            if not session.rolls_back_on_abort
        )
        if self._open:
            self._txn_writes.append((key, applied))
        return result

    def commit(self) -> None:
        self._open = False
        self._txn_writes = []
        for session in self._sessions.values():
            session.commit()

    def abort(self) -> None:
        self._open = False
        writes, self._txn_writes = self._txn_writes, []
        for session in self._sessions.values():
            session.abort()
        for key, applied in writes:
            if applied:
                self._poisoned[key] = applied


def build_mediator(
    backends: Mapping[str, EvaluatedSystem] | Sequence[tuple[str, EvaluatedSystem]],
    schema: Schema,
    workload: Workload | None = None,
    **kwargs: Any,
) -> Mediator:
    """Convenience constructor accepting either a mapping or ordered
    ``(name, system)`` pairs (order is the routing tie-break)."""
    if not isinstance(backends, Mapping):
        backends = dict(backends)
    return Mediator(backends, schema, workload, **kwargs)


__all__ = [
    "FederatedSession",
    "FederationError",
    "FederationWriteHazardError",
    "Mediator",
    "RouteRecord",
    "build_mediator",
]
