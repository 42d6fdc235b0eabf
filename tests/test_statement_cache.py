"""The statement cache: each SQL text is parsed once (a bounded memo of
``parse_statement``) and each rule-based plan is built once per (text,
catalog generation) (a bounded per-connection plan cache). Cost-based
plans are never cached. See docs/QUERY.md, "Statement cache"."""

from collections import Counter

import pytest

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.errors import SqlSyntaxError
from repro.phoenix.ddl import create_view_entry, create_view_index_entry
from repro.phoenix.planner import Planner
from repro.relational.company import company_schema, company_workload
from repro.sql.cache import STATEMENT_CACHE_SIZE
from repro.sql.parser import PARSE_CACHE_SIZE, _Parser, parse_statement
from repro.systems.voltdb_sys import VoltDBEvaluatedSystem
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS

STALE_JOIN = "SELECT * FROM Orders as o, Country as co WHERE o.o_id = co.co_id"


def fresh_plan(conn, sql):
    """A plan built now from a freshly parsed AST, bypassing every cache."""
    return conn.planner.plan_select(_Parser(sql).parse())


@pytest.fixture
def parse_counts(monkeypatch):
    """Counts ``_Parser.parse`` runs per statement text."""
    counts = Counter()
    original = _Parser.parse

    def counting(self):
        counts[self.sql] += 1
        return original(self)

    monkeypatch.setattr(_Parser, "parse", counting)
    parse_statement.cache_clear()
    return counts


@pytest.fixture
def plan_counts(monkeypatch):
    """Counts top-level ``Planner.plan_select`` runs per (catalog,
    statement, catalog generation); derived-table sub-plans are part of
    their statement's plan."""
    counts = Counter()
    original = Planner.plan_select
    depth = [0]

    def counting(self, select):
        if depth[0] == 0:
            counts[(id(self.catalog), select, self.catalog.generation)] += 1
        depth[0] += 1
        try:
            return original(self, select)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Planner, "plan_select", counting)
    return counts


class TestInvalidation:
    def test_analyze_replans_a_cached_statement(self):
        lab = TpcwLab(num_customers=20, repetitions=1, seed=5)
        system = lab.build_system("Baseline")
        conn = system.conn
        before = conn.plan(STALE_JOIN)
        assert "FULL SCAN Orders" in before.explain()  # no statistics yet
        lab.populate(system)  # load, finish_load (compaction + analyze)
        after = conn.plan(STALE_JOIN)
        assert after is not before
        assert after.explain() == fresh_plan(conn, STALE_JOIN).explain()
        assert "FULL SCAN Country" in after.explain()  # 92 rows < Orders

    def test_new_catalog_entry_replans_a_cached_statement(self, company_conn):
        conn = company_conn
        view = create_view_entry(
            conn.client, conn.catalog, "MV_Address__Employee",
            ("Address", "Employee"),
        )
        sql = "SELECT * FROM MV_Address__Employee as v WHERE v.EName = ?"
        before = conn.plan(sql)
        assert "FULL SCAN MV_Address__Employee [view]" in before.explain()
        create_view_index_entry(conn.client, conn.catalog, view, ("EName",))
        after = conn.plan(sql)
        assert "MV_Address__Employee.ix_EName" in after.explain()
        assert after.explain() == fresh_plan(conn, sql).explain()

    def test_configure_engine_clears_the_plan_cache(self, company_conn):
        sql = "SELECT * FROM Employee as e WHERE e.EID = ?"
        first = company_conn.plan(sql)
        assert company_conn.plan(sql) is first
        company_conn.configure_engine(engine="streaming")
        assert company_conn.plan(sql) is not first


class TestCostBasedPlansAreNeverCached:
    """Cost-based plans price live table sizes and region counts, so
    every call plans afresh, whether it passes text or an AST."""

    def test_every_call_replans(self, company_conn, plan_counts):
        conn = company_conn
        conn.configure_engine(cost_based=True)
        sql = "SELECT * FROM Employee as e, Works_On as w WHERE e.EID = w.WO_EID"
        assert conn.plan(sql) is not conn.plan(sql)
        rows = conn.execute_query(sql)
        assert conn.execute_query(parse_statement(sql)) == rows
        assert conn.execute(sql) == rows
        assert sum(plan_counts.values()) == 5
        assert len(conn._plan_cache) == 0


class TestBoundedMemory:
    def test_caches_stay_at_their_bounds(self, company_conn):
        conn = company_conn
        n = max(PARSE_CACHE_SIZE, STATEMENT_CACHE_SIZE) + 10
        texts = [f"SELECT e.EName FROM Employee as e WHERE e.EID = {i}" for i in range(n)]
        parse_statement.cache_clear()
        for sql in texts + texts[:3]:  # the first texts again, long evicted
            assert conn.execute_query(sql) == conn.execute_query(_Parser(sql).parse())
        assert parse_statement.cache_info().currsize == PARSE_CACHE_SIZE
        assert len(conn._plan_cache) == STATEMENT_CACHE_SIZE
        assert conn.execute_query(texts[5]) == [{"EName": "emp5"}]

    def test_voltdb_caches_stay_at_their_bound(self):
        system = VoltDBEvaluatedSystem(company_schema(), company_workload())
        for eid in range(1, 11):
            system.load_row("Employee", {
                "EID": eid, "EName": f"emp{eid}", "EHome_AID": 1,
                "EOffice_AID": 1, "E_DNo": 1,
            })
        engine = system.engine
        n = STATEMENT_CACHE_SIZE + 10
        texts = [f"SELECT e.EName FROM Employee as e WHERE e.EID = {i}" for i in range(n)]
        for sql in texts + texts[:3]:
            uncached = engine._execute_select(_Parser(sql).parse(), ())
            assert system.execute(sql) == uncached
        assert len(engine._prepared) == STATEMENT_CACHE_SIZE
        assert len(system._schemes) == STATEMENT_CACHE_SIZE


class TestCompiledOnce:
    @pytest.fixture(scope="class")
    def systems(self):
        lab = TpcwLab(num_customers=10, repetitions=1, seed=3)
        out = {}
        for name in SYSTEM_NAMES:
            system = lab.build_system(name)
            lab.populate(system)
            out[name] = system
        return lab, out

    def test_each_text_is_parsed_and_planned_once(
        self, systems, parse_counts, plan_counts
    ):
        lab, by_name = systems
        ran = Counter()
        for name, system in by_name.items():
            for rep in range(3):
                for sid in (*JOIN_QUERIES, *WRITE_STATEMENTS):
                    if not system.supports(sid):
                        continue
                    params = (
                        lab.generator.params_for_query(sid, rep)
                        if sid in JOIN_QUERIES
                        else lab.generator.params_for_write(sid, 100 + rep)
                    )
                    system.timed_id(sid, params)
                    ran[name] += 1
        assert all(ran[name] > len(JOIN_QUERIES) for name in SYSTEM_NAMES)
        assert parse_counts and max(parse_counts.values()) == 1
        assert plan_counts and max(plan_counts.values()) == 1

    def test_a_bad_statement_raises_the_same_error_every_call(
        self, systems, parse_counts
    ):
        _, by_name = systems
        bad = "SELECT * FROM Orders WHERE"
        errors = []
        for _ in range(3):
            with pytest.raises(SqlSyntaxError) as info:
                parse_statement(bad)
            errors.append((str(info.value), info.value.position))
        for system in by_name.values():
            with pytest.raises(SqlSyntaxError) as info:
                system.execute(bad)
            errors.append((str(info.value), info.value.position))
        assert len(set(errors)) == 1
        assert parse_counts[bad] == 3 + len(by_name)  # errors are never cached

