"""The benchmark's three workloads, driven through the public API of
``repro``.

A workload runs in *passes*. A pass is one complete, deterministic unit
of work from the seed: it builds fresh systems, loads them, runs the
timed phase and releases them. Every pass returns a digest of the
virtual time it produced, so passes of one run must agree with each
other, with the traced pass, and at the default seed with the digest
recorded in ``design.json``.

Host time is measured around the calls into ``repro``; virtual
milliseconds only feed the digest.
"""

from __future__ import annotations

import functools
import gc
import hashlib
import json
import operator
import re
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Iterable

from repro.bench.tpcw_lab import SYSTEM_NAMES, TpcwLab
from repro.sim.clock import Simulation
from repro.sim.rng import derive_rng, derive_seed
from repro.sim.scheduler import DeterministicScheduler, run_transaction
from repro.sql import Select, parse_statement
from repro.systems import SynergyEvaluatedSystem
from repro.tpcw import TpcwDataGenerator, tpcw_schema
from repro.tpcw.microbench import (
    MICRO_Q1_BASE,
    MICRO_Q1_VIEW,
    MICRO_Q2_BASE,
    MICRO_Q2_VIEW,
    MICRO_ROOTS,
    MicrobenchDataGenerator,
    micro_schema,
    micro_workload,
)
from repro.tpcw.queries import JOIN_QUERIES
from repro.tpcw.writes import WRITE_STATEMENTS

from spans import Recorder

DESIGN = json.loads(Path(__file__).with_name("design.json").read_text())["workloads"]
#: Input sizes of each workload.
INPUTS = {name: w["inputs"] for name, w in DESIGN.items()}

CONTENDED_SYSTEMS = ("Synergy", "MVCC-A", "MVCC-UA", "VoltDB")

#: ORDER BY columns of the top-k queries. Rows tied with the last row
#: on these columns may legitimately differ between engines.
TOP_K_ORDER = {
    "Q4": ("i_title",),
    "Q5": ("i_pub_date", "i_title"),
    "Q10": ("SUM(ol_qty)",),
    "Q11": ("SUM(ol_qty)",),
}

_QUALIFIER = re.compile(r"\b\w+\.")


@dataclass
class Samples:
    """Host-time samples and outcome counts of the passes of one run."""

    setup_s: list[float] = field(default_factory=list)
    load_row_us: list[float] = field(default_factory=list)
    load_s: float = 0.0
    query_ms: list[float] = field(default_factory=list)
    write_ms: list[float] = field(default_factory=list)
    read_rows: Counter = field(default_factory=Counter)
    read_s: Counter = field(default_factory=Counter)
    timed_s: float = 0.0
    stmts: int = 0
    txns: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    counters: Counter = field(default_factory=Counter)
    samples_held: int = 0

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed += ops
        if len(self.errors) < 20:
            self.errors.append(message)

    def record_read(self, kind: str, seconds: float, rows: int) -> None:
        self.query_ms.append(seconds * 1e3)
        self.read_rows[kind] += rows
        self.read_s[kind] += seconds

    def record_statement(self, kind: str, seconds: float, result: Any) -> None:
        if kind == "write":
            self.write_ms.append(seconds * 1e3)
        else:
            self.record_read(kind, seconds, len(result))


def statement_kind(sql: str, base_tables: set[str]) -> str:
    """``write``, ``view`` (a read of one materialized view) or ``join``
    (a read over two or more FROM items)."""
    stmt = parse_statement(sql)
    if not isinstance(stmt, Select):
        return "write"
    if len(stmt.from_items) == 1 and stmt.referenced_relations()[0] not in base_tables:
        return "view"
    return "join"


def canonical(rows: Iterable[dict]) -> tuple[tuple[str, ...], Counter]:
    """A result set as its column names, stripped of table qualifiers
    (``SUM(v0.ol_qty)`` = ``SUM(ol.ol_qty)``) and sorted, plus the
    multiset of its rows' values in that column order."""
    rows = list(rows)
    if not rows:
        return (), Counter()
    plain = {k: _QUALIFIER.sub("", k) for k in rows[0]}
    columns = sorted(rows[0], key=plain.__getitem__)
    values = operator.itemgetter(*columns)
    return tuple(plain[c] for c in columns), Counter(map(values, rows))


def top_k_canonical(rows: list[dict], order: tuple[str, ...]) -> tuple:
    """Canonical form of an ORDER BY ... LIMIT result that ignores which
    of the rows tied with the last row were kept: the sort keys of all
    rows plus every row not tied with the last."""
    def key(row: dict) -> tuple:
        plain = {_QUALIFIER.sub("", k): v for k, v in row.items()}
        return tuple(plain[c] for c in order)

    if not rows:
        return ()
    last = key(rows[-1])
    return (
        Counter(key(r) for r in rows),
        canonical(r for r in rows if key(r) != last),
    )


def fingerprint(value: Any) -> str:
    """Hash of a canonical form (nested Counters hash in sorted order)."""
    def stable(v: Any) -> Any:
        if isinstance(v, Counter):
            return sorted(repr(item) for item in v.items())
        if isinstance(v, tuple):
            return tuple(stable(x) for x in v)
        return v

    return hashlib.sha256(repr(stable(value)).encode()).hexdigest()


class Pass:
    """Shared machinery of one pass: digest, load loop, counters."""

    def __init__(self, samples: Samples, rec: Recorder | None) -> None:
        self.s = samples
        self.rec = rec
        self.digest = hashlib.sha256()

    def note(self, *parts: Any) -> None:
        self.digest.update(repr(parts).encode())

    def load(self, system: Any, rows: list[tuple[str, dict]]) -> float:
        """load_row every row, then finish_load; returns the host seconds."""
        rec, samples = self.rec, self.s.load_row_us
        load_row = system.load_row
        if rec is not None:
            load_row = functools.partial(rec.call, "load_row", system.load_row)
        clock = time.perf_counter
        start = clock()
        for relation, row in rows:
            if rec is not None:
                rec.new_trace()
            t = clock()
            load_row(relation, row)
            samples.append((clock() - t) * 1e6)
        if rec is not None:
            rec.new_trace()
        system.finish_load()
        elapsed = clock() - start
        self.s.load_s += elapsed
        return elapsed

    def release(self, name: str, system: Any) -> None:
        """Fold the system's size and counters into the digest/samples."""
        self.note(name, "db_size_bytes", system.db_size_bytes())
        metrics = system.sim.metrics
        for key, value in metrics.counters().items():
            if key.startswith("client.") or key.startswith("rs."):
                self.s.counters[key.split(".")[0] + "." + key.rsplit(".", 1)[-1]] += value
        self.s.samples_held += sum(len(t.samples) for t in metrics.timers().values())

    def timed_id(self, system: Any, sid: str, params: tuple) -> tuple[Any, float, float]:
        """Run one workload statement; returns (result, host s, virtual ms)."""
        if self.rec is not None:
            self.rec.new_trace()
        t = time.perf_counter()
        result, ms = system.timed_id(sid, params)
        return result, time.perf_counter() - t, ms


# ------------------------------------------------------------------ tpcw-eval
def tpcw_eval(seed: int, samples: Samples, rec: Recorder | None) -> str:
    cfg = INPUTS["tpcw-eval"]
    p = Pass(samples, rec)
    t0 = time.perf_counter()
    lab = TpcwLab(num_customers=cfg["customers"], repetitions=cfg["reps"], seed=seed)
    rows = list(TpcwDataGenerator(cfg["customers"], seed=seed).all_rows())
    base_tables = {r.name for r in tpcw_schema().relations}
    setup = time.perf_counter() - t0
    exact: dict[tuple[str, int], dict[str, str]] = {}
    tied: dict[tuple[str, int], dict[str, str]] = {}
    for name in SYSTEM_NAMES:
        t = time.perf_counter()
        system = lab.build_system(name)
        setup += time.perf_counter() - t
        setup += p.load(system, rows)
        ids = [i for i in list(JOIN_QUERIES) + list(WRITE_STATEMENTS) if system.supports(i)]
        kinds = {i: statement_kind(system.statement(i), base_tables) for i in ids}
        for rep in range(cfg["reps"]):
            for sid in ids:
                is_query = sid in JOIN_QUERIES
                params = (
                    lab.generator.params_for_query(sid, rep) if is_query
                    else lab.generator.params_for_write(sid, rep)
                )
                samples.attempted += 1
                try:
                    result, host_s, ms = p.timed_id(system, sid, params)
                except Exception as exc:  # any failure is a failed operation
                    samples.fail(f"{name} {sid} rep {rep}: {exc!r}")
                    continue
                samples.timed_s += host_s
                samples.stmts += 1
                samples.txns += 1
                samples.record_statement(kinds[sid], host_s, result)
                p.note(name, sid, rep, ms)
                if is_query:
                    exact.setdefault((sid, rep), {})[name] = fingerprint(canonical(result))
                    if sid in TOP_K_ORDER:
                        tied.setdefault((sid, rep), {})[name] = fingerprint(
                            top_k_canonical(result, TOP_K_ORDER[sid])
                        )
        p.release(name, system)
        del system
        gc.collect()  # one simulated cluster at a time, as TpcwLab intends
    samples.setup_s.append(setup)
    for (sid, rep), by_system in exact.items():
        reference = by_system.get("Synergy")
        for name, fp in by_system.items():
            if name == "Synergy" or reference is None:
                continue
            if name == "VoltDB" and sid in TOP_K_ORDER:
                same = tied[(sid, rep)][name] == tied[(sid, rep)]["Synergy"]
            else:
                same = fp == reference
            if not same:
                samples.fail(f"{sid} rep {rep}: {name} rows differ from Synergy's")
    return p.digest.hexdigest()


# ------------------------------------------------------------------ micro-join
MICRO_QUERIES = (
    ("Q1", "Q1-view", MICRO_Q1_VIEW, "Q1-join", MICRO_Q1_BASE),
    ("Q2", "Q2-view", MICRO_Q2_VIEW, "Q2-join", MICRO_Q2_BASE),
)


def micro_join(seed: int, samples: Samples, rec: Recorder | None) -> str:
    cfg = INPUTS["micro-join"]
    p = Pass(samples, rec)
    t0 = time.perf_counter()
    gen = MicrobenchDataGenerator(cfg["customers"], seed=seed)
    rows = list(gen.all_rows())
    system = SynergyEvaluatedSystem(
        micro_schema(), micro_workload(), MICRO_ROOTS,
        sim=Simulation(seed=seed, jitter_fraction=0.02),
    )
    for _, view_id, view_sql, join_id, join_sql in MICRO_QUERIES:
        system.register_statement(view_id, view_sql)
        system.register_statement(join_id, join_sql)
    p.load(system, rows)
    samples.setup_s.append(time.perf_counter() - t0)
    expected = {"Q1": gen.num_orders, "Q2": gen.num_order_lines}
    for rep in range(cfg["reps"]):
        for qid, view_id, _, join_id, _ in MICRO_QUERIES:
            got = {}
            for kind, sid in (("view", view_id), ("join", join_id)):
                samples.attempted += 1
                try:
                    result, host_s, ms = p.timed_id(system, sid, ())
                except Exception as exc:  # any failure is a failed operation
                    samples.fail(f"{sid} rep {rep}: {exc!r}")
                    continue
                samples.timed_s += host_s
                samples.stmts += 1
                samples.txns += 1
                samples.record_read(kind, host_s, len(result))
                p.note(sid, rep, ms)
                if len(result) != expected[qid]:
                    samples.fail(f"{sid} rep {rep}: {len(result)} rows, expected {expected[qid]}")
                got[kind] = canonical(result)
            if len(got) == 2 and got["view"] != got["join"]:
                samples.fail(f"{qid} rep {rep}: view rows differ from join rows")
    p.release("Synergy", system)
    del system
    gc.collect()
    return p.digest.hexdigest()


# ------------------------------------------------------------------ tpcw-contended
def transaction_mix(generator: TpcwDataGenerator, rng, cfg: dict) -> list[list[tuple]]:
    """One client's transactions, each a list of ``(kind, ref, params)``:
    kind ``q`` names a workload query, ``w`` carries write SQL. Parameters
    come from small hot sets so clients collide."""
    txns = []
    for _ in range(cfg["txns_per_client"]):
        r = float(rng.random())
        i_id = int(rng.integers(1, cfg["hot_items"] + 1))
        c_id = int(rng.integers(1, cfg["hot_customers"] + 1))
        sc_id = int(rng.integers(1, cfg["hot_carts"] + 1))
        if r < 0.35:
            txns.append([
                ("q", "Q6", (i_id,)),
                ("w", WRITE_STATEMENTS["W9"], (int(rng.integers(10, 100)), i_id)),
            ])
        elif r < 0.60:
            txns.append([(
                "w", WRITE_STATEMENTS["W13"],
                (round(float(rng.uniform(0, 500)), 2),
                 round(float(rng.uniform(0, 5000)), 2),
                 round(float(rng.uniform(0, 7200)), 2), c_id),
            )])
        elif r < 0.80:
            txns.append([(
                "w", WRITE_STATEMENTS["W11"],
                (round(float(rng.uniform(0, 10 ** 6)), 2), sc_id),
            )])
        else:
            txns.append([("q", "Q2", (generator.customer_uname(c_id),))])
    return txns


class TimedSession:
    """Times each completed ``execute`` of a scheduled client's session.
    A statement told to wait for a lock is retried by the scheduler and
    is not a completed statement."""

    def __init__(self, session: Any, kinds: dict[str, str], samples: Samples) -> None:
        self.session = session
        self.kinds = kinds
        self.samples = samples

    def begin(self) -> None:
        self.session.begin()

    def execute(self, sql: str, params: tuple = ()) -> Any:
        t = time.perf_counter()
        result = self.session.execute(sql, params)
        self.samples.record_statement(self.kinds[sql], time.perf_counter() - t, result)
        self.samples.stmts += 1
        return result

    def commit(self) -> None:
        self.session.commit()

    def abort(self) -> None:
        self.session.abort()


def instance_seeds(seed: int, count: int) -> list[int]:
    """The seed itself, then independent seeds derived from it: each
    instance has its own data and client mixes, so a run averages over
    which items, authors and customers happen to be hot."""
    return [seed] + [derive_seed(seed, f"instance-{j}") for j in range(1, count)]


def tpcw_contended(seed: int, samples: Samples, rec: Recorder | None) -> str:
    cfg = INPUTS["tpcw-contended"]
    p = Pass(samples, rec)
    base_tables = {r.name for r in tpcw_schema().relations}
    setup = 0.0
    for instance in instance_seeds(seed, cfg["instances"]):
        t = time.perf_counter()
        rows = list(TpcwDataGenerator(cfg["customers"], seed=instance).all_rows())
        setup += time.perf_counter() - t
        for name in CONTENDED_SYSTEMS:
            setup += _contended_system(p, name, instance, rows, base_tables, cfg)
    samples.setup_s.append(setup)
    return p.digest.hexdigest()


def _contended_system(
    p: Pass, name: str, seed: int, rows: list, base_tables: set[str], cfg: dict
) -> float:
    """Build, load and wire one system, run its clients; returns set-up s."""
    samples, rec = p.s, p.rec
    t = time.perf_counter()
    lab = TpcwLab(num_customers=cfg["customers"], repetitions=1, seed=seed, jitter_fraction=0.0)
    system = lab.build_system(name)
    setup = time.perf_counter() - t
    setup += p.load(system, rows)
    t = time.perf_counter()
    scheduler = DeterministicScheduler(system.sim)
    for i in range(cfg["clients"]):
        rng = derive_rng(seed, f"concurrency/client-{i}")
        txns = [
            [(system.statement(ref) if kind == "q" else ref, params)
             for kind, ref, params in txn]
            for txn in transaction_mix(lab.generator, rng, cfg)
        ]
        kinds = {sql: statement_kind(sql, base_tables) for txn in txns for sql, _ in txn}
        session = TimedSession(system.open_session(f"client-{i}"), kinds, samples)
        scheduler.add_client(f"client-{i}", _program(session, txns, rec))
    setup += time.perf_counter() - t
    issued = cfg["clients"] * cfg["txns_per_client"]
    samples.attempted += issued
    t = time.perf_counter()
    try:
        report = scheduler.run()
    except Exception as exc:  # any failure is a failed operation
        samples.fail(f"{name}: scheduler.run raised {exc!r}", issued)
        return setup
    samples.timed_s += time.perf_counter() - t
    gave_up = sum(c["failed"] for c in report.clients.values())
    samples.txns += report.committed
    if report.committed + gave_up != issued:
        samples.fail(
            f"{name}: {report.committed} committed + {gave_up} gave up "
            f"!= {issued} issued", issued - report.committed - gave_up,
        )
    for key in ("lock_wait_count", "serial_wait_count", "conflict_abort_count"):
        samples.counters[f"sched.{key}"] += getattr(report, key)
    samples.counters["sched.attempts"] += report.committed + report.aborted
    p.note(name, report.committed, report.aborted, gave_up, report.makespan_ms)
    p.release(name, system)
    del system, scheduler
    gc.collect()  # one simulated cluster at a time
    return setup


def _program(session: TimedSession, txns: list, rec: Recorder | None) -> Callable:
    def program(client):
        for txn in txns:
            if rec is None:
                yield from run_transaction(client, session, txn)
            else:
                trace = rec.new_trace()
                run = rec.call("run_transaction", run_transaction, client, session, txn)
                yield from rec.resumptions("run_transaction", run, trace=trace)
    return program


WORKLOADS: dict[str, Callable[[int, Samples, Recorder | None], str]] = {
    "tpcw-eval": tpcw_eval,
    "micro-join": micro_join,
    "tpcw-contended": tpcw_contended,
}
