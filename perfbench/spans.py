"""Span recorder for the traced benchmark run.

Spans are recorded only from this directory: ``install`` replaces public
functions of ``repro`` with timing wrappers and ``uninstall`` puts the
originals back. Nothing inside the program is edited, and a wrapper
never charges virtual time or draws from a simulation RNG, so a traced
run must produce the same virtual-time digest as an untraced one.

Each span records its trace, its own id, its parent's id, a name, a
kind, its start and end (``time.perf_counter``) and its self time:

* ``trace`` is the id of the root operation (one statement, one
  ``load_row`` or one scheduled transaction) the span belongs to;
* ``kind`` is ``CALL`` for a function call and ``RESUME`` for one
  resumption of a generator a wrapped function returned (``HTable.scan``,
  ``Region.scan``, ``run_transaction``), so the work a scan does while
  its consumer pulls rows is charged to the scan and not only the
  creation of the generator.

Spans are kept in memory and summarised (or written out) at the end.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from array import array
from collections import defaultdict
from typing import Any, Callable, Iterable, Iterator

CALL, RESUME = 0, 1

#: (module, qualified attribute, layer). Generator-returning functions
#: are marked with a trailing ``*``.
TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.systems.base", "EvaluatedSystem.timed_id", "systems"),
    ("repro.systems.base", "SystemSession.execute", "systems"),
    ("repro.systems.mvcc_base", "MvccSession.execute", "systems"),
    ("repro.systems.voltdb_sys", "VoltdbSession.execute", "systems"),
    ("repro.phoenix.executor", "PhoenixConnection.plan", "phoenix.planner"),
    ("repro.phoenix.executor", "PhoenixConnection.execute_query", "phoenix.executor"),
    ("repro.phoenix.catalog", "CatalogEntry.encode_key", "phoenix.catalog"),
    ("repro.phoenix.catalog", "CatalogEntry.row_to_put", "phoenix.catalog"),
    ("repro.phoenix.catalog", "CatalogEntry.result_to_row", "phoenix.catalog"),
    ("repro.phoenix.catalog", "CatalogEntry.decode_key", "phoenix.catalog"),
    ("repro.phoenix.writes", "WriteExecutor.insert_row", "phoenix.writes"),
    ("repro.phoenix.writes", "WriteExecutor.read_row", "phoenix.writes"),
    ("repro.phoenix.writes", "WriteExecutor.update_row", "phoenix.writes"),
    ("repro.phoenix.writes", "WriteExecutor.delete_row", "phoenix.writes"),
    ("repro.hbase.client", "HTable.get", "hbase.client"),
    ("repro.hbase.client", "HTable.put", "hbase.client"),
    ("repro.hbase.client", "HTable.put_batch", "hbase.client"),
    ("repro.hbase.client", "HTable.delete", "hbase.client"),
    ("repro.hbase.client", "HTable.check_and_put", "hbase.client"),
    ("repro.hbase.client", "HTable.scan*", "hbase.client"),
    ("repro.hbase.regionserver", "RegionServer.serve_get", "hbase.regionserver"),
    ("repro.hbase.regionserver", "RegionServer.apply_put", "hbase.regionserver"),
    ("repro.hbase.regionserver", "RegionServer.apply_puts", "hbase.regionserver"),
    ("repro.hbase.regionserver", "RegionServer.apply_delete", "hbase.regionserver"),
    ("repro.hbase.regionserver", "RegionServer.flush_region", "hbase.regionserver"),
    ("repro.hbase.region", "Region.scan*", "hbase.regionserver"),
    ("repro.hbase.cluster", "HBaseCluster.major_compact", "hbase.regionserver"),
    ("repro.synergy.maintenance", "ViewMaintainer.apply_insert", "synergy.maintenance"),
    ("repro.synergy.maintenance", "ViewMaintainer.apply_delete", "synergy.maintenance"),
    ("repro.synergy.maintenance", "ViewMaintainer.read_ancestor_chain", "synergy.maintenance"),
    ("repro.synergy.maintenance", "ViewMaintainer.locate_view_rows", "synergy.maintenance"),
    ("repro.synergy.maintenance", "ViewMaintainer.write_view_rows", "synergy.maintenance"),
    ("repro.synergy.maintenance", "ViewMaintainer.mark_rows", "synergy.maintenance"),
    ("repro.synergy.locks", "LockManager.acquire", "synergy.locks"),
    ("repro.synergy.locks", "LockManager.release", "synergy.locks"),
    ("repro.synergy.txlayer", "SynergyTransactionLayer.execute_write", "synergy.locks"),
    ("repro.mvcc.tephra", "TephraServer.begin", "mvcc.tephra"),
    ("repro.mvcc.tephra", "TephraServer.can_commit", "mvcc.tephra"),
    ("repro.mvcc.tephra", "TephraServer.commit", "mvcc.tephra"),
    ("repro.mvcc.tephra", "TephraServer.abort", "mvcc.tephra"),
    ("repro.voltdb.system", "VoltDBSystem.execute", "voltdb"),
    ("repro.sim.clock", "Simulation.charge", "sim.clock"),
    ("repro.sim.scheduler", "DeterministicScheduler.run", "sim.scheduler"),
)

#: ``parse_statement`` is imported by name into several modules; each
#: binding is replaced, found by identity with the parser's function.
PARSER = ("repro.sql.parser", "parse_statement", "sql")

#: Layer of spans the benchmark opens itself (``run_transaction`` is
#: called from the benchmark's client programs, ``load_row`` from its
#: load loop).
LAYER_OF_OWN = {"run_transaction": "sim.scheduler", "load_row": "systems"}

LAYERS = (
    "systems",
    "sql",
    "phoenix.planner",
    "phoenix.executor",
    "phoenix.catalog",
    "phoenix.writes",
    "hbase.client",
    "hbase.regionserver",
    "synergy.maintenance",
    "synergy.locks",
    "mvcc.tephra",
    "voltdb",
    "sim.clock",
    "sim.scheduler",
)


class Recorder:
    """Records spans and the counts measured at the same boundaries.

    Spans are stored column-wise (``array``) so a traced pass of a few
    million spans stays near 40 bytes per span. Each span's self time is
    computed when it closes, from the intervals of the children that
    closed inside it.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.layer_of: dict[str, str] = dict(LAYER_OF_OWN)
        self.col = {
            "trace": array("q"), "span": array("q"), "parent": array("q"),
            "name": array("H"), "kind": array("b"),
            "start": array("d"), "end": array("d"), "self": array("d"),
        }
        self.trace = 0
        self.counts: dict[str, int] = defaultdict(int)
        # open spans: [span id, child intervals]
        self._stack: list[tuple[int, list[tuple[float, float]]]] = []
        self._next_span = 0
        self._next_trace = 0
        self._query_depth = 0
        self._patched: list[tuple[Any, str, Any]] = []

    def __len__(self) -> int:
        return len(self.col["span"])

    # -- recording ----------------------------------------------------------------
    def new_trace(self) -> int:
        """Start a root operation; later spans carry its id."""
        self._next_trace += 1
        self.trace = self._next_trace
        return self.trace

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def _open(self) -> int:
        self._next_span += 1
        self._stack.append((self._next_span, []))
        return self._next_span

    def _close(self, name: str, kind: int, start: float) -> None:
        end = time.perf_counter()
        sid, children = self._stack.pop()
        parent = 0
        if self._stack:
            parent = self._stack[-1][0]
            self._stack[-1][1].append((start, end))
        col = self.col
        col["trace"].append(self.trace)
        col["span"].append(sid)
        col["parent"].append(parent)
        col["name"].append(self._name_id(name))
        col["kind"].append(kind)
        col["start"].append(start)
        col["end"].append(end)
        col["self"].append(self_time(start, end, children))

    def call(self, name: str, fn: Callable, *args: Any, **kwargs: Any) -> Any:
        """Run ``fn`` inside a span named ``name``."""
        self._open()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except BaseException as exc:
            self.counts[f"{name}!{type(exc).__name__}"] += 1
            raise
        finally:
            self._close(name, CALL, start)

    def resumptions(self, name: str, gen: Iterator, trace: int | None = None) -> Iterator:
        """Re-yield ``gen``, timing each resumption as a span. With
        ``trace`` set, every resumption belongs to that trace (a
        scheduled transaction resumed between other clients' steps)."""
        try:
            while True:
                outer = self.trace
                if trace is not None:
                    self.trace = trace
                self._open()
                start = time.perf_counter()
                try:
                    item = next(gen)
                except StopIteration as stop:
                    return stop.value
                finally:
                    self._close(name, RESUME, start)
                    self.trace = outer
                self.counts[f"{name}.yields"] += 1
                if self._query_depth and name == "HTable.scan":
                    self.counts["executor.rows_in"] += 1
                yield item
        finally:
            close = getattr(gen, "close", None)
            if close is not None:
                close()

    # -- installing wrappers ------------------------------------------------------------
    def _wrapper(self, name: str, fn: Callable, is_gen: bool) -> Callable:
        rec = self
        if is_gen:
            @functools.wraps(fn)
            def traced_gen(*args: Any, **kwargs: Any) -> Iterator:
                return rec.resumptions(name, iter(rec.call(name, fn, *args, **kwargs)))
            return traced_gen
        if name == "PhoenixConnection.execute_query":
            @functools.wraps(fn)
            def traced_query(*args: Any, **kwargs: Any) -> Any:
                rec._query_depth += 1
                try:
                    rows = rec.call(name, fn, *args, **kwargs)
                finally:
                    rec._query_depth -= 1
                rec.counts["executor.rows_out"] += len(rows)
                return rows
            return traced_query
        if name == "HTable.get":
            @functools.wraps(fn)
            def traced_get(*args: Any, **kwargs: Any) -> Any:
                result = rec.call(name, fn, *args, **kwargs)
                if result is not None and rec._query_depth:
                    rec.counts["executor.rows_in"] += 1
                return result
            return traced_get
        if name == "ViewMaintainer.apply_insert":
            @functools.wraps(fn)
            def traced_insert(*args: Any, **kwargs: Any) -> Any:
                written = rec.call(name, fn, *args, **kwargs)
                rec.counts["maintenance.view_rows"] += written
                return written
            return traced_insert

        @functools.wraps(fn)
        def traced(*args: Any, **kwargs: Any) -> Any:
            return rec.call(name, fn, *args, **kwargs)
        return traced

    def install(self) -> None:
        for module_name, target, layer in TARGETS:
            is_gen = target.endswith("*")
            cls_name, attr = target.rstrip("*").split(".")
            cls = getattr(importlib.import_module(module_name), cls_name)
            name = f"{cls_name}.{attr}"
            self.layer_of[name] = layer
            self._patch(cls, attr, self._wrapper(name, cls.__dict__[attr], is_gen))
        module_name, attr, layer = PARSER
        original = getattr(importlib.import_module(module_name), attr)
        self.layer_of[attr] = layer
        wrapped = self._wrapper(attr, original, False)
        for module in list(sys.modules.values()):
            if (
                getattr(module, "__name__", "").startswith("repro")
                and getattr(module, attr, None) is original
            ):
                self._patch(module, attr, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- output ---------------------------------------------------------------------------
    def write(self, path: str) -> None:
        """Write every span, column-wise, to a compressed ``.npz`` file."""
        import numpy as np

        layers = [self.layer_of.get(n, "?") for n in self.names]
        np.savez_compressed(
            path,
            names=np.array(self.names), layers=np.array(layers),
            **{key: np.frombuffer(col, dtype=col.typecode) for key, col in self.col.items()},
        )


def union_length(intervals: Iterable[tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        elif end > cur_end:
            cur_end = end
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def self_time(start: float, end: float, children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the union of its children's intervals,
    each clipped to the span."""
    clipped = [
        (max(s, start), min(e, end)) for s, e in children if min(e, end) > max(s, start)
    ]
    return (end - start) - union_length(clipped)
