"""One :class:`Suite` record per bench suite: its name, its own flags,
how to run it, whether its output is deterministic or wall-clock timed,
and its CI :class:`Gate`. ``python -m repro.bench`` derives its flags,
the ``--only`` checks, the dispatch and ``--gate`` from :data:`SUITES`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, NamedTuple

from repro.bench.experiments import (
    concurrency_smoke,
    faults_smoke,
    federation_smoke,
    orchestration_rollback_smoke,
    orchestration_smoke,
    query_smoke,
    replication_smoke,
    run_concurrency,
    run_faults,
    run_federation,
    run_fig10,
    run_fig11,
    run_fig12,
    run_fig13,
    run_fig14,
    run_orchestration,
    run_query,
    run_replication,
    run_scaleout,
    run_serving,
    run_storage_perf,
    run_table1,
    run_table2,
    run_table3,
    serving_smoke,
)

#: Seed of every CI smoke call that takes one.
CI_SEED = 20170904


class Flag(NamedTuple):
    """A suite-specific CLI flag."""

    name: str
    type: type
    default: Any
    help: str

    @property
    def dest(self) -> str:
        return self.name[2:].replace("-", "_")


class Smoke(NamedTuple):
    """One smoke call with its CI arguments, and the predicates that must
    hold on the counters it returns. A predicate is a Python expression
    over ``out`` (the returned dict) and is also its own name."""

    call: partial
    predicates: tuple[str, ...]


@dataclass(frozen=True)
class Gate:
    """What ``--gate`` asserts: every smoke predicate; then, when
    ``sweep`` is set (deterministic suites only), that ``--only <suite>
    *sweep`` run in two separate processes emits byte-identical JSON
    whose sha256 is ``digest`` and on which every ``json_checks``
    function returns True.

    ``digest`` is the sha256 of the sweep JSON the committed code
    produces, so a change that moves the suite's output fails the gate
    even when it moves both reruns alike. A change that moves it on
    purpose records the new digest here."""

    smokes: tuple[Smoke, ...] = ()
    sweep: tuple[str, ...] = ()
    digest: str = ""
    json_checks: tuple[Callable[[dict], bool], ...] = ()


@dataclass(frozen=True)
class Suite:
    """``run(args, say, lab)`` returns the suite's report section (a
    string) or an iterable of ``ExperimentResult``; ``lab`` is the
    shared, already measured ``TpcwLab`` for a suite that ``uses_lab``.
    A deterministic suite is never wall-clock timed, so its emitted JSON
    is byte-identical across runs with the same flags."""

    name: str
    run: Callable[..., Any]
    flags: tuple[Flag, ...] = ()
    deterministic: bool = False
    uses_lab: bool = False
    gate: Gate | None = None


def int_list(text: str, floor: int) -> tuple[int, ...]:
    """Parse a comma-separated int list, dropping blanks and values
    below ``floor``."""
    return tuple(int(s) for s in text.split(",") if s.strip() and int(s) >= floor)


def holds(predicate: str, out: dict) -> bool:
    """Evaluate one smoke predicate against the smoke's ``out``."""
    return bool(eval(predicate, {"__builtins__": {}}, {"out": out}))


def scaleout_throughput_rises_with_servers(doc: dict) -> bool:
    series = doc["experiments"]["ScaleoutThroughput"]["series"]["16 clients"]
    curve = [series[str(n)]["mean"] for n in (1, 2, 4, 8)]
    return curve == sorted(curve) and curve[0] < curve[-1]


def two_replicas_stall_less_than_one(doc: dict) -> bool:
    series = doc["experiments"]["ReplicationRecovery"]["series"]
    return series["2 replicas"]["3"]["mean"] < series["1 replica"]["3"]["mean"]


_SUITES = (
    Suite("table1", run=lambda a, say, lab: (
        "Table I — qualitative comparison\n" + run_table1())),
    Suite("fig13", run=lambda a, say, lab: (
        "Fig. 13 — evaluated configurations\n" + run_fig13())),
    Suite(
        "storage",
        flags=(Flag("--storage-rows", int, 50_000,
                    "rows for the storage-layer perf experiment"),),
        run=lambda a, say, lab: [
            run_storage_perf(num_rows=a.storage_rows, repetitions=min(a.reps, 5))
        ],
    ),
    Suite(
        "fig10",
        flags=(Flag("--micro-scales", str, "50,500,5000",
                    "comma-separated micro-benchmark scales"),),
        run=lambda a, say, lab: run_fig10(
            tuple(int(s) for s in a.micro_scales.split(",")), a.reps, progress=say
        ).values(),
    ),
    Suite("fig11", run=lambda a, say, lab: [run_fig11(repetitions=a.reps)]),
    *(
        Suite(name, uses_lab=True,
              run=lambda a, say, lab, fn=fn: [fn(lab, progress=say)])
        for name, fn in (("fig12", run_fig12), ("fig14", run_fig14),
                         ("table2", run_table2), ("table3", run_table3))
    ),
    Suite(
        "concurrency",
        deterministic=True,
        flags=(
            Flag("--clients", str, "1,4,16,64", "comma-separated client counts "
                 "for the concurrency experiment"),
            Flag("--concurrency-txns", int, 8, "transactions per virtual client"),
            Flag("--concurrency-scale", int, 40,
                 "TPC-W customers for the concurrency experiment"),
        ),
        run=lambda a, say, lab: run_concurrency(
            int_list(a.clients, floor=1), txns_per_client=a.concurrency_txns,
            num_customers=a.concurrency_scale, progress=say,
        ).values(),
        # high-contention hot sets: real lock waits (Synergy) and real
        # MVCC conflict aborts
        gate=Gate(
            smokes=(Smoke(
                partial(concurrency_smoke, clients=8, txns_per_client=6,
                        num_customers=20, seed=CI_SEED),
                ('out["lock_waits"] > 0', 'out["conflict_aborts"] > 0',
                 'out["committed"] > 0 and out["failed"] == 0'),
            ),),
            sweep=("--clients", "1,8", "--concurrency-txns", "4",
                   "--concurrency-scale", "20"),
            digest="a781aea8ea81fde208823559f31a4fd0b5bf2c571649571083028842bac06056",
        ),
    ),
    Suite(
        "scaleout",
        deterministic=True,
        flags=(
            Flag("--servers", str, "1,2,4,8", "comma-separated region-server "
                 "counts for the scale-out experiment"),
            Flag("--scaleout-clients", str, "4,16", "comma-separated client "
                 "counts for the scale-out experiment"),
            Flag("--scaleout-ops", int, 60, "operations per virtual client in "
                 "the scale-out experiment"),
        ),
        run=lambda a, say, lab: run_scaleout(
            int_list(a.servers, floor=1), int_list(a.scaleout_clients, floor=1),
            ops_per_client=a.scaleout_ops, progress=say,
        ).values(),
        gate=Gate(
            sweep=("--servers", "1,2,4,8", "--scaleout-clients", "16",
                   "--scaleout-ops", "40"),
            digest="fd305121a4d71d02b62c2cf49dad64cda882ba1f49f183c82f7e4434ae1c0764",
            json_checks=(scaleout_throughput_rises_with_servers,),
        ),
    ),
    Suite(
        "faults",
        deterministic=True,
        flags=(
            Flag("--crash-cycles", str, "0,1,2,4", "comma-separated "
                 "crash/recover cycle counts for the fault-injection experiment"),
            Flag("--faults-clients", str, "4,8", "comma-separated client counts "
                 "for the fault-injection experiment"),
            Flag("--faults-ops", int, 64, "operations per virtual client in the "
                 "fault-injection experiment"),
        ),
        run=lambda a, say, lab: run_faults(
            int_list(a.crash_cycles, floor=0), int_list(a.faults_clients, floor=1),
            ops_per_client=a.faults_ops, progress=say,
        ).values(),
        # every acked write survives failover, no scan duplicates or
        # loses rows, nothing gives up
        gate=Gate(
            smokes=(Smoke(
                partial(faults_smoke, clients=8, cycles=3, seed=CI_SEED),
                ('out["crashes"] >= 2', 'out["recoveries"] >= 2',
                 'out["regions_recovered"] > 0',
                 'out["failover_retries"] > 0', 'out["violations"] == 0',
                 'out["committed"] == 8 * 32'),
            ),),
            sweep=("--crash-cycles", "0,2,4", "--faults-clients", "8",
                   "--faults-ops", "48"),
            digest="ff317f4e6074acf36bd15b3a296237c8930e1856093a4b95ae5b5e3973331f90",
        ),
    ),
    Suite(
        "replication",
        deterministic=True,
        flags=(
            Flag("--replicas", str, "1,2,3", "comma-separated replica counts for "
                 "the replication experiment (1 = no replication)"),
            Flag("--replication-cycles", str, "0,2,4", "comma-separated crash "
                 "cycle counts for the replication experiment"),
            Flag("--replication-clients", int, 6,
                 "virtual clients in the replication experiment"),
            Flag("--replication-ops", int, 48, "operations per virtual client in "
                 "the replication experiment"),
        ),
        run=lambda a, say, lab: run_replication(
            int_list(a.replicas, floor=1), int_list(a.replication_cycles, floor=0),
            clients=a.replication_clients, ops_per_client=a.replication_ops,
            progress=say,
        ).values(),
        # crashes promote followers, follower reads stay within the
        # staleness bound, the durability oracle stays clean, and
        # promotion stalls clients less than single-copy recovery
        gate=Gate(
            smokes=(Smoke(
                partial(replication_smoke, replica_count=2, clients=8, cycles=3,
                        seed=CI_SEED),
                ('out["crashes"] >= 2', 'out["recoveries"] >= 2',
                 'out["promotions"] > 0', 'out["entries_shipped"] > 0',
                 'out["follower_gets"] > 0', 'out["follower_scan_windows"] > 0',
                 'out["violations"] == 0', 'out["committed"] == 8 * 32'),
            ),),
            sweep=("--replicas", "1,2", "--replication-cycles", "0,3",
                   "--replication-clients", "6", "--replication-ops", "32"),
            digest="21d8167b374301e3d6f47b841789c413026f45a70d787191ef0d1ab09e54e7fb",
            json_checks=(two_replicas_stall_less_than_one,),
        ),
    ),
    Suite(
        "orchestration",
        deterministic=True,
        flags=(
            Flag("--orchestration-cycles", str, "0,2", "comma-separated crash "
                 "cycle counts for the orchestration experiment (0 = no chaos)"),
            Flag("--orchestration-clients", int, 4,
                 "virtual clients in the orchestration experiment"),
            Flag("--orchestration-ops", int, 48, "operations per virtual client "
                 "in the orchestration experiment"),
        ),
        run=lambda a, say, lab: run_orchestration(
            int_list(a.orchestration_cycles, floor=0),
            clients=a.orchestration_clients, ops_per_client=a.orchestration_ops,
            progress=say,
        ).values(),
        # every stage of the scale-out commits while servers crash
        # mid-rollout; a poisoned stage unwinds exactly to the
        # pre-rollout rows and layout
        gate=Gate(
            smokes=(
                Smoke(
                    partial(orchestration_smoke, cycles=2, seed=CI_SEED),
                    ('out["stages_total"] == 3', 'out["stages_committed"] == 3',
                     'out["rollout_committed"] == 1', 'out["crashes"] >= 2',
                     'out["recoveries"] >= 1', 'out["violations"] == 0',
                     'out["layout_issues"] == 0'),
                ),
                Smoke(
                    partial(orchestration_rollback_smoke, seed=CI_SEED),
                    ('out["rolled_back"] == 1', 'out["rows_intact"] == 1',
                     'out["layout_intact"] == 1'),
                ),
            ),
            sweep=("--orchestration-cycles", "0,2", "--orchestration-clients",
                   "4", "--orchestration-ops", "48"),
            digest="60ef9636b5a5802bd1a297d79950ea53c819a27e7e6a0b80d5085f0cdb621606",
        ),
    ),
    Suite(
        "query",
        deterministic=True,
        flags=(
            Flag("--query-scale", int, 200,
                 "TPC-W customers for the query-engine experiment"),
            Flag("--query-reps", int, 5,
                 "repetitions per query in the query-engine experiment"),
        ),
        # the wall-clock engine race goes to stderr, never into the JSON
        run=lambda a, say, lab: [run_query(
            num_customers=a.query_scale, repetitions=a.query_reps, progress=say
        )],
        # all engine modes return identical rows on the TPC-W join
        # battery, and the symmetric hash join beats the blocking
        # broadcast join in wall-clock on the limited join path
        gate=Gate(
            smokes=(Smoke(
                partial(query_smoke, num_customers=200, repetitions=2),
                ('out["rows_match[streaming]"] == out["queries"]',
                 'out["rows_match[streaming+cbo]"] == out["queries"]',
                 'out["limited_rows_legacy"] == 64',
                 'out["limited_rows_streaming"] == 64',
                 'out["streaming_beats_legacy"]'),
            ),),
            sweep=("--query-scale", "200", "--query-reps", "3"),
            digest="2d2f4baccfa50a301f427fbeea713b51d9a043367fda56ba368bce1b55c10e95",
        ),
    ),
    Suite(
        "serving",
        deterministic=True,
        flags=(
            Flag("--serving-clients", str, "64,256,1024", "comma-separated "
                 "virtual-client counts (offered load) for the serving "
                 "experiment"),
            Flag("--serving-ops", int, 6, "operations per virtual client in the "
                 "serving experiment"),
            Flag("--serving-population", int, 1_000_000, "Zipfian user "
                 "population for the serving experiment (paper: millions of "
                 "users)"),
            Flag("--serving-zipf-s", float, 1.1,
                 "Zipf skew parameter s for the serving experiment"),
        ),
        run=lambda a, say, lab: run_serving(
            int_list(a.serving_clients, floor=1), ops_per_client=a.serving_ops,
            population=a.serving_population, zipf_s=a.serving_zipf_s,
            progress=say,
        ).values(),
        # at overload the admission controller sheds, the row cache
        # hits, shedding holds the p99 at or below both unshed modes
        # within 10% of cache-only goodput, and the oracles stay clean
        gate=Gate(
            smokes=(Smoke(
                partial(serving_smoke, clients=1024, ops_per_client=4,
                        seed=CI_SEED),
                ('out["shed"] > 0', 'out["hit_ratio"] > 0.0',
                 'out["p99_shed"] <= out["p99_cache"]',
                 'out["p99_shed"] <= out["p99_baseline"]',
                 'out["goodput_shed"] >= 0.9 * out["goodput_cache"]',
                 'out["violations"] == 0'),
            ),),
            sweep=("--serving-clients", "64,256,1024", "--serving-ops", "6"),
            digest="94b287a155878a305fc75107bde5f76e7ad82c9ff39d7df7f98d06d8765baf19",
        ),
    ),
    Suite(
        "federation",
        deterministic=True,
        flags=(
            Flag("--federation-scale", int, 30,
                 "TPC-W customers for the federation experiment"),
            Flag("--federation-reps", int, 4,
                 "repetitions per query in the federation experiment"),
            Flag("--federation-clients", int, 4,
                 "virtual clients in the federated scheduled write mix"),
        ),
        run=lambda a, say, lab: [run_federation(
            num_customers=a.federation_scale, repetitions=a.federation_reps,
            clients=a.federation_clients, progress=say,
        )],
        # split routing returns the pinned single system's rows, some
        # statement's fragments land on >= 2 backends, and two
        # independently built runs log identical advisor decisions
        gate=Gate(
            smokes=(Smoke(
                partial(federation_smoke, num_customers=25, repetitions=4),
                ('out["rows_match[routed-split]"] == out["queries"]',
                 'out["statements_spanning_2_backends"] >= 1',
                 'out["decisions"] > 0', 'out["decision_log_deterministic"]'),
            ),),
            sweep=("--federation-scale", "30", "--federation-reps", "4"),
            digest="4feafeb6dcdb90bb6225304e3643746cbe70938da655639b10799d2959434b67",
        ),
    ),
)

#: Every suite by name, in ``--only`` / run order.
SUITES: dict[str, Suite] = {s.name: s for s in _SUITES}
