"""Host-time benchmark of the simulator.

    python3 perfbench/run.py --workload tpcw-eval --seed 171001792 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all          # every workload, each in its own process

Runs one workload (``design.json`` records why each was chosen and what
it exercises) in passes until ``--seconds`` have elapsed, checks every
result, prints each metric by name with its unit and sample count, and
ends with one JSON line ``{"correct", "attempted", "failed", "metrics"}``.
``BENCHMARK.json`` gates tpcw-eval and tpcw-contended; micro-join runs
the same way but is not gated.

``--trace 0`` reports the end-to-end metrics (host wall-clock and
memory). ``--trace 1`` runs the same untraced passes, then one more pass
with spans recorded around the calls into each layer, and reports the
per-layer metrics and the tracing overhead; the spans are written to
``perfbench/out/``. Exits nonzero when any operation fails, when a
pass's virtual-time digest differs from another pass's, from the traced
pass's or, at the default seed, from the digest in ``design.json``.
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

WORKLOAD_NAMES = ("tpcw-eval", "micro-join", "tpcw-contended")


def end_to_end(s, peak_rss_mb: float) -> list[tuple[str, float, str, int]]:
    """(name, value, unit, samples) of every gated end-to-end metric.
    micro-join, which is not gated, has no writes and so no write median."""
    from statistics import median

    out = [
        ("setup_s", median(s.setup_s), "s", len(s.setup_s)),
        ("peak_rss_mb", peak_rss_mb, "MB", 1),
        ("load_rows_per_s", len(s.load_row_us) / s.load_s, "rows/s", len(s.load_row_us)),
        ("query_ms_p50", median(s.query_ms), "ms", len(s.query_ms)),
        ("write_ms_p50", median(s.write_ms) if s.write_ms else None, "ms", len(s.write_ms)),
    ]
    return [m for m in out if m[1] is not None]


def reported(s) -> list[tuple[str, float, str, int]]:
    """Metrics printed beside the gated ones but not gated, because they
    have spread across ten seeds by more than the largest allowed bound:
    the throughputs, which swing with the host's speed and, on
    tpcw-contended, with how often the seed's hot rows collide; the rows
    per second of view scans and joins, which follow how many rows each
    seed's parameters select; and the tails, at p99 and at the highest
    percentile with at least ten samples beyond it."""
    from stats import percentile, tail_percentile

    out = [
        ("stmts_per_s", s.stmts / s.timed_s, "1/s", s.stmts),
        ("txns_per_s", s.txns / s.timed_s, "1/s", s.txns),
    ]
    for kind, name in (("view", "view_scan_rows_per_s"), ("join", "join_rows_per_s")):
        if s.read_s[kind]:
            out.append((name, s.read_rows[kind] / s.read_s[kind], "rows/s", s.read_rows[kind]))
    for kind, unit, samples in (
        ("load_row_us", "us", s.load_row_us), ("query_ms", "ms", s.query_ms),
        ("write_ms", "ms", s.write_ms),
    ):
        top = tail_percentile(len(samples))
        if top is None or top == 50:
            continue
        for pct in sorted({min(top, 99.0), top}):
            out.append((f"{kind}_p{pct:g}", percentile(samples, pct), unit, len(samples)))
    return out


def per_layer(rec, s, overhead_s: float) -> list[tuple[str, float, str, int]]:
    """(name, value, unit, samples) of every per-layer metric."""
    import numpy as np
    from spans import CALL, LAYERS

    names = np.frombuffer(rec.col["name"], dtype=np.uint16)
    kinds = np.frombuffer(rec.col["kind"], dtype=np.int8)
    self_s = np.frombuffer(rec.col["self"], dtype=np.float64)
    size = len(rec.names)
    calls_by = np.bincount(names[kinds == CALL], minlength=size)
    self_by = np.bincount(names, weights=self_s, minlength=size)
    calls = {n: int(calls_by[i]) for i, n in enumerate(rec.names)}
    selfs = {n: float(self_by[i]) for i, n in enumerate(rec.names)}
    counts, counters = rec.counts, s.counters

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = []
    for layer in LAYERS:
        members = [n for n in rec.names if rec.layer_of.get(n) == layer]
        out.append((f"{layer}.calls", sum(calls[n] for n in members), "count", 1))
        out.append((f"{layer}.self_s", sum(selfs[n] for n in members), "s", 1))
    rows_out = counts["executor.rows_out"]
    commits = calls.get("TephraServer.commit", 0) - sum(
        v for k, v in counts.items() if k.startswith("TephraServer.commit!")
    )
    out += [
        ("phoenix.executor.rows_out", rows_out, "rows", 1),
        ("phoenix.executor.rows_in_per_row_out", ratio(counts["executor.rows_in"], rows_out),
         "ratio", 1),
        ("hbase.client.scan_rows", counts["HTable.scan.yields"], "rows", 1),
        ("hbase.client.rpc", counters["client.rpc"], "count", 1),
        ("hbase.client.bytes", counters["client.bytes"], "bytes", 1),
        ("hbase.regionserver.flushes", calls.get("RegionServer.flush_region", 0), "count", 1),
        ("hbase.regionserver.compaction_self_s", selfs.get("HBaseCluster.major_compact", 0.0),
         "s", 1),
    ]
    out += [
        (f"hbase.regionserver.{c}", counters[f"rs.{c}"], "count", 1)
        for c in ("rows_read", "rows_written", "seek", "wal_append")
    ]
    out += [
        ("synergy.maintenance.view_rows_per_base_row",
         ratio(counts["maintenance.view_rows"], calls.get("ViewMaintainer.apply_insert", 0)),
         "ratio", 1),
        ("synergy.locks.lock_waits", counts["LockManager.acquire!LockWaitRequired"], "count", 1),
        ("mvcc.tephra.commit_ratio", ratio(commits, calls.get("TephraServer.begin", 0)),
         "ratio", 1),
        ("sim.clock.samples_held", s.samples_held, "count", 1),
    ]
    out += [
        (f"sim.scheduler.{c}", counters[f"sched.{c}"], "count", 1)
        for c in ("attempts", "lock_wait_count", "serial_wait_count", "conflict_abort_count")
    ]
    out += [
        ("trace.overhead_s", overhead_s, "s", 1),
        ("trace.spans", len(rec), "count", 1),
    ]
    return out


def run_workload(name: str, seed: int | None, seconds: float, trace: bool) -> int:
    from statistics import median

    from spans import Recorder
    from workloads import DESIGN, WORKLOADS, Samples

    design = DESIGN[name]
    seed = design["default_seed"] if seed is None else seed
    fn = WORKLOADS[name]
    samples = Samples()
    digests, walls = [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        t = time.perf_counter()
        digests.append(fn(seed, samples, None))
        walls.append(time.perf_counter() - t)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    digest_errors = []
    if len(set(digests)) != 1:
        digest_errors.append(f"passes disagree on the virtual-time digest: {digests}")
    if seed == design["default_seed"] and digests[0] != design["digest"]:
        digest_errors.append(
            f"digest {digests[0]} differs from the one recorded for seed {seed}"
        )
    print(f"# {name} seed={seed} passes={len(walls)} "
          f"pass_wall_s={[round(w, 3) for w in walls]} digest={digests[0]}")

    checked = [samples]
    if trace:
        traced = Samples()
        rec = Recorder()
        rec.install()
        try:
            t = time.perf_counter()
            traced_digest = fn(seed, traced, rec)
            traced_wall = time.perf_counter() - t
        finally:
            rec.uninstall()
        checked.append(traced)
        if traced_digest != digests[0]:
            digest_errors.append(f"traced digest {traced_digest} differs from untraced")
        out_dir = HERE / "out"
        out_dir.mkdir(exist_ok=True)
        spans_path = out_dir / f"{name}-seed{seed}.spans.npz"
        rec.write(str(spans_path))
        print(f"# traced pass {traced_wall:.3f} s, {len(rec)} spans -> {spans_path}")
        metrics = per_layer(rec, traced, traced_wall - median(walls))
        extra = []
    else:
        metrics = end_to_end(samples, peak_rss_mb)
        extra = reported(samples)

    attempted = sum(s.attempted for s in checked)
    failed = sum(s.failed for s in checked)
    if digest_errors:
        failed = attempted
    for message in digest_errors + [e for s in checked for e in s.errors]:
        print(f"# FAILED: {message}")
    for metric, value, unit, n in metrics + extra:
        print(f"{metric:44s} {value:16.6f} {unit:8s} n={n}")
    print(f"{'ops_failed/ops_attempted':44s} {failed}/{attempted}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": float(v), "unit": u} for m, v, u, _ in metrics},
    }
    print(json.dumps(result))
    return 0 if failed == 0 else 1


def run_all(args: argparse.Namespace) -> int:
    """Each workload in a fresh process, so its peak RSS is its own."""
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.seed is not None:
            cmd += ["--seed", str(args.seed)]
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True)
        print(proc.stdout, end="")
        lines = proc.stdout.strip().splitlines()
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            result = {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
        status = status or proc.returncode or (0 if result["correct"] else 1)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=None,
                        help="workload seed (default: the workload's recorded seed)")
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="run passes until this many seconds have elapsed")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no simulator sources at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(SRC))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
