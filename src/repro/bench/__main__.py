"""CLI: regenerate every table and figure, or run one suite's CI gate.

    python -m repro.bench --scale 200 --reps 10 --out results.txt
    python -m repro.bench --only fig11,storage --emit-json out.json
    python -m repro.bench --gate faults

The suites, their flags and their gates are the records in
:mod:`repro.bench.suites`. A suite's own flag under an ``--only`` that
does not select it is an error, not silently ignored. ``--emit-json``
writes the simulated-latency statistics plus the wall-clock seconds of
each timed suite (the TPC-W lab setup is its own ``tpcw_lab`` line);
deterministic suites record virtual time only, so reruns emit
byte-identical JSON. ``--gate`` writes into ``bench-gate/<suite>/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import subprocess
import sys
import time
from functools import partial
from pathlib import Path

from repro.bench.suites import SUITES, Suite, holds
from repro.bench.tpcw_lab import TpcwLab

#: Directory ``--gate`` writes its smoke outputs and rerun JSON into.
GATE_DIR = "bench-gate"


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.bench",
        description="Regenerate every table and figure of the paper.",
    )
    parser.add_argument("--scale", type=int, default=200,
                        help="TPC-W customers (paper: 1,000,000)")
    parser.add_argument("--reps", type=int, default=10,
                        help="repetitions per measurement (paper: 10)")
    for suite in SUITES.values():
        for flag in suite.flags:
            parser.add_argument(flag.name, type=flag.type,
                                default=flag.default, help=flag.help)
    parser.add_argument("--only", type=str, default=None,
                        help="comma-separated subset of experiments to run: "
                             + ",".join(SUITES))
    parser.add_argument("--gate", choices=[n for n, s in SUITES.items() if s.gate],
                        default=None,
                        help="run this suite's CI gate at its fixed CI "
                             "arguments and exit nonzero naming any failed "
                             "predicate")
    parser.add_argument("--out", type=str, default=None,
                        help="also write the report to this file")
    parser.add_argument("--emit-json", type=str, default=None,
                        help="write wall-clock + simulated-latency trajectory "
                             "JSON to this file")
    parser.add_argument("--baseline-json", type=str, default=None,
                        help="previously emitted JSON to compare wall-clock "
                             "against (recorded in the output)")
    parser.add_argument("--quiet", action="store_true")
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)

    if args.gate is not None:
        ignored = sorted(
            f"--{dest.replace('_', '-')}"
            for dest, value in vars(args).items()
            if dest not in ("gate", "quiet") and value != parser.get_default(dest)
        )
        if ignored:
            parser.error(
                "--gate runs the suite at its fixed CI arguments; drop "
                + ", ".join(ignored)
            )
        return run_gate(SUITES[args.gate])

    say = (lambda _m: None) if args.quiet else (
        lambda m: print(f"  .. {m}", file=sys.stderr)
    )
    valid = ", ".join(SUITES)
    selected = (
        set(SUITES)
        if args.only is None
        else {s.strip() for s in args.only.split(",") if s.strip()}
    )
    unknown = selected - set(SUITES)
    if unknown:
        parser.error(f"unknown experiments: {sorted(unknown)} (valid: {valid})")
    if not selected:
        parser.error(f"--only selected no experiments (valid: {valid})")
    if args.only is not None:
        contradictory = sorted(
            f"{flag.name} (belongs to {suite.name!r})"
            for suite in SUITES.values()
            if suite.name not in selected
            for flag in suite.flags
            if getattr(args, flag.dest) != flag.default
        )
        if contradictory:
            parser.error(
                "flags for experiments not selected by --only would be "
                "silently ignored: " + ", ".join(contradictory)
            )
    baseline = None
    if args.baseline_json:
        # fail before the (potentially long) run, not after it
        try:
            with open(args.baseline_json) as f:
                baseline = json.load(f)
        except (OSError, ValueError) as e:
            parser.error(f"cannot read --baseline-json: {e}")

    sections: list[str] = []
    wall_clock_s: dict[str, float] = {}
    experiments: dict[str, dict] = {}

    def timed(name: str, fn):
        t0 = time.perf_counter()
        out = fn()
        wall_clock_s[name] = round(time.perf_counter() - t0, 4)
        return out

    lab = None
    for suite in SUITES.values():
        if suite.name not in selected:
            continue
        if suite.uses_lab and lab is None:
            # one population + measurement pass serves every lab suite
            lab = TpcwLab(num_customers=args.scale, repetitions=args.reps)
            timed("tpcw_lab", lambda: lab.measure_all(say))
        run = partial(suite.run, args, say, lab)
        # deterministic suites are never wall-clock timed, so their
        # emitted JSON stays byte-identical across runs
        out = run() if suite.deterministic else timed(suite.name, run)
        if isinstance(out, str):
            sections.append(out)
            continue
        for result in out:
            experiments[result.experiment_id] = result.to_dict()
            sections.append(result.to_text())

    report = "\n\n".join(sections)
    print(report)
    if args.out:
        with open(args.out, "w") as f:
            f.write(report + "\n")
    if args.emit_json:
        payload = {
            # the output path is stripped so two runs of the same
            # experiment emit byte-identical files wherever they land
            "generated_by": "python -m repro.bench " + " ".join(
                _without_output_paths(
                    argv if argv is not None else sys.argv[1:]
                )
            ),
            "config": {
                "scale": args.scale,
                "reps": args.reps,
                "micro_scales": args.micro_scales,
                "storage_rows": args.storage_rows,
            },
            "wall_clock_s": wall_clock_s,
            "experiments": experiments,
        }
        if baseline is not None:
            payload["baseline"] = baseline
            payload["wall_clock_speedup_vs_baseline"] = _speedups(
                baseline, experiments, wall_clock_s
            )
        _write_json(args.emit_json, payload)
    return 0


def run_gate(suite: Suite) -> int:
    """Run ``suite``'s gate; 0 when every predicate holds, else 1."""
    gate = suite.gate
    out_dir = Path(GATE_DIR, suite.name)
    out_dir.mkdir(parents=True, exist_ok=True)
    failed: list[str] = []
    for smoke in gate.smokes:
        name = smoke.call.func.__name__
        out = smoke.call()
        print(f"[gate {suite.name}] {name}: {out}")
        _write_json(out_dir / f"{name}.json", out)
        for predicate in smoke.predicates:
            failed += _verdict(suite, predicate, holds(predicate, out))
    if gate.sweep and not failed:
        paths = [out_dir / f"{suite.name}-{x}.json" for x in "ab"]
        for path in paths:
            # separate processes: no state cached in this one can make
            # the two files agree
            argv = [sys.executable, "-m", "repro.bench", "--only", suite.name,
                    *gate.sweep, "--emit-json", str(path), "--quiet"]
            returncode = subprocess.run(argv, stdout=subprocess.DEVNULL).returncode
            failed += _verdict(suite, f"exit 0: {' '.join(argv[1:])}",
                               returncode == 0)
        if not failed:
            first, second = (p.read_bytes() for p in paths)
            failed += _verdict(suite, f"{paths[0]} == {paths[1]} byte for byte",
                               first == second)
            # reruns of one commit agree with each other; the recorded
            # digest also catches output that moved since the last commit
            digest = hashlib.sha256(first).hexdigest()
            failed += _verdict(suite, f"sha256 {digest} == recorded {gate.digest}",
                               digest == gate.digest)
            doc = json.loads(first)
            for check in gate.json_checks:
                failed += _verdict(suite, check.__name__, check(doc))
    if failed:
        print(f"gate {suite.name} FAILED: " + "; ".join(failed), file=sys.stderr)
        return 1
    print(f"[gate {suite.name}] all predicates hold")
    return 0


def _verdict(suite: Suite, name: str, ok) -> list[str]:
    """Print one predicate's outcome; ``[name]`` when it failed."""
    print(f"[gate {suite.name}] {'ok  ' if ok else 'FAIL'} {name}")
    return [] if ok else [name]


def _write_json(path: str | Path, payload: dict) -> None:
    with open(path, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")


def _without_output_paths(argv: list[str]) -> list[str]:
    out: list[str] = []
    skip = False
    for arg in argv:
        if skip:
            skip = False
            continue
        if arg in ("--emit-json", "--out"):
            skip = True
            continue
        if arg.startswith(("--emit-json=", "--out=")):
            continue
        out.append(arg)
    return out


def _speedups(
    baseline: dict, experiments: dict, wall_clock_s: dict
) -> dict[str, float]:
    """baseline wall-clock / current wall-clock, per experiment that
    both runs measured. The storage phases use the noise-robust
    best-of-reps series when both sides recorded it."""
    out: dict[str, float] = {}
    for name, now_s in wall_clock_s.items():
        base_s = baseline.get("wall_clock_s", {}).get(name)
        if base_s is not None and now_s:  # skip only unmeasured/zero denominators
            out[name] = round(base_s / now_s, 2)
    base = baseline.get("experiments", {}).get("StoragePerf", {})
    cur = experiments.get("StoragePerf", {})
    for label in ("Best wall-clock (s)", "Wall-clock (s)"):
        base_series = base.get("series", {}).get(label, {})
        cur_series = cur.get("series", {}).get(label, {})
        if base_series and cur_series:
            for phase, stat in base_series.items():
                now = cur_series.get(phase)
                if stat and now and now.get("mean"):
                    out[f"storage_{phase}"] = round(stat["mean"] / now["mean"], 2)
            break
    return out


if __name__ == "__main__":
    raise SystemExit(main())
