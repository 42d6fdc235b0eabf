"""Benchmark harness: statistics, result rendering, and the fast
experiments (Fig. 10 at tiny scale, Fig. 11, static tables)."""

import math
import re
from functools import partial
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from repro.bench.experiments import run_fig10, run_fig11, run_fig13, run_table1
from repro.bench.harness import (
    ExperimentResult,
    Stat,
    ratio_of_means,
    render_table,
    summarize,
)
from repro.bench.suites import SUITES, Gate, Smoke, Suite

#: Every suite-specific flag, with the suite it belongs to.
SUITE_FLAGS = [
    pytest.param(suite, flag, id=flag.name)
    for suite in SUITES.values()
    for flag in suite.flags
]


class TestStats:
    def test_summarize_mean_and_stderr(self):
        s = summarize([1.0, 2.0, 3.0])
        assert s.mean == pytest.approx(2.0)
        assert s.stderr == pytest.approx(math.sqrt(1.0 / 3.0))
        assert s.n == 3

    def test_single_sample(self):
        s = summarize([5.0])
        assert s.mean == 5.0 and s.stderr == 0.0

    def test_empty(self):
        assert math.isnan(summarize([]).mean)

    @given(st.lists(st.floats(0, 1e6), min_size=2, max_size=50))
    def test_mean_within_range(self, xs):
        s = summarize(xs)
        assert min(xs) - 1e-9 <= s.mean <= max(xs) + 1e-9


class TestRendering:
    def test_render_table_alignment(self):
        text = render_table(["a", "bb"], [["1", "2"], ["333", "4"]])
        lines = text.splitlines()
        assert len({len(l) for l in lines}) == 1  # rectangular

    def test_experiment_result_text(self):
        r = ExperimentResult("F", "title", "x")
        r.x_values = [1, 2]
        s = r.add_series("sys")
        s.set(1, Stat(10.0, 0.5, 3))
        s.set(2, None)
        text = r.to_text()
        assert "10.0" in text and "X" in text

    def test_ratio_of_means(self):
        r = ExperimentResult("F", "t", "x")
        r.x_values = ["a"]
        r.add_series("n").set("a", Stat(10.0, 0, 1))
        r.add_series("d").set("a", Stat(5.0, 0, 1))
        assert ratio_of_means(r, "n", "d") == pytest.approx(2.0)


class TestFastExperiments:
    def test_fig11_overhead_monotonic(self):
        result = run_fig11(lock_counts=(5, 50), repetitions=2)
        small = result.get("Overhead", 5)
        large = result.get("Overhead", 50)
        assert small.mean < large.mean
        # fixed setup cost dominates the small count (sub-linear shape)
        assert large.mean < small.mean * 10

    def test_fig10_view_scan_beats_join(self):
        results = run_fig10(scales=(20,), repetitions=2)
        for qid, result in results.items():
            view = result.get("View Scan", 20)
            join = result.get("Join Algorithm", 20)
            assert view.mean < join.mean, qid

    def test_fig13_matrix(self):
        text = run_fig13()
        for name in ("VoltDB", "Synergy", "MVCC-A", "MVCC-UA", "Baseline"):
            assert name in text

    def test_table1_static(self):
        text = run_table1()
        assert "read committed" in text


class TestCliErrors:
    """The bench CLI must refuse nonsense loudly, not run nothing or
    silently drop flags."""

    def _error(self, argv):
        from repro.bench.__main__ import main

        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        return exc

    def test_unknown_suite_exits_nonzero_listing_valid(self, capsys):
        self._error(["--only", "nosuchsuite"])
        err = capsys.readouterr().err
        assert "unknown experiments" in err
        assert "nosuchsuite" in err
        # the valid suites are listed so the caller can self-correct
        assert "valid:" in err
        for suite in ("query", "federation", "concurrency"):
            assert suite in err

    def test_empty_selection_exits_nonzero(self, capsys):
        self._error(["--only", " , "])
        err = capsys.readouterr().err
        assert "no experiments" in err
        assert "federation" in err

    def test_suite_flag_with_other_only_is_rejected(self, capsys):
        self._error(["--only", "query", "--federation-scale", "99"])
        err = capsys.readouterr().err
        assert "--federation-scale" in err
        assert "federation" in err

    def test_multiple_contradictory_flags_all_reported(self, capsys):
        self._error([
            "--only", "table1",
            "--query-reps", "9", "--serving-ops", "1",
        ])
        err = capsys.readouterr().err
        assert "--query-reps" in err
        assert "--serving-ops" in err

    def test_suite_flag_with_matching_only_is_accepted(self, capsys):
        # table1 is static; adding its own suite's flag must not error
        from repro.bench.__main__ import main

        assert main(["--only", "table1", "--quiet"]) == 0
        capsys.readouterr()

    def test_default_flags_with_only_are_fine(self, capsys):
        from repro.bench.__main__ import main

        assert main(["--only", "fig13", "--quiet"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("suite, flag", SUITE_FLAGS)
    def test_every_suite_flag_rejected_under_other_only(self, capsys, suite, flag):
        other = next(name for name in SUITES if name != suite.name)
        value = "3" if flag.type is str else str(flag.default + 1)
        self._error(["--only", other, flag.name, value])
        err = capsys.readouterr().err
        assert flag.name in err
        assert repr(suite.name) in err

    def test_gate_rejects_other_flags(self, capsys):
        self._error(["--gate", "faults", "--faults-ops", "9"])
        assert "--faults-ops" in capsys.readouterr().err


class TestSuiteRecords:
    def test_gates_are_well_formed(self):
        for suite in SUITES.values():
            if suite.gate is None:
                continue
            for smoke in suite.gate.smokes:
                for predicate in smoke.predicates:
                    compile(predicate, suite.name, "eval")
            if not suite.gate.sweep:
                continue
            # the byte-identical rerun only makes sense without wall-clock
            assert suite.deterministic, suite.name
            assert re.fullmatch("[0-9a-f]{64}", suite.gate.digest), suite.name
            own = {flag.name for flag in suite.flags}
            sweep_flags = {a for a in suite.gate.sweep if a.startswith("--")}
            assert sweep_flags <= own, (suite.name, sweep_flags - own)

    def test_ci_gate_matrix_lists_every_gated_suite(self):
        ci = Path(__file__).resolve().parents[1] / ".github/workflows/ci.yml"
        matrix = re.search(r"suite: \[([^\]]*)\]", ci.read_text()).group(1)
        listed = [s.strip() for s in matrix.split(",")]
        assert listed == [name for name, s in SUITES.items() if s.gate]

    def test_gate_names_the_failing_predicate(self, capsys, monkeypatch, tmp_path):
        from repro.bench.__main__ import main

        smoke = Smoke(
            partial(lambda: {"hits": 0, "errors": 0}),
            ('out["errors"] == 0', 'out["hits"] > 0'),
        )
        stub = Suite("stub", run=lambda a, say, lab: [], gate=Gate(smokes=(smoke,)))
        monkeypatch.setitem(SUITES, "stub", stub)
        monkeypatch.chdir(tmp_path)
        assert main(["--gate", "stub"]) == 1
        err = capsys.readouterr().err
        assert 'out["hits"] > 0' in err
        assert 'out["errors"] == 0' not in err

    def test_gate_fails_on_a_sweep_digest_other_than_the_recorded_one(
        self, capsys, monkeypatch, tmp_path
    ):
        """Two reruns that agree with each other still fail when their
        JSON differs from the digest recorded with the suite."""
        import hashlib
        import subprocess

        from repro.bench import __main__ as cli

        def fake_run(argv, **kwargs):
            Path(argv[argv.index("--emit-json") + 1]).write_bytes(b"{}\n")
            return subprocess.CompletedProcess(argv, 0)

        monkeypatch.setattr(cli.subprocess, "run", fake_run)
        monkeypatch.chdir(tmp_path)
        for digest, code in ((hashlib.sha256(b"{}\n").hexdigest(), 0), ("0" * 64, 1)):
            stub = Suite("stub", run=lambda a, say, lab: [], deterministic=True,
                         gate=Gate(sweep=("--reps", "1"), digest=digest))
            assert cli.run_gate(stub) == code
        assert "== recorded " + "0" * 64 in capsys.readouterr().err
