"""Unit tests for the virtual-time substrate."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.sim.clock import SimClock, Simulation
from repro.sim.metrics import MetricsRegistry, Timer, percentile
from repro.sim.rng import derive_rng, derive_seed


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now_ms == 0.0

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(5.0)
        clock.advance(2.5)
        assert clock.now_ms == pytest.approx(7.5)

    def test_cannot_go_backwards(self):
        with pytest.raises(ValueError):
            SimClock().advance(-1.0)

    @given(st.lists(st.floats(min_value=0, max_value=1e6), max_size=50))
    def test_monotonic_under_any_charge_sequence(self, deltas):
        clock = SimClock()
        last = 0.0
        for d in deltas:
            clock.advance(d)
            assert clock.now_ms >= last
            last = clock.now_ms


class TestSimulation:
    def test_charge_advances_clock(self):
        sim = Simulation()
        sim.charge(3.0)
        assert sim.clock.now_ms == pytest.approx(3.0)

    def test_charge_records_timer(self):
        sim = Simulation()
        sim.charge(3.0, "x")
        assert sim.metrics.timer("x").total_ms == pytest.approx(3.0)

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Simulation().charge(-0.1)

    def test_stopwatch_measures_delta(self):
        sim = Simulation()
        sw = sim.stopwatch()
        sim.charge(10.0)
        assert sw.stop() == pytest.approx(10.0)

    def test_measure_context_manager(self):
        sim = Simulation()
        with sim.measure("op") as sw:
            sim.charge(4.0)
        assert sw.elapsed_ms == pytest.approx(4.0)
        assert sim.metrics.timer("op").count == 1

    def test_jitter_is_deterministic_per_seed(self):
        a = Simulation(seed=7, jitter_fraction=0.1)
        b = Simulation(seed=7, jitter_fraction=0.1)
        for _ in range(10):
            a.charge(1.0)
            b.charge(1.0)
        assert a.clock.now_ms == pytest.approx(b.clock.now_ms)

    def test_jitter_changes_with_seed(self):
        a = Simulation(seed=7, jitter_fraction=0.1)
        b = Simulation(seed=8, jitter_fraction=0.1)
        for _ in range(10):
            a.charge(1.0)
            b.charge(1.0)
        assert a.clock.now_ms != b.clock.now_ms

    def test_zero_jitter_is_exact(self):
        sim = Simulation(seed=7, jitter_fraction=0.0)
        for _ in range(10):
            sim.charge(1.0)
        assert sim.clock.now_ms == pytest.approx(10.0)

    def test_reset_clock_preserves_metrics(self):
        sim = Simulation()
        sim.charge(5.0, "op")
        sim.reset_clock()
        assert sim.clock.now_ms == 0.0
        assert sim.metrics.timer("op").count == 1


class TestMetrics:
    def test_counter_inc(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.counter("a").inc(4)
        assert reg.counters()["a"] == 5

    def test_timer_stats(self):
        t = Timer("t")
        for v in (1.0, 2.0, 3.0):
            t.record(v)
        assert t.count == 3
        assert t.mean_ms == pytest.approx(2.0)
        assert t.total_ms == pytest.approx(6.0)
        assert t.stderr_ms > 0

    def test_timer_stderr_single_sample_is_zero(self):
        t = Timer("t")
        t.record(5.0)
        assert t.stderr_ms == 0.0

    def test_reset(self):
        reg = MetricsRegistry()
        reg.counter("a").inc()
        reg.timer("t").record(1.0)
        reg.reset()
        assert reg.counters()["a"] == 0
        assert reg.timer("t").count == 0


class TestPercentile:
    def test_empty_is_nan(self):
        assert math.isnan(percentile([], 0.5))

    def test_q0_is_min_and_q1_is_max(self):
        samples = [5.0, 1.0, 3.0, 9.0, 7.0]
        assert percentile(samples, 0.0) == 1.0
        assert percentile(samples, 1.0) == 9.0

    def test_p99_of_100_samples_is_the_99th_value(self):
        samples = list(range(100, 0, -1))  # 1..100, unsorted
        assert percentile(samples, 0.99) == 99


class TestRng:
    def test_derive_seed_deterministic(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")

    def test_derive_seed_label_sensitive(self):
        assert derive_seed(1, "x") != derive_seed(1, "y")

    def test_derive_rng_streams_independent(self):
        a = derive_rng(1, "a")
        b = derive_rng(1, "b")
        assert list(a.integers(0, 100, 5)) != list(b.integers(0, 100, 5))

    @given(st.integers(min_value=0, max_value=2**32), st.text(max_size=20))
    def test_derive_seed_in_range(self, seed, label):
        s = derive_seed(seed, label)
        assert 0 <= s < 2**64
