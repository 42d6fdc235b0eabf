"""Tests of the benchmark's own arithmetic, on synthetic input.

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

from spans import CALL, RESUME, Recorder, self_time, union_length  # noqa: E402
from stats import beyond, percentile, tail_percentile  # noqa: E402


# ------------------------------------------------------------------ self time
def test_union_of_disjoint_overlapping_and_nested_intervals():
    assert union_length([]) == 0.0
    assert union_length([(0, 1), (2, 3)]) == 2.0
    assert union_length([(0, 2), (1, 3)]) == 3.0  # overlapping
    assert union_length([(0, 10), (2, 3), (4, 5)]) == 10.0  # nested
    assert union_length([(5, 6), (0, 2), (1, 3)]) == 4.0  # unsorted


def test_self_time_subtracts_the_union_of_children():
    # overlapping children [1,3] and [2,4] cover 3, not 4
    assert self_time(0, 10, [(1, 3), (2, 4), (6, 7)]) == 6.0
    # a child nested inside another child is not subtracted twice
    assert self_time(0, 10, [(1, 5), (2, 3)]) == 6.0


def test_self_time_clips_children_to_the_span():
    assert self_time(0, 10, [(8, 12)]) == 8.0
    assert self_time(0, 10, [(-5, -1), (11, 12)]) == 10.0
    assert self_time(0, 10, [(-1, 11)]) == 0.0


def test_recorded_self_times_add_up_to_the_root_duration():
    rec = Recorder()

    def leaf():
        time.sleep(0.002)

    def scan():
        for i in range(3):
            rec.call("leaf", leaf)
            yield i

    def middle():
        rec.call("leaf", leaf)
        return list(rec.resumptions("scan", scan()))

    rec.new_trace()
    assert rec.call("root", middle) == [0, 1, 2]
    names = [rec.names[i] for i in rec.col["name"]]
    assert names.count("leaf") == 4
    assert names.count("scan") == 4  # three items and the exhausted resumption
    assert list(rec.col["kind"]).count(RESUME) == 4
    assert set(rec.col["trace"]) == {1}
    root = names.index("root")
    assert rec.col["kind"][root] == CALL
    assert rec.col["parent"][root] == 0
    duration = rec.col["end"][root] - rec.col["start"][root]
    assert abs(sum(rec.col["self"]) - duration) < 1e-9
    assert all(s >= 0 for s in rec.col["self"])


def test_resumptions_carry_the_trace_they_were_given():
    rec = Recorder()
    gen = rec.resumptions("txn", iter([1, 2]), trace=7)
    rec.new_trace()
    assert next(gen) == 1
    assert rec.trace == 1  # restored between resumptions
    assert list(gen) == [2]
    assert set(rec.col["trace"]) == {7}


# ------------------------------------------------------------------ percentile rule
def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert tail_percentile(19) is None
    assert tail_percentile(20) == 50.0
    assert tail_percentile(99) == 50.0
    assert tail_percentile(100) == 90.0
    assert tail_percentile(999) == 90.0
    assert tail_percentile(1000) == 99.0
    assert tail_percentile(9999) == 99.0
    assert tail_percentile(10000) == 99.9


def test_samples_beyond_a_nearest_rank_percentile():
    assert beyond(1000, 99) == 10
    assert beyond(1020, 99) == 10
    assert beyond(999, 99) == 9


def test_nearest_rank_percentile():
    samples = list(range(100, 0, -1))
    assert percentile(samples, 50) == 50
    assert percentile(samples, 99) == 99
    assert percentile(samples, 100) == 100
    assert percentile([3.0], 99) == 3.0


# ------------------------------------------------------------------ result comparison
def test_canonical_rows_ignore_order_and_table_qualifiers():
    from workloads import canonical

    a = [{"i_id": 2, "SUM(v0.ol_qty)": 8}, {"i_id": 1, "SUM(v0.ol_qty)": 9}]
    b = [{"SUM(ol.ol_qty)": 9, "i_id": 1}, {"SUM(ol.ol_qty)": 8, "i_id": 2}]
    assert canonical(a) == canonical(b)
    assert canonical(a) != canonical(b[:1])


def test_top_k_form_ignores_which_tied_rows_were_kept():
    from workloads import top_k_canonical

    def rows(*pairs):
        return [{"ol_i_id": i, "SUM(ol2.ol_qty)": q} for q, i in pairs]

    order = ("SUM(ol_qty)",)
    kept = top_k_canonical(rows((9, 1), (6, 98)), order)
    assert kept == top_k_canonical(rows((9, 1), (6, 163)), order)
    assert kept != top_k_canonical(rows((9, 2), (6, 98)), order)
    assert kept != top_k_canonical(rows((9, 1), (5, 98)), order)
