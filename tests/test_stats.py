"""Aggregation math, summary formatting, and reference comparison."""

import math
import random

import pytest

from sentinel.experiment import RecordError, RunRecord, read_records
from sentinel.fixtures import fixture_path
from sentinel.stats import (
    SUMMARY_CSV_HEADER,
    aggregate,
    format_summary_table,
    sample_std,
    summary_csv_row,
    verify_against_reference,
)


def load_fixture(name):
    return read_records(fixture_path(name))


def record(run, ea, result, steps, time_s, reformed):
    return RunRecord(
        run=run, ea=ea, result=result, steps=steps, time_s=time_s, healthy=5, malicious=1, reformed=reformed
    )


# --- primitives -----------------------------------------------------------------


def test_mean_of_a_constant_list():
    stats = aggregate([record(i, 2, "success", 1200, 120.0, 1) for i in range(1, 8)])
    assert (stats.avg_steps, stats.avg_duration_s, stats.duration_std_s) == (1200, 120.0, 0.0)


def test_sample_std_of_a_single_value_is_zero():
    assert sample_std([42.0]) == 0.0


def test_empty_input_is_rejected():
    with pytest.raises(RecordError, match="^no records to aggregate$"):
        aggregate([])


def test_sample_std_uses_the_n_minus_one_denominator():
    # 19 ones and 11 zeros, the reference reformed column for two agents.
    values = [1] * 19 + [0] * 11
    assert sample_std(values) == pytest.approx(0.49, abs=0.005)
    p = sum(values) / len(values)
    exact = math.sqrt(p * (1 - p) * 30 / 29)
    assert sample_std(values) == pytest.approx(exact, abs=1e-12)


def test_bernoulli_identity_holds_for_random_columns():
    rng = random.Random(55)
    for _ in range(50):
        n = rng.randint(2, 60)
        values = [rng.randint(0, 1) for _ in range(n)]
        p = sum(values) / len(values)
        expected_var = p * (1 - p) * n / (n - 1)
        assert sample_std(values) ** 2 == pytest.approx(expected_var, abs=1e-12)


# --- aggregation ------------------------------------------------------------------


def test_aggregate_requires_a_homogeneous_ea_column():
    records = [
        record(1, 0, "fail", 116, 11.6, 0),
        record(2, 1, "fail", 116, 11.6, 0),
    ]
    with pytest.raises(RecordError, match=r"^records mix ea counts \[0, 1\]$"):
        aggregate(records)


def test_aggregate_is_permutation_invariant():
    records = load_fixture("two_ea")
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert aggregate(shuffled) == aggregate(records)


def test_two_agent_fixture_reproduces_the_reference_column():
    stats = aggregate(load_fixture("two_ea"))
    assert stats.ea == 2
    assert stats.n_runs == 30
    assert stats.success_rate_pct == pytest.approx(100.0 * 8 / 30, abs=1e-9)
    assert stats.avg_duration_s == pytest.approx(53.5, abs=0.05)
    assert stats.duration_std_s == pytest.approx(42.7, abs=0.1)
    assert stats.avg_steps == pytest.approx(559.1, abs=0.05)
    assert stats.avg_reformed == pytest.approx(19 / 30, abs=1e-9)
    assert stats.reformed_std == pytest.approx(0.49, abs=0.005)
    assert stats.avg_malicious == 1.0
    assert stats.malicious_std == 0.0


def test_no_agent_fixture_reproduces_the_reference_column():
    stats = aggregate(load_fixture("no_ea"))
    assert stats.success_rate_pct == 0.0
    assert stats.avg_duration_s == pytest.approx(14.0183, abs=1e-3)
    assert stats.duration_std_s == pytest.approx(8.0162, abs=1e-3)
    assert stats.avg_steps == 169.0
    assert stats.avg_reformed == 0.0
    assert stats.reformed_std == 0.0


def test_one_agent_fixture_recomputes_against_the_corrected_rows():
    stats = aggregate(load_fixture("one_ea"))
    assert stats.success_rate_pct == pytest.approx(100.0 / 30, abs=1e-9)
    assert stats.avg_reformed == pytest.approx(4 / 30, abs=1e-9)
    assert stats.avg_steps == pytest.approx(204.7, abs=0.05)


def test_aggregate_stores_full_precision():
    stats = aggregate(load_fixture("two_ea"))
    assert stats.avg_steps != round(stats.avg_steps, 1)
    assert stats.avg_steps == pytest.approx(16772 / 30, abs=1e-9)


def test_aggregate_invariants_on_random_batches():
    rng = random.Random(42)
    for _ in range(30):
        n = rng.randint(1, 40)
        records = []
        for i in range(1, n + 1):
            steps = rng.randint(0, 1200)
            records.append(
                record(i, 2, "success" if steps == 1200 else "fail", steps, round(steps / 10, 2), rng.randint(0, 1))
            )
        stats = aggregate(records)
        assert 0.0 <= stats.success_rate_pct <= 100.0
        assert stats.duration_std_s >= 0.0
        assert stats.reformed_std >= 0.0
        assert stats.malicious_std >= 0.0
        assert stats.n_runs == n


# --- display ---------------------------------------------------------------------


def test_summary_csv_row_rounds_like_the_reference_table():
    stats = aggregate(load_fixture("two_ea"))
    row = summary_csv_row("two_ea", stats)
    assert row == "two_ea,2,30,26.7,53.5,42.7,559.1,0.63,0.49,1.00,0.00"
    assert len(row.split(",")) == len(SUMMARY_CSV_HEADER.split(","))


def test_summary_table_lists_metrics_as_rows():
    columns = [("no_ea", aggregate(load_fixture("no_ea"))), ("two_ea", aggregate(load_fixture("two_ea")))]
    table = format_summary_table(columns)
    lines = table.splitlines()
    assert lines[0].split()[0] == "Metric"
    assert "Success Rate (%)" in table
    assert "Avg Reformed" in table
    assert "Runs" in lines[-1]
    assert "26.7" in table
    assert "559.1" in table


# --- reference comparison -----------------------------------------------------------


def test_two_agent_recomputation_matches_the_reference():
    assert verify_against_reference(aggregate(load_fixture("two_ea"))) == []


def flagged_labels(messages):
    return [message.split(":")[0] for message in messages]


def test_one_agent_recomputation_diverges_from_the_reference():
    messages = verify_against_reference(aggregate(load_fixture("one_ea")))
    assert flagged_labels(messages) == [
        "Success Rate (%)",
        "Avg Duration (s)",
        "Duration Std (s)",
        "Avg Steps",
        "Avg Reformed",
        "Reformed Std",
    ]
    joined = "\n".join(messages)
    assert "7.4" in joined
    assert "263.5" in joined
    assert "0.20" in joined


def test_no_agent_recomputation_flags_the_known_steps_drift():
    messages = verify_against_reference(aggregate(load_fixture("no_ea")))
    assert messages == [
        "Duration Std (s): recomputed 8.02 vs reference 7.9",
        "Avg Steps: recomputed 169.00 vs reference 168.3",
    ]


def test_unknown_configurations_have_no_reference_column():
    records = [record(i, 5, "fail", 100, 10.0, 0) for i in range(1, 4)]
    messages = verify_against_reference(aggregate(records))
    assert messages == ["no reference column for ea=5"]
