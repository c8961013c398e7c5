"""Aggregation of run records into summary metrics.

Values are kept at full precision; rounding happens only in the display
helpers (percentages and seconds to 1 decimal, means to 2 decimals).
"""

from dataclasses import dataclass

from .experiment import RecordError, RunRecord


def sample_std(values: list) -> float:
    """Standard deviation with the n-1 denominator; 0.0 for a single value."""
    # Imported here and in aggregate: only a command that aggregates pays for
    # loading statistics.
    from statistics import stdev

    return stdev(values) if len(values) > 1 else 0.0


@dataclass(frozen=True)
class AggregateStats:
    ea: int
    n_runs: int
    success_rate_pct: float
    avg_duration_s: float
    duration_std_s: float
    avg_steps: float
    avg_reformed: float
    reformed_std: float
    avg_malicious: float
    malicious_std: float


def aggregate(records: list[RunRecord]) -> AggregateStats:
    """One summary column over records that share an ea count; a RecordError
    for no records or records of differing ea counts."""
    from statistics import fmean

    if not records:
        raise RecordError("no records to aggregate")
    eas = {r.ea for r in records}
    if len(eas) != 1:
        raise RecordError(f"records mix ea counts {sorted(eas)}")
    times = [r.time_s for r in records]
    reformed = [r.reformed for r in records]
    malicious = [r.malicious for r in records]
    return AggregateStats(
        ea=eas.pop(),
        n_runs=len(records),
        success_rate_pct=100.0 * sum(1 for r in records if r.result == "success") / len(records),
        avg_duration_s=fmean(times),
        duration_std_s=sample_std(times),
        avg_steps=fmean([r.steps for r in records]),
        avg_reformed=fmean(reformed),
        reformed_std=sample_std(reformed),
        avg_malicious=fmean(malicious),
        malicious_std=sample_std(malicious),
    )


# --- display -----------------------------------------------------------------

# (label, attribute, decimals); the layout of the printed summary table.
_TABLE_ROWS = (
    ("Success Rate (%)", "success_rate_pct", 1),
    ("Avg Duration (s)", "avg_duration_s", 1),
    ("Duration Std (s)", "duration_std_s", 1),
    ("Avg Steps", "avg_steps", 1),
    ("Avg Reformed", "avg_reformed", 2),
    ("Reformed Std", "reformed_std", 2),
    ("Avg Malicious", "avg_malicious", 2),
    ("Malicious Std", "malicious_std", 2),
)

SUMMARY_CSV_HEADER = ",".join(["label", "ea", "n_runs"] + [attr for _, attr, _ in _TABLE_ROWS])


def summary_csv_row(label: str, stats: AggregateStats) -> str:
    """One row under SUMMARY_CSV_HEADER. A label, an input path, that holds
    a comma, a quote or a line break is quoted as RFC 4180 quotes it."""
    if any(c in label for c in ',"\r\n'):
        label = '"' + label.replace('"', '""') + '"'
    metrics = [f"{getattr(stats, attr):.{decimals}f}" for _, attr, decimals in _TABLE_ROWS]
    return ",".join([label, str(stats.ea), str(stats.n_runs)] + metrics)


def format_summary_table(columns: list[tuple[str, AggregateStats]]) -> str:
    """Aligned text table, metrics as rows and one column per aggregate."""
    headers = ["Metric"] + [label for label, _ in columns]
    rows = [headers]
    for label, attr, decimals in _TABLE_ROWS:
        row = [label] + [f"{getattr(stats, attr):.{decimals}f}" for _, stats in columns]
        rows.append(row)
    rows.append(["Runs"] + [str(stats.n_runs) for _, stats in columns])
    widths = [max(len(r[i]) for r in rows) for i in range(len(headers))]
    out = []
    for r in rows:
        cells = [r[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(r[1:], widths[1:])]
        out.append("  ".join(cells).rstrip())
    return "\n".join(out)


# --- reference comparison ----------------------------------------------------

# Reference summaries for the 0/1/2 agent configurations, used by
# the --verify flag to call out where recomputed aggregates differ.
REFERENCE_AGGREGATES = {
    row[0]: AggregateStats(*row)
    for row in (
        # ea, n_runs, success %, duration s and std, steps, reformed and std, malicious and std
        (0, 30, 0.0, 14.0, 7.9, 168.3, 0.00, 0.00, 1.00, 0.00),
        (1, 30, 7.4, 23.9, 28.1, 263.5, 0.20, 0.41, 1.00, 0.00),
        (2, 30, 26.7, 53.5, 42.7, 559.1, 0.63, 0.49, 1.00, 0.00),
    )
}


def verify_against_reference(stats: AggregateStats) -> list[str]:
    """Divergence messages versus the reference column for this ea count.

    A metric diverges when it disagrees with the reference beyond the
    reference's own print precision. Empty means agreement everywhere;
    a single message flags a configuration with no reference column.
    """
    ref = REFERENCE_AGGREGATES.get(stats.ea)
    if ref is None:
        return [f"no reference column for ea={stats.ea}"]
    messages = []
    for label, attr, decimals in _TABLE_ROWS:
        got = getattr(stats, attr)
        expected = getattr(ref, attr)
        tolerance = 0.5 * 10.0 ** (-decimals) + 1e-9
        if abs(got - expected) > tolerance:
            messages.append(f"{label}: recomputed {got:.{decimals + 1}f} vs reference {expected:.{decimals}f}")
    return messages
