"""Benchmark history ledger and trailing-median regression sentinel.

Every ``BENCH_*.json`` is overwritten in place, so before this module the
repo had no longitudinal record of its own performance — a 2× latency
inflation that still cleared the one-shot CI floor was invisible.  The
ledger fixes that: each benchmark run appends one schema-versioned row
(git SHA, cpu count, headline metrics) to ``BENCH_history.jsonl``, and
:func:`check_regression` compares the current run against the **trailing
median** of prior rows with per-metric tolerances — a trend-aware gate
instead of a fixed floor.  Only rows from the same core count are
compared: a 2-core run judged against 1-core history measures the box,
not the change.

Rows are plain JSONL so the history survives schema growth: readers skip
rows whose ``schema`` they don't understand, and per-metric comparisons
only consider rows that carry the metric.  The sentinel is **report-only
friendly**: it returns a structured verdict rather than raising, so CI
can print the report and choose its own exit policy (hard-fail is
reserved for benchmarks with enough accumulated history).

Tolerances are ``(direction, max_ratio)`` pairs::

    {"latency_p99_ms": ("lower", 2.0),   # flag if current > 2.0 × median
     "speedup":        ("higher", 0.5)}  # flag if current < 0.5 × median

>>> history = [
...     {"schema": 1, "benchmark": "cluster", "cpu_count": os.cpu_count() or 1,
...      "metrics": {"p99_ms": p99}}
...     for p99 in (10.0, 12.0, 11.0)
... ]
>>> report = check_regression(history, "cluster", {"p99_ms": 25.0},
...                           {"p99_ms": ("lower", 2.0)})
>>> report["flagged"]
['p99_ms']
>>> report["checks"]["p99_ms"]["median"]
11.0
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
from pathlib import Path
from typing import Mapping, Sequence

__all__ = [
    "LEDGER_SCHEMA_VERSION",
    "append_row",
    "check_regression",
    "git_sha",
    "ledger_row",
    "read_history",
    "record_run",
]

LEDGER_SCHEMA_VERSION = 1

#: default trailing window: compare against the median of this many rows
DEFAULT_WINDOW = 8


def git_sha(cwd: "str | Path | None" = None) -> str:
    """The current git commit SHA, or ``"unknown"`` outside a checkout."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=str(cwd) if cwd else None,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    sha = out.stdout.strip()
    return sha if out.returncode == 0 and sha else "unknown"


def ledger_row(
    benchmark: str,
    metrics: Mapping[str, float],
    extra: "Mapping | None" = None,
) -> dict:
    """Build one schema-versioned history row for ``benchmark``.

    ``metrics`` holds the headline numbers the regression sentinel will
    trend (scalar floats only — rich per-row structure belongs in the
    benchmark's own JSON).  ``extra`` is free-form provenance (workload
    shape, env knobs) excluded from trend comparisons.
    """
    clean: dict[str, float] = {}
    for key, value in metrics.items():
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise TypeError(f"metric {key!r} must be numeric, got {value!r}")
        clean[str(key)] = float(value)
    row = {
        "schema": LEDGER_SCHEMA_VERSION,
        "benchmark": str(benchmark),
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count() or 1,
        "metrics": clean,
    }
    if extra:
        row["extra"] = dict(extra)
    return row


def append_row(path: "str | Path", row: Mapping) -> Path:
    """Append one row to the JSONL ledger at ``path`` (created if absent)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write(json.dumps(dict(row), sort_keys=True) + "\n")
    return path


def read_history(path: "str | Path") -> list[dict]:
    """Read the ledger, skipping blank/corrupt/unknown-schema lines.

    A history file is an append-only artifact that outlives any single
    code version — tolerating bad lines beats refusing to trend at all.
    """
    path = Path(path)
    if not path.exists():
        return []
    rows: list[dict] = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            row = json.loads(line)
        except json.JSONDecodeError:
            continue
        if not isinstance(row, dict):
            continue
        if row.get("schema", 0) > LEDGER_SCHEMA_VERSION:
            continue
        rows.append(row)
    return rows


def _collapse_duplicate_shas(prior: "list[dict]") -> "list[dict]":
    """Fold consecutive same-git-SHA rows into one per-metric-median row.

    Some drivers append more than one row per invocation (the cluster
    benchmark's ``--chaos`` mode runs twice for replay determinism), so a
    commit can contribute several near-identical samples.  Left alone,
    those duplicates stuff the trailing window with one commit's noise —
    in the degenerate case the window is *entirely* the current commit
    and the sentinel compares a run against itself.  Rows whose SHA is
    ``"unknown"`` (runs outside a checkout) are kept as-is: they cannot
    be proven to be the same build.
    """
    collapsed: list[dict] = []
    group: list[dict] = []

    def flush() -> None:
        if not group:
            return
        if len(group) == 1:
            collapsed.append(group[0])
        else:
            names = {n for row in group for n in row["metrics"]}
            merged = dict(group[-1])
            merged["metrics"] = {
                name: float(
                    statistics.median(
                        float(row["metrics"][name])
                        for row in group
                        if name in row["metrics"]
                    )
                )
                for name in names
            }
            collapsed.append(merged)
        group.clear()

    for row in prior:
        sha = row.get("git_sha", "unknown")
        if sha == "unknown":
            flush()
            collapsed.append(row)
            continue
        if group and group[-1].get("git_sha") != sha:
            flush()
        group.append(row)
    flush()
    return collapsed


def check_regression(
    history: "Sequence[Mapping] | str | Path",
    benchmark: str,
    metrics: Mapping[str, float],
    tolerances: Mapping[str, tuple],
    window: int = DEFAULT_WINDOW,
    min_history: int = 3,
    current_sha: "str | None" = None,
) -> dict:
    """Compare a run's metrics against the trailing median of its history.

    ``tolerances`` maps metric name → ``(direction, max_ratio)``:

    * ``("lower", r)`` — metric should stay low (latency); flag when
      ``current > r × median``;
    * ``("higher", r)`` — metric should stay high (speedup, τ); flag
      when ``current < r × median``.

    Returns a report dict: ``ok`` (no metric flagged), ``flagged``
    (sorted metric names), ``checks`` (per-metric median / current /
    ratio / bound / verdict), ``n_history``.  Metrics with fewer than
    ``min_history`` prior samples are reported as ``"insufficient-history"``
    and never flagged — a fresh clone cannot fail its first run.

    Only rows whose ``cpu_count`` equals this box's ``os.cpu_count()``
    (the value :func:`ledger_row` stamps) are compared, so history from
    other hardware reads as ``"insufficient-history"`` instead of a false
    flag or a false pass.

    Two degenerate-window guards keep the median honest:

    * rows whose ``git_sha`` equals ``current_sha`` are excluded — a
      driver that already appended this run's row (or ran twice per
      invocation) must not let the sentinel compare a commit against
      itself;
    * consecutive rows sharing any other git SHA collapse to one
      per-metric-median row before windowing, so a multi-append commit
      contributes one sample, not ``window`` of them.
    """
    if isinstance(history, (str, Path)):
        history = read_history(history)
    cpu_count = os.cpu_count() or 1
    prior = [
        dict(row) for row in history
        if row.get("benchmark") == benchmark
        and row.get("cpu_count") == cpu_count
        and isinstance(row.get("metrics"), dict)
    ]
    if current_sha and current_sha != "unknown":
        prior = [row for row in prior if row.get("git_sha") != current_sha]
    prior = _collapse_duplicate_shas(prior)
    report: dict = {
        "benchmark": benchmark,
        "ok": True,
        "flagged": [],
        "checks": {},
        "n_history": len(prior),
        "cpu_count": cpu_count,
        "window": int(window),
    }
    for name, tol in tolerances.items():
        direction, max_ratio = tol
        if direction not in ("lower", "higher"):
            raise ValueError(f"direction must be 'lower' or 'higher', got {direction!r}")
        if name not in metrics:
            report["checks"][name] = {"verdict": "metric-missing"}
            continue
        current = float(metrics[name])
        samples = [
            float(row["metrics"][name])
            for row in prior[-int(window):]
            if name in row["metrics"]
        ]
        if len(samples) < min_history:
            report["checks"][name] = {
                "verdict": "insufficient-history",
                "current": current,
                "n_samples": len(samples),
            }
            continue
        median = float(statistics.median(samples))
        if median <= 0.0:
            report["checks"][name] = {
                "verdict": "degenerate-median",
                "current": current,
                "median": median,
            }
            continue
        ratio = current / median
        if direction == "lower":
            regressed = ratio > float(max_ratio)
        else:
            regressed = ratio < float(max_ratio)
        report["checks"][name] = {
            "verdict": "regressed" if regressed else "ok",
            "current": current,
            "median": median,
            "ratio": ratio,
            "direction": direction,
            "max_ratio": float(max_ratio),
            "n_samples": len(samples),
        }
        if regressed:
            report["flagged"].append(name)
            report["ok"] = False
    report["flagged"].sort()
    return report


def format_report(report: Mapping) -> str:
    """Human-readable one-line-per-metric rendering of a sentinel report."""
    lines = [
        f"regression check [{report['benchmark']}] "
        f"cpus={report['cpu_count']} history={report['n_history']} "
        f"{'OK' if report['ok'] else 'REGRESSED: ' + ', '.join(report['flagged'])}"
    ]
    for name, check in sorted(report.get("checks", {}).items()):
        verdict = check.get("verdict", "?")
        if "median" in check and "ratio" in check:
            lines.append(
                f"  {name}: {verdict} current={check['current']:.6g} "
                f"median={check['median']:.6g} ratio={check['ratio']:.3f} "
                f"({check['direction']}, bound {check['max_ratio']})"
            )
        else:
            lines.append(f"  {name}: {verdict}")
    return "\n".join(lines)


def record_run(
    path: "str | Path",
    benchmark: str,
    metrics: Mapping[str, float],
    tolerances: Mapping[str, tuple],
    extra: "Mapping | None" = None,
) -> dict:
    """Check one benchmark run against its history, then append it.

    Builds the run's row with :func:`ledger_row`, runs the report-only
    :func:`check_regression` against the ledger at ``path`` (leaving out
    rows of the row's own ``git_sha``), prints :func:`format_report`,
    appends the row and returns the report.
    """
    row = ledger_row(benchmark, metrics, extra=extra)
    report = check_regression(
        path, benchmark, row["metrics"], tolerances, current_sha=row["git_sha"]
    )
    print(format_report(report))
    append_row(path, row)
    return report
