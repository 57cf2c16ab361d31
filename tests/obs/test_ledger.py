"""Benchmark ledger: rows, history IO, and the trailing-median sentinel."""

from __future__ import annotations

import json
import os

import pytest

from repro.obs import ledger
from repro.obs.ledger import (
    LEDGER_SCHEMA_VERSION,
    append_row,
    check_regression,
    format_report,
    git_sha,
    ledger_row,
    read_history,
    record_run,
)


class TestRows:
    def test_row_shape(self):
        row = ledger_row("cluster", {"rps": 120.5}, extra={"n": 256})
        assert row["schema"] == LEDGER_SCHEMA_VERSION
        assert row["benchmark"] == "cluster"
        assert row["metrics"] == {"rps": 120.5}
        assert row["extra"] == {"n": 256}
        assert isinstance(row["cpu_count"], int) and row["cpu_count"] >= 1
        assert isinstance(row["git_sha"], str) and row["git_sha"]

    def test_non_numeric_metric_rejected(self):
        with pytest.raises(TypeError, match="must be numeric"):
            ledger_row("cluster", {"rps": "fast"})
        with pytest.raises(TypeError, match="must be numeric"):
            ledger_row("cluster", {"ok": True})  # bools are not metrics

    def test_git_sha_in_checkout(self):
        sha = git_sha()
        assert sha == "unknown" or len(sha) == 40

    def test_append_and_read_roundtrip(self, tmp_path):
        path = tmp_path / "history.jsonl"
        for rps in (100.0, 110.0):
            append_row(path, ledger_row("cluster", {"rps": rps}))
        rows = read_history(path)
        assert [r["metrics"]["rps"] for r in rows] == [100.0, 110.0]

    def test_read_history_skips_junk(self, tmp_path):
        path = tmp_path / "history.jsonl"
        good = ledger_row("cluster", {"rps": 100.0})
        path.write_text(
            "\n".join(
                [
                    json.dumps(good),
                    "",  # blank
                    "{not json",  # corrupt
                    json.dumps([1, 2]),  # not a dict
                    json.dumps({**good, "schema": LEDGER_SCHEMA_VERSION + 1}),
                ]
            )
            + "\n"
        )
        assert len(read_history(path)) == 1

    def test_read_missing_file(self, tmp_path):
        assert read_history(tmp_path / "absent.jsonl") == []


#: the core count ``ledger_row`` stamps and ``check_regression`` defaults to
CPUS = os.cpu_count() or 1


def _history(benchmark, values, metric="latency_ms", cpu_count=CPUS):
    return [
        {"schema": 1, "benchmark": benchmark, "cpu_count": cpu_count,
         "metrics": {metric: v}}
        for v in values
    ]


class TestSentinel:
    def test_flags_synthetic_2x_latency_inflation(self):
        """The acceptance case: a 2× p99 inflation against flat history."""
        history = _history("cluster", [10.0, 11.0, 10.5, 10.8, 11.2])
        report = check_regression(
            history, "cluster", {"latency_ms": 21.8},
            {"latency_ms": ("lower", 2.0)},
        )
        assert report["flagged"] == ["latency_ms"]
        assert not report["ok"]
        assert report["checks"]["latency_ms"]["verdict"] == "regressed"
        assert report["checks"]["latency_ms"]["median"] == 10.8

    def test_within_tolerance_passes(self):
        history = _history("cluster", [10.0, 11.0, 10.5])
        report = check_regression(
            history, "cluster", {"latency_ms": 15.0},
            {"latency_ms": ("lower", 2.0)},
        )
        assert report["ok"] and report["flagged"] == []

    def test_higher_direction_flags_collapse(self):
        history = _history("service", [10.0, 12.0, 11.0], metric="speedup")
        report = check_regression(
            history, "service", {"speedup": 4.0}, {"speedup": ("higher", 0.5)}
        )
        assert report["flagged"] == ["speedup"]
        ok = check_regression(
            history, "service", {"speedup": 9.0}, {"speedup": ("higher", 0.5)}
        )
        assert ok["ok"]

    def test_insufficient_history_never_flags(self):
        history = _history("cluster", [10.0, 11.0])  # < min_history
        report = check_regression(
            history, "cluster", {"latency_ms": 1000.0},
            {"latency_ms": ("lower", 2.0)},
        )
        assert report["ok"]
        assert report["checks"]["latency_ms"]["verdict"] == "insufficient-history"

    def test_other_benchmarks_do_not_pollute(self):
        history = _history("batch", [1.0, 1.0, 1.0]) + _history(
            "cluster", [10.0, 11.0, 10.5]
        )
        report = check_regression(
            history, "cluster", {"latency_ms": 15.0},
            {"latency_ms": ("lower", 2.0)},
        )
        assert report["n_history"] == 3
        assert report["ok"]

    def test_other_core_counts_do_not_compare(self):
        """History from another core count is not evidence about this run."""
        other = 1 if CPUS != 1 else 2
        elsewhere = _history("cluster", [10.0, 11.0, 10.5], cpu_count=other)
        report = check_regression(
            elsewhere, "cluster", {"latency_ms": 1000.0},
            {"latency_ms": ("lower", 2.0)},
        )
        assert report["ok"]
        assert report["cpu_count"] == CPUS
        assert report["n_history"] == 0
        assert report["checks"]["latency_ms"]["verdict"] == "insufficient-history"
        here = check_regression(
            _history("cluster", [10.0, 11.0, 10.5]), "cluster",
            {"latency_ms": 1000.0}, {"latency_ms": ("lower", 2.0)},
        )
        assert here["flagged"] == ["latency_ms"]

    def test_record_run_checks_then_appends(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ledger, "git_sha", lambda cwd=None: "me")
        path = tmp_path / "history.jsonl"
        for i, v in enumerate((10.0, 11.0, 10.5)):
            append_row(path, {**_history("cluster", [v])[0], "git_sha": f"old{i}"})
        report = record_run(
            path, "cluster", {"latency_ms": 50.0},
            {"latency_ms": ("lower", 2.0)}, extra={"n": 4},
        )
        assert report["flagged"] == ["latency_ms"]
        assert "REGRESSED: latency_ms" in capsys.readouterr().out
        row = read_history(path)[-1]
        assert row["metrics"] == {"latency_ms": 50.0}
        assert row["extra"] == {"n": 4}
        assert row["cpu_count"] == CPUS
        assert row["git_sha"] == "me"
        # the appended row is this commit's own: a re-run is judged
        # against the older commits only
        again = record_run(
            path, "cluster", {"latency_ms": 10.0}, {"latency_ms": ("lower", 2.0)}
        )
        assert again["n_history"] == 3
        assert len(read_history(path)) == 5

    def test_window_limits_lookback(self):
        # old terrible epoch, recent good epoch; window sees only the recent
        history = _history("cluster", [100.0] * 5 + [10.0, 10.5, 11.0])
        report = check_regression(
            history, "cluster", {"latency_ms": 12.0},
            {"latency_ms": ("lower", 2.0)}, window=3,
        )
        assert report["ok"]
        assert report["checks"]["latency_ms"]["median"] == 10.5

    def test_metric_missing_and_degenerate_median(self):
        history = _history("cluster", [0.0, 0.0, 0.0])
        report = check_regression(
            history, "cluster", {"other": 1.0},
            {"other": ("lower", 2.0), "latency_ms": ("lower", 2.0)},
        )
        assert report["checks"]["latency_ms"]["verdict"] == "metric-missing"
        degenerate = check_regression(
            history, "cluster", {"latency_ms": 5.0},
            {"latency_ms": ("lower", 2.0)},
        )
        assert degenerate["checks"]["latency_ms"]["verdict"] == "degenerate-median"
        assert degenerate["ok"]

    def test_bad_direction_raises(self):
        with pytest.raises(ValueError, match="direction"):
            check_regression([], "cluster", {"x": 1.0}, {"x": ("sideways", 2.0)})

    def test_accepts_path_history(self, tmp_path):
        path = tmp_path / "history.jsonl"
        # distinct SHAs: in a real ledger each row is one commit's run, and
        # same-SHA rows deliberately collapse to a single sample
        for i, v in enumerate((10.0, 11.0, 10.5)):
            append_row(
                path, {**ledger_row("cluster", {"latency_ms": v}), "git_sha": f"c{i}"}
            )
        report = check_regression(
            path, "cluster", {"latency_ms": 50.0}, {"latency_ms": ("lower", 2.0)}
        )
        assert report["flagged"] == ["latency_ms"]

    def test_degenerate_window_duplicate_sha_collapses(self):
        """--chaos double-runs append twice per commit; the window must see
        one sample per commit, not two copies of each."""
        history = []
        for i, v in enumerate((10.0, 11.0, 10.5, 10.8)):
            for jitter in (0.0, 0.2):  # two appends per invocation
                history.append(
                    {
                        "schema": 1,
                        "benchmark": "cluster",
                        "cpu_count": CPUS,
                        "git_sha": f"commit{i}",
                        "metrics": {"latency_ms": v + jitter},
                    }
                )
        report = check_regression(
            history, "cluster", {"latency_ms": 50.0},
            {"latency_ms": ("lower", 2.0)}, window=4,
        )
        # 8 raw rows collapse to 4 commit medians; the window holds all
        # commits instead of the most recent two commits twice over
        assert report["n_history"] == 4
        assert report["checks"]["latency_ms"]["n_samples"] == 4
        assert report["checks"]["latency_ms"]["median"] == pytest.approx(10.75)
        assert report["flagged"] == ["latency_ms"]

    def test_degenerate_window_current_sha_excluded(self):
        """Rows this driver already appended for the current commit must not
        let the sentinel compare the run against itself."""
        history = _history("cluster", [10.0, 11.0, 10.5])
        for i, row in enumerate(history):
            row["git_sha"] = f"older{i}"
        # the current commit already wrote two wildly-slow rows (chaos re-run)
        for v in (100.0, 101.0):
            history.append(
                {
                    "schema": 1,
                    "benchmark": "cluster",
                    "cpu_count": CPUS,
                    "git_sha": "me",
                    "metrics": {"latency_ms": v},
                }
            )
        polluted = check_regression(
            history, "cluster", {"latency_ms": 100.0},
            {"latency_ms": ("lower", 2.0)}, window=3,
        )
        clean = check_regression(
            history, "cluster", {"latency_ms": 100.0},
            {"latency_ms": ("lower", 2.0)}, window=3, current_sha="me",
        )
        # without the guard the commit's own rows dilute the window median;
        # with it the 10× inflation is judged purely against prior commits
        assert clean["checks"]["latency_ms"]["median"] == pytest.approx(10.5)
        assert clean["flagged"] == ["latency_ms"]
        assert polluted["checks"]["latency_ms"]["median"] > clean["checks"][
            "latency_ms"
        ]["median"]

    def test_degenerate_window_all_rows_current_sha(self):
        """A fresh ledger seeded only by this commit's own runs cannot flag:
        exclusion leaves <3 samples -> insufficient-history."""
        history = _history("cluster", [10.0, 10.2, 10.1, 10.3])
        for row in history:
            row["git_sha"] = "me"
        report = check_regression(
            history, "cluster", {"latency_ms": 1000.0},
            {"latency_ms": ("lower", 2.0)}, current_sha="me",
        )
        assert report["ok"]
        assert report["n_history"] == 0
        assert report["checks"]["latency_ms"]["verdict"] == "insufficient-history"

    def test_unknown_sha_rows_never_collapse(self):
        """Runs outside a checkout can't be proven same-build: keep each."""
        history = _history("cluster", [10.0, 11.0, 10.5])
        for row in history:
            row["git_sha"] = "unknown"
        report = check_regression(
            history, "cluster", {"latency_ms": 50.0},
            {"latency_ms": ("lower", 2.0)}, current_sha="unknown",
        )
        assert report["n_history"] == 3
        assert report["flagged"] == ["latency_ms"]

    def test_format_report_is_printable(self):
        history = _history("cluster", [10.0, 11.0, 10.5])
        report = check_regression(
            history, "cluster", {"latency_ms": 50.0, "absent": 1.0},
            {"latency_ms": ("lower", 2.0), "missing": ("higher", 0.5)},
        )
        text = format_report(report)
        assert "REGRESSED: latency_ms" in text
        assert "missing: metric-missing" in text
