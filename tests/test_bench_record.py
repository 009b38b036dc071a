"""tools/bench_record.py on a results file of the form perfbench/run.py
writes; no benchmark runs."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "bench_record.py"
METRICS = {"latency_p50_ms": (0.25, "ms"), "latency_p90_ms": (0.5, "ms"),
           "requests_per_s": (3000.0, "1/s"), "peak_rss_mb": (30.0, "MB"),
           "setup_s": (0.005, "s")}


@pytest.fixture(scope="module")
def bench_record():
    spec = importlib.util.spec_from_file_location("bench_record", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def results(tmp_path):
    path = tmp_path / "chain-seed7-trace0.json"
    path.write_text(json.dumps({
        "workload": "chain", "trace": 0, "correct": True, "attempted": 900, "failed": 0,
        "environment": {"backend": "compiled", "python": "3.11.7", "nproc": 2,
                        "seed": 7, "run_seconds": 8.0, "measured_s": 8.4,
                        "passes": 6, "mix_size": 150, "reference_s": 0.05},
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in METRICS.items()},
        "raw_metrics": {m: 2 * v for m, (v, _) in METRICS.items() if m != "peak_rss_mb"},
        "failures": [], "notes": [], "request_times_s": [],
    }))
    return path


def test_record_keeps_metrics_and_environment(bench_record, results):
    bench = bench_record.record(json.loads(results.read_text()), "abc123", False)
    assert bench["workload"] == "chain" and bench["revision"] == "abc123"
    assert not bench["source_modified"]
    assert (bench["seed"], bench["run_seconds"], bench["backend"], bench["nproc"],
            bench["python"]) == (7, 8.0, "compiled", 2, "3.11.7")
    assert (bench["correct"], bench["attempted"], bench["failed"]) == (True, 900, 0)
    assert bench["metrics"] == {m: v for m, (v, _) in METRICS.items()}
    assert bench["raw_metrics"]["latency_p50_ms"] == 0.5
    assert json.loads(json.dumps(bench)) == bench


def test_changes_set_each_metric_beside_its_bound(bench_record, results):
    bench = bench_record.record(json.loads(results.read_text()), "abc123", True)
    assert bench_record.changes(bench, None) == [
        "chain: no committed BENCH_chain.json to compare with"]
    previous = json.loads(json.dumps(bench))
    previous["metrics"].update(latency_p50_ms=0.2, requests_per_s=2500.0)
    lines = dict(line.split(" ", 2)[1:] for line in bench_record.changes(bench, previous))
    assert set(lines) == set(METRICS)
    # p50 0.2 -> 0.25 ms is 25% worse, past its 24% bound
    assert lines["latency_p50_ms"] == ("0.2 -> 0.25 ms +25.0% (bound 24%, lower is "
                                       "better) WORSE THAN BOUND")
    assert lines["requests_per_s"] == "2500 -> 3000 1/s +20.0% (bound 20%, higher is better)"
    assert lines["setup_s"].endswith("+0.0% (bound 25%, lower is better)")


def test_changes_compare_nothing_across_environments(bench_record, results):
    bench = bench_record.record(json.loads(results.read_text()), "abc123", False)
    previous = json.loads(json.dumps(bench))
    previous.update(seed=1, nproc=4, measured_s=9.0)
    previous["metrics"]["requests_per_s"] = 1000.0
    assert bench_record.changes(bench, previous) == [
        "chain: not compared with the committed BENCH_chain.json: seed 1 -> 7, nproc 4 -> 2"]


def test_reach_records_the_highest_rank_that_exits_0(bench_record):
    """The A3 and A4 Coxeter groups and tilde-prime covers are ordered at
    the default cap, so both reach rank 4; D2 is no catalog group, so
    altcox order exits 2 there and D Bourbaki reaches no rank of
    range(2, 3)."""
    table = bench_record.reach("A", ("coxeter", "tilde-prime"), range(3, 5))
    assert {v: row["rank"] for v, row in table["A"].items()} == {
        "coxeter": 4, "tilde-prime": 4}
    for row in table["A"].values():
        assert row["wall_s"] > 0 and row["peak_rss_mb"] > 0
    # D2 is no catalog group: altcox order exits 2
    assert bench_record.reach("D", ("bourbaki",), range(2, 3)) == {
        "D": {"bourbaki": {"rank": None, "wall_s": None, "peak_rss_mb": None}}}


def test_reach_gate_marks_each_rank_that_fell(bench_record, monkeypatch, tmp_path,
                                              capsys):
    """--reach marks each (family, variant) whose rank fell below the
    committed one, a null rank included, and exits 1; it writes nothing,
    and with --write it writes the file all the same.  A rise, an equal
    rank and a rank with no committed one pass."""
    def row(rank):
        return {"rank": rank, "wall_s": rank and 0.1, "peak_rss_mb": rank and 20.0}

    table = {"A": {"coxeter": row(8), "edge": row(7), "tilde": row(None)},
             "B": {"coxeter": row(8), "edge": row(7)}}
    committed = {"A": {"coxeter": row(8), "edge": row(8), "tilde": row(5)},
                 "B": {"coxeter": row(7), "edge": row(None)}}
    monkeypatch.setattr(bench_record, "reach", lambda: table)
    monkeypatch.setattr(bench_record, "committed",
                        lambda name: name == "reach" and {"reach": committed})
    monkeypatch.setattr(bench_record, "REACH", tmp_path / "BENCH_reach.json")
    lines = ["reach A coxeter 8 (committed 8)",
             "reach A edge 7 (committed 8) FELL BELOW COMMITTED",
             "reach A tilde None (committed 5) FELL BELOW COMMITTED",
             "reach B coxeter 8 (committed 7)",
             "reach B edge 7 (committed None)"]
    assert bench_record.main(["--reach"]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert list(tmp_path.iterdir()) == []
    assert bench_record.main(["--reach", "--write"]) == 1
    assert capsys.readouterr().out.splitlines() == lines
    assert json.loads((tmp_path / "BENCH_reach.json").read_text())["reach"] == table
    with pytest.raises(SystemExit):  # --write alone would write nothing
        bench_record.main(["--write"])
    capsys.readouterr()
    del table["A"]
    assert bench_record.main(["--reach"]) == 0
    assert "FELL" not in capsys.readouterr().out
    monkeypatch.setattr(bench_record, "committed", lambda name: None)
    table["A"] = {"edge": row(None)}
    assert bench_record.main(["--reach"]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "reach B coxeter 8 (committed none)", "reach B edge 7 (committed none)",
        "reach A edge None (committed none)"]
