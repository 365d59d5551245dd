"""The paired-benchmark summary of tools/bench_pairs.py."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

SPECS = [
    {"name": "throughput", "unit": "1/s", "better": "higher", "bound": 0.25},
    {"name": "latency_ms.p50", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "peak_rss_mb", "unit": "MB", "better": "lower", "bound": 0.05},
]


def result(correct=True, **values):
    names = {"p50": "latency_ms.p50"}
    return {"correct": correct,
            "metrics": {names.get(k, k): {"value": v} for k, v in values.items()}}


def pairs_of(parent, change, metric="throughput"):
    return [{"parent": result(**{metric: p}), "change": result(**{metric: c})}
            for p, c in zip(parent, change)]


def test_quartiles_wins_and_ratio():
    parent = [10.0, 12.0, 11.0, 13.0, 9.0]
    change = [13.0, 15.0, 10.5, 16.0, 12.0]
    m = bench_pairs.summarize(pairs_of(parent, change), SPECS)["metrics"]["throughput"]
    # inclusive quartiles of 9..13 are 10, 11, 12
    assert m["parent"] == {"median": 11.0, "q1": 10.0, "q3": 12.0, "runs": parent}
    assert m["change"]["median"] == 13.0
    assert m["change_better_in_pairs"] == "4/5"
    assert m["change_over_parent_median"] == pytest.approx(13.0 / 11.0, abs=1e-4)
    assert m["parent_iqr"] == 2.0
    assert not m["gain_shown"]          # 4 of 5 is under 9 of 10
    assert (m["unit"], m["better"], m["bound"]) == ("1/s", "higher", 0.25)


def test_lower_is_better_metrics_count_drops_as_wins():
    parent = [100.0, 102.0, 98.0, 101.0, 99.0, 100.5, 99.5, 103.0, 97.0, 100.0]
    change = [v - 20.0 for v in parent]
    m = bench_pairs.summarize(pairs_of(parent, change, "p50"), SPECS)["metrics"]
    p50 = m["latency_ms.p50"]
    assert p50["change_better_in_pairs"] == "10/10"
    assert p50["gain_shown"]
    assert "throughput" not in m         # reported by no run


def test_a_gain_inside_the_parent_spread_is_not_shown():
    parent = [10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0, 10.0, 14.0]
    change = [v + 0.5 for v in parent]
    m = bench_pairs.summarize(pairs_of(parent, change), SPECS)["metrics"]["throughput"]
    assert m["change_better_in_pairs"] == "10/10"
    assert m["parent_iqr"] == 4.0
    assert not m["gain_shown"]


def test_failed_runs_are_counted_and_their_missing_metrics_skipped():
    pairs = pairs_of([10.0, 11.0, 12.0], [11.0, 12.0, 13.0])
    pairs.append({"parent": result(throughput=9.0),
                  "change": {"correct": False, "metrics": {}}})
    pairs[0]["parent"]["correct"] = False
    summary = bench_pairs.summarize(pairs, SPECS)
    assert summary["pairs"] == 4
    assert summary["runs_not_correct"] == 2
    assert summary["metrics"]["throughput"]["change_better_in_pairs"] == "3/3"


def test_ties_are_not_wins():
    m = bench_pairs.summarize(pairs_of([1.0, 2.0], [1.0, 3.0], "peak_rss_mb"),
                              SPECS)["metrics"]["peak_rss_mb"]
    assert m["change_better_in_pairs"] == "0/2"


def test_seed_lists():
    assert bench_pairs.parse_seeds("101-104") == [101, 102, 103, 104]
    assert bench_pairs.parse_seeds("3,5,7") == [3, 5, 7]
    assert bench_pairs.parse_seeds("1-3,9") == [1, 2, 3, 9]


@pytest.mark.parametrize("text", ["110-101", "1-3,9-5"])
def test_a_backwards_seed_range_is_refused(text, tmp_path, capsys):
    with pytest.raises(ValueError, match="backwards"):
        bench_pairs.parse_seeds(text)
    out = tmp_path / "bench.json"
    out.write_text('{"workloads": {"eval64": {"pairs": 10}}}')
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "eval64", "--seeds", text, "--out", str(out)])
    assert exc.value.code == 2
    assert "--seeds" in capsys.readouterr().err
    assert json.loads(out.read_text())["workloads"]["eval64"]["pairs"] == 10


def test_one_paired_value_is_recorded_without_a_gain():
    pairs = pairs_of([10.0, 11.0], [12.0, 13.0])
    pairs[1]["change"] = {"correct": False, "metrics": {}}
    m = bench_pairs.summarize(pairs, SPECS)["metrics"]["throughput"]
    assert m["parent"] == {"runs": [10.0]} and m["change"] == {"runs": [12.0]}
    assert m["change_better_in_pairs"] == "1/1"
    assert not m["gain_shown"]


@pytest.mark.parametrize("text", ["101", "7-7"])
def test_fewer_than_two_seeds_are_refused_before_any_run(text, tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(bench_pairs, "run_once", lambda *args: pytest.fail("ran a benchmark"))
    out = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exc:
        bench_pairs.main(["--parent", str(tmp_path), "--change", str(tmp_path),
                          "--workload", "train64", "--seeds", text, "--out", str(out)])
    assert exc.value.code == 2
    assert "at least two seeds" in capsys.readouterr().err
    assert not out.exists()


def traced_result(correct=True, **values):
    return {"correct": correct,
            "metrics": {k.replace("_", "."): {"value": v, "unit": "ms"}
                        for k, v in values.items()}}


def test_traced_summary_keeps_every_run_and_each_sides_median():
    pairs = [{"parent": traced_result(memory_read=10.0, conv=5.0),
              "change": traced_result(memory_read=8.0, conv=5.1)},
             {"parent": traced_result(memory_read=12.0, conv=4.9),
              "change": traced_result(memory_read=7.0)},
             {"parent": traced_result(memory_read=11.0, conv=5.2),
              "change": traced_result(False, memory_read=9.0, conv=5.3)}]
    summary = bench_pairs.summarize_traced(pairs)
    assert (summary["pairs"], summary["runs_not_correct"]) == (3, 1)
    read = summary["per_unit"]["memory.read"]
    assert read == {"unit": "ms",
                    "parent": {"median": 11.0, "runs": [10.0, 12.0, 11.0]},
                    "change": {"median": 8.0, "runs": [8.0, 7.0, 9.0]}}
    conv = summary["per_unit"]["conv"]
    assert conv["change"] == {"median": 5.2, "runs": [5.1, 5.3]}   # one run lacks it


def test_traced_pairs_alternate_and_land_under_traced(tmp_path, monkeypatch):
    for side in bench_pairs.SIDES:
        (tmp_path / side).mkdir()
        (tmp_path / side / "BENCHMARK.json").write_text(
            '{"end_to_end": [], "run_seconds": 1}')
    calls = []

    def fake_run(checkout, workload, seed, seconds, trace):
        calls.append((checkout.name, seed, trace))
        return traced_result(read_ms=float(seed + (checkout.name == "change")))

    monkeypatch.setattr(bench_pairs, "run_once", fake_run)
    out = tmp_path / "bench.json"
    assert bench_pairs.main(["--parent", str(tmp_path / "parent"), "--change",
                             str(tmp_path / "change"), "--workload", "long128",
                             "--seeds", "1-2", "--trace-seed", "7-9", "--out", str(out)]) == 0
    assert [c for c in calls if c[2] == 1] == [
        ("parent", 7, 1), ("change", 7, 1), ("change", 8, 1), ("parent", 8, 1),
        ("parent", 9, 1), ("change", 9, 1)]
    traced = json.loads(out.read_text())["traced"]["long128"]
    assert traced["seeds"] == [7, 8, 9]
    assert traced["per_unit"]["read.ms"]["change"] == {"median": 9.0,
                                                       "runs": [8.0, 9.0, 10.0]}
