"""scripts/bench_summary.py on two small synthetic result directories."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_summary.py"
spec = importlib.util.spec_from_file_location("bench_summary", SCRIPT)
bench_summary = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_summary)

BENCHMARK = {"end_to_end": [
    {"name": "op_p50_ms", "unit": "ms", "better": "lower", "bound": 0.25},
    {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.25},
]}


def write_run(directory, workload, seed, op_ms, failed=0, trace=0):
    directory.mkdir(exist_ok=True)
    result = {"correct": True, "attempted": 10, "failed": failed, "metrics": {
        "op_p50_ms": {"value": op_ms, "unit": "ms"},
        "ops_per_s": {"value": 1e3 / op_ms, "unit": "1/s"},
    }}
    path = directory / f"result-{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(result))


@pytest.fixture
def dirs(tmp_path):
    parent, change = tmp_path / "parent", tmp_path / "change"
    for seed, (p, c) in zip(range(11, 16), [(10, 5), (12, 6), (11, 4), (13, 14), (9, 3)]):
        write_run(parent, "chain", seed, p)
        write_run(change, "chain", seed, c, failed=int(seed == 15))
    write_run(parent, "chain", 30, 99)  # no partner: not a pair
    write_run(change, "chain", 11, 1, trace=1)  # traced runs are not read
    write_run(parent, "batch", 11, 2.0)
    write_run(change, "batch", 11, 2.5)
    write_run(parent, "only_parent", 11, 1.0)
    return parent, change


def test_pairs_medians_quartiles_and_wins(dirs):
    summary = bench_summary.summarise(*dirs, BENCHMARK)["workloads"]
    assert sorted(summary) == ["batch", "chain"]
    chain = summary["chain"]
    assert chain["seeds"] == [11, 12, 13, 14, 15]
    assert chain["failed"] == {"parent": 0, "change": 1}
    assert chain["attempted"] == {"parent": 50, "change": 50}
    op = chain["metrics"]["op_p50_ms"]
    assert op["parent"]["values"] == [10, 12, 11, 13, 9]
    assert op["parent"]["median"] == 11 and op["change"]["median"] == 5
    assert (op["parent"]["q1"], op["parent"]["q3"]) == (10, 12)
    assert (op["change_won"], op["pairs"]) == (4, 5)
    assert chain["metrics"]["ops_per_s"]["change_won"] == 4  # higher is better there
    batch = summary["batch"]["metrics"]["op_p50_ms"]
    assert batch["change_won"] == 0
    assert batch["parent"] == {"values": [2.0], "median": 2.0, "q1": 2.0, "q3": 2.0}


def test_main_writes_the_file(dirs, tmp_path, monkeypatch):
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(BENCHMARK))
    monkeypatch.setattr(bench_summary, "ROOT", tmp_path)
    out = tmp_path / "BENCH_0.json"
    assert bench_summary.main([*map(str, dirs), "--out", str(out), "--note", "synthetic"]) == 0
    written = json.loads(out.read_text())
    assert written["note"] == "synthetic"
    assert written["workloads"]["chain"]["metrics"]["op_p50_ms"]["change_won"] == 4


def test_no_common_run_is_an_error(tmp_path):
    write_run(tmp_path / "a", "chain", 11, 1.0)
    write_run(tmp_path / "b", "chain", 12, 1.0)
    with pytest.raises(SystemExit):
        bench_summary.main([str(tmp_path / "a"), str(tmp_path / "b"), "--out", str(tmp_path / "o.json")])
