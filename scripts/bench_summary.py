#!/usr/bin/env python3
"""Summarise paired benchmark runs of two checkouts into one JSON file.

    python3 scripts/bench_summary.py PARENT_RESULTS CHANGE_RESULTS --out BENCH_7.json

Each directory holds the `result-<workload>-seed<N>-trace0.json` files that
`bench/run.py --trace 0` writes into `bench_results/`. The runs of one
workload and seed on the two sides form a pair. For every workload and every
end-to-end metric of BENCHMARK.json the output holds each side's value per
seed, median and quartiles, and how many pairs the change won in the
metric's better direction. Standard library only.
"""

import argparse
import json
import re
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULT = re.compile(r"result-(?P<workload>.+)-seed(?P<seed>\d+)-trace0\.json")


def load_runs(directory) -> dict[str, dict[int, dict]]:
    """{workload: {seed: result}} of the untraced runs in `directory`."""
    runs: dict[str, dict[int, dict]] = {}
    for path in sorted(Path(directory).glob("result-*-trace0.json")):
        match = RESULT.fullmatch(path.name)
        if match:
            runs.setdefault(match["workload"], {})[int(match["seed"])] = json.loads(path.read_text())
    return runs


def spread(values: list[float]) -> dict:
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3}


def summarise(parent_dir, change_dir, benchmark: dict) -> dict:
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    workloads = {}
    for name in sorted(parent.keys() & change.keys()):
        seeds = sorted(parent[name].keys() & change[name].keys())
        if not seeds:
            continue
        sides = {"parent": [parent[name][s] for s in seeds], "change": [change[name][s] for s in seeds]}
        entry = {
            "seeds": seeds,
            "failed": {side: sum(r["failed"] for r in runs) for side, runs in sides.items()},
            "attempted": {side: sum(r["attempted"] for r in runs) for side, runs in sides.items()},
            "all_correct": {side: all(r["correct"] for r in runs) for side, runs in sides.items()},
            "metrics": {},
        }
        for metric in benchmark["end_to_end"]:
            key, lower = metric["name"], metric["better"] == "lower"
            values = {side: [r["metrics"][key]["value"] for r in runs] for side, runs in sides.items()}
            wins = sum((c < p) if lower else (c > p) for p, c in zip(values["parent"], values["change"]))
            entry["metrics"][key] = {
                "unit": metric["unit"],
                "better": metric["better"],
                **{side: {"values": vals, **spread(vals)} for side, vals in values.items()},
                "change_won": wins,
                "pairs": len(seeds),
            }
        workloads[name] = entry
    return {"workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", help="bench_results/ of the parent checkout")
    parser.add_argument("change", help="bench_results/ of the changed checkout")
    parser.add_argument("--out", required=True, help="path of the JSON file to write")
    parser.add_argument("--note", default="", help="free text kept in the file, e.g. the machine")
    args = parser.parse_args(argv)
    summary = summarise(args.parent, args.change, json.loads((ROOT / "BENCHMARK.json").read_text()))
    if not summary["workloads"]:
        parser.error("no workload has a run of the same seed on both sides")
    if args.note:
        summary["note"] = args.note
    Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
