"""Every committed benchmark record (``BENCH_*.json``) keeps the layout readers rely on.

A record compares a parent and a change over alternating pairs of runs. Each
workload row, wherever the record nests one, must name a workload declared in
``BENCHMARK.json`` and carry every end-to-end metric with the parent's and the
change's median and quartiles, one run per pair on each side.
"""
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
END_TO_END = [metric["name"] for metric in BENCHMARK["end_to_end"]]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def _workload_rows(node):
    """Every row of every ``workloads`` list in the record, at any depth."""
    if isinstance(node, dict):
        for key, value in node.items():
            if key == "workloads" and isinstance(value, list):
                yield from value
            else:
                yield from _workload_rows(value)
    elif isinstance(node, list):
        for item in node:
            yield from _workload_rows(item)


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_rows_carry_every_end_to_end_metric(path):
    record = json.loads(path.read_text())
    rows = list(_workload_rows(record))
    assert rows, f"{path.name} has no workload rows"
    for row in rows:
        where = f"{path.name} {row.get('workload')} seed {row.get('seed')}"
        assert row["workload"] in WORKLOADS, where
        pairs = row["pairs"]
        assert isinstance(pairs, int) and pairs > 0, where
        assert set(END_TO_END) <= set(row["metrics"]), where
        for name in END_TO_END:
            metric = row["metrics"][name]
            for side in ("parent", "change"):
                summary = metric[side]
                for key in ("median", "q1", "q3"):
                    assert isinstance(summary[key], (int, float)), f"{where} {name} {side} {key}"
                assert len(summary["runs"]) == pairs, f"{where} {name} {side} runs"
            assert 0 <= metric["change_wins"] <= pairs, f"{where} {name} change_wins"
