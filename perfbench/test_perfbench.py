"""Self-tests of the benchmark. Run from the repository root:

    python3 -m pytest -q perfbench
"""
from __future__ import annotations

import itertools
import json
import os
import shutil
import subprocess
import sys
import threading
import time
from pathlib import Path

import pytest

import run  # puts the checkout's src on the import path
import layers
import speed
import workloads
from remotable import encode_value

ROOT = Path(__file__).resolve().parent.parent


def _first_ops(workload, inputs, count=300):
    return [list(itertools.islice(workload.op_stream(inputs, t), count))
            for t in range(workload.threads)]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_gives_same_inputs(name):
    workload = workloads.WORKLOADS[name]
    first, again, other = workload.inputs(7), workload.inputs(7), workload.inputs(8)
    assert first == again
    assert _first_ops(workload, first) == _first_ops(workload, again)
    assert first != other
    assert _first_ops(workload, first) != _first_ops(workload, other)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_seed_runs_the_same_op_mix(name):
    workload = workloads.WORKLOADS[name]

    def mix(seed):
        ops = _first_ops(workload, workload.inputs(seed), workload.round_len)
        return sorted((op[0], len(op[2]) if op[0] in ("eager", "deferred", "async") else 0)
                      for thread in ops for op in thread)

    assert mix(1) == mix(2)


def test_encoded_size_agrees_with_the_codec():
    values = workloads.WORKLOADS["bulk-values"].inputs(3)["values"]
    for value in values[::7] + [True, 5, 2.5, "λx", b"\x00\x01", [1, 2], ["a", "bc"]]:
        assert workloads.encoded_size(value) == len(encode_value(value).data)


def test_bulk_sizes_are_log_spread_between_one_kib_and_one_mib():
    sizes = sorted(workloads.WORKLOADS["bulk-values"].inputs(4)["sizes"])
    assert 1 << 10 < sizes[0] < 2 << 10 and 512 << 10 < sizes[-1] < 1 << 20
    ratios = {round(b / a, 1) for a, b in zip(sizes[::4], sizes[4::4])}
    assert ratios == {2.0}


def test_benchmark_json_names_what_the_benchmark_prints():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == layers.METRICS


def _run(name, seconds, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", name, "--seed", "5",
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_short_run_prints_every_end_to_end_metric(name):
    proc = _run(name, 1, 0)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        k: unit for k, (unit, _) in run.END_TO_END.items()}
    assert all(v["value"] > 0 for v in result["metrics"].values())
    for metric, (unit, _) in run.END_TO_END.items():
        assert metric in proc.stdout and unit in proc.stdout


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_sees_every_layer_the_workload_uses(name):
    proc = _run(name, 2, 1)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(metrics) == set(layers.METRICS)
    for layer in workloads.WORKLOADS[name].layers:
        assert metrics[f"layer.{layer}.calls_per_op"] > 0, layer
    assert metrics["protocol.message_codec.calls_per_op"] > 0
    assert metrics["trace.overhead"] > 0


def test_exits_nonzero_without_the_library_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("rpc-small", 1, 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


class _StalledServer:
    """Stands in for a server process that stopped answering until it is killed."""

    def __init__(self, release):
        self.release = release
        self.pid = os.getpid()

    def kill(self):
        self.release.set()

    interrupt = stop = kill


class _Stalls(workloads.Workload):
    """Every op blocks until the server is killed."""

    name = "stall"

    def __init__(self):
        self.release = threading.Event()

    def inputs(self, seed):
        return {"seed": seed}

    def setup(self, inputs, trace_out=None):
        env = workloads.Env(inputs)
        env.server = _StalledServer(self.release)
        return env

    def op_stream(self, inputs, thread):
        return itertools.repeat(("stall",))

    def execute(self, env, state, op):
        self.release.wait(timeout=30)
        return 0.0, 0, 0


def test_a_stalled_op_fails_the_run_by_its_deadline(monkeypatch):
    monkeypatch.setattr(workloads, "OP_DEADLINE_S", 0.3)
    monkeypatch.setattr(run, "WARMUP_S", 0.0)
    workload = _Stalls()
    t0 = time.perf_counter()
    phase = run.Phase(workload, workload.inputs(1), 5.0)
    assert not phase.ok
    assert any("deadline" in failure for failure in phase.failures)
    assert time.perf_counter() - t0 < 3.0


def test_the_server_process_is_reaped_on_close_and_on_kill():
    workload = workloads.WORKLOADS["rpc-small"]
    env = workload.setup(workload.inputs(2))
    proc = env.server.proc
    env.close()
    assert proc.poll() is not None
    env = workload.setup(workload.inputs(2))
    proc = env.server.proc
    env.server.kill()
    env.close()
    assert proc.poll() is not None


def test_the_speed_probe_reads_once_every_thread_stands_still():
    probe = speed.Probe(2, timeout=5.0)
    arrived = []

    def load():
        arrived.append(probe.wait())

    other = threading.Thread(target=load)
    other.start()
    time.sleep(0.05)
    assert len(probe.cpu) == 0  # one load thread still running its op
    load()
    other.join()
    assert arrived == [True, True]
    assert len(probe.cpu) == len(probe.at) == len(probe.paused) == 1
    assert probe.due > probe.at[0]
    assert 0 < speed.factor(probe.cpu) < 100


def test_a_stopped_speed_probe_releases_the_waiting_thread():
    probe = speed.Probe(2, timeout=5.0)
    arrived = []
    waiter = threading.Thread(target=lambda: arrived.append(probe.wait()))
    waiter.start()
    time.sleep(0.05)
    probe.stop()
    waiter.join(timeout=2)
    assert arrived == [False] and len(probe.cpu) == 0
    assert probe.wait() is False
