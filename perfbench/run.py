"""The repository benchmark: seeded closed-loop workloads, checked against oracles.

Usage (from the repository root):

    python3 perfbench/run.py --workload rpc-small --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics of an untraced run. ``--trace 1``
runs the workload untraced for half the time and traced for the other half,
and prints the per-layer metrics (see ``layers.py``) with ``trace.overhead``,
the traced op rate over the untraced one. Reported times are rescaled to a
nominal CPU speed, read by a reference loop during the run (``speed.py``).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the command exits non-zero if any
op failed.
"""
from __future__ import annotations

import argparse
import array
import gc
import json
import os
import platform
import signal
import statistics
import sys
import threading
import time
from pathlib import Path
from typing import Optional

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "perfbench" / "out"
# set-up is timed before and again after the timed phase, so that it samples
# the machine at two moments: each time at least SETUP_REPEATS times, and
# until SETUP_BUDGET_S has been spent, but at most SETUP_REPEATS_MAX times
SETUP_REPEATS = 3
SETUP_BUDGET_S = 0.5
SETUP_REPEATS_MAX = 50
WARMUP_S = 1.0
WINDOWS = 10
# a phase still running this long after it was due to end has stalled
RUN_GRACE_S = 60.0
# passes of the reference loop (speed.py) before and after each set-up
SETUP_SPEED_SAMPLES = 5

# name -> (unit, which direction is better)
END_TO_END = {
    "setup_s": ("s", "lower"),
    "ops_per_s": ("ops/s", "higher"),
    "latency_p50_ms": ("ms", "lower"),
    "latency_p99_ms": ("ms", "lower"),
    "goodput_mb_s": ("MB/s", "higher"),
    "frames_per_op": ("frames", "lower"),
    "ok_frac": ("ratio", "higher"),
    "host_rss_growth_kb_per_op": ("KB/op", "lower"),
}


def _import_library() -> None:
    """Import remotable from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    if not (src / "remotable" / "__init__.py").is_file():
        sys.exit(f"perfbench: no remotable sources under {src}")
    sys.path.insert(0, str(src))
    import remotable

    if Path(remotable.__file__).resolve().parent != (src / "remotable").resolve():
        sys.exit(f"perfbench: imported remotable from {remotable.__file__}, not {src}")


_import_library()

import layers  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402


def _pin_cpu() -> list[int]:
    """Pin this process, and so the server processes it starts, to one CPU.

    On a machine whose CPUs are virtual, a reply that has to wake the other
    CPU waits for a cross-CPU wake-up whose cost swings with the load of the
    host: unpinned, the op rate of the TCP workloads jumped by 2x from one
    second to the next as the scheduler moved client and server between CPUs.
    On one CPU the client and the server still take turns, as a closed loop
    does anyway.
    """
    cpu = sorted(os.sched_getaffinity(0))[:1]
    os.sched_setaffinity(0, cpu)
    return cpu


class Load:
    """One load thread: its op stream and state, its counters, the op in flight."""

    def __init__(self, workload: workloads.Workload, env: workloads.Env, index: int) -> None:
        self.workload = workload
        self.env = env
        self.index = index
        self.stream = workload.op_stream(env.inputs, index)
        self.state: dict = {}
        self.started: Optional[float] = None  # perf_counter at entry of the op in flight
        self.latencies = array.array("d")
        self.ends = array.array("d")  # perf_counter at the end of each timed op
        self.payloads = array.array("q")
        self.attempted = self.failed = self.timed_ops = 0
        self.frames = 0
        self.failures: list[str] = []
        self.async_ops: list[tuple[int, float, float, int]] = []
        self.ready = threading.Event()
        self.done = threading.Event()

    def _run_ops(self, until: float, stop: threading.Event, tracer,
                 probe: Optional[speed.Probe]) -> None:
        workload, count, op_id, timed = self.workload, 0, self.index, probe is not None
        while not stop.is_set():
            now = time.perf_counter()
            if now >= until and count % workload.round_len == 0:
                return
            if probe is not None and now >= probe.due and not probe.wait():
                probe = None  # another load thread has finished
            op = next(self.stream)
            count += 1
            self.attempted += 1
            if tracer is not None:
                op_id += workload.threads  # ids are unique across load threads
                tracer.set_op(op_id)
                op_start = tracing.now()
            self.started = time.perf_counter()
            try:
                latency, payload, frames = workload.execute(self.env, self.state, op)
            except Exception as exc:  # a failed op, whatever raised it
                self.failed += 1
                if len(self.failures) < 5:
                    self.failures.append(f"{op[0]}: {type(exc).__name__}: {exc}")
                if not isinstance(exc, workloads.CheckFailed):
                    stop.set()  # the connection or a host is gone: end the run
                continue
            finally:
                self.started = None
                if tracer is not None:
                    tracer.set_op(0)
            if timed:
                self.ends.append(time.perf_counter())
                self.timed_ops += 1
                self.latencies.append(latency)
                self.payloads.append(payload)
                self.frames += frames
                if tracer is not None and op[0] == "async":
                    self.async_ops.append((op_id, op_start, tracing.now(), frames))

    def main(self, warm_until: float, go: threading.Event, stop: threading.Event,
             until: list, tracer, probe: speed.Probe) -> None:
        """Warm up, wait for ``go``, then run timed ops until ``until[0]``.

        ``until[0]`` is set by the watching thread just before it sets ``go``.
        """
        try:
            self.started = time.perf_counter()
            self.state = self.workload.new_state(self.env, self.index)
            self.started = None
            self._run_ops(warm_until, stop, None, None)
            self.ready.set()
            while not go.wait(0.05):
                if stop.is_set():
                    return
            self._run_ops(until[0], stop, tracer, probe)
        except Exception as exc:
            self.failed += 1
            self.failures.append(f"load thread {self.index}: {type(exc).__name__}: {exc}")
            stop.set()
        finally:
            probe.stop()  # the other load threads no longer wait for this one
            self.started = None
            self.ready.set()
            self.done.set()


class Phase:
    """Set-up, warm-up and one timed phase of a workload, with what was measured."""

    def __init__(self, workload: workloads.Workload, inputs: dict, seconds: float,
                 repeat_setup: bool = False, tracer=None, trace_out: Optional[str] = None) -> None:
        self.workload = workload
        self.setup_times: list[float] = []
        self.setup_factors: list[float] = []
        self.loads: list[Load] = []
        self.probe = speed.Probe(workload.threads, workloads.OP_DEADLINE_S)
        self.failures: list[str] = []
        self.completed = False
        self.wall = 0.0
        self.frames: dict[str, int] = {}
        self.rss_growth_kb = 0
        self.window = (0.0, 0.0)
        self.t_start = 0.0
        self._run(inputs, seconds, repeat_setup, tracer, trace_out)

    def _watch(self, event: str, deadline: float, stop: threading.Event) -> bool:
        """Wait until every load has set ``event``; enforce the op and phase deadlines."""
        while not all(getattr(load, event).is_set() for load in self.loads):
            now = time.perf_counter()
            for load in self.loads:
                started = load.started
                if started is not None and now - started > workloads.OP_DEADLINE_S:
                    load.failed += 1
                    self.failures.append(
                        f"load thread {load.index}: an op missed its {workloads.OP_DEADLINE_S:.0f} s deadline")
                    stop.set()
                    return False
            if now > deadline:
                self.failures.append("the phase missed its deadline")
                stop.set()
                return False
            time.sleep(0.02)
        return not stop.is_set()

    def _time_setup(self, inputs: dict, trace_out: Optional[str]) -> workloads.Env:
        gc.collect()  # garbage of an earlier set-up is not charged to this one
        taken = speed.samples(SETUP_SPEED_SAMPLES)
        t0 = time.perf_counter()
        env = self.workload.setup(inputs, trace_out)
        self.setup_times.append(time.perf_counter() - t0)
        self.setup_factors.append(speed.factor(taken + speed.samples(SETUP_SPEED_SAMPLES)))
        return env

    def _time_setups(self, inputs: dict) -> None:
        """Set up and tear down until the repeat rules above are met."""
        times = []
        while len(times) < SETUP_REPEATS_MAX and (
                len(times) < SETUP_REPEATS or sum(times) < SETUP_BUDGET_S):
            self._time_setup(inputs, None).close()
            times.append(self.setup_times[-1])

    def _run(self, inputs: dict, seconds: float, repeat_setup: bool, tracer,
             trace_out: Optional[str]) -> None:
        workload, env, threads = self.workload, None, []
        stop, go = threading.Event(), threading.Event()
        try:
            if repeat_setup:
                self._time_setups(inputs)
            env = self._time_setup(inputs, trace_out)
            gc.collect()
            until = [float("inf")]
            self.loads = [Load(workload, env, i) for i in range(workload.threads)]
            warm_until = time.perf_counter() + WARMUP_S
            threads = [threading.Thread(target=load.main,
                                        args=(warm_until, go, stop, until, tracer, self.probe),
                                        name=f"load-{load.index}", daemon=True)
                       for load in self.loads]
            for thread in threads:
                thread.start()
            if self._watch("ready", warm_until + RUN_GRACE_S, stop):
                frames_before = env.frame_counts()
                rss_before = env.host_rss_kb()
                self.t_start = t_start = time.perf_counter()
                mono_start = tracing.now()
                until[0] = t_start + seconds
                go.set()
                if self._watch("done", until[0] + RUN_GRACE_S, stop):
                    self.window = (mono_start, tracing.now())
                    self.wall = max(load.ends[-1] for load in self.loads if load.ends) - t_start
                    self.frames = dict(env.frame_counts() - frames_before)
                    self.rss_growth_kb = env.host_rss_kb() - rss_before
                    self.completed = True
        finally:
            stop.set()
            self.probe.stop()
            if env is not None and env.server is not None and not self.completed:
                env.server.kill()  # unblocks a load thread stuck on a stalled socket
            for thread in threads:
                thread.join(timeout=10)
                if thread.is_alive():
                    self.failures.append(f"{thread.name} did not stop")
            for load in self.loads:
                self.failures.extend(load.failures)
                load.env, load.state = None, {}  # let the hosted values go
            if env is not None:
                env.close()
                env = None
        if self.completed and repeat_setup:
            self._time_setups(inputs)

    @property
    def attempted(self) -> int:
        return sum(load.attempted for load in self.loads)

    @property
    def failed(self) -> int:
        return sum(load.failed for load in self.loads)

    @property
    def timed_ops(self) -> int:
        return sum(load.timed_ops for load in self.loads)

    @property
    def ok(self) -> bool:
        return self.completed and self.failed == 0 and not self.failures

    def check_frames(self) -> None:
        """Request frames counted by the transports must equal the ops' own counts."""
        expected = sum(load.frames for load in self.loads)
        counted = sum(self.frames.values())
        if counted != expected:
            self.failures.append(f"transports counted {counted} request frames, ops expect {expected}")

    def windows(self) -> list[tuple[float, float]]:
        """Up to WINDOWS spans of the timed phase, each of whole rounds of load 0."""
        ends = self.loads[0].ends
        rounds = [self.t_start] + list(ends[self.workload.round_len - 1::self.workload.round_len])
        count = min(WINDOWS, len(rounds) - 1)
        cuts = [rounds[round(k * (len(rounds) - 1) / count)] for k in range(count + 1)]
        return list(zip(cuts, cuts[1:]))

    def speed_factor(self) -> float:
        """The CPU's speed over the whole timed phase (see speed.py)."""
        return speed.factor(self.probe.cpu)

    def window_speeds(self, windows: list[tuple[float, float]]) -> tuple[list[float], list[float]]:
        """Per window: the CPU's speed, and the seconds the load ran (pauses taken out)."""
        whole = self.speed_factor()
        factors, spans = [], []
        for lo, hi in windows:
            inside = [k for k, at in enumerate(self.probe.at) if lo <= at <= hi]
            factors.append(speed.factor(self.probe.cpu[k] for k in inside) if inside else whole)
            spans.append(hi - lo - sum(self.probe.paused[k] for k in inside))
        return factors, spans

    def end_to_end(self) -> tuple[dict[str, float], dict]:
        """Medians over windows of whole rounds, at the nominal CPU speed.

        Every time is rescaled by the speed the reference loop read in its
        window (speed.py): a latency is multiplied by the window's factor,
        a rate divided by it. Set-up times are rescaled by the reading taken
        around each set-up. Rates and goodput are medians of per-window
        values, so a burst of outside load moves them little. p50 is taken
        over all samples of the phase: an op mix of a few dozen kinds puts a
        window's median between two kinds, where it jumps. p99 is a median of
        per-window values when every window holds at least 1000 samples (10
        above its p99); otherwise it too is taken over the whole phase.
        """
        ops = max(self.timed_ops, 1)
        windows = self.windows()
        factors, spans = self.window_speeds(windows)
        samples: list[list[float]] = [[] for _ in windows]
        payload = [0] * len(windows)
        for load in self.loads:
            k = 0
            for end, latency, size in zip(load.ends, load.latencies, load.payloads):
                while k < len(windows) and end > windows[k][1]:
                    k += 1
                if k == len(windows):
                    break
                samples[k].append(latency * factors[k])
                payload[k] += size
        spans = [span * f for span, f in zip(spans, factors)]
        everything = sorted(x for window in samples for x in window)
        p99_all = _percentile(everything, 99)
        if min(len(window) for window in samples) >= 1000:
            p99 = statistics.median(_percentile(sorted(w), 99) for w in samples)
        else:
            p99 = p99_all
        rates = [len(w) / span for w, span in zip(samples, spans)]
        metrics = {
            "setup_s": statistics.median(t * f for t, f in zip(self.setup_times, self.setup_factors)),
            "ops_per_s": statistics.median(rates),
            "latency_p50_ms": 1e3 * statistics.median(everything),
            "latency_p99_ms": 1e3 * p99,
            "goodput_mb_s": statistics.median(b / span for b, span in zip(payload, spans)) / 1e6,
            "frames_per_op": sum(self.frames.values()) / ops,
            "ok_frac": (self.attempted - self.failed) / max(self.attempted, 1),
            "host_rss_growth_kb_per_op": self.rss_growth_kb / ops,
        }
        info = {
            "latency_samples": len(everything),
            "samples_above_p99": sum(1 for x in everything if x > p99_all),
            "windows": len(windows),
            "ops_per_s_by_window": [round(rate, 1) for rate in rates],
            "speed_by_window": [round(f, 3) for f in factors],
            "speed_samples": len(self.probe.cpu),
            "wall_ops_per_s": self.timed_ops / self.wall,
            "timed_ops": self.timed_ops,
            "wall_s": self.wall,
            "setup_times_s": self.setup_times,
            "setup_speeds": [round(f, 3) for f in self.setup_factors],
        }
        return metrics, info


def _percentile(ordered: list[float], pct: int) -> float:
    return statistics.quantiles(ordered, n=100)[pct - 1] if len(ordered) > 1 else ordered[0]


def run_untraced(workload, inputs: dict, seconds: float) -> tuple[Phase, dict, dict]:
    phase = Phase(workload, inputs, seconds, repeat_setup=True)
    if not phase.ok:
        return phase, {}, {}
    phase.check_frames()
    metrics, samples = phase.end_to_end()
    if samples["samples_above_p99"] < 10:
        print(f"perfbench: only {samples['samples_above_p99']} samples above p99; "
              "run longer for a p99 with at least 10", file=sys.stderr)
    return phase, metrics, samples


def run_traced(workload, inputs: dict, seconds: float) -> tuple[list[Phase], dict, dict]:
    base = Phase(workload, inputs, seconds / 2)
    if not base.ok:
        return [base], {}, {}
    OUT.mkdir(parents=True, exist_ok=True)
    stem = OUT / f"trace-{workload.name}"  # one pair of span files per workload, overwritten
    server_out = f"{stem}-server.pkl"
    if os.path.exists(server_out):
        os.remove(server_out)
    tracer = tracing.Tracer()
    uninstall = tracing.install(tracer)
    try:
        traced = Phase(workload, inputs, seconds / 2, tracer=tracer, trace_out=
                       server_out if workload.over_tcp else None)
    finally:
        uninstall()
    phases = [base, traced]
    if not traced.ok:
        return phases, {}, {}
    traced.check_frames()
    tracer.dump(f"{stem}-client.pkl")
    server = tracing.Spans.load(server_out) if workload.over_tcp else None
    # op rates at the nominal speed, since the two phases ran at different moments
    overhead = ((traced.timed_ops / traced.wall / traced.speed_factor())
                / (base.timed_ops / base.wall / base.speed_factor()))
    async_ops = [op for load in traced.loads for op in load.async_ops]
    metrics, calls = layers.layer_metrics(
        tracing.Spans(tracer.snapshot()), server, traced.window, traced.timed_ops,
        traced.frames, async_ops, overhead)
    for layer in workload.layers:
        if calls[layer] == 0:
            traced.failures.append(f"traced run saw no call into layer {layer!r}")
    return phases, metrics, {"layer_calls": calls, "timed_ops": traced.timed_ops}


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    workload = workloads.WORKLOADS[args.workload]
    cpus = _pin_cpu()
    inputs = workload.inputs(args.seed)
    if args.trace:
        phases, metrics, extra = run_traced(workload, inputs, args.seconds)
        units = layers.METRICS
    else:
        phase, metrics, extra = run_untraced(workload, inputs, args.seconds)
        phases = [phase]
        units = END_TO_END
    attempted = sum(p.attempted for p in phases)
    failed = sum(p.failed for p in phases)
    failures = [f for p in phases for f in p.failures]
    correct = bool(metrics) and not failures and failed == 0
    for failure in failures:
        print(f"perfbench: {failure}", file=sys.stderr)

    info = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpus": cpus,
        "network": "host loopback interface (127.0.0.1)" if workload.over_tcp
                   else "in-process loopback fabric, no sockets",
        **extra,
    }
    for name, (unit, _) in units.items():
        if name in metrics:
            print(f"{workload.name:20} {name:42} {metrics[name]:>14.6g} {unit}")
    print("info " + json.dumps(info))
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, (unit, _) in units.items() if name in metrics},
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json", "w") as out:
        json.dump({"info": info, **result}, out, indent=1)
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def _terminate(signum: int, frame) -> None:
    raise SystemExit(128 + signum)  # unwinds through the finally blocks that stop the server


if __name__ == "__main__":
    signal.signal(signal.SIGTERM, _terminate)
    sys.exit(main())
