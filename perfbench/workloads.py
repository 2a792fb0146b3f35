"""The three benchmark workloads: seeded inputs, set-up, one op, and its oracle.

Every workload is a closed loop: a load thread sends its next request only
after the previous one answered. Inputs come only from the seed. Op mixes are
drawn in rounds of fixed composition: the seed picks order, operands and
values, never the counts. Load threads stop only at a round boundary, so a run
is whole rounds, every seed runs the same mix, ``frames_per_op`` is an exact
count, and per-round rates can be compared within a run.
"""
from __future__ import annotations

import os
import queue
import random
import signal
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path
from typing import Any, Iterator, Optional

from remotable import (
    AsyncHandle,
    DeferredHandle,
    EndpointAddr,
    LoopbackNetwork,
    Node,
    NotSerializableError,
    ShippedFn,
    UnknownFunctionError,
)
from remotable.funcs import OP_ADD, OP_INC, OP_MUL, run_int_pipeline

ROOT = Path(__file__).resolve().parent.parent
OP_DEADLINE_S = 20.0
SERVER_START_DEADLINE_S = 30.0
SERVER_STOP_DEADLINE_S = 20.0
_INT_BOUND = 2**40


class CheckFailed(Exception):
    """An op's result disagreed with the oracle."""


def check(condition: bool, detail: str) -> None:
    if not condition:
        raise CheckFailed(detail)


def encoded_size(value: Any) -> int:
    """Bytes of the rv1 encoding of a value, computed independently of the codec."""
    if isinstance(value, bool):
        return 2
    if isinstance(value, (int, float)):
        return 9
    if isinstance(value, str):
        return 5 + len(value.encode("utf-8"))
    if isinstance(value, (bytes, bytearray)):
        return 5 + len(value)
    if isinstance(value, list):
        return 5 + sum(encoded_size(item) for item in value)
    raise TypeError(f"no rv1 encoding for {type(value).__name__}")


def rss_kb(pid: int) -> int:
    with open(f"/proc/{pid}/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError(f"no VmRSS for pid {pid}")


def random_int_ops(rng: random.Random, start: int, length: int) -> list[int]:
    """A flat [opcode, operand, ...] int pipeline whose values stay within 2**40.

    The bound keeps every intermediate and final value inside the codec's
    64-bit range, so no op of the benchmark fails for its inputs.
    """
    ops: list[int] = []
    value = start
    for _ in range(length):
        roll = rng.random()
        if roll < 0.2:
            factor = rng.choice((2, 3, -1))
            if abs(value * factor) < _INT_BOUND:
                ops += [OP_MUL, factor]
                value *= factor
                continue
        if roll < 0.6:
            ops += [OP_INC, 0]
            value += 1
        else:
            operand = rng.randint(-50, 50)
            ops += [OP_ADD, operand]
            value += operand
    return ops


def pipeline_for(node: Node, ops: list[int]) -> ShippedFn:
    stages = []
    for i in range(0, len(ops), 2):
        opcode, operand = ops[i], ops[i + 1]
        if opcode == OP_INC:
            stages.append(node.stage("inc"))
        elif opcode == OP_ADD:
            stages.append(node.stage("add", operand))
        else:
            stages.append(node.stage("mul", operand))
    return ShippedFn(tuple(stages))


# -- server process -------------------------------------------------------------


class ServerProcess:
    """``remotable serve`` in its own process, started through the benchmark launcher.

    The launcher ties the server's life to this process, so a killed benchmark
    leaves no orphan; :meth:`stop` interrupts it, then kills and reaps it if it
    has not exited by the deadline.
    """

    def __init__(self, serve_args: list[str], trace_out: Optional[str] = None) -> None:
        cmd = [sys.executable, str(ROOT / "perfbench" / "server.py"), "--parent", str(os.getpid())]
        if trace_out is not None:
            cmd += ["--trace-out", trace_out]
        cmd += ["--", "serve", "--listen", "127.0.0.1:0", *serve_args]
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT)
        self._interrupted = False
        self._lines: "queue.Queue[Optional[str]]" = queue.Queue()
        self._reader = threading.Thread(target=self._read, daemon=True)
        self._reader.start()
        try:
            self.endpoint = self._await_endpoint()
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self) -> int:
        return self.proc.pid

    def _read(self) -> None:
        assert self.proc.stdout is not None
        for line in self.proc.stdout:
            self._lines.put(line)
        self._lines.put(None)

    def _await_endpoint(self) -> EndpointAddr:
        deadline = time.monotonic() + SERVER_START_DEADLINE_S
        while True:
            try:
                line = self._lines.get(timeout=max(0.0, deadline - time.monotonic()))
            except queue.Empty:
                raise RuntimeError("server did not start before its deadline") from None
            if line is None:
                raise RuntimeError(f"server exited with code {self.proc.wait()} before serving")
            if line.startswith("serving on "):
                return EndpointAddr.parse(line[len("serving on "):].strip())

    def interrupt(self) -> None:
        """Ask the server, once, to shut down; it writes its trace, if any, on the way out."""
        if not self._interrupted and self.proc.poll() is None:
            self._interrupted = True
            self.proc.send_signal(signal.SIGINT)

    def stop(self) -> Optional[int]:
        """Interrupt the server, wait for it, and kill it if it misses the deadline."""
        self.interrupt()
        if self.proc.poll() is None:
            try:
                self.proc.wait(timeout=SERVER_STOP_DEADLINE_S)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._reader.join(timeout=SERVER_STOP_DEADLINE_S)
        if self.proc.stdout is not None:
            self.proc.stdout.close()
        return self.proc.returncode

    def kill(self) -> None:
        """Stop a server that may be stalled: no grace period."""
        if self.proc.poll() is None:
            self.proc.kill()


# -- workload base --------------------------------------------------------------


class Env:
    """A set-up workload: its inputs, the nodes and handles placed, and the server."""

    def __init__(self, inputs: dict) -> None:
        self.inputs = inputs
        self.server: Optional[ServerProcess] = None
        self.nodes: list[Node] = []

    def frame_counts(self) -> Counter:
        """Request frames sent so far by every transport in this process, by variant.

        Read only while no op is in flight.
        """
        total: Counter = Counter()
        for node in self.nodes:
            total.update(node.transport.frame_counts)
        return total

    def host_rss_kb(self) -> int:
        return rss_kb(self.server.pid if self.server is not None else os.getpid())

    def close(self) -> None:
        if self.server is not None:
            self.server.interrupt()  # the server shuts down while the client nodes close
        try:
            for node in self.nodes:
                node.close()
        finally:
            if self.server is not None:
                self.server.stop()


class Workload:
    name = ""
    why = ""
    threads = 1
    over_tcp = False
    round_len = 1  # ops per round of each load thread
    # layers whose entry points the traced run must see called at least once
    layers: tuple[str, ...] = ()

    def inputs(self, seed: int) -> dict:
        raise NotImplementedError

    def setup(self, inputs: dict, trace_out: Optional[str] = None) -> Env:
        raise NotImplementedError

    def op_stream(self, inputs: dict, thread: int) -> Iterator[tuple]:
        raise NotImplementedError

    def new_state(self, env: Env, thread: int) -> dict:
        return {}

    def execute(self, env: Env, state: dict, op: tuple) -> tuple[float, int, int]:
        """Run one op and check it against the oracle.

        Returns (latency in seconds, value payload bytes carried by Export and
        RespValue, request frames the op should have sent). A wrong result
        raises CheckFailed; an expected typed error is a success.
        """
        raise NotImplementedError


def _tcp_env(inputs: dict, binds: list[str], trace_out: Optional[str]) -> tuple[Env, Node]:
    env = Env(inputs)
    try:
        env.server = ServerProcess(binds + ["--seed", str(inputs["seed"])], trace_out)
        client = Node.tcp("127.0.0.1", 0)
        env.nodes.append(client)
    except BaseException:
        env.close()
        raise
    return env, client


# -- rpc-small ------------------------------------------------------------------


class RpcSmall(Workload):
    name = "rpc-small"
    why = ("2 threads share one client and send small requests over TCP: per-message cost "
           "(message codec, sockets, dispatch, table export) and the per-endpoint lock set the rate")
    threads = 2
    over_tcp = True
    layers = ("protocol", "transport", "host", "shipping", "model", "node")

    BASES = 16
    POOL = 64
    # one round of 50: 20 map, 13 get, 3 pure + 3 kleisli flat_map, 5 lookup,
    # 5 stats and 1 expected typed error (token get and unknown function
    # alternate by round), i.e. 2% of ops answer with a RespError
    ROUND = (["map"] * 20 + ["get"] * 13 + ["pure"] * 3 + ["kleisli"] * 3
             + ["lookup"] * 5 + ["stats"] * 5 + ["error"])
    round_len = len(ROUND)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{seed}:{self.name}:bases")
        return {"seed": seed, "bases": [rng.randint(-1000, 1000) for _ in range(self.BASES)]}

    def setup(self, inputs: dict, trace_out: Optional[str] = None) -> Env:
        binds = [f"n{i}=int:{value}" for i, value in enumerate(inputs["bases"])] + ["tok=token"]
        env, client = _tcp_env(inputs, [a for b in binds for a in ("--bind", b)], trace_out)
        try:
            server = env.server.endpoint
            env.client = client
            env.bases = [client.lookup(server, f"n{i}") for i in range(self.BASES)]
            env.token = client.lookup(server, "tok")
        except BaseException:
            env.close()
            raise
        return env

    def op_stream(self, inputs: dict, thread: int) -> Iterator[tuple]:
        rng = random.Random(f"{inputs['seed']}:{self.name}:thread{thread}")
        bases = inputs["bases"]
        round_no = 0
        while True:
            kinds = list(self.ROUND)
            rng.shuffle(kinds)
            for kind in kinds:
                base = rng.randrange(len(bases))
                if kind in ("map", "kleisli"):
                    yield (kind, base, random_int_ops(rng, bases[base], rng.randint(1, 3)))
                elif kind == "get":
                    yield ("get", rng.random())
                elif kind == "error":
                    yield ("err_token",) if round_no % 2 == 0 else ("err_fn", base)
                else:
                    yield (kind, base)
            round_no += 1

    def new_state(self, env: Env, thread: int) -> dict:
        # map results for gets to read back, each with its expected value
        bases = env.inputs["bases"]
        inc = env.client.stage("inc")
        return {"pool": [(env.bases[i].map(inc), bases[i] + 1) for i in range(8)]}

    def _remember(self, state: dict, handle: Any, expected: int) -> None:
        pool = state["pool"]
        if len(pool) >= self.POOL:
            pool.pop(0)
        pool.append((handle, expected))

    def execute(self, env: Env, state: dict, op: tuple) -> tuple[float, int, int]:
        client, server, bases = env.client, env.server.endpoint, env.inputs["bases"]
        kind = op[0]
        if kind == "map":
            _, base, ops = op
            pipeline = pipeline_for(client, ops)
            t0 = time.perf_counter()
            handle = env.bases[base].map(pipeline)
            latency = time.perf_counter() - t0
            check(handle.descriptor.endpoint == server, f"map result hosted at {handle.descriptor}")
            self._remember(state, handle, run_int_pipeline(ops, bases[base]))
            return latency, 0, 1
        if kind == "get":
            pool = state["pool"]
            handle, expected = pool[int(op[1] * len(pool))]
            t0 = time.perf_counter()
            value = handle.get()
            latency = time.perf_counter() - t0
            check(value == expected, f"get returned {value!r}, expected {expected!r}")
            return latency, encoded_size(value), 1
        if kind in ("pure", "kleisli"):
            stage = client.stage("pure") if kind == "pure" else client.stage("kleisli_int", op[2])
            t0 = time.perf_counter()
            handle = env.bases[op[1]].flat_map(stage)
            latency = time.perf_counter() - t0
            expected = bases[op[1]] if kind == "pure" else run_int_pipeline(op[2], bases[op[1]])
            self._remember(state, handle, expected)
            return latency, 0, 1
        if kind == "lookup":
            t0 = time.perf_counter()
            handle = client.lookup(server, f"n{op[1]}")
            latency = time.perf_counter() - t0
            check(handle.descriptor == env.bases[op[1]].descriptor, "lookup named another object")
            return latency, 0, 1
        if kind == "stats":
            t0 = time.perf_counter()
            counts = env.bases[op[1]].stats()
            latency = time.perf_counter() - t0
            check(counts == (0, 0), f"stats of a never-forced value read {counts}")
            return latency, 0, 1
        if kind == "err_token":
            t0 = time.perf_counter()
            try:
                env.token.get()
            except NotSerializableError:
                return time.perf_counter() - t0, 0, 1
            raise CheckFailed("get of a token did not raise NotSerializableError")
        if kind == "err_fn":
            stage = client.stage("no_such_fn")
            t0 = time.perf_counter()
            try:
                env.bases[op[1]].map(stage)
            except UnknownFunctionError:
                return time.perf_counter() - t0, 0, 1
            raise CheckFailed("an unknown function did not raise UnknownFunctionError")
        raise ValueError(f"unknown op {kind!r}")


# -- bulk-values ------------------------------------------------------------------


_TEXT_ALPHABET = "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789 _-éλ€"


def _make_value(rng: random.Random, kind: str, size: int) -> Any:
    """A value of the given kind whose rv1 encoding is close to ``size`` bytes."""
    if kind == "blob":
        return rng.randbytes(max(0, size - 5))
    if kind == "int_list":
        return [rng.getrandbits(63) - 2**62 for _ in range(max(1, (size - 5) // 9))]
    if kind == "float_list":
        return [rng.uniform(-1e6, 1e6) for _ in range(max(1, (size - 5) // 9))]
    text = "".join(rng.choices(_TEXT_ALPHABET, k=4096))
    items, total = [], 5
    while total < size:
        start = rng.randrange(len(text) - 128)
        item = text[start:start + rng.randint(8, 120)]
        items.append(item)
        total += 5 + len(item.encode("utf-8"))
    return items


class BulkValues(Workload):
    name = "bulk-values"
    why = ("1 thread over TCP alternates an Export of a seeded int, float or text list or blob "
           "(1.4-724 KiB encoded, log grid) with a Get of an earlier one: the value codec does the work")
    over_tcp = True
    layers = ("protocol", "transport", "host", "model", "node")

    KINDS = ("int_list", "float_list", "text_list", "blob")
    SLOTS = 10  # sizes per kind
    MIN_SIZE, MAX_SIZE = 1 << 10, 1 << 20
    round_len = 2 * SLOTS * len(KINDS)

    def sizes(self) -> list[int]:
        """Target encoded sizes of one kind: log-uniform over 1 KiB to 1 MiB.

        One size at the middle of each of SLOTS equal steps of the log range
        (1.4 KiB to 724 KiB), the same for every seed, so runs differ only in
        contents and order and the slowest ops (which set p99) do not move.
        """
        span = self.MAX_SIZE / self.MIN_SIZE
        return [int(self.MIN_SIZE * span ** ((slot + 0.5) / self.SLOTS)) for slot in range(self.SLOTS)]

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{seed}:{self.name}:values")
        values = [_make_value(rng, kind, size) for kind in self.KINDS for size in self.sizes()]
        return {"seed": seed, "sizes": [encoded_size(v) for v in values], "values": values}

    def setup(self, inputs: dict, trace_out: Optional[str] = None) -> Env:
        env, client = _tcp_env(inputs, ["--bind", "ready=int:0"], trace_out)
        try:
            env.client = client
            client.lookup(env.server.endpoint, "ready")
        except BaseException:
            env.close()
            raise
        return env

    def op_stream(self, inputs: dict, thread: int) -> Iterator[tuple]:
        rng = random.Random(f"{inputs['seed']}:{self.name}:order")
        slots = list(range(len(inputs["values"])))
        while True:
            rng.shuffle(slots)
            for slot in slots:
                yield ("export", slot)
                yield ("get", slot, rng.random())

    def new_state(self, env: Env, thread: int) -> dict:
        return {"exported": [[] for _ in env.inputs["values"]]}

    def execute(self, env: Env, state: dict, op: tuple) -> tuple[float, int, int]:
        slot = op[1]
        value = env.inputs["values"][slot]
        if op[0] == "export":
            t0 = time.perf_counter()
            handle = env.client.export_to(env.server.endpoint, value)
            latency = time.perf_counter() - t0
            check(handle.descriptor.endpoint == env.server.endpoint,
                  f"export hosted at {handle.descriptor}")
            state["exported"][slot].append(handle)
            return latency, env.inputs["sizes"][slot], 1
        # a get of an earlier export of the same size slot (possibly the last one)
        earlier = state["exported"][slot]
        handle = earlier[int(op[2] * len(earlier))]
        t0 = time.perf_counter()
        got = handle.get()
        latency = time.perf_counter() - t0
        check(got == value, f"get of slot {slot} returned a different value")
        return latency, env.inputs["sizes"][slot], 1


# -- pipelines-loopback --------------------------------------------------------------


class PipelinesLoopback(Workload):
    name = "pipelines-loopback"
    why = ("in-process loopback, 2 hosts + 1 client: eager, deferred and async chains of 1-64 "
           "stages and two-object compositions; pipeline codec, dispatch and evaluate set the rate")
    layers = ("protocol", "transport", "host", "shipping", "model", "node", "adapters")

    BASES = 32
    PAIRS = 16
    CHAIN_LENGTHS = (1, 2, 4, 8, 16, 32, 64)
    ASYNC_LENGTHS = (1, 4, 16)
    TWO_OBJECT = 3
    ROUND = ([("eager", n) for n in CHAIN_LENGTHS] + [("deferred", n) for n in CHAIN_LENGTHS]
             + [("async", n) for n in ASYNC_LENGTHS]
             + [("pair", 0)] * TWO_OBJECT + [("kleisli_then", 0)] * TWO_OBJECT)
    round_len = len(ROUND)

    def inputs(self, seed: int) -> dict:
        rng = random.Random(f"{seed}:{self.name}:objects")
        pairs = []
        for i in range(self.PAIRS):
            left = rng.randint(-1000, 1000)
            pairs.append((left, left if i % 2 == 0 else left + rng.randint(1, 50)))
        return {
            "seed": seed,
            "bases": [rng.randint(-1000, 1000) for _ in range(2 * self.BASES)],
            "pairs": pairs,
        }

    def setup(self, inputs: dict, trace_out: Optional[str] = None) -> Env:
        env = Env(inputs)
        try:
            network = LoopbackNetwork()
            host_a, host_b, client = (Node.loopback(network) for _ in range(3))
            env.nodes += [client, host_a, host_b]
            env.client, env.host_a, env.host_b = client, host_a, host_b
            # even bases live on host A, odd ones on host B
            env.bases = [client.export_to((host_a, host_b)[i % 2].endpoint, value)
                         for i, value in enumerate(inputs["bases"])]
            env.pairs = [(client.export_to(host_a.endpoint, left),
                          client.export_to(host_b.endpoint, right))
                         for left, right in inputs["pairs"]]
        except BaseException:
            env.close()
            raise
        return env

    def op_stream(self, inputs: dict, thread: int) -> Iterator[tuple]:
        rng = random.Random(f"{inputs['seed']}:{self.name}:ops")
        bases = inputs["bases"]
        while True:
            kinds = list(self.ROUND)
            rng.shuffle(kinds)
            for kind, length in kinds:
                base = rng.randrange(len(bases))
                if kind == "pair":
                    yield ("pair", rng.randrange(len(inputs["pairs"])))
                elif kind == "kleisli_then":
                    first = random_int_ops(rng, bases[base], rng.randint(1, 4))
                    second = random_int_ops(rng, run_int_pipeline(first, bases[base]),
                                            rng.randint(1, 4))
                    yield ("kleisli_then", base, first, second)
                else:
                    yield (kind, base, random_int_ops(rng, bases[base], length))

    def _frames(self, env: Env) -> tuple[int, int, int]:
        return (env.client.transport.request_frames, env.host_a.transport.request_frames,
                env.host_b.transport.request_frames)

    def execute(self, env: Env, state: dict, op: tuple) -> tuple[float, int, int]:
        client, kind = env.client, op[0]
        before = self._frames(env)
        if kind == "pair":
            left, right = env.pairs[op[1]]
            stage = client.stage("pair_equals_outer", right)
            t0 = time.perf_counter()
            value = left.flat_map(stage).get()
            latency = time.perf_counter() - t0
            expected = env.inputs["pairs"][op[1]][0] == env.inputs["pairs"][op[1]][1]
            # client: FlatMap + Get; host A ships the inner comparison to host B
            frames = (2, 1, 0)
        elif kind == "kleisli_then":
            _, base, first, second = op
            stage = client.stage("kleisli_int_then", first, second)
            t0 = time.perf_counter()
            value = env.bases[base].flat_map(stage).get()
            latency = time.perf_counter() - t0
            expected = run_int_pipeline(second, run_int_pipeline(first, env.inputs["bases"][base]))
            # the inner flat_map runs where its value lives: locality replacement, 0 frames
            frames = (2, 0, 0)
        else:
            _, base, ops = op
            stages = pipeline_for(client, ops).stages
            n = len(stages)
            t0 = time.perf_counter()
            if kind == "eager":
                handle = env.bases[base]
                for stage in stages:
                    handle = handle.map(stage)
                value = handle.get()
            elif kind == "deferred":
                deferred = DeferredHandle.wrap(env.bases[base])
                for stage in stages:
                    deferred = deferred.map(stage)
                value = deferred.get()
            else:
                pending = AsyncHandle.wrap(env.bases[base])
                for stage in stages:
                    pending = pending.map(stage)
                value = pending.force(timeout=OP_DEADLINE_S)
            latency = time.perf_counter() - t0
            expected = run_int_pipeline(ops, env.inputs["bases"][base])
            # the paper's counts: a deferred chain is one Map plus one Get,
            # an eager (or async) chain is n Maps plus one Get
            frames = (2 if kind == "deferred" else n + 1, 0, 0)
        check(value == expected, f"{kind} returned {value!r}, expected {expected!r}")
        sent = tuple(after - prior for after, prior in zip(self._frames(env), before))
        check(sent == frames, f"{kind} sent {sent} request frames (client, A, B), expected {frames}")
        return latency, encoded_size(value), sum(frames)


WORKLOADS = {w.name: w for w in (RpcSmall(), BulkValues(), PipelinesLoopback())}
