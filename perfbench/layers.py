"""Per-layer metrics computed from the spans of one traced run.

Self time is a span's duration minus the time its direct child spans cover.
Client spans are kept when they carry a timed op's id; server spans carry no
op id (the protocol has no trace id), so they are kept when they start inside
the timed window and are charged per client op.
"""
from __future__ import annotations

from collections import defaultdict
from typing import Optional

from tracer import KINDS, LAYERS, Spans

VARIANTS = ("Map", "FlatMap", "Get", "Export", "Lookup", "Stats")
ERROR_CODES = {1: "NOT_FOUND", 2: "UNKNOWN_OBJECT", 3: "UNKNOWN_FUNCTION", 4: "NOT_SERIALIZABLE",
               5: "CONTRACT_VIOLATION", 6: "EXECUTION_ERROR", 7: "PROTOCOL_ERROR"}

# name -> (unit, which direction is better), in report order
METRICS: dict[str, tuple[str, str]] = {
    "protocol.message_codec.us_per_op": ("us", "lower"),
    "protocol.message_codec.calls_per_op": ("calls", "lower"),
    "protocol.frame_bytes_per_op": ("B", "lower"),
    "protocol.value_codec.us_per_op": ("us", "lower"),
    **{f"protocol.encode_value.{kind}.mb_s": ("MB/s", "higher") for kind in KINDS},
    **{f"protocol.decode_value.{kind}.mb_s": ("MB/s", "higher") for kind in KINDS},
    "transport.call.us": ("us", "lower"),
    "transport.call.self_us": ("us", "lower"),
    "transport.call.inflight_mean": ("calls", "lower"),
    "transport.tcp.overhead_us": ("us", "lower"),
    **{f"transport.frames.{variant}_per_op": ("frames", "lower") for variant in VARIANTS},
    **{f"host.dispatch.{variant}.us": ("us", "lower") for variant in VARIANTS},
    "host.handle_frame.us": ("us", "lower"),
    **{f"host.errors.{code}_per_op": ("count", "lower") for code in ERROR_CODES.values()},
    "shipping.evaluate.us": ("us", "lower"),
    "shipping.evaluate.stages_per_call": ("stages", "higher"),
    "shipping.evaluate.us_per_stage": ("us", "lower"),
    "model.table.entries_end": ("count", "lower"),
    "model.table.entries_per_op": ("count", "lower"),
    "model.export.us": ("us", "lower"),
    "node.local_share": ("ratio", "higher"),
    "node.map.us": ("us", "lower"),
    "node.get.us": ("us", "lower"),
    "node.export_to.us": ("us", "lower"),
    "adapters.deferred.stages_per_map": ("stages", "higher"),
    "adapters.async.handoff_us_per_step": ("us", "lower"),
    **{f"layer.{layer}.calls_per_op": ("calls", "lower") for layer in LAYERS},
    "trace.overhead": ("ratio", "higher"),
}


class _Group:
    """Sums over the spans of one name: count, duration, self time, n."""

    __slots__ = ("count", "dur", "self_time", "n")

    def __init__(self) -> None:
        self.count = 0
        self.dur = 0.0
        self.self_time = 0.0
        self.n = 0


def _groups(spans: Spans, keep: list[int]) -> dict[str, _Group]:
    groups: dict[str, _Group] = defaultdict(_Group)
    for i in keep:
        group = groups[spans.names[spans.name[i]]]
        group.count += 1
        group.dur += spans.dur[i]
        group.self_time += spans.self_time[i]
        group.n += spans.n[i]
    return groups


def _merge(*parts: dict[str, _Group]) -> dict[str, _Group]:
    merged: dict[str, _Group] = defaultdict(_Group)
    for part in parts:
        for name, group in part.items():
            into = merged[name]
            into.count += group.count
            into.dur += group.dur
            into.self_time += group.self_time
            into.n += group.n
    return merged


def _prefixed(groups: dict[str, _Group], prefix: str) -> list[_Group]:
    return [g for name, g in groups.items() if name == prefix or name.startswith(prefix + ".")]


def _mean_us(parts: list[_Group], field: str = "dur") -> float:
    count = sum(g.count for g in parts)
    return 1e6 * sum(getattr(g, field) for g in parts) / count if count else 0.0


def layer_metrics(
    client: Spans,
    server: Optional[Spans],
    window: tuple[float, float],
    ops: int,
    frames: dict[str, int],
    async_ops: list[tuple[int, float, float, int]],
    overhead: float,
) -> tuple[dict[str, float], dict[str, int]]:
    """Returns (metric name -> value, layer -> calls seen) for one traced run.

    ``frames`` are the request frames sent during the timed phase by variant;
    ``async_ops`` are (op id, start, end, steps) of the async-chain ops.
    """
    ops = max(ops, 1)
    client_keep = client.select(lambda i: client.op[i] > 0)
    client_groups = _groups(client, client_keep)
    server_keep: list[int] = []
    if server is not None:
        lo, hi = window
        server_keep = server.select(lambda i: lo <= server.start[i] <= hi)
    server_groups = _groups(server, server_keep) if server is not None else {}
    groups = _merge(client_groups, server_groups)
    out: dict[str, float] = {}

    message = _prefixed(groups, "protocol.encode_message") + _prefixed(groups, "protocol.decode_message")
    complete = [groups[n] for n in ("protocol.encode_message", "protocol.decode_message") if n in groups]
    out["protocol.message_codec.us_per_op"] = 1e6 * sum(g.self_time for g in message) / ops
    out["protocol.message_codec.calls_per_op"] = sum(g.count for g in complete) / ops
    out["protocol.frame_bytes_per_op"] = sum(g.n for g in _prefixed(groups, "protocol.encode_message")) / ops
    values = _prefixed(groups, "protocol.encode_value") + _prefixed(groups, "protocol.decode_value")
    out["protocol.value_codec.us_per_op"] = 1e6 * sum(g.self_time for g in values) / ops
    for direction in ("encode", "decode"):
        for kind in KINDS:
            group = groups.get(f"protocol.{direction}_value.{kind}")
            rate = group.n / group.dur / 1e6 if group is not None and group.dur > 0 else 0.0
            out[f"protocol.{direction}_value.{kind}.mb_s"] = rate

    calls = _prefixed(client_groups, "transport.call")
    out["transport.call.us"] = _mean_us(calls)
    out["transport.call.self_us"] = _mean_us(calls, "self_time")
    count = sum(g.count for g in calls)
    out["transport.call.inflight_mean"] = sum(g.n for g in calls) / count if count else 0.0
    weighted, weight = 0.0, 0
    if server is not None:
        for variant in VARIANTS:
            call = client_groups.get(f"transport.call.{variant}")
            dispatch = server_groups.get(f"host.dispatch.{variant}")
            if call is not None and dispatch is not None and call.count and dispatch.count:
                gap = call.self_time / call.count - dispatch.dur / dispatch.count
                weighted += gap * call.count
                weight += call.count
    out["transport.tcp.overhead_us"] = 1e6 * weighted / weight if weight else 0.0
    for variant in VARIANTS:
        out[f"transport.frames.{variant}_per_op"] = frames.get(variant, 0) / ops

    dispatch_source = server_groups if server is not None else client_groups
    for variant in VARIANTS:
        group = dispatch_source.get(f"host.dispatch.{variant}")
        out[f"host.dispatch.{variant}.us"] = _mean_us([group]) if group is not None else 0.0
    out["host.handle_frame.us"] = _mean_us(_prefixed(groups, "host.handle_frame"))
    errors: dict[int, int] = defaultdict(int)
    for source, keep in ((client, client_keep), (server, server_keep)):
        for i in keep:
            if source.names[source.name[i]].startswith("host.dispatch.") and source.n[i]:
                errors[source.n[i]] += 1
    for code, label in ERROR_CODES.items():
        out[f"host.errors.{label}_per_op"] = errors.get(code, 0) / ops

    evaluate = _prefixed(groups, "shipping.evaluate")
    out["shipping.evaluate.us"] = _mean_us(evaluate)
    count = sum(g.count for g in evaluate)
    stages = sum(g.n for g in evaluate)
    out["shipping.evaluate.stages_per_call"] = stages / count if count else 0.0
    out["shipping.evaluate.us_per_stage"] = 1e6 * sum(g.self_time for g in evaluate) / stages if stages else 0.0

    export = _prefixed(groups, "model.export")
    out["model.table.entries_end"] = client.table_entries + (server.table_entries if server else 0)
    out["model.table.entries_per_op"] = sum(g.count for g in export) / ops
    out["model.export.us"] = _mean_us(export)

    node_ops = [groups[f"node.{op}"] for op in ("map", "flat_map", "get") if f"node.{op}" in groups]
    count = sum(g.count for g in node_ops)
    out["node.local_share"] = sum(g.n for g in node_ops) / count if count else 0.0
    for op in ("map", "get", "export_to"):
        out[f"node.{op}.us"] = _mean_us(_prefixed(groups, f"node.{op}"))

    deferred = groups.get("adapters.deferred.get")
    out["adapters.deferred.stages_per_map"] = deferred.n / deferred.count if deferred else 0.0
    out["adapters.async.handoff_us_per_step"] = _async_handoff_us(client, client_keep, async_ops)

    calls_by_layer = {layer: sum(g.count for g in _prefixed(groups, layer)) for layer in LAYERS}
    for layer in LAYERS:
        out[f"layer.{layer}.calls_per_op"] = calls_by_layer[layer] / ops
    out["trace.overhead"] = overhead
    return out, calls_by_layer


def _async_handoff_us(spans: Spans, keep: list[int], async_ops: list) -> float:
    """Async chain wall time not spent inside node.* spans, per chain step."""
    if not async_ops:
        return 0.0
    in_node: dict[int, float] = defaultdict(float)
    for i in keep:
        if spans.names[spans.name[i]].startswith("node.") and spans.parent[i] < 0:
            in_node[spans.op[i]] += spans.dur[i]
    gap = sum((end - start) - in_node[op_id] for op_id, start, end, _ in async_ops)
    steps = sum(steps for *_, steps in async_ops)
    return 1e6 * gap / steps
