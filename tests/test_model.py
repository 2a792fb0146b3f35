import copy
import gc
import pickle
import sys
import threading
import time
import tracemalloc
import weakref
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from remotable import (
    EndpointAddr,
    HostTable,
    NotFoundError,
    ObjectId,
    RemoteRefDescriptor,
    UnknownObjectError,
)
from remotable import model
from remotable.protocol import RespDescriptor, decode_frame, encode_message

from helpers import set_memos


def test_endpoint_renders_host_colon_port():
    assert str(EndpointAddr("127.0.0.1", 7099)) == "127.0.0.1:7099"


def test_endpoint_parse_round_trip():
    ep = EndpointAddr.parse("example.org:8080")
    assert ep == EndpointAddr("example.org", 8080)
    assert EndpointAddr.parse(str(ep)) == ep


@pytest.mark.parametrize(
    "bad", ["nohost", "h:0", "h:65536", " h:1", "a:b:1x", ":1", "h:07", "h:\u0667", "h:\uff17"]
)
def test_endpoint_rejects_garbage(bad):
    with pytest.raises(ValueError):
        EndpointAddr.parse(bad)


def test_endpoint_equality_is_textual():
    assert EndpointAddr("a", 1) == EndpointAddr("a", 1)
    assert EndpointAddr("a", 1) != EndpointAddr("a", 2)
    assert EndpointAddr("a", 1) != EndpointAddr("b", 1)


def test_endpoint_compares_and_hashes_by_identity_in_c():
    # every comparison and hash of an endpoint runs object's own slots
    for cls in EndpointAddr.__mro__[:-1]:
        assert "__eq__" not in vars(cls) and "__hash__" not in vars(cls), cls
    assert EndpointAddr.__eq__ is object.__eq__
    assert EndpointAddr.__ne__ is object.__ne__
    assert EndpointAddr.__hash__ is object.__hash__


def test_one_endpoint_object_per_host_and_port():
    endpoint = EndpointAddr("identity.example", 4242)
    frame = encode_message(RespDescriptor(RemoteRefDescriptor(endpoint, ObjectId(1, 1))))
    set_memos("cold")  # the decoder parses the text afresh
    same = [
        EndpointAddr("identity.example", 4242),
        EndpointAddr.parse(str(endpoint)),
        decode_frame(frame).descriptor.endpoint,
        decode_frame(frame).descriptor.endpoint,  # through the decoder's memo
        copy.copy(endpoint),
        copy.deepcopy(endpoint),
        copy.deepcopy(RemoteRefDescriptor(endpoint, ObjectId(1, 1))).endpoint,
        pickle.loads(pickle.dumps(endpoint)),
        pickle.loads(pickle.dumps(RemoteRefDescriptor(endpoint, ObjectId(1, 1)))).endpoint,
    ]
    assert all(other is endpoint for other in same)


@pytest.mark.parametrize("pair", [
    (("loop", 1), ("loop", True)),
    (("a", 7099), ("a", 7099)),
    (("hôte", 65535), ("hôte", 65535)),
])
def test_pairs_that_compared_equal_still_do(pair):
    first, second = EndpointAddr(*pair[0]), EndpointAddr(*pair[1])
    assert first == second and first is second and hash(first) == hash(second)
    assert type(first.port) is int and str(second) == f"{pair[0][0]}:{int(pair[0][1])}"


def test_pairs_that_differed_still_do():
    assert EndpointAddr("loop", 1) != EndpointAddr("loop", 2)
    assert EndpointAddr("loop", 1) != EndpointAddr("Loop", 1)
    assert EndpointAddr("loop", 1) != ("loop", 1)
    assert len({EndpointAddr("loop", port) for port in range(1, 50)}) == 49


def test_endpoint_is_frozen():
    endpoint = EndpointAddr("a", 1)
    with pytest.raises(FrozenInstanceError):
        endpoint.port = 2
    with pytest.raises(FrozenInstanceError):
        del endpoint.host
    assert (endpoint.host, endpoint.port) == ("a", 1)
    assert repr(endpoint) == "EndpointAddr(host='a', port=1)"


@pytest.mark.parametrize("host, port", [("h", 1.5), ("h", "7"), ("h", None), (5, 1), (None, 1)])
def test_endpoint_refuses_a_non_text_host_or_non_integer_port(host, port):
    with pytest.raises(ValueError):
        EndpointAddr(host, port)


class _SlowInternTable(weakref.WeakValueDictionary):
    """An intern table whose reads pause, so that another thread runs between a miss and its store."""

    def get(self, key, default=None):
        found = super().get(key, default)
        time.sleep(0.002)
        return found


def test_threads_building_one_endpoint_get_one_object(monkeypatch):
    # more threads than cores, switching often, all building each endpoint at once
    monkeypatch.setattr(model, "_INTERNED", _SlowInternTable())
    rounds, workers = 20, 4
    barrier = threading.Barrier(workers)
    built: list[list] = [[] for _ in range(workers)]

    def build(slot):
        for port in range(1, rounds + 1):
            barrier.wait(timeout=10)
            built[slot].append(EndpointAddr("race.example", 20000 + port))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert all(len(objects) == rounds for objects in built)
    assert all(len(set(map(id, same))) == 1 for same in zip(*built))


def test_intern_table_keeps_no_dropped_endpoint():
    texts = [f"drop{port % 13}.example:{port}" for port in range(1, 10_001)]
    endpoints = [EndpointAddr.parse(text) for text in texts]
    keys = {(endpoint.host, endpoint.port) for endpoint in endpoints}
    assert len(keys) == 10_000
    assert keys <= set(model._INTERNED.keys())
    del endpoints
    gc.collect()
    assert keys.isdisjoint(model._INTERNED.keys())


def test_object_id_rendering_pads_incarnation():
    assert str(ObjectId(0x7025F768, 3)) == "000000007025f768:3"


def test_object_id_bounds():
    ObjectId(0, 1)
    ObjectId(2**64 - 1, 2**64 - 1)
    with pytest.raises(ValueError):
        ObjectId(2**64, 1)
    with pytest.raises(ValueError):
        ObjectId(1, 0)  # serials start at 1


@given(st.integers(min_value=0, max_value=2**64 - 1), st.integers(min_value=1, max_value=2**64 - 1))
def test_object_id_render_is_parseable(incarnation, serial):
    text = str(ObjectId(incarnation, serial))
    hexpart, _, serialpart = text.partition(":")
    assert int(hexpart, 16) == incarnation
    assert int(serialpart) == serial


def _table():
    return HostTable(EndpointAddr("127.0.0.1", 7099), incarnation=42)


def test_serials_start_at_one_and_increase():
    table = _table()
    first = table.export("a").id
    second = table.export("b").id
    assert (first.incarnation, first.serial) == (42, 1)
    assert second.serial == 2


def test_export_stores_value_with_zero_counters():
    table = _table()
    descriptor = table.export("hello")
    assert table.value(descriptor.id) == "hello"
    assert table.count(descriptor.id) == (0, 0)
    assert descriptor.endpoint == table.self_endpoint


def test_export_does_not_intern_equal_values():
    table = _table()
    d1 = table.export(5)
    d2 = table.export(5)
    assert d1.id != d2.id


def test_resolve_local_hits_home_references_identically():
    table = _table()
    value = object()  # deliberately opaque
    descriptor = table.export(value)
    assert table.is_home(descriptor)
    assert table.value(descriptor.id) is value  # the stored object itself, not a copy


def test_resolve_local_misses_foreign_endpoint():
    table = _table()
    descriptor = table.export(1)
    elsewhere = RemoteRefDescriptor(EndpointAddr("10.0.0.9", 7099), descriptor.id)
    assert not table.is_home(elsewhere)


def test_resolve_local_misses_other_incarnation():
    table = _table()
    table.export(1)
    stale = RemoteRefDescriptor(table.self_endpoint, ObjectId(43, 1))
    assert not table.is_home(stale)


def test_an_id_of_another_incarnation_misses_though_its_serial_is_live():
    table = _table()
    live = table.export(7)
    foreign_id = ObjectId(43, live.id.serial)
    foreign = RemoteRefDescriptor(table.self_endpoint, foreign_id)
    assert not table.is_home(foreign)
    for operation in (table.count, table.hosted, table.value):
        with pytest.raises(UnknownObjectError, match=f"^no hosted value under id {foreign_id}$"):
            operation(foreign_id)
    with pytest.raises(UnknownObjectError, match=f"^no hosted value under id {foreign_id} at "):
        table.rebind("n", foreign)
    assert table.count(live.id) == (0, 0)


def test_exported_ids_equal_and_hash_as_constructed_ones():
    table = _table()
    descriptor = table.export(7)
    assert descriptor == RemoteRefDescriptor(table.self_endpoint, ObjectId(42, 1))
    assert hash(descriptor.id) == hash(ObjectId(42, 1))
    table.rebind("n", descriptor)
    assert table.lookup("n") == descriptor


@pytest.mark.parametrize("incarnation", [-1, 2**64])
def test_table_refuses_an_incarnation_out_of_range(incarnation):
    with pytest.raises(ValueError, match="incarnation"):
        HostTable(EndpointAddr("127.0.0.1", 7099), incarnation)


def test_counters_accumulate():
    table = _table()
    descriptor = table.export(7)
    assert table.count(descriptor.id, 1) == (1, 0)
    assert table.count(descriptor.id, 1, 1) == (2, 1)
    assert table.count(descriptor.id) == (2, 1)


def test_counter_of_unknown_id_is_an_error():
    table = _table()
    for operation in (table.count, table.hosted, table.value):
        with pytest.raises(UnknownObjectError, match="no hosted value under id 000000000000002a:999"):
            operation(ObjectId(42, 999))


def test_a_serial_outside_the_table_misses_and_never_wraps():
    table = _table()
    table._first = 10
    hosted = [table.export(value) for value in ("a", "b", "c")]
    assert [d.id.serial for d in hosted] == [10, 11, 12]
    for serial in (1, 9, 13, 2**64 - 1):  # 9 would index -1, the last entry
        missing = ObjectId(42, serial)
        assert not table.is_home(RemoteRefDescriptor(table.self_endpoint, missing))
        for operation in (table.count, table.hosted, table.value):
            with pytest.raises(UnknownObjectError, match=f"^no hosted value under id {missing}$"):
                operation(missing)
        with pytest.raises(UnknownObjectError):
            table.rebind("n", RemoteRefDescriptor(table.self_endpoint, missing))
    assert [table.value(d.id) for d in hosted] == ["a", "b", "c"]
    assert [table.count(d.id) for d in hosted] == [(0, 0)] * 3


@pytest.mark.parametrize("counted", [False, True], ids=["uncounted", "counted"])
def test_a_table_entry_costs_at_most_32_bytes(counted):
    # an entry is a list slot and two 8-byte counters, with no key, hash slot or tuple
    entries = 50_000
    table = _table()
    values = list(range(10**9, 10**9 + entries))  # built before tracing starts
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for value in values:
            descriptor = table.export(value)
            if counted:
                table.count(descriptor.id, 1, 1)
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown / entries <= 32
    assert table.count(descriptor.id) == ((1, 1) if counted else (0, 0))


def test_concurrent_exports_issue_unique_ids():
    table = _table()
    seen = []

    def worker():
        for _ in range(200):
            seen.append(table.export(0).id)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len(set(seen)) == 8 * 200
    assert len(table) == 8 * 200


def test_export_refuses_once_the_serial_space_is_spent():
    table = _table()
    table._first = 2**64 - 1
    assert table.export("last").id.serial == 2**64 - 1
    with pytest.raises(OverflowError, match="serial space exhausted"):
        table.export("one too many")
    assert len(table) == 1


def test_concurrent_counts_are_exact():
    table = _table()
    descriptor = table.export(0)

    def worker():
        for _ in range(500):
            table.count(descriptor.id, 1, 1)

    threads = [threading.Thread(target=worker) for _ in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads often, so a lost update would show
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert table.count(descriptor.id) == (8 * 500, 8 * 500)


def test_rebind_then_lookup_names_the_home_entry():
    table = _table()
    first, second = table.export(1), table.export(2)
    table.rebind("x", first)
    assert table.lookup("x") == first
    table.rebind("x", second)  # a rebind replaces the binding
    assert table.lookup("x") == second


@pytest.mark.parametrize("where", ["foreign", "unknown"])
def test_rebind_refuses_a_value_not_hosted_here(where):
    table = _table()
    home = table.export(1)
    if where == "foreign":
        descriptor = RemoteRefDescriptor(EndpointAddr("10.0.0.9", 7099), home.id)
    else:
        descriptor = RemoteRefDescriptor(table.self_endpoint, ObjectId(42, 999))
    with pytest.raises(UnknownObjectError,
                       match=f"no hosted value under id {descriptor.id} at {descriptor.endpoint}"):
        table.rebind("x", descriptor)
    with pytest.raises(NotFoundError, match="no binding named 'x'"):
        table.lookup("x")
