import threading

import pytest
from hypothesis import given, strategies as st

from remotable import EndpointAddr, HostTable, ObjectId, RemoteRefDescriptor, UnknownObjectError


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
    first = table.new_object_id()
    second = table.new_object_id()
    assert (first.incarnation, first.serial) == (42, 1)
    assert second.serial == 2


def test_export_stores_value_with_zero_counters():
    table = _table()
    descriptor = table.export("hello")
    entry = table.entry(descriptor.id)
    assert entry.value == "hello"
    assert (entry.serialization_count, entry.get_count) == (0, 0)
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
    entry = table.resolve_local(descriptor)
    assert entry is not None
    assert entry.value is value  # the stored object itself, not a copy


def test_resolve_local_misses_foreign_endpoint():
    table = _table()
    descriptor = table.export(1)
    elsewhere = RemoteRefDescriptor(EndpointAddr("10.0.0.9", 7099), descriptor.id)
    assert table.resolve_local(elsewhere) is None


def test_resolve_local_misses_other_incarnation():
    table = _table()
    table.export(1)
    stale = RemoteRefDescriptor(table.self_endpoint, ObjectId(43, 1))
    assert table.resolve_local(stale) is None


def test_counters_accumulate():
    table = _table()
    descriptor = table.export(7)
    assert table.record_serialization(descriptor.id) == 1
    assert table.record_serialization(descriptor.id) == 2
    table.record_get(descriptor.id)
    assert table.stats(descriptor.id) == (2, 1)


def test_counter_of_unknown_id_is_an_error():
    table = _table()
    with pytest.raises(UnknownObjectError):
        table.record_serialization(ObjectId(42, 999))
    with pytest.raises(UnknownObjectError):
        table.require(ObjectId(42, 999))


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
