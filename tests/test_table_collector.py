"""A host table's entries give the cyclic garbage collector nothing to walk.

Each entry is a slot in the table's dicts, so hosting a value that is not
itself tracked by the collector (an int, say) adds no tracked object. A table
grows with every map, and a tracked object per entry would make every full
collection walk all of them.
"""
import gc
from functools import partial

import pytest

from remotable import LoopbackNetwork, Node

EXPORTS = 20_000
MAPS = 2_000
# what a run may add besides entries: memo slots, thread state, a channel
SLACK = 200


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_entries_add_no_tracked_objects(kind):
    make = partial(Node.loopback, LoopbackNetwork()) if kind == "loopback" else Node.tcp
    server, client = make(), make()
    try:
        handle = client.export_to(server.endpoint, 1)
        inc = client.stage("inc")
        assert handle.map(inc).get() == 2  # connects and fills the memos first
        entries = len(server.table)
        gc.collect()
        before = len(gc.get_objects())
        for value in range(EXPORTS):
            server.table.export(value)
        for _ in range(MAPS):
            handle.map(inc)  # hosts an int at the server; the handle is dropped
        gc.collect()
        added = len(gc.get_objects()) - before
        assert len(server.table) == entries + EXPORTS + MAPS
        assert added < SLACK
    finally:
        client.close()
        server.close()
