"""The benchmark's span tracer still finds every library name it wraps.

``perfbench/tracer.py`` patches methods and module functions of ``remotable``
by name from outside the library, so renaming or deleting one of them breaks
the traced benchmark run. This installs the tracer, drives each client path it
times, and checks that the spans the per-layer split reads were recorded.
"""
import importlib.util
from pathlib import Path

from remotable import AsyncHandle, DeferredHandle, LoopbackNetwork, Node

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    # loaded from its file under a private name, so sys.path and the top-level
    # module namespace of the rest of the session stay as they were
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_names_that_exist_and_records_their_spans():
    tracer = _load_tracer()
    spans = tracer.Tracer()
    undo = tracer.install(spans)
    try:
        network = LoopbackNetwork()
        server, client = Node.loopback(network), Node.loopback(network)
        tcp_server, tcp_client = Node.tcp(), Node.tcp()
        try:
            five = client.export_to(server.endpoint, 5)
            assert five.map(client.stage("inc")).get() == 6
            assert DeferredHandle.wrap(five).map(client.stage("mul", 3)).get() == 15
            assert AsyncHandle.wrap(five).map(client.stage("add", 2)).force(timeout=10) == 7
            remote = tcp_client.export_to(tcp_server.endpoint, 5)
            assert remote.map(tcp_client.stage("inc")).get() == 6
        finally:
            for node in (client, server, tcp_client, tcp_server):
                node.close()
    finally:
        undo()
    recorded = {spans.names[index] for index in spans.name}
    assert {"host.dispatch.Map", "host.dispatch.Get", "host.connection",
            "shipping.evaluate", "adapters.deferred.get"} <= recorded
