import logging
import random
import threading
import time
from concurrent.futures import CancelledError, Future
from functools import partial

import pytest

from remotable import (
    AsyncHandle,
    DeferredHandle,
    InlineValue,
    LoopbackNetwork,
    Node,
    NotSerializableError,
    PlainValue,
    ShippedFn,
    Stage,
    TransportError,
    UnknownFunctionError,
    default_registry,
)

from helpers import random_ops, run_int_pipeline, stages_for_ops, stall_at_fabric


# -- async ---------------------------------------------------------------------


def test_wrap_then_force(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    assert AsyncHandle.wrap(handle).force(10) == 5


def test_async_chain_computes_like_sync(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    result = (
        AsyncHandle.wrap(handle)
        .map(client.stage("inc"))
        .map(client.stage("mul", 3))
        .force(10)
    )
    assert result == 18


def test_async_flat_map(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    assert AsyncHandle.wrap(handle).flat_map(client.stage("pure")).force(10) == 5


def test_async_two_object_composition(loop_pair):
    server, client = loop_pair
    # tokens cannot be exported across the wire; mint them at their home
    seed = client.export_to(server.endpoint, 0)
    ra = seed.map(client.stage("new_token"))
    rb = seed.map(client.stage("new_token"))
    forced = (
        AsyncHandle.wrap(ra)
        .flat_map(client.stage("pair_equals_outer", rb))
        .force(10)
    )
    assert forced is False


def test_async_errors_materialize_at_force_not_composition(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    chained = AsyncHandle.wrap(handle).map(Stage("no_such_fn"))
    later = chained.map(client.stage("inc"))  # composing is still fine
    with pytest.raises(UnknownFunctionError):
        later.force(10)


def test_async_get_of_opaque_token_fails_in_the_future(loop_pair):
    server, client = loop_pair
    token = client.export_to(server.endpoint, 0).map(client.stage("new_token"))
    future = AsyncHandle.wrap(token).get()
    with pytest.raises(NotSerializableError):
        future.result(10)


def test_async_get_twice_agrees(loop_pair):
    server, client = loop_pair
    wrapped = AsyncHandle.wrap(client.export_to(server.endpoint, 8))
    assert wrapped.get().result(10) == wrapped.get().result(10) == 8


def test_async_equals_sync_on_random_pipelines(loop_pair):
    server, client = loop_pair
    rng = random.Random(3)
    for _ in range(30):
        x = rng.randint(-100, 100)
        ops = random_ops(rng, min_len=1)
        sync_handle = client.export_to(server.endpoint, x)
        async_handle = AsyncHandle.wrap(sync_handle)
        for stage in stages_for_ops(ops):
            sync_handle = sync_handle.map(stage)
            async_handle = async_handle.map(stage)
        assert async_handle.force(30) == sync_handle.get() == run_int_pipeline(ops, x)


def test_composition_does_not_wait_for_the_network():
    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    stall_at_fabric(network, server, 0.15)
    try:
        server.rebind("n", 5)
        handle = client.lookup(server.endpoint, "n")  # pays the stall once, eagerly
        wrapped = AsyncHandle.wrap(handle)
        started = time.perf_counter()
        for _ in range(5):
            wrapped = wrapped.map(client.stage("inc"))
        future = wrapped.get()
        compose_elapsed = time.perf_counter() - started
        assert compose_elapsed < 0.05
        assert future.result(30) == 10
        assert time.perf_counter() - started >= 0.15
    finally:
        client.close()
        server.close()


def test_cancelled_upstream_cancels_the_chain_without_logging(loop_pair, caplog):
    _, client = loop_pair
    upstream: "Future" = Future()
    chained = AsyncHandle(client, upstream).map(client.stage("inc"))
    with caplog.at_level(logging.DEBUG):
        upstream.cancel()
        with pytest.raises(CancelledError):
            chained.force(timeout=2)
    assert not caplog.records


def test_cancelling_a_step_of_a_running_chain_is_quiet(loop_pair, caplog):
    server, client = loop_pair
    upstream: "Future" = Future()
    first = AsyncHandle(client, upstream).map(client.stage("inc"))
    middle = first.map(client.stage("inc"))
    last = middle.map(client.stage("inc"))
    assert middle._future.cancel()
    with caplog.at_level(logging.DEBUG):
        upstream.set_result(client.export_to(server.endpoint, 1))
        assert first.force(10) == 2
        with pytest.raises(CancelledError):
            last.force(10)
    assert middle._future.cancelled()
    assert not caplog.records


def test_long_async_chain_is_not_bounded_by_the_stack(loop_pair):
    # the whole chain is composed before its first step can run, so each
    # step is the continuation its predecessor's worker takes up next
    server, client = loop_pair
    sync_handle = client.export_to(server.endpoint, 1)
    upstream: "Future" = Future()
    async_handle = AsyncHandle(client, upstream)
    for i in range(300):
        stage = client.stage("inc") if i % 2 else client.stage("add", -3)
        sync_handle = sync_handle.map(stage)
        async_handle = async_handle.map(stage)
    upstream.set_result(client.export_to(server.endpoint, 1))
    assert async_handle.force(60) == sync_handle.get()


def test_long_failed_chain_fails_without_hanging(loop_pair, caplog):
    _, client = loop_pair
    upstream: "Future" = Future()
    chained = AsyncHandle(client, upstream)
    for _ in range(500):
        chained = chained.map(client.stage("inc"))
    with caplog.at_level(logging.DEBUG):
        upstream.set_exception(UnknownFunctionError("no_such_fn"))
        with pytest.raises(UnknownFunctionError):
            chained.force(60)
    assert not caplog.records


def test_two_branches_of_one_handle_both_complete(loop_pair):
    server, client = loop_pair
    root = AsyncHandle.wrap(client.export_to(server.endpoint, 4)).map(client.stage("inc"))
    left = root.map(client.stage("mul", 2))
    right = root.map(client.stage("inc"))
    assert (left.force(10), right.force(10)) == (10, 6)


def test_two_branches_of_one_handle_run_side_by_side():
    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    gate = threading.Event()
    meeting = threading.Barrier(2, timeout=5)

    def hold(subject, args, ctx):
        gate.wait(5)
        return PlainValue(subject)

    def meet(subject, args, ctx):
        meeting.wait()  # broken unless the other branch is running at the same time
        return PlainValue(subject + 1)

    server.registry.register("hold", 0, hold)
    server.registry.register("meet", 0, meet)
    try:
        # both branches are composed while the root step is still running
        root = AsyncHandle.wrap(client.export_to(server.endpoint, 1)).map(Stage("hold"))
        left = root.map(Stage("meet"))
        right = root.map(Stage("meet"))
        gate.set()
        assert (left.force(10), right.force(10)) == (2, 2)
    finally:
        client.close()
        server.close()


def test_steps_never_run_on_the_composing_thread():
    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    threads = set()

    def record(subject, args, ctx):
        threads.add(threading.get_ident())
        return PlainValue(subject + 1)

    server.registry.register("record", 0, record)
    try:
        chained = AsyncHandle.wrap(client.export_to(server.endpoint, 0))
        for _ in range(10):
            chained = chained.map(Stage("record"))
        assert chained.force(10) == 10
    finally:
        client.close()
        server.close()
    assert threads and threading.get_ident() not in threads


def test_a_chain_composed_ahead_runs_on_one_worker():
    network = LoopbackNetwork()
    server = Node.loopback(network)
    client = Node.loopback(network)
    threads = []

    def record(subject, args, ctx):
        threads.append(threading.get_ident())
        return PlainValue(subject + 1)

    server.registry.register("record", 0, record)
    try:
        upstream: "Future" = Future()
        chained = AsyncHandle(client, upstream)
        for _ in range(10):
            chained = chained.map(Stage("record"))
        upstream.set_result(client.export_to(server.endpoint, 0))
        assert chained.force(10) == 10
    finally:
        client.close()
        server.close()
    # one handoff from the composing thread, then each step follows its
    # predecessor on the same worker
    assert len(threads) == 10 and len(set(threads)) == 1
    assert threading.get_ident() not in threads


@pytest.mark.parametrize("transport", ["loopback", "tcp"])
def test_a_closed_node_runs_no_async_step(transport):
    node = Node.tcp() if transport == "tcp" else Node.loopback(LoopbackNetwork())
    handle = node.apply(5)
    before = set(threading.enumerate())
    assert AsyncHandle.wrap(handle).map(node.stage("inc")).force(5) == 6  # the pool has run
    workers = set(threading.enumerate()) - before
    node.close()
    node.close()  # a second close is harmless
    for worker in workers:
        worker.join(5)  # an ended pool's idle workers exit
        assert not worker.is_alive()
    alive = set(threading.enumerate())
    started = time.perf_counter()
    with pytest.raises(TransportError, match="is closed"):
        AsyncHandle.wrap(handle).map(node.stage("inc")).force(5)
    assert time.perf_counter() - started < 5
    time.sleep(0.2)
    assert set(threading.enumerate()) <= alive  # no worker was started for the step


# -- deferred -------------------------------------------------------------------


def test_deferred_wrap_and_map_cost_nothing(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    before = client.transport.request_frames
    deferred = DeferredHandle.wrap(handle).map(client.stage("inc")).map(client.stage("mul", 3))
    assert client.transport.request_frames == before
    assert [s.fn_id for s in deferred.pipeline.stages] == ["inc", "mul"]


def test_a_list_built_pipeline_runs_alike_in_every_style(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    stages = [client.stage("inc"), client.stage("mul", 3)]
    captures = [InlineValue(2)]
    pipeline, add = ShippedFn(stages), Stage("add", captures)
    eager = handle.map(pipeline).map(add)
    deferred = DeferredHandle.wrap(handle).map(pipeline).map(add)
    gate = Future()  # holds the async chain until the lists have changed
    held = AsyncHandle(client, gate).map(pipeline).map(add)
    stages.append(client.stage("inc"))
    captures[0] = InlineValue(100)
    gate.set_result(handle)
    assert eager.get() == deferred.get() == held.force(10) == 20
    assert deferred.stages == pipeline.stages + (add,)


def test_deferred_map_does_not_mutate_its_input(loop_pair):
    server, client = loop_pair
    base = DeferredHandle.wrap(client.export_to(server.endpoint, 5))
    longer = base.map(client.stage("inc"))
    assert base.stages == ()
    assert len(longer.stages) == 1


def test_deferred_get_ships_once_and_forces_once(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    deferred = DeferredHandle.wrap(handle)
    for stage in (client.stage("inc"), client.stage("mul", 3)):
        deferred = deferred.map(stage)
    before = client.transport.request_frames
    assert deferred.get() == 18
    assert client.transport.request_frames - before == 2
    assert client.transport.frame_counts["Map"] >= 1


def test_deferred_identity_pipeline(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 7)
    before = client.transport.request_frames
    assert DeferredHandle.wrap(handle).get() == 7
    assert client.transport.request_frames - before == 2


def test_deferred_validation_happens_at_get(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    deferred = DeferredHandle.wrap(handle).map(Stage("no_such_fn"))  # no error yet
    with pytest.raises(UnknownFunctionError):
        deferred.get()


def test_deferred_flat_map_forces_eagerly(loop_pair):
    server, client = loop_pair
    handle = client.export_to(server.endpoint, 5)
    deferred = DeferredHandle.wrap(handle).map(client.stage("inc"))
    before = client.transport.request_frames
    continued = deferred.flat_map(
        lambda v: DeferredHandle.wrap(client.export_to(server.endpoint, v + 10))
    )
    assert client.transport.request_frames > before  # forcing happened at call time
    assert continued.get() == 16


def test_deferred_flat_map_needs_a_serializable_value(loop_pair):
    server, client = loop_pair
    token = client.export_to(server.endpoint, 0).map(client.stage("new_token"))
    deferred = DeferredHandle.wrap(token)
    with pytest.raises(NotSerializableError):
        deferred.flat_map(lambda v: deferred)


def test_deferred_equals_eager_on_random_pipelines(loop_pair):
    server, client = loop_pair
    rng = random.Random(5)
    for _ in range(30):
        x = rng.randint(-100, 100)
        ops = random_ops(rng)
        eager = client.export_to(server.endpoint, x)
        deferred = DeferredHandle.wrap(eager)
        for stage in stages_for_ops(ops):
            eager = eager.map(stage)
            deferred = deferred.map(stage)
        assert deferred.get() == eager.get() == run_int_pipeline(ops, x)


def test_deferred_over_local_handle_never_touches_the_wire(loop_pair):
    _, client = loop_pair
    deferred = DeferredHandle.wrap(client.apply(4)).map(client.stage("inc"))
    assert deferred.get() == 5
    assert client.transport.request_frames == 0


@pytest.mark.parametrize("kind", ["local", "loopback", "tcp"])
def test_deferred_map_takes_a_shipped_fn_as_eager_map_does(kind, request):
    server, client = request.getfixturevalue("tcp_pair" if kind == "tcp" else "loop_pair")
    handle = client.apply(5) if kind == "local" else client.export_to(server.endpoint, 5)
    fn = ShippedFn((client.stage("inc"), client.stage("mul", 3)))
    eager = handle.map(fn).get()
    before = client.transport.request_frames
    deferred = DeferredHandle.wrap(handle).map(fn).map(client.stage("add", 2))
    assert [s.fn_id for s in deferred.stages] == ["inc", "mul", "add"]
    assert deferred.get() == eager + 2 == 20
    assert client.transport.request_frames - before == (0 if kind == "local" else 2)


# -- what every style shares ------------------------------------------------------


def _nap(subject):
    time.sleep(0.2)
    return subject


@pytest.mark.parametrize("kind", ["loopback", "tcp"])
def test_a_capture_changed_after_composing_ships_as_it_was_in_every_style(kind):
    # a stage reads its list capture when it is built, however it is built,
    # so what the caller does to the list afterwards reaches no style,
    # whenever that style ships
    registry = default_registry()
    registry.lift("nap", _nap)
    network = LoopbackNetwork()
    make = partial(Node.loopback, network) if kind == "loopback" else Node.tcp
    server, client = make(registry=registry), make(registry=registry)
    try:
        subject = client.export_to(server.endpoint, [1])
        if kind == "loopback":
            stall_at_fabric(network, server, 0.2)
            slow = client.stage("identity")
        else:
            slow = client.stage("nap")
        builds = {
            "bare": lambda capture: client.stage("add", capture),
            "inline": lambda capture: client.stage("add", InlineValue(capture)),
            "constructed": lambda capture: Stage("add", (InlineValue(capture),)),
        }
        results = {}
        for built, build in builds.items():
            for style in ("eager", "deferred", "async"):
                capture = [2]
                stage = build(capture)
                if style == "eager":
                    composed = subject.map(stage)
                elif style == "deferred":
                    composed = DeferredHandle.wrap(subject).map(stage)
                else:
                    pending = AsyncHandle.wrap(subject).map(slow)
                    composed = pending.map(stage)
                    assert not pending._future.done()  # the step before is still on its way
                capture.append(3)
                results[built, style] = composed.force(10) if style == "async" else composed.get()
        assert len(results) == 9
        assert results == dict.fromkeys(results, [1, 2])
        assert subject.stats() == (0, 0)  # a copy is not a serialization
    finally:
        client.close()
        server.close()


@pytest.mark.parametrize("fn", ["inc", None, [Stage("inc")]], ids=["str", "none", "list"])
@pytest.mark.parametrize("where", ["local", "loopback", "tcp"])
def test_an_fn_that_is_no_stage_is_refused_alike_in_every_style_before_any_frame(request, where, fn):
    server, client = request.getfixturevalue("tcp_pair" if where == "tcp" else "loop_pair")
    handle = client.apply(5) if where == "local" else client.export_to(server.endpoint, 5)
    refused = f"^fn must be a Stage or a ShippedFn, got {type(fn).__name__}$"
    sent = client.transport.frame_counts.copy()
    for compose in (handle.map, handle.flat_map, DeferredHandle.wrap(handle).map):
        with pytest.raises(TypeError, match=refused):
            compose(fn)
    for compose in (AsyncHandle.wrap(handle).map, AsyncHandle.wrap(handle).flat_map):
        step = compose(fn)  # composing raises nothing; the error waits for force
        with pytest.raises(TypeError, match=refused):
            step.force(10)
    assert client.transport.frame_counts == sent
    assert handle.map(client.stage("inc")).get() == 6
