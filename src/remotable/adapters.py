"""Two composition styles layered over the synchronous core.

``AsyncHandle`` makes composition non-blocking: each map/flat_map schedules
the underlying remote call on the node's worker pool and returns at once;
results and errors alike materialize when the caller forces; a step composed
after the node closes fails there with a TransportError. A step whose
predecessor completed on a worker continues on that worker once the
predecessor's other continuations have gone to the pool. ``DeferredHandle``
goes the other way and does nothing at composition time: stages pile up on
the client and ship as one Map when the value is finally forced, so
an n-stage chain crosses the wire in two frames instead of n+1.
"""
from __future__ import annotations

import threading
from concurrent.futures import Future, InvalidStateError
from functools import partial
from typing import Any, Callable, Optional, Union

from .errors import TransportError
from .node import Node, RemoteHandle
from .shipping import ShippedFn, Stage, _not_a_pipeline

# Per thread, set only while _drive completes a step's future: that future
# and the step its first continuation claimed to run next on this thread.
_inline = threading.local()


def _drive(run: Callable[[Future], tuple], prev: Future) -> None:
    """Run a step on this worker, then each step that its completion hands back.

    Completing a step's future fires its callbacks one after another. The first
    continuation does not run there: it only claims itself, and runs here once
    every other callback (a sibling branch being submitted, say) has fired. So
    branches still run side by side, and a long chain loops instead of nesting.
    """
    while run is not None:
        nxt, complete = run(prev)
        _inline.completing, _inline.claimed = nxt, None
        try:
            complete()
        except InvalidStateError:  # whoever holds nxt cancelled it
            pass
        finally:
            _inline.completing = None
        run, prev = _inline.claimed, nxt


class AsyncHandle:
    """A remote handle that is still arriving.

    Wraps a future of a RemoteHandle. Composition chains through the node's
    executor via completion callbacks, so no caller ever waits on the network;
    only ``force`` (or resolving one of the returned futures) blocks.
    """

    __slots__ = ("_node", "_future")

    def __init__(self, node: Node, future: "Future[RemoteHandle]") -> None:
        self._node = node
        self._future = future

    @classmethod
    def wrap(cls, handle: RemoteHandle) -> "AsyncHandle":
        done: "Future[RemoteHandle]" = Future()
        done.set_result(handle)
        return cls(handle._node, done)

    def _chain(self, step: Callable[[RemoteHandle], Any]) -> "Future[Any]":
        nxt: "Future[Any]" = Future()

        def run(prev: "Future[RemoteHandle]") -> tuple:
            """Do the step; return its future and how to complete it."""
            try:
                return nxt, partial(nxt.set_result, step(prev.result()))
            # prev failed or was cancelled, or the step raised; anything else
            # would escape into the executor and leave nxt pending for good
            except BaseException as exc:
                return nxt, partial(nxt.set_exception, exc)

        def on_done(prev: "Future[RemoteHandle]") -> None:
            # the first continuation of a step that _drive is completing on
            # this worker runs next there; never on the composing caller's thread
            if prev is getattr(_inline, "completing", None):
                _inline.completing, _inline.claimed = None, run
                return
            try:
                self._node.executor.submit(_drive, run, prev)
            except RuntimeError:  # the node's pool ended with the node
                where = self._node.endpoint
                nxt.set_exception(TransportError(f"node {where} is closed: no step runs", where))

        self._future.add_done_callback(on_done)
        return nxt

    def map(self, fn: Union[Stage, ShippedFn]) -> "AsyncHandle":
        return AsyncHandle(self._node, self._chain(lambda h: self._node.map(h, fn)))

    def flat_map(self, fn: Union[Stage, ShippedFn]) -> "AsyncHandle":
        return AsyncHandle(self._node, self._chain(lambda h: self._node.flat_map(h, fn)))

    def get(self) -> "Future[Any]":
        """Begin forcing; the returned future carries the value or the error."""
        return self._chain(lambda h: self._node.get(h))

    def force(self, timeout: Optional[float] = None) -> Any:
        return self.get().result(timeout)


class DeferredHandle:
    """A remote handle plus a tuple of not-yet-applied stages.

    map is pure bookkeeping — the stages grow (by one Stage, or by all of a
    ShippedFn's), nothing ships. get applies the
    whole pipeline in a single Map request and forces the result with a single
    Get; with no stages it ships ``identity``, so that is the only case that
    needs that id registered at the host. flat_map is the odd one out: it must
    force first (that is its contract), then hands the forced value to a local
    continuation.
    """

    __slots__ = ("remote", "stages")

    def __init__(self, remote: RemoteHandle, stages: tuple[Stage, ...]) -> None:
        self.remote = remote
        self.stages = stages

    @classmethod
    def wrap(cls, handle: RemoteHandle) -> "DeferredHandle":
        return cls(handle, ())

    @property
    def pipeline(self) -> ShippedFn:
        return ShippedFn(self.stages or (Stage("identity"),))

    def map(self, fn: Union[Stage, ShippedFn]) -> "DeferredHandle":
        if isinstance(fn, Stage):
            added = (fn,)
        elif isinstance(fn, ShippedFn):
            added = fn.stages
        else:
            raise _not_a_pipeline(fn)
        return DeferredHandle(self.remote, self.stages + added)

    def get(self) -> Any:
        return self.remote.map(self.pipeline).get()

    def flat_map(self, fn: Callable[[Any], "DeferredHandle"]) -> "DeferredHandle":
        return fn(self.get())
