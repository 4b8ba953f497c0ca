"""In-memory span tracer that wraps the library's public callables.

The library records no spans itself, so the traced run patches the class and
module attributes that the session code actually calls (``Serializer``,
``StreamingDecoder.feed``, ``RecordDecoder.feed``, ``frame_payload`` as bound
in ``repro.net.session``, ``Capture.record``, the stream and socket writes and
reads, and the set-up entry points), records one span per call, and restores
every attribute on :meth:`Tracer.disable`.

Everything runs on one thread and one event loop, and every wrapped callable
is synchronous, so a single stack gives each span its parent.  The two
asynchronous spans (a round trip, a rotation) are opened by the client task
while nothing else is open, so spans that the server task or a transport
callback records while the client is suspended become their children.

Spans are kept in memory and written out by :meth:`Tracer.write` when the run
ends.  A layer's self time is its span's duration minus that of its direct
children; the self time of a round trip's own span is the time no named layer
covered (the event loop, the session pump and bookkeeping).
"""

from __future__ import annotations

import asyncio
import gzip
import json
import socket
import statistics
from collections import defaultdict
from time import perf_counter_ns

from repro.net import Capture, RecordDecoder, StreamingDecoder
from repro.net import session as session_module
from repro.net.session import MemoryWriter
from repro.transforms.engine import ObfuscationResult, Obfuscator
from repro.transforms.plan import ObfuscationPlan
from repro.wire import plan as plan_module
from repro.wire.serializer import Serializer

#: Name of the root span of one round trip; its self time is unattributed.
ROUND_TRIP = "round_trip"
ROTATE = "net.rotation.rotate"
SETUP = "setup"
UNATTRIBUTED = "net.session.unattributed"

#: (owner, attribute, layer) of every library callable the tracer wraps.
#: Stream ``drain()``/``read()`` are awaits whose cost outside the wait is
#: loop scheduling, so the transport layer is the synchronous send side
#: (stream/socket writes) and receive side (socket recv in the transport's
#: read callback, ``StreamReader.feed_data``).
TARGETS = (
    (Serializer, "serialize", "wire.serialize"),
    (Serializer, "serialize_with_spans", "wire.serialize"),
    (StreamingDecoder, "feed", "wire.streaming.feed"),
    (RecordDecoder, "feed", "net.framing.record_feed"),
    (session_module, "frame_payload", "net.framing.frame"),
    (Capture, "record", "net.capture.record"),
    (asyncio.StreamWriter, "write", "net.transport"),
    (asyncio.StreamReader, "feed_data", "net.transport"),
    (socket.socket, "send", "net.transport"),
    (socket.socket, "recv", "net.transport"),
    (MemoryWriter, "write", "net.transport"),
    (Obfuscator, "obfuscate", "transforms.obfuscate"),
    (ObfuscationResult, "plan", "transforms.obfuscate"),
    (ObfuscationPlan, "replay", "transforms.replay"),
    (plan_module, "compile_plan", "wire.plan.compile"),
)

#: Layers whose calls return the list of messages they decoded.
COUNT_RESULTS = frozenset({"wire.streaming.feed"})


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def replace(self, owner, attribute: str, make) -> None:
        own = vars(owner).get(attribute, _ABSENT)
        original = getattr(owner, attribute) if own is _ABSENT else own
        setattr(owner, attribute, make(original))
        self._undo.append((owner, attribute, own))

    def restore(self) -> None:
        while self._undo:
            owner, attribute, own = self._undo.pop()
            if own is _ABSENT:
                delattr(owner, attribute)
            else:
                setattr(owner, attribute, own)


_ABSENT = object()


class Tracer:
    """Records spans (index, layer, start, end, parent, request id)."""

    def __init__(self):
        self.on = False
        self.spans: list[tuple] = []
        self.results: dict[str, int] = defaultdict(int)
        #: request id -> protocol key of every traced round trip.
        self.protocol_of: dict[object, str] = {}
        #: request ids of the first round trip after each rotation.
        self.after_rotation: set[int] = set()
        #: spans whose close did not find them on top of the stack.
        self.nesting_errors = 0
        self.rid = None
        self._stack: list[int] = []
        self._next = 0
        self._patches = Patches()

    # -- switching -------------------------------------------------------------

    def enable(self) -> None:
        if self.on:
            return
        for owner, attribute, layer in TARGETS:
            self._patches.replace(owner, attribute,
                                  lambda fn, layer=layer: self.wrap(layer, fn))
        self.on = True

    def disable(self) -> None:
        if self.on:
            self._patches.restore()
            self.on = False

    # -- recording -------------------------------------------------------------

    def wrap(self, layer: str, fn):
        tracer = self
        counted = layer in COUNT_RESULTS

        def traced(*args, **kwargs):
            stack = tracer._stack
            index = tracer._next
            tracer._next = index + 1
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                tracer._close(index)
                tracer.spans.append((index, layer, start, end, parent, tracer.rid))
            if counted:
                tracer.results[layer] += len(result)
            return result

        return traced

    def begin(self, layer: str, rid=None):
        """Open an asynchronous span; ``rid`` tags it and every span inside."""
        index = self._next
        self._next = index + 1
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(index)
        if rid is not None:
            self.rid = rid
        return index, layer, parent, perf_counter_ns()

    def end(self, token) -> None:
        index, layer, parent, start = token
        end = perf_counter_ns()
        self._close(index)
        self.spans.append((index, layer, start, end, parent, self.rid))
        if parent == -1:
            self.rid = None

    def _close(self, index: int) -> None:
        stack = self._stack
        if stack and stack[-1] == index:
            stack.pop()
        else:
            self.nesting_errors += 1
            if index in stack:
                stack.remove(index)

    # -- output ----------------------------------------------------------------

    def write(self, path) -> None:
        """Write every span as one JSON line (gzip-compressed)."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as out:
            for index, layer, start, end, parent, rid in self.spans:
                out.write(json.dumps([index, layer, start, end, parent, rid]))
                out.write("\n")

    def analyse(self) -> "TraceSummary":
        return TraceSummary(self)


class TraceSummary:
    """Self time per layer and per round trip, reconciled against wall time."""

    def __init__(self, tracer: Tracer):
        children: dict[int, int] = defaultdict(int)
        for index, layer, start, end, parent, rid in tracer.spans:
            if parent >= 0:
                children[parent] += end - start
        #: (request id, layer) -> summed self time in ns.
        self.self_ns: dict[tuple, int] = defaultdict(int)
        #: request id -> wall time of the round trip in ns.
        self.round_trip_ns: dict[object, int] = {}
        self.calls: dict[str, int] = defaultdict(int)
        self.rotate_ns: list[int] = []
        self.negative_self = 0
        for index, layer, start, end, parent, rid in tracer.spans:
            own = end - start - children.get(index, 0)
            if own < 0:
                self.negative_self += 1
            if layer == ROUND_TRIP:
                self.round_trip_ns[rid] = end - start
                self.self_ns[rid, UNATTRIBUTED] += own
                continue
            self.calls[layer] += 1
            if layer == ROTATE:
                self.rotate_ns.append(end - start)
            if rid is not None:
                self.self_ns[rid, layer] += own
        self.results = dict(tracer.results)
        self.protocol_of = tracer.protocol_of
        self.after_rotation = tracer.after_rotation
        self.nesting_errors = tracer.nesting_errors
        by_request: dict[object, int] = defaultdict(int)
        for (rid, layer), own in self.self_ns.items():
            if rid in self.round_trip_ns:
                by_request[rid] += own
        #: round trips whose layer self times do not sum to their wall time.
        self.unreconciled = sum(
            1 for rid, wall in self.round_trip_ns.items() if by_request[rid] != wall
        )

    @property
    def reconciled(self) -> bool:
        return (self.unreconciled == 0 and self.negative_self == 0
                and self.nesting_errors == 0)

    def requests(self, protocol: str | None = None) -> list:
        return [rid for rid in self.round_trip_ns
                if protocol is None or self.protocol_of.get(rid) == protocol]

    def per_round_trip_us(self, layer: str, rids) -> float:
        """Mean self time of ``layer`` per round trip of ``rids``, in µs."""
        if not rids:
            return 0.0
        total = sum(self.self_ns.get((rid, layer), 0) for rid in rids)
        return total / len(rids) / 1e3

    def mean_round_trip_us(self, rids) -> float:
        if not rids:
            return 0.0
        return sum(self.round_trip_ns[rid] for rid in rids) / len(rids) / 1e3

    def setup_median_s(self, layer: str, setup_ids) -> float:
        """Median over set-ups of the summed self time of ``layer``, in s."""
        if not setup_ids:
            return 0.0
        return statistics.median(
            self.self_ns.get((sid, layer), 0) / 1e9 for sid in setup_ids)
