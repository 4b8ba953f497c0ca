"""The benchmark's workloads: closed-loop obfuscated sessions in one event loop.

Every workload runs one session at a time from one process.  The client
builds a request with the protocol's message generator, awaits its decoded
reply, checks it against what the server's responder returned, and only then
builds the next one.  Endpoints keep their default constructor arguments
(interpreted codecs, ``framing="auto"``) and receive only the generated
messages and the obfuscated dialects drawn from the seed.

A run is split into parts; each part draws its own dialects, so one run
averages over several obfuscations instead of hanging on one draw.  Each part
is set up (timed as ``setup_s``), warmed up with a fixed number of round trips
whose wire payloads feed the determinism digest, then timed for its share of
``--seconds``.
"""

from __future__ import annotations

import asyncio
import hashlib
import itertools
from array import array
from collections import deque
from dataclasses import dataclass, field
from random import Random
from time import perf_counter, perf_counter_ns

from repro.core.errors import ReproError
from repro.net import (
    Capture,
    ObfuscatedClient,
    ObfuscatedServer,
    PlanBook,
    connect_memory,
    derive_session_key,
)
from repro.protocols import mqtt, registry
from repro.wire.serializer import Serializer

from tracing import ROTATE, ROUND_TRIP, SETUP, Patches

#: Obfuscation level (passes) of the pingpong dialects.
PINGPONG_LEVEL = 2
#: Parts (dialect draws) of a pingpong run.
PINGPONG_PARTS = 16
#: Round trips of each pingpong part before timing starts (digest, warm-up).
PINGPONG_WARMUP = 64
#: Parts (plan-book draws) of a ``rotate_capture`` run.
ROTATE_PARTS = 4
#: Requests per key visit in ``rotate_capture`` before the client rotates.
REQUESTS_PER_KEY = 16
#: Times each key of a ``rotate_capture`` plan book is visited per session.
VISITS_PER_KEY = 2
#: Obfuscation levels (passes) of the keys in a ``rotate_capture`` plan book.
ROTATE_LEVELS = (1, 2, 3, 4)
#: Pingpong round trips between switching tracing on or off (traced runs).
TRACE_BLOCK = 128
#: MQTT packet types that get a reply; CONNECT is absorbed by the responder.
MQTT_REPLYING = (mqtt.PUBLISH_QOS0, mqtt.PUBLISH_QOS1, mqtt.PINGREQ)

#: Failures a round trip can end with; each counts as one failed request.
ROUND_TRIP_ERRORS = (ReproError, OSError, asyncio.TimeoutError)


class SessionLost(Exception):
    """A round trip failed in a way that leaves its session unusable."""


def request_generator(setup: registry.ProtocolSetup):
    """The application's request generator, restricted to replying packets."""
    if setup.key == "mqtt":
        def build(rng: Random):
            return mqtt.random_packet(rng, packet_type=rng.choice(MQTT_REPLYING))
        return build
    return setup.message_generator


class ExpectingResponder:
    """The protocol's responder, keeping each reply it returned.

    Passed to the server through ``responder=``; the client's decoded reply
    must equal the message this kept for it.
    """

    def __init__(self, respond, tracer=None):
        self._respond = respond
        self._traced = tracer.wrap("protocols.respond", respond) if tracer else None
        self._tracer = tracer
        self.expected: deque = deque()

    def __call__(self, message, rng):
        if self._tracer is not None and self._tracer.on:
            reply = self._traced(message, rng)
        else:
            reply = self._respond(message, rng)
        self.expected.append(reply)
        return reply


class WireDigest:
    """sha256 over every serialized payload, in order, while installed.

    Requests and replies are both serialized in this process, so hooking the
    serializer sees every wire payload of the session exactly once.
    """

    def __init__(self):
        self._hash = hashlib.sha256()
        self.payloads = 0
        self._patches = Patches()

    def install(self) -> None:
        def record(data: bytes) -> None:
            self._hash.update(len(data).to_bytes(4, "big"))
            self._hash.update(data)
            self.payloads += 1

        def hook_plain(serialize):
            def hooked(serializer, message):
                data = serialize(serializer, message)
                record(data)
                return data
            return hooked

        def hook_spans(serialize):
            def hooked(serializer, message):
                data, spans = serialize(serializer, message)
                record(data)
                return data, spans
            return hooked

        self._patches.replace(Serializer, "serialize", hook_plain)
        self._patches.replace(Serializer, "serialize_with_spans", hook_spans)

    def uninstall(self) -> None:
        self._patches.restore()

    def hexdigest(self) -> str:
        return self._hash.hexdigest()


@dataclass
class CodecSample:
    """Messages one dialect carried, kept for the codec-tier replay."""

    protocol: str
    level: int
    request_graph: object
    response_graph: object
    requests: list = field(default_factory=list)
    replies: list = field(default_factory=list)


@dataclass
class RunResult:
    """Everything one run measured and checked."""

    workload: str
    setup_s: list = field(default_factory=list)
    #: round-trip times of the timed loops, in ns.
    rtt_ns: array = field(default_factory=lambda: array("q"))
    #: index into ``rtt_ns`` where each part's timed samples start.
    part_starts: list = field(default_factory=list)
    timed_s: float = 0.0
    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)
    digest: WireDigest = field(default_factory=WireDigest)
    bytes_sent: int = 0
    bytes_received: int = 0
    messages_sent: int = 0
    messages_received: int = 0
    peak_buffered: int = 0
    sessions: int = 0
    rotations: int = 0
    #: dialects of the last part with the warm-up messages they carried.
    codec_samples: list = field(default_factory=list)
    #: round trips and wall time of traced and untraced blocks (traced runs).
    traced_round_trips: int = 0
    traced_s: float = 0.0
    untraced_round_trips: int = 0
    untraced_s: float = 0.0
    setup_ids: list = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.failures) < 20:
            self.failures.append(reason)


class Requester:
    """Closed-loop round trips with per-request checking and timing."""

    def __init__(self, result: RunResult, tracer=None, request_timeout=None):
        self.result = result
        self.tracer = tracer
        self.request_timeout = request_timeout
        self._rid = 0
        self._traced_builds: dict = {}

    async def round_trip(self, client, build, checker, rng, protocol: str, *,
                         timed: bool, after_rotation: bool = False,
                         keep: "CodecSample | None" = None) -> None:
        """One request and its checked reply; raises SessionLost on errors."""
        result = self.result
        tracer = self.tracer
        traced = tracer is not None and tracer.on
        result.attempted += 1
        start = perf_counter_ns()
        if traced:
            self._rid += 1
            rid = self._rid
            token = tracer.begin(ROUND_TRIP, rid=rid)
            traced_build = self._traced_builds.get(build)
            if traced_build is None:
                traced_build = self._traced_builds[build] = tracer.wrap(
                    "protocols.build", build)
            message = traced_build(rng)
        else:
            message = build(rng)
        try:
            if self.request_timeout is None:
                reply = await client.request(message)
            else:
                reply = await client.request(message, timeout=self.request_timeout)
        except ROUND_TRIP_ERRORS as exc:
            if traced:
                tracer.end(token)
            result.fail(f"{protocol}: {type(exc).__name__}: {exc}")
            raise SessionLost(str(exc)) from exc
        end = perf_counter_ns()
        if traced:
            tracer.end(token)
            tracer.protocol_of[rid] = protocol
            if after_rotation:
                tracer.after_rotation.add(rid)
        if timed:
            result.rtt_ns.append(end - start)
        expected = checker.expected.popleft() if checker.expected else None
        if expected is None or checker.expected or reply != expected:
            checker.expected.clear()
            result.fail(f"{protocol}: reply differs from the responder's")
        elif keep is not None:
            keep.requests.append(message)
            keep.replies.append(reply)

    async def rotate(self, client, key_id: str) -> None:
        tracer = self.tracer
        if tracer is not None and tracer.on:
            token = tracer.begin(ROTATE)
            try:
                await client.rotate(key_id)
            finally:
                tracer.end(token)
        else:
            await client.rotate(key_id)

    def begin_setup(self, label: str):
        """Trace one set-up (traced runs) under the request id ``label``."""
        tracer = self.tracer
        if tracer is None:
            return None
        self.result.setup_ids.append(label)
        tracer.enable()
        return tracer.begin(SETUP, rid=label)

    def end_setup(self, token) -> None:
        if token is not None:
            self.tracer.end(token)
            self.tracer.disable()


def check_server(result: RunResult, server: ObfuscatedServer, clients,
                 *, rotations: int | None = None) -> None:
    """Server sessions ended cleanly and answered every request once."""
    sent = sum(client.stats.sent for client in clients)
    received = sum(stats.received for stats in server.completed)
    if received != sent:
        result.fail(f"server decoded {received} of {sent} requests")
    for stats in server.completed:
        if stats.error is not None:
            result.fail(f"server session error: {stats.error}")
        elif stats.received != stats.sent:
            result.fail(f"server session answered {stats.sent} of "
                        f"{stats.received} requests")
        elif rotations is not None and stats.rotations != rotations:
            result.fail(f"server session followed {stats.rotations} of "
                        f"{rotations} rotations")
        result.peak_buffered = max(result.peak_buffered, stats.peak_buffered)
    for client in clients:
        stats = client.stats
        result.bytes_sent += stats.bytes_sent
        result.bytes_received += stats.bytes_received
        result.messages_sent += stats.sent
        result.messages_received += stats.received
        result.peak_buffered = max(result.peak_buffered, stats.peak_buffered)
    result.sessions += len(server.completed)


def dialect_seed(seed: int, part: int, slot: int = 0) -> int:
    """Obfuscation seed of one dialect; each key uses it and the next one."""
    return seed * 1_000_003 + part * 1_009 + slot * 2


# ---------------------------------------------------------------------------
# modbus_pingpong: one protocol, one dialect per part, TCP
# ---------------------------------------------------------------------------


@dataclass
class Pingpong:
    """One protocol at one obfuscation level, one session per part."""

    parts = PINGPONG_PARTS

    protocol: str
    transport: str = "tcp"
    #: corrupting fault plan on the response path (self-test only).
    response_faults: object = None

    async def run_part(self, requester: Requester, seed: int, part: int, *,
                       seconds: float | None = None,
                       round_trips: int | None = None) -> None:
        result = requester.result
        tracer = requester.tracer
        setup = registry.get(self.protocol)
        build = request_generator(setup)
        rng = Random(seed * 7919 + part)

        started = perf_counter()
        token = requester.begin_setup(f"setup-{part}")
        key = derive_session_key(setup, passes=PINGPONG_LEVEL,
                                 seed=dialect_seed(seed, part))
        checker = ExpectingResponder(setup.responder, tracer)
        server = ObfuscatedServer(setup, request_graph=key.request_graph,
                                  response_graph=key.response_graph,
                                  responder=checker)
        address = await server.start_tcp() if self.transport == "tcp" else None
        clients: list[ObfuscatedClient] = []

        async def open_client() -> ObfuscatedClient:
            client = ObfuscatedClient(setup, request_graph=key.request_graph,
                                      response_graph=key.response_graph)
            if address is not None:
                await client.connect_tcp(*address)
            else:
                connect_memory(client, server,
                               response_faults=self.response_faults)
            clients.append(client)
            return client

        client = await open_client()
        requester.end_setup(token)
        result.setup_s.append(perf_counter() - started)

        sample = CodecSample(self.protocol, PINGPONG_LEVEL, key.request_graph,
                             key.response_graph)

        async def exchange(timed: bool, keep=None) -> None:
            nonlocal client
            try:
                await requester.round_trip(client, build, checker, rng,
                                        self.protocol, timed=timed, keep=keep)
            except SessionLost:
                checker.expected.clear()
                await client.close(drain=1.0)
                client = await open_client()

        try:
            result.digest.install()
            try:
                for _ in range(PINGPONG_WARMUP):
                    await exchange(timed=False, keep=sample)
            finally:
                result.digest.uninstall()
            block = TRACE_BLOCK if round_trips is None else 1
            await timed_blocks(requester, seconds, round_trips, block,
                               lambda: exchange(timed=True))
        finally:
            for each in clients:
                await each.close(drain=5.0)
            await server.stop(drain=True, deadline=5.0)
        result.codec_samples = [sample]
        if self.response_faults is None:
            check_server(result, server, clients)


async def timed_blocks(requester: Requester, seconds, round_trips, block_size, step,
                       granule: int = 1) -> None:
    """Run blocks of ``block_size`` steps until the budget is spent.

    The budget (``seconds`` or ``round_trips``) is checked only every
    ``granule`` blocks, so a workload mixing several kinds of block always
    runs whole rounds of them.  In traced runs, odd blocks run traced and even
    blocks untraced, which gives the tracing overhead on the same dialects
    and messages.
    """
    result = requester.result
    tracer = requester.tracer
    started = perf_counter()
    deadline = None if seconds is None else started + seconds
    first = result.attempted
    block = 0
    while (block % granule
           or ((deadline is None or perf_counter() < deadline)
               and (round_trips is None
                    or result.attempted - first < round_trips))):
        if tracer is not None:
            tracer.enable() if block % 2 else tracer.disable()
        before = result.attempted
        block_start = perf_counter()
        for _ in range(block_size):
            await step()
        elapsed = perf_counter() - block_start
        count = result.attempted - before
        if tracer is not None and tracer.on:
            result.traced_round_trips += count
            result.traced_s += elapsed
        else:
            result.untraced_round_trips += count
            result.untraced_s += elapsed
        block += 1
    if tracer is not None:
        tracer.disable()
    result.timed_s += perf_counter() - started


# ---------------------------------------------------------------------------
# rotate_capture: every protocol, plan books at levels 1-4, shared capture
# ---------------------------------------------------------------------------


@dataclass
class Book:
    """One protocol's plan book and what its sessions need."""

    setup: registry.ProtocolSetup
    book: PlanBook
    levels: dict
    build: object


@dataclass
class RotateCapture:
    """All registry protocols in turn, rotating keys every 16 requests."""

    parts = ROTATE_PARTS

    async def run_part(self, requester: Requester, seed: int, part: int, *,
                       seconds: float | None = None,
                       round_trips: int | None = None) -> None:
        result = requester.result
        rng = Random(seed * 7919 + part)

        started = perf_counter()
        token = requester.begin_setup(f"setup-{part}")
        books = []
        for index, key in enumerate(registry.available()):
            setup = registry.get(key)
            keys, levels = [], {}
            for level in ROTATE_LEVELS:
                session_key = derive_session_key(
                    setup, passes=level,
                    seed=dialect_seed(seed, part, index * len(ROTATE_LEVELS) + level))
                keys.append(session_key)
                levels[session_key.key_id] = level
            books.append(Book(setup, PlanBook(keys), levels,
                              request_generator(setup)))
        first = self._open(requester, books[0])
        requester.end_setup(token)
        result.setup_s.append(perf_counter() - started)

        samples = {}
        for book in books:
            for key in book.book.keys():
                samples[key.key_id] = CodecSample(
                    book.setup.key, book.levels[key.key_id],
                    key.request_graph, key.response_graph)

        result.digest.install()
        try:
            for index, book in enumerate(books):
                opened = first if index == 0 else self._open(requester, book)
                await self._session(requester, book, opened, rng, timed=False,
                                    samples=samples)
        finally:
            result.digest.uninstall()
        result.codec_samples = list(samples.values())

        order = itertools.cycle(books)

        async def session() -> None:
            book = next(order)
            await self._session(requester, book, self._open(requester, book), rng,
                                timed=True)

        # One block is one protocol's session, and the budget is checked only
        # after whole rounds of protocols.  In traced runs a round is two
        # cycles: with an odd protocol count, the traced/untraced alternation
        # then covers every protocol once each way.
        rounds = 1 if requester.tracer is None else 2
        await timed_blocks(requester, seconds, round_trips, 1, session,
                           granule=rounds * len(books))

    def _open(self, requester: Requester, book: Book):
        capture = Capture()
        checker = ExpectingResponder(book.setup.responder, requester.tracer)
        server = ObfuscatedServer(book.setup, plan_book=book.book,
                                  capture=capture, responder=checker)
        client = connect_memory(
            ObfuscatedClient(book.setup, plan_book=book.book, capture=capture),
            server)
        return server, client, capture, checker

    async def _session(self, requester: Requester, book: Book, opened, rng, *,
                       timed: bool, samples=None) -> None:
        result = requester.result
        server, client, capture, checker = opened
        protocol = book.setup.key
        key_ids = book.book.key_ids()
        rotations = 0
        try:
            for visit in range(VISITS_PER_KEY):
                for position, key_id in enumerate(key_ids):
                    rotated = bool(visit or position)
                    if rotated:
                        await requester.rotate(client, key_id)
                        rotations += 1
                    keep = samples[key_id] if samples is not None else None
                    for index in range(REQUESTS_PER_KEY):
                        await requester.round_trip(
                            client, book.build, checker, rng, protocol,
                            timed=timed, after_rotation=rotated and index == 0,
                            keep=keep)
        except SessionLost:
            pass
        finally:
            await client.close(drain=5.0)
        result.rotations += rotations
        check_server(result, server, [client], rotations=rotations)
        requests = client.stats.sent
        if len(capture) != 2 * requests:
            result.fail(f"{protocol}: capture holds {len(capture)} records "
                        f"for {requests} round trips")
        if capture.rotation_count() != 2 * rotations:
            result.fail(f"{protocol}: capture shows {capture.rotation_count()} "
                        f"plan switches for {rotations} rotations")


WORKLOADS = {
    "modbus_pingpong": Pingpong("modbus"),
    "rotate_capture": RotateCapture(),
}


async def run_workload(name: str, seed: int, seconds: float, tracer=None,
                       ) -> RunResult:
    """Run every part of one workload, splitting ``seconds`` between them."""
    workload = WORKLOADS[name]
    result = RunResult(name)
    requester = Requester(result, tracer)
    for part in range(workload.parts):
        result.part_starts.append(len(result.rtt_ns))
        await workload.run_part(requester, seed, part,
                                seconds=seconds / workload.parts)
    return result
