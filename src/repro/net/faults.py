"""Deterministic fault injection for the live transport layer.

The sessions of :mod:`repro.net` so far only ever saw clean byte streams;
this module is the hostile network between the endpoints.  A
:class:`FaultPlan` composes the configurable fault models — packet loss,
segment reordering, duplication, mid-stream truncation, byte corruption and
slow-loris partial feeds — into one JSON-serializable, seeded, replayable
artifact (the fault-model counterpart of the obfuscation
:class:`~repro.transforms.plan.ObfuscationPlan`), and a :class:`FaultInjector`
executes it over any written byte stream.

The injector models the link *below* a TCP-like transport and the receiving
stack above it:

* every ``write()`` payload is cut into **segments** (slow-loris feeds are
  just very small segments), each carrying a conceptual sequence number;
* the fault schedule scrambles the segments — drops, duplicates, delays
  (reordering within a bounded window), XOR byte corruption, a hard cut at a
  configured stream offset;
* a **reassembler** then restores what a receiving TCP stack can restore:
  segments are delivered strictly in sequence order, duplicates are
  discarded, delayed segments wait for their turn.

Because reassembly repairs everything a real transport repairs, the
*loss-free* fault models (reordering, duplication, slow-loris) deliver a
byte-identical stream — only the chunking the decoder sees changes, which is
exactly what the streaming decoder must survive.  A **lost** segment is a
hole no retransmission ever fills: delivery stalls at the gap and the stream
ends there (mid-stream truncation through loss).  **Corrupted** segments are
delivered with their damage, which is what the record-framing resync path
(:class:`~repro.net.framing.RecordDecoder` with ``resync=True``) diagnoses
and skips.

Every random decision is drawn from one seeded generator in a fixed order
per segment, so a plan's fault schedule is a pure function of
``(plan, sequence of written payloads)``: replaying the same plan over the
same writes is bit-identical — the property the fault-matrix benchmark's
determinism guard pins.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field, fields, replace
from random import Random

from ..core.errors import ReproError

#: Fault models composable in one plan (documentation / introspection aid).
FAULT_MODELS = (
    "loss", "reorder", "duplicate", "corrupt", "truncate", "slowloris",
    "cut", "stall", "flood", "drip",
)

#: Connection-level chaos scenarios a :class:`ChaosSchedule` can compose.
CHAOS_SCENARIOS = ("cut", "stall", "loss_cut", "dial_flaky")


class FaultPlanError(ReproError):
    """A fault plan is malformed or could not be (de)serialized."""


@dataclass(frozen=True)
class FaultPlan:
    """A seeded, replayable schedule of transport faults.

    All models compose: one plan may drop, delay, duplicate *and* corrupt.
    A model whose rate is zero (or whose ``truncate_at`` is ``None``) is
    inactive.  ``segment_size`` bounds the bytes per simulated link segment;
    ``jitter`` draws each segment's size uniformly from ``1..segment_size``
    so segment boundaries fall at arbitrary byte offsets.
    """

    seed: int = 0
    #: maximum bytes per link segment (1 = pathological slow-loris feeds).
    segment_size: int = 64
    #: vary segment sizes randomly in ``1..segment_size``.
    jitter: bool = True
    #: per-segment drop probability (an unfillable gap: the stream ends there).
    loss_rate: float = 0.0
    #: per-segment probability of being delayed behind later segments.
    reorder_rate: float = 0.0
    #: maximum number of segments a delayed segment is held back.
    reorder_window: int = 4
    #: per-segment duplication probability (duplicates are dedup'd on arrival).
    duplicate_rate: float = 0.0
    #: per-segment probability of byte corruption (XOR ``0xFF``).
    corrupt_rate: float = 0.0
    #: number of consecutive bytes damaged in a corrupted segment.
    corrupt_burst: int = 2
    #: absolute stream offset where the connection is cut (``None`` = never).
    truncate_at: int | None = None
    #: absolute stream offset of a **mid-session connection cut**: delivery
    #: stops there and the transport is torn down abruptly — the peer
    #: observes a connection reset, not a clean EOF (``None`` = never).
    cut_at: int | None = None
    #: absolute stream offset of an **indefinite stall**: every byte past it
    #: is withheld and no EOF is ever signalled — the peer sees silence
    #: forever, the failure mode only an idle-read deadline can diagnose.
    stall_at: int | None = None
    #: absolute stream offset where a forged oversized length declaration is
    #: injected into the delivered stream — the memory-bomb peer: the
    #: receiver is promised ``flood_declared`` bytes and everything after
    #: drips toward a record that never completes (``None`` = never).
    flood_at: int | None = None
    #: the payload size the forged declaration promises.
    flood_declared: int = 1 << 20

    def __post_init__(self) -> None:
        if self.segment_size < 1:
            raise FaultPlanError(f"segment_size must be >= 1 ({self.segment_size})")
        if self.reorder_window < 1:
            raise FaultPlanError(f"reorder_window must be >= 1 ({self.reorder_window})")
        if self.corrupt_burst < 1:
            raise FaultPlanError(f"corrupt_burst must be >= 1 ({self.corrupt_burst})")
        for name in ("loss_rate", "reorder_rate", "duplicate_rate", "corrupt_rate"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultPlanError(f"{name} must be within [0, 1] ({rate})")
        for name in ("truncate_at", "cut_at", "stall_at", "flood_at"):
            offset = getattr(self, name)
            if offset is not None and offset < 0:
                raise FaultPlanError(f"{name} cannot be negative ({offset})")
        # The forged declaration must read as a payload length, not as one
        # of the control-record sentinels (0xFFFFFFFE / 0xFFFFFFFF).
        if not 1 <= self.flood_declared < (1 << 32) - 2:
            raise FaultPlanError(
                f"flood_declared must be in 1..{(1 << 32) - 3} "
                f"({self.flood_declared})"
            )

    # -- canned single-model plans ---------------------------------------------

    @classmethod
    def clean(cls, *, seed: int = 0, segment_size: int = 64) -> "FaultPlan":
        """A fault-free plan (segmentation only) — the control cell."""
        return cls(seed=seed, segment_size=segment_size)

    @classmethod
    def loss(cls, rate: float = 0.05, *, seed: int = 0,
             segment_size: int = 64) -> "FaultPlan":
        return cls(seed=seed, segment_size=segment_size, loss_rate=rate)

    @classmethod
    def reorder(cls, rate: float = 0.25, *, window: int = 4, seed: int = 0,
                segment_size: int = 64) -> "FaultPlan":
        return cls(seed=seed, segment_size=segment_size, reorder_rate=rate,
                   reorder_window=window)

    @classmethod
    def duplicate(cls, rate: float = 0.25, *, seed: int = 0,
                  segment_size: int = 64) -> "FaultPlan":
        return cls(seed=seed, segment_size=segment_size, duplicate_rate=rate)

    @classmethod
    def corrupt(cls, rate: float = 0.05, *, burst: int = 2, seed: int = 0,
                segment_size: int = 64) -> "FaultPlan":
        return cls(seed=seed, segment_size=segment_size, corrupt_rate=rate,
                   corrupt_burst=burst)

    @classmethod
    def truncate(cls, at: int, *, seed: int = 0,
                 segment_size: int = 64) -> "FaultPlan":
        return cls(seed=seed, segment_size=segment_size, truncate_at=at)

    @classmethod
    def slow_loris(cls, *, segment_size: int = 1, seed: int = 0) -> "FaultPlan":
        """Degenerate segmentation: the stream dribbles in byte-sized feeds."""
        return cls(seed=seed, segment_size=segment_size)

    @classmethod
    def cut(cls, at: int, *, seed: int = 0, segment_size: int = 64) -> "FaultPlan":
        """Mid-session connection cut (reset, not EOF) at a stream offset."""
        return cls(seed=seed, segment_size=segment_size, cut_at=at)

    @classmethod
    def stall(cls, at: int, *, seed: int = 0,
              segment_size: int = 64) -> "FaultPlan":
        """Indefinite stall at a stream offset: silence, never an EOF."""
        return cls(seed=seed, segment_size=segment_size, stall_at=at)

    @classmethod
    def flood(cls, at: int = 0, *, declared: int = 1 << 20, seed: int = 0,
              segment_size: int = 64) -> "FaultPlan":
        """Memory-bomb peer: a forged ``declared``-byte length lands at ``at``.

        With the default ``at=0`` the forged declaration opens the stream at
        a record boundary, so a record-framed receiver reads it as a header
        and every byte written afterwards drips as filler toward a payload
        that never completes — the attack a ``max_declared_bytes`` budget
        must refuse at the declaration itself.
        """
        return cls(seed=seed, segment_size=segment_size, flood_at=at,
                   flood_declared=declared)

    @classmethod
    def drip(cls, *, seed: int = 0) -> "FaultPlan":
        """Byte-drip schedule: every write dribbles in fixed 1-byte feeds.

        The deterministic slow-loris — no jitter, so the receiver makes at
        most one parse attempt per delivered byte (none until the bytes its
        last attempt needed have arrived); the workload a
        ``max_steps_per_feed`` / idle-read budget pair keeps bounded.
        """
        return cls(seed=seed, segment_size=1, jitter=False)

    # -- properties ------------------------------------------------------------

    @property
    def lossy(self) -> bool:
        """True when the plan can damage or withhold delivered payload bytes.

        Loss-free plans (reordering, duplication, slow-loris segmentation)
        are guaranteed to deliver the written byte stream verbatim — only
        the chunk boundaries the receiver observes change.
        """
        return (self.loss_rate > 0.0 or self.corrupt_rate > 0.0
                or self.truncate_at is not None or self.cut_at is not None
                or self.stall_at is not None or self.flood_at is not None)

    def reseed(self, seed: int) -> "FaultPlan":
        """The same fault mix under a different seed."""
        return replace(self, seed=seed)

    def describe(self) -> str:
        """Short human-readable summary of the active models."""
        active: list[str] = []
        if self.loss_rate:
            active.append(f"loss={self.loss_rate}")
        if self.reorder_rate:
            active.append(f"reorder={self.reorder_rate}/w{self.reorder_window}")
        if self.duplicate_rate:
            active.append(f"dup={self.duplicate_rate}")
        if self.corrupt_rate:
            active.append(f"corrupt={self.corrupt_rate}/b{self.corrupt_burst}")
        if self.truncate_at is not None:
            active.append(f"truncate@{self.truncate_at}")
        if self.cut_at is not None:
            active.append(f"cut@{self.cut_at}")
        if self.stall_at is not None:
            active.append(f"stall@{self.stall_at}")
        if self.flood_at is not None:
            active.append(f"flood@{self.flood_at}->{self.flood_declared}")
        active.append(f"seg<={self.segment_size}{'~' if self.jitter else ''}")
        return " ".join(active)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "FaultPlan":
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise FaultPlanError(
                f"unknown fault plan field(s): {', '.join(sorted(unknown))}"
            )
        try:
            return cls(**payload)
        except TypeError as exc:
            raise FaultPlanError(f"malformed fault plan: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(f"fault plan is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError("fault plan JSON must be an object")
        return cls.from_dict(payload)

    @property
    def fingerprint(self) -> str:
        """Stable short identifier of the plan (canonical-JSON digest)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


@dataclass
class FaultCounters:
    """What the injector did to one stream (the diagnosis side of a cell)."""

    #: link segments the written stream was cut into.
    segments: int = 0
    #: segments dropped by the loss model (each is an unfillable gap).
    dropped: int = 0
    #: segments emitted twice (the duplicate is discarded on reassembly).
    duplicated: int = 0
    #: segments delivered with damaged bytes.
    corrupted: int = 0
    #: total bytes damaged by the corruption model.
    corrupted_bytes: int = 0
    #: segments held back behind later segments by the reordering model.
    reordered: int = 0
    #: bytes actually handed to the receiver, post reassembly.
    delivered_bytes: int = 0
    #: bytes written by the sender but never delivered (cut or gap).
    undelivered_bytes: int = 0
    #: True once the stream was cut (truncation fault or a loss gap).
    truncated: bool = False
    #: True once the connection-cut fault reset the transport mid-session.
    reset: bool = False
    #: True once the stall fault silenced the stream without an EOF.
    stalled: bool = False
    #: forged bytes injected into the delivered stream by the flood model.
    injected_bytes: int = 0
    #: True once the flood model injected its forged declaration.
    flooded: bool = False

    def summary(self) -> dict:
        """JSON-friendly snapshot (used by the benchmark report)."""
        return dict(vars(self))


class FaultInjector:
    """Executes one :class:`FaultPlan` over a written byte stream.

    :meth:`push` accepts one written payload and returns the chunks the
    receiver gets *now* (possibly none — segments may be held back);
    :meth:`flush` releases everything still deliverable at end of stream.
    ``cut`` turns True the moment the stream is dead (truncation fault hit,
    or a lost segment made everything later undeliverable at flush time).
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self.counters = FaultCounters()
        self._rng = Random(plan.seed)
        self._seq = 0
        self._offset = 0
        #: [countdown, seq, data] — segments delayed by the reorder model.
        self._held: list[list] = []
        #: seq → data, segments arrived ahead of their turn.
        self._pending: dict[int, bytes] = {}
        self._next_deliver = 0
        self._lost: set[int] = set()
        self._cut = False
        self._flushed = False
        self._flood_pending = plan.flood_at is not None
        #: how the stream died: "truncate" / "cut" / "stall" / "loss" / None.
        self._severed: str | None = None
        limits = [(offset, kind)
                  for offset, kind in ((plan.truncate_at, "truncate"),
                                       (plan.cut_at, "cut"),
                                       (plan.stall_at, "stall"))
                  if offset is not None]
        #: the earliest configured stream-death offset (ties: truncate wins,
        #: matching the tuple order above).
        self._limit = min(limits) if limits else None

    @property
    def cut(self) -> bool:
        """True once the fault layer has severed the stream."""
        return self._cut

    @property
    def severed(self) -> "str | None":
        """The fault model that killed the stream (``None`` while alive)."""
        return self._severed

    def _sever(self, kind: str) -> None:
        if self._severed is None:
            self._severed = kind
        counters = self.counters
        if kind == "cut":
            counters.reset = True
        elif kind == "stall":
            counters.stalled = True
        else:
            counters.truncated = True

    # -- the sender side -------------------------------------------------------

    def push(self, data: bytes) -> list[bytes]:
        """Run one written payload through the fault schedule."""
        if self._flushed:
            raise FaultPlanError("cannot push bytes into a flushed injector")
        delivered: list[bytes] = []
        if self._cut:
            self.counters.undelivered_bytes += len(data)
            return delivered
        consumed = 0
        for segment in self._segments(data):
            consumed += len(segment)
            delivered.extend(self._transmit(segment))
            if self._cut:
                break
        # The tail of a write interrupted by the cut died on the link too.
        self.counters.undelivered_bytes += len(data) - consumed
        # Release segments still held by the reorder model: delays beyond one
        # write would stall request/response ping-pong forever (the next bytes
        # that could trigger release never come while the peer awaits these).
        # Reassembly restores byte order either way; holding only shapes the
        # chunk boundaries the receiver observes within this write.
        for _, seq, segment in self._held:
            delivered.extend(self._arrive(seq, segment))
        self._held.clear()
        return delivered

    def flush(self) -> list[bytes]:
        """End of stream: release held segments, account undelivered bytes."""
        if self._flushed:
            return []
        self._flushed = True
        delivered: list[bytes] = []
        # Held segments are released in hold order; reassembly puts them back
        # into sequence order anyway.
        for _, seq, data in self._held:
            delivered.extend(self._arrive(seq, data))
        self._held.clear()
        if self._pending:
            # A gap (lost segment) stalled delivery; the tail is unrecoverable.
            self.counters.undelivered_bytes += sum(
                len(chunk) for chunk in self._pending.values()
            )
            self._pending.clear()
            self.counters.truncated = True
            if self._severed is None:
                self._severed = "loss"
            self._cut = True
        return delivered

    # -- segmentation ----------------------------------------------------------

    def _segments(self, data: bytes):
        plan = self.plan
        cursor = 0
        while cursor < len(data):
            if plan.jitter and plan.segment_size > 1:
                size = self._rng.randrange(1, plan.segment_size + 1)
            else:
                size = plan.segment_size
            yield data[cursor : cursor + size]
            cursor += size

    # -- the link --------------------------------------------------------------

    def _transmit(self, segment: bytes) -> list[bytes]:
        plan = self.plan
        counters = self.counters
        # The flood model injects its forged oversized declaration into the
        # *delivered* stream once the written stream reaches flood_at.  The
        # forged bytes take their own sequence slot but do not advance the
        # written-stream offset — they never existed on the sending side.
        prelude: list[bytes] = []
        if self._flood_pending and self._offset >= plan.flood_at:
            self._flood_pending = False
            forged = plan.flood_declared.to_bytes(4, "big")
            seq = self._seq
            self._seq += 1
            counters.injected_bytes += len(forged)
            counters.flooded = True
            prelude = self._arrive(seq, forged)
        # Stream death at an absolute offset of the written stream: clean
        # truncation (EOF), connection cut (reset) or indefinite stall
        # (silence) — same delivery limit, different teardown semantics.
        if self._limit is not None:
            limit_at, limit_kind = self._limit
            if self._offset >= limit_at:
                counters.undelivered_bytes += len(segment)
                self._sever(limit_kind)
                self._cut = True
                return prelude
            if self._offset + len(segment) > limit_at:
                kept = limit_at - self._offset
                counters.undelivered_bytes += len(segment) - kept
                self._sever(limit_kind)
                segment = segment[:kept]

        seq = self._seq
        self._seq += 1
        self._offset += len(segment)
        counters.segments += 1

        # Fixed draw order per segment keeps the schedule replayable.
        lost = bool(plan.loss_rate) and self._rng.random() < plan.loss_rate
        doubled = bool(plan.duplicate_rate) and self._rng.random() < plan.duplicate_rate
        damaged = bool(plan.corrupt_rate) and self._rng.random() < plan.corrupt_rate
        delay = 0
        if plan.reorder_rate and self._rng.random() < plan.reorder_rate:
            delay = self._rng.randrange(1, plan.reorder_window + 1)

        if damaged and segment:
            position = self._rng.randrange(0, len(segment))
            burst = min(plan.corrupt_burst, len(segment) - position)
            mangled = bytearray(segment)
            for index in range(position, position + burst):
                mangled[index] ^= 0xFF
            segment = bytes(mangled)
            counters.corrupted += 1
            counters.corrupted_bytes += burst

        # A lost segment still arrives when the duplicate copy survives —
        # duplication genuinely repairs loss, as on a real link.
        copies = (2 if doubled else 1) - (1 if lost else 0)
        if doubled:
            counters.duplicated += 1
        if lost:
            counters.dropped += 1
            if copies <= 0:
                self._lost.add(seq)
                counters.undelivered_bytes += len(segment)

        delivered: list[bytes] = []
        if copies > 0:
            if delay:
                counters.reordered += 1
                self._held.append([delay, seq, segment])
            else:
                delivered.extend(self._arrive(seq, segment))
            for _ in range(copies - 1):
                delivered.extend(self._arrive(seq, segment))

        # Advance the hold-back clock and release segments whose delay expired.
        still_held: list[list] = []
        for entry in self._held:
            entry[0] -= 1
            if entry[0] <= 0:
                delivered.extend(self._arrive(entry[1], entry[2]))
            else:
                still_held.append(entry)
        self._held = still_held

        if self._limit is not None and self._offset >= self._limit[0]:
            self._sever(self._limit[1])
            self._cut = True
        return prelude + delivered if prelude else delivered

    # -- the receiving stack ---------------------------------------------------

    def _arrive(self, seq: int, data: bytes) -> list[bytes]:
        """Reassembly: in-order contiguous delivery, duplicates discarded."""
        if seq < self._next_deliver or seq in self._pending:
            return []
        self._pending[seq] = data
        delivered: list[bytes] = []
        while self._next_deliver in self._pending:
            chunk = self._pending.pop(self._next_deliver)
            self._next_deliver += 1
            if chunk:
                delivered.append(chunk)
                self.counters.delivered_bytes += len(chunk)
        return delivered


class FaultyWriter:
    """An asyncio-writer-shaped wrapper running writes through a fault plan.

    Wraps any writer with the ``write``/``drain``/``close`` surface (real
    :class:`asyncio.StreamWriter` or the in-process
    :class:`~repro.net.session.MemoryWriter`).  When the fault layer cuts the
    stream — the truncation fault fired, or flush found an unfillable loss
    gap — the wrapper half-closes the inner writer so the peer observes a
    mid-stream EOF, and silently swallows everything written afterwards (the
    bytes died on the link, not in the application).
    """

    def __init__(self, writer, plan: "FaultPlan | FaultInjector"):
        self._inner = writer
        self.injector = plan if isinstance(plan, FaultInjector) else FaultInjector(plan)
        self._eof_sent = False

    @property
    def counters(self) -> FaultCounters:
        return self.injector.counters

    def write(self, data: bytes) -> None:
        if self._eof_sent:
            self.injector.counters.undelivered_bytes += len(data)
            return
        for chunk in self.injector.push(data):
            self._inner.write(chunk)
        if self.injector.cut:
            self._finish()

    def write_eof(self) -> None:
        self._finish()

    def _finish(self) -> None:
        if self._eof_sent:
            return
        self._eof_sent = True
        # An RST destroys in-flight data; every other ending releases what
        # the reassembler can still deliver.
        if self.injector.severed != "cut":
            for chunk in self.injector.flush():
                self._inner.write(chunk)
        severed = self.injector.severed
        if severed == "stall":
            # The FIN is withheld with everything else: the peer observes
            # silence forever, never an end of stream.
            return
        if severed == "cut":
            self._reset_inner()
            return
        from .session import half_close  # local: avoid an import cycle

        half_close(self._inner)

    def _reset_inner(self) -> None:
        """Abort the transport so the peer sees a reset, not a clean EOF."""
        reset = getattr(self._inner, "reset", None)
        if reset is not None:
            reset()
            return
        transport = getattr(self._inner, "transport", None)
        if transport is not None:
            try:
                transport.abort()
                return
            except Exception:  # pragma: no cover - transport already gone
                pass
        try:
            self._inner.close()
        except Exception:  # pragma: no cover - transport already gone
            pass

    async def drain(self) -> None:
        await self._inner.drain()

    def can_write_eof(self) -> bool:
        return True

    def close(self) -> None:
        self._finish()
        if self.injector.severed == "stall":
            # Closing the inner transport would deliver the EOF the stall
            # fault withholds; the stalled connection stays half-dead.
            return
        try:
            self._inner.close()
        except Exception:  # pragma: no cover - transport already gone
            pass

    def is_closing(self) -> bool:
        return self._eof_sent or self._inner.is_closing()

    async def wait_closed(self) -> None:
        waiter = getattr(self._inner, "wait_closed", None)
        if waiter is not None:
            await waiter()

    def get_extra_info(self, name: str, default=None):
        return self._inner.get_extra_info(name, default)


def faulty_memory_pipe(request_plan: FaultPlan | None = None,
                       response_plan: FaultPlan | None = None):
    """:func:`~repro.net.session.memory_pipe` with fault injection per direction.

    Returns ``((client_reader, client_writer), (server_reader, server_writer))``
    where the client→server byte stream runs through ``request_plan`` and the
    server→client stream through ``response_plan`` (``None`` = clean).
    """
    from .session import memory_pipe  # local: avoid an import cycle

    (client_reader, client_writer), (server_reader, server_writer) = memory_pipe()
    if request_plan is not None:
        client_writer = FaultyWriter(client_writer, request_plan)
    if response_plan is not None:
        server_writer = FaultyWriter(server_writer, response_plan)
    return (client_reader, client_writer), (server_reader, server_writer)


@dataclass(frozen=True)
class ChaosSchedule:
    """A seeded schedule of connection-level chaos across a session's life.

    Where a :class:`FaultPlan` shapes one connection's byte stream, a chaos
    schedule spans *reconnections*: it decides, per connection attempt, which
    fault plan (if any) rides that link and whether the dial itself fails —
    the recovery workload of the resilience layer.  The first ``failures``
    attempts are hostile, everything after is clean, so a correctly retrying
    endpoint always converges.  All offsets are drawn from generators seeded
    by ``(seed, attempt)``, so a schedule is a pure function of its fields:
    the chaos-soak benchmark replays the same seed and asserts bit-identical
    recovery traces.

    Scenarios (:data:`CHAOS_SCENARIOS`):

    * ``cut`` — the link resets mid-session at a drawn offset;
    * ``stall`` — the link goes silent mid-session (no EOF), the failure
      only an idle-read deadline diagnoses;
    * ``loss_cut`` — segment loss plus a mid-session reset (a damaged *and*
      dying path);
    * ``dial_flaky`` — the connection itself is refused until the link
      heals, the workload of retry/backoff and the circuit breaker.
    """

    scenario: str
    seed: int = 0
    #: hostile connection attempts before the link heals.
    failures: int = 1
    #: offset range (inclusive lo, exclusive hi) cut/stall offsets draw from.
    fault_window: tuple[int, int] = (24, 160)
    #: segment loss rate of the ``loss_cut`` scenario's hostile attempts.
    loss_rate: float = 0.04
    #: link segment size of hostile attempts.
    segment_size: int = 32

    def __post_init__(self) -> None:
        if self.scenario not in CHAOS_SCENARIOS:
            raise FaultPlanError(
                f"unknown chaos scenario {self.scenario!r}; expected one of "
                f"{CHAOS_SCENARIOS}"
            )
        if self.failures < 0:
            raise FaultPlanError(f"failures cannot be negative ({self.failures})")
        lo, hi = self.fault_window
        if not 0 <= lo < hi:
            raise FaultPlanError(f"malformed fault_window {self.fault_window}")

    def _rng(self, attempt: int) -> Random:
        return Random(f"chaos:{self.seed}:{self.scenario}:{attempt}")

    def dial_fails(self, attempt: int) -> bool:
        """Does connection attempt ``attempt`` (1-based) fail to dial?"""
        return self.scenario == "dial_flaky" and attempt <= self.failures

    def plan_for_attempt(self, attempt: int) -> "FaultPlan | None":
        """The fault plan riding connection attempt ``attempt`` (1-based).

        ``None`` means a clean link — healed attempts, and every attempt of
        the ``dial_flaky`` scenario (its faults live at the dial, not on the
        stream).
        """
        if attempt < 1:
            raise FaultPlanError(f"attempts are 1-based ({attempt})")
        if attempt > self.failures or self.scenario == "dial_flaky":
            return None
        rng = self._rng(attempt)
        offset = rng.randrange(*self.fault_window)
        seed = rng.randrange(1 << 30)
        if self.scenario == "cut":
            return FaultPlan(seed=seed, segment_size=self.segment_size,
                             cut_at=offset)
        if self.scenario == "stall":
            return FaultPlan(seed=seed, segment_size=self.segment_size,
                             stall_at=offset)
        return FaultPlan(seed=seed, segment_size=self.segment_size,
                         loss_rate=self.loss_rate, cut_at=offset)

    # -- (de)serialization -----------------------------------------------------

    def to_dict(self) -> dict:
        payload = asdict(self)
        payload["fault_window"] = list(self.fault_window)
        return payload

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosSchedule":
        known = {entry.name for entry in fields(cls)}
        unknown = set(payload) - known
        if unknown:
            raise FaultPlanError(
                f"unknown chaos schedule field(s): {', '.join(sorted(unknown))}"
            )
        payload = dict(payload)
        if "fault_window" in payload:
            payload["fault_window"] = tuple(payload["fault_window"])
        try:
            return cls(**payload)
        except TypeError as exc:
            raise FaultPlanError(f"malformed chaos schedule: {exc}") from exc

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))

    @classmethod
    def from_json(cls, text: str) -> "ChaosSchedule":
        try:
            payload = json.loads(text)
        except ValueError as exc:
            raise FaultPlanError(
                f"chaos schedule is not valid JSON: {exc}") from exc
        if not isinstance(payload, dict):
            raise FaultPlanError("chaos schedule JSON must be an object")
        return cls.from_dict(payload)

    @property
    def fingerprint(self) -> str:
        """Stable short identifier of the schedule (canonical-JSON digest)."""
        return hashlib.sha256(self.to_json().encode("utf-8")).hexdigest()[:16]


__all__ = [
    "CHAOS_SCENARIOS",
    "FAULT_MODELS",
    "ChaosSchedule",
    "FaultCounters",
    "FaultInjector",
    "FaultPlan",
    "FaultPlanError",
    "FaultyWriter",
    "faulty_memory_pipe",
]
