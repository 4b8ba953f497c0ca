"""Streaming wire decoding: equivalence with whole-message parse and framing.

The core guarantee of the incremental decoder is *exact* equivalence with
``parse()``: for every registry protocol, at every obfuscation level 0-4,
under arbitrary chunk boundaries, the streamed result must be byte- and
structure-identical to parsing the whole buffer at once.  On top of that the
suite pins the stream-only behaviours: back-to-back framing, needs-more
reporting, clean :class:`StreamError` on mid-message EOF and on trailing
garbage (with the same node and offset as ``parse()``'s error), and the
self-framing analysis that decides the session framing.
"""

from __future__ import annotations

from random import Random

import pytest

from repro.codegen.cache import cached_module
from repro.core.errors import ParseError, StreamError
from repro.net.framing import (
    CorruptRecord,
    RecordDecoder,
    RotationEvent,
    encode_record,
    encode_rotation,
    make_decoder,
    resolve_framing,
)
from repro.net.rotation import derive_session_key
from repro.protocols import registry
from repro.spec import parse_spec
from repro.transforms.engine import Obfuscator
from repro.wire import Parser, WireCodec, Window, parse
from repro.wire.streaming import (
    DecodedMessage,
    StreamingDecoder,
    decode_stream,
    is_self_framing,
    stream_greedy_nodes,
)


def random_chunks(data: bytes, rng: Random, *, max_chunk: int = 9) -> list[bytes]:
    """Split ``data`` at random boundaries (chunks of 1..max_chunk bytes)."""
    chunks, cursor = [], 0
    while cursor < len(data):
        size = rng.randrange(1, max_chunk + 1)
        chunks.append(data[cursor : cursor + size])
        cursor += size
    return chunks


# ---------------------------------------------------------------------------
# equivalence with whole-message parse
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("passes", [0, 1, 2, 3, 4])
def test_streaming_equals_whole_message_parse(protocol_case, passes):
    """Fuzzed chunk splits: streamed == parse() for every protocol x level."""
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    if passes:
        graph = Obfuscator(seed=1000 + passes).obfuscate(graph, passes).graph
    codec = WireCodec(graph, seed=7)
    rng = Random(f"{name}-{passes}")
    split_rng = Random(passes * 31 + 5)
    for _ in range(3):
        message = generator(rng)
        data = codec.serialize(message)
        reference = codec.parse(data)
        for _ in range(2):
            decoded = decode_stream(graph, random_chunks(data, split_rng))
            assert len(decoded) == 1
            assert decoded[0].raw == data
            assert decoded[0].start == 0 and decoded[0].end == len(data)
            assert decoded[0].message == reference


def test_one_byte_chunk_feed(protocol_case):
    """The degenerate 1-byte-per-feed split decodes identically."""
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    codec = WireCodec(graph, seed=3)
    message = generator(Random(42))
    data = codec.serialize(message)
    decoded = decode_stream(graph, (bytes([byte]) for byte in data))
    assert len(decoded) == 1
    assert decoded[0].raw == data
    assert decoded[0].message == codec.parse(data)


def test_split_inside_length_and_counter_fields():
    """Chunk boundaries falling inside derived fields suspend cleanly.

    The Modbus MBAP length field occupies bytes [4, 6) and the DNS qdcount
    bytes [4, 6): feeding exactly one of the two bytes must leave the decoder
    suspended (needs more), and completing the field must resume in place.
    """
    for key, cut in (("modbus", 5), ("dns", 5), ("mqtt", 2)):
        setup = registry.get(key)
        graph = setup.graph_factory()
        codec = WireCodec(graph, seed=1)
        data = codec.serialize(setup.message_generator(Random(8)))
        decoder = StreamingDecoder(graph)
        assert decoder.feed(data[:cut]) == []
        assert decoder.needs_more, f"{key}: decoder should be suspended mid-field"
        completed = decoder.feed(data[cut:])
        assert len(completed) == 1
        assert completed[0].raw == data
        assert not decoder.needs_more


# ---------------------------------------------------------------------------
# back-to-back framing
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("key", ["modbus", "dns", "mqtt"])
@pytest.mark.parametrize("passes", [0, 2])
def test_back_to_back_framing(key, passes):
    """Self-framing graphs split a concatenated stream at exact extents."""
    setup = registry.get(key)
    graph = setup.graph_factory()
    if passes:
        graph = Obfuscator(seed=50 + passes).obfuscate(graph, passes).graph
    if not is_self_framing(graph):
        pytest.skip(f"{key} became stream-greedy at {passes} passes")
    codec = WireCodec(graph, seed=4)
    rng = Random(21)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(6)]
    stream = b"".join(wires)
    decoder = StreamingDecoder(graph)
    decoded = []
    for chunk in random_chunks(stream, Random(passes + 77), max_chunk=13):
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    assert [frame.raw for frame in decoded] == wires
    assert [frame.message for frame in decoded] == [codec.parse(w) for w in wires]
    assert decoder.decoded_count == 6
    # extents tile the stream exactly
    cursor = 0
    for frame in decoded:
        assert frame.start == cursor
        cursor = frame.end
    assert cursor == len(stream)


def test_one_chunk_completes_multiple_messages():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=2)
    rng = Random(5)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(4)]
    decoder = StreamingDecoder(graph)
    completed = decoder.feed(b"".join(wires))
    assert len(completed) == 4


# ---------------------------------------------------------------------------
# stream errors
# ---------------------------------------------------------------------------


def test_abrupt_mid_message_eof_raises_stream_error(protocol_case):
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    codec = WireCodec(graph, seed=6)
    data = codec.serialize(generator(Random(17)))
    # On a self-framing graph *every* proper prefix is mid-message; on a
    # stream-greedy one (HTTP) a truncated END-bounded body still reads as a
    # complete, shorter message — only cuts inside the leading structure are
    # guaranteed abrupt.
    cuts = {1, len(data) // 2, len(data) - 1} if is_self_framing(graph) else {1}
    for cut in cuts:
        decoder = StreamingDecoder(graph)
        decoder.feed(data[:cut])
        with pytest.raises(StreamError):
            decoder.feed_eof()


def test_trailing_garbage_raises_stream_error():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=9)
    good = codec.serialize(setup.message_generator(Random(1)))
    decoder = StreamingDecoder(graph)
    assert len(decoder.feed(good)) == 1
    with pytest.raises(StreamError) as excinfo:
        # An MBAP header claiming a huge length, then EOF mid-"payload".
        decoder.feed(b"\x00\x01\x00\x00\x00\x04\x01")
        decoder.feed_eof()
    assert excinfo.value.message_index == 1


@pytest.mark.parametrize("key", ["coap", "dns", "modbus", "mqtt"])
@pytest.mark.parametrize("passes", [0, 1, 2, 3, 4])
def test_damaged_last_message_reports_the_parse_error(key, passes):
    """A truncated or bit-flipped last message fails like ``parse()`` on it.

    The stream error names the damaged message, the node of strict
    ``parse()``'s error on that message's bytes, and that error's offset
    moved to the message's place in the stream.  Damage that still frames
    as a (shorter) message shifts the error onto a later message and is
    skipped.
    """
    setup = registry.get(key)
    graph = setup.graph_factory()
    if passes:
        graph = Obfuscator(seed=300 + passes).obfuscate(graph, passes).graph
    if not is_self_framing(graph):
        pytest.skip(f"{key} became stream-greedy at {passes} passes")
    codec = WireCodec(graph, seed=11)
    rng = Random(f"parity-{key}-{passes}")
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(3)]
    start = sum(len(wire) for wire in wires[:-1])
    checked = 0
    for trial in range(12):
        last = bytearray(wires[-1])
        if trial % 2:
            position = rng.randrange(len(last))
            last[position] ^= 1 << rng.randrange(8)
        else:
            del last[rng.randrange(1, len(last)):]
        damaged = bytes(last)
        try:
            Parser(graph).parse_prefix(Window(damaged))
        except ParseError:
            pass
        else:
            continue
        with pytest.raises(ParseError) as strict:
            parse(graph, damaged)
        expected = strict.value
        stream = b"".join(wires[:-1]) + damaged
        # Random chunks, and the whole stream in one feed (the damaged
        # message then starts mid-buffer).
        for chunks in (random_chunks(stream, rng), [stream]):
            decoder = StreamingDecoder(graph)
            with pytest.raises(StreamError) as streamed:
                for chunk in chunks:
                    decoder.feed(chunk)
                decoder.feed_eof()
            error = streamed.value
            assert error.message_index == len(wires) - 1
            assert error.node == expected.node
            assert error.offset == (None if expected.offset is None
                                    else start + expected.offset)
        checked += 1
    assert checked


def test_zero_length_message_is_refused_not_looped_on():
    """A graph that accepts an empty message cannot frame a stream."""
    graph = parse_spec("protocol empty; message nothing { bytes pad : 0; }")
    decoder = StreamingDecoder(graph)
    with pytest.raises(StreamError) as excinfo:
        decoder.feed(b"\x01")
    assert excinfo.value.message_index == 0


def test_failed_decoder_refuses_further_feeds():
    setup = registry.get("modbus")
    graph = setup.graph_factory()
    decoder = StreamingDecoder(graph)
    decoder.feed(b"\x00\x01\x00")
    with pytest.raises(StreamError):
        decoder.feed_eof()
    with pytest.raises(StreamError):
        decoder.feed(b"\x00")


def test_needs_more_reporting():
    setup = registry.get("dns")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=0)
    data = codec.serialize(setup.message_generator(Random(3)))
    decoder = StreamingDecoder(graph)
    assert not decoder.needs_more
    decoder.feed(data[:4])
    assert decoder.needs_more and decoder.buffered == 4
    decoder.feed(data[4:])
    assert not decoder.needs_more and decoder.buffered == 0
    assert decoder.feed_eof() == []


# ---------------------------------------------------------------------------
# the compiled fast path
# ---------------------------------------------------------------------------


def test_whole_messages_frame_without_the_reference_parser(monkeypatch):
    """One whole native message per feed is answered by the compiled unit."""
    setup = registry.get("modbus")
    graph = Obfuscator(seed=3).obfuscate(setup.graph_factory(), 2).graph
    assert resolve_framing(graph, "auto") == "native"
    codec = WireCodec(graph, seed=2)
    rng = Random(9)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(20)]
    expected = [codec.parse(wire) for wire in wires]
    decoder = make_decoder(graph, "native")
    calls = []
    reference = Parser.parse_prefix

    def counting(self, window):
        calls.append(window.cursor)
        return reference(self, window)

    monkeypatch.setattr(Parser, "parse_prefix", counting)
    decoded = [frame for wire in wires for frame in decoder.feed(wire)]
    assert [frame.raw for frame in decoded] == wires
    assert [frame.message for frame in decoded] == expected
    assert calls == []


def test_greedy_graph_holds_its_body_until_end_of_stream():
    """Greedy graphs keep the reference semantics: END waits for EOF."""
    setup = registry.get("http")
    graph = setup.graph_factory()
    assert not is_self_framing(graph)
    codec = WireCodec(graph, seed=1)
    message = setup.message_generator(Random(1))
    assert message.get("request_body")
    wire = codec.serialize(message)
    decoder = StreamingDecoder(graph)
    assert decoder.feed(wire) == []
    assert decoder.needs_more and decoder.buffered == len(wire)
    decoded = decoder.feed_eof()
    assert [frame.raw for frame in decoded] == [wire]
    assert decoded[0].message == message


# ---------------------------------------------------------------------------
# self-framing analysis and record framing
# ---------------------------------------------------------------------------


def test_self_framing_analysis():
    http = registry.get("http")
    assert not is_self_framing(http.graph_factory())
    assert not is_self_framing(http.response_graph_factory())
    greedy = stream_greedy_nodes(http.graph_factory())
    assert "request_body" in greedy  # the END-bounded optional body
    for key in ("modbus", "dns", "mqtt"):
        setup = registry.get(key)
        assert is_self_framing(setup.graph_factory()), key


def test_resolve_framing_modes():
    http_graph = registry.get("http").graph_factory()
    modbus_graph = registry.get("modbus").graph_factory()
    assert resolve_framing(http_graph, "auto") == "record"
    assert resolve_framing(modbus_graph, "auto") == "native"
    assert resolve_framing(modbus_graph, "record") == "record"
    with pytest.raises(StreamError):
        resolve_framing(http_graph, "native")
    with pytest.raises(ValueError):
        resolve_framing(http_graph, "tunnel")


def test_record_decoder_round_trip():
    setup = registry.get("http")
    graph = setup.graph_factory()
    codec = WireCodec(graph, seed=1)
    rng = Random(12)
    wires = [codec.serialize(setup.message_generator(rng)) for _ in range(5)]
    stream = b"".join(encode_record(wire) for wire in wires)
    decoder = RecordDecoder(graph)
    decoded = []
    for chunk in random_chunks(stream, Random(55), max_chunk=7):
        decoded.extend(decoder.feed(chunk))
    decoded.extend(decoder.feed_eof())
    assert [frame.raw for frame in decoded] == wires
    assert [frame.message for frame in decoded] == [codec.parse(w) for w in wires]


def test_record_decoder_truncated_record_raises():
    graph = registry.get("http").graph_factory()
    decoder = RecordDecoder(graph)
    decoder.feed(encode_record(b"GET / HTTP/1.1\r\n\r\n")[:-3])
    with pytest.raises(StreamError):
        decoder.feed_eof()


def test_record_decoder_oversized_record_raises():
    graph = registry.get("http").graph_factory()
    decoder = RecordDecoder(graph)
    with pytest.raises(StreamError):
        decoder.feed((1 << 25).to_bytes(4, "big") + b"x" * 16)


# ---------------------------------------------------------------------------
# record framing through the compiled unit
# ---------------------------------------------------------------------------


def damaged_payloads(wire: bytes, rng: Random) -> list[bytes]:
    """``wire`` clean, truncated, bit-flipped, and a random byte string."""
    cut = wire[:rng.randrange(len(wire))]
    flipped = bytearray(wire)
    for _ in range(rng.randrange(1, 4)):
        flipped[rng.randrange(len(flipped))] ^= 1 << rng.randrange(8)
    noise = bytes(rng.randrange(256) for _ in range(rng.randrange(len(wire) + 8)))
    return [wire, cut, bytes(flipped), noise]


def describe_event(event) -> tuple:
    """A comparable view of a record-decoder event or its terminal error."""
    if isinstance(event, DecodedMessage):
        return ("message", event.message, event.raw, event.start, event.end)
    if isinstance(event, CorruptRecord):
        return ("corrupt", event.raw, event.start, event.end,
                *describe_event(event.error)[1:])
    return ("error", str(event), event.offset, event.node, event.message_index)


def reference_record_events(graph, payloads, *, resync: bool) -> list[tuple]:
    """The events of ``payloads`` framed as records, from ``Parser.parse``."""
    parser = Parser(graph)
    events, offset, decoded = [], 0, 0
    for payload in payloads:
        start, offset = offset, offset + len(payload)
        try:
            message = parser.parse(payload, strict=True)
        except ParseError as exc:
            error = StreamError(f"undecodable record payload: {exc}",
                                message_index=decoded)
            error.offset, error.node = exc.offset, exc.node
            if not resync:
                events.append(describe_event(error))
                break
            events.append(describe_event(
                CorruptRecord(raw=payload, start=start, end=offset, error=error)))
            continue
        events.append(("message", message, payload, start, offset))
        decoded += 1
    return events


@pytest.mark.parametrize("passes", [0, 1, 2, 3, 4])
@pytest.mark.parametrize("resync", [False, True])
def test_record_decoder_matches_the_reference_parser(protocol_case, passes, resync):
    """Clean and damaged records decode exactly as ``Parser.parse`` decides.

    Messages, and the text, offset and node of every ``StreamError`` or
    ``CorruptRecord``, equal those built from the reference parser, whichever
    tier answered.  Each record is fed in random chunks of its own, so a
    failing record's feed completes nothing else.
    """
    name, graph_factory, generator = protocol_case
    graph = graph_factory()
    if passes:
        graph = Obfuscator(seed=700 + passes).obfuscate(graph, passes).graph
    codec = WireCodec(graph, seed=5)
    rng = Random(f"record-parity-{name}-{passes}")
    payloads = [variant for _ in range(3)
                for variant in damaged_payloads(codec.serialize(generator(rng)), rng)]
    decoder = RecordDecoder(graph, resync=resync)
    events = []
    try:
        for payload in payloads:
            for chunk in random_chunks(encode_record(payload), rng):
                events.extend(decoder.feed(chunk))
        events.extend(decoder.feed_eof())
    except StreamError as exc:
        events.append(exc)
    assert ([describe_event(event) for event in events]
            == reference_record_events(graph, payloads, resync=resync))


def record_rotation_stream(protocol: str):
    """Two keys of ``protocol`` and a record stream switching between them.

    Returns the keys, a key resolver, the stream's records under the first
    key, the rotation control record, the records under the second key, and
    the six messages the records carry.
    """
    setup = registry.get(protocol)
    keys = [derive_session_key(protocol, passes=2, seed=seed) for seed in (40, 41)]
    rng = Random(3)
    records, expected = [], []
    for index, key in enumerate(keys):
        codec = WireCodec(key.request_graph, seed=index)
        wires = [codec.serialize(setup.message_generator(rng)) for _ in range(3)]
        records.append(b"".join(encode_record(wire) for wire in wires))
        expected.extend(codec.parse(wire) for wire in wires)
    resolver = {key.key_id: key.request_graph for key in keys}.__getitem__
    return (*keys, resolver, records[0], encode_rotation(keys[1].key_id),
            records[1], expected)


def test_clean_records_decode_without_the_reference_parser(monkeypatch):
    """Across an inbound rotation, clean records never reach Parser.parse."""
    first, second, resolver, head, rotation, tail, expected = (
        record_rotation_stream("http"))
    decoder = RecordDecoder(first.request_graph, key_resolver=resolver)
    calls = []
    reference = Parser.parse

    def counting(self, data, *, strict=True):
        calls.append(len(data))
        return reference(self, data, strict=strict)

    monkeypatch.setattr(Parser, "parse", counting)
    events = []
    for chunk in random_chunks(head + rotation + tail, Random(8), max_chunk=17):
        events.extend(decoder.feed(chunk))
    events.extend(decoder.feed_eof())
    assert [event.message for event in events
            if isinstance(event, DecodedMessage)] == expected
    assert RotationEvent(second.key_id) in events
    assert calls == []


def test_the_rotated_to_unit_answers(monkeypatch):
    """After a rotation, records are parsed by the new dialect's unit."""
    first, second, resolver, head, rotation, tail, expected = (
        record_rotation_stream("dns"))
    unit = cached_module(second.request_graph, parse_only=True)
    answered = []
    compiled = unit.parse

    def counting(data, strict=True):
        answered.append(len(data))
        return compiled(data, strict)

    monkeypatch.setattr(unit, "parse", counting)
    # An inbound rotation control record ...
    decoder = RecordDecoder(first.request_graph, key_resolver=resolver)
    events = decoder.feed(head + rotation + tail) + decoder.feed_eof()
    assert [type(event) for event in events] == [DecodedMessage] * 3 + [
        RotationEvent] + [DecodedMessage] * 3
    assert [event.message for event in events[4:]] == expected[3:]
    assert len(answered) == 3
    # ... and a local rotate_to both load the rotated-to graph's unit.
    local = RecordDecoder(first.request_graph)
    local.rotate_to(second.request_graph, key_id=second.key_id)
    assert [event.message for event in local.feed(tail)] == expected[3:]
    assert len(answered) == 6
