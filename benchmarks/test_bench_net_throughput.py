"""Net throughput suite — async obfuscated sessions at scale.

Measures end-to-end message throughput of the live transport layer: an
:class:`~repro.net.ObfuscatedServer` drives the protocol's core-application
responder over the in-process duplex transport (the same session coroutines
as TCP, minus the kernel) while 1, 32 and 256 concurrent client sessions pump
request/response traffic.  Every registry protocol is measured; messages/sec
counts both directions, bytes/sec counts wire payload bytes.

The in-process transport is used deliberately: it scales to hundreds of
sessions without file-descriptor limits and measures the framework (framing,
incremental decoding, serialization, capture-free session loop) rather than
the kernel's TCP stack.

Results are written to ``.bench_out/BENCH_PR4.json``.  Set
``BENCH_QUICK=1`` for the reduced CI smoke configuration.  Acceptance: the
256-session cell completes for every protocol with zero session errors.
"""

from __future__ import annotations

import asyncio
import os
import platform
import sys
import time
from random import Random

from bench_output import BENCH_OUT, write_report

from repro.net import ObfuscatedClient, ObfuscatedServer, connect_memory
from repro.protocols import mqtt, registry

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")

#: concurrent sessions per cell; the acceptance gate requires the 256 cell.
SESSION_COUNTS = (1, 32, 256)
#: requests sent per session, keyed by session count.
REQUESTS_PER_SESSION = (
    {1: 8, 32: 2, 256: 2} if QUICK else {1: 64, 32: 16, 256: 4}
)

OUTPUT = BENCH_OUT / "BENCH_PR4.json"

#: MQTT packet families that elicit a broker reply (CONNECT is absorbed, so
#: the benchmark's request() accounting stays uniform across protocols).
_MQTT_REPLYING = (mqtt.PUBLISH_QOS0, mqtt.PUBLISH_QOS1, mqtt.PINGREQ)


def _request_message(key: str, rng: Random):
    if key == "mqtt":
        return mqtt.random_packet(rng, packet_type=rng.choice(_MQTT_REPLYING))
    return registry.get(key).message_generator(rng)


async def _run_cell(key: str, sessions: int, requests: int) -> dict:
    server = ObfuscatedServer(key)

    async def one_session(index: int) -> tuple[int, int]:
        client = connect_memory(
            ObfuscatedClient(key, session_id=f"bench-{index}"), server)
        rng = Random(index * 9973 + sessions)
        messages = bytes_moved = 0
        for _ in range(requests):
            payload = await client.send(_request_message(key, rng))
            reply = await client.receive()
            assert reply is not None, f"{key}: server closed mid-session"
            messages += 2
            bytes_moved += len(payload) + len(reply.raw)
        await client.close()
        return messages, bytes_moved

    start = time.perf_counter()
    totals = await asyncio.gather(*(one_session(index)
                                    for index in range(sessions)))
    elapsed = time.perf_counter() - start

    errors = [stats.error for stats in server.completed if stats.error]
    assert not errors, f"{key} x {sessions} sessions: {errors[:3]}"
    assert len(server.completed) == sessions

    messages = sum(cell[0] for cell in totals)
    bytes_moved = sum(cell[1] for cell in totals)
    return {
        "protocol": key,
        "sessions": sessions,
        "requests_per_session": requests,
        "messages": messages,
        "bytes": bytes_moved,
        "framing": server.endpoint.request_framing,
        "elapsed_s": round(elapsed, 4),
        "msgs_per_sec": round(messages / elapsed, 1),
        "bytes_per_sec": round(bytes_moved / elapsed, 1),
        "session_errors": 0,
    }


def test_net_throughput_suite():
    cells = []
    for key in registry.available():
        for sessions in SESSION_COUNTS:
            cell = asyncio.run(
                _run_cell(key, sessions, REQUESTS_PER_SESSION[sessions]))
            cells.append(cell)

    protocols = {
        key: {
            "msgs_per_sec_by_sessions": {
                str(cell["sessions"]): cell["msgs_per_sec"]
                for cell in cells if cell["protocol"] == key
            },
            "framing": next(cell["framing"] for cell in cells
                            if cell["protocol"] == key),
        }
        for key in registry.available()
    }

    report = {
        "meta": {
            "benchmark": "async session throughput (in-process duplex transport)",
            "quick": QUICK,
            "session_counts": list(SESSION_COUNTS),
            "requests_per_session": {str(count): REQUESTS_PER_SESSION[count]
                                     for count in SESSION_COUNTS},
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "notes": (
                "msgs/sec counts both directions; bytes are wire payloads "
                "(record-framing envelopes excluded); every session runs the "
                "full client+server coroutine pair in one event loop"
            ),
        },
        "cells": cells,
        "protocols": protocols,
    }
    write_report(OUTPUT, report)

    print()
    print(f"{'protocol':<8} {'sessions':>8} {'framing':>8} {'msgs':>7} "
          f"{'msg/s':>10} {'MB/s':>8}")
    for cell in cells:
        print(f"{cell['protocol']:<8} {cell['sessions']:>8} {cell['framing']:>8} "
              f"{cell['messages']:>7} {cell['msgs_per_sec']:>10.0f} "
              f"{cell['bytes_per_sec'] / 1e6:>8.2f}")
    print(f"report written to {OUTPUT}")

    # Acceptance: >= 256 concurrent sessions complete without error on every
    # registry protocol (asserted inside _run_cell; re-checked here).
    for key in registry.available():
        top = [cell for cell in cells
               if cell["protocol"] == key and cell["sessions"] == 256]
        assert top and top[0]["session_errors"] == 0, key
        assert top[0]["messages"] == 256 * REQUESTS_PER_SESSION[256] * 2
