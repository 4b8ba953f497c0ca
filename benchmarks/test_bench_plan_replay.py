"""Plan replay suite — replay-vs-re-derive speedup and rotation throughput.

Two measurements of PR 5's plan layer, written to ``.bench_out/BENCH_PR5.json``:

* **replay speedup** — ``ExperimentRunner.run_level`` in engine mode (every
  run re-draws and re-validates an obfuscation with the engine) vs replay
  mode (``reuse_plan=True``: the level's plan is drawn once and every run
  deterministically replays it).  Replay skips the applicability scans, the
  RNG, the per-step graph validation and the per-run codec-plan compilation
  (replayed graphs share one fingerprint-keyed compiled plan), which is the
  experiment-harness payoff of plans being first-class artifacts.
* **rotation throughput** — messages/sec of an in-process obfuscated session
  that rotates through a 4-key plan book mid-stream, versus the same session
  pinned to its initial key: the cost of changing the shared secret while
  traffic flows.

Set ``BENCH_QUICK=1`` for the reduced CI smoke configuration.  Acceptance:
replay mode is no slower than engine mode on every protocol (geomean
speedup >= the configured floor) and every rotated session completes with
zero errors across >= 3 rotations.
"""

from __future__ import annotations

import asyncio
import math
import os
import platform
import sys
import time
from random import Random

from bench_output import BENCH_OUT, write_report

from repro.experiments import ExperimentRunner
from repro.net import ObfuscatedClient, ObfuscatedServer, PlanBook, connect_memory, derive_session_key
from repro.protocols import mqtt, registry

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")

#: obfuscation level and runs per level of the runner comparison.
PASSES = 2
RUNS_PER_LEVEL = 4 if QUICK else 8
MESSAGES_PER_RUN = 4 if QUICK else 10

#: rotation throughput configuration.
ROTATIONS = 3
REQUESTS_PER_KEY = 8 if QUICK else 48

#: geomean replay speedup gate.  Replay removes engine work but keeps
#: codegen + measurement, so the floor is deliberately conservative (CI
#: machines are noisy); the dev-machine figure is reported in the JSON.
SPEEDUP_FLOOR = 1.0 if QUICK else 1.05

OUTPUT = BENCH_OUT / "BENCH_PR5.json"

_MQTT_REPLYING = (mqtt.PUBLISH_QOS0, mqtt.PUBLISH_QOS1, mqtt.PINGREQ)


def _request_message(key: str, rng: Random):
    if key == "mqtt":
        return mqtt.random_packet(rng, packet_type=rng.choice(_MQTT_REPLYING))
    return registry.get(key).message_generator(rng)


def _time_run_level(runner: ExperimentRunner) -> float:
    start = time.perf_counter()
    runner.run_level(PASSES)
    return time.perf_counter() - start


def _replay_cell(key: str) -> dict:
    engine = ExperimentRunner(key, seed=7, runs_per_level=RUNS_PER_LEVEL,
                              messages_per_run=MESSAGES_PER_RUN)
    replay = ExperimentRunner(key, seed=7, runs_per_level=RUNS_PER_LEVEL,
                              messages_per_run=MESSAGES_PER_RUN, reuse_plan=True)
    # Warm the shared reference measurements so both modes pay them equally.
    engine.reference_potency()
    replay._reference = engine._reference
    engine_s = _time_run_level(engine)
    replay_s = _time_run_level(replay)
    return {
        "protocol": key,
        "passes": PASSES,
        "runs_per_level": RUNS_PER_LEVEL,
        "engine_s": round(engine_s, 4),
        "replay_s": round(replay_s, 4),
        "speedup": round(engine_s / replay_s, 3),
    }


async def _rotation_cell(key: str, *, rotate: bool) -> dict:
    keys = [derive_session_key(key, passes=1, seed=seed)
            for seed in (10, 20, 30, 40)]
    server = ObfuscatedServer(key, plan_book=PlanBook(keys))
    client = connect_memory(
        ObfuscatedClient(key, plan_book=PlanBook(keys)), server)
    rng = Random(1)
    messages = 0
    start = time.perf_counter()
    for index, session_key in enumerate(keys):
        if rotate and index:
            await client.rotate(session_key.key_id)
        for _ in range(REQUESTS_PER_KEY):
            await client.send(_request_message(key, rng))
            reply = await client.receive()
            assert reply is not None, f"{key}: server closed mid-session"
            messages += 2
    elapsed = time.perf_counter() - start
    await client.close()
    stats = server.completed[0]
    assert stats.error is None, f"{key}: {stats.error}"
    assert stats.rotations == (ROTATIONS if rotate else 0)
    return {
        "protocol": key,
        "rotations": stats.rotations,
        "messages": messages,
        "elapsed_s": round(elapsed, 4),
        "msgs_per_sec": round(messages / elapsed, 1),
    }


def test_plan_replay_suite():
    replay_cells = [_replay_cell(key) for key in registry.available()]
    rotation_cells = []
    for key in registry.available():
        pinned = asyncio.run(_rotation_cell(key, rotate=False))
        rotated = asyncio.run(_rotation_cell(key, rotate=True))
        rotation_cells.append({
            "protocol": key,
            "pinned_msgs_per_sec": pinned["msgs_per_sec"],
            "rotated_msgs_per_sec": rotated["msgs_per_sec"],
            "rotations": rotated["rotations"],
            "messages": rotated["messages"],
            "rotation_overhead": round(
                pinned["msgs_per_sec"] / rotated["msgs_per_sec"], 3),
        })

    geomean = math.exp(sum(math.log(cell["speedup"]) for cell in replay_cells)
                       / len(replay_cells))

    report = {
        "meta": {
            "benchmark": "obfuscation-plan replay vs engine + rotation throughput",
            "quick": QUICK,
            "passes": PASSES,
            "runs_per_level": RUNS_PER_LEVEL,
            "messages_per_run": MESSAGES_PER_RUN,
            "requests_per_key": REQUESTS_PER_KEY,
            "speedup_floor": SPEEDUP_FLOOR,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "notes": (
                "speedup = wall-clock of ExperimentRunner.run_level in engine "
                "mode over replay mode (reuse_plan=True), identical runs-per-"
                "level and workload; rotation throughput counts both "
                "directions over the in-process transport, 4-key plan book, "
                "3 mid-stream rotations"
            ),
        },
        "replay": replay_cells,
        "replay_speedup_geomean": round(geomean, 3),
        "rotation": rotation_cells,
    }
    write_report(OUTPUT, report)

    print()
    print(f"{'protocol':<8} {'engine_s':>9} {'replay_s':>9} {'speedup':>8}")
    for cell in replay_cells:
        print(f"{cell['protocol']:<8} {cell['engine_s']:>9.3f} "
              f"{cell['replay_s']:>9.3f} {cell['speedup']:>8.2f}")
    print(f"geomean replay speedup: {geomean:.2f}x")
    print(f"{'protocol':<8} {'pinned msg/s':>13} {'rotated msg/s':>14}")
    for cell in rotation_cells:
        print(f"{cell['protocol']:<8} {cell['pinned_msgs_per_sec']:>13.0f} "
              f"{cell['rotated_msgs_per_sec']:>14.0f}")
    print(f"report written to {OUTPUT}")

    assert geomean >= SPEEDUP_FLOOR, (
        f"replay geomean speedup {geomean:.2f}x under the "
        f"{SPEEDUP_FLOOR}x floor"
    )
    for cell in rotation_cells:
        assert cell["rotations"] == ROTATIONS
