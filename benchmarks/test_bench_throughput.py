"""Throughput suite — messages/sec of the plan-backed wire runtime.

Measures parse+serialize throughput for every registered protocol at several
obfuscation levels, in three execution modes:

* **seed** — the vendored snapshot of the seed revision's runtime
  (``legacy_wire.py``): a fresh pre-plan ``Serializer``/``Parser`` per
  message, exactly the execution model this PR replaces.  This is the
  baseline of the ISSUE's ">= 2x over the seed interpreted path" acceptance
  criterion;
* **uncached** — the current runtime with the plan cache invalidated before
  every call, i.e. a full plan recompile per message.  Reported for the
  cache's own value; note it does strictly more per-call work than the seed
  runtime, so speedups against it are larger than against ``seed``;
* **planned** — the graph is compiled once into a cached
  :class:`~repro.wire.plan.CodecPlan` and every message executes against it
  (the compile-once/execute-many discipline of the paper's generated parsers).

Results are written to ``.bench_out/BENCH_PR2.json`` so that the
performance trajectory of the project is machine-readable.  Set
``BENCH_QUICK=1`` to run the reduced CI smoke configuration.
"""

from __future__ import annotations

import math
import os
import platform
import sys
import time
from pathlib import Path
from random import Random

sys.path.insert(0, str(Path(__file__).resolve().parent))
from bench_output import BENCH_OUT, write_report  # noqa: E402
from legacy_wire import LegacyParser, LegacySerializer  # noqa: E402

from repro.protocols import registry
from repro.transforms.engine import Obfuscator
from repro.wire import parse, serialize
from repro.wire.plan import invalidate

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")
#: obfuscation levels (transformations per node) measured per protocol.
LEVELS = (0, 2) if QUICK else (0, 1, 2, 3, 4)
#: random messages measured per (protocol, level) cell.
MESSAGES = 8 if QUICK else 20
#: timing rounds per mode; the best round is kept (standard minimum-timing).
ROUNDS = 3 if QUICK else 5
#: Floors asserted for the paper's two case-study protocols (geomean) and for
#: every cell.  The strict 2x acceptance gate applies to full local runs; the
#: quick smoke configuration and shared CI runners use generous floors so
#: that host load noise cannot fail an unrelated build — the real numbers are
#: always recorded in BENCH_PR2.json either way.
RELAXED = QUICK or os.environ.get("CI", "").lower() not in ("", "0", "false")
SPEEDUP_FLOOR = 1.3 if RELAXED else 2.0
CELL_FLOOR = 0.7 if RELAXED else 1.0

OUTPUT = BENCH_OUT / "BENCH_PR2.json"


def _measure_cell(graph, messages) -> tuple[float, float, float]:
    """(seed, uncached, planned) messages/sec for one protocol × level cell.

    The three modes are timed in interleaved rounds (seed, uncached, planned,
    seed, ...) and the best round per mode is kept, so a transient load spike
    on the host penalizes all modes alike instead of skewing one ratio.
    """

    def seed_pass():
        # Fresh legacy codec per message: the seed's module-level wrappers
        # constructed (and graph-scanned) a new Serializer/Parser per call.
        for index, message in enumerate(messages):
            data = LegacySerializer(graph, rng=Random(index)).serialize(message)
            LegacyParser(graph).parse(data)

    def planned_pass():
        for index, message in enumerate(messages):
            data = serialize(graph, message, rng=Random(index))
            parse(graph, data)

    def uncached_pass():
        for index, message in enumerate(messages):
            invalidate(graph)
            data = serialize(graph, message, rng=Random(index))
            invalidate(graph)
            parse(graph, data)

    passes = (seed_pass, uncached_pass, planned_pass)
    planned_pass()  # warm-up: compiles the plan, touches every code path
    seed_pass()     # warm-up: legacy code paths and message shapes
    best = [0.0, 0.0, 0.0]
    count = len(messages)
    for _ in range(ROUNDS):
        for position, one_pass in enumerate(passes):
            start = time.perf_counter()
            one_pass()
            elapsed = time.perf_counter() - start
            if elapsed > 0:
                best[position] = max(best[position], count / elapsed)
    return best[0], best[1], best[2]


def test_throughput_suite():
    cells = []
    for key in registry.available():
        setup = registry.get(key)
        for level in LEVELS:
            graph = setup.reference_graph()
            if level:
                graph = Obfuscator(seed=11).obfuscate(graph, level).graph
            messages = [
                setup.message_generator(Random(100 + index)) for index in range(MESSAGES)
            ]
            seed, uncached, planned = _measure_cell(graph, messages)
            cells.append(
                {
                    "protocol": key,
                    "level": level,
                    "seed_msgs_per_sec": round(seed, 1),
                    "uncached_msgs_per_sec": round(uncached, 1),
                    "planned_msgs_per_sec": round(planned, 1),
                    "speedup_vs_seed": round(planned / seed, 3) if seed else None,
                    "speedup_vs_uncached": (
                        round(planned / uncached, 3) if uncached else None
                    ),
                }
            )

    protocols = {}
    for key in registry.available():
        speedups = [cell["speedup_vs_seed"] for cell in cells
                    if cell["protocol"] == key and cell["speedup_vs_seed"]]
        protocols[key] = {
            "speedup_vs_seed_geomean": round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 3
            ),
            "planned_msgs_per_sec_by_level": {
                str(cell["level"]): cell["planned_msgs_per_sec"]
                for cell in cells if cell["protocol"] == key
            },
        }

    report = {
        "meta": {
            "benchmark": "wire runtime throughput (parse+serialize round trip)",
            "quick": QUICK,
            "levels": list(LEVELS),
            "messages_per_cell": MESSAGES,
            "rounds": ROUNDS,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "baseline": (
                "seed = vendored snapshot of the seed revision's pre-plan "
                "runtime (benchmarks/legacy_wire.py), fresh codec per "
                "message; uncached = current runtime with the plan cache "
                "invalidated per call (full recompile, heavier than seed); "
                "planned = cached compiled codec plan"
            ),
        },
        "cells": cells,
        "protocols": protocols,
    }
    write_report(OUTPUT, report)

    print()
    print(f"{'protocol':<8} {'level':>5} {'seed':>10} {'uncached':>10} "
          f"{'planned':>10} {'vs seed':>8}")
    for cell in cells:
        print(
            f"{cell['protocol']:<8} {cell['level']:>5} "
            f"{cell['seed_msgs_per_sec']:>10.0f} "
            f"{cell['uncached_msgs_per_sec']:>10.0f} "
            f"{cell['planned_msgs_per_sec']:>10.0f} "
            f"{cell['speedup_vs_seed']:>7.2f}x"
        )
    print(f"report written to {OUTPUT}")

    # Acceptance: the paper's two case-study protocols must sustain at least
    # a 2x throughput gain over the seed revision's interpreted path (relaxed
    # floor under BENCH_QUICK / CI, see RELAXED above).
    for key in ("http", "modbus"):
        assert protocols[key]["speedup_vs_seed_geomean"] >= SPEEDUP_FLOOR, (
            f"{key}: plan speedup {protocols[key]['speedup_vs_seed_geomean']} "
            f"below the {SPEEDUP_FLOOR}x floor"
        )
    # Every protocol must at least not regress vs the seed runtime.
    for cell in cells:
        assert cell["speedup_vs_seed"] is None or cell["speedup_vs_seed"] > CELL_FLOOR, cell
