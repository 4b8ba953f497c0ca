"""Resilience-at-scale suite — inference throughput of the fast PRE engine.

Measures end-to-end format inference (similarity matrix + clustering + field
delimitation) over large captured traces for every registered protocol, in
two execution modes:

* **old** — the vendored snapshot of the pre-PR3 quadratic engine
  (``legacy_pre.py``): full-matrix Needleman–Wunsch with traceback for every
  message pair, all-pairs rescan agglomeration, per-pair realignment in the
  field delimitation.  This is the baseline of the ISSUE's ">= 3x geomean on
  >= 64-message traces" acceptance criterion;
* **new** — the current engine: banded/vectorized score-only alignment with
  exact traceback statistics, message dedup + pair memoization, and
  heap-driven agglomeration (each pair's linkage computed once, in the naive
  summation order).  Results are asserted bit-identical to the old engine on
  every benchmarked trace.

On top of the throughput cells, the suite runs the generalized resilience
experiment (:func:`repro.experiments.run_resilience`) end-to-end for every
protocol and records its wall-clock, plain-trace inference quality and
1-pass degradation.

Results are written to ``.bench_out/BENCH_PR3.json``.  Set
``BENCH_QUICK=1`` to run the reduced CI smoke configuration.  The full 3x
gate assumes numpy (the vectorized batch engine); without it the exact
pure-python fallback runs and only the no-regression floor applies.
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
from legacy_pre import legacy_infer_formats  # noqa: E402

from repro.experiments import run_resilience
from repro.pre import clear_similarity_cache, infer_formats
from repro.pre.alignment import _np as _numpy
from repro.protocols import registry
from repro.transforms.engine import Obfuscator
from repro.wire import WireCodec

QUICK = os.environ.get("BENCH_QUICK", "").lower() not in ("", "0", "false")
#: captured messages per trace; the acceptance gate requires >= 64.
TRACE_SIZE = 24 if QUICK else 64
#: obfuscation levels (transformations per node) measured per protocol.
LEVELS = (0,) if QUICK else (0, 1)
#: timing rounds per mode; the best round is kept (standard minimum-timing).
ROUNDS = 2
#: resilience end-to-end trace size (kept small: it runs 1 + len(levels)
#: inferences per protocol).
RESILIENCE_TRACE = 16 if QUICK else 32

#: The strict 3x acceptance gate applies to full local runs with numpy; the
#: quick smoke configuration, shared CI runners and numpy-less environments
#: (where the exact pure-python fallback engine runs) use a no-regression
#: floor — the real numbers are always recorded in BENCH_PR3.json either way.
RELAXED = (QUICK or _numpy is None
           or os.environ.get("CI", "").lower() not in ("", "0", "false"))
SPEEDUP_FLOOR = 0.85 if RELAXED else 3.0
CELL_FLOOR = 0.7 if RELAXED else 1.5

OUTPUT = BENCH_OUT / "BENCH_PR3.json"


def _build_trace(key: str, level: int, *, seed: int = 0) -> list[bytes]:
    """A TRACE_SIZE-message capture of one protocol at one obfuscation level."""
    setup = registry.get(key)
    rng = Random(seed)
    directions = list(setup.directions())
    codecs = {}
    for direction, factory, _ in directions:
        graph = factory()
        if level:
            graph = Obfuscator(seed=seed).obfuscate(graph, level).graph
        codecs[direction] = WireCodec(graph, seed=seed)
    trace = []
    for index in range(TRACE_SIZE):
        direction, _, generator = directions[index % len(directions)]
        trace.append(codecs[direction].serialize(generator(rng)))
    return trace


def _measure_cell(trace: list[bytes]) -> tuple[float, float]:
    """(old, new) seconds for one full inference over ``trace`` (best round)."""

    def old_pass():
        return legacy_infer_formats(trace)

    def new_pass():
        # Cold memo per round: the suite measures the engine, not the cache.
        clear_similarity_cache()
        return infer_formats(trace)

    old_result = old_pass()  # warm-up + equivalence reference
    new_result = new_pass()
    assert old_result.clustering.clusters == new_result.clustering.clusters, \
        "new engine produced different clusters than the vendored old engine"
    for index in range(len(trace)):
        assert (old_result.boundaries_for(index)
                == new_result.boundaries_for(index)), \
            f"new engine produced different boundaries for message {index}"

    best = [float("inf"), float("inf")]
    for _ in range(ROUNDS):
        for position, one_pass in enumerate((old_pass, new_pass)):
            start = time.perf_counter()
            one_pass()
            best[position] = min(best[position], time.perf_counter() - start)
    return best[0], best[1]


def test_resilience_scale_suite():
    cells = []
    for key in registry.available():
        for level in LEVELS:
            trace = _build_trace(key, level)
            old_s, new_s = _measure_cell(trace)
            cells.append(
                {
                    "protocol": key,
                    "level": level,
                    "messages": len(trace),
                    "avg_message_bytes": round(sum(map(len, trace)) / len(trace), 1),
                    "old_s": round(old_s, 4),
                    "new_s": round(new_s, 4),
                    "old_msgs_per_sec": round(len(trace) / old_s, 1),
                    "new_msgs_per_sec": round(len(trace) / new_s, 1),
                    "speedup": round(old_s / new_s, 3),
                }
            )

    protocols = {}
    for key in registry.available():
        speedups = [cell["speedup"] for cell in cells if cell["protocol"] == key]
        protocols[key] = {
            "speedup_geomean": round(
                math.exp(sum(math.log(s) for s in speedups) / len(speedups)), 3
            ),
            "new_msgs_per_sec_by_level": {
                str(cell["level"]): cell["new_msgs_per_sec"]
                for cell in cells if cell["protocol"] == key
            },
        }
    overall = round(
        math.exp(sum(math.log(p["speedup_geomean"]) for p in protocols.values())
                 / len(protocols)), 3
    )

    resilience = {}
    for key in registry.available():
        start = time.perf_counter()
        report = run_resilience(protocol=key, passes_levels=(1,), seed=0,
                                trace_size=RESILIENCE_TRACE)
        wall = time.perf_counter() - start
        resilience[key] = {
            "wall_clock_s": round(wall, 3),
            "trace_messages": RESILIENCE_TRACE,
            "plain_boundary_f1": round(report.plain.boundary_f1, 4),
            "plain_purity": round(report.plain.classification_purity, 4),
            "degradation_1_pass": round(report.degradation(1), 4),
        }

    report = {
        "meta": {
            "benchmark": "PRE inference throughput (full trace inference)",
            "quick": QUICK,
            "trace_size": TRACE_SIZE,
            "levels": list(LEVELS),
            "rounds": ROUNDS,
            "numpy": None if _numpy is None else _numpy.__version__,
            "python": sys.version.split()[0],
            "platform": platform.platform(),
            "baseline": (
                "old = vendored snapshot of the pre-PR3 quadratic PRE engine "
                "(benchmarks/legacy_pre.py): full-matrix Needleman-Wunsch "
                "with traceback per pair, all-pairs rescan agglomeration; "
                "new = banded/vectorized score-only alignment + dedup/memo "
                "similarity matrix + heap-driven agglomeration, "
                "asserted bit-identical on every benchmarked trace"
            ),
        },
        "cells": cells,
        "protocols": protocols,
        "overall_speedup_geomean": overall,
        "resilience_end_to_end": resilience,
    }
    write_report(OUTPUT, report)

    print()
    print(f"{'protocol':<8} {'level':>5} {'bytes':>6} {'old msg/s':>10} "
          f"{'new msg/s':>10} {'speedup':>8}")
    for cell in cells:
        print(
            f"{cell['protocol']:<8} {cell['level']:>5} "
            f"{cell['avg_message_bytes']:>6.0f} "
            f"{cell['old_msgs_per_sec']:>10.0f} "
            f"{cell['new_msgs_per_sec']:>10.0f} "
            f"{cell['speedup']:>7.2f}x"
        )
    print(f"overall speedup geomean: {overall:.2f}x")
    for key, entry in resilience.items():
        print(f"resilience {key:<7} wall={entry['wall_clock_s']:>6.2f}s "
              f"plain F1={entry['plain_boundary_f1']:.3f} "
              f"degradation(1)={entry['degradation_1_pass']:+.0%}")
    print(f"report written to {OUTPUT}")

    # Acceptance: >= 3x geometric-mean inference speedup over the vendored
    # pre-PR3 engine for every protocol (relaxed floor under BENCH_QUICK /
    # CI / numpy-less runs, see RELAXED above), and no per-cell regression.
    for key, entry in protocols.items():
        assert entry["speedup_geomean"] >= SPEEDUP_FLOOR, (
            f"{key}: inference speedup {entry['speedup_geomean']} below the "
            f"{SPEEDUP_FLOOR}x floor"
        )
    for cell in cells:
        assert cell["speedup"] > CELL_FLOOR, cell
    # The generalized resilience experiment must complete for every protocol.
    assert set(resilience) == set(registry.available())
