"""Repo benchmark: live obfuscated-session round trips, one workload per run.

Usage (from the repository root)::

    python3 perfbench/run.py --workload modbus_pingpong --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --self-test

``--trace 0`` measures the end-to-end metrics with no instrumentation on the
timed path.  ``--trace 1`` is the separate traced run: it alternates traced
and untraced blocks, attributes every traced round trip to the layers that did
the work, reconciles the layer self times with the round trip's wall time,
and replays the run's messages through both codec tiers.  The metric names,
units and directions are those of ``BENCHMARK.json``; the predicted
layer-to-metric interactions, including the cells that must make zero calls,
are in ``perfbench/interactions.json``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
print every metric by name with its unit, the failure ratio, the rtt sample
count and the wire digest.  A full report (and, for traced runs, every span)
is written under ``.perfbench_out/`` in the repository root.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import math
import resource
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench_out"

PROTOCOLS = ("coap", "dns", "http", "modbus", "mqtt")
LEVELS = (1, 2, 3, 4)

#: Per-round-trip stage metrics: (layer, also copied per protocol).
STAGES = (
    ("protocols.build", True),
    ("protocols.respond", True),
    ("wire.serialize", True),
    ("wire.streaming.feed", False),
    ("net.framing.record_feed", True),
    ("net.framing.frame", False),
    ("net.transport", True),
    ("net.session.unattributed", True),
    ("net.capture.record", True),
)
SETUP_LAYERS = ("transforms.obfuscate", "transforms.replay", "wire.plan.compile")
CODEC_STAGES = (
    ("wire.interp_parse_us", "interp_parse"),
    ("wire.interp_serialize_us", "interp_serialize"),
    ("codegen.specialized_parse_us", "specialized_parse"),
    ("codegen.specialized_serialize_us", "specialized_serialize"),
)
CALL_COUNTS = (
    ("wire.streaming.feed_calls", "wire.streaming.feed"),
    ("net.framing.record_feed_calls", "net.framing.record_feed"),
    ("net.capture.record_calls", "net.capture.record"),
    ("net.rotation.rotate_calls", "net.rotation.rotate"),
)


def end_to_end(result) -> dict[str, float]:
    samples = sorted(result.rtt_ns)
    p99 = samples[max(0, math.ceil(0.99 * len(samples)) - 1)]
    return {
        "rtt_p50_us": statistics.median(samples) / 1e3,
        "rtt_p99_us": p99 / 1e3,
        "req_per_s": len(samples) / result.timed_s,
        "setup_s": statistics.median(result.setup_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(result, summary, codecs, cache) -> dict[str, float]:
    rids = summary.requests()
    metrics = {f"{layer}_us": summary.per_round_trip_us(layer, rids)
               for layer, _ in STAGES}
    rotations = summary.rotate_ns
    metrics["net.rotation.rotate_us"] = (
        sum(rotations) / len(rotations) / 1e3 if rotations else 0.0)
    metrics["net.rotation.first_rtt_us"] = summary.mean_round_trip_us(
        [rid for rid in rids if rid in summary.after_rotation])
    for layer in SETUP_LAYERS:
        metrics[f"{layer}_s"] = summary.setup_median_s(layer, result.setup_ids)
    decoded = summary.results.get("wire.streaming.feed", 0)
    feeds = summary.calls.get("wire.streaming.feed", 0)
    lookups = sum(cache[f"{level}_{outcome}"]
                  for level in ("identity", "fingerprint")
                  for outcome in ("hits", "misses"))
    hits = cache["identity_hits"] + cache["fingerprint_hits"]
    wall = sum(summary.round_trip_ns[rid] for rid in rids)
    unattributed = sum(summary.self_ns.get((rid, "net.session.unattributed"), 0)
                       for rid in rids)
    metrics.update({
        "wire.streaming.feeds_per_msg": feeds / decoded if decoded else 0.0,
        "wire.bytes_per_req": _ratio(result.bytes_sent, result.messages_sent),
        "wire.bytes_per_resp": _ratio(result.bytes_received,
                                      result.messages_received),
        "wire.plan.cache_hit_ratio": _ratio(hits, lookups),
        "wire.plan.cache_lookups": lookups,
        "net.session.peak_buffered": result.peak_buffered,
        "codegen.compile_s": _ratio(codecs.compile_s, codecs.compiles),
        "trace.attributed_share": 1 - _ratio(unattributed, wall),
        "trace.overhead_ratio": _ratio(
            _ratio(result.traced_round_trips, result.traced_s),
            _ratio(result.untraced_round_trips, result.untraced_s)),
        "trace.rtt_us": summary.mean_round_trip_us(rids),
        "trace.round_trips": len(rids),
    })
    for name, stage in CODEC_STAGES:
        metrics[name] = codecs.per_message_us("all", stage)
    for name, layer in CALL_COUNTS:
        metrics[name] = summary.calls.get(layer, 0)
    for protocol in PROTOCOLS:
        ours = summary.requests(protocol)
        for layer, copied in STAGES:
            if copied:
                metrics[f"{layer}_us.{protocol}"] = summary.per_round_trip_us(
                    layer, ours)
        metrics[f"trace.rtt_us.{protocol}"] = summary.mean_round_trip_us(ours)
        for name, stage in CODEC_STAGES:
            metrics[f"{name}.{protocol}"] = codecs.per_message_us(protocol, stage)
    for level in LEVELS:
        for name, stage in CODEC_STAGES:
            metrics[f"{name}.level{level}"] = codecs.per_message_us(
                f"level{level}", stage)
    return metrics


def part_medians_us(result) -> list[float]:
    """rtt p50 of each part's timed samples (one dialect draw each)."""
    bounds = result.part_starts + [len(result.rtt_ns)]
    return [statistics.median(result.rtt_ns[start:end]) / 1e3
            for start, end in zip(bounds, bounds[1:]) if end > start]


def _ratio(numerator, denominator) -> float:
    return numerator / denominator if denominator else 0.0


def zero_call_violations(workload: str, metrics: dict) -> list[str]:
    """Predicted zero cells of ``interactions.json`` that did not read zero."""
    table = json.loads((HERE / "interactions.json").read_text())["metrics"]
    return [f"{name} = {metrics[name]} on {workload}, predicted 0"
            for name, entry in table.items()
            if workload in entry.get("zero_on", ()) and metrics[name] != 0]


def declared_metrics(kind: str) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {entry["name"]: entry["unit"] for entry in spec[kind]}


def measure(args) -> int:
    from repro.wire import cache_stats, reset_cache_stats

    import workloads
    from codec_replay import replay
    from tracing import Tracer

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    tracer = Tracer() if args.trace else None
    reset_cache_stats()
    result = asyncio.run(workloads.run_workload(
        args.workload, args.seed, args.seconds, tracer))
    if not result.rtt_ns:
        print("no timed round trips; give --seconds a longer budget",
              file=sys.stderr)
        return 1
    problems = list(result.failures)
    if args.trace:
        cache = cache_stats()
        summary = tracer.analyse()
        codecs = replay(result.codec_samples)
        metrics = per_layer(result, summary, codecs, cache)
        kind = "per_layer"
        if not summary.reconciled:
            problems.append(
                f"trace does not reconcile: {summary.unreconciled} round trips, "
                f"{summary.negative_self} negative self times, "
                f"{summary.nesting_errors} nesting errors")
        if codecs.mismatches:
            problems.append(f"{codecs.mismatches} codec-tier parse mismatches")
        problems += zero_call_violations(args.workload, metrics)
    else:
        metrics = end_to_end(result)
        kind = "end_to_end"
    units = declared_metrics(kind)
    if set(units) != set(metrics):
        print(f"metrics differ from BENCHMARK.json {kind}: "
              f"{sorted(set(units) ^ set(metrics))}", file=sys.stderr)
        return 3

    OUTPUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    if args.trace:
        tracer.write(OUTPUT / f"{stem}.spans.jsonl.gz")
    failed_ratio = result.failed / result.attempted if result.attempted else 1.0
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_ratio": failed_ratio,
        "problems": problems,
        "rtt_samples": len(result.rtt_ns),
        "part_rtt_p50_us": part_medians_us(result),
        "setup_s_each": result.setup_s,
        "sessions": result.sessions,
        "rotations": result.rotations,
        "digest": result.digest.hexdigest(),
        "digest_payloads": result.digest.payloads,
        "metrics": metrics,
    }
    (OUTPUT / f"{stem}.json").write_text(json.dumps(report, indent=1))

    for name in sorted(metrics):
        print(f"{name:44} {metrics[name]:>16.6f} {units[name]}")
    print(f"{'failed_ratio':44} {failed_ratio:>16.6f} ratio "
          f"({result.failed}/{result.attempted})")
    print(f"{'rtt_samples':44} {len(result.rtt_ns):>16d} count")
    print(f"digest sha256 {report['digest']} over {result.digest.payloads} "
          f"wire payloads")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": not problems and result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


def self_test() -> int:
    """Show that the benchmark's checks can fail.

    The reply check must fail on replies corrupted in transit and pass on
    clean ones; the wire digest must repeat for a seed and change with it.
    """
    from repro.net import FaultPlan

    import workloads

    async def run(protocol: str, faults) -> "workloads.RunResult":
        workload = workloads.Pingpong(protocol, transport="memory",
                                      response_faults=faults)
        result = workloads.RunResult(f"self-test-{protocol}")
        requester = workloads.Requester(result, request_timeout=None if faults is None
                                  else 0.5)
        await workload.run_part(requester, 1, 0, round_trips=40)
        return result

    ok = True
    for protocol in ("modbus", "http"):
        for faults in (None, FaultPlan.corrupt(0.2, seed=3)):
            result = asyncio.run(run(protocol, faults))
            ratio = result.failed / result.attempted
            expected = "> 0" if faults is not None else "= 0"
            passed = ratio > 0 if faults is not None else ratio == 0
            ok &= passed
            print(f"self-test {protocol:6} {'corrupted' if faults else 'clean':9} "
                  f"failed_ratio {ratio:.3f} ({result.failed}/{result.attempted}),"
                  f" expected {expected}: {'ok' if passed else 'FAIL'}")
    for name in workloads.WORKLOADS:
        # No timed loop: the set-ups and warm-ups are what the digest covers.
        first, again, other = (
            asyncio.run(workloads.run_workload(name, seed, 0.0)).digest.hexdigest()
            for seed in (1, 1, 2))
        passed = first == again != other
        ok &= passed
        print(f"self-test {name:15} digest repeats for a seed, changes with "
              f"it: {'ok' if passed else 'FAIL'}")
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no library sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path.insert(1, str(ROOT / "src"))
    if args.self_test:
        return self_test()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args)


if __name__ == "__main__":
    sys.exit(main())
