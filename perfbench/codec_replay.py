"""Codec-tier replay: a workload's messages through both public codec tiers.

Sessions run the interpreted tier by default, so these numbers are not on any
end-to-end path today.  They give the paper's per-message serialize/parse
cost (Fig. 4/5) for the very dialects and messages a run carried, on the
interpreted :class:`~repro.wire.WireCodec` and on the specialized compiled
module (:func:`~repro.codegen.cache.cached_module` with ``specialize=True``),
and check that both tiers parse every wire payload to the same message.
"""

from __future__ import annotations

import statistics
from collections import defaultdict
from time import perf_counter, perf_counter_ns

from repro.codegen.cache import cached_module
from repro.codegen.loader import SpecializedCodec
from repro.wire import WireCodec

#: Timed passes over each dialect's messages; the median pass is kept.
PASSES = 3


def _median_pass_ns(operation, items) -> float:
    times = []
    for _ in range(PASSES):
        start = perf_counter_ns()
        for item in items:
            operation(item)
        times.append(perf_counter_ns() - start)
    return statistics.median(times)


class CodecTotals:
    """Summed per-stage time and message counts, per protocol and level."""

    def __init__(self):
        self.ns = defaultdict(float)
        self.messages = defaultdict(int)
        #: summed compile time of the specialized modules, and their count.
        self.compile_s = 0.0
        self.compiles = 0
        self.mismatches = 0

    def add(self, groups, stage: str, ns: float, messages: int) -> None:
        for group in groups:
            self.ns[group, stage] += ns
            self.messages[group, stage] += messages

    def per_message_us(self, group, stage: str) -> float:
        count = self.messages.get((group, stage), 0)
        return self.ns[group, stage] / count / 1e3 if count else 0.0


def replay(samples) -> CodecTotals:
    """Time both tiers on every sample's messages, in both directions."""
    totals = CodecTotals()
    for sample in samples:
        groups = ("all", sample.protocol, f"level{sample.level}")
        for graph, messages in ((sample.request_graph, sample.requests),
                                (sample.response_graph, sample.replies)):
            if not messages:
                continue
            interpreted = WireCodec(graph)
            wires = [interpreted.serialize(message) for message in messages]
            started = perf_counter()
            module = cached_module(graph, specialize=True)
            totals.compile_s += perf_counter() - started
            totals.compiles += 1
            specialized = SpecializedCodec(graph, module=module)
            for wire, message in zip(wires, messages):
                if not (interpreted.parse(wire) == specialized.parse(wire)
                        == message):
                    totals.mismatches += 1
            count = len(messages)
            totals.add(groups, "interp_serialize",
                       _median_pass_ns(interpreted.serialize, messages), count)
            totals.add(groups, "interp_parse",
                       _median_pass_ns(interpreted.parse, wires), count)
            totals.add(groups, "specialized_serialize",
                       _median_pass_ns(specialized.serialize, messages), count)
            totals.add(groups, "specialized_parse",
                       _median_pass_ns(specialized.parse, wires), count)
    return totals
