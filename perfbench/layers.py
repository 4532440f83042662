"""Per-layer metrics of a traced run, measured from outside the program.

A ``cProfile`` hook attributes self time and call counts to the layer that
owns each function, keyed by the module path under ``repro/``; nothing in
``repro`` is wrapped or patched, so the compiled backend keeps the handler
selections it makes untraced.  Time inside C functions called from Python
goes to the caller's layer, except the compiled core's own types
(``repro._core._cext``), whose time is the ``sim`` layer's compiled share.
Span durations come from the cumulative time of each layer's public entry
points.  Simulated counts come from the program's statistics (see
``suite.Counts``).
"""

from __future__ import annotations

import cProfile
import pstats
from pathlib import PurePath
from typing import Dict, Iterable, List, Tuple

#: Package directory under ``repro/`` -> layer.  ``protocols`` splits by
#: protocol package; its shared modules are ``protocols.shared``.
PACKAGE_LAYERS = {
    "sim": "sim",
    "_core": "sim",
    "interconnect": "interconnect",
    "protocols": "protocols",
    "coherence": "coherence",
    "system": "system",
    "workloads": "workloads",
    "common": "common",
    "verification": "verification",
    "experiments": "experiments",
}
PROTOCOL_PACKAGES = ("snooping", "directory", "bash")
CORE = "sim.core"
OTHER = "other"

#: Counts that repeat bit-for-bit for a seed: compare them exactly.
EXACT = frozenset(
    {
        "sim.events",
        "sim.calls_per_event",
        "interconnect.messages",
        "interconnect.segments_retained",
        "interconnect.calls_per_event",
        "protocols.calls_per_event",
        "bash.sample_ticks",
        "bash.sample_ticks_per_op",
        "bash.retries",
        "bash.nacks",
        "common.stats_records_per_event",
        "common.calls_per_event",
        "system.misses",
        "system.writebacks",
        "system.sim_cycles",
        "system.calls_per_event",
        "workloads.ops",
        "workloads.max_resident_ops",
        "workloads.calls_per_event",
        "verification.replays",
        "verification.ops_checked",
        "experiments.batch_reuse_frac",
        "jobstore.listings_per_unit",
        "jobstore.journal_reads",
        "service.retries",
        "service.redispatched",
    }
)


def layer_of(filename: str) -> str:
    """The layer owning a source file (``other`` outside ``repro``)."""
    parts = PurePath(filename).parts
    if "repro" not in parts:
        return OTHER
    rest = parts[len(parts) - 1 - parts[::-1].index("repro") + 1 :]
    if len(rest) < 2 or rest[0] not in PACKAGE_LAYERS:
        return OTHER
    layer = PACKAGE_LAYERS[rest[0]]
    if layer == "protocols":
        sub = rest[1] if rest[1] in PROTOCOL_PACKAGES else "shared"
        return f"protocols.{sub}"
    return layer


def _is_core(funcname: str) -> bool:
    return "repro._core._cext" in funcname


class Profile:
    """Self time, calls and entry-point spans per layer from one profile."""

    def __init__(self, profiler: cProfile.Profile) -> None:
        self.stats = pstats.Stats(profiler).stats
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.total_s = 0.0
        for (filename, _line, funcname), (_cc, nc, tt, _ct, callers) in self.stats.items():
            self.total_s += tt
            if filename == "~":
                if _is_core(funcname):
                    self._add(CORE, tt)
                else:
                    self._attribute_builtin(tt, callers)
                continue
            layer = layer_of(filename)
            self._add(layer, tt)
            self.calls[layer] = self.calls.get(layer, 0) + nc

    def _add(self, layer: str, seconds: float) -> None:
        self.self_s[layer] = self.self_s.get(layer, 0.0) + seconds

    def _attribute_builtin(self, tt: float, callers) -> None:
        """Split a C function's self time over its callers' layers."""
        shares: List[Tuple[str, float]] = []
        for (filename, _line, funcname), caller_stats in callers.items():
            layer = (
                CORE
                if filename == "~" and _is_core(funcname)
                else OTHER
                if filename == "~"
                else layer_of(filename)
            )
            shares.append((layer, caller_stats[2]))
        total = sum(share for _layer, share in shares)
        if total <= 0:
            self._add(OTHER, tt)
            return
        for layer, share in shares:
            self._add(layer, tt * share / total)

    def layer_self(self, prefix: str) -> float:
        """Self seconds of a layer and its sub-layers."""
        return sum(
            seconds
            for layer, seconds in self.self_s.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    def layer_calls(self, prefix: str) -> int:
        return sum(
            calls
            for layer, calls in self.calls.items()
            if layer == prefix or layer.startswith(prefix + ".")
        )

    def entry(self, module: str, funcname: str) -> Tuple[int, float]:
        """(calls, cumulative seconds) of functions ``funcname`` in ``module``."""
        calls, seconds = 0, 0.0
        for (filename, _line, name), (_cc, nc, _tt, ct, _callers) in self.stats.items():
            if name == funcname and PurePath(filename).as_posix().endswith(module):
                calls += nc
                seconds += ct
        return calls, seconds

    def calls_in(self, module: str, funcnames: Iterable[str]) -> int:
        names = set(funcnames)
        return sum(
            nc
            for (filename, _line, name), (_cc, nc, _tt, _ct, _callers) in self.stats.items()
            if name in names and PurePath(filename).as_posix().endswith(module)
        )


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(profile: Profile, counts, rounds: int, units: int,
                  unit_s: float, untraced_wall_s: float, traced_wall_s: float) -> Dict[str, float]:
    """Every per-layer metric, per round, from a profile of ``rounds`` rounds.

    ``counts`` are one round's simulated counts, ``units`` the units of one
    round, ``unit_s`` the traced unit time summed over all traced rounds.
    """
    per_round = 1.0 / rounds
    events = counts.events
    ops = counts.ops

    def self_s(layer: str) -> float:
        return profile.layer_self(layer) * per_round

    def calls_per_event(layer: str) -> float:
        return _ratio(profile.layer_calls(layer) * per_round, events)

    run_calls, run_s = profile.entry("sim/simulator.py", "run")
    init_calls, init_s = profile.entry("system/multiprocessor.py", "__init__")
    reset_calls, reset_s = profile.entry("system/multiprocessor.py", "reset")
    _result_calls, result_s = profile.entry("system/multiprocessor.py", "result")
    _tick_calls, sample_s = profile.entry(
        "protocols/bash/cache_controller.py", "_sample_utilization"
    )
    claim_calls, claim_s = profile.entry("experiments/jobstore.py", "claim")
    complete_calls, complete_s = profile.entry("experiments/jobstore.py", "complete")
    listings = profile.calls_in("experiments/jobstore.py", ("ids",))
    journal_reads = profile.calls_in(
        "experiments/jobstore.py", ("journal_entries", "journal_offset")
    )
    stats_records = profile.calls_in(
        "common/stats.py", ("record", "record_many", "increment")
    )
    accesses = counts.hits + counts.misses
    broadcast_total = counts.broadcasts + counts.multicasts
    bash_total = counts.bash_broadcasts + counts.bash_multicasts
    return {
        "sim.events": events,
        "sim.events_per_s": _ratio(events, untraced_wall_s),
        "sim.self_s": self_s("sim"),
        "sim.calls_per_event": calls_per_event("sim"),
        "core.compiled_frac": _ratio(profile.self_s.get(CORE, 0.0), profile.total_s),
        "interconnect.messages": counts.messages,
        "interconnect.broadcast_frac": _ratio(counts.broadcasts, broadcast_total),
        "interconnect.link_utilization": _ratio(
            counts.link_utilization_total, counts.systems_observed
        ),
        "interconnect.segments_retained": counts.segments_retained,
        "interconnect.self_s": self_s("interconnect"),
        "interconnect.calls_per_event": calls_per_event("interconnect"),
        "protocols.snooping.self_s": self_s("protocols.snooping"),
        "protocols.directory.self_s": self_s("protocols.directory"),
        "protocols.bash.self_s": self_s("protocols.bash"),
        "protocols.shared.self_s": self_s("protocols.shared"),
        "protocols.calls_per_event": calls_per_event("protocols"),
        "bash.sample_ticks": counts.sample_ticks,
        "bash.sample_ticks_per_op": _ratio(counts.sample_ticks, ops),
        "bash.sample_s": sample_s * per_round,
        "bash.broadcast_frac": _ratio(counts.bash_broadcasts, bash_total),
        "bash.retries": counts.bash_retries,
        "bash.nacks": counts.bash_nacks,
        "common.stats_records_per_event": _ratio(stats_records * per_round, events),
        "common.self_s": self_s("common"),
        "common.calls_per_event": calls_per_event("common"),
        "coherence.self_s": self_s("coherence"),
        "system.misses": counts.misses,
        "system.hit_ratio": _ratio(counts.hits, accesses),
        "system.writebacks": counts.writebacks,
        "system.miss_latency_cycles": _ratio(counts.miss_latency_total, counts.misses),
        "system.sim_cycles": counts.cycles,
        "system.build_s": (init_s + reset_s) * per_round,
        "system.run_s": run_s * per_round,
        "system.result_s": result_s * per_round,
        "system.self_s": self_s("system"),
        "system.calls_per_event": calls_per_event("system"),
        "workloads.ops": ops,
        "workloads.max_resident_ops": counts.max_resident_ops,
        "workloads.self_s": self_s("workloads"),
        "workloads.calls_per_event": calls_per_event("workloads"),
        "verification.replays": counts.replays,
        "verification.ops_checked": counts.ops_checked,
        "verification.self_s": self_s("verification"),
        "experiments.self_s": self_s("experiments"),
        "experiments.unit_overhead_ms": _ratio(
            (unit_s - run_s) * 1000.0, units * rounds
        ),
        "experiments.batch_reuse_frac": _ratio(reset_calls, reset_calls + init_calls),
        "jobstore.claim_ms": _ratio(claim_s * 1000.0, claim_calls),
        "jobstore.complete_ms": _ratio(complete_s * 1000.0, complete_calls),
        "jobstore.listings_per_unit": _ratio(listings * per_round, units),
        "jobstore.journal_reads": journal_reads * per_round,
        "service.retries": counts.service_retries,
        "service.redispatched": counts.service_redispatched,
        "trace.overhead_ratio": _ratio(traced_wall_s, untraced_wall_s),
    }


#: Unit of every per-layer metric, by name suffix (first match wins).
UNITS = (
    ("_per_s", "1/s"),
    ("_ms", "ms"),
    ("_s", "s"),
    ("_frac", "fraction"),
    ("hit_ratio", "fraction"),
    ("_ratio", "ratio"),
    ("_per_event", "1/event"),
    ("_per_op", "1/op"),
    ("_per_unit", "1/unit"),
    ("link_utilization", "fraction"),
    ("_cycles", "cycles"),
)


def unit_of(name: str) -> str:
    for suffix, unit in UNITS:
        if name.endswith(suffix):
            return unit
    return "count"
