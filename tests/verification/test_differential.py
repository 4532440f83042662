"""Differential verification: trace recording, replay, and cross-checking."""

import pytest

from repro import _core
from repro.coherence.state import MOSIState
from repro.common.config import ProtocolName
from repro.errors import VerificationError
from repro.experiments.batch import BatchRunner
from repro.interconnect.message import MessageType
from repro.system.multiprocessor import MultiprocessorSystem
from repro.verification.differential import (
    MemoryTrace,
    RACY,
    ReplayConfig,
    STRICT,
    TraceOp,
    TraceReplayer,
    empty_trace_workload,
    generate_trace,
    run_differential,
)
from repro.verification.invariants import InvariantMonitor


class TestTraceGeneration:
    def test_deterministic_per_seed(self):
        assert generate_trace(5).ops == generate_trace(5).ops
        assert generate_trace(5).ops != generate_trace(6).ops

    def test_write_tokens_unique_and_nonzero(self):
        trace = generate_trace(1, operations=80)
        tokens = [op.token for op in trace.ops if op.kind == "write"]
        assert tokens
        assert 0 not in tokens
        assert len(tokens) == len(set(tokens))

    def test_racy_traces_have_a_single_writer_per_block(self):
        trace = generate_trace(2, operations=120, mode=RACY)
        assert trace.single_writer
        writers = {}
        for op in trace.ops:
            if op.kind == "write":
                writers.setdefault(op.block, set()).add(op.node)
        assert all(len(nodes) == 1 for nodes in writers.values())

    def test_strict_traces_migrate_ownership(self):
        # Across a handful of seeds, some strict trace must use >1 writer for
        # some block (that is the point of the serialised mode).
        multi = False
        for seed in range(6):
            trace = generate_trace(seed, operations=120, mode=STRICT)
            writers = {}
            for op in trace.ops:
                if op.kind == "write":
                    writers.setdefault(op.block, set()).add(op.node)
            multi = multi or any(len(nodes) > 1 for nodes in writers.values())
        assert multi

    def test_unknown_mode_rejected(self):
        with pytest.raises(VerificationError):
            generate_trace(1, mode="chaotic")

    def test_json_round_trip(self):
        trace = generate_trace(3, operations=40)
        clone = MemoryTrace.from_jsonable(trace.to_jsonable())
        assert clone == trace

    def test_subset_keeps_selected_ops_in_order(self):
        trace = generate_trace(4, operations=20)
        shrunk = trace.subset([5, 1, 9])
        assert shrunk.ops == (trace.ops[1], trace.ops[5], trace.ops[9])

    def test_predicted_final_tokens_follow_last_write(self):
        trace = MemoryTrace(
            num_processors=2, num_blocks=2, mode=STRICT, seed=0,
            single_writer=False,
            ops=(
                TraceOp(0, 0, "write", 1),
                TraceOp(1, 0, "write", 2),
                TraceOp(0, 1, "read"),
            ),
        )
        assert trace.predicted_final_tokens() == {0: 2, 1: 0}
        assert trace.expected_read_tokens() == {2: 0}

    def test_to_workload_drops_writebacks(self):
        trace = MemoryTrace(
            num_processors=2, num_blocks=1, mode=RACY, seed=0,
            single_writer=True,
            ops=(
                TraceOp(0, 0, "write", 1),
                TraceOp(0, 0, "writeback"),
                TraceOp(1, 0, "read"),
            ),
        )
        workload = trace.to_workload(64)
        data = workload.to_jsonable()
        assert len(data["0"]) == 1 and len(data["1"]) == 1


class TestDifferentialRuns:
    @pytest.mark.parametrize("mode", [STRICT, RACY])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_correct_protocols_agree(self, mode, seed, backend):
        trace = generate_trace(seed, operations=40, mode=mode)
        result = run_differential(trace)
        assert result.ok, result.failures
        for replay in result.results.values():
            assert replay.completed == replay.operations
            assert replay.final_image == trace.predicted_final_tokens()
            assert replay.midrun_report is not None
            assert replay.midrun_report.blocks_checked >= replay.operations

    def test_strict_observation_streams_identical(self):
        trace = generate_trace(7, operations=50, mode=STRICT)
        result = run_differential(trace)
        assert result.ok, result.failures
        streams = [
            {node: obs for node, obs in replay.observations.items()}
            for replay in result.results.values()
        ]
        assert streams[0] == streams[1] == streams[2]

    def test_two_outstanding_and_low_bandwidth(self):
        replay = ReplayConfig(
            bandwidth_mb_per_second=200.0, max_outstanding_per_node=2
        )
        for seed in (11, 12):
            trace = generate_trace(seed, operations=50, mode=RACY)
            result = run_differential(trace, replay=replay)
            assert result.ok, result.failures

    def test_tiny_cache_forces_evictions_and_still_passes(self):
        replay = ReplayConfig(cache_capacity_blocks=2)
        trace = generate_trace(13, num_blocks=4, operations=50, mode=RACY)
        result = run_differential(trace, replay=replay)
        assert result.ok, result.failures
        assert any(r.evictions > 0 for r in result.results.values())

    def test_reset_reuse_matches_fresh_systems(self):
        trace = generate_trace(5, operations=40, mode=STRICT)
        fresh = run_differential(trace)
        runner = BatchRunner()
        # Warm the runner with a different task first, then re-run.
        run_differential(generate_trace(9, operations=30, mode=RACY),
                         acquire=runner.acquire)
        reused = run_differential(trace, acquire=runner.acquire)
        assert fresh.ok and reused.ok
        for protocol in fresh.results:
            assert (
                fresh.results[protocol].observations
                == reused.results[protocol].observations
            )
            assert (
                fresh.results[protocol].final_image
                == reused.results[protocol].final_image
            )

    def test_replayer_rejects_mismatched_system(self, small_config):
        from repro.system.multiprocessor import MultiprocessorSystem

        trace = generate_trace(1, num_processors=4, operations=10)
        config = small_config(ProtocolName.SNOOPING, num_processors=6)
        system = MultiprocessorSystem(config, empty_trace_workload(6))
        with pytest.raises(VerificationError):
            TraceReplayer(system, trace)


class TestBugDetection:
    def test_corrupt_directory_data_is_caught_and_attributed(self, monkeypatch):
        """A mutated handler in one protocol is caught by the other two."""
        from repro.protocols.directory.cache_controller import (
            DirectoryCacheController,
        )

        original = DirectoryCacheController._serve_forward

        def corrupt(self, block, message):
            if message.msg_type is MessageType.FWD_GETS and block.is_owner:
                self._send_data(
                    block.address, message.requester, 424242,
                    message.transaction_id,
                )
                block.state = MOSIState.OWNED
                block.tracked_sharers.add(message.requester)
                return
            return original(self, block, message)

        monkeypatch.setattr(
            DirectoryCacheController, "_serve_forward", corrupt
        )
        caught = False
        for seed in range(4):
            trace = generate_trace(seed, operations=50, mode=STRICT)
            result = run_differential(trace)
            if not result.ok:
                caught = True
                assert any("directory" in f for f in result.failures)
                break
        assert caught

    def test_lost_invalidation_is_caught(self, monkeypatch):
        """A snooping sharer that ignores invalidations trips the checks."""
        from repro.protocols.snooping.cache_controller import (
            SnoopingCacheController,
        )

        original = SnoopingCacheController._serve_stable

        def never_invalidate(self, block, message):
            if (
                message.request_kind is MessageType.GETM
                and block.state is MOSIState.SHARED
            ):
                return  # bug: keep the stale shared copy
            return original(self, block, message)

        monkeypatch.setattr(
            SnoopingCacheController, "_serve_stable", never_invalidate
        )
        caught = False
        for seed in range(4):
            trace = generate_trace(seed, operations=50, mode=RACY)
            result = run_differential(
                trace, protocols=[ProtocolName.SNOOPING]
            )
            if not result.ok:
                caught = True
                break
        assert caught

    def test_watchdog_dumps_structured_failure_on_lost_data(
        self, backend, monkeypatch
    ):
        """Dropping every data response deadlocks the replay; the watchdog
        must convert that into a structured dump instead of a silent hang."""
        from repro.protocols.snooping.cache_controller import (
            SnoopingCacheController,
        )

        monkeypatch.setattr(
            SnoopingCacheController, "_handle_data", lambda self, message: None
        )
        trace = generate_trace(0, operations=20, mode=RACY)
        replay = ReplayConfig(watchdog_interval=5_000, drain_cycles=1_000)
        result = run_differential(
            trace, protocols=[ProtocolName.SNOOPING], replay=replay
        )
        assert not result.ok
        replay_result = result.results[ProtocolName.SNOOPING]
        dump = replay_result.watchdog_failure
        assert dump is not None
        assert dump["completed"] < dump["operations"]
        assert dump["outstanding"]
        assert dump["recent_events"]
        assert dump["protocol"] == "snooping"
        assert any("watchdog" in failure for failure in result.failures)
        # The dump's ring holds the last `recent_events` events fired before
        # the tripping watchdog event, exactly as an on_fire trace saw them.
        dump, fired = _lost_data_dump(trace, replay)
        assert dump["recent_events"] == replay_result.watchdog_failure[
            "recent_events"
        ]
        trip = fired.index((dump["cycle"], "replayer-watchdog"))
        assert trip >= replay.recent_events
        assert dump["recent_events"] == fired[trip - replay.recent_events : trip]

    def test_lost_data_dump_is_identical_across_backends(self, monkeypatch):
        if not _core.compiled_available():
            pytest.skip("compiled extension not built")
        from repro.protocols.snooping.cache_controller import (
            SnoopingCacheController,
        )

        monkeypatch.setattr(
            SnoopingCacheController, "_handle_data", lambda self, message: None
        )
        trace = generate_trace(0, operations=20, mode=RACY)
        replay = ReplayConfig(watchdog_interval=5_000, drain_cycles=1_000)
        dumps = {}
        for name in (_core.PURE, _core.COMPILED):
            with _core.use_backend(name):
                dumps[name], _ = _lost_data_dump(trace, replay)
        assert len(dumps[_core.PURE]["recent_events"]) == replay.recent_events
        assert dumps[_core.PURE] == dumps[_core.COMPILED]

    def test_injected_violation_stops_the_replay_at_its_cycle(
        self, protocol, backend, monkeypatch
    ):
        original = InvariantMonitor._settled_check

        def inject_once(monitor, address):
            if not monitor.violations:
                monitor._record("injected violation")
            return original(monitor, address)

        monkeypatch.setattr(InvariantMonitor, "_settled_check", inject_once)
        trace = generate_trace(3, operations=40)
        replay = ReplayConfig(drain_cycles=0)
        system = MultiprocessorSystem(
            replay.system_config(trace, protocol),
            empty_trace_workload(trace.num_processors),
        )
        result = TraceReplayer(system, trace, replay).run()
        violations = result.midrun_report.violations
        assert violations == [f"cycle {result.cycles}: injected violation"]
        assert result.completed < result.operations
        assert result.watchdog_failure is None


def _lost_data_dump(trace, replay):
    """Replay ``trace`` on snooping with an ``on_fire`` trace attached;
    return the watchdog dump and every fired ``(time, label)`` pair."""
    system = MultiprocessorSystem(
        replay.system_config(trace, ProtocolName.SNOOPING),
        empty_trace_workload(trace.num_processors),
    )
    fired = []
    system.simulator.scheduler.on_fire = lambda time, label: fired.append(
        (time, label)
    )
    result = TraceReplayer(system, trace, replay).run()
    assert result.watchdog_failure is not None
    return result.watchdog_failure, fired
