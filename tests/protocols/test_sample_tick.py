"""The compiled BASH sampling tick: equivalence and decline discipline.

Under the compiled backend each BASH cache controller schedules a C
``SampleTick`` (``repro._core``) in place of its bound
``_sample_utilization``.  The tick must leave exactly the state the pure
method leaves: every ``AdaptiveSample`` field in the history, the policy
counter, the link query memos, and the exact Welford accumulators of the
three running means it feeds.  Any unusual shape — a subclassed controller,
a patched method the tick inlines, a policy counter wider than 62 bits —
keeps the pure tick.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro import _core
from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.common.stats import RunningMean
from repro.protocols.bash.adaptive import BandwidthAdaptiveMechanism
from repro.protocols.bash.cache_controller import BashCacheController
from repro.protocols.dispatch import compile_sample_tick
from repro.system.multiprocessor import MultiprocessorSystem
from repro.workloads.microbenchmark import LockingMicrobenchmark

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

SELECTION = "BashCacheController.SAMPLE"
MEAN_SLOTS = ("_count", "_mean", "_m2", "_minimum", "_maximum", "_total")


def _config(bandwidth=1600.0, threshold=0.75, interval=64, bits=5, **adaptive):
    return SystemConfig(
        num_processors=4,
        protocol=ProtocolName.BASH,
        bandwidth_mb_per_second=bandwidth,
        adaptive=AdaptiveConfig(
            utilization_threshold=threshold,
            sampling_interval=interval,
            policy_counter_bits=bits,
            **adaptive,
        ),
        random_seed=3,
    )


def _workload():
    return LockingMicrobenchmark(
        num_locks=16, acquires_per_processor=25, think_jitter=16
    )


def _exact(value):
    """Floats by bit pattern, so 0.0 == -0.0 cannot hide a difference."""
    return float.hex(value) if isinstance(value, float) else value


def _mean_state(mean):
    return tuple(_exact(getattr(mean, slot)) for slot in MEAN_SLOTS)


def _snapshot(system):
    """Everything a sampling tick writes, per node."""
    nodes = []
    for node in system.nodes:
        controller = node.cache_controller
        adaptive = controller.adaptive
        links = (controller._link_pair.incoming, controller._link_pair.outgoing)
        nodes.append(
            {
                "history": [
                    tuple(_exact(value) for value in dataclasses.astuple(sample))
                    for sample in adaptive.history
                ],
                "history_type": type(adaptive.history),
                "policy": adaptive.policy_counter.value,
                "means": [
                    _mean_state(controller._mean_link_utilization),
                    _mean_state(controller._sys_link_utilization),
                    _mean_state(controller._sys_unicast_probability),
                ],
                "window": (
                    controller._window_start,
                    controller._window_busy_in,
                    controller._window_busy_out,
                ),
                "memos": [(link._query_memo, link._query_memo2) for link in links],
            }
        )
    return nodes


def _run(backend, config, workload=None):
    with _core.use_backend(backend):
        system = MultiprocessorSystem(config, workload or _workload())
        result = system.run()
    return system, result


def _ticks(system):
    return [node.cache_controller._sample_entry for node in system.nodes]


def _assert_equivalent(config):
    pure_system, pure_result = _run("pure", config)
    compiled_system, compiled_result = _run("compiled", config)
    ext = _core.load_extension()
    assert all(isinstance(tick, ext.SampleTick) for tick in _ticks(compiled_system))
    assert _snapshot(compiled_system) == _snapshot(pure_system)
    assert compiled_result == pure_result
    return pure_system


@needs_compiled
class TestEquivalence:
    @pytest.mark.parametrize("bandwidth", [100.0, 400.0, 1600.0, 6400.0])
    def test_bandwidths(self, bandwidth):
        _assert_equivalent(_config(bandwidth=bandwidth))

    def test_saturated_links_take_the_busy_query_path(self):
        """At low bandwidth a tick often lands mid-transfer, so the link's
        own busy_time_up_to runs (and memoises) on both backends alike."""
        system = _assert_equivalent(_config(bandwidth=100.0, interval=37))
        links = [
            link
            for node in system.nodes
            for link in (
                node.cache_controller._link_pair.incoming,
                node.cache_controller._link_pair.outgoing,
            )
        ]
        assert any(link._query_memo[0] != -1 for link in links)

    @pytest.mark.parametrize("threshold", [0.3, 0.5, 0.75, 0.9])
    def test_thresholds(self, threshold):
        _assert_equivalent(_config(bandwidth=400.0, threshold=threshold))

    @pytest.mark.parametrize("interval", [1, 7, 64, 512])
    def test_sampling_intervals(self, interval):
        _assert_equivalent(_config(bandwidth=400.0, interval=interval))

    def test_full_history_list(self):
        system = _assert_equivalent(
            _config(bandwidth=400.0, record_full_history=True)
        )
        history = system.nodes[0].cache_controller.adaptive.history
        assert type(history) is list and len(history) > 100

    def test_bounded_history_ring(self):
        system = _assert_equivalent(_config(bandwidth=400.0, history_capacity=8))
        assert len(system.nodes[0].cache_controller.adaptive.history) == 8

    @pytest.mark.parametrize("bits", [1, 8, 53, 54, 62])
    def test_policy_counter_widths(self, bits):
        _assert_equivalent(_config(bandwidth=400.0, bits=bits))

    def test_saturated_policy_counter(self):
        """Pinned at the maximum, the counter neither moves nor reallocates."""
        _assert_equivalent(_config(bandwidth=100.0, bits=2, interval=16))

    def test_unusual_state_delegates_to_the_pure_tick(self):
        """A counter delta beyond 64-bit range: the C tick hands the tick to
        the pure method, whose big-int arithmetic gives the same run."""
        snapshots = []
        for backend in ("pure", "compiled"):
            with _core.use_backend(backend):
                system = MultiprocessorSystem(_config(bandwidth=400.0), _workload())
                for node in system.nodes:
                    node.cache_controller.adaptive._busy_delta = 2**70
                result = system.run()
            snapshots.append((_snapshot(system), result))
        assert snapshots[0] == snapshots[1]
        history = system.nodes[0].cache_controller.adaptive.history
        assert max(sample.utilization_counter for sample in history) >= 2**70


@needs_compiled
class TestResetEquivalence:
    def test_reset_matches_fresh_with_the_c_tick(self):
        points = [
            _config(bandwidth=400.0),
            _config(bandwidth=6400.0, threshold=0.55, interval=128),
            _config(bandwidth=100.0, bits=8, record_full_history=True),
        ]
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(points[0], _workload())
            system.run()
            for config in points[::-1]:
                fresh_system, fresh_result = _run("compiled", config)
                result = system.reset(_workload(), config).run()
                assert all(isinstance(tick, ext.SampleTick) for tick in _ticks(system))
                assert result == fresh_result
                assert _snapshot(system) == _snapshot(fresh_system)

    def test_reset_rebuilds_the_tick(self):
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(_config(), _workload())
            before = _ticks(system)
            system.run()
            system.reset(_workload(), _config(interval=32))
            after = _ticks(system)
        assert all(old is not new for old, new in zip(before, after))
        assert all(tick.interval == 32 for tick in after)


@needs_compiled
class TestSelection:
    def test_stock_controller_compiles(self):
        ext = _core.load_extension()
        with _core.use_backend("compiled"):
            system = MultiprocessorSystem(_config(), _workload())
            controller = system.nodes[0].cache_controller
            assert isinstance(controller._sample_entry, ext.SampleTick)
            assert _core.handler_selections()[SELECTION] == "compiled"
            assert _core.backend_info()["components"]["adaptation"] == "compiled"

    def test_pure_scheduler_keeps_the_python_tick(self):
        with _core.use_backend("pure"):
            system = MultiprocessorSystem(_config(), _workload())
            controller = system.nodes[0].cache_controller
            assert compile_sample_tick(controller) is None
            assert controller._sample_entry == controller._sample_utilization
            assert _core.backend_info()["components"]["adaptation"] == "pure"


def _declined_run(prepare):
    """Build a compiled system, apply ``prepare``, re-select, and run."""
    with _core.use_backend("compiled"):
        system = MultiprocessorSystem(_config(bandwidth=400.0), _workload())
        prepare(system)
        # Reset re-runs the selection against the prepared shape.
        system.reset(_workload(), _config(bandwidth=400.0))
        assert _core.handler_selections()[SELECTION] == "declined"
        for controller in (node.cache_controller for node in system.nodes):
            assert controller._sample_entry == controller._sample_utilization
        result = system.run()
    return system, result


@needs_compiled
class TestDeclineDiscipline:
    def _assert_matches_pure(self, system, result):
        pure_system, pure_result = _run("pure", _config(bandwidth=400.0))
        assert result == pure_result
        assert _snapshot(system) == _snapshot(pure_system)

    def test_subclassed_controller_declines(self):
        class TracingController(BashCacheController):
            pass

        def prepare(system):
            for node in system.nodes:
                node.cache_controller.__class__ = TracingController

        self._assert_matches_pure(*_declined_run(prepare))

    @pytest.mark.parametrize(
        "owner, name",
        [
            (BashCacheController, "_sample_utilization"),
            (BashCacheController, "_schedule_sampling"),
            (BandwidthAdaptiveMechanism, "observe_window"),
            (RunningMean, "record"),
        ],
        ids=lambda value: getattr(value, "__name__", value),
    )
    def test_monkeypatched_method_declines(self, monkeypatch, owner, name):
        original = getattr(owner, name)

        def patched(self, *args):
            return original(self, *args)

        def prepare(system):
            monkeypatch.setattr(owner, name, patched)

        self._assert_matches_pure(*_declined_run(prepare))

    def test_instance_patch_declines(self):
        def prepare(system):
            for node in system.nodes:
                controller = node.cache_controller
                controller._sample_utilization = controller._sample_utilization

        self._assert_matches_pure(*_declined_run(prepare))

    def test_wide_policy_counter_declines_and_runs(self):
        config = _config(bandwidth=100.0, bits=80)
        pure_system, pure_result = _run("pure", config)
        compiled_system, compiled_result = _run("compiled", config)
        assert _core.handler_selections()[SELECTION] == "declined"
        assert all(
            tick == node.cache_controller._sample_utilization
            for tick, node in zip(_ticks(compiled_system), compiled_system.nodes)
        )
        assert compiled_result == pure_result
        assert _snapshot(compiled_system) == _snapshot(pure_system)
        counter = compiled_system.nodes[0].cache_controller.adaptive.policy_counter
        assert counter.maximum == 2**80 - 1
