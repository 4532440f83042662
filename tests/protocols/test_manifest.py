"""The acceleration manifest: one decline rule for every compiled fast path.

``repro._core.manifest`` lists, per C fast path, the exact classes it serves
and every method it inlines or mirrors.  These tests walk that table: every
listed method, patched on its class with a pass-through, must make its fast
path decline on the compiled backend, and the run must still equal the pure
run field for field.  The integrity tests pin the table to the code and to
the extension it describes.
"""

from __future__ import annotations

import functools
import inspect

import pytest

from repro import _core
from repro._core import manifest
from repro.common.config import AdaptiveConfig, ProtocolName, SystemConfig
from repro.protocols.bash.cache_controller import BashCacheController
from repro.protocols.snooping.cache_controller import SnoopingCacheController
from repro.system.multiprocessor import simulate
from repro.workloads.synthetic import SyntheticCommercialWorkload

needs_compiled = pytest.mark.skipif(
    not _core.compiled_available(),
    reason="compiled extension not built (python -m repro._core.build)",
)

NUM_PROCESSORS = 4

#: Extension types with no row: the event core's scheduler and the
#: interconnect's per-hop relay are not coherence fast paths.
EVENT_CORE_TYPES = {"SchedulerBase", "Relay"}


def _protocol_of(path):
    """The protocol a dotted class path belongs to, or None if shared."""
    for protocol in ProtocolName:
        if f".protocols.{protocol.value}." in path:
            return protocol
    return None


def _protocol(row, path):
    """The protocol whose run exercises ``row`` with ``path`` patched."""
    for candidate in (path, *row.serves):
        protocol = _protocol_of(candidate)
        if protocol is not None:
            return protocol
    return ProtocolName.SNOOPING


def _selection_keys(row, protocol):
    """The ``handler_selections`` keys the row's decline shows in."""
    names = [
        manifest.resolve(path).__name__
        for path in row.serves
        if _protocol_of(path) in (protocol, None)
    ]
    return {
        template.format(cls=name, node=node)
        for template in row.selections
        for name in names
        for node in range(NUM_PROCESSORS)
    }


def _run(protocol):
    """A tiny run with loads, stores, writebacks and BASH sampling."""
    config = SystemConfig(
        num_processors=NUM_PROCESSORS,
        protocol=protocol,
        bandwidth_mb_per_second=400.0,
        cache_capacity_blocks=8,
        adaptive=AdaptiveConfig(sampling_interval=64, policy_counter_bits=5),
    )
    workload = SyntheticCommercialWorkload("oltp", operations_per_processor=40)
    return simulate(config, workload)


@functools.lru_cache(maxsize=None)
def _pure_result(protocol):
    with _core.use_backend(_core.PURE):
        return _run(protocol)


def _pass_through(original):
    def patched(*args, **kwargs):
        return original(*args, **kwargs)

    return patched


CASES = [
    pytest.param(row, path, name, id=f"{row.name}-{path.rpartition('.')[2]}.{name}")
    for row in manifest.ROWS
    for path, name in dict.fromkeys(manifest.pairs(row))
]


@needs_compiled
@pytest.mark.parametrize("row, path, name", CASES)
def test_class_patch_declines_and_matches_pure(monkeypatch, row, path, name):
    """A pass-through patch of any listed method keeps the pure path."""
    protocol = _protocol(row, path)
    expected = _pure_result(protocol)
    owner = manifest.resolve(path)
    monkeypatch.setattr(owner, name, _pass_through(getattr(owner, name)))
    monkeypatch.setattr(_core, "_handler_selections", {})
    with _core.use_backend(_core.COMPILED):
        result = _run(protocol)
    selections = _core.handler_selections()
    if row.selections:
        seen = {
            key: status
            for key, status in selections.items()
            if key in _selection_keys(row, protocol)
        }
        assert seen, f"no {row.name} selection recorded: {selections}"
        assert set(seen.values()) == {"declined"}, seen
    assert result == expected


class TestIntegrity:
    def test_every_row_resolves_to_plain_methods(self):
        for row in manifest.ROWS:
            assert row.component in manifest.COMPONENTS
            assert row.c_types and row.serves
            for path, name in manifest.pairs(row):
                assert inspect.isfunction(getattr(manifest.resolve(path), name))
            for path in row.serves:
                cls = manifest.resolve(path)
                for hook in row.local_hooks:
                    assert inspect.isfunction(getattr(cls, hook)), (row.name, hook)

    def test_capture_holds_the_live_methods(self):
        for row in manifest.ROWS:
            for path in row.serves:
                cls = manifest.resolve(path)
                assert manifest.is_pristine(row, object.__new__(cls)), row.name

    def test_components_cover_every_row(self):
        info = _core.backend_info()
        assert set(info["components"]) == {"event_core", *manifest.COMPONENTS}
        assert manifest.COMPONENTS == ("handlers", "issue_chain", "adaptation")

    @needs_compiled
    def test_rows_match_the_extension(self):
        ext = _core.load_extension()
        exported = {name for name in dir(ext) if isinstance(getattr(ext, name), type)}
        listed = {name for row in manifest.ROWS for name in row.c_types}
        assert all(manifest.carries(ext, row) for row in manifest.ROWS)
        assert listed <= exported
        assert exported - listed == EVENT_CORE_TYPES


@pytest.mark.parametrize(
    "controller_class", [SnoopingCacheController, BashCacheController]
)
def test_patched_snoop_request_is_called(monkeypatch, backend, controller_class):
    """Regression: a class-patched ``_snoop_request`` used to be bypassed by
    a fused snoop closure on both backends (the patch ran 0 times)."""
    protocol = {
        SnoopingCacheController: ProtocolName.SNOOPING,
        BashCacheController: ProtocolName.BASH,
    }[controller_class]
    expected = _run(protocol)
    original = controller_class._snoop_request
    calls = []

    def counting(self, message):
        calls.append(message.msg_type)
        return original(self, message)

    monkeypatch.setattr(controller_class, "_snoop_request", counting)
    result = _run(protocol)
    assert calls
    assert result == expected
