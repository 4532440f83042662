"""repro — a reproduction of "Bandwidth Adaptive Snooping" (HPCA 2002).

The package implements the paper's Bandwidth Adaptive Snooping Hybrid (BASH)
coherence protocol, its Snooping and Directory baselines, the memory-system
timing simulator used to evaluate them, the locking microbenchmark and
synthetic stand-ins for the paper's commercial workloads, and the experiment
harness that regenerates every figure and table of the evaluation.

Quick start::

    from repro import SystemConfig, ProtocolName, LockingMicrobenchmark, simulate

    config = SystemConfig(num_processors=16, protocol=ProtocolName.BASH,
                          bandwidth_mb_per_second=1600)
    result = simulate(config, LockingMicrobenchmark(acquires_per_processor=50))
    print(result.performance, result.mean_miss_latency)
"""

from .common.config import AdaptiveConfig, LatencyConfig, ProtocolName, SystemConfig
from .protocols.bash.adaptive import BandwidthAdaptiveMechanism
from .protocols.complexity import complexity_table, format_table
from .system.multiprocessor import MultiprocessorSystem, RunResult, simulate
from .workloads.microbenchmark import LockingMicrobenchmark
from .workloads.presets import WORKLOAD_PRESETS
from .workloads.synthetic import SyntheticCommercialWorkload
from ._core import manifest as _manifest

__version__ = "1.0.0"

__all__ = [
    "AdaptiveConfig",
    "LatencyConfig",
    "ProtocolName",
    "SystemConfig",
    "BandwidthAdaptiveMechanism",
    "MultiprocessorSystem",
    "RunResult",
    "simulate",
    "LockingMicrobenchmark",
    "SyntheticCommercialWorkload",
    "WORKLOAD_PRESETS",
    "complexity_table",
    "format_table",
    "__version__",
]

# Every module the acceleration manifest names is imported by now, and no user
# code has run yet: snapshot the methods the compiled fast paths mirror.
_manifest.capture()
