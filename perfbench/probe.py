"""Set-up probe: a fresh interpreter runs one workload up to its first event.

Started by ``run.py`` as ``python3 perfbench/probe.py WORKLOAD SEED WORKDIR``
with the benchmark's environment; prints ``time.monotonic()`` once the first
simulated event has fired.  That clock is system-wide, so the parent's start
time and this reading give the set-up time: interpreter start, importing
``repro``, loading the backend and building the first system.
"""

import sys
import time
from pathlib import Path

from suite import WORKLOADS


def main() -> None:
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    system = WORKLOADS[name](seed, workdir).first_system()
    system.run(max_events=1)
    if system.simulator.scheduler.fired != 1:
        raise SystemExit("the first system fired no event")
    print(time.monotonic())


if __name__ == "__main__":
    main()
