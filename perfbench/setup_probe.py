"""Time one set-up in a fresh interpreter: import bouex and build a workload.

    python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from interpreter start of this script to inputs built.
"""

import time

T0 = time.perf_counter()

import os  # noqa: E402
import sys  # noqa: E402

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                                "src"))
import workloads  # noqa: E402

workloads.build(sys.argv[1], int(sys.argv[2]))
print(repr(time.perf_counter() - T0))
