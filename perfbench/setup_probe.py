"""Set-up of one workload in a fresh interpreter; prints its duration in seconds.

Usage: python3 setup_probe.py <workload> <seed> <workdir>
Set-up is the import of hklab plus building every scenario's source
(`make_cap`, `make_axisymmetric`, writing the OFF file).  The caller puts the
package's `src` directory on PYTHONPATH.
"""

import sys
import time
from pathlib import Path

import workloads

start = time.perf_counter()
import hklab.cli  # noqa: E402,F401  (the import is part of what is timed)

workloads.build_sources(
    workloads.draw(sys.argv[1], int(sys.argv[2])), Path(sys.argv[3]), workloads.direct_call
)
print(repr(time.perf_counter() - start))
