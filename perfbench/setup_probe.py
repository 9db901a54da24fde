"""Time one workload set-up in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py WORKLOAD SEED

Prints the seconds from the first import of the program through input
generation and, for the simulator workloads, ``Simulator(...)``
construction, then the speed loop's time before and after (see
``speed.py``). ``run.py`` starts this script several times per run and
reports the median as ``setup_s``; a fresh process is what makes
import cost part of the figure.
"""

import sys
from pathlib import Path
from time import perf_counter

from speed import loop_seconds

if __name__ == "__main__":
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    name, seed = sys.argv[1], int(sys.argv[2])
    loop_before = loop_seconds()
    start = perf_counter()

    import workloads  # first import of the program

    if name == workloads.CERTIFY:
        workloads.CertifyBatch.generate(seed)
    else:
        workloads.SIM_WORKLOADS[name].build(seed)
    elapsed = perf_counter() - start
    print(repr(elapsed), repr(loop_before), repr(loop_seconds()))
