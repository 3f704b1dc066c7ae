"""A fixed piece of work that measures how fast the host runs right now.

On a shared VM the speed of one process moves by tens of percent over
seconds to minutes, as other tenants load the host. The probe mixes the kind
of work the workloads do (Python loops around small numpy calls) and does not
touch netfeedback, so a change to the program cannot move it. run.py scales
every timing by PROBE_REFERENCE_S / (the probe's median time beside it).
"""

import time

import numpy as np

_VALUES = np.linspace(-1.0, 1.0, 3000)


def run() -> float:
    """Seconds one probe takes now (about 1.5 ms on an idle 2-vCPU VM)."""
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(300):
        acc += float(np.abs(_VALUES - (i % 7) * 0.1).argmin())
        for j in range(30):
            acc += j * 0.5
    return time.perf_counter() - t0
