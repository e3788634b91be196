"""Time a fixed CPU kernel to gauge how fast the machine runs right now.

    python bench/calibrate.py    # prints the kernel's wall time in seconds

The kernel mixes interpreter work with NumPy calls on small and mid-sized
arrays, as the solver's time steps do, and uses nothing of discflux.  On a
shared machine, speed shifts last minutes and slow every timing by up to a
third together; `run.py` runs this before the first repetition and after each
one, and scales a repetition's timings by the reference time over the mean of
its two neighbouring calibrations, so that such shifts do not read as changes
of the program.
"""

import time

import numpy as np


def kernel() -> float:
    small = np.linspace(0.0, 1.0, 400)
    mid = np.linspace(0.0, 1.0, 1000)
    t0 = time.perf_counter()
    acc = 0.0
    for _ in range(6000):
        for x in (small, mid):
            d = np.diff(x)
            acc += float(np.max(np.where(d > 0, d, 0.0) - 0.5 * np.abs(x[1:] - x[:-1])))
        acc += sum(j * 0.5 for j in range(20))
    elapsed = time.perf_counter() - t0
    if not acc > 0:
        raise RuntimeError("calibration kernel produced no result")
    return elapsed


if __name__ == "__main__":
    print(repr(kernel()))
