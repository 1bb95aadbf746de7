"""How fast the host runs right now, from a fixed unit of reference work.

On a shared virtual machine the same code can run up to 1.9x slower, in
CPU seconds too, for spells of seconds to minutes while other tenants
load the same cores. The benchmark therefore times this reference unit
alongside everything it measures, and scales each measured time by
NOMINAL_S / (the reference's time then): the time the work would have
taken on a host where the reference takes NOMINAL_S.

The unit imitates the program's hot paths, so that it slows down about as
much as the program does: numpy scalar arithmetic in a Python double loop
(the neighbour scan of `gaitpipe.tracker.dbscan_labels`) and JSON frame
lines parsed into tuples and dicts (`gaitpipe.pointcloud.read_session`).
Changing the unit or NOMINAL_S changes every scaled time, so both stay
fixed; compare scaled times only between runs of the same benchmark code.
"""

from __future__ import annotations

import json
import statistics
import time

import numpy as np

NOMINAL_S = 0.015  # CPU seconds of one unit on the machine of the first numbers

_XYZ = np.random.default_rng(0).random((70, 3))
_LINE = json.dumps({
    "t": 12.5,
    "points": [[round(float(v), 6) for v in row] + [0.1]
               for row in np.random.default_rng(1).random((10, 3))],
})


def _unit() -> int:
    xyz = _XYZ
    close = 0
    for i in range(len(xyz)):
        for j in range(len(xyz)):
            d = xyz[i] - xyz[j]
            if d[0] * d[0] + d[1] * d[1] + d[2] * d[2] <= 0.1:
                close += 1
    cells: dict[tuple[int, int], list[tuple]] = {}
    for _ in range(120):
        frame = json.loads(_LINE)
        for p in frame["points"]:
            cells.setdefault((int(p[0] * 4), int(p[1] * 4)), []).append(tuple(p))
    return close + len(cells)


def reference_s(repeats: int = 3) -> float:
    """Median CPU seconds of one reference unit, over `repeats` runs of it."""
    times = []
    for _ in range(repeats):
        c0 = time.process_time()
        _unit()
        times.append(time.process_time() - c0)
    return statistics.median(times)
