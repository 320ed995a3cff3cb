"""Set-up cost in a fresh interpreter: import, config load, request build.

    python3 setup_probe.py SRC CONFIG...

Prints the seconds from before ``import airystack`` to the last request
built, the way ``airystack sweep`` / ``resonances`` start up.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from airystack import SweepRequest  # noqa: E402
from airystack.cli import load_config  # noqa: E402

for path in sys.argv[2:]:
    cfg = load_config(path)
    if cfg.sweep is not None:
        SweepRequest(
            structure=cfg.spec,
            tuned_layer=cfg.sweep["tuned_layer"],
            grid_lo=cfg.sweep["lo"],
            grid_hi=cfg.sweep["hi"],
            grid_points=int(cfg.sweep.get("points", 2001)),
            epsilons=tuple(cfg.sweep.get("epsilons", (0.5, 0.25, 0.1))),
            energy=cfg.energy,
            tuned_sign=float(cfg.sweep.get("tuned_sign", -1.0)),
            peak_floor=float(cfg.sweep.get("peak_floor", 0.01)),
        )
print(time.perf_counter() - t0)
