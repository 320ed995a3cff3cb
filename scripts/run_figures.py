#!/usr/bin/env python3
"""Reproduce both squeezing figures: the barrier well (fig4, transmission
vs -b1) and the transistor (fig6, transmission vs emitter voltage).

Writes out/fig4.csv, out/fig4.json, out/fig6.csv and out/fig6.json and
prints each figure's peak convergence table.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))  # run from a checkout without installing

from airystack.cli import main  # noqa: E402

if __name__ == "__main__":
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    for name in ("fig4", "fig6"):
        code = main(["sweep", str(HERE / "configs" / f"{name}.json"), "--out", str(out / name)])
        if code:
            sys.exit(code)
