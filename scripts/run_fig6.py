#!/usr/bin/env python3
"""Reproduce the transistor squeezing scenario: transmission vs emitter voltage.

Writes out/fig6.csv and out/fig6.json and prints the peak convergence table.
"""

import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE / "src"))  # run from a checkout without installing

from airystack.cli import main  # noqa: E402

if __name__ == "__main__":
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    sys.exit(main(["sweep", str(HERE / "configs" / "fig6.json"), "--out", str(out / "fig6")]))
