#!/usr/bin/env python3
"""Propagate the imprecise Gaussian family (interval mean and deviation).

The upper/lower CDF envelopes at b = 0 should approach Phi(1) = 0.8413 and
Phi(-1) = 0.1587 as the sample size grows.  Each command writes its own
directory, <out>/propagate and <out>/compare, with its own manifest.json.
"""

import sys

from randset_pde.cli import main

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "runs/gauss_family"
    code = main(["propagate", "--config", "gauss_family", "--out-dir", f"{out}/propagate"])
    if code == 0:
        code = main(["compare", "--config", "gauss_family", "--out-dir", f"{out}/compare"])
    print(f"outputs in {out}/propagate and {out}/compare")
    raise SystemExit(code)
