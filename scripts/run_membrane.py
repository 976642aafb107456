#!/usr/bin/env python3
"""Run the desk-scale L-shaped membrane experiment and the bound comparison.

Writes p-box, interval samples, interval mean field and plots under
runs/membrane/propagate/, and the random-set vs parametric ordering report
under runs/membrane/compare/, each with its own manifest.json.
"""

import sys

from randset_pde.cli import main

if __name__ == "__main__":
    out = sys.argv[1] if len(sys.argv) > 1 else "runs/membrane"
    code = main(["propagate", "--config", "membrane", "--out-dir", f"{out}/propagate"])
    if code == 0:
        code = main(["compare", "--config", "membrane", "--out-dir", f"{out}/compare"])
    print(f"outputs in {out}/propagate and {out}/compare")
    raise SystemExit(code)
