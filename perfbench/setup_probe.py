"""Set-up probe: import the package, parse a scenario, build and prepare its model.

Run as ``python3 perfbench/setup_probe.py <scenario.cfg>`` in a fresh
interpreter.  It prints ``ready`` once the model is prepared (KL eigenpairs
for every correlation length), so the parent can time the span from process
start to that line.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from randset_pde import cli  # noqa: E402

cfg = cli.parse_config(sys.argv[1])
qoi, grid = cli._build_qoi(cfg)
model = qoi.build()
model.prepare(grid)
print("ready", flush=True)
