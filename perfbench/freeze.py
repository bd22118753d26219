"""Recompute the frozen expected optima of the default seed.

    python3 perfbench/freeze.py

Writes ``expected_seed1.json``: for every workload, the reference
enumerator's optimum of each op at ``workloads.DEFAULT_SEED``.
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

frozen = {}
for name, ops in workloads.WORKLOADS.items():
    diagrams = workloads.generate(ops, workloads.DEFAULT_SEED)
    frozen[name] = {op.label: workloads.reference_optimum(op, diagrams[op.instance])
                    for op in ops}
workloads.FROZEN_FILE.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
print(f"wrote {workloads.FROZEN_FILE}")
