"""Workload definitions: seeded instances, the CLI argv of each op, and the
expected optimum of each op from the exact reference enumerator.

One op is one call of ``limid solve FILE --backend external --json`` or of
``limid compare FILE --json``.  The same ``Op`` fields give both the argv
the program receives and the model the reference enumerator solves, so the
expected optimum always answers the question the op asked.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from limid.diagram_io import save_diagram
from limid.generators import (
    NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm,
)
from limid.mip import add_risk, build_base_model
from limid.risk import CvarObjective, parse_chance_text
from limid.rjt import build_rjt, modify_rjt
from limid.solve import STATUS_OPTIMAL, solve_reference
from limid.transform import merge_value_nodes

REL_TOL = 1e-6
DEFAULT_SEED = 1
FROZEN_FILE = Path(__file__).resolve().parent / "expected_seed1.json"

CHANCE_MODIFY = ("H1", "H2", "H3")
CHANCE_SPEC = "P(H2=ill|H3=ill)<=0.5"


@dataclass(frozen=True)
class Op:
    command: str  # "solve" or "compare"
    family: str  # "pigfarm" or "nmonitoring"
    n: int
    merge: bool = False
    modify: Tuple[str, ...] = ()
    chance: Optional[str] = None
    cvar: Optional[float] = None

    @property
    def instance(self) -> str:
        return f"{self.family}-{self.n}"

    @property
    def label(self) -> str:
        parts = [self.command, self.instance]
        if self.merge:
            parts.append("merged")
        if self.chance:
            parts.append("chance")
        if self.cvar is not None:
            parts.append(f"cvar{self.cvar}")
        return ":".join(parts)

    def argv(self, path: str) -> List[str]:
        argv = [self.command, path, "--json"]
        if self.command == "solve":
            argv += ["--backend", "external"]
        if self.merge:
            argv.append("--merge-values")
        if self.modify:
            argv += ["--modify", ",".join(self.modify)]
        if self.chance:
            argv += ["--chance", self.chance]
        if self.cvar is not None:
            argv += ["--objective", f"cvar:{self.cvar}"]
        return argv


def _pigfarm_small() -> List[Op]:
    ops = []
    for n in (3, 4, 5, 6):
        ops.append(Op("solve", "pigfarm", n))
        ops.append(Op("solve", "pigfarm", n, modify=CHANCE_MODIFY,
                      chance=CHANCE_SPEC))
    return ops


def _nmonitoring_meu() -> List[Op]:
    return [Op("solve", "nmonitoring", n) for n in (5, 6)]


def _pigfarm_cvar() -> List[Op]:
    return [Op("solve", "pigfarm", n, merge=True, cvar=alpha)
            for n in (3, 4, 5) for alpha in (0.05, 0.5)]


def _verify() -> List[Op]:
    ops = []
    for n in (3, 4):
        ops.append(Op("compare", "pigfarm", n))
        ops.append(Op("compare", "pigfarm", n, merge=True, cvar=0.15))
    ops += [Op("compare", "nmonitoring", n) for n in (3, 4, 5)]
    return ops


# One pass of a workload runs its ops once, in this order; the first op is
# the warm-up op of set-up.
WORKLOADS = {
    "pigfarm-small": _pigfarm_small(),
    "nmonitoring-meu": _nmonitoring_meu(),
    "pigfarm-cvar": _pigfarm_cvar(),
    "verify": _verify(),
}


def generate(op_list: List[Op], seed: int):
    """Seeded diagram of every instance the ops use, keyed by instance."""
    diagrams = {}
    for op in op_list:
        if op.instance in diagrams:
            continue
        if op.family == "pigfarm":
            spec = PigFarmSpec(n_periods=op.n, seed=seed)
            diagrams[op.instance] = gen_pigfarm(spec)
        else:
            spec = NMonitoringSpec(n_monitors=op.n, seed=seed)
            diagrams[op.instance] = gen_nmonitoring(spec)
    return diagrams


def write_instances(diagrams, directory: Path) -> Dict[str, str]:
    directory.mkdir(parents=True, exist_ok=True)
    paths = {}
    for key, diagram in diagrams.items():
        path = directory / f"{key}.json"
        save_diagram(diagram, str(path))
        paths[key] = str(path)
    return paths


def reference_optimum(op: Op, diagram) -> float:
    """Optimum of the op's model by exhaustive strategy enumeration."""
    if op.merge:
        diagram, _ = merge_value_nodes(diagram)
    tree = build_rjt(diagram)
    if op.modify:
        tree = modify_rjt(tree, list(op.modify))
    model, ctx = build_base_model(tree, diagram)
    if op.chance:
        add_risk(model, parse_chance_text(op.chance), ctx)
    if op.cvar is not None:
        add_risk(model, CvarObjective(alpha=op.cvar), ctx)
    solution = solve_reference(model, ctx)
    if solution.status != STATUS_OPTIMAL:
        raise RuntimeError(f"{op.label}: reference status {solution.status}")
    return float(solution.objective_value)


def frozen_optima(workload: str) -> Dict[str, float]:
    """Expected optimum per op label at the default seed, as frozen by
    ``freeze.py``; other seeds use ``reference_optimum``."""
    return json.loads(FROZEN_FILE.read_text())[workload]


def within(got: Optional[float], expected: float) -> bool:
    return got is not None and abs(got - expected) <= REL_TOL * abs(expected)


def check_output(op: Op, rc: int, stdout: str, expected: float) -> Optional[str]:
    """None when the op's answer is verified, else the reason it failed."""
    if rc != 0:
        return f"exit code {rc}"
    lines = stdout.strip().splitlines()
    try:
        record = json.loads(lines[-1])
    except (IndexError, ValueError):
        return "no JSON record on stdout"
    if op.command == "solve":
        answers = [(record.get("status"), record.get("objective_value"))]
    else:
        if not record.get("ok"):
            return "compare reported a mismatch"
        answers = [(row.get("status"), row.get("objective_value"))
                   for row in record.get("rows", [])]
        if len(answers) < 2:
            return "compare reported fewer than two backends"
    for status, value in answers:
        if status != "optimal":
            return f"status {status}"
        if not within(value, expected):
            return f"objective {value!r} != expected {expected!r}"
    return None
