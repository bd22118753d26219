"""Export a model as LP text and solve it with the bundled MILP backend.

The compiler produces a solver-agnostic model; LP text is the interchange
format for driving an external mixed-integer solver as a subprocess.  The
bundled ``limid-milp`` executable (scipy's HiGHS under the hood) is such a
solver, so the whole bridge can be demonstrated without installing
anything: export, solve, parse the listing back, re-check every row, and
read the strategy off the policy bits.

Run:  python3 demos/lp_roundtrip.py
"""

from limid.generators import PigFarmSpec, gen_pigfarm
from limid.mip import build_base_model
from limid.rjt import build_rjt
from limid.solve import (
    export_lp,
    reference_backend_command,
    solve_external,
    solve_reference,
)


def main():
    d = gen_pigfarm(PigFarmSpec(n_periods=2))
    model, ctx = build_base_model(build_rjt(d), d)

    text = export_lp(model)
    lines = text.splitlines()
    print(f"LP export: {len(lines)} lines, {len(text)} bytes; first rows:")
    for line in lines[:14]:
        print(f"  {line}")
    print("  ...")

    command = reference_backend_command()
    print(f"\nexternal solver command: python {' '.join(command[1:])}")
    ext = solve_external(model, ctx, command)
    print(f"status {ext.status}, objective {ext.objective_value}")

    ref = solve_reference(model, ctx)
    gap = abs(ext.objective_value - ref.objective_value)
    print(f"reference enumeration gives {ref.objective_value} (gap {gap:.2e})")

    print(f"strategies identical: {ext.strategy == ref.strategy}")
    for name, rule in sorted(ext.strategy.rules.items()):
        print(f"  {name}: {rule}")


if __name__ == "__main__":
    main()
