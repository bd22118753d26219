"""Influence diagram toolkit.

Model multistage decision problems as influence diagrams (chance, decision,
and value nodes with conditional probability tables), compile them through
gradual rooted junction trees into mixed-integer linear programs, and solve
for strategies that maximize expected utility or lower-tail conditional
value at risk, optionally under chance, logical, budget, or CVaR-floor
constraints.

Names are imported on first use (PEP 562), so a process that needs only
one module, such as the ``limid.milp_backend`` solver child, loads only
that module.
"""

import importlib

_EXPORTS = {
    "diagram": (
        "CapExceededError", "ConfigIndexer", "Cpt", "InfluenceDiagram", "Node",
        "NodeKind", "Strategy", "UtilityMap", "check_order", "check_strategy",
        "topological_order", "validate_diagram",
    ),
    "diagram_io": (
        "diagram_from_dict", "diagram_to_dict", "load_diagram",
        "load_strategy", "save_diagram", "save_strategy", "strategy_from_dict",
        "strategy_to_dict",
    ),
    "generators": (
        "NMonitoringSpec", "PigFarmSpec", "gen_nmonitoring", "gen_pigfarm",
        "perturb_cpts",
    ),
    "inference": (
        "Evaluator", "OracleResult", "TailRisk", "UtilityDistribution",
        "cvar_of_distribution", "enumerate_strategies", "evaluate_strategy",
        "joint_marginal", "oracle_optimize", "strategy_count", "tail_witness",
    ),
    "mip": (
        "CompileContext", "CvarBlock", "LinearConstraint", "MipModel",
        "VarBlock", "VarStore", "add_risk", "build_base_model",
        "linearize_decision_coupling", "model_stats",
    ),
    "risk": (
        "BudgetConstraint", "ChanceConstraint", "CvarConstraint",
        "CvarObjective", "EventSpec", "LogicalConstraint", "MeuObjective",
        "budget_from_dict", "parse_chance_text", "parse_event",
        "parse_logical_text", "trigger_mask", "validate_risk_spec",
    ),
    "rjt": (
        "Cluster", "RootedJunctionTree", "build_rjt", "directed_path_clusters",
        "modify_rjt", "reachable_roots", "to_dot", "tree_from_members",
        "validate_rjt",
    ),
    "solve": (
        "DecodedSolution", "ExternalSolverError", "Solution", "check_solution",
        "decode", "export_lp", "propagate_cluster_marginals", "solve_external",
        "solve_reference", "write_lp",
    ),
    "transform": (
        "MergedValueMap", "merge_value_nodes",
    ),
}
_MODULE_OF = {
    name: module for module, names in _EXPORTS.items() for name in names
}

__version__ = "0.1.0"

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
