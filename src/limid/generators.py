"""Built-in problem families.

Two families are provided: a periodic health-monitoring herd problem (test,
then decide whether to treat, repeated over N periods, with per-period
treatment costs and a final sale price) and a load-monitoring network (N
sensors report a common load, N independent fortification decisions, one
failure node depending on load and all decisions, a single value node
combining fortification costs with a no-failure reward).  Every chance
and decision node of both families is binary, and only the size and the
seed vary.

Both support seeded randomization for benchmarking: every CPT row gets
independent uniform noise in [0, CPT_NOISE_SPAN] added per entry and is
then renormalized; utilities stay fixed.  The sampling scheme is this
package's own convention, so benchmark reports record the seed with every
result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import numpy as np

from .diagram import Cpt, InfluenceDiagram, Node, NodeKind, UtilityMap

CPT_NOISE_SPAN = 0.3

# The herd: a pig is ill at month 1 with probability 0.1; the test has
# specificity 0.8 and sensitivity 0.9; treatment cures an ill pig with
# probability 0.5 (spontaneous recovery 0.1) and keeps a healthy pig
# healthy with probability 0.9 (0.8 untreated); treatment costs 100 and
# the final sale brings 1000 when healthy, 300 when ill.
P_ILL_INITIAL = 0.1
SPECIFICITY = 0.8
SENSITIVITY = 0.9
P_ILL_AFTER = {  # by (health, action) of the month before
    ("healthy", "pass"): 0.2,
    ("healthy", "treat"): 0.1,
    ("ill", "pass"): 0.9,
    ("ill", "treat"): 0.5,
}
TREAT_COST = 100.0
PRICE_HEALTHY = 1000.0
PRICE_ILL = 300.0


@dataclass(frozen=True)
class PigFarmSpec:
    """Size and seed of the N-period herd problem; ``seed=None`` keeps the
    herd parameters above exactly, a seed perturbs the CPTs."""

    n_periods: int = 3
    seed: Optional[int] = None


def gen_pigfarm(spec: PigFarmSpec = PigFarmSpec()) -> InfluenceDiagram:
    """Build the herd diagram: H_i -> T_i -> D_i chains with value nodes.

    Node order per period i: health H_i, test T_i, decision D_i, cost value
    V_i; then the final health H_{N+1} and sale value V_{N+1}.  Arcs:
    H_i -> T_i, T_i -> D_i, (H_i, D_i) -> H_{i+1}, D_i -> V_i,
    H_{N+1} -> V_{N+1}.  Decisions see only their own test result.
    """
    if spec.n_periods < 1:
        raise ValueError("n_periods must be at least 1")
    n = spec.n_periods
    nodes: List[Node] = []
    cpts: Dict[str, Cpt] = {}
    utilities: Dict[str, UtilityMap] = {}

    health = ("healthy", "ill")
    test = ("negative", "positive")
    act = ("pass", "treat")

    transition = np.array(
        [[1 - P_ILL_AFTER[(h, a)], P_ILL_AFTER[(h, a)]] for h in health for a in act]
    )

    for i in range(1, n + 1):
        h, t, d, v = f"H{i}", f"T{i}", f"D{i}", f"V{i}"
        if i == 1:
            nodes.append(Node(h, NodeKind.CHANCE, health))
            cpts[h] = Cpt(h, np.array([[1 - P_ILL_INITIAL, P_ILL_INITIAL]]))
        else:
            nodes.append(Node(h, NodeKind.CHANCE, health, (f"H{i-1}", f"D{i-1}")))
            cpts[h] = Cpt(h, transition)
        nodes.append(Node(t, NodeKind.CHANCE, test, (h,)))
        cpts[t] = Cpt(
            t,
            np.array(
                [[SPECIFICITY, 1 - SPECIFICITY], [1 - SENSITIVITY, SENSITIVITY]]
            ),
        )
        nodes.append(Node(d, NodeKind.DECISION, act, (t,)))
        nodes.append(Node(v, NodeKind.VALUE, ("skip", "inject"), (d,)))
        cpts[v] = Cpt(v, np.eye(2))
        utilities[v] = UtilityMap(v, np.array([0.0, -TREAT_COST]))

    last_h, last_v = f"H{n+1}", f"V{n+1}"
    nodes.append(Node(last_h, NodeKind.CHANCE, health, (f"H{n}", f"D{n}")))
    cpts[last_h] = Cpt(last_h, transition)
    nodes.append(Node(last_v, NodeKind.VALUE, ("sell_healthy", "sell_ill"), (last_h,)))
    cpts[last_v] = Cpt(last_v, np.eye(2))
    utilities[last_v] = UtilityMap(last_v, np.array([PRICE_HEALTHY, PRICE_ILL]))

    diagram = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)
    if spec.seed is not None:
        diagram = perturb_cpts(diagram, seed=spec.seed)
    return diagram


@dataclass(frozen=True)
class NMonitoringSpec:
    """Size and seed of the load-monitoring family.

    Structure is fixed (L -> R_i -> A_i, (L, A_*) -> F, (A_*, F) -> T) and
    every chance and decision node is binary; the tables are sampled from a seeded recipe that
    keeps the obvious monotonicities: a higher load reads higher and fails
    more, and each fortification scales the failure odds down by a factor.
    """

    n_monitors: int = 2
    seed: int = 0


def gen_nmonitoring(spec: NMonitoringSpec = NMonitoringSpec()) -> InfluenceDiagram:
    """Build a monitoring diagram from a seeded recipe.

    Sampling (numpy default_rng(seed), in this order): load-high probability
    U(0.3, 0.7); per-monitor report noise U(0.1, 0.3); base failure
    probabilities U(0.05, 0.25) at low load and U(0.5, 0.95) at high load;
    fortification factor U(0.3, 0.7); per-monitor costs U(20, 80); reward
    U(500, 1500).  A monitor reads the true load with weight 1 and the other
    with weight exp(-1/noise).  With s fortifications the failure
    probability is base(load) * factor**s; the value is the reward if
    nothing fails, less the costs of the fortifications made.
    """
    if spec.n_monitors < 1:
        raise ValueError("n_monitors must be at least 1")
    n = spec.n_monitors
    rng = np.random.default_rng(spec.seed)

    p_high = rng.uniform(0.3, 0.7)
    noise = [float(rng.uniform(0.1, 0.3)) for _ in range(n)]
    fail_low = rng.uniform(0.05, 0.25)
    fail_high = rng.uniform(0.5, 0.95)
    factor = rng.uniform(0.3, 0.7)
    costs = [float(rng.uniform(20.0, 80.0)) for _ in range(n)]
    reward = rng.uniform(500.0, 1500.0)

    nodes: List[Node] = [Node("L", NodeKind.CHANCE, ("load0", "load1"))]
    cpts: Dict[str, Cpt] = {"L": Cpt("L", np.array([[1 - p_high, p_high]]))}
    utilities: Dict[str, UtilityMap] = {}

    for i in range(1, n + 1):
        r, a = f"R{i}", f"A{i}"
        nodes.append(Node(r, NodeKind.CHANCE, ("read0", "read1"), ("L",)))
        cpts[r] = Cpt(r, np.array([_report_row(l, noise[i - 1]) for l in (0, 1)]))
        nodes.append(Node(a, NodeKind.DECISION, ("fort0", "fort1"), (r,)))

    action_names = [f"A{i}" for i in range(1, n + 1)]
    nodes.append(Node("F", NodeKind.CHANCE, ("sev0", "sev1"), ("L", *action_names)))
    rows = []
    for l in (0, 1):
        base = fail_low + (fail_high - fail_low) * l
        for combo in np.ndindex(*[2] * n):
            p = base * factor ** float(sum(combo))
            rows.append([1 - p, p])
    cpts["F"] = Cpt("F", np.array(rows))

    t_states = []
    t_utils = []
    for *acts, f in np.ndindex(*[2] * (n + 1)):
        t_states.append("_".join(f"fort{a}" for a in acts) + f"_sev{f}")
        spent = sum(costs[i] * acts[i] for i in range(n))
        t_utils.append(reward * (1 - f) - spent)
    nodes.append(Node("T", NodeKind.VALUE, tuple(t_states), (*action_names, "F")))
    cpts["T"] = Cpt("T", np.eye(len(t_states)))
    utilities["T"] = UtilityMap("T", np.array(t_utils))

    return InfluenceDiagram(nodes=nodes, cpts=cpts, utilities=utilities)


def _report_row(load: int, noise: float) -> np.ndarray:
    """Reading distribution peaked at the true load, spread by noise."""
    weights = np.exp(-np.abs(np.array([0.0, 1.0]) - load) / noise)
    return weights / weights.sum()


def perturb_cpts(diagram: InfluenceDiagram, seed: int) -> InfluenceDiagram:
    """Randomized variant: per-entry uniform noise in [0, CPT_NOISE_SPAN]
    added to every CPT row, rows renormalized; utilities untouched.

    Rows are perturbed in node declaration order, rows ascending, so a seed
    pins the instance bit for bit.
    """
    rng = np.random.default_rng(seed)
    cpts = {}
    for node in diagram.nodes:
        if node.name not in diagram.cpts:
            continue
        rows = diagram.cpts[node.name].rows.copy()
        for i in range(rows.shape[0]):
            rows[i] += rng.uniform(0.0, CPT_NOISE_SPAN, size=rows.shape[1])
            rows[i] /= rows[i].sum()
        cpts[node.name] = Cpt(node.name, rows)
    return InfluenceDiagram(
        nodes=list(diagram.nodes), cpts=cpts, utilities=dict(diagram.utilities)
    )
