"""Shared test utilities: a seeded random-diagram generator and slow
pure-Python reference computations used as independent oracles.

The slow oracles deliberately avoid the package's vectorized evaluation
paths: they walk full joint assignments with plain loops and dicts, so a
bug in the numpy broadcasting or the MIP compilation cannot hide in the
expected values.
"""

from __future__ import annotations

import itertools
import sys
from typing import Dict, List, Optional, Tuple

import numpy as np

from limid._tensor import place_table
from limid.diagram import (
    ConfigIndexer,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    Strategy,
    UtilityMap,
    topological_order,
)
from limid.generators import NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm
from limid.inference import UtilityDistribution, cvar_of_distribution, strategy_count
from limid.mip import (
    CompileContext,
    LinearConstraint,
    MipModel,
    add_risk,
    build_base_model,
)
from limid.risk import (
    BudgetConstraint,
    CvarConstraint,
    CvarObjective,
    MeuObjective,
    parse_chance_text,
    parse_logical_text,
)
from limid.rjt import RootedJunctionTree, build_rjt, modify_rjt
from limid.transform import merge_value_nodes


def random_diagram(
    rng: np.random.Generator,
    min_nodes: int = 3,
    max_nodes: int = 8,
    max_states: int = 3,
    max_parents: int = 3,
    require_value: bool = False,
    min_values: int = 0,
) -> InfluenceDiagram:
    """A random valid influence diagram in declaration = topological order."""
    n = int(rng.integers(min_nodes, max_nodes + 1))
    nodes: List[Node] = []
    cpts: Dict[str, Cpt] = {}
    utilities: Dict[str, UtilityMap] = {}
    non_value: List[Node] = []
    n_values = 0
    for i in range(n):
        name = f"N{i}"
        if i == 0:
            kind = NodeKind.CHANCE
        else:
            roll = rng.random()
            remaining = n - i
            must_add_value = (
                (require_value or min_values > 0)
                and n_values < max(min_values, 1 if require_value else 0)
                and remaining <= max(min_values, 1) - n_values
            )
            if must_add_value or roll < 0.25:
                kind = NodeKind.VALUE
            elif roll < 0.45:
                kind = NodeKind.DECISION
            else:
                kind = NodeKind.CHANCE
        n_states = int(rng.integers(2, max_states + 1))
        k = int(rng.integers(0, min(len(non_value), max_parents) + 1))
        if k:
            picks = rng.choice(len(non_value), size=k, replace=False)
            parents = tuple(non_value[int(j)].name for j in sorted(picks))
        else:
            parents = ()
        states = tuple(f"s{j}" for j in range(n_states))
        node = Node(name=name, kind=kind, states=states, parents=parents)
        nodes.append(node)
        if kind != NodeKind.VALUE:
            non_value.append(node)
        else:
            n_values += 1
        pcount = 1
        for p in parents:
            pcount *= len(next(nd for nd in nodes if nd.name == p).states)
        if kind != NodeKind.DECISION:
            raw = rng.random((pcount, n_states)) + 0.1
            cpts[name] = Cpt(owner=name, rows=raw / raw.sum(axis=1, keepdims=True))
        if kind == NodeKind.VALUE:
            utilities[name] = UtilityMap(
                owner=name,
                values=np.round(rng.uniform(-100.0, 100.0, size=n_states), 3),
            )
    return InfluenceDiagram(nodes=tuple(nodes), cpts=cpts, utilities=utilities)


def small_random_diagram(
    rng: np.random.Generator, limit: int = 128, **kwargs
) -> InfluenceDiagram:
    """Redraw until the strategy space has at most ``limit`` members.

    Keeps tests that enumerate every strategy away from draws where a
    decision node happens to get a huge parent-configuration table.
    """
    while True:
        d = random_diagram(rng, **kwargs)
        total = 1
        for node in d.nodes:
            if node.kind == NodeKind.DECISION:
                pcount = 1
                for p in node.parents:
                    pcount *= d.n_states(p)
                total *= len(node.states) ** pcount
                if total > limit:
                    break
        if total <= limit:
            return d


def reference_row(terms, sense: str, rhs: float, tag: str) -> LinearConstraint:
    """One row written term by term: the coefficients of a variable are
    summed at its first place, and variables whose sum is zero dropped.
    The compiler's array-built rows must read back as exactly these."""
    merged: Dict[int, float] = {}
    for coef, var in terms:
        merged[int(var)] = merged.get(int(var), 0.0) + coef
    packed = tuple((coef, var) for var, coef in merged.items() if coef != 0.0)
    return LinearConstraint(packed, sense, float(rhs), tag)


def merged_indexer(diagram: InfluenceDiagram, mapping) -> ConfigIndexer:
    """Index of a merged value node's states over the original value nodes
    of ``diagram`` that ``mapping`` (a ``MergedValueMap``) names."""
    components = mapping.components
    return ConfigIndexer(components, [diagram.n_states(v) for v in components])


def tree_path(tree: RootedJunctionTree, start: str, end: str) -> Tuple[str, ...]:
    """Roots on the directed path C_start -> C_end, both ends included, up
    ``tree.parent``; empty when C_start is not an ancestor of C_end."""
    chain = [end]
    while chain[-1] != start and tree.parent[chain[-1]] is not None:
        chain.append(tree.parent[chain[-1]])
    return tuple(reversed(chain)) if chain[-1] == start else ()


def enumerate_strategies(diagram: InfluenceDiagram):
    """All deterministic strategies, lexicographic, each exactly once, via
    plain itertools: the order the enumerators' blocks must reproduce.

    Order: decisions in declaration order, each rule read as a tuple of
    chosen state indices per ascending parent configuration; earlier
    decisions are more significant.
    """
    decisions = [n.name for n in diagram.nodes if n.kind == NodeKind.DECISION]
    spaces = []
    for d in decisions:
        pcount = 1
        for p in diagram.parents(d):
            pcount *= diagram.n_states(p)
        spaces.append(
            itertools.product(range(diagram.n_states(d)), repeat=pcount)
        )
    for combo in itertools.product(*spaces):
        yield Strategy(rules=dict(zip(decisions, combo)))


def _parent_row(diagram: InfluenceDiagram, name: str, assignment: Dict[str, int]) -> int:
    row = 0
    for p in diagram.parents(name):
        row = row * diagram.n_states(p) + assignment[p]
    return row


def slow_distribution(
    diagram: InfluenceDiagram, strategy: Strategy, round_digits: int = 9
) -> Dict[float, float]:
    """Total-utility distribution by explicit joint enumeration."""
    order = topological_order(diagram)
    dist: Dict[float, float] = {}
    ranges = [range(diagram.n_states(n)) for n in order]
    for combo in itertools.product(*ranges):
        assignment = dict(zip(order, combo))
        prob = 1.0
        utility = 0.0
        for name in order:
            s = assignment[name]
            kind = diagram.kind(name)
            if kind == NodeKind.DECISION:
                row = _parent_row(diagram, name, assignment)
                if strategy.rules[name][row] != s:
                    prob = 0.0
                    break
            else:
                row = _parent_row(diagram, name, assignment)
                prob *= float(diagram.cpts[name].rows[row, s])
                if prob == 0.0:
                    break
                if kind == NodeKind.VALUE:
                    utility += float(diagram.utilities[name].values[s])
        if prob > 0.0:
            key = round(utility, round_digits)
            dist[key] = dist.get(key, 0.0) + prob
    return dist


def slow_expected(diagram: InfluenceDiagram, strategy: Strategy) -> float:
    return sum(u * p for u, p in slow_distribution(diagram, strategy).items())


def slow_meu(diagram: InfluenceDiagram) -> Tuple[float, Optional[Strategy]]:
    best, best_s = None, None
    for strategy in enumerate_strategies(diagram):
        eu = slow_expected(diagram, strategy)
        if best is None or eu > best:
            best, best_s = eu, strategy
    return best, best_s


def slow_cvar(dist: Dict[float, float], alpha: float) -> float:
    """Lower-tail CVaR of a utility->probability dict, by sorting."""
    atoms = sorted(dist.items())
    cum = 0.0
    acc = 0.0
    for u, p in atoms:
        if cum + p >= alpha - 1e-15:
            acc += (alpha - cum) * u
            return acc / alpha
        cum += p
        acc += p * u
    return acc / alpha


def slow_marginal(
    diagram: InfluenceDiagram,
    strategy: Strategy,
    scope: List[str],
) -> Dict[Tuple[int, ...], float]:
    """Joint marginal over scope by explicit enumeration."""
    order = topological_order(diagram)
    out: Dict[Tuple[int, ...], float] = {}
    ranges = [range(diagram.n_states(n)) for n in order]
    for combo in itertools.product(*ranges):
        assignment = dict(zip(order, combo))
        prob = 1.0
        for name in order:
            s = assignment[name]
            if diagram.kind(name) == NodeKind.DECISION:
                row = _parent_row(diagram, name, assignment)
                if strategy.rules[name][row] != s:
                    prob = 0.0
                    break
            else:
                row = _parent_row(diagram, name, assignment)
                prob *= float(diagram.cpts[name].rows[row, s])
                if prob == 0.0:
                    break
        if prob > 0.0:
            key = tuple(assignment[n] for n in scope)
            out[key] = out.get(key, 0.0) + prob
    return out


def dense_joint(
    diagram: InfluenceDiagram,
    strategy: Optional[Strategy],
    base: Optional[np.ndarray] = None,
) -> np.ndarray:
    """The joint under ``strategy`` as a plain product over the full grid.

    One axis per node in topological order; every CPT and every decision
    rule's 0/1 table is broadcast in and multiplied, one full-grid multiply
    per factor: the reference the evaluator's contractions must match.
    ``strategy=None`` gives the product of the CPTs alone; passing that as
    ``base`` multiplies in only the rule tables.
    """
    order = topological_order(diagram)
    sizes = [diagram.n_states(n) for n in order]
    pos = {n: i for i, n in enumerate(order)}
    grid = np.ones(sizes) if base is None else base
    for name in order:
        if diagram.kind(name) == NodeKind.DECISION:
            if strategy is None:
                continue
            rule = strategy.rules[name]
            rows = np.zeros((len(rule), diagram.n_states(name)))
            rows[np.arange(len(rule)), list(rule)] = 1.0
        elif base is None:
            rows = diagram.cpts[name].rows
        else:
            continue
        ps = diagram.parents(name)
        shaped = rows.reshape(
            [diagram.n_states(p) for p in ps] + [diagram.n_states(name)]
        )
        grid = grid * place_table(sizes, [pos[p] for p in ps] + [pos[name]], shaped)
    return grid


def compile_case(name, diagram, objective=MeuObjective(), constraints=(), modify=()):
    """``(name, diagram, model, ctx, objective, constraints)``: the model
    of the diagram's tree, widened over ``modify``, with every spec added."""
    tree = build_rjt(diagram)
    if modify:
        tree = modify_rjt(tree, list(modify))
    model, ctx = build_base_model(tree, diagram)
    for spec in (*constraints, objective):
        if not isinstance(spec, MeuObjective):
            add_risk(model, spec, ctx)
    return name, diagram, model, ctx, objective, list(constraints)


ENUMERATOR_GROUPS = ("verify", "pigfarm-cvar", "constrained", "random")


def enumerator_cases(group: str):
    """``(name, diagram, model, ctx, objective, constraints)`` of the
    instances of one group whose oracle and reference answers are frozen
    in ``data/enumerator_answers.json``: the ``verify`` and ``pigfarm-cvar``
    ops of perfbench at seeds 1-3, constrained pig farms, and the 150
    random diagrams (MEU, and merged under CVaR) of the oracle fuzz."""
    if group == "verify":
        for seed in (1, 2, 3):
            for n in (3, 4):
                d = gen_pigfarm(PigFarmSpec(n_periods=n, seed=seed))
                yield compile_case(f"verify:pigfarm-{n}:seed{seed}", d)
                yield compile_case(f"verify:pigfarm-{n}:merged:cvar0.15:seed{seed}",
                            merge_value_nodes(d)[0], CvarObjective(alpha=0.15))
            for n in (3, 4, 5):
                d = gen_nmonitoring(NMonitoringSpec(n_monitors=n, seed=seed))
                yield compile_case(f"verify:nmonitoring-{n}:seed{seed}", d)
    elif group == "pigfarm-cvar":
        for seed in (1, 2, 3):
            for n in (3, 4, 5):
                merged = merge_value_nodes(
                    gen_pigfarm(PigFarmSpec(n_periods=n, seed=seed)))[0]
                for alpha in (0.05, 0.5):
                    yield compile_case(
                        f"pigfarm-cvar:pigfarm-{n}:cvar{alpha}:seed{seed}",
                        merged, CvarObjective(alpha=alpha))
    elif group == "constrained":
        pig3 = gen_pigfarm(PigFarmSpec(n_periods=3, seed=1))
        all_treat = parse_logical_text("P(D1=treat&D2=treat&D3=treat)")
        yield compile_case("chance+logical:pigfarm-3:seed1", pig3, constraints=[
            parse_chance_text("P(H2=ill)<=0.37"),
            parse_chance_text("P(H3=ill)>=0.35"), all_treat],
            modify=("D1", "D2", "D3"))
        budget = BudgetConstraint(
            costs={d: {"treat": 1.0} for d in ("D1", "D2", "D3")}, limit=1.0)
        yield compile_case("logical+budget:pigfarm-3:seed1", pig3,
                    constraints=[all_treat, budget], modify=("D1", "D2", "D3"))
        for n in (3, 4, 5):
            d = gen_pigfarm(PigFarmSpec(n_periods=n, seed=1))
            yield compile_case(f"chance:pigfarm-{n}:seed1", d,
                        constraints=[parse_chance_text("P(H2=ill|H3=ill)<=0.5")],
                        modify=("H1", "H2", "H3"))
        yield compile_case("cvar-floor:pigfarm-3:merged:seed1", merge_value_nodes(pig3)[0],
                    constraints=[CvarConstraint(alpha=0.15, bound=100.0)])
    elif group == "random":
        rng = np.random.default_rng(2024)
        alphas = (0.05, 0.15, 0.5)
        for k in range(150):
            while True:
                d = random_diagram(rng, min_nodes=6, max_nodes=8,
                                   require_value=True)
                if strategy_count(d) <= 300:
                    break
            yield compile_case(f"random:{k}", d)
            yield compile_case(f"random:{k}:merged:cvar{alphas[k % 3]}",
                        merge_value_nodes(d)[0], CvarObjective(alpha=alphas[k % 3]))
    else:
        raise ValueError(f"unknown group {group!r}")


def tail_witness(dist: UtilityDistribution, alpha: float) -> Dict[str, np.ndarray]:
    """Per-atom tail bookkeeping for a distribution at level alpha.

    Returns arrays over the atoms, with eta the alpha-quantile: ``below``
    marks utilities under eta, ``at_or_below`` marks utilities not above
    eta, ``tail_share`` is the probability each atom contributes to the
    worst alpha-tail (full mass under eta, the remaining share at eta, zero
    above), and ``eta`` itself.  The shares sum to alpha and average to CVaR.
    """
    eta = cvar_of_distribution(dist, alpha).var
    u = dist.utilities
    p = dist.probabilities
    below = u < eta
    at_or_below = u <= eta
    tail = np.where(below, p, 0.0)
    remaining = alpha - tail.sum()
    shares = tail.copy()
    shares[u == eta] = remaining
    return {
        "eta": float(eta),
        "below": below,
        "at_or_below": at_or_below,
        "tail_share": shares,
    }


def full_masses(ctx: CompileContext, strategy: Strategy) -> Dict[str, np.ndarray]:
    """The mass of every configuration of every cluster, live or dead,
    that a strategy implies, by ``np.bincount`` down the tree."""
    d = ctx.diagram
    mu: Dict[str, np.ndarray] = {}
    for root in ctx.tree_order:
        lay = ctx.layouts[root]
        if lay.parent_groups is None:
            inherited = np.ones(1)
        else:
            inherited = np.bincount(lay.parent_groups,
                                    weights=mu[ctx.tree.parent[root]],
                                    minlength=lay.n_groups)
        if d.kind(root) == NodeKind.DECISION:
            rule = np.asarray(strategy.rules[root], dtype=np.int64)
            factor = (rule[lay.table_row] == lay.root_state).astype(float)
        else:
            factor = d.cpts[root].rows[lay.table_row, lay.root_state]
        mu[root] = inherited[lay.group_of] * factor
    return mu


def strategy_vector(model: MipModel, ctx: CompileContext,
                    strategy: Strategy) -> np.ndarray:
    """The assignment a strategy implies, one strategy at a time: masses by
    ``np.bincount`` down the tree, policy bits and ``tail_witness``.  The
    enumerators' blocks must give these bits exactly."""
    mu = full_masses(ctx, strategy)
    x = np.zeros(len(model.variables))
    for root, arr in mu.items():
        x[model.mu[root].span] = arr[ctx.layouts[root].live]
    for dnode, rule in strategy.rules.items():
        for pcfg, s in enumerate(rule):
            x[model.delta_var(dnode, pcfg, s)] = 1.0
    block = model.cvar
    if block is not None:
        live = ctx.layouts[block.value_root].live
        probs = np.bincount(block.level, weights=mu[block.value_root][live],
                            minlength=block.utilities.size)
        wit = tail_witness(UtilityDistribution(block.utilities, probs),
                           block.alpha)
        x[block.eta] = wit["eta"]
        x[block.lam] = wit["below"]
        x[block.lambar] = wit["at_or_below"]
        x[block.rho] = np.where(wit["below"], probs, 0.0)
        x[block.rhobar] = wit["tail_share"]
    return x


def widen(model: MipModel, ctx: CompileContext, x: np.ndarray) -> np.ndarray:
    """``x`` in the layout of a model with a mass column for every cluster
    configuration, live or not: each mass block widened to all of its
    cluster's configurations, 0.0 at a dead one."""
    masses = []
    for root, block in model.mu.items():
        masses.append(np.zeros(ctx.layouts[root].total))
        masses[-1][ctx.layouts[root].live] = x[block.span]
    return np.concatenate(masses + [x[sum(b.size for b in model.mu.values()):]])


def listing_command(path, names, x):
    """A solver command that prints ``x`` as an optimal name/value listing."""
    path.write_text("status optimal\n" + "".join(
        f"{name} {value!r}\n" for name, value in zip(names, x.tolist())
    ))
    return [sys.executable, "-c",
            "import sys; print(open(sys.argv[1]).read())", str(path), "{lp}"]
