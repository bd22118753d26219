"""Compilation of diagrams + junction trees into mixed-integer models:
variable/row inventories, coupling structure, risk rows, CVaR block."""

import numpy as np
import pytest

from limid.diagram import (
    CapExceededError,
    Cpt,
    InfluenceDiagram,
    Node,
    NodeKind,
    UtilityMap,
)
from limid import mip
from limid.generators import (
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
)
from limid.mip import (
    BINARY,
    FREE,
    KINDS,
    UNIT,
    MipModel,
    add_risk,
    build_base_model,
    model_stats,
)
from limid.risk import (
    BudgetConstraint,
    ChanceConstraint,
    CvarConstraint,
    CvarObjective,
    LogicalConstraint,
    parse_chance_text,
    parse_logical_text,
)
from limid.rjt import build_rjt, modify_rjt, tree_from_members
from limid.transform import merge_value_nodes

from helpers import random_diagram, reference_row


def pig_model(n, merged=False, targets=None):
    d = gen_pigfarm(PigFarmSpec(n_periods=n))
    if merged:
        d, _ = merge_value_nodes(d)
    tree = build_rjt(d)
    if targets:
        tree = modify_rjt(tree, targets)
    model, ctx = build_base_model(tree, d)
    return d, tree, model, ctx


def holds_at_zero(sense: str, rhs: float) -> bool:
    return {"==": rhs == 0.0, "<=": rhs >= 0.0, ">=": rhs <= 0.0}[sense]


def emit(rows, terms, sense, rhs, tag):
    """Append ``reference_row(terms, ...)``, whose terms name a column or
    None for a dead configuration, less those on None; the row is left out
    when it has no term and holds at zero."""
    row = reference_row([(c, v) for c, v in terms if v is not None], sense, rhs, tag)
    if row.terms or not holds_at_zero(sense, rhs):
        rows.append(row)


def columns(model, ctx, root):
    """The column of each live configuration of ``root``'s cluster."""
    return {int(cfg): model.mu[root].start + i
            for i, cfg in enumerate(ctx.layouts[root].live)}


def loop_rows(model, ctx):
    """The rows of ``build_base_model``, written one at a time, term by
    term, with ``reference_row``: the reference for the array build.  A
    row is written for every configuration, live or dead, and ``emit``
    leaves out what has no column."""
    d, tree = ctx.diagram, ctx.tree
    rows = []

    def members(group_of, n_groups):
        out = [[] for _ in range(n_groups)]
        for cfg, g in enumerate(group_of):
            out[g].append(cfg)
        return out

    for root in tree.order:
        col = columns(model, ctx, root)
        terms = [(1.0, col.get(c)) for c in range(ctx.layouts[root].total)]
        emit(rows, terms, "==", 1.0, f"normalize[{root}]")
    for child in tree.order:
        parent = tree.parent.get(child)
        if parent is None:
            continue
        lay = ctx.layouts[child]
        pcol, ccol = columns(model, ctx, parent), columns(model, ctx, child)
        from_parent = members(lay.parent_groups, lay.n_groups)
        from_child = members(lay.group_of, lay.n_groups)
        for g in range(lay.n_groups):
            terms = [(1.0, pcol.get(p)) for p in from_parent[g]]
            terms += [(-1.0, ccol.get(c)) for c in from_child[g]]
            emit(rows, terms, "==", 0.0, f"consistency[{parent}->{child}][g={g}]")
    for root in tree.order:
        if d.kind(root) == NodeKind.DECISION:
            continue
        lay = ctx.layouts[root]
        col = columns(model, ctx, root)
        group = members(lay.group_of, lay.n_groups)
        for cfg in range(lay.total):
            p = float(d.cpts[root].rows[lay.table_row[cfg], lay.root_state[cfg]])
            terms = [(1.0, col.get(cfg))]
            terms += [(-p, col.get(c)) for c in group[lay.group_of[cfg]]]
            emit(rows, terms, "==", 0.0, f"cpt_link[{root}][c={cfg}]")
    for root in tree.order:
        if d.kind(root) != NodeKind.DECISION:
            continue
        lay = ctx.layouts[root]
        col = columns(model, ctx, root)
        group = members(lay.group_of, lay.n_groups)
        for cfg in range(lay.total):
            own = col.get(cfg)
            bit = model.delta_var(
                root, int(lay.table_row[cfg]), int(lay.root_state[cfg]))
            emit(rows, [(1.0, own), (-1.0, bit)], "<=", 0.0,
                 f"policy_ub[{root}][c={cfg}]")
            terms = [(1.0, own)]
            terms += [(-1.0, col.get(c)) for c in group[lay.group_of[cfg]]]
            terms.append((-1.0, bit))
            emit(rows, terms, ">=", -1.0, f"policy_lb[{root}][c={cfg}]")
    for dn in d.decision_nodes:
        n_pcfg, n_states = model.delta[dn].shape
        for pcfg in range(n_pcfg):
            terms = [(1.0, model.delta_var(dn, pcfg, s))
                     for s in range(n_states)]
            emit(rows, terms, "==", 1.0, f"policy_pick[{dn}][i={pcfg}]")
    return rows


def triggers(spec, state) -> bool:
    """Whether the labelled joint state ``state`` triggers a chance or
    logical event or breaks a budget."""
    if isinstance(spec, BudgetConstraint):
        cost = sum(table.get(state[n], 0.0) for n, table in spec.costs.items())
        return cost > spec.limit
    hits = [state[n] == s for n, s in spec.event.terms]
    return any(hits) if spec.event.mode == "any" else all(hits)


def loop_cvar_rows(model, spec):
    """The rows of a CVaR block, level by level, from its catalog, whose
    ``level`` gives the level of each mass column of the value cluster."""
    cv = model.cvar
    eta, big_m, eps = cv.eta, cv.big_m, cv.eps
    rows = []
    for k, u in enumerate(cv.utilities.tolist()):
        lk, lbk, rk, rbk = (int(a[k]) for a in (cv.lam, cv.lambar, cv.rho,
                                                 cv.rhobar))
        mass = [(1.0, model.mu[cv.value_root].start + c)
                for c, level in enumerate(cv.level) if level == k]
        for terms, sense, rhs, head in (
            ([(1.0, eta), (-big_m, lk)], "<=", u, "cvar_below_ub"),
            ([(1.0, eta), (-(big_m + eps), lk)], ">=", u - big_m,
             "cvar_below_lb"),
            ([(1.0, eta), (-(big_m + eps), lbk)], "<=", u - eps, "cvar_at_ub"),
            ([(1.0, eta), (-big_m, lbk)], ">=", u - big_m, "cvar_at_lb"),
            ([(1.0, rbk), (-1.0, lbk)], "<=", 0.0, "cvar_share_cap"),
            (mass + [(1.0, lk), (-1.0, rk)], "<=", 1.0, "cvar_tail_lo"),
            ([(1.0, rk), (-1.0, lk)], "<=", 0.0, "cvar_tail_hi"),
            ([(1.0, rk), (-1.0, rbk)], "<=", 0.0, "cvar_share_order"),
            ([(1.0, rbk)] + [(-c, j) for c, j in mass], "<=", 0.0,
             "cvar_share_mass"),
        ):
            rows.append(reference_row(terms, sense, rhs, f"{head}[k={k}]"))
    rows.append(reference_row([(1.0, r) for r in cv.rhobar.tolist()], "==",
                              cv.alpha, "cvar_share_total"))
    if isinstance(spec, CvarConstraint):
        tail = [(u / cv.alpha, r)
                for u, r in zip(cv.utilities.tolist(), cv.rhobar.tolist())]
        rows.append(reference_row(tail, ">=", spec.bound, "cvar_floor"))
    return rows


def loop_risk_rows(model, ctx, specs):
    """The rows ``add_risk`` appends for ``specs``, one at a time, term by
    term: a chance, logical or budget row sums the masses of the triggering
    configurations of the smallest covering cluster."""
    d, tree = ctx.diagram, ctx.tree
    rows = []
    for spec in specs:
        if isinstance(spec, (CvarObjective, CvarConstraint)):
            rows += loop_cvar_rows(model, spec)
            continue
        need = set(spec.scope)
        root = min((r for r in tree.order if need <= set(tree.members(r))),
                   key=lambda r: len(tree.members(r)))
        lay = ctx.layouts[root]
        col = columns(model, ctx, root)
        indexer = d.indexer(lay.members)
        terms = []
        for cfg in range(lay.total):
            state = {m: d.states(m)[s]
                     for m, s in zip(lay.members, indexer.states_of(cfg))}
            if triggers(spec, state):
                terms.append((1.0, col.get(cfg)))
        if isinstance(spec, ChanceConstraint):
            sense, rhs, family = spec.sense, spec.p, "chance"
        else:
            sense, rhs = "<=", 0.0
            family = "logical" if isinstance(spec, LogicalConstraint) else "budget"
        emit(rows, terms, sense, rhs, f"{family}[{root}]")
    return rows


class TestRowStore:
    def test_array_build_matches_row_by_row_reference(self):
        # zero CPT entries (pig farm, load monitoring), widened trees,
        # random diagrams of up to three states per node, chance rows of
        # both senses, logical and budget rows, and CVaR blocks in both modes
        cost = {"treat": 100.0}
        cases = [
            (pig_model(3)[2:], ()),
            (pig_model(2, targets=["D1", "D2"])[2:], ()),
            (pig_model(4, targets=["H1", "H2", "H3"])[2:], (
                parse_chance_text("P(H2=ill|H3=ill) <= 0.5"),
                parse_chance_text("P(H1=ill) >= 0.05"))),
            (pig_model(4, targets=["D1", "D2", "D3"])[2:], (
                parse_logical_text("P(D1=treat&D3=treat)"),
                BudgetConstraint(costs={"D1": cost, "D2": cost, "D3": cost},
                                 limit=150.0))),
            (pig_model(3, merged=True)[2:], (CvarObjective(alpha=0.15),)),
            (pig_model(3, merged=True)[2:], (
                parse_chance_text("P(H3=ill) <= 0.4"),
                CvarConstraint(alpha=0.5, bound=300.0))),
        ]
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
        cases.append((build_base_model(build_rjt(d), d), ()))
        rng = np.random.default_rng(11)
        for _ in range(30):
            d = random_diagram(rng, max_nodes=7, require_value=True)
            cases.append((build_base_model(build_rjt(d), d), ()))
        for i in range(10):
            d, _ = merge_value_nodes(
                random_diagram(rng, max_nodes=6, require_value=True))
            spec = (CvarObjective(alpha=0.3) if i % 2 else
                    CvarConstraint(alpha=0.6, bound=0.0))
            cases.append((build_base_model(build_rjt(d), d), (spec,)))
        for (model, ctx), specs in cases:
            want = loop_rows(model, ctx)
            for spec in specs:
                add_risk(model, spec, ctx)
            want += loop_risk_rows(model, ctx, specs)
            got = model.constraints
            assert len(got) == len(want)
            for row, ref in zip(got, want):
                assert row == ref

    def test_constraints_are_a_list_built_per_call(self):
        d, tree, model, ctx = pig_model(1)
        rows = model.constraints
        assert isinstance(rows, list) and len(rows) == len(model.rows)
        assert model.constraints == rows and model.constraints is not rows
        assert sum(len(row.terms) for row in rows) == model.rows.indptr[-1]


def loop_names(model, ctx):
    """Name and kind of each variable by the per-variable naming rule, from
    the cluster layouts and the decision and CVaR catalogs."""
    names = [None] * len(model.variables)
    kinds = [None] * len(model.variables)

    def put(idx, name, kind):
        assert names[idx] is None
        names[idx], kinds[idx] = name, kind

    for root, block in model.mu.items():
        for i, cfg in enumerate(ctx.layouts[root].live.tolist()):
            put(block.start + i, f"mu_{root}_{cfg}", UNIT)
    for d, block in model.delta.items():
        n_pcfg, n_states = block.shape
        for pcfg in range(n_pcfg):
            for s in range(n_states):
                put(block.start + pcfg * n_states + s,
                    f"delta_{d}_{pcfg}_{s}", BINARY)
    block = model.cvar
    if block is not None:
        put(block.eta, "eta", FREE)
        for k in range(block.utilities.size):
            put(block.lam[k], f"lam_{k}", BINARY)
            put(block.lambar[k], f"lambar_{k}", BINARY)
            put(block.rho[k], f"rho_{k}", UNIT)
            put(block.rhobar[k], f"rhobar_{k}", UNIT)
    assert None not in names
    return names, kinds


def loop_stats(names, kinds):
    counts = {"total": len(names)}
    for name, kind in zip(names, kinds):
        for key in (name.split("_", 1)[0], KINDS[kind]):
            counts[key] = counts.get(key, 0) + 1
    return counts


class TestVarStore:
    def test_blocks_name_every_variable_like_the_loop(self):
        cvar = pig_model(3, merged=True)
        add_risk(cvar[2], CvarObjective(alpha=0.15), cvar[3])
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=1))
        models = [pig_model(3)[2:], build_base_model(build_rjt(d), d), cvar[2:]]
        for model, ctx in models:
            names, kinds = loop_names(model, ctx)
            assert model.variables.names() == names
            assert model.variables.kinds.tolist() == kinds
            assert model_stats(model)["variables"] == loop_stats(names, kinds)

    def test_hand_built_model(self):
        model = MipModel()
        assert model.variables.add("x", (), UNIT).start == 0
        assert model.variables.add("y_1", (), BINARY).start == 1
        assert model.variables.add("z", (), FREE).start == 2
        assert len(model.variables) == 3
        assert model.variables.names() == ["x", "y_1", "z"]
        assert model.variables.kinds.tolist() == [UNIT, BINARY, FREE]
        assert model_stats(model)["variables"] == {
            "total": 3, "x": 1, "unit": 1, "y": 1, "binary": 1, "z": 1,
            "free": 1,
        }


class TestBaseModel:
    def test_single_chance_node(self):
        d = InfluenceDiagram(
            nodes=(Node("A", NodeKind.CHANCE, ("x", "y"), ()),),
            cpts={"A": Cpt("A", np.array([[0.3, 0.7]]))},
            utilities={},
        )
        model, ctx = build_base_model(build_rjt(d), d)
        stats = model_stats(model)
        assert stats["variables"] == {
            "total": 2, "mu": 2, "unit": 2
        }
        assert stats["constraints"] == {
            "total": 3, "normalize": 1, "cpt_link": 2
        }
        assert model.objective.tolist() == [0.0, 0.0]
        # the two chance-coupling rows pin mu to the prior outright
        link = [c for c in model.constraints if c.tag.split("[", 1)[0] == "cpt_link"]
        for i, (c, p) in enumerate(zip(link, (0.3, 0.7))):
            assert c.sense == "==" and c.rhs == 0.0
            coeffs = {v: co for co, v in c.terms}
            own = coeffs.pop(model.mu["A"].start + i)
            assert own == pytest.approx(1.0 - p)
            assert all(co == pytest.approx(-p) for co in coeffs.values())

    def test_pig_farm_two_period_inventory(self):
        d, tree, model, ctx = pig_model(2)
        stats = model_stats(model)
        # 6 of 54 masses are dead: V1's and V2's one-state-per-parent CPTs
        assert stats["variables"]["mu"] == 48
        assert stats["variables"]["delta"] == 8
        assert stats["variables"]["binary"] == 8
        assert stats["constraints"]["normalize"] == len(tree.order) == 10
        assert stats["constraints"]["consistency"] == 26
        # 38 less the 12 rows of V1, V2 and V3, left without terms
        assert stats["constraints"]["cpt_link"] == 26
        assert stats["constraints"]["policy_ub"] == 16
        assert stats["constraints"]["policy_lb"] == 16
        assert stats["constraints"]["policy_pick"] == 4

    def test_consistency_rows_grow_linearly_in_periods(self):
        counts = {}
        for n in (2, 3, 4, 5):
            _, _, model, _ = pig_model(n)
            counts[n] = model_stats(model)["constraints"]["consistency"]
        assert counts == {2: 26, 3: 38, 4: 50, 5: 62}

    def test_objective_covers_nonzero_utilities_only(self):
        d, tree, model, ctx = pig_model(1)
        # expected terms: treat cost on the V1 cluster, prices on V2
        want = []
        for v in ("V1", "V2"):
            lay = ctx.layouts[v]
            indexer = d.indexer(lay.members)
            for i, cfg in enumerate(lay.live.tolist()):
                states = indexer.states_of(cfg)
                s_v = states[lay.members.index(v)]
                u = float(d.utilities[v].values[s_v])
                if u != 0.0:
                    want.append((u, model.mu[v].start + i))
        hit = np.flatnonzero(model.objective)
        assert sorted(zip(model.objective[hit].tolist(), hit.tolist())) == sorted(want)
        # V1 and V2 copy their parent's state: one live state per parent state
        assert len(hit) == 3

    def test_policy_rows_have_expected_shape(self):
        d, tree, model, ctx = pig_model(1)
        ubs = [c for c in model.constraints if c.tag.split("[", 1)[0] == "policy_ub"]
        lbs = [c for c in model.constraints if c.tag.split("[", 1)[0] == "policy_lb"]
        assert len(ubs) == len(lbs) == 8
        for c in ubs:
            assert c.sense == "<=" and c.rhs == 0.0
            assert sorted(v for v, _ in [(t[1], 0) for t in c.terms]) == sorted(
                t[1] for t in c.terms
            )
            assert sorted(co for co, _ in c.terms) == [-1.0, 1.0]
        for c in lbs:
            # own mass cancels against the sibling sum: two -1 terms remain
            assert c.sense == ">=" and c.rhs == -1.0
            assert [co for co, _ in c.terms] == [-1.0, -1.0]

    def test_mu_and_delta_accessors_validate_coordinates(self):
        d, tree, model, ctx = pig_model(1)
        with pytest.raises(IndexError):
            model.delta_var("D1", 2, 0)
        names = model.variables.names()
        assert names[model.mu["H1"].start] == "mu_H1_0"
        assert names[model.delta_var("D1", 1, 1)] == "delta_D1_1_1"

    def test_merged_terminal_cluster_size(self):
        d, tree, model, ctx = pig_model(3, merged=True)
        # cluster over three binary decisions, final health, merged value;
        # the merged value's 0/1 CPT leaves one live state per parent state
        assert ctx.layouts["V_merged"].total == 2 * 2 * 2 * 2 * 16 == 256
        assert model.mu["V_merged"].shape == (256 // 16,)

    def test_cluster_cap_enforced(self, monkeypatch):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        monkeypatch.setattr(mip, "CLUSTER_STATES_CAP", 4)
        with pytest.raises(CapExceededError):
            build_base_model(build_rjt(d), d)

    def test_non_gradual_tree_rejected(self):
        # A and B parentless, C depends on B; C's cluster smuggles A in
        # even though A is absent from its parent cluster.
        nodes = (
            Node("A", NodeKind.CHANCE, ("0", "1"), ()),
            Node("B", NodeKind.CHANCE, ("0", "1"), ()),
            Node("C", NodeKind.CHANCE, ("0", "1"), ("B",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "B": Cpt("B", np.array([[0.5, 0.5]])),
            "C": Cpt("C", np.full((2, 2), 0.5)),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        tree = tree_from_members(
            ["A", "B", "C"],
            {"A": ("A",), "B": ("B",), "C": ("A", "B", "C")},
            {"A": None, "B": "A", "C": "B"},
        )
        with pytest.raises(ValueError, match="gradual"):
            build_base_model(tree, d)

    def test_cluster_missing_information_set_rejected(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("0", "1"), ()),
            Node("B", NodeKind.CHANCE, ("0", "1"), ("A",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "B": Cpt("B", np.full((2, 2), 0.5)),
        }
        d = InfluenceDiagram(nodes=nodes, cpts=cpts, utilities={})
        tree = tree_from_members(
            ["A", "B"],
            {"A": ("A",), "B": ("B",)},
            {"A": None, "B": "A"},
        )
        with pytest.raises(ValueError, match="information set"):
            build_base_model(tree, d)


class TestRiskRows:
    def test_chance_row_lands_on_smallest_covering_cluster(self):
        d, tree, model, ctx = pig_model(2)
        add_risk(model, parse_chance_text("P(H2=ill) <= 0.25"), ctx)
        rows = [c for c in model.constraints if c.tag.split("[", 1)[0] == "chance"]
        assert len(rows) == 1
        row = rows[0]
        assert row.tag == "chance[T2]"  # {H2,T2} is the smallest cover
        assert (row.sense, row.rhs) == ("<=", 0.25)
        lay = ctx.layouts["T2"]
        indexer = d.indexer(lay.members)
        hit_vars = sorted(v for _, v in row.terms)
        want = sorted(
            model.mu["T2"].start + i
            for i, cfg in enumerate(lay.live.tolist())
            if d.states("H2")[
                indexer.states_of(cfg)[lay.members.index("H2")]
            ] == "ill"
        )
        assert hit_vars == want
        assert all(co == 1.0 for co, _ in row.terms)

    def test_uncovered_scope_suggests_tree_modification(self):
        d, tree, model, ctx = pig_model(2)
        spec = parse_logical_text("P(D1=treat&D2=treat)")
        with pytest.raises(ValueError, match="modify_rjt"):
            add_risk(model, spec, ctx)

    def test_logical_row_after_modification(self):
        d, tree, model, ctx = pig_model(2, targets=["D1", "D2"])
        add_risk(model, parse_logical_text("P(D1=treat&D2=treat)"), ctx)
        row = model.constraints[-1]
        assert row.tag.split("[", 1)[0] == "logical"
        assert (row.sense, row.rhs) == ("<=", 0.0)
        root = row.tag[len("logical["):-1]
        assert {"D1", "D2"} <= set(tree.members(root))

    def test_budget_row_hits_only_over_limit_configs(self):
        d, tree, model, ctx = pig_model(2, targets=["D1", "D2"])
        spec = BudgetConstraint(
            costs={"D1": {"treat": 100.0}, "D2": {"treat": 100.0}},
            limit=150.0,
        )
        add_risk(model, spec, ctx)
        row = model.constraints[-1]
        assert row.tag.split("[", 1)[0] == "budget"
        root = row.tag[len("budget["):-1]
        lay = ctx.layouts[root]
        indexer = d.indexer(lay.members)
        for _, var in row.terms:
            cfg = int(lay.live[var - model.mu[root].start])
            states = indexer.states_of(cfg)
            assignment = {
                m: d.states(m)[s] for m, s in zip(lay.members, states)
            }
            assert assignment["D1"] == "treat" and assignment["D2"] == "treat"

    def test_unknown_spec_node_rejected_before_emission(self):
        d, tree, model, ctx = pig_model(1)
        n_before = len(model.constraints)
        with pytest.raises(ValueError, match="unknown node"):
            add_risk(model, parse_chance_text("P(Q7=ill)<=0.5"), ctx)
        assert len(model.constraints) == n_before


class TestCvarBlock:
    def test_block_inventory_on_merged_two_period_farm(self):
        d, tree, model, ctx = pig_model(2, merged=True)
        base_rows = len(model.constraints)
        add_risk(model, CvarObjective(alpha=0.2), ctx)
        block = model.cvar
        assert block is not None
        # distinct totals: 100, 200, 300, 800, 900, 1000
        np.testing.assert_allclose(
            block.utilities, [100.0, 200.0, 300.0, 800.0, 900.0, 1000.0]
        )
        assert block.eps == pytest.approx(50.0)
        assert block.big_m == pytest.approx(950.0)
        assert block.mode == "objective"
        stats = model_stats(model)
        assert "cvar_floor" not in stats["constraints"]
        assert stats["variables"]["eta"] == 1
        assert stats["variables"]["lam"] == 6
        assert stats["variables"]["lambar"] == 6
        assert stats["variables"]["rho"] == 6
        assert stats["variables"]["rhobar"] == 6
        per_k = [
            "cvar_below_ub", "cvar_below_lb", "cvar_at_ub", "cvar_at_lb",
            "cvar_share_cap", "cvar_tail_lo", "cvar_tail_hi",
            "cvar_share_order", "cvar_share_mass",
        ]
        for fam in per_k:
            assert stats["constraints"][fam] == 6
        assert stats["constraints"]["cvar_share_total"] == 1
        assert len(model.constraints) == base_rows + 9 * 6 + 1
        # objective becomes the scaled tail shares
        hit = np.flatnonzero(model.objective)
        assert len(hit) == 6
        names = model.variables.names()
        coeffs = {names[v]: model.objective[v] for v in hit}
        assert coeffs["rhobar_5"] == pytest.approx(1000.0 / 0.2)

    def test_constraint_mode_adds_floor_row(self):
        d, tree, model, ctx = pig_model(2, merged=True)
        meu_objective = model.objective.copy()
        add_risk(model, CvarConstraint(alpha=0.2, bound=250.0), ctx)
        assert model.cvar.mode == "constraint"
        assert model.constraints[-1].tag.split("[", 1)[0] == "cvar_floor"
        assert model.constraints[-1].sense == ">="
        assert model.constraints[-1].rhs == 250.0
        # the expected-utility objective stays in place
        assert model.objective[:meu_objective.size].tobytes() == meu_objective.tobytes()

    def test_requires_single_value_node(self):
        d, tree, model, ctx = pig_model(2)
        with pytest.raises(ValueError, match="merge_value_nodes"):
            add_risk(model, CvarObjective(alpha=0.2), ctx)

    def test_rejects_second_block(self):
        d, tree, model, ctx = pig_model(2, merged=True)
        add_risk(model, CvarObjective(alpha=0.2), ctx)
        with pytest.raises(ValueError, match="already"):
            add_risk(model, CvarConstraint(alpha=0.3, bound=0.0), ctx)

    def test_single_utility_degenerate_gap(self):
        nodes = (
            Node("A", NodeKind.CHANCE, ("x", "y"), ()),
            Node("V", NodeKind.VALUE, ("only",), ("A",)),
        )
        cpts = {
            "A": Cpt("A", np.array([[0.5, 0.5]])),
            "V": Cpt("V", np.array([[1.0], [1.0]])),
        }
        d = InfluenceDiagram(
            nodes=nodes,
            cpts=cpts,
            utilities={"V": UtilityMap("V", np.array([7.0]))},
        )
        model, ctx = build_base_model(build_rjt(d), d)
        add_risk(model, CvarObjective(alpha=0.5), ctx)
        assert model.cvar.eps == 1.0
        assert model.cvar.big_m == pytest.approx(1.0)
