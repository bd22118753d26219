"""Exact inference by factor contraction: utility distributions, tail risk,
enumeration, and the exhaustive optimizer, checked against slow
pure-Python re-computations and hand-worked numbers."""

import numpy as np
import pytest

from limid import inference
from limid._tensor import place_table
from limid.diagram import (
    CapExceededError, Cpt, InfluenceDiagram, Node, NodeKind, Strategy,
    topological_order,
)
from limid.generators import (
    NMonitoringSpec, PigFarmSpec, gen_nmonitoring, gen_pigfarm,
)
from limid.inference import (
    ATOM_PROB_FLOOR,
    Evaluator,
    UtilityDistribution,
    cvar_of_distribution,
    oracle_optimize,
    round_to_sig,
    strategy_blocks,
    strategy_count,
)
from limid.mip import build_base_model
from limid.risk import (
    ChanceConstraint,
    CvarConstraint,
    CvarObjective,
    MeuObjective,
    parse_chance_text,
    parse_event,
    parse_logical_text,
    trigger_mask,
)
from limid.rjt import build_rjt
from limid.solve import solve_reference
from limid.transform import merge_value_nodes

from helpers import (
    dense_joint,
    enumerate_strategies,
    random_diagram,
    slow_cvar,
    small_random_diagram,
    slow_distribution,
    slow_expected,
    slow_marginal,
    slow_meu,
    tail_witness,
)


def match_atoms(dist: UtilityDistribution, slow: dict, tol: float = 1e-12):
    """Assert the package distribution equals the dict-based slow one."""
    assert len(dist.atoms) == len(slow)
    slow_sorted = sorted(slow.items())
    for (u, p), (su, sp) in zip(dist.atoms, slow_sorted):
        assert u == pytest.approx(su, abs=1e-9)
        assert p == pytest.approx(sp, abs=tol)


class TestUtilityDistribution:
    def test_rejects_unsorted_or_unnormalized(self):
        with pytest.raises(ValueError, match="ascending"):
            UtilityDistribution(
                utilities=np.array([2.0, 1.0]),
                probabilities=np.array([0.5, 0.5]),
            )
        with pytest.raises(ValueError, match="sum"):
            UtilityDistribution(
                utilities=np.array([1.0, 2.0]),
                probabilities=np.array([0.5, 0.6]),
            )

    def test_from_values_aggregates_duplicates(self):
        d = UtilityDistribution.from_values(
            np.array([3.0, 1.0, 3.0]), np.array([0.2, 0.5, 0.3])
        )
        assert d.atoms == [(1.0, 0.5), (3.0, 0.5)]
        assert d.expected() == pytest.approx(2.0)

    def test_from_values_drops_zero_mass_atoms(self):
        d = UtilityDistribution.from_values(
            np.array([1.0, 2.0, 3.0]), np.array([0.5, 0.0, 0.5])
        )
        assert [u for u, _ in d.atoms] == [1.0, 3.0]


class TestCvar:
    def setup_method(self):
        self.coin = UtilityDistribution(
            utilities=np.array([0.0, 10.0]),
            probabilities=np.array([0.5, 0.5]),
        )

    def test_hand_worked_two_atom_cases(self):
        assert cvar_of_distribution(self.coin, 0.25).cvar == pytest.approx(0.0)
        assert cvar_of_distribution(self.coin, 0.25).var == 0.0
        assert cvar_of_distribution(self.coin, 0.5).cvar == pytest.approx(0.0)
        r = cvar_of_distribution(self.coin, 0.75)
        assert r.var == 10.0
        assert r.cvar == pytest.approx(10.0 / 3.0)

    def test_alpha_one_recovers_expectation(self):
        assert cvar_of_distribution(self.coin, 1.0).cvar == pytest.approx(5.0)

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            cvar_of_distribution(self.coin, 0.0)
        with pytest.raises(ValueError):
            cvar_of_distribution(self.coin, 1.5)

    def test_matches_slow_cvar_on_random_distributions(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(1, 7))
            u = np.sort(rng.uniform(-50, 50, size=k))
            u = np.unique(np.round(u, 6))
            p = rng.random(u.size) + 0.05
            p = p / p.sum()
            dist = UtilityDistribution(utilities=u, probabilities=p)
            alpha = float(rng.uniform(0.05, 1.0))
            got = cvar_of_distribution(dist, alpha).cvar
            want = slow_cvar(dict(dist.atoms), alpha)
            assert got == pytest.approx(want, abs=1e-9)


class TestTailWitness:
    def test_boundary_atom_gets_partial_share(self):
        dist = UtilityDistribution(
            utilities=np.array([200.0, 300.0, 1000.0]),
            probabilities=np.array([0.1, 0.5, 0.4]),
        )
        w = tail_witness(dist, alpha=0.15)
        assert w["eta"] == 300.0
        assert w["below"].tolist() == [True, False, False]
        assert w["at_or_below"].tolist() == [True, True, False]
        assert w["tail_share"].tolist() == pytest.approx([0.1, 0.05, 0.0])
        assert w["tail_share"].sum() == pytest.approx(0.15)
        # averaging the tail shares reproduces CVaR
        cvar = float(np.dot(w["tail_share"], dist.utilities)) / 0.15
        assert cvar == pytest.approx(cvar_of_distribution(dist, 0.15).cvar)

    def test_shares_sum_to_alpha_across_random_cases(self):
        rng = np.random.default_rng(21)
        for _ in range(40):
            k = int(rng.integers(1, 6))
            u = np.unique(np.round(rng.uniform(-5, 5, size=k), 5))
            p = rng.random(u.size) + 0.1
            dist = UtilityDistribution(utilities=u, probabilities=p / p.sum())
            alpha = float(rng.uniform(0.05, 1.0))
            w = tail_witness(dist, alpha)
            assert w["tail_share"].sum() == pytest.approx(alpha, abs=1e-12)
            assert np.all(w["tail_share"] >= -1e-15)
            assert np.all(w["tail_share"] <= dist.probabilities + 1e-15)


class TestEvaluateStrategy:
    def test_matches_slow_enumeration_on_random_diagrams(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            d = small_random_diagram(rng, max_nodes=7, require_value=True)
            ev = Evaluator(d)
            for strategy in enumerate_strategies(d):
                dist = ev.distribution_of(ev.value_table(strategy))
                match_atoms(dist, slow_distribution(d, strategy))
                break  # one strategy per diagram keeps this loop quick

    def test_expected_utility_matches_slow_on_all_strategies(self):
        rng = np.random.default_rng(12)
        d = small_random_diagram(
            rng, limit=64, min_nodes=5, max_nodes=6, require_value=True
        )
        ev = Evaluator(d)
        for strategy in enumerate_strategies(d):
            got = ev.distribution_of(ev.value_table(strategy)).expected()
            assert got == pytest.approx(slow_expected(d, strategy), abs=1e-9)

    def test_never_treating_pig_farm_matches_markov_chain(self):
        # Independent re-computation: with no treatment the health stage is
        # a two-state Markov chain with P(ill stays ill) = 0.9 and
        # P(healthy turns ill) = 0.2; the only payoff is the final price.
        T = np.array([[0.8, 0.2], [0.1, 0.9]])
        start = np.array([0.9, 0.1])
        final = start @ np.linalg.matrix_power(T, 3)
        want = 1000.0 * final[0] + 300.0 * final[1]
        assert want == pytest.approx(669.39)

        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        never = Strategy(
            rules={"D1": (0, 0), "D2": (0, 0), "D3": (0, 0)}
        )
        ev = Evaluator(d)
        got = ev.distribution_of(ev.value_table(never)).expected()
        assert got == pytest.approx(want, abs=1e-9)

    def test_rejects_inconsistent_strategy(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        with pytest.raises(ValueError):
            Evaluator(d).value_table(Strategy(rules={"D1": (0,)}))

    def test_joint_cap_enforced(self, monkeypatch):
        monkeypatch.setattr(inference, "CONTRACTION_CAP", 4)
        rng = np.random.default_rng(3)
        d = small_random_diagram(rng, min_nodes=6, max_nodes=6)
        with pytest.raises(CapExceededError):
            Evaluator(d).value_table(next(enumerate_strategies(d)))

    def test_more_nodes_than_einsum_labels_refused(self):
        # np.einsum has 52 subscript labels; past them the evaluator names
        # the node count instead of letting numpy raise IndexError.
        nodes = [Node(name=f"N{i}", kind=NodeKind.CHANCE, states=("only",))
                 for i in range(53)]
        d = InfluenceDiagram(
            nodes=nodes,
            cpts={n.name: Cpt(owner=n.name, rows=np.ones((1, 1))) for n in nodes},
        )
        with pytest.raises(CapExceededError, match="needs 53 entries"):
            Evaluator(d)


class TestJointMarginal:
    def test_matches_slow_marginal(self):
        rng = np.random.default_rng(31)
        for _ in range(15):
            d = small_random_diagram(rng, max_nodes=6)
            strategy = next(enumerate_strategies(d))
            names = [n.name for n in d.nodes]
            k = int(rng.integers(1, min(3, len(names)) + 1))
            scope = [str(s) for s in rng.choice(names, size=k, replace=False)]
            table = Evaluator(d).marginal(strategy, scope)
            indexer = d.indexer(scope)
            slow = slow_marginal(d, strategy, scope)
            assert table.size == indexer.total
            assert table.sum() == pytest.approx(1.0, abs=1e-9)
            for idx in range(indexer.total):
                key = indexer.states_of(idx)
                assert table[idx] == pytest.approx(
                    slow.get(key, 0.0), abs=1e-12
                )

    def test_scope_order_is_respected(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        strategy = Strategy(rules={"D1": (0, 1)})
        ev = Evaluator(d)
        ab = ev.marginal(strategy, ["H1", "T1"]).reshape(2, 2)
        ba = ev.marginal(strategy, ["T1", "H1"]).reshape(2, 2)
        np.testing.assert_allclose(ab, ba.T, atol=1e-15)

    def test_repeated_scope_rejected(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        with pytest.raises(ValueError, match="repeat"):
            Evaluator(d).marginal(Strategy(rules={"D1": (0, 1)}), ["H1", "H1"])


def _blocked(diagram, size):
    """The strategies of ``strategy_blocks`` one by one."""
    return [block.strategy(i) for block in strategy_blocks(diagram, size)
            for i in range(block.size)]


class TestEnumeration:
    def test_count_and_uniqueness_on_pig_farm(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        assert strategy_count(d) == 16
        seen = [tuple(sorted(s.rules.items())) for s in _blocked(d, 5)]
        assert len(seen) == 16
        assert len(set(seen)) == 16

    def test_lexicographic_order(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        strategies = _blocked(d, 3)
        assert strategies[0].rules == {"D1": (0, 0), "D2": (0, 0)}
        assert strategies[1].rules == {"D1": (0, 0), "D2": (0, 1)}
        assert strategies[-1].rules == {"D1": (1, 1), "D2": (1, 1)}
        rng = np.random.default_rng(5)
        for _ in range(20):
            d = small_random_diagram(rng, max_nodes=6)
            want = list(enumerate_strategies(d))
            for size in (1, 4, len(want)):
                assert _blocked(d, size) == want

    def test_cap_enforced(self, monkeypatch):
        # Both enumerators refuse before they build a block of strategies.
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        model, ctx = build_base_model(build_rjt(d), d)
        monkeypatch.setattr(inference, "STRATEGY_CAP", 10)

        def no_block(*args):
            raise AssertionError("a block was built")

        monkeypatch.setattr(inference, "rule_digits", no_block)
        with pytest.raises(CapExceededError):
            oracle_optimize(d)
        with pytest.raises(CapExceededError):
            solve_reference(model, ctx)


class TestOracleOptimize:
    def test_pig_farm_expected_utilities(self):
        # Frozen optima, re-derivable by the slow oracle below.
        for n, want in [(1, 821.8), (2, 767.06), (3, 728.742)]:
            d = gen_pigfarm(PigFarmSpec(n_periods=n))
            res = oracle_optimize(d)
            assert res.feasible
            assert res.objective_value == pytest.approx(want, abs=1e-9)
            ev = Evaluator(d)
            dist = ev.distribution_of(ev.value_table(res.best))
            assert dist.expected() == pytest.approx(res.objective_value, abs=1e-12)

    def test_matches_slow_meu_on_random_diagrams(self):
        rng = np.random.default_rng(17)
        for _ in range(10):
            d = small_random_diagram(rng, max_nodes=6, require_value=True)
            res = oracle_optimize(d)
            want, _ = slow_meu(d)
            assert res.objective_value == pytest.approx(want, abs=1e-9)
            assert res.n_strategies == strategy_count(d)
            assert res.n_feasible == res.n_strategies

    def test_cvar_objective_prefers_safe_strategy(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        res = oracle_optimize(d, objective=CvarObjective(alpha=0.15))
        # check against explicit enumeration with the slow tail formula
        best = max(
            slow_cvar(slow_distribution(d, s), 0.15)
            for s in enumerate_strategies(d)
        )
        assert res.objective_value == pytest.approx(best, abs=1e-9)

    def test_cvar_alpha_one_equals_meu(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        meu = oracle_optimize(d, objective=MeuObjective())
        cvar = oracle_optimize(d, objective=CvarObjective(alpha=1.0))
        assert cvar.objective_value == pytest.approx(
            meu.objective_value, abs=1e-12
        )

    def test_chance_constraint_filters_strategies(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        con = parse_chance_text("P(H2=ill) <= 0.15")
        res = oracle_optimize(d, constraints=[con])
        assert res.feasible
        assert 0 < res.n_feasible < res.n_strategies
        # verify the winner honours the bound via the slow marginal
        got = slow_marginal(d, res.best, ["H2"])[(1,)]
        assert got <= 0.15 + 1e-9
        # and that it beats every other feasible strategy
        for s in enumerate_strategies(d):
            if slow_marginal(d, s, ["H2"]).get((1,), 0.0) <= 0.15 + 1e-9:
                assert slow_expected(d, s) <= res.objective_value + 1e-9

    def test_unsatisfiable_constraint_reports_infeasible(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        con = ChanceConstraint(
            event=parse_event("H1=ill"), sense="<=", p=0.05
        )
        res = oracle_optimize(d, constraints=[con])
        assert not res.feasible
        assert res.best is None
        assert res.objective_value is None
        assert res.n_feasible == 0

    def test_cvar_constraint_respected(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        con = CvarConstraint(alpha=0.2, bound=250.0)
        res = oracle_optimize(d, constraints=[con])
        assert res.feasible
        ev = Evaluator(d)
        dist = ev.distribution_of(ev.value_table(res.best))
        assert cvar_of_distribution(dist, 0.2).cvar >= 250.0 - 1e-9

    def test_tie_break_is_lexicographically_first(self):
        rng = np.random.default_rng(41)
        d = small_random_diagram(rng, max_nodes=5, require_value=False)
        # with no value nodes every strategy scores zero: the first wins
        res = oracle_optimize(d)
        first = next(enumerate_strategies(d))
        assert res.best == first
        assert res.objective_value == pytest.approx(0.0)

    @pytest.mark.parametrize("objective", [CvarObjective(alpha=0.15),
                                           MeuObjective()], ids=["cvar", "meu"])
    def test_value_table_contracted_once_per_block(self, monkeypatch,
                                                   objective):
        merged, _ = merge_value_nodes(gen_pigfarm(PigFarmSpec(n_periods=3)))
        # Every CVaR is at least the smallest utility, so all strategies pass.
        lowest = float(merged.utilities["V_merged"].values.min())
        floor = CvarConstraint(alpha=0.15, bound=lowest)
        calls = []
        contract = Evaluator._contract

        def counted(self, strategy, scope, m=0):
            calls.append((tuple(scope), m))
            return contract(self, strategy, scope, m)

        monkeypatch.setattr(Evaluator, "_contract", counted)
        free = oracle_optimize(merged, objective)
        free_calls = list(calls)
        calls.clear()
        res = oracle_optimize(merged, objective, [floor])
        assert res.n_feasible == res.n_strategies == 64
        # One contraction onto the value node per block, in which the last
        # m decisions take each of their 4 rules.
        m = max(k for _, k in calls)
        assert m > 0
        assert [c for c in calls if c[1]] == [(("V_merged",), m)] * (64 // 4 ** m)
        # The floor reads the tables the objective reads: no contraction more.
        assert calls == free_calls
        assert (res.best, res.objective_value) == (free.best, free.objective_value)


class TestEvaluatorReuse:
    def test_cached_evaluator_agrees_with_one_shot_calls(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        ev = Evaluator(d)
        for s in enumerate_strategies(d):
            fresh = Evaluator(d)
            got = ev.distribution_of(ev.value_table(s)).expected()
            want = fresh.distribution_of(fresh.value_table(s)).expected()
            assert got == pytest.approx(want, abs=1e-12)


def _dense_marginal(diagram, joint: np.ndarray, scope) -> np.ndarray:
    pos = {n: i for i, n in enumerate(topological_order(diagram))}
    axes = [pos[n] for n in scope]
    drop = tuple(i for i in range(joint.ndim) if i not in set(axes))
    table = joint.sum(axis=drop)
    rank = {a: i for i, a in enumerate(sorted(axes))}
    return np.transpose(table, [rank[a] for a in axes]).ravel()


def _dense_reference(diagram):
    """What the dense answers share across strategies: the CPT product, the
    total utility of every grid state (flat) and its rounded keys."""
    order = topological_order(diagram)
    sizes = [diagram.n_states(n) for n in order]
    utils = np.zeros(sizes)
    for v in diagram.value_nodes:
        utils = utils + place_table(sizes, [order.index(v)],
                                    diagram.utilities[v].values)
    utils = utils.ravel()
    uniq, inverse = np.unique(round_to_sig(utils), return_inverse=True)
    return dense_joint(diagram, None), utils, uniq, inverse


def _dense_answers(diagram, reference, strategy: Strategy, scopes):
    """Every query's answer computed from a ``dense_joint``: the expected
    utility, the distribution and the marginal over each scope."""
    base, utils, uniq, inverse = reference
    joint = dense_joint(diagram, strategy, base)
    flat = joint.ravel()
    mass = np.bincount(inverse, weights=flat, minlength=uniq.size)
    keep = mass > ATOM_PROB_FLOOR
    return {
        "expected": float(np.dot(utils, flat)),
        "distribution": (uniq[keep], mass[keep]),
        "marginal": [_dense_marginal(diagram, joint, sc) for sc in scopes],
    }


def _answer(ev: Evaluator, s: Strategy, kind: str, scopes) -> list:
    """One query's answer as arrays, for comparison and for their bytes."""
    if kind == "expected":
        return [np.array(ev.expected_of(ev.value_table(s)))]
    if kind == "distribution":
        dist = ev.distribution_of(ev.value_table(s))
        return [dist.utilities, dist.probabilities]
    return [ev.marginal(s, sc) for sc in scopes]


def _assert_close(got: list, kind: str, want):
    """The ROADMAP's 1e-12 gate: relative for the expected utility,
    absolute for probabilities, equal utilities."""
    if kind == "expected":
        assert float(got[0]) == pytest.approx(want["expected"], rel=1e-12)
    elif kind == "distribution":
        utils, probs = want["distribution"]
        np.testing.assert_array_equal(got[0], utils)
        np.testing.assert_allclose(got[1], probs, rtol=0, atol=1e-12)
    else:
        for g, w in zip(got, want["marginal"]):
            assert g.shape == w.shape
            np.testing.assert_allclose(g, w, rtol=0, atol=1e-12)


QUERIES = ("expected", "distribution", "marginal")


def _invalid_like(diagram, strategy: Strategy) -> Strategy:
    """``strategy`` with its last decision picking a state out of range
    (or, without decisions, a rule for a chance node)."""
    decisions = diagram.decision_nodes
    if not decisions:
        return Strategy(rules={diagram.nodes[0].name: (0,)})
    last = decisions[-1]
    rule = tuple(strategy.rules[last][:-1]) + (diagram.n_states(last),)
    return Strategy(rules={**strategy.rules, last: rule})


def _dense_value(a, objective) -> float:
    if isinstance(objective, CvarObjective):
        dist = UtilityDistribution(*a["distribution"])
        return cvar_of_distribution(dist, objective.alpha).cvar
    return a["expected"]


def _dense_oracle(diagram, answers, strategies, objective, constraints):
    """Exhaustive optimum over the dense answers, first strict improvement
    in lexicographic order wins.  ``answers[i]["marginal"][1 + k]`` is the
    marginal over constraint k's scope."""
    best, best_val, n_feasible = None, None, 0
    for s, a in zip(strategies, answers):
        ok = True
        for k, c in enumerate(constraints):
            table = a["marginal"][1 + k]
            hit = trigger_mask(diagram, c.scope, c)
            prob = sum(table[hit].tolist())
            if isinstance(c, ChanceConstraint) and c.sense == ">=":
                ok = ok and prob >= c.p - 1e-9
            else:
                bound = c.p if isinstance(c, ChanceConstraint) else 0.0
                ok = ok and prob <= bound + 1e-9
        if not ok:
            continue
        n_feasible += 1
        val = _dense_value(a, objective)
        if best_val is None or val > best_val:
            best, best_val = s, val
    return best, best_val, n_feasible


def _check_incremental(diagram, objective=MeuObjective(), constraints=(),
                       seed=0):
    """One evaluator queried in lexicographic, reversed and shuffled order,
    with an invalid strategy between the passes, must agree with the dense
    product to 1e-12 on every query and give the same bytes for a strategy
    in every order; the oracle must match a test-side enumeration over the
    dense joints."""
    ev = Evaluator(diagram)
    strategies = list(enumerate_strategies(diagram))
    names = topological_order(diagram)
    scopes = [[names[-1], names[0]] if len(names) > 1 else [names[0]]]
    scopes += [c.scope for c in constraints]
    invalid = _invalid_like(diagram, strategies[len(strategies) // 2])
    reference = _dense_reference(diagram)

    # Lexicographic pass: every query of every strategy against the dense
    # product; the bytes of each answer are kept for the later passes.
    answers, seen = [], []
    for s in strategies:
        answers.append(_dense_answers(diagram, reference, s, scopes))
        seen.append({})
        for kind in QUERIES:
            got = _answer(ev, s, kind, scopes)
            _assert_close(got, kind, answers[-1])
            seen[-1][kind] = [g.tobytes() for g in got]
    # Reversed and shuffled passes, one query per strategy in rotation so
    # that the kinds of query interleave; an invalid strategy before each.
    idx = list(range(len(strategies)))
    shuffled = [int(i) for i in np.random.default_rng(seed).permutation(idx)]
    for order in (idx[::-1], shuffled):
        for kind in QUERIES:
            with pytest.raises(ValueError):
                _answer(ev, invalid, kind, scopes)
        for k, i in enumerate(order):
            kind = QUERIES[k % len(QUERIES)]
            got = _answer(ev, strategies[i], kind, scopes)
            assert [g.tobytes() for g in got] == seen[i][kind]

    res = oracle_optimize(diagram, objective=objective, constraints=constraints)
    best, best_val, n_feasible = _dense_oracle(
        diagram, answers, strategies, objective, constraints)
    assert res.n_strategies == len(strategies)
    assert res.n_feasible == n_feasible
    assert (res.best is None) == (best is None)
    if best is not None:
        assert res.objective_value == pytest.approx(best_val, rel=1e-12)
        chosen = answers[strategies.index(res.best)]
        assert _dense_value(chosen, objective) == pytest.approx(
            best_val, rel=1e-12)
    return res


def _verify_diagram(family: str, n: int, merged: bool):
    if family == "pigfarm":
        d = gen_pigfarm(PigFarmSpec(n_periods=n, seed=1))
    else:
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=n, seed=1))
    return merge_value_nodes(d)[0] if merged else d


class TestIncrementalEvaluator:
    """One evaluator answers every strategy in any order; every answer must
    agree with the dense product of all factors to 1e-12."""

    @pytest.mark.parametrize("family,n,cvar", [
        ("pigfarm", 3, None), ("pigfarm", 4, None),
        ("pigfarm", 3, 0.15), ("pigfarm", 4, 0.15),
        ("nmonitoring", 3, None), ("nmonitoring", 4, None),
        ("nmonitoring", 5, None),
    ])
    def test_verify_instances(self, family, n, cvar):
        d = _verify_diagram(family, n, merged=cvar is not None)
        objective = MeuObjective() if cvar is None else CvarObjective(alpha=cvar)
        _check_incremental(d, objective=objective, seed=n)

    def test_chance_and_logical_constrained_pig_farm(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3, seed=1))
        cons = [parse_chance_text("P(H2=ill)<=0.37"),
                parse_chance_text("P(H3=ill)>=0.35"),
                parse_logical_text("P(D1=treat&D2=treat&D3=treat)")]
        res = _check_incremental(d, constraints=cons, seed=3)
        assert 0 < res.n_feasible < res.n_strategies

    def test_random_diagrams_meu_and_merged_cvar(self):
        rng = np.random.default_rng(2024)
        alphas = (0.05, 0.15, 0.5)
        for k in range(150):
            while True:
                d = random_diagram(rng, min_nodes=6, max_nodes=8,
                                   require_value=True)
                if strategy_count(d) <= 300:
                    break
            _check_incremental(d, seed=k)
            merged, _ = merge_value_nodes(d)
            _check_incremental(
                merged, objective=CvarObjective(alpha=alphas[k % 3]), seed=k)
