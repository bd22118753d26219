"""Risk-specification objects: parsing, event matching, validation."""

import numpy as np
import pytest

from limid.generators import PigFarmSpec, gen_pigfarm
from limid.risk import (
    BudgetConstraint,
    ChanceConstraint,
    CvarConstraint,
    CvarObjective,
    EventSpec,
    LogicalConstraint,
    MeuObjective,
    budget_from_dict,
    parse_chance_text,
    parse_event,
    parse_logical_text,
    trigger_mask,
    validate_risk_spec,
)

from helpers import random_diagram

# Pig farm, two periods: every H node is healthy/ill, every D node pass/treat.
PIG2 = gen_pigfarm(PigFarmSpec(n_periods=2))


class TestEventSpec:
    def test_any_mode_matches_if_one_literal_holds(self):
        ev = EventSpec(terms=(("H1", "ill"), ("H2", "ill")), mode="any")
        mask = trigger_mask(PIG2, ("H1", "H2"), LogicalConstraint(ev))
        # (H1, H2): healthy-healthy, healthy-ill, ill-healthy, ill-ill
        assert mask.tolist() == [False, True, True, True]

    def test_all_mode_requires_every_literal(self):
        ev = EventSpec(terms=(("D1", "treat"), ("D2", "treat")), mode="all")
        mask = trigger_mask(PIG2, ("D1", "D2"), LogicalConstraint(ev))
        # (D1, D2): pass-pass, pass-treat, treat-pass, treat-treat
        assert mask.tolist() == [False, False, False, True]

    def test_scope_deduplicates_and_keeps_order(self):
        ev = EventSpec(
            terms=(("B", "x"), ("A", "y"), ("B", "z")), mode="any"
        )
        assert ev.scope == ("B", "A")

    def test_rejects_empty_terms_and_bad_mode(self):
        with pytest.raises(ValueError):
            EventSpec(terms=(), mode="any")
        with pytest.raises(ValueError):
            EventSpec(terms=(("A", "x"),), mode="xor")


class TestParsing:
    def test_parse_event_any(self):
        ev = parse_event("H1=ill|H2=ill|H3=ill")
        assert ev.mode == "any"
        assert ev.terms == (("H1", "ill"), ("H2", "ill"), ("H3", "ill"))

    def test_parse_event_all(self):
        ev = parse_event("D1=treat & D2=treat")
        assert ev.mode == "all"
        assert ev.terms == (("D1", "treat"), ("D2", "treat"))

    def test_parse_event_single_literal_defaults_to_any(self):
        assert parse_event("H4=ill").mode == "any"

    def test_parse_event_rejects_mixed_connectives(self):
        with pytest.raises(ValueError, match="mixes"):
            parse_event("A=x|B=y&C=z")

    def test_parse_event_rejects_malformed_literal(self):
        with pytest.raises(ValueError, match="node=state"):
            parse_event("A=x|By")
        with pytest.raises(ValueError, match="node=state"):
            parse_event("=x")

    def test_parse_chance_text(self):
        c = parse_chance_text("P(H1=ill|H2=ill) <= 0.4")
        assert isinstance(c, ChanceConstraint)
        assert c.sense == "<="
        assert c.p == 0.4
        assert c.event.mode == "any"
        c2 = parse_chance_text("P(H4=healthy)>=0.6")
        assert (c2.sense, c2.p) == (">=", 0.6)

    def test_parse_chance_text_rejects_missing_bound(self):
        with pytest.raises(ValueError):
            parse_chance_text("P(H1=ill)")
        with pytest.raises(ValueError):
            parse_chance_text("H1=ill <= 0.4")
        with pytest.raises(ValueError, match="bound"):
            parse_chance_text("P(H1=ill) <= often")

    def test_parse_logical_text(self):
        c = parse_logical_text("P(D1=treat&D2=treat&D3=treat)")
        assert isinstance(c, LogicalConstraint)
        assert c.event.mode == "all"
        assert len(c.event.terms) == 3

    def test_parse_logical_text_rejects_real_bound(self):
        with pytest.raises(ValueError, match="no bound"):
            parse_logical_text("P(D1=treat) <= 0.5")

    def test_budget_from_dict(self):
        b = budget_from_dict(
            {
                "costs": {"D1": {"treat": 100}, "D2": {"treat": 100}},
                "limit": 150,
            }
        )
        assert b.limit == 150.0
        assert b.costs == {"D1": {"treat": 100.0}, "D2": {"treat": 100.0}}
        # (D1, D2) costs 0, 100, 100, 200: only treating twice breaks it
        mask = trigger_mask(PIG2, ("D1", "D2"), b)
        assert mask.tolist() == [False, False, False, True]

    def test_budget_from_dict_rejects_missing_keys(self):
        with pytest.raises(ValueError, match="costs"):
            budget_from_dict({"limit": 10})

    @pytest.mark.parametrize("limit, cost", [
        (float("nan"), 100), (float("inf"), 100), (150, float("nan")),
        (150, float("-inf")),
    ])
    def test_budget_from_dict_rejects_non_finite_numbers(self, limit, cost):
        # a NaN limit compares False against every cost, so the budget
        # would forbid nothing
        with pytest.raises(ValueError, match="finite"):
            budget_from_dict(
                {"costs": {"D1": {"treat": cost}}, "limit": limit}
            )


class TestBounds:
    def test_chance_probability_must_be_in_unit_interval(self):
        ev = parse_event("H1=ill")
        with pytest.raises(ValueError):
            ChanceConstraint(event=ev, sense="<=", p=1.5)
        with pytest.raises(ValueError):
            ChanceConstraint(event=ev, sense="<", p=0.4)

    def test_cvar_alpha_must_be_in_half_open_interval(self):
        assert CvarObjective(alpha=1.0).alpha == 1.0
        with pytest.raises(ValueError):
            CvarObjective(alpha=0.0)
        with pytest.raises(ValueError):
            CvarConstraint(alpha=1.2, bound=0.0)

    @pytest.mark.parametrize("bound", [float("nan"), float("inf"), float("-inf")])
    def test_cvar_bound_must_be_finite(self, bound):
        with pytest.raises(ValueError, match="finite"):
            CvarConstraint(alpha=0.2, bound=bound)


class TestValidation:
    def setup_method(self):
        self.d = gen_pigfarm(PigFarmSpec(n_periods=2))

    def test_clean_specs_pass(self):
        assert validate_risk_spec(self.d, MeuObjective()) == []
        assert validate_risk_spec(self.d, CvarObjective(alpha=0.2)) == []
        assert (
            validate_risk_spec(self.d, parse_chance_text("P(H1=ill)<=0.4"))
            == []
        )

    def test_unknown_node_reported(self):
        bad = parse_chance_text("P(H9=ill)<=0.4")
        assert any("H9" in p for p in validate_risk_spec(self.d, bad))

    def test_unknown_state_reported(self):
        bad = parse_logical_text("P(D1=vaccinate)")
        msgs = validate_risk_spec(self.d, bad)
        assert any("vaccinate" in p for p in msgs)

    def test_budget_checked_per_node_and_state(self):
        bad = BudgetConstraint(
            costs={"D1": {"zap": 1}, "D9": {"treat": 1}}, limit=10
        )
        msgs = validate_risk_spec(self.d, bad)
        assert any("zap" in p for p in msgs)
        assert any("D9" in p for p in msgs)

    def test_unrecognized_spec_object_reported(self):
        assert validate_risk_spec(self.d, object()) != []


def loop_mask(diagram, scope, spec):
    """The trigger predicate, one scope configuration at a time."""
    indexer = diagram.indexer(scope)
    hits = []
    for idx in range(indexer.total):
        states = indexer.states_of(idx)
        assignment = {n: diagram.states(n)[s] for n, s in zip(scope, states)}
        if isinstance(spec, BudgetConstraint):
            cost = sum(table.get(assignment[n], 0.0)
                       for n, table in spec.costs.items())
            hits.append(cost > spec.limit)
        else:
            matched = (assignment[n] == s for n, s in spec.event.terms)
            hits.append(any(matched) if spec.event.mode == "any" else all(matched))
    return hits


class TestTriggerMask:
    def test_matches_a_loop_over_configurations(self):
        rng = np.random.default_rng(2024)
        for _ in range(60):
            d = random_diagram(rng, max_nodes=7, max_states=3)
            names = [n.name for n in d.nodes]
            scope = [names[i] for i in rng.permutation(len(names))]
            scope = scope[: int(rng.integers(1, len(scope) + 1))]
            picks = [scope[i] for i in rng.integers(len(scope), size=3)]
            terms = []
            for n in picks[: int(rng.integers(1, 4))]:
                labels = d.states(n) + ("absent",)
                terms.append((n, labels[int(rng.integers(len(labels)))]))
            mode = ("any", "all")[int(rng.integers(2))]
            # whole costs, so that some totals equal the limit
            budget = BudgetConstraint(
                costs={
                    n: {s: float(rng.integers(3)) for s in d.states(n)
                        if rng.random() < 0.7}
                    for n in picks
                },
                limit=float(rng.integers(4)),
            )
            for spec in (LogicalConstraint(EventSpec(tuple(terms), mode)),
                         budget):
                got = trigger_mask(d, scope, spec)
                assert got.dtype == bool
                assert got.tolist() == loop_mask(d, scope, spec)
