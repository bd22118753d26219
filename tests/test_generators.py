"""Diagram generators: the herd-management family, the monitoring family,
and the seeded CPT perturbation."""

import numpy as np
import pytest

from limid.diagram import NodeKind, topological_order, validate_diagram
from limid.generators import (
    P_ILL_INITIAL,
    PRICE_HEALTHY,
    PRICE_ILL,
    TREAT_COST,
    NMonitoringSpec,
    PigFarmSpec,
    gen_nmonitoring,
    gen_pigfarm,
    perturb_cpts,
)


class TestPigFarm:
    def test_default_parameter_values(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        np.testing.assert_allclose(d.cpts["H1"].rows, [[0.9, 0.1]])
        # test channel: specificity 0.8 on healthy, sensitivity 0.9 on ill
        np.testing.assert_allclose(
            d.cpts["T1"].rows, [[0.8, 0.2], [0.1, 0.9]]
        )
        # transition rows ordered (healthy,pass),(healthy,treat),(ill,pass),(ill,treat)
        np.testing.assert_allclose(
            d.cpts["H2"].rows,
            [[0.8, 0.2], [0.9, 0.1], [0.1, 0.9], [0.5, 0.5]],
        )
        np.testing.assert_allclose(
            d.utilities["V1"].values, [0.0, -100.0]
        )
        np.testing.assert_allclose(
            d.utilities["V4"].values, [1000.0, 300.0]
        )

    def test_structure(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=3))
        assert validate_diagram(d) == []
        names = [n.name for n in d.nodes]
        assert names == [
            "H1", "T1", "D1", "V1",
            "H2", "T2", "D2", "V2",
            "H3", "T3", "D3", "V3",
            "H4", "V4",
        ]
        assert d.parents("T2") == ("H2",)
        assert d.parents("D2") == ("T2",)  # decisions see only their test
        assert d.parents("H3") == ("H2", "D2")
        assert d.parents("V2") == ("D2",)
        assert d.parents("V4") == ("H4",)
        assert d.kind("D3") == NodeKind.DECISION
        assert d.kind("V4") == NodeKind.VALUE
        assert d.states("H1") == ("healthy", "ill")
        assert d.states("T1") == ("negative", "positive")
        assert d.states("D1") == ("pass", "treat")

    def test_all_cpt_rows_normalized(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=4))
        for cpt in d.cpts.values():
            np.testing.assert_allclose(cpt.rows.sum(axis=1), 1.0, atol=1e-12)

    def test_value_nodes_have_identity_channels(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        np.testing.assert_array_equal(d.cpts["V1"].rows, np.eye(2))
        np.testing.assert_array_equal(d.cpts["V3"].rows, np.eye(2))

    def test_custom_parameters_flow_through(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=1))
        np.testing.assert_array_equal(
            d.cpts["H1"].rows, [[1 - P_ILL_INITIAL, P_ILL_INITIAL]]
        )
        np.testing.assert_array_equal(d.utilities["V1"].values, [0.0, -TREAT_COST])
        np.testing.assert_array_equal(
            d.utilities["V2"].values, [PRICE_HEALTHY, PRICE_ILL]
        )

    def test_seeded_variant_perturbs_cpts_only(self):
        base = gen_pigfarm(PigFarmSpec(n_periods=2))
        noisy = gen_pigfarm(PigFarmSpec(n_periods=2, seed=5))
        again = gen_pigfarm(PigFarmSpec(n_periods=2, seed=5))
        assert not np.allclose(noisy.cpts["H2"].rows, base.cpts["H2"].rows)
        np.testing.assert_array_equal(
            noisy.cpts["H2"].rows, again.cpts["H2"].rows
        )
        np.testing.assert_array_equal(
            noisy.utilities["V3"].values, base.utilities["V3"].values
        )

    def test_rejects_zero_periods(self):
        with pytest.raises(ValueError):
            gen_pigfarm(PigFarmSpec(n_periods=0))


class TestNMonitoring:
    def test_structure_two_monitors(self):
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=2, seed=0))
        assert validate_diagram(d) == []
        names = [n.name for n in d.nodes]
        assert names == ["L", "R1", "A1", "R2", "A2", "F", "T"]
        assert d.parents("R1") == ("L",)
        assert d.parents("A1") == ("R1",)
        assert d.parents("F") == ("L", "A1", "A2")
        assert d.parents("T") == ("A1", "A2", "F")
        assert d.kind("A2") == NodeKind.DECISION
        assert d.kind("T") == NodeKind.VALUE

    def test_seed_pins_the_instance(self):
        a = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=9))
        b = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=9))
        c = gen_nmonitoring(NMonitoringSpec(n_monitors=3, seed=10))
        np.testing.assert_array_equal(a.cpts["F"].rows, b.cpts["F"].rows)
        np.testing.assert_array_equal(
            a.utilities["T"].values, b.utilities["T"].values
        )
        assert not np.array_equal(a.cpts["F"].rows, c.cpts["F"].rows)

    def test_rows_normalized_and_failure_monotone(self):
        spec = NMonitoringSpec(n_monitors=2, seed=4)
        d = gen_nmonitoring(spec)
        for cpt in d.cpts.values():
            np.testing.assert_allclose(cpt.rows.sum(axis=1), 1.0, atol=1e-12)
        f = d.cpts["F"].rows  # rows: load-major, then action combos
        n_combos = 4
        low, high = f[:n_combos, 1], f[n_combos:, 1]
        # higher load fails more, for every action combination
        assert np.all(high > low)
        # full fortification beats none, at either load
        assert f[0, 1] > f[n_combos - 1, 1]
        assert f[n_combos, 1] > f[2 * n_combos - 1, 1]

    def test_explicit_parameters_override_sampling(self):
        # The documented recipe, drawn in its documented order.
        rng = np.random.default_rng(0)
        p_high, noise, fail_low, fail_high, factor, cost, reward = (
            rng.uniform(lo, hi)
            for lo, hi in [(0.3, 0.7), (0.1, 0.3), (0.05, 0.25), (0.5, 0.95),
                           (0.3, 0.7), (20.0, 80.0), (500.0, 1500.0)]
        )
        d = gen_nmonitoring(NMonitoringSpec(n_monitors=1, seed=0))
        np.testing.assert_allclose(d.cpts["L"].rows, [[1 - p_high, p_high]])
        miss = np.exp(-1 / noise)
        np.testing.assert_allclose(
            d.cpts["R1"].rows,
            np.array([[1, miss], [miss, 1]]) / (1 + miss),
        )
        fail = [fail_low, fail_low * factor, fail_high, fail_high * factor]
        np.testing.assert_allclose(
            d.cpts["F"].rows, [[1 - p, p] for p in fail], rtol=1e-15
        )
        # utility = reward * intact - spent, over (A1, F) configurations
        np.testing.assert_allclose(
            d.utilities["T"].values, [reward, 0.0, reward - cost, -cost]
        )

    def test_rejects_degenerate_sizes(self):
        with pytest.raises(ValueError):
            gen_nmonitoring(NMonitoringSpec(n_monitors=0))


class TestPerturbCpts:
    def test_deterministic_and_normalized(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        a = perturb_cpts(d, seed=11)
        b = perturb_cpts(d, seed=11)
        c = perturb_cpts(d, seed=12)
        for name in d.cpts:
            np.testing.assert_array_equal(a.cpts[name].rows, b.cpts[name].rows)
            np.testing.assert_allclose(
                a.cpts[name].rows.sum(axis=1), 1.0, atol=1e-12
            )
        assert any(
            not np.array_equal(a.cpts[n].rows, c.cpts[n].rows) for n in d.cpts
        )

    def test_structure_and_utilities_untouched(self):
        d = gen_pigfarm(PigFarmSpec(n_periods=2))
        p = perturb_cpts(d, seed=3)
        assert [n.name for n in p.nodes] == [n.name for n in d.nodes]
        assert topological_order(p) == topological_order(d)
        for v in d.value_nodes:
            np.testing.assert_array_equal(
                p.utilities[v].values, d.utilities[v].values
            )
