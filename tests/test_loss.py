from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs
from lossbell import (
    BudgetExceededError,
    DegenerateGraphError,
    DistributionError,
    Graph,
    LossDistribution,
    NotARootError,
    Quad,
    bell_stabilizer_sum,
    critical_sets,
    expectation_after_loss,
    generator_expectation,
    induced_operator_expectation,
    loss_size_sweep,
    max_tolerable_loss,
    mixture_expectation,
    quantum_bound,
    root_loss_check,
    single_loss_mixture_curve,
    violation_report,
    wt_sets,
)


class TestWTSets:
    def test_star_leaf_loss(self, star6):
        sets = wt_sets(star6, 0, frozenset({1}))
        assert sets.w == {2, 3, 4, 5}
        assert sets.t == frozenset()
        assert sets.root_hit

    def test_dense_center_other_leaf(self, dense12):
        # anchor clique vertex 0, lose the pendant of clique vertex 1
        sets = wt_sets(dense12, 0, frozenset({7}))
        assert len(sets.w) == 5 and 1 not in sets.w
        assert len(sets.t) == 4
        assert not sets.root_hit

    def test_empty_loss(self, dense12):
        sets = wt_sets(dense12, 0, frozenset())
        assert sets.w == dense12.neighborhood(0)
        assert sets.t == dense12.vertices - dense12.closed_neighborhood(0)
        assert not sets.root_hit

    def test_non_root_rejected(self, star6):
        with pytest.raises(NotARootError):
            wt_sets(star6, 1, frozenset())

    def test_tail_graph_sets(self, tail_graph7):
        # lose the mid-tail vertex: W keeps the two pendant neighbors of the
        # hub, T keeps only the tail tip
        sets = wt_sets(tail_graph7, 0, frozenset({4}))
        assert sets.w == {1, 2}
        assert sets.t == {6}
        assert not sets.root_hit


class TestExpectationAfterLoss:
    def test_no_loss_reaches_quantum_bound(self, two_centered12):
        assert expectation_after_loss(two_centered12, 0, frozenset()) == quantum_bound(
            two_centered12
        )

    def test_star_leaf_loss_value(self, star6):
        assert expectation_after_loss(star6, 0, frozenset({1})) == Quad(0, 4)

    def test_two_centered_leaf_of_other_hub(self, two_centered12):
        assert expectation_after_loss(two_centered12, 1, frozenset({2})) == Quad(4, 11)

    def test_dense_center_three_leaves(self, dense12):
        assert expectation_after_loss(dense12, 0, frozenset({7, 8, 9})) == Quad(2, 9)

    def test_lost_anchor_full_graph_value(self, star6):
        # losing the anchor zeroes every term
        assert expectation_after_loss(star6, 0, frozenset({0})) == Quad(0)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8), st.data())
    def test_generator_reconstruction(self, g, data):
        # coefficient-weighted sum of 0/1 generator expectations, exactly;
        # the generator-by-generator sum is the reference for both closed forms
        lost = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        )
        for r in sorted(g.roots):
            total = Quad(0)
            for vertex, coeff, _ in bell_stabilizer_sum(g, r).terms:
                total = total + coeff * generator_expectation(
                    g, vertex, frozenset(), lost
                )
            assert total == expectation_after_loss(g, r, lost)

        hyp = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        )
        actual = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        )
        sub, mapping = g.induced_subgraph(g.vertices - hyp)
        if sub.n_max == 0:
            with pytest.raises(DegenerateGraphError):
                induced_operator_expectation(g, min(mapping), hyp, actual)
            return
        inverse = {new: old for old, new in mapping.items()}
        for r in sorted(mapping):
            op = bell_stabilizer_sum(sub, mapping[r], allow_non_root=True)
            total = Quad(0)
            for vertex, coeff, _ in op.terms:
                total = total + coeff * generator_expectation(
                    g, inverse[vertex], hyp, actual
                )
            assert total == induced_operator_expectation(g, r, hyp, actual)

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8), st.data())
    def test_full_and_survivor_operators_agree(self, g, data):
        lost = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 2))
        )
        for r in sorted(g.roots - lost):
            sub, _ = g.induced_subgraph(g.vertices - lost)
            if sub.n_max == 0:
                continue
            assert induced_operator_expectation(g, r, lost, lost) == (
                expectation_after_loss(g, r, lost)
            )


class TestGeneratorExpectations:
    def test_full_graph_cases(self, star4):
        lost = frozenset({3})
        assert generator_expectation(star4, 0, frozenset(), lost) == 0
        assert generator_expectation(star4, 1, frozenset(), lost) == 1
        assert generator_expectation(star4, 3, frozenset(), lost) == 0

    def test_induced_cases(self, star4):
        lost = frozenset({3})
        assert generator_expectation(star4, 1, lost, lost) == 1
        assert generator_expectation(star4, 0, lost, lost) == 0
        with pytest.raises(ValueError):
            generator_expectation(star4, 3, lost, lost)

    def test_survivor_generator_on_intact_state(self, dense12):
        assert generator_expectation(dense12, 0, frozenset({6}), frozenset()) == 0
        path3 = Graph(3, [(0, 1), (1, 2)])
        assert generator_expectation(path3, 0, frozenset({2}), frozenset()) == 1

    def test_no_loss_all_one(self, ring6):
        for i in range(6):
            assert generator_expectation(ring6, i, frozenset(), frozenset()) == 1


class TestViolationReport:
    def test_ring_singletons_never_violate(self, ring6):
        for v in range(6):
            report = violation_report(ring6, frozenset({v}))
            assert report.any_root_lost
            assert not report.violates("full")
            assert not report.violates("induced")

    def test_two_centered_five_leaves(self, two_centered12):
        report = violation_report(two_centered12, frozenset({2, 3, 4, 5, 6}))
        rec = next(r for r in report.records if r.root == 1)
        assert rec.expectation == Quad(0, 11)
        assert report.induced_bound == Quad(12)
        assert rec.violates_induced and not rec.violates_full

    def test_dense_center_two_leaves_violates_full(self, dense12):
        report = violation_report(dense12, frozenset({7, 8}))
        assert report.violates("full")
        best = max(r.expectation for r in report.records)
        assert best == Quad(3, 10)

    def test_all_hubs_lost_falls_back_to_survivor_roots(self):
        # star plus one leaf-leaf edge: hub 0 is the unique max-degree vertex
        g = Graph(6, [(0, i) for i in range(1, 6)] + [(1, 2)])
        report = violation_report(g, frozenset({0}))
        assert report.any_root_lost
        assert all(rec.scope == "induced-only" for rec in report.records)
        assert report.records  # survivor subgraph still has an edge
        assert all(rec.expectation == Quad(0) for rec in report.records)
        assert not report.violates("induced")

    def test_edgeless_survivor_graph(self, star6):
        report = violation_report(star6, frozenset({0}))
        assert report.induced_bound is None
        assert report.records == ()
        assert not report.violates("induced")

    def test_serialization_fields(self, star6):
        doc = violation_report(star6, frozenset({1})).to_dict()
        assert doc["graph"]["n"] == 6
        assert doc["bounds"]["full"]["a"] == "10"
        assert doc["roots"][0]["expectation"]["b"] == "4"

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=8), st.data())
    def test_report_invariants(self, g, data):
        lost = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        )
        report = violation_report(g, lost)
        for rec in report.records:
            assert rec.expectation <= report.quantum
        for r in sorted(g.roots - lost):
            sets = wt_sets(g, r, lost)
            assert sets.w <= g.neighborhood(r)
            assert sets.t.isdisjoint(g.closed_neighborhood(r))
            assert sets.t.isdisjoint(lost)


class TestRootLoss:
    def test_ring_strict_chain(self, ring6):
        check = root_loss_check(ring6, 0)
        assert check.all_strict
        assert all(
            e.margin_to_induced is not None and e.margin_to_induced.sign() > 0
            for e in check.entries
        )

    def test_star_center_vanishes(self, star6):
        check = root_loss_check(star6, 0)
        assert check.entries[0].expectation == Quad(0)
        assert not check.induced_bound_defined
        assert check.all_strict  # expectation < full bound still holds

    def test_dense_center_clique_loss(self, dense12):
        check = root_loss_check(dense12, 2)
        assert check.all_strict
        report = violation_report(dense12, frozenset({2}))
        assert not report.violates("full") and not report.violates("induced")

    def test_path3_middle(self):
        path3 = Graph(3, [(0, 1), (1, 2)])
        check = root_loss_check(path3, 1)
        assert not check.induced_bound_defined
        assert check.all_strict

    def test_non_root_rejected(self, star6):
        with pytest.raises(NotARootError):
            root_loss_check(star6, 3)

    @settings(max_examples=30)
    @given(connected_graphs(min_n=2, max_n=8))
    def test_root_loss_never_violates(self, g):
        for r_lost in sorted(g.roots):
            assert root_loss_check(g, r_lost).all_strict
            report = violation_report(g, frozenset({r_lost}))
            assert not report.violates("full")
            assert not report.violates("induced")


class TestSweeps:
    def test_dense_center_tolerances(self, dense12):
        leaves = frozenset(dense12.leaves())
        assert max_tolerable_loss(dense12, leaves, "best-case", "induced").k == 3
        assert max_tolerable_loss(dense12, leaves, "best-case", "full").k == 2
        assert max_tolerable_loss(dense12, leaves, "worst-case", "induced").k == 3

    def test_two_centered_tolerances(self, two_centered12):
        leaves = frozenset(two_centered12.leaves())
        best = max_tolerable_loss(two_centered12, leaves, "best-case", "induced")
        assert best.k == 5
        worst = max_tolerable_loss(two_centered12, leaves, "worst-case", "induced")
        assert worst.k == 1
        assert worst.breaking_set is not None
        # the breaking pair spans both hubs
        subset = worst.breaking_set.subset
        hubs = {min(two_centered12.neighborhood(v) - frozenset(leaves)) for v in subset}
        assert hubs == {0, 1}

    def test_sweep_rows_deterministic(self, dense12):
        leaves = frozenset(dense12.leaves())
        rows1 = loss_size_sweep(dense12, leaves, "induced")
        rows2 = loss_size_sweep(dense12, leaves, "induced")
        assert rows1 == rows2
        assert [r.any_violates for r in rows1] == [True] * 4 + [False] * 3

    def test_budget_enforced(self, dense12):
        with pytest.raises(BudgetExceededError, match="64"):
            loss_size_sweep(dense12, frozenset(dense12.leaves()), budget=10)


class TestCriticalSets:
    def test_ring(self, ring6):
        assert critical_sets(ring6, 1) == [frozenset({v}) for v in range(6)]

    def test_star(self, star6):
        got = critical_sets(star6, 1)
        assert got == [frozenset({v}) for v in range(6)]

    def test_two_centered(self, two_centered12):
        got = critical_sets(two_centered12, 2)
        hubs = [s for s in got if len(s) == 1]
        pairs = [s for s in got if len(s) == 2]
        assert hubs == [frozenset({0}), frozenset({1})]
        assert len(pairs) == 25
        left = set(range(2, 7))
        right = set(range(7, 12))
        for pair in pairs:
            assert len(pair & left) == 1 and len(pair & right) == 1


class TestMixtures:
    def test_point_mass_on_no_loss(self, dense12):
        dist = LossDistribution(((Fraction(1), frozenset()),))
        assert mixture_expectation(dense12, dist, 0) == quantum_bound(dense12)

    def test_single_loss_model_value(self, dense12):
        dist = LossDistribution.single_loss_model(dense12.leaves(), Fraction(1, 10))
        got = mixture_expectation(dense12, dist, 0)
        assert got == Quad(Fraction(59, 12), Fraction(59, 5))

    def test_point_mass_on_anchor_pendant(self, dense12):
        # certain loss of the anchor's own pendant: no violation survives
        dist = LossDistribution(((Fraction(1), frozenset({6})),))
        got = mixture_expectation(dense12, dist, 0)
        assert got == Quad(5, 5)
        assert got < Quad(17)

    def test_unnormalized_rejected(self):
        with pytest.raises(DistributionError):
            LossDistribution(((Fraction(1, 2), frozenset()),))
        with pytest.raises(DistributionError):
            LossDistribution(((Fraction(3, 2), frozenset()), (Fraction(-1, 2), frozenset({0}))))

    def test_survivor_operator_suboptimal_at_zero_loss(self, dense12):
        # hypothesis: pendant of the anchor; at p=0 the anchor generator vanishes
        hyp = frozenset({6})
        value = mixture_expectation(
            dense12,
            LossDistribution(((Fraction(1), frozenset()),)),
            0,
            hypothesis=hyp,
        )
        sub, _ = dense12.induced_subgraph(dense12.vertices - hyp)
        assert value == Quad(5, 5)
        assert value < quantum_bound(sub)

    def test_curve_crossover_is_exact_meeting_point(self, dense12):
        grid = [Fraction(j, 80) for j in range(20)]
        curve = single_loss_mixture_curve(
            dense12, 0, dense12.leaves(), frozenset({6}), grid
        )
        assert curve.crossover is not None
        # both margins are affine in p; evaluate them at the crossover
        dist0 = LossDistribution.single_loss_model(dense12.leaves(), Fraction(0))
        dist1 = LossDistribution.single_loss_model(dense12.leaves(), Fraction(1))
        f0 = mixture_expectation(dense12, dist0, 0) - curve.full_bound
        f1 = mixture_expectation(dense12, dist1, 0) - curve.full_bound
        i0 = mixture_expectation(dense12, dist0, 0, frozenset({6})) - curve.induced_bound
        i1 = mixture_expectation(dense12, dist1, 0, frozenset({6})) - curve.induced_bound
        p = curve.crossover
        full_at_p = f0 + p * (f1 - f0)
        induced_at_p = i0 + p * (i1 - i0)
        assert full_at_p == induced_at_p

    def test_curve_monotone_margin(self, dense12):
        grid = [Fraction(j, 80) for j in range(20)]
        curve = single_loss_mixture_curve(
            dense12, 0, dense12.leaves(), frozenset({6}), grid
        )
        margins = [pt.full_margin for pt in curve.points]
        assert all(m.sign() > 0 for m in margins)
        assert all(margins[i] > margins[i + 1] for i in range(len(margins) - 1))


class TestDisconnectedGraphs:
    """Nothing assumes connectivity; two-component graphs go through the
    same engine and the report surfaces the connectivity flag."""

    @pytest.fixture
    def two_triangles(self):
        return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])

    def test_report_flags_disconnection(self, two_triangles):
        report = violation_report(two_triangles, frozenset({0}))
        assert report.connected is False

    def test_closed_form_matches_oracle(self, two_triangles):
        from lossbell import LossyState

        g = two_triangles
        for lost in [frozenset()] + [frozenset({v}) for v in range(6)]:
            lossy = LossyState(g, lost)
            for r in sorted(g.roots - lost):
                want = float(expectation_after_loss(g, r, lost))
                got = lossy.bell_expectation(bell_stabilizer_sum(g, r))
                assert abs(want - got) < 1e-9

    def test_root_loss_still_forbids_violation(self, two_triangles):
        for r_lost in range(6):
            assert root_loss_check(two_triangles, r_lost).all_strict


class TestHypothesisOperatorAgainstOracle:
    """The generator rule for a hypothesized survivor subgraph evaluated on a
    state with a different actual loss, checked against the statevector."""

    @settings(max_examples=30)
    @given(connected_graphs(min_n=3, max_n=8), st.data())
    def test_generator_rule(self, g, data):
        from lossbell import LossyState, stabilizer

        hyp = frozenset(
            data.draw(
                st.sets(st.integers(0, g.n - 1), min_size=1, max_size=min(2, g.n - 2))
            )
        )
        actual = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=min(2, g.n - 1)))
        )
        survivors = tuple(sorted(g.vertices - hyp))
        sub, mapping = g.induced_subgraph(survivors)
        lossy = LossyState(g, actual)
        for i in survivors:
            want = generator_expectation(g, i, hyp, actual)
            got = lossy.pauli_expectation(
                stabilizer(sub, mapping[i]).embed(survivors, g.n)
            )
            assert abs(want - got) < 1e-9

    def test_mixture_values_match_oracle_branch_sums(self, dense12):
        from lossbell import LossyState, bell_stabilizer_sum

        dist = LossDistribution.single_loss_model(dense12.leaves(), Fraction(1, 7))
        root = 0
        hyp = frozenset({6})

        full_op = bell_stabilizer_sum(dense12, root)
        oracle_full = sum(
            float(p) * LossyState(dense12, lost).bell_expectation(full_op)
            for p, lost in dist.entries
        )
        assert oracle_full == pytest.approx(
            float(mixture_expectation(dense12, dist, root)), abs=1e-9
        )

        survivors = tuple(sorted(dense12.vertices - hyp))
        sub, mapping = dense12.induced_subgraph(survivors)
        sub_op = bell_stabilizer_sum(sub, mapping[root], allow_non_root=True)
        oracle_sub = sum(
            float(p)
            * LossyState(dense12, lost).bell_expectation(sub_op, positions=survivors)
            for p, lost in dist.entries
        )
        assert oracle_sub == pytest.approx(
            float(mixture_expectation(dense12, dist, root, hyp)), abs=1e-9
        )
