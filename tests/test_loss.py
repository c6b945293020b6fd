from __future__ import annotations

from fractions import Fraction
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import connected_graphs, graphs
from lossbell import (
    BudgetExceededError,
    DegenerateGraphError,
    DistributionError,
    Graph,
    LossDistribution,
    NotARootError,
    Quad,
    bell_stabilizer_sum,
    classical_bound,
    critical_sets,
    expectation_after_loss,
    generator_expectation,
    loss_size_sweep,
    max_tolerable_loss,
    mixture_expectation,
    quantum_bound,
    root_loss_check,
    single_loss_mixture_curve,
    violation_report,
)
from lossbell.loss import (
    SubsetOutcome, SweepRow, _alive, _bell_value, _counts, _verdict,
)


def _mask(vertices):
    return sum(1 << v for v in vertices)


def induced_operator_expectation(g, r, hypothesis, actual):
    """Reference for `mixture_expectation`: the exact expectation of the Bell
    operator of the subgraph surviving ``hypothesis``, anchored at r (anchor
    coefficient sqrt(2)*n_max of that subgraph, whether or not r kept root
    status there), on the state that actually lost ``actual``.  The
    subgraph's maximum degree is read from a survivor `Graph`."""
    hyp = g.loss_mask(hypothesis)
    if r in hypothesis:
        raise ValueError("anchor vertex is in the hypothesized loss set")
    sub, _ = g.induced_subgraph(g.vertices - frozenset(hypothesis))
    if sub.n_max == 0:
        raise DegenerateGraphError("surviving subgraph has no edges")
    alive = _alive(g, hyp, g.loss_mask(actual))
    return _bell_value(*_counts(g, r, alive), sub.n_max)


def _outcome(evaluate):
    try:
        return evaluate()
    except (ValueError, IndexError) as exc:
        return type(exc)


def _record(g, root, loss):
    report = violation_report(g, frozenset(loss))
    (rec,) = [rec for rec in report.records if rec.root == root]
    return rec


class TestWTSets:
    """|W|, |T| and root_hit, the paper's counting sets, as reported."""

    def test_star_leaf_loss(self, star6):
        rec = _record(star6, 0, {1})
        assert (rec.w_size, rec.t_size, rec.root_hit) == (4, 0, True)

    def test_dense_center_other_leaf(self, dense12):
        # anchor clique vertex 0, lose the pendant of clique vertex 1
        rec = _record(dense12, 0, {7})
        assert (rec.w_size, rec.t_size, rec.root_hit) == (5, 4, False)

    def test_empty_loss(self, dense12):
        rec = _record(dense12, 0, set())
        assert rec.w_size == len(dense12.neighborhood(0))
        assert rec.t_size == len(dense12.vertices - dense12.neighborhood(0) - {0})
        assert not rec.root_hit

    def test_tail_graph_sets(self, tail_graph7):
        # lose the mid-tail vertex: W keeps the two pendant neighbors of the
        # hub, T keeps only the tail tip
        rec = _record(tail_graph7, 0, {4})
        assert (rec.w_size, rec.t_size, rec.root_hit) == (2, 1, False)


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
        for r in sorted(mapping):
            op = bell_stabilizer_sum(g, r, lost=hyp)
            total = Quad(0)
            for vertex, coeff, _ in op.terms:
                total = total + coeff * generator_expectation(g, vertex, hyp, actual)
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
        # the survivor figures against the survivor subgraph itself
        sub, mapping = g.induced_subgraph(g.vertices - lost)
        assert (report.induced_n, report.induced_n_max) == (sub.n, sub.n_max)
        induced_bound = classical_bound(sub) if sub.n_max else None
        assert report.induced_bound == induced_bound
        for rec in report.records:
            assert rec.anchor_is_induced_root == (
                sub.n_max > 0 and mapping[rec.root] in sub.roots
            )
        # W, T and root_hit from the lost vertices' closed neighborhoods
        touched = set(lost).union(*(g.neighborhood(v) for v in lost))
        for rec in report.records:
            if rec.scope == "both":
                nr = g.neighborhood(rec.root)
                assert rec.w_size == len(nr - touched)
                assert rec.t_size == len(g.vertices - nr - {rec.root} - touched)
                assert rec.root_hit == (rec.root in touched)


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


def _reference_sweep(g, candidates, bound, max_size):
    """The report-per-subset loop of loss_size_sweep before the bitmask kernel."""
    cand = sorted(candidates)
    limit = len(cand) if len(cand) < g.n else g.n - 1
    if max_size is not None:
        limit = min(limit, max_size)

    def subset_outcome(subset):
        report = violation_report(g, frozenset(subset))
        compared = report.full_bound if bound == "full" else report.induced_bound
        return SubsetOutcome(subset, report.best_expectation(), compared)

    rows = []
    for k in range(limit + 1):
        n_subsets = n_violating = 0
        witness = counterexample = None
        for combo in combinations(cand, k):
            n_subsets += 1
            if violation_report(g, frozenset(combo)).violates(bound):
                n_violating += 1
                if witness is None:
                    witness = subset_outcome(combo)
            elif counterexample is None:
                counterexample = subset_outcome(combo)
        rows.append(SweepRow(k, n_subsets, n_violating, witness, counterexample))
    return rows


def _reference_critical_sets(g, max_size, bound):
    """The report-per-subset loop of critical_sets before the bitmask kernel."""
    minimal = []
    for k in range(1, min(max_size, g.n - 1) + 1):
        for combo in combinations(range(g.n), k):
            subset = frozenset(combo)
            if any(m <= subset for m in minimal):
                continue
            if not violation_report(g, subset).violates(bound):
                minimal.append(subset)
    return sorted(minimal, key=lambda s: (len(s), sorted(s)))


@pytest.fixture
def star_plus_edge() -> Graph:
    return Graph(6, [(0, i) for i in range(1, 6)] + [(1, 2)])


@pytest.fixture
def triangles() -> Graph:
    return Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])


def _reference_records(g, loss):
    """(anchor, value, violates_full, violates_induced) of each record of
    `violation_report`, from a survivor `Graph`: the surviving roots of g,
    or else the survivor subgraph's own roots mapped back, each valued as
    the generator-by-generator sum of its operator's terms."""
    sub, mapping = g.induced_subgraph(g.vertices - loss)
    full_bound = classical_bound(g)
    sub_bound = classical_bound(sub) if sub.n_max else None
    records = []
    for r in sorted(g.roots - loss):
        value = Quad(0)
        for v, coeff, _ in bell_stabilizer_sum(g, r).terms:
            value = value + coeff * generator_expectation(g, v, frozenset(), loss)
        records.append((r, value, value > full_bound,
                        sub_bound is not None and value > sub_bound))
    if records or sub_bound is None:
        return records
    back = {new: old for old, new in mapping.items()}
    for r in sorted(sub.roots):
        value = Quad(0)
        for v, coeff, _ in bell_stabilizer_sum(sub, r).terms:
            value = value + coeff * generator_expectation(g, back[v], loss, loss)
        records.append((back[r], value, None, value > sub_bound))
    return records


def _draw_losses(g, data):
    """Drawn loss sets, one with every root lost and one whose survivors
    have no edge; some may lose every vertex."""
    vertices = st.integers(0, g.n - 1)
    losses = data.draw(
        st.lists(st.frozensets(vertices, max_size=g.n - 1), max_size=6)
    )
    # every root lost, plus whatever else was drawn
    losses.append(g.roots | data.draw(st.frozensets(vertices)))
    # edgeless survivors: the complement of a maximal independent set
    independent: set[int] = set()
    for v in data.draw(st.permutations(range(g.n))):
        if not g.neighborhood(v) & independent:
            independent.add(v)
    losses.append(g.vertices - independent)
    return losses


class TestVerdictKernel:
    """The integer sweep verdict against the exact per-subset report."""

    # every hub lost leaves survivor anchors in star_plus_edge; a lost star
    # hub leaves no edge
    @pytest.mark.parametrize(
        "name",
        ["star6", "star_plus_edge", "two_hub8", "tail_graph7", "ring6", "triangles"],
    )
    @pytest.mark.parametrize("bound", ["full", "induced"])
    def test_every_loss_set(self, request, name, bound):
        g = request.getfixturevalue(name)
        verdict = _verdict(g, bound)
        for k in range(g.n):
            for combo in combinations(range(g.n), k):
                report = violation_report(g, frozenset(combo))
                assert verdict(_mask(combo)) == report.violates(bound), combo

    @settings(max_examples=80)
    @given(graphs(min_n=2, max_n=10), st.data())
    def test_matches_report(self, g, data):
        if g.n_max == 0:
            for bound in ("full", "induced"):
                with pytest.raises(DegenerateGraphError):
                    _verdict(g, bound)
            return
        losses = _draw_losses(g, data)
        for bound in ("full", "induced"):
            verdict = _verdict(g, bound)
            for loss in losses:
                if len(loss) < g.n:
                    report = violation_report(g, loss)
                    assert verdict(_mask(loss)) == report.violates(bound)

    @given(graphs(min_n=2, max_n=10), st.data())
    def test_anchor_rule_matches_the_subgraph_reference(self, g, data):
        # the report and the kernel share `survivors` and `_anchors`; this
        # reference builds the survivor subgraph and every value afresh
        if g.n_max == 0:
            return
        verdicts = {bound: _verdict(g, bound) for bound in ("full", "induced")}
        for loss in _draw_losses(g, data):
            if len(loss) == g.n:
                continue
            want = _reference_records(g, loss)
            report = violation_report(g, loss)
            assert [
                (rec.root, rec.expectation, rec.violates_full, rec.violates_induced)
                for rec in report.records
            ] == want
            assert verdicts["full"](_mask(loss)) == any(rec[2] for rec in want)
            assert verdicts["induced"](_mask(loss)) == any(rec[3] for rec in want)

    @settings(max_examples=40)
    @given(graphs(min_n=1, max_n=8), st.data())
    def test_sweeps_match_report_loops(self, g, data):
        candidates = data.draw(st.frozensets(st.integers(0, g.n - 1)))
        max_size = data.draw(st.none() | st.integers(0, g.n))
        critical_size = data.draw(st.integers(0, 3))
        for bound in ("full", "induced"):
            assert _outcome(
                lambda: loss_size_sweep(g, candidates, bound, max_size)
            ) == _outcome(lambda: _reference_sweep(g, candidates, bound, max_size))
            assert _outcome(
                lambda: critical_sets(g, critical_size, bound)
            ) == _outcome(lambda: _reference_critical_sets(g, critical_size, bound))

    @pytest.mark.parametrize("bound", ["full", "induced"])
    def test_dense_center_sweep_and_critical_sets(self, dense12, bound):
        assert loss_size_sweep(dense12, dense12.vertices, bound, 3) == (
            _reference_sweep(dense12, dense12.vertices, bound, 3)
        )
        assert critical_sets(dense12, 2, bound) == (
            _reference_critical_sets(dense12, 2, bound)
        )


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

    @given(connected_graphs(min_n=2, max_n=8), st.data())
    def test_hypothesis_mixture_matches_per_realization_values(self, g, data):
        # reference: one induced_operator_expectation per realization, with
        # out-of-range vertices, whole-graph losses and out-of-range anchors
        def vertex_sets():
            return st.frozensets(st.integers(0, g.n), max_size=g.n)

        hyp = data.draw(vertex_sets())
        root = data.draw(st.integers(-1, g.n))
        realizations = data.draw(st.lists(vertex_sets(), min_size=1, max_size=4))
        weights = [data.draw(st.integers(1, 5)) for _ in realizations]
        dist = LossDistribution(
            tuple(
                (Fraction(w, sum(weights)), s) for w, s in zip(weights, realizations)
            )
        )

        def reference():
            total = Quad(0)
            for prob, realization in dist.entries:
                total = total + (
                    induced_operator_expectation(g, root, hyp, realization) * prob
                )
            return total

        got = _outcome(lambda: mixture_expectation(g, dist, root, hyp))
        assert got == _outcome(reference)

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

    @given(connected_graphs(min_n=2, max_n=9), st.data())
    def test_curve_points_match_mixture_expectation(self, g, data):
        # every grid point against the distribution at its own p; a p above 1
        # is the same DistributionError
        root = data.draw(st.sampled_from(sorted(g.roots)))
        vertex = st.integers(0, g.n - 1)
        candidates = tuple(data.draw(st.lists(vertex, min_size=1, max_size=g.n)))
        hypothesis = data.draw(
            st.frozensets(vertex.filter(lambda v: v != root), max_size=g.n - 2)
        )
        grid = [0, 1] + data.draw(
            st.lists(
                st.fractions(0, 1, max_denominator=12) | st.floats(0, 1, width=16),
                max_size=4,
            )
        )
        if data.draw(st.sampled_from([False, False, False, True])):
            grid.insert(data.draw(st.integers(0, len(grid))), Fraction(3, 2))

        def reference():
            full_bound = classical_bound(g)
            induced_bound = classical_bound(g, lost=hypothesis)
            points = []
            for p in grid:
                dist = LossDistribution.single_loss_model(candidates, p)
                full = mixture_expectation(g, dist, root)
                induced = mixture_expectation(g, dist, root, hypothesis)
                points.append(
                    (p, full, full - full_bound, induced, induced - induced_bound)
                )
            return points

        def curve():
            got = single_loss_mixture_curve(g, root, candidates, hypothesis, grid)
            return [
                (pt.p, pt.full_expectation, pt.full_margin,
                 pt.induced_expectation, pt.induced_margin)
                for pt in got.points
            ]

        assert _outcome(curve) == _outcome(reference)

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
        lossy = LossyState(g, actual)
        for i in sorted(g.vertices - hyp):
            want = generator_expectation(g, i, hyp, actual)
            got = lossy.pauli_expectation(stabilizer(g, i, lost=hyp))
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

        sub_op = bell_stabilizer_sum(dense12, root, lost=hyp)
        oracle_sub = sum(
            float(p) * LossyState(dense12, lost).bell_expectation(sub_op)
            for p, lost in dist.entries
        )
        assert oracle_sub == pytest.approx(
            float(mixture_expectation(dense12, dist, root, hyp)), abs=1e-9
        )
