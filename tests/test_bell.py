from __future__ import annotations

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import connected_graphs, embed, graphs
from lossbell import (
    DegenerateGraphError,
    FamilySpec,
    Graph,
    MeasurementSetting,
    NotARootError,
    Quad,
    SQRT2,
    bell_stabilizer_sum,
    classical_bound,
    generate,
    generic_bell_operator,
    quantum_bound,
)
from lossbell.bell import bell_weights, stabilizer_sum_matrix


class TestBounds:
    def test_classical_values(self, ring6, star6, two_centered12):
        assert classical_bound(ring6) == Quad(7)
        assert classical_bound(star6) == Quad(10)
        assert classical_bound(two_centered12) == Quad(17)

    def test_quantum_values(self, ring6):
        twelve_six = generate(FamilySpec("dense-center", 12))
        assert quantum_bound(twelve_six) == Quad(5, 12)
        assert float(quantum_bound(twelve_six)) == pytest.approx(21.9706, abs=1e-4)
        assert quantum_bound(ring6) == Quad(3, 4)
        assert quantum_bound(Graph(2, [(0, 1)])) == Quad(0, 2)

    def test_edgeless_rejected(self):
        with pytest.raises(DegenerateGraphError):
            classical_bound(Graph(3))
        with pytest.raises(DegenerateGraphError):
            quantum_bound(Graph(1))

    @given(graphs(min_n=1, max_n=9), st.data())
    def test_survivors_bound_is_the_induced_subgraphs(self, g, data):
        lost = data.draw(st.frozensets(st.integers(0, g.n - 1), max_size=g.n - 1))
        sub, _ = g.induced_subgraph(g.vertices - lost)
        if sub.n_max == 0:
            with pytest.raises(DegenerateGraphError):
                classical_bound(sub)
            with pytest.raises(DegenerateGraphError):
                classical_bound(g, lost=lost)
        else:
            assert classical_bound(g, lost=lost) == classical_bound(sub)
        if not lost and g.n_max:
            assert classical_bound(g, lost=lost) == classical_bound(g)

    def test_survivors_bound_values(self, star6, two_hub8):
        assert classical_bound(star6, lost=frozenset({1, 2})) == Quad(6)
        assert classical_bound(two_hub8, lost=frozenset({7})) == Quad(10)
        with pytest.raises(DegenerateGraphError):
            classical_bound(star6, lost=frozenset({0}))

    @given(connected_graphs())
    def test_pair_gap(self, g):
        quantum, classical = quantum_bound(g), classical_bound(g)
        assert quantum > classical
        assert quantum - classical == Quad(-2 * g.n_max, 2 * g.n_max)


class TestStabilizerSum:
    def test_star4_coefficients(self, star4):
        op = bell_stabilizer_sum(star4, 0)
        coeffs = {v: c for v, c, _ in op.terms}
        assert coeffs == {0: Quad(0, 3), 1: SQRT2, 2: SQRT2, 3: SQRT2}

    def test_ring5_coefficients(self):
        ring5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        op = bell_stabilizer_sum(ring5, 0)
        coeffs = {v: c for v, c, _ in op.terms}
        assert coeffs == {
            0: Quad(0, 2),
            1: SQRT2,
            4: SQRT2,
            2: Quad(1),
            3: Quad(1),
        }

    def test_non_root_rejected(self, star4):
        with pytest.raises(NotARootError):
            bell_stabilizer_sum(star4, 1)
        # the survivors' operator may anchor anywhere, even with nothing lost
        op = bell_stabilizer_sum(star4, 1, lost=frozenset())
        assert op.root == 1

    @given(connected_graphs())
    def test_coefficient_total_is_quantum_bound(self, g):
        for r in g.roots:
            assert bell_stabilizer_sum(g, r).coefficient_total() == quantum_bound(g)

    @given(connected_graphs())
    def test_coefficient_multiset(self, g):
        r = min(g.roots)
        op = bell_stabilizer_sum(g, r)
        assert len(op.terms) == g.n
        counts = Counter(str(c) for _, c, _ in op.terms)
        expected = Counter(
            {str(Quad(0, g.n_max)): 1, str(SQRT2): g.n_max, str(Quad(1)): g.n - 1 - g.n_max}
        )
        if g.n_max == 1:  # the anchor coefficient coincides with sqrt2
            expected = Counter(
                {str(SQRT2): 1 + g.n_max, str(Quad(1)): g.n - 1 - g.n_max}
            )
        expected = +expected
        assert counts == expected


@st.composite
def graphs_with_loss(draw):
    """A graph with n <= 10 and a loss set that keeps a vertex: drawn at
    random, or one that loses every root, or one that leaves no edge."""
    g = draw(graphs(min_n=2, max_n=10))
    how = draw(st.sampled_from(("random", "random", "every root", "no edge")))
    if how == "every root" and len(g.roots) < g.n:
        extra = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        lost = set(g.roots) | extra
        while len(lost) >= g.n:
            lost.discard(max(lost - g.roots))
    elif how == "no edge":  # keep an independent set, in a drawn order
        kept: set[int] = set()
        for v in draw(st.permutations(range(g.n))):
            if not g.neighborhood(v) & kept:
                kept.add(v)
        lost = set(range(g.n)) - kept
    else:
        lost = draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
    return g, frozenset(lost)


class TestSurvivorOperator:
    """``bell_stabilizer_sum(g, r, lost=L)`` on the full register against the
    operator of the induced subgraph, embedded site by site."""

    @given(graphs_with_loss())
    def test_equals_the_embedded_subgraph_operator(self, gl):
        g, lost = gl
        survivors = tuple(sorted(g.vertices - lost))
        sub, mapping = g.induced_subgraph(survivors)
        for a in survivors:
            if sub.n_max == 0:
                with pytest.raises(DegenerateGraphError):
                    bell_stabilizer_sum(g, a, lost=lost)
                with pytest.raises(DegenerateGraphError):
                    bell_weights(g, a, lost=lost)
                continue
            ref = bell_stabilizer_sum(sub, mapping[a], lost=frozenset())
            want = [(survivors[v], c, embed(p, survivors, g.n)) for v, c, p in ref.terms]
            op = bell_stabilizer_sum(g, a, lost=lost)
            assert (op.n, op.root) == (g.n, a)
            assert list(op.terms) == want
            assert bell_weights(g, a, lost=lost) == tuple(
                (v, float(c)) for v, c, _ in want
            )

    @given(connected_graphs(max_n=10))
    def test_no_loss_is_the_graphs_operator(self, g):
        for r in sorted(g.roots):
            op = bell_stabilizer_sum(g, r)
            assert bell_stabilizer_sum(g, r, lost=frozenset()) == op
            assert bell_weights(g, r) == tuple((v, float(c)) for v, c, _ in op.terms)

    def test_anchor_weight_is_the_survivors_n_max(self, two_hub8):
        # hub 1 lost: hub 0 keeps degree 3; pendant 2 anchors with sqrt2*3
        op = bell_stabilizer_sum(two_hub8, 2, lost=frozenset({1}))
        assert [(v, c) for v, c, _ in op.terms] == [
            (2, Quad(0, 3)), (0, SQRT2), (3, Quad(1)), (4, Quad(1)),
            (5, Quad(1)), (6, Quad(1)), (7, Quad(1)),
        ]
        assert op.terms[1][2].letters == "XIZZZIII"  # Z on the lost hub cleared
        # both hubs lost: the pendants survive with no edge among them
        with pytest.raises(DegenerateGraphError):
            bell_stabilizer_sum(two_hub8, 2, lost=frozenset({0, 1}))

    def test_bad_loss_sets(self, star4):
        with pytest.raises(ValueError, match="anchor vertex 0 is in the loss set"):
            bell_stabilizer_sum(star4, 0, lost=frozenset({0}))
        with pytest.raises(ValueError, match="out-of-range"):
            bell_weights(star4, 0, lost=frozenset({7}))
        with pytest.raises(IndexError):
            bell_stabilizer_sum(star4, 4, lost=frozenset())


def _deterministic_max_score(g: Graph, r: int) -> int:
    """Best score over all +-1 output assignments for both settings."""
    from math import prod

    nr = sorted(g.neighborhood(r))
    rest = [i for i in range(g.n) if i != r and i not in g.neighborhood(r)]
    best = None
    for bits in range(4**g.n):
        y0 = [1 if (bits >> (2 * i)) & 1 else -1 for i in range(g.n)]
        y1 = [1 if (bits >> (2 * i + 1)) & 1 else -1 for i in range(g.n)]
        score = g.n_max * (y0[r] + y1[r]) * prod(y1[i] for i in nr)
        score += (y0[r] - y1[r]) * sum(
            y0[i] * prod(y1[j] for j in g.neighborhood(i) if j != r) for i in nr
        )
        score += sum(y0[i] * prod(y1[j] for j in g.neighborhood(i)) for i in rest)
        best = score if best is None else max(best, score)
    return best


def test_classical_bound_matches_exhaustive_strategies():
    # every graph on up to 4 vertices with at least one edge, every root
    for n in (2, 3, 4):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(1, 2 ** len(pairs)):
            g = Graph(n, [e for k, e in enumerate(pairs) if (mask >> k) & 1])
            for r in sorted(g.roots):
                assert _deterministic_max_score(g, r) == int(classical_bound(g).a)


class TestMeasurementSetting:
    def test_ideal_labels(self, star4):
        setting = MeasurementSetting.ideal(star4, 0)
        assert setting.labels[0] == ("(X+Z)/sqrt2", "(X-Z)/sqrt2")
        assert setting.labels[2] == ("X", "Z")

    def test_involution_enforced(self):
        bad = np.array([[1, 0], [0, 2]], dtype=complex)
        good = np.array([[0, 1], [1, 0]], dtype=complex)
        with pytest.raises(ValueError):
            MeasurementSetting([bad], [good])

    def test_hermiticity_enforced(self):
        bad = np.array([[0, 1], [0, 0]], dtype=complex)
        with pytest.raises(ValueError):
            MeasurementSetting([bad], [bad])


class TestGenericOperator:
    @given(connected_graphs(max_n=6))
    def test_matches_stabilizer_sum_under_ideal_settings(self, g):
        r = min(g.roots)
        dense = generic_bell_operator(g, r, MeasurementSetting.ideal(g, r))
        reference = stabilizer_sum_matrix(bell_stabilizer_sum(g, r))
        assert np.max(np.abs(dense - reference)) < 1e-12

    def test_two_vertex_chsh_norm(self):
        g = Graph(2, [(0, 1)])
        dense = generic_bell_operator(g, 0, MeasurementSetting.ideal(g, 0))
        norm = max(abs(np.linalg.eigvalsh(dense)))
        assert norm == pytest.approx(2 * np.sqrt(2), abs=1e-12)

    def test_swapped_leaf_observables_break_equality(self, star6):
        setting = MeasurementSetting.ideal(star6, 0)
        setting.y0[3], setting.y1[3] = setting.y1[3], setting.y0[3]
        dense = generic_bell_operator(star6, 0, setting)
        reference = stabilizer_sum_matrix(bell_stabilizer_sum(star6, 0))
        assert np.max(np.abs(dense - reference)) > 1e-6

    def test_size_cap(self, monkeypatch):
        from lossbell import SizeCapExceededError
        from lossbell.graphs import DENSE_OPERATOR_CAP, STATE_BYTE_BUDGET

        # the result and two full-size temporaries fit the byte budget
        assert 3 * 16 * 4**DENSE_OPERATOR_CAP <= STATE_BYTE_BUDGET
        assert 3 * 16 * 4 ** (DENSE_OPERATOR_CAP + 1) > STATE_BYTE_BUDGET

        def refuse(*args, **kwargs):
            raise AssertionError("dense operator allocated before the cap check")

        monkeypatch.setattr(np, "zeros", refuse)
        g = generate(FamilySpec("star", DENSE_OPERATOR_CAP + 1))
        message = f"n={g.n} exceeds dense-operator cap {DENSE_OPERATOR_CAP}"
        with pytest.raises(SizeCapExceededError, match=message):
            generic_bell_operator(g, 0, MeasurementSetting.ideal(g, 0))
        with pytest.raises(SizeCapExceededError, match=message):
            stabilizer_sum_matrix(bell_stabilizer_sum(g, 0))
