from __future__ import annotations

import hashlib
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import lossbell as lb
from conftest import graphs, normalized_edges
from lossbell import Graph, GraphFormatError, random_connected_graph
from lossbell.bell import bell_weights


class TestNeighborhoods:
    def test_star_center(self, star4):
        assert star4.neighborhood(0) == {1, 2, 3}
        assert star4.neighborhood(2) == {0}

    def test_ring(self):
        ring5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert ring5.neighborhood(0) == {1, 4}

    def test_closed(self, star4):
        assert star4.neighborhood(0) | {0} == {0, 1, 2, 3}
        assert star4.neighborhood(3) | {3} == {0, 3}
        edgeless = Graph(3)
        assert edgeless.neighborhood(1) | {1} == {1}

    def test_out_of_range(self, star4):
        with pytest.raises(IndexError):
            star4.neighborhood(4)

    @given(graphs())
    def test_symmetry(self, g):
        for i in range(g.n):
            for j in g.neighborhood(i):
                assert i in g.neighborhood(j)

    @given(graphs(), st.data())
    def test_masks_match_neighborhoods(self, g, data):
        # every query against the edge list and `induced_subgraph`; the drawn
        # graphs include edgeless and disconnected ones and n = 1
        adjacent = {i: set() for i in range(g.n)}
        for i, j in g.edges:
            adjacent[i].add(j)
            adjacent[j].add(i)
        assert len(g.adjacency_masks) == g.n
        for i, mask in enumerate(g.adjacency_masks):
            assert {j for j in range(g.n) if mask >> j & 1} == adjacent[i]
            assert g.neighborhood(i) == adjacent[i]
            assert isinstance(g.neighborhood(i), frozenset)
            assert g.degree(i) == len(adjacent[i])
        assert g.leaves() == tuple(i for i in range(g.n) if len(adjacent[i]) == 1)
        reached, stack = {0}, [0]
        while stack:
            for j in adjacent[stack.pop()] - reached:
                reached.add(j)
                stack.append(j)
        assert g.is_connected() == (len(reached) == g.n)
        for i in (-1, g.n):
            with pytest.raises(IndexError):
                g.neighborhood(i)
            with pytest.raises(IndexError):
                g.degree(i)

        lost = data.draw(st.frozensets(st.integers(0, g.n - 1), max_size=g.n - 1))
        sub, mapping = g.induced_subgraph(g.vertices - lost)
        degrees = g.survivor_degrees(g.loss_mask(lost))
        assert degrees == {v: sub.degree(mapping[v]) for v in sorted(mapping)}
        assert list(degrees) == sorted(mapping)


# hub 0 with leaves 1 and 2 and a path 0-3-4
_G5 = Graph(5, [(0, 1), (0, 2), (0, 3), (3, 4)])


def _dist(realization):
    return lb.LossDistribution(
        ((Fraction(1, 2), frozenset()), (Fraction(1, 2), realization))
    )


# every public entry point that takes a loss set, called with ``loss`` there
_LOSS_SET_ENTRY_POINTS = {
    "violation_report": lambda loss: lb.violation_report(_G5, loss),
    "expectation_after_loss": lambda loss: lb.expectation_after_loss(_G5, 0, loss),
    "generator_expectation/hypothesis":
        lambda loss: lb.generator_expectation(_G5, 4, loss, frozenset()),
    "generator_expectation/actual":
        lambda loss: lb.generator_expectation(_G5, 4, frozenset(), loss),
    "mixture_expectation/hypothesis":
        lambda loss: lb.mixture_expectation(_G5, _dist(frozenset()), 4, loss),
    "mixture_expectation/realization":
        lambda loss: lb.mixture_expectation(_G5, _dist(loss), 0),
    "mixture_expectation/realization-under-hypothesis":
        lambda loss: lb.mixture_expectation(_G5, _dist(loss), 0, frozenset({4})),
    "single_loss_mixture_curve":
        lambda loss: lb.single_loss_mixture_curve(_G5, 0, (1, 3), loss, [Fraction(0)]),
    "LossyState": lambda loss: lb.LossyState(_G5, loss),
    "with_loss": lambda loss: lb.LossyState(_G5, frozenset()).with_loss(loss),
    "stabilizer": lambda loss: lb.stabilizer(_G5, 4, lost=loss),
    "bell_stabilizer_sum": lambda loss: lb.bell_stabilizer_sum(_G5, 4, lost=loss),
    "bell_weights": lambda loss: bell_weights(_G5, 4, lost=loss),
    "classical_bound": lambda loss: lb.classical_bound(_G5, lost=loss),
}


class TestLossSets:
    def test_loss_mask(self):
        assert _G5.loss_mask(frozenset()) == 0
        assert _G5.loss_mask([4, 1, 4]) == 0b10010
        for member in (5, -1, "a"):
            with pytest.raises(ValueError, match="loss set contains out-of-range vertices"):
                _G5.loss_mask({member})
        with pytest.raises(ValueError, match="losing every qubit is not allowed"):
            _G5.loss_mask(range(5))
        with pytest.raises(ValueError, match="losing every qubit"):
            Graph(1).loss_mask({0})
        # any integer type is the vertex it equals; 1.0 is not an integer
        mask = _G5.loss_mask({np.int64(1), np.int8(3)})
        assert mask == 0b1010 and type(mask) is int
        assert _G5.loss_mask({True}) == 0b10
        with pytest.raises(TypeError, match="loss set member 1.0 is not an integer"):
            _G5.loss_mask({1.0})

    def test_survivor_degrees(self):
        assert _G5.survivor_degrees(0) == {0: 3, 1: 1, 2: 1, 3: 2, 4: 1}
        assert _G5.survivor_degrees(0b01001) == {1: 0, 2: 0, 4: 0}

    # The types each entry point raised before `Graph.loss_mask`, except that
    # `stabilizer`, `bell_stabilizer_sum` and `bell_weights` raised TypeError
    # for a str, float or None member: a member that is not a vertex is a
    # ValueError everywhere.  1.0 equals vertex 1 but is not an integer.
    # numpy integer members pass everywhere.
    @pytest.mark.parametrize("entry", sorted(_LOSS_SET_ENTRY_POINTS))
    def test_every_entry_point_raises_the_same_types(self, entry):
        call = _LOSS_SET_ENTRY_POINTS[entry]
        expected = [
            (frozenset({5, 2}), ValueError),
            (frozenset({-1, 2}), ValueError),
            (frozenset({"a", 2}), ValueError),
            (frozenset({1.5, 2}), ValueError),
            (frozenset({None, 2}), ValueError),
            (frozenset({1.0, 2}), TypeError),
            (frozenset(range(5)), ValueError),
        ]
        for loss, error in expected:
            with pytest.raises(Exception) as info:
                call(loss)
            assert type(info.value) is error, (loss, info.value)
        call(frozenset({2}))  # a proper loss set passes
        call(frozenset({np.int64(1), 3}))


class TestRoots:
    def test_ring_all_roots(self, ring6):
        assert ring6.n_max == 2
        assert ring6.roots == frozenset(range(6))

    def test_two_centered(self, two_centered12):
        assert two_centered12.n_max == 6
        assert two_centered12.roots == {0, 1}

    def test_dense_center(self, dense12):
        assert dense12.n_max == 6
        assert dense12.roots == frozenset(range(6))

    def test_edgeless(self):
        g = Graph(3)
        assert g.n_max == 0
        assert g.roots == {0, 1, 2}


class TestInducedSubgraph:
    def test_identity(self, two_centered12):
        sub, mapping = two_centered12.induced_subgraph(two_centered12.vertices)
        assert sub == two_centered12
        assert mapping == {i: i for i in range(12)}

    def test_ring_to_path(self):
        ring5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        sub, mapping = ring5.induced_subgraph({0, 1, 2})
        assert sub == Graph(3, [(0, 1), (1, 2)])
        assert mapping == {0: 0, 1: 1, 2: 2}

    def test_two_hub_minus_pendant(self, two_hub8):
        # dropping one pendant of hub 1 leaves hub 0 as the unique root
        sub, mapping = two_hub8.induced_subgraph(two_hub8.vertices - {7})
        expected = Graph(7, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6)])
        assert sub == expected
        assert sub.roots == {0}
        assert mapping[6] == 6

    def test_empty_keep_rejected(self, star4):
        with pytest.raises(ValueError):
            star4.induced_subgraph(frozenset())

    @given(graphs(), st.data())
    def test_degree_sum(self, g, data):
        keep = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n)
        )
        sub, _ = g.induced_subgraph(keep)
        assert sum(sub.degree(i) for i in range(sub.n)) == 2 * len(sub.edges)


class TestConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(1, 1)])

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError):
            Graph(2, [(0, 2)])

    def test_deduplicates(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edges == ((0, 1),)

    def test_connectivity(self, ring6):
        assert ring6.is_connected()
        assert not Graph(3, [(0, 1)]).is_connected()

    def test_fingerprint_stable(self, ring6):
        assert ring6.fingerprint == Graph(6, [(i, (i + 1) % 6) for i in range(6)]).fingerprint
        assert ring6.fingerprint != Graph(6, [(0, 1)]).fingerprint

    def test_lazy_fields_keep_their_values(self, ring6):
        # built on first use; the same values as when built with the graph
        g = Graph(3, [(1, 0)])
        assert g.fingerprint == "55ab4a2c08b4"
        assert ring6.fingerprint == "2d7a04ec06fe"
        assert g.vertices == frozenset({0, 1, 2}) and g.vertices is g.vertices
        assert g == Graph(3, [(0, 1)]) and hash(g) == hash(Graph(3, [(0, 1)]))

    def test_numpy_endpoints_past_63(self):
        # a numpy endpoint above 63 must not overflow its vertex's mask
        g = Graph(70, [(np.int64(0), np.int64(65)), (np.int64(1), np.int64(2)),
                       (np.int64(66), np.int64(3))])
        plain = Graph(70, [(0, 65), (1, 2), (66, 3)])
        assert g.adjacency_masks == plain.adjacency_masks
        assert g.adjacency_masks[0] == 1 << 65 and g.degree(0) == 1
        assert g.adjacency_masks[3] == 1 << 66 and g.degree(3) == 1
        assert all(type(m) is int for m in g.adjacency_masks)
        assert g.roots == plain.roots == frozenset({0, 1, 2, 3, 65, 66})
        assert g.edges == ((0, 65), (1, 2), (3, 66))
        assert all(type(v) is int for e in g.edges for v in e)
        assert g.fingerprint == plain.fingerprint
        assert g == plain and hash(g) == hash(plain)
        assert g.dumps() == plain.dumps()

    def test_numpy_vertex_count_past_63(self):
        path = [(i, i + 1) for i in range(69)]
        g, plain = Graph(np.int64(70), path), Graph(70, path)
        assert type(g.n) is int and g == plain
        assert g.is_connected()
        assert g.survivor_degrees(1) == plain.survivor_degrees(1)
        assert g.dumps() == plain.dumps()

    @given(st.data())
    def test_matches_normalize_and_sort(self, data):
        # the edges read off the masks are the old normalised, sorted set
        n = data.draw(st.one_of(st.integers(1, 8), st.integers(9, 70)), label="n")
        vertex = st.integers(0, n - 1)
        # (i, i + d mod n) with 0 < d < n: never a self-loop; none at n = 1
        pair = st.tuples(vertex, st.integers(1, max(n - 1, 1))).map(
            lambda e: (e[0], (e[0] + e[1]) % n)
        )
        pairs = data.draw(
            st.lists(pair, max_size=3 * n if n > 1 else 0), label="pairs"
        )
        dupes = data.draw(
            st.lists(st.sampled_from(pairs), max_size=5) if pairs else st.just([]),
            label="dupes",
        )
        edges = [
            (j, i) if data.draw(st.booleans(), label="flip") else (i, j)
            for i, j in pairs + dupes
        ]
        edges = data.draw(st.permutations(edges), label="edges")
        bad = data.draw(st.one_of(
            st.none(), st.tuples(vertex, st.just(n)), st.tuples(st.just(-1), vertex),
            vertex.map(lambda v: (v, v)),
        ), label="bad")
        if bad is not None:
            edges.insert(data.draw(st.integers(0, len(edges)), label="at"), bad)
        try:
            expected = normalized_edges(n, edges)
        except ValueError as exc:
            with pytest.raises(ValueError) as got:
                Graph(n, edges)
            assert str(got.value) == str(exc)
            return
        g = Graph(n, iter(edges))
        assert g.edges == expected
        masks = [0] * n
        for i, j in expected:
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        assert g.adjacency_masks == tuple(masks)
        degrees = [m.bit_count() for m in masks]
        assert g.n_max == max(degrees)
        assert g.roots == {v for v in range(n) if degrees[v] == max(degrees)}
        text = f"{n}|{expected}"
        assert g.fingerprint == hashlib.sha256(text.encode()).hexdigest()[:12]
        assert g == Graph(n, expected) and hash(g) == hash(Graph(n, expected))


class TestTextFormats:
    def test_json_roundtrip(self, two_centered12):
        assert Graph.parse(two_centered12.dumps()) == two_centered12

    def test_edge_list_form(self):
        text = "# comment\nn=4\n0 1\n1 2\n2 3\n"
        assert Graph.parse(text) == Graph(4, [(0, 1), (1, 2), (2, 3)])

    def test_missing_header(self):
        with pytest.raises(GraphFormatError, match="n=<N>"):
            Graph.parse("0 1\n")

    def test_bad_pair(self):
        with pytest.raises(GraphFormatError, match="line 2"):
            Graph.parse("n=3\n0 1 2\n")

    def test_bad_json(self):
        with pytest.raises(GraphFormatError):
            Graph.parse('{"n": 3}')

    @pytest.mark.parametrize("doc", [
        '{"n": 3, "edges": [[0, 1.7]]}',
        '{"n": 3.9, "edges": [[0, 1]]}',
        '{"n": 3, "edges": [[true, 2]]}',
        '{"n": 3, "edges": [["0", 1]]}',
    ], ids=["float-vertex", "float-n", "bool-vertex", "string-vertex"])
    def test_json_integers_only(self, doc):
        with pytest.raises(GraphFormatError, match="non-integer"):
            Graph.parse(doc)

    def test_vertex_cap(self):
        cap = lb.graphs.DEFAULT_VERTEX_CAP
        message = f"n={cap + 1} exceeds the vertex cap {cap}"
        # the header alone is refused, before any edge line is read
        with pytest.raises(GraphFormatError, match=message):
            Graph.parse(f"n={cap + 1}\nnot an edge\n")
        with pytest.raises(GraphFormatError, match=message):
            Graph.parse(f'{{"n": {cap + 1}, "edges": [[0, 1]]}}')
        assert Graph.parse(f"n={cap}\n0 1\n") == Graph(cap, [(0, 1)])
        assert Graph.parse(f'{{"n": {cap}, "edges": [[0, 1]]}}') == Graph(cap, [(0, 1)])


class TestRandomGraphs:
    def test_connected_and_reproducible(self):
        for n in (2, 5, 9):
            g1 = random_connected_graph(n, random.Random(11))
            g2 = random_connected_graph(n, random.Random(11))
            assert g1 == g2
            assert g1.is_connected()

    @pytest.mark.parametrize("n, seed, p, fingerprint", [
        (1, 0, 0.25, "5f055eabce84"),
        (2, 0, 0.25, "7e9487f2d851"),
        (8, 1729, 0.25, "bdc6276b136b"),
        (12, 7, 0.25, "d1fc35eca66a"),
        (9, 3, 0.0, "a5b82d422e24"),
        (9, 3, 1.0, "e2dfdc5eaffa"),
        (256, 11, 4 / 256, "7e3c66d4eef3"),
    ])
    def test_seeds_pin_their_graphs(self, n, seed, p, fingerprint):
        # the draws keep their order: the same seed gives the same graph
        g = random_connected_graph(n, random.Random(seed), p)
        assert g.fingerprint == fingerprint
