from __future__ import annotations

import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import graphs
from lossbell import Graph, GraphFormatError, random_connected_graph


class TestNeighborhoods:
    def test_star_center(self, star4):
        assert star4.neighborhood(0) == {1, 2, 3}
        assert star4.neighborhood(2) == {0}

    def test_ring(self):
        ring5 = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert ring5.neighborhood(0) == {1, 4}

    def test_closed(self, star4):
        assert star4.closed_neighborhood(0) == {0, 1, 2, 3}
        assert star4.closed_neighborhood(3) == {0, 3}
        edgeless = Graph(3)
        assert edgeless.closed_neighborhood(1) == {1}

    def test_out_of_range(self, star4):
        with pytest.raises(IndexError):
            star4.neighborhood(4)

    @given(graphs())
    def test_symmetry(self, g):
        for i in range(g.n):
            for j in g.neighborhood(i):
                assert i in g.neighborhood(j)

    @given(graphs())
    def test_masks_match_neighborhoods(self, g):
        for i, mask in enumerate(g.adjacency_masks):
            assert {j for j in range(g.n) if mask >> j & 1} == g.neighborhood(i)
        assert len(g.adjacency_masks) == g.n


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

    def test_vertex_cap(self):
        # the header alone is refused, before any edge line is read
        with pytest.raises(GraphFormatError, match="n=5 exceeds the vertex cap 4"):
            Graph.parse("n=5\nnot an edge\n", cap=4)
        with pytest.raises(GraphFormatError, match="n=5 exceeds the vertex cap 4"):
            Graph.parse('{"n": 5, "edges": [[0, 1]]}', cap=4)
        assert Graph.parse("n=5\n0 1\n", cap=5) == Graph(5, [(0, 1)])
        assert Graph.parse('{"n": 5, "edges": [[0, 1]]}', cap=5) == Graph(5, [(0, 1)])


class TestRandomGraphs:
    def test_connected_and_reproducible(self):
        for n in (2, 5, 9):
            g1 = random_connected_graph(n, random.Random(11))
            g2 = random_connected_graph(n, random.Random(11))
            assert g1 == g2
            assert g1.is_connected()
