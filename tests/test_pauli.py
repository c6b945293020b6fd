from __future__ import annotations

import itertools

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import embed, graphs
from lossbell import Graph, PauliString, stabilizer


@st.composite
def pauli_strings(draw, max_n: int = 5):
    n = draw(st.integers(1, max_n))
    letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    phase = draw(st.sampled_from("+-"))
    return PauliString.from_letters(phase + letters)


class TestConstruction:
    def test_star_center_generator(self, star4):
        assert stabilizer(star4, 0).letters == "XZZZ"

    def test_star_leaf_generator(self, star4):
        assert stabilizer(star4, 2).letters == "ZIXI"

    def test_isolated_vertex_generator(self):
        g = Graph(2)
        assert stabilizer(g, 1).letters == "IX"

    def test_roundtrip(self):
        p = PauliString.from_letters("-XZYI")
        assert str(p) == "-XZYI"
        assert p.letter(2) == "Y"

    def test_bad_letter(self):
        with pytest.raises(ValueError):
            PauliString.from_letters("XQ")

    def test_generator_index_out_of_range(self, star4):
        with pytest.raises(IndexError):
            stabilizer(star4, 4)

    @given(graphs(min_n=1, max_n=8))
    def test_generator_shape(self, g):
        # exactly one X (at the vertex), Z exactly on neighbors, never Y
        for i in range(g.n):
            p = stabilizer(g, i)
            assert p.sign == 1
            letters = p.letters
            assert letters.count("X") == 1 and letters[i] == "X"
            assert letters.count("Y") == 0
            assert {k for k, c in enumerate(letters) if c == "Z"} == g.neighborhood(i)


class TestCommutation:
    # commuting strings are exactly those whose products agree in both orders
    def test_single_anticommuting_site(self):
        x, z = PauliString.from_letters("XI"), PauliString.from_letters("ZI")
        assert x * z != z * x

    def test_two_anticommuting_sites(self):
        p, q = PauliString.from_letters("XZ"), PauliString.from_letters("ZX")
        assert p * q == q * p

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            PauliString.from_letters("X") * PauliString.from_letters("XX")

    @given(graphs(min_n=2, max_n=8))
    def test_generators_commute(self, g):
        gens = [stabilizer(g, i) for i in range(g.n)]
        for p, q in itertools.combinations(gens, 2):
            assert p * q == q * p

    @given(pauli_strings(), pauli_strings())
    def test_commutes_matches_matrices(self, p, q):
        if p.n != q.n:
            return
        mp, mq = p.to_matrix(), q.to_matrix()
        zero = np.allclose(mp @ mq - mq @ mp, 0, atol=1e-12)
        assert (p * q == q * p) == zero


class TestMultiplication:
    def test_xz_phase(self):
        x = PauliString.from_letters("X")
        z = PauliString.from_letters("Z")
        assert (x * z).letters == "Y"
        assert (x * z).phase_pow == 3  # -i
        assert (z * x).phase_pow == 1  # +i

    def test_imaginary_sign_raises(self):
        p = PauliString.from_letters("X") * PauliString.from_letters("Z")
        with pytest.raises(ValueError):
            p.sign

    @given(pauli_strings(max_n=4), pauli_strings(max_n=4))
    def test_matches_dense_product(self, p, q):
        if p.n != q.n:
            return
        assert np.allclose((p * q).to_matrix(), p.to_matrix() @ q.to_matrix(), atol=1e-12)


class TestRestriction:
    @given(graphs(min_n=3, max_n=8), st.data())
    def test_matches_subgraph_generators(self, g, data):
        lost = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=0, max_size=min(2, g.n - 1))
        )
        lost = frozenset(lost)
        survivors = sorted(g.vertices - lost)
        sub, mapping = g.induced_subgraph(survivors)
        lost_mask = sum(1 << v for v in lost)
        for i in survivors:
            full = stabilizer(g, i)
            cleared = PauliString(g.n, full.x_bits, full.z_bits & ~lost_mask)
            assert embed(stabilizer(sub, mapping[i]), survivors, g.n) == cleared
            assert stabilizer(g, i, lost=lost) == cleared

    def test_embed_restrict_roundtrip(self):
        p = PauliString.from_letters("XZY")
        embedded = embed(p, (1, 3, 4), 6)
        assert embedded.letters == "IXIZYI"

    def test_survivor_generator_validates(self, star4):
        assert stabilizer(star4, 0, lost=frozenset({1, 3})).letters == "XIZI"
        with pytest.raises(ValueError, match="lost"):
            stabilizer(star4, 1, lost=frozenset({1}))
        with pytest.raises(ValueError, match="out-of-range"):
            stabilizer(star4, 0, lost=frozenset({4}))
        with pytest.raises(IndexError):
            stabilizer(star4, -1)
