from __future__ import annotations

import inspect
import random
from functools import reduce
from operator import mul

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import (
    connected_graphs, dense_expectation, dense_lossy_density_matrix, graphs,
)
from lossbell import (
    Graph,
    LossyState,
    SizeCapExceededError,
    bell_stabilizer_sum,
    basis_block_weights,
    expectation_after_loss,
    graph_state,
    quantum_bound,
    stabilizer,
)
from lossbell.bell import stabilizer_sum_matrix
from lossbell.graphs import MAX_STATE_CAP
from lossbell.oracle import (
    EXPECTATION_TOL,
    REPLACEMENTS,
    apply_pauli,
    expectation,
)
from lossbell.pauli import PauliString
from lossbell.verify import check_graph


def _bit_parity(indices: np.ndarray, mask: int) -> np.ndarray:
    """Reference: the parity of ``indices & mask``, one bit of the mask at a time."""
    out = np.zeros(indices.shape, dtype=bool)
    while mask:
        k = (mask & -mask).bit_length() - 1
        out ^= ((indices >> k) & 1).astype(bool)
        mask &= mask - 1
    return out


def _reference_apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    """Reference `apply_pauli`: a fresh index vector and the bit-loop parity."""
    src = np.arange(len(state)) ^ p.x_bits
    coeff = 1j ** ((p.phase_pow + (p.x_bits & p.z_bits).bit_count()) % 4)
    out = state[src] * coeff
    flip = _bit_parity(src, p.z_bits)
    out[flip] = -out[flip]
    return out


@st.composite
def pauli_strings(draw, n: int) -> PauliString:
    letters = draw(st.text(alphabet="IXYZ", min_size=n, max_size=n))
    phase = draw(st.integers(0, 3))
    p = PauliString.from_letters(letters)
    return PauliString(n, p.x_bits, p.z_bits, phase)


class TestApplyPauli:
    @settings(max_examples=150)
    @given(st.integers(1, 10), st.integers(0, 2**32 - 1), st.data())
    def test_equals_bit_loop_reference(self, n, seed, data):
        rng = np.random.default_rng(seed)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        p = data.draw(pauli_strings(n))
        got = apply_pauli(state, p)
        want = _reference_apply_pauli(state, p)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


class TestGraphState:
    def test_single_vertex(self):
        amps = graph_state(Graph(1))
        assert np.allclose(amps, [2**-0.5, 2**-0.5])

    def test_norm_and_uniform_moduli(self, star4):
        amps = graph_state(star4)
        assert np.linalg.norm(amps) == pytest.approx(1.0, abs=1e-12)
        assert np.allclose(np.abs(amps), 2**-2, atol=1e-12)

    @given(graphs(min_n=1, max_n=8))
    def test_fixed_by_every_generator(self, g):
        amps = graph_state(g)
        for i in range(g.n):
            assert np.max(np.abs(apply_pauli(amps, stabilizer(g, i)) - amps)) < 1e-10

    def test_star3_stabilizer_expectations(self):
        star3 = Graph(3, [(0, 1), (0, 2)])
        amps = graph_state(star3)
        for i in range(3):
            assert expectation(amps, stabilizer(star3, i)) == pytest.approx(1.0, abs=1e-10)

    def test_refuses_past_the_byte_budget_before_allocating(self, monkeypatch):
        import lossbell.oracle as oracle_mod

        def refuse(*args, **kwargs):
            raise AssertionError("statevector allocated before the size check")

        monkeypatch.setattr(oracle_mod, "_indices", refuse)
        monkeypatch.setattr(oracle_mod.np, "full", refuse)
        n = MAX_STATE_CAP + 1
        with pytest.raises(SizeCapExceededError,
                           match=f"^n={n} exceeds statevector cap {MAX_STATE_CAP}$"):
            graph_state(Graph(n))

    def test_the_size_is_not_a_parameter(self):
        # the byte budget is the oracle's only limit; `verify --cap` is the CLI's
        for f in (graph_state, LossyState, check_graph):
            assert "cap" not in inspect.signature(f).parameters, f


class TestLossyExpectations:
    def test_center_generator_vanishes(self, star4):
        lossy = LossyState(star4, frozenset({3}))
        assert lossy.pauli_expectation(stabilizer(star4, 0)) == pytest.approx(0.0, abs=1e-10)

    def test_untouched_leaf_generator_survives(self, star4):
        lossy = LossyState(star4, frozenset({3}))
        assert lossy.pauli_expectation(stabilizer(star4, 1)) == pytest.approx(1.0, abs=1e-10)

    def test_lost_vertex_generator_vanishes(self, star4):
        lossy = LossyState(star4, frozenset({3}))
        assert lossy.pauli_expectation(stabilizer(star4, 3)) == pytest.approx(0.0, abs=1e-10)

    def test_no_loss_gives_one(self, star4):
        lossy = LossyState(star4, frozenset())
        for i in range(4):
            assert lossy.pauli_expectation(stabilizer(star4, i)) == pytest.approx(1.0)

    def test_losing_everything_rejected(self, star4):
        with pytest.raises(ValueError):
            LossyState(star4, frozenset(range(4)))

    def test_lossless_bell_reaches_quantum_bound(self, two_centered12):
        lossy = LossyState(two_centered12, frozenset())
        got = lossy.bell_expectation(bell_stabilizer_sum(two_centered12, 0))
        assert got == pytest.approx(float(quantum_bound(two_centered12)), abs=1e-9)

    def test_dense_center_three_pendant_losses(self, dense12):
        lossy = LossyState(dense12, frozenset({7, 8, 9}))
        got = lossy.bell_expectation(bell_stabilizer_sum(dense12, 0))
        assert got == pytest.approx(14.727922061358, abs=1e-9)  # 2 + 9*sqrt2


class TestSharedMemo:
    """A `with_loss` state reads the memo its parent filled; a fresh state per
    value computes it from amplitudes.  Both must give the same floats."""

    @settings(max_examples=40)
    @given(connected_graphs(min_n=2, max_n=10), st.data())
    def test_memo_sharing_state_equals_a_fresh_one(self, g, data):
        vertex_sets = st.sets(st.integers(0, g.n - 1), max_size=g.n - 1)
        lost = frozenset(data.draw(vertex_sets))
        earlier = frozenset(data.draw(vertex_sets))
        gens = [stabilizer(g, i) for i in range(g.n)]
        # stabilizer elements: the Paulis with nonzero expectation
        products = data.draw(st.lists(st.sets(st.integers(0, g.n - 1), min_size=1),
                                      max_size=4))
        elements = [reduce(mul, (gens[i] for i in sorted(s))) for s in products]
        rephased = [PauliString(g.n, p.x_bits, p.z_bits, data.draw(st.integers(1, 3)))
                    for p in gens + elements]
        randoms = data.draw(st.lists(pauli_strings(g.n), min_size=1, max_size=6))
        paulis = gens + elements + rephased + randoms
        sub, _ = g.induced_subgraph(g.vertices - lost)
        ops = [bell_stabilizer_sum(g, r) for r in sorted(g.roots)]
        if sub.n_max > 0:
            ops += [bell_stabilizer_sum(g, r, lost=lost) for r in sorted(g.roots - lost)]

        intact = LossyState(g, frozenset())
        for state in (intact.with_loss(earlier), intact):  # fill the memo first
            for x in REPLACEMENTS:
                for p in paulis:
                    state.pauli_expectation(p, x)
        shared = intact.with_loss(lost)
        for x in REPLACEMENTS:
            for p in paulis:
                fresh = LossyState(g, lost)
                assert shared.pauli_expectation(p, x) == fresh.pauli_expectation(p, x)
            for op in ops:
                fresh = LossyState(g, lost)
                assert shared.bell_expectation(op, x) == fresh.bell_expectation(op, x)

    def test_with_loss_validates(self, star4):
        intact = LossyState(star4, frozenset())
        with pytest.raises(ValueError, match="out-of-range"):
            intact.with_loss(frozenset({4}))
        with pytest.raises(ValueError, match="every qubit"):
            intact.with_loss(frozenset(range(4)))
        lossy = intact.with_loss(frozenset({3}))
        assert lossy.loss == {3} and intact.loss == frozenset()
        assert lossy.state is intact.state


class TestDenseSecondOpinion:
    @settings(max_examples=25)
    @given(connected_graphs(min_n=2, max_n=6), st.data())
    def test_sum_path_equals_dense_path(self, g, data):
        lost = frozenset(
            data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n - 1))
        )
        op = bell_stabilizer_sum(g, min(g.roots))
        lossy = LossyState(g, lost)
        via_sum = lossy.bell_expectation(op)
        rho = dense_lossy_density_matrix(g, lost)
        via_dense = dense_expectation(rho, stabilizer_sum_matrix(op))
        assert via_sum == pytest.approx(via_dense, abs=1e-9)

    def test_generic_operator_against_dense_rho(self, star4):
        from lossbell import MeasurementSetting, generic_bell_operator

        dense_op = generic_bell_operator(star4, 0, MeasurementSetting.ideal(star4, 0))
        rho = dense_lossy_density_matrix(star4, frozenset({2}))
        via_dense = dense_expectation(rho, dense_op)
        via_sum = LossyState(star4, frozenset({2})).bell_expectation(
            bell_stabilizer_sum(star4, 0)
        )
        assert via_dense == pytest.approx(via_sum, abs=1e-9)
        assert via_dense == pytest.approx(
            float(expectation_after_loss(star4, 0, frozenset({2}))), abs=1e-9
        )

    def test_dense_rho_cap(self):
        ring = Graph(11, [(i, (i + 1) % 11) for i in range(11)])
        with pytest.raises(SizeCapExceededError):
            dense_lossy_density_matrix(ring, frozenset({0}))


def _replacement_spread(g: Graph, lost: frozenset[int]) -> float:
    result = check_graph(g, [lost], ("replacement",))
    assert result.replacement.checks == len(g.roots)
    return result.replacement.worst


class TestReplacementInvariance:
    def test_star5_leaf(self):
        star5 = Graph(5, [(0, i) for i in range(1, 5)])
        assert _replacement_spread(star5, frozenset({2})) <= EXPECTATION_TOL

    def test_ring6_two_losses(self, ring6):
        assert _replacement_spread(ring6, frozenset({0, 3})) <= EXPECTATION_TOL

    def test_random_graphs(self):
        rng = random.Random(99)
        from lossbell import random_connected_graph

        for _ in range(10):
            g = random_connected_graph(8, rng)
            lost = frozenset(rng.sample(range(8), 2))
            assert _replacement_spread(g, lost) <= EXPECTATION_TOL


class TestBlockWeights:
    @settings(max_examples=25)
    @given(connected_graphs(min_n=2, max_n=8), st.data())
    def test_all_blocks_carry_equal_weight(self, g, data):
        lost = data.draw(
            st.sets(st.integers(0, g.n - 1), min_size=1, max_size=min(2, g.n - 1))
        )
        weights = basis_block_weights(graph_state(g), frozenset(lost))
        assert np.max(np.abs(weights - weights[0])) < 1e-10
