"""Shared strategies and fixtures for the test suite."""

from __future__ import annotations

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, settings, strategies as st

from lossbell import (
    FamilySpec, Graph, PauliString, Quad, SizeCapExceededError, generate,
    graph_state, random_connected_graph,
)
from lossbell.oracle import REPLACEMENTS

settings.register_profile(
    "default",
    max_examples=60,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("default")


@st.composite
def rationals(draw, max_num: int = 1000, max_den: int = 40):
    num = draw(st.integers(-max_num, max_num))
    den = draw(st.integers(1, max_den))
    return Fraction(num, den)


@st.composite
def quads(draw):
    return Quad(draw(rationals()), draw(rationals()))


@st.composite
def graphs(draw, min_n: int = 1, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return Graph(n, [e for e, keep in zip(pairs, mask) if keep])


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 8):
    n = draw(st.integers(min_n, max_n))
    seed = draw(st.integers(0, 2**32 - 1))
    return random_connected_graph(n, random.Random(seed))


def embed(p: PauliString, positions: tuple[int, ...], n_full: int) -> PauliString:
    """Reference: place site k of ``p`` at ``positions[k]`` of an ``n_full``-site
    register, the way a subgraph's operator was carried to the full register
    before survivor operators were built on it directly."""
    positions = tuple(positions)
    if len(positions) != p.n:
        raise ValueError("positions must match the string length")
    if sorted(set(positions)) != list(positions) or not (
        0 <= positions[0] and positions[-1] < n_full
    ):
        raise ValueError("positions must be strictly increasing and in range")
    x = z = 0
    for k, pos in enumerate(positions):
        x |= ((p.x_bits >> k) & 1) << pos
        z |= ((p.z_bits >> k) & 1) << pos
    return PauliString(n_full, x, z, p.phase_pow)


def normalized_edges(n: int, edges) -> tuple[tuple[int, int], ...]:
    """Reference: the edge tuple the way `Graph` built it before reading its
    edges off the adjacency masks -- each pair checked in turn (with the same
    `ValueError`s), turned into ``(min, max)``, put in a set and sorted."""
    if n < 1:
        raise ValueError(f"graph needs at least one vertex, got n={n}")
    normalized = set()
    for i, j in edges:
        if not (0 <= i < n and 0 <= j < n):
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        if i == j:
            raise ValueError(f"self-loop at vertex {i}")
        normalized.add((min(i, j), max(i, j)))
    return tuple(sorted(normalized))


DENSE_RHO_CAP = 10


def dense_lossy_density_matrix(
    g: Graph,
    loss: frozenset[int],
    replacement: str = "zero",
    cap: int = DENSE_RHO_CAP,
) -> np.ndarray:
    """Reference: the full 2**n x 2**n post-loss density matrix, a second
    opinion on the product identity that `LossyState` evaluates."""
    if g.n > cap:
        raise SizeCapExceededError(f"n={g.n} exceeds dense-rho cap {cap}")
    if replacement not in REPLACEMENTS:
        raise ValueError(f"unknown replacement {replacement!r}")
    loss = frozenset(loss)
    psi = graph_state(g)
    kept = [i for i in range(g.n) if i not in loss]
    lost = sorted(loss)
    if not lost:
        return np.outer(psi, psi.conj())

    # permuted layout: kept sites at the low bits, lost sites above them
    dim = 1 << g.n
    idx = np.arange(dim)
    perm = np.zeros(dim, dtype=np.int64)
    for new_pos, old_pos in enumerate(kept + lost):
        perm |= ((idx >> old_pos) & 1) << new_pos
    psi_perm = np.zeros(dim, dtype=complex)
    psi_perm[perm] = psi
    m = psi_perm.reshape(1 << len(lost), 1 << len(kept))
    sigma = m.T @ m.conj()

    if replacement == "zero":
        single = np.array([[1, 0], [0, 0]], dtype=complex)
    elif replacement == "one":
        single = np.array([[0, 0], [0, 1]], dtype=complex)
    else:
        single = np.eye(2, dtype=complex) / 2
    rep = np.array([[1]], dtype=complex)
    for _ in lost:
        rep = np.kron(rep, single)

    rho_perm = np.kron(rep, sigma)
    return rho_perm[np.ix_(perm, perm)]


def dense_expectation(rho: np.ndarray, op: np.ndarray) -> float:
    return float(np.trace(rho @ op).real)


@pytest.fixture
def ring6() -> Graph:
    return generate(FamilySpec("ring", 6))


@pytest.fixture
def star4() -> Graph:
    return generate(FamilySpec("star", 4))


@pytest.fixture
def star6() -> Graph:
    return generate(FamilySpec("star", 6))


@pytest.fixture
def two_centered12() -> Graph:
    return generate(FamilySpec("two-centered-ghz", 12))


@pytest.fixture
def dense12() -> Graph:
    return generate(FamilySpec("dense-center", 12))


@pytest.fixture
def two_hub8() -> Graph:
    # two adjacent degree-4 hubs, three pendants each
    return Graph(8, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 5), (1, 6), (1, 7)])


@pytest.fixture
def tail_graph7() -> Graph:
    # unique degree-3 hub 0 with a three-edge tail hanging off one neighbor
    return Graph(7, [(0, 1), (0, 2), (0, 3), (3, 4), (4, 5), (5, 6)])
