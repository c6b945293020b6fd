"""Brute-force statevector ground truth.

Everything here is numeric (complex128) and independent of the closed-form
engine: the state is built by a circuit construction and then validated
against its defining eigenvalue equations, and expectations are computed
directly from amplitudes.

Conventions
-----------
* Qubit k is bit k of the basis-state index (qubit 0 = least significant).
* Lossy expectations use the product identity
  <P>_rho = <phi| P restricted to survivors |phi> * prod over lost sites of
  <s|P_site|s>, where |s> is the single-qubit replacement state.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from .bell import WeightedStabilizerSum
from .errors import SizeCapExceededError, VerificationError
from .graphs import MAX_STATE_CAP, Graph
from .pauli import PauliString, stabilizer

STATE_TOL = 1e-10
EXPECTATION_TOL = 1e-9

REPLACEMENTS = ("zero", "one", "mixed")


@lru_cache(maxsize=None)
def _indices(dim: int) -> np.ndarray:
    """``np.arange(dim)``, built once per dimension and read-only."""
    idx = np.arange(dim)
    idx.flags.writeable = False
    return idx


# One state is kept: every caller that repeats a call asks for the same graph
# twice in a row.  bench/run.py clears the cache before each operation, and its
# checker then builds states for that operation's one graph only.
@lru_cache(maxsize=1)
def graph_state(g: Graph) -> np.ndarray:
    """Common +1 eigenvector of all vertex generators, as dense amplitudes.

    Built as the uniform superposition with a controlled-Z sign per edge,
    then verified against every eigenvalue equation; the verification, not
    the circuit, is the contract.  The last result is cached and returned
    read-only (copy before mutating).
    """
    if g.n > MAX_STATE_CAP:
        raise SizeCapExceededError(f"n={g.n} exceeds statevector cap {MAX_STATE_CAP}")
    dim = 1 << g.n
    idx = _indices(dim)
    amps = np.full(dim, 2 ** (-g.n / 2), dtype=complex)
    for i, j in g.edges:
        both = ((idx >> i) & (idx >> j) & 1).astype(bool)
        amps[both] *= -1
    for i in range(g.n):
        if np.max(np.abs(apply_pauli(amps, stabilizer(g, i)) - amps)) > STATE_TOL:
            raise VerificationError(
                f"constructed state is not fixed by the generator of vertex {i}"
            )
    amps.flags.writeable = False
    return amps


def apply_pauli(state: np.ndarray, p: PauliString) -> np.ndarray:
    if len(state) != 1 << p.n:
        raise ValueError("state dimension does not match the Pauli string")
    src = _indices(len(state)) ^ p.x_bits
    y_count = (p.x_bits & p.z_bits).bit_count()
    coeff = 1j ** ((p.phase_pow + y_count) % 4)
    out = state[src] * coeff
    flip = (np.bitwise_count(src & p.z_bits) & 1).astype(bool)
    np.negative(out, out=out, where=flip)
    return out


def expectation(state: np.ndarray, p: PauliString) -> float:
    """<state|P|state>; the imaginary part (zero for Hermitian P) is dropped."""
    return float(np.vdot(state, apply_pauli(state, p)).real)


class LossyState:
    """A graph state with some qubits traced out and replaced.

    Semantically the density matrix is the survivors' marginal tensored with
    a fixed state on each lost site; the default replacement is |0><0|.

    Survivor-part expectations are memoised by the survivor Pauli, so each
    distinct one is computed from amplitudes once; `with_loss` gives a state
    under another loss set that shares the memo.
    """

    def __init__(self, graph: Graph, loss: frozenset[int]) -> None:
        self.graph = graph
        self._set_loss(loss)
        self.state = graph_state(graph)
        # (x_bits, z_bits, phase_pow) of a survivor Pauli -> <state|P|state>
        self._survivor_values: dict[tuple[int, int, int], float] = {}

    def with_loss(self, loss: frozenset[int]) -> LossyState:
        """The same graph state under ``loss``, sharing this state's memo."""
        other = copy.copy(self)
        other._set_loss(loss)
        return other

    def _set_loss(self, loss: frozenset[int]) -> None:
        self._loss_mask = self.graph.loss_mask(loss)
        self.loss = frozenset(loss)

    def pauli_expectation(self, p: PauliString, replacement: str = "zero") -> float:
        if p.n != self.graph.n:
            raise ValueError("Pauli string does not cover every qubit")
        if replacement not in REPLACEMENTS:
            raise ValueError(f"unknown replacement {replacement!r}")
        if p.x_bits & self._loss_mask:
            return 0.0  # X or Y on a lost site has zero overlap in every convention
        z_lost = p.z_bits & self._loss_mask
        if replacement == "zero":
            factor = 1.0
        elif replacement == "one":
            factor = (-1.0) ** z_lost.bit_count()
        else:
            factor = 0.0 if z_lost else 1.0
        if factor == 0.0:
            return 0.0
        key = (p.x_bits, p.z_bits & ~self._loss_mask, p.phase_pow)
        value = self._survivor_values.get(key)
        if value is None:
            value = expectation(self.state, PauliString(p.n, *key))
            self._survivor_values[key] = value
        return factor * value

    def bell_expectation(
        self, op: WeightedStabilizerSum, replacement: str = "zero"
    ) -> float:
        """Expectation of a weighted stabilizer sum on the lossy state."""
        total = 0.0
        for _, coeff, pauli in op.terms:
            total += float(coeff) * self.pauli_expectation(pauli, replacement)
        return total


def basis_block_weights(state: np.ndarray, sites: frozenset[int]) -> np.ndarray:
    """Norms of the amplitude blocks for each assignment of the given sites.

    Entry s is the norm of the state's component whose bits on ``sites``
    (in ascending site order) spell the integer s.
    """
    sites_sorted = sorted(sites)
    idx = _indices(len(state))
    keys = np.zeros(len(state), dtype=np.int64)
    for pos, site in enumerate(sites_sorted):
        keys |= ((idx >> site) & 1) << pos
    weights = np.bincount(
        keys, weights=np.abs(state) ** 2, minlength=1 << len(sites_sorted)
    )
    return np.sqrt(weights)
