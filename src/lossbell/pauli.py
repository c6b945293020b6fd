"""Pauli strings in the symplectic (x-bit, z-bit) representation.

Site k of an n-site string carries one of I, X, Y, Z encoded by bit k of two
integer masks, so products are cheap bit arithmetic even inside large
sweeps.  A global phase ``i**phase_pow`` is tracked through multiplication;
strings derived from graphs are always real with sign +1.

String rendering and ``from_letters`` read site 0 as the leftmost letter.
"""

from __future__ import annotations

from collections.abc import Mapping
from functools import lru_cache
from types import MappingProxyType
from typing import TYPE_CHECKING

from .graphs import Graph

if TYPE_CHECKING:
    import numpy as np

_LETTERS = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}
_BITS = {v: k for k, v in _LETTERS.items()}
_PHASE_PREFIX = {0: "+", 1: "+i", 2: "-", 3: "-i"}


@lru_cache(maxsize=None)
def pauli_matrices() -> Mapping[str, np.ndarray]:
    """The 2x2 matrices of I, X, Y and Z by letter, read-only.  Built on
    first use, so numpy loads only when a dense matrix is asked for."""
    import numpy as np

    matrices = {
        "I": np.eye(2, dtype=complex),
        "X": np.array([[0, 1], [1, 0]], dtype=complex),
        "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
        "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    }
    for m in matrices.values():
        m.flags.writeable = False
    return MappingProxyType(matrices)


class PauliString:
    __slots__ = ("_n", "_x", "_z", "_phase")

    def __init__(self, n: int, x_bits: int = 0, z_bits: int = 0, phase_pow: int = 0) -> None:
        if n < 1:
            raise ValueError("Pauli string needs at least one site")
        full = (1 << n) - 1
        if x_bits & ~full or z_bits & ~full:
            raise ValueError("mask bits outside the n sites")
        self._n = n
        self._x = x_bits
        self._z = z_bits
        self._phase = phase_pow % 4

    @classmethod
    def from_letters(cls, letters: str) -> PauliString:
        phase = 0
        if letters and letters[0] in "+-":
            phase = 0 if letters[0] == "+" else 2
            letters = letters[1:]
        x = z = 0
        for k, letter in enumerate(letters):
            try:
                xb, zb = _BITS[letter]
            except KeyError:
                raise ValueError(f"unknown Pauli letter {letter!r}") from None
            x |= xb << k
            z |= zb << k
        return cls(len(letters), x, z, phase)

    # -- structure -------------------------------------------------------------

    @property
    def n(self) -> int:
        return self._n

    @property
    def x_bits(self) -> int:
        return self._x

    @property
    def z_bits(self) -> int:
        return self._z

    @property
    def phase_pow(self) -> int:
        """Exponent k in the global phase i**k."""
        return self._phase

    @property
    def sign(self) -> int:
        if self._phase % 2:
            raise ValueError("string has an imaginary phase, no real sign")
        return 1 if self._phase == 0 else -1

    def letter(self, k: int) -> str:
        if not 0 <= k < self._n:
            raise IndexError(f"site {k} out of range")
        return _LETTERS[(self._x >> k) & 1, (self._z >> k) & 1]

    @property
    def letters(self) -> str:
        return "".join(self.letter(k) for k in range(self._n))

    # -- algebra --------------------------------------------------------------

    def __mul__(self, other: PauliString) -> PauliString:
        if not isinstance(other, PauliString):
            return NotImplemented
        if self._n != other._n:
            raise ValueError("length mismatch")
        x = self._x ^ other._x
        z = self._z ^ other._z
        # i-power bookkeeping for E(x,z) = i^(x.z) X^x Z^z per site:
        # E1*E2 = i^(x1.z1 + x2.z2 - x3.z3 + 2*z1.x2) E3
        phase = (
            self._phase
            + other._phase
            + (self._x & self._z).bit_count()
            + (other._x & other._z).bit_count()
            - (x & z).bit_count()
            + 2 * (self._z & other._x).bit_count()
        )
        return PauliString(self._n, x, z, phase % 4)

    # -- dense form ----------------------------------------------------------

    def to_matrix(self) -> np.ndarray:
        """Dense 2**n matrix with qubit 0 as the least significant bit."""
        import numpy as np

        matrices = pauli_matrices()
        out = np.array([[1]], dtype=complex)
        for k in range(self._n - 1, -1, -1):
            out = np.kron(out, matrices[self.letter(k)])
        return (1j ** self._phase) * out

    # -- identity ----------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self._n == other._n
            and self._x == other._x
            and self._z == other._z
            and self._phase == other._phase
        )

    def __hash__(self) -> int:
        return hash((self._n, self._x, self._z, self._phase))

    def __str__(self) -> str:
        return _PHASE_PREFIX[self._phase] + self.letters

    def __repr__(self) -> str:
        return f"PauliString.from_letters({str(self)!r})"


def stabilizer(g: Graph, i: int, *, lost: frozenset[int] = frozenset()) -> PauliString:
    """Generator attached to vertex i: X there, Z on every neighbor.

    With ``lost``, the generator of i in the graph induced on the survivors,
    on the full register: the same string with Z cleared on the lost sites
    (Hein et al., quant-ph/0602096).  The survivors' graph has no generator
    for a lost vertex.
    """
    if not 0 <= i < g.n:
        raise IndexError(f"vertex {i} out of range for n={g.n}")
    lost_mask = g.loss_mask(lost)
    if lost_mask >> i & 1:
        raise ValueError(f"vertex {i} is lost; the survivors have no generator for it")
    return PauliString(g.n, 1 << i, g.adjacency_masks[i] & ~lost_mask)
