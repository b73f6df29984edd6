"""The one matrix assembler for open-chain and ring lattice Hamiltonians.

Sign conventions are fixed once for the whole package, in :func:`layout`:
the subdiagonal is the negative of the superdiagonal (b_i = -c_i), and a
ring closes through corner entries (1, n) = -c_n and (n, 1) = +c_n.  Every
model in scope obeys this antisymmetric pattern, so the assembler
deliberately does not accept independent lower couplings.  The float path
(:func:`build_matrix`) and the mpmath path (``ModelFamily.matrix_mp``) both
go through it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import InvalidSpecError
from .tolerances import EPS_STRUCT


class Topology(Enum):
    OPEN = "open"
    RING = "ring"


def coupling_count(n: int, topology: Topology) -> int:
    """n - 1 couplings on a chain; n on a ring, the last being the corner bond."""
    return n if topology is Topology.RING else n - 1


def is_ring_size(n: int) -> bool:
    """Rings need an even n >= 4; at n = 2 the corner would overwrite the band bond."""
    return n % 2 == 0 and n >= 4


@dataclass(frozen=True)
class LatticeSpec:
    """One Hamiltonian family member: n sites, diagonal a_i, couplings c_i.

    ``upper`` holds n-1 couplings for an open chain and n for a ring (the
    last one being the corner bond closing the ring).
    """

    n: int
    diag: tuple[float, ...]
    upper: tuple[float, ...]
    topology: Topology

    def __post_init__(self):
        object.__setattr__(self, "diag", tuple(float(x) for x in self.diag))
        object.__setattr__(self, "upper", tuple(float(x) for x in self.upper))
        if self.n < 1:
            raise InvalidSpecError(f"dimension must be positive, got n={self.n}")
        if len(self.diag) != self.n:
            raise InvalidSpecError(
                f"diag length {len(self.diag)} does not match n={self.n}"
            )
        expected = coupling_count(self.n, self.topology)
        if len(self.upper) != expected:
            raise InvalidSpecError(
                f"{self.topology.value} topology with n={self.n} needs "
                f"{expected} couplings, got {len(self.upper)}"
            )
        if self.topology is Topology.RING and not is_ring_size(self.n):
            raise InvalidSpecError(f"ring requires an even n >= 4, got n={self.n}")
        if not all(math.isfinite(x) for x in self.diag + self.upper):
            raise InvalidSpecError("matrix entries must be finite")


def layout(n: int, diag, upper, topology: Topology, zero) -> list[list]:
    """Rows of the n x n lattice matrix; entries keep the type they come in.

    Diagonal a_i, band (i, i+1) = c_i and (i+1, i) = -c_i, and on a ring the
    corners (1, n) = -c_n and (n, 1) = +c_n.  ``zero`` fills every other
    entry.
    """
    rows = [[zero] * n for _ in range(n)]
    for i, a in enumerate(diag):
        rows[i][i] = a
    for i, c in enumerate(upper[: n - 1]):
        rows[i][i + 1] = c
        rows[i + 1][i] = -c
    if topology is Topology.RING:
        corner = upper[n - 1]
        rows[0][n - 1] = -corner
        rows[n - 1][0] = corner
    return rows


def build_matrix(spec: LatticeSpec) -> np.ndarray:
    """The float matrix of a validated spec."""
    return np.array(layout(spec.n, spec.diag, spec.upper, spec.topology, 0.0))


def parity(n: int) -> np.ndarray:
    """Alternating-sign diagonal parity operator diag(+1, -1, +1, ...)."""
    if n < 1:
        raise InvalidSpecError(f"dimension must be positive, got n={n}")
    signs = np.ones(n)
    signs[1::2] = -1.0
    return np.diag(signs)


def check_square(h: np.ndarray) -> np.ndarray:
    """Validate a real square matrix with finite entries; return as float array."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise InvalidSpecError(f"expected a square matrix, got shape {h.shape}")
    if not np.all(np.isfinite(h)):
        raise InvalidSpecError("matrix entries must be finite")
    return h


def is_pt_symmetric(h: np.ndarray) -> bool:
    """Check the structural symmetry H^T P = P H with the alternating parity.

    For real matrices transposition plays the role of time reversal, so this
    is the whole symmetry condition.  The threshold is absolute: registry
    matrices satisfy the identity to rounding of single square-root entries.
    """
    h = check_square(h)
    p = parity(h.shape[0])
    return float(np.max(np.abs(h.T @ p - p @ h))) <= EPS_STRUCT
