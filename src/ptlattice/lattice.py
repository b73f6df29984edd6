"""The one matrix assembler for open-chain and ring lattice Hamiltonians.

Sign conventions are fixed once for the whole package, in :func:`layout`:
the subdiagonal is the negative of the superdiagonal (b_i = -c_i), and a
ring closes through corner entries (1, n) = -c_n and (n, 1) = +c_n.  Every
model in scope obeys this antisymmetric pattern, so the assembler
deliberately does not accept independent lower couplings.  Every assembly
path goes through it: :func:`build_matrix` checks the entry counts and
builds the float matrix (``ModelFamily.matrix`` calls it), while
``ModelFamily.matrices`` (a whole stack of matrices at once) lays out
vector entries directly.  Beside it, :func:`determinant_inputs` reads
det(M - lambda I)'s inputs off the rows for the float-lift oracle and the
exact fold alike.  numpy is imported where a matrix is built, so the
command line can name the model types without it.
"""

from __future__ import annotations

import math
from enum import Enum
from typing import TYPE_CHECKING

from .errors import InvalidSpecError
from .tolerances import EPS_STRUCT

if TYPE_CHECKING:
    import numpy as np


class Topology(Enum):
    OPEN = "open"
    RING = "ring"


def coupling_count(n: int, topology: Topology) -> int:
    """n - 1 couplings on a chain; n on a ring, the last being the corner bond."""
    return n if topology is Topology.RING else n - 1


def is_ring_size(n: int) -> bool:
    """Rings need an even n >= 4; at n = 2 the corner would overwrite the band bond."""
    return n % 2 == 0 and n >= 4


def layout(n: int, diag, upper, topology: Topology, rows=None):
    """Rows of the n x n lattice matrix; entries keep the type they come in.

    Diagonal a_i, band (i, i+1) = c_i and (i+1, i) = -c_i, and on a ring the
    corners (1, n) = -c_n and (n, 1) = +c_n.  0.0 fills every other entry
    of a new list of rows.  Given ``rows``, the entries are written
    into it instead and it is returned: an (n, n, m) view of a stack of m
    zero matrices takes each entry as a length-m vector, or as a scalar
    that numpy broadcasts along the stack.
    """
    if rows is None:
        rows = [[0.0] * n for _ in range(n)]
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


def determinant_inputs(rows) -> tuple:
    """The inputs of ``poly._bordered_charpoly``, off the rows of a lattice matrix M.

    The diagonal, the band products sub * sup, the corner product gamma beta
    (gamma = M[1, n], beta = M[n, 1], both 0 for n < 3) and the cycle term
    (-1)^(n+1) (gamma prod(sub) + beta prod(sup)), in the entries' own type.
    """
    n = len(rows)
    sup = [rows[i][i + 1] for i in range(n - 1)]
    sub = [rows[i + 1][i] for i in range(n - 1)]
    gamma, beta = (rows[0][n - 1], rows[n - 1][0]) if n >= 3 else (0, 0)
    return (
        [rows[i][i] for i in range(n)],
        [s * u for s, u in zip(sub, sup)],
        gamma * beta,
        (-1) ** (n + 1) * (gamma * math.prod(sub) + beta * math.prod(sup)),
    )


def build_matrix(n: int, diag, upper, topology: Topology) -> np.ndarray:
    """The float lattice matrix; ``upper`` holds coupling_count(n, topology) bonds.

    n < 1, an entry count that does not fit n, or a bad ring size raises
    InvalidSpecError; non-finite entries are left to check_square.
    """
    if n < 1:
        raise InvalidSpecError(f"dimension must be positive, got n={n}")
    if len(diag) != n:
        raise InvalidSpecError(f"diag length {len(diag)} does not match n={n}")
    expected = coupling_count(n, topology)
    if len(upper) != expected:
        raise InvalidSpecError(
            f"{topology.value} topology with n={n} needs {expected} couplings, got {len(upper)}"
        )
    if topology is Topology.RING and not is_ring_size(n):
        raise InvalidSpecError(f"ring requires an even n >= 4, got n={n}")
    import numpy as np

    return np.array(layout(n, diag, upper, topology), dtype=float)


def parity(n: int) -> np.ndarray:
    """Alternating-sign diagonal parity operator diag(+1, -1, +1, ...)."""
    if n < 1:
        raise InvalidSpecError(f"dimension must be positive, got n={n}")
    import numpy as np

    signs = np.ones(n)
    signs[1::2] = -1.0
    return np.diag(signs)


def check_square(h: np.ndarray) -> np.ndarray:
    """Validate a real square matrix with finite entries; return as float array."""
    import numpy as np

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
    import numpy as np

    h = check_square(h)
    p = parity(h.shape[0])
    return float(np.max(np.abs(h.T @ p - p @ h))) <= EPS_STRUCT
