"""Lattice construction and structural PT checks."""

import math

import numpy as np
import pytest

from ptlattice import (
    InvalidSpecError,
    Topology,
    build_matrix,
    is_pt_symmetric,
    parity,
)
from ptlattice.lattice import check_square


def test_open_chain_layout():
    h = build_matrix(4, (-3, -1, 1, 3), (0.5, 0.6, 0.7), Topology.OPEN)
    expected = np.array(
        [
            [-3, 0.5, 0, 0],
            [-0.5, -1, 0.6, 0],
            [0, -0.6, 1, 0.7],
            [0, 0, -0.7, 3],
        ]
    )
    assert np.array_equal(h, expected)


def test_ring_corner_signs():
    h = build_matrix(4, (-3, -1, 1, 3), (0.5, 0.6, 0.7, 0.9), Topology.RING)
    # band bonds: (i, i+1) positive coupling, (i+1, i) its negative
    assert h[0, 1] == 0.5 and h[1, 0] == -0.5
    # closing bond crosses the corner with the opposite sign convention
    assert h[0, 3] == -0.9 and h[3, 0] == 0.9


def test_parity_alternates_signs():
    p = parity(4)
    assert np.array_equal(np.diag(p), [1, -1, 1, -1])


@pytest.mark.parametrize(
    "n,diag,upper,topology",
    [
        (0, (), (), Topology.OPEN),
        (3, (0, 0), (1, 1), Topology.OPEN),  # diag length mismatch
        (3, (0, 0, 0), (1,), Topology.OPEN),  # upper length mismatch
        (3, (0, 0, 0), (1, 1, 1), Topology.RING),  # odd ring
        (2, (0, 0), (1, 1), Topology.RING),  # ring too small
        (3, (0, float("nan"), 0), (1, 1), Topology.OPEN),  # nonfinite entry
    ],
)
def test_invalid_specs_rejected(n, diag, upper, topology):
    if all(map(math.isfinite, diag + upper)):
        with pytest.raises(InvalidSpecError):
            build_matrix(n, diag, upper, topology)
    else:
        # build_matrix checks the structure only; the entries are check_square's.
        h = build_matrix(n, diag, upper, topology)
        with pytest.raises(InvalidSpecError, match="finite"):
            check_square(h)


def test_pt_symmetry_holds_for_antisymmetric_coupling():
    h = build_matrix(4, (-3, -1, 1, 3), (0.3, 0.4, 0.5), Topology.OPEN)
    assert is_pt_symmetric(h)


def test_pt_symmetry_fails_for_symmetric_coupling():
    h = np.diag([-1.0, 1.0])
    h[0, 1] = h[1, 0] = 0.5  # same sign on both bonds breaks the structure
    assert not is_pt_symmetric(h)


def test_diagonal_must_be_real_antisymmetric_convention():
    diag = (-5, -3, -1, 1, 3, 5)
    h = build_matrix(6, diag, (1.0, 2.0, 3.0, 2.0, 1.0), Topology.OPEN)
    assert np.array_equal(np.diag(h), diag)
    assert np.allclose(h + h.T, 2 * np.diag(diag))
