"""Shared default tolerances, and the checks of the options they bound.

Every matrix in scope is small (n <= 64) with entries of order 1..10; the
defaults assume that scale.  "Relative" thresholds are multiplied by
max(1, scale) where scale is the Frobenius norm or the spectral radius of
the object at hand.

The checks of a t-range, a tolerance, a reality threshold and a grid size
live here, beside their bounds, and need only the standard library, so the
command line rejects a bad option before numpy loads.
"""

from __future__ import annotations

import math

from .errors import InvalidSpecError

# Structural identities built from closed-form entries (absolute).
EPS_STRUCT = 1e-12

# Reality threshold on |Im lambda|, relative to max(1, spectral radius).
EPS_REAL = 1e-9

# Non-degeneracy gate on the minimal eigenvalue gap, relative to ||H||_F.
EPS_GAP = 1e-7

# Residual bound for eigenpairs and trace consistency, relative.
EPS_SPEC = 1e-10

# Intertwiner residual bound for metric candidates, relative.
EPS_METRIC = 1e-10

# Eigenvector-angle acceptance at a located coalescence (radians).
ANGLE_TOL = 1e-4

# Working precision (decimal digits) of the characteristic-polynomial oracle.
ORACLE_DPS = 50

# Largest matrix the dense solvers take, and so the largest model document.
MAX_DENSE_N = 64

# Largest matrix the characteristic-polynomial oracle takes.
MAX_ORACLE_N = 12

# Default coarse-grid density for domain scans (points per unit t).
POINTS_PER_UNIT = 2001

# Default coarse-scan points of a metric positivity interval.
POSITIVITY_STEPS = 1001

# Largest grid a scan or sweep may build, about 50 units of t at the default
# density.  Each point holds an n x n matrix and its eigenvalues at once.
MAX_GRID_POINTS = 100_000


def grid_steps(lo: float, hi: float, steps: int | None = None) -> int:
    """Number of grid points on [lo, hi], bounded by MAX_GRID_POINTS.

    steps=None picks the automatic density of POINTS_PER_UNIT points per
    unit of t.  A count below 2 or above the bound raises InvalidSpecError.
    """
    if steps is None:
        density = min((hi - lo) * POINTS_PER_UNIT, MAX_GRID_POINTS)
        steps = max(2, math.ceil(density) + 1)
    if steps < 2:
        raise InvalidSpecError(f"need at least 2 grid points, got {steps}")
    if steps > MAX_GRID_POINTS:
        raise InvalidSpecError(
            f"the grid on [{lo}, {hi}] would exceed {MAX_GRID_POINTS} points; "
            "give fewer steps or a narrower range"
        )
    return steps


def check_bracket(lo: float, hi: float, tol: float) -> None:
    """Reject a t-range not finite, increasing and of finite width, or a bad tol."""
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise InvalidSpecError(f"t-range must be finite, got [{lo}, {hi}]")
    if not lo < hi:
        raise InvalidSpecError(f"need lo < hi, got [{lo}, {hi}]")
    if not math.isfinite(hi - lo):
        raise InvalidSpecError(f"t-range must have a finite width, got [{lo}, {hi}]")
    check_tol(tol)


def check_tol(tol: float) -> None:
    """Reject a tolerance that is not positive or not finite."""
    if not (math.isfinite(tol) and tol > 0):
        raise InvalidSpecError(f"tol must be positive and finite, got {tol}")


def check_eps_real(eps_real: float) -> None:
    """Reject a reality threshold that is negative or not finite."""
    if not (math.isfinite(eps_real) and eps_real >= 0):
        raise InvalidSpecError(
            f"eps_real must be non-negative and finite, got {eps_real}"
        )
